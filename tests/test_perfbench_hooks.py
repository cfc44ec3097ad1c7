"""The benchmark's tracing hooks still find every function they wrap.

``perfbench/tracing.py`` looks each traced function up by name in ``symgame``;
a renamed or moved function would otherwise show only in the slow
``perfbench/selftest.py``.  These checks import the hooks without running a
workload.
"""

import importlib
import sys
from pathlib import Path

import pytest

import symgame

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def _owner_and_name(module_name, attr):
    owner = importlib.import_module(f"symgame.{module_name}")
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, name


def _module_functions():
    # every function a symgame module holds, under each name it is looked up by
    return {
        (module_name, key): value
        for module_name, module in list(sys.modules.items())
        if module_name == "symgame" or module_name.startswith("symgame.")
        for key, value in vars(module).items()
        if callable(value)
    }


def test_every_traced_name_resolves(tracing):
    assert tracing.TRACED
    for module_name, attr, span_name, _ in tracing.TRACED:
        assert module_name in tracing.LAYERS
        assert span_name.startswith(f"{module_name}.")
        owner, name = _owner_and_name(module_name, attr)
        assert callable(getattr(owner, name, None)), f"symgame.{module_name}.{attr}"


def test_tracing_installs_and_restores_the_originals(tracing):
    sites = [_owner_and_name(module_name, attr) for module_name, attr, _, _ in tracing.TRACED]
    originals = [getattr(owner, name) for owner, name in sites]
    before = _module_functions()
    with tracing.tracing() as rec:
        for (owner, name), original in zip(sites, originals):
            wrapper = getattr(owner, name)
            assert wrapper is not original
            assert wrapper.__wrapped__ is original
        game = symgame.make_linear_game([[0, -1, 1], [1, 0, -1], [-1, 1, 0]])
        grid = symgame.build_grid(game, 3)
        chain = symgame.build_generator(game, symgame.constant_protocol(1.0), grid)
        symgame.exact_stationary(chain).to_csv()
    assert [getattr(owner, name) for owner, name in sites] == originals
    after = _module_functions()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    totals = rec.total_times()
    for span in ("chain.build_grid", "chain.build_generator", "chain.exact_stationary",
                 "chain.table_csv"):
        assert span in totals, span
    assert rec.counts["chain.states"] == len(grid) == 10
