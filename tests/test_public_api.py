"""The package's public surface: declared names exist, removed ones stay gone."""

import importlib
import pkgutil

import pytest

import symgame

MODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(symgame.__path__, prefix="symgame.")
)


@pytest.mark.parametrize("module_name", MODULES)
def test_every_declared_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("name", ["symmetrize_3to2", "reduce_once", "reduce_to", "evaluate_rates"])
def test_removed_builders_are_not_exported(name):
    assert not hasattr(symgame, name)
