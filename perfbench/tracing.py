"""Spans around the public functions of each symgame layer, installed from outside.

:func:`install` replaces each traced function with a timing wrapper under
every name a caller looks it up by: the defining module, every ``symgame``
module that imported it by name (``symgame.cli.integrate_mean_dynamic``,
``symgame.transform.validate_hypotheses``) and, for methods, the class.  The
program's files are not touched.  Spans nest; a span's self time is its
duration minus the durations of the spans it caused.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

LAYERS = ("config", "games", "dynamics", "transform", "stationary", "chain", "cli")


def _count_trajectory(rec, traj):
    rec.counts["dynamics.rk4_steps"] += len(traj.times) - 1
    rec.counts["dynamics.clamp_events"] += len(traj.clamp_events)


def _count_chain(rec, chain):
    rec.counts["chain.build_generator.calls"] += 1
    rec.counts["chain.states"] += len(chain.grid)
    rec.counts["chain.edges"] += len(chain.src)


def _count_exact(rec, exact):
    rec.solvers.add(exact.metadata["solver"])
    rec.max_residual = max(rec.max_residual, exact.metadata["residual"])


def _count_path(rec, path):
    rec.counts["chain.events"] += len(path.times) - 1


def _count_samples(rec, states):
    rec.counts["games.sample_states.states"] += len(states)


# (module, attribute path, span name, counter fed from the return value)
TRACED = (
    ("config", "parse_config", "config.parse_config", None),
    ("games", "sample_states", "games.sample_states", _count_samples),
    ("games", "validate_hypotheses", "games.validate_hypotheses", None),
    ("dynamics", "integrate_mean_dynamic", "dynamics.integrate_mean_dynamic", _count_trajectory),
    ("dynamics", "Trajectory.to_csv", "dynamics.trajectory_csv", None),
    ("transform", "decompose", "transform.decompose", None),
    ("stationary", "birth_death_weights", "stationary.birth_death_weights", None),
    ("stationary", "product_form_joint", "stationary.product_form_joint", None),
    ("stationary", "compare", "stationary.compare", None),
    ("chain", "build_grid", "chain.build_grid", None),
    ("chain", "build_generator", "chain.build_generator", _count_chain),
    ("chain", "exact_stationary", "chain.exact_stationary", _count_exact),
    ("chain", "simulate_path", "chain.simulate_path", _count_path),
    ("chain", "deviation_vs_ode", "chain.deviation_vs_ode", None),
    ("chain", "check_detailed_balance", "chain.check_detailed_balance", None),
    ("chain", "PathResult.to_csv", "chain.path_csv", None),
    ("chain", "StationaryTable.to_csv", "chain.table_csv", None),
    ("cli", "main", "cli.main", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    child_time: float = 0.0


@dataclass
class Recorder:
    """Spans and counters of one traced pass, kept in memory."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    solvers: set[str] = field(default_factory=set)
    max_residual: float = 0.0
    open: list[int] = field(default_factory=list)  # indices of unfinished spans

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.name] += (span.end - span.start) - span.child_time
        return out

    def total_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.name] += span.end - span.start
        return out


@contextlib.contextmanager
def tracing():
    """Install the wrappers for the duration of the block; yield its Recorder."""
    rec = Recorder()
    restore: list[tuple[object, str, object]] = []
    try:
        modules = {name: importlib.import_module(f"symgame.{name}") for name in LAYERS}
        for module_name, attr, span_name, count in TRACED:
            owner = modules[module_name]
            *classes, name = attr.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, name)
            wrapper = _wrap(rec, span_name, original, count)
            sites = [owner] if classes else [
                m for n, m in sys.modules.items()
                if (n == "symgame" or n.startswith("symgame.")) and getattr(m, name, None) is original
            ]
            for site in sites:
                restore.append((site, name, original))
                setattr(site, name, wrapper)
        yield rec
    finally:
        for site, name, original in reversed(restore):
            setattr(site, name, original)


def _wrap(rec: Recorder, span_name: str, fn, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        parent = rec.open[-1] if rec.open else None
        span = Span(span_name, time.perf_counter(), parent=parent)
        rec.spans.append(span)
        rec.open.append(len(rec.spans) - 1)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            rec.open.pop()
            if parent is not None:
                rec.spans[parent].child_time += span.end - span.start
        if count is not None:
            count(rec, result)
        return result

    return traced
