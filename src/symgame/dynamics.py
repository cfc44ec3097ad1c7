"""Mean-field dynamics: the expected-motion ODE of the revision process.

The velocity of strategy i in a population is the inflow from all strategies
minus the outflow, ``xdot_i = sum_j x_j rho_ji - x_i sum_j rho_ij``, which is
exactly the expected displacement per unit time of the finite jump process.
Trajectories come from fixed-step RK4 so runs are bit-reproducible.
"""

from __future__ import annotations

import collections
import itertools
import math
import struct
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Sequence

import numpy as np

from .errors import IntegrationDivergedError
from .games import PopulationGame, RevisionProtocol, _checked_rates, _evaluator, _frozen, protocol_tuple

__all__ = ["Trajectory", "mean_dynamic_rhs", "integrate_mean_dynamic", "rest_point"]


_ROW_BLOCK = 1024
# RK4 looks for each new row among this many previous ones; surveyed bit cycles had periods 1-17
_CYCLE_WINDOW = 32


def _format_rows(line: str, left: np.ndarray, right: np.ndarray) -> str:
    """``line % (*left[k], *right[k])`` for every row ``k`` of two 2-D arrays, joined.

    ``"%.17g" % v`` prints the same as ``f"{v:.17g}"``.  Each block of rows
    becomes one flat tuple of Python objects, formatted by ``line`` repeated
    once per row, so the objects alive at once stay small next to the text.
    ``StationaryTable.to_csv`` and ``Trajectory.to_csv`` pass texts from
    :func:`_format_distinct` under ``%s``: stationary laws repeat values across
    symmetric states, and trajectory states repeat once RK4 stops in a cycle.
    Times are passed as floats: path and trajectory times strictly increase,
    so no time repeats.
    """
    blocks = []
    for a in range(0, len(left), _ROW_BLOCK):
        block = slice(a, a + _ROW_BLOCK)
        rows = np.concatenate((left[block], right[block]), axis=1, dtype=object)
        blocks.append((line * len(rows)) % tuple(rows.ravel().tolist()))
    return "".join(blocks)


def _format_distinct(values: np.ndarray) -> np.ndarray:
    """``"%.17g" % v`` for every entry of a 1-D float64 array, as an object array of str.

    Each distinct bit pattern is formatted once and its text reused.  Keying
    on bits, not values, keeps ``-0.0`` apart from ``0.0``.
    """
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    return np.array(["%.17g" % v for v in bits.view(float).tolist()], dtype=object)[inverse]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Fixed-step ODE solution: ``states[k]`` is the state at ``times[k]``.

    ``states`` is a (steps+1, total_strategies) array with populations laid
    out contiguously in order.  ``clamp_events`` records any step where a
    floating-point undershoot below zero was clamped away.
    """

    times: np.ndarray
    states: np.ndarray
    strategy_counts: tuple[int, ...]
    clamp_events: tuple[int, ...] = ()

    @property
    def final(self) -> tuple[np.ndarray, ...]:
        """The last state, as read-only parts of a copy of the last row."""
        return _frozen(np.split(self.states[-1].copy(), np.cumsum(self.strategy_counts))[:-1])

    def to_csv(self) -> str:
        """Tabular text: header ``t,x_1,...,x_n`` (population blocks in order)."""
        names = []
        for p, n in enumerate(self.strategy_counts):
            tag = "" if len(self.strategy_counts) == 1 else f"p{p + 1}_"
            names.extend(f"{tag}x_{i + 1}" for i in range(n))
        # times strictly increase, so only the states have values worth formatting once
        texts = _format_distinct(np.asarray(self.states, dtype=float).ravel()).reshape(self.states.shape)
        line = "%.17g" + ",%s" * len(names) + "\n"
        return "t," + ",".join(names) + "\n" + _format_rows(line, self.times[:, None], texts)


def _spans(game: PopulationGame) -> list[tuple[int, int]]:
    """The ``(start, stop)`` columns of each population in a flat state."""
    return list(itertools.pairwise([0, *itertools.accumulate(game.strategy_counts)]))


def _velocity_fn(game, protocols, spans):
    """The mean-dynamic velocity at a flat stage ``y``, clamped at zero first (RK4 stages can undershoot it).

    ``y`` and the velocity are lists of Python floats with numpy's bits (see
    :func:`integrate_mean_dynamic`).  The clamped stage is one read-only array for the screen of
    :func:`symgame.games._evaluator` and for the inflow ``x @ rho``, one BLAS call.  A state that
    fails the screen is evaluated again by :func:`symgame.games._checked_rates`, which raises the
    precise error.
    """
    evaluate, one = _evaluator(game, protocols), len(spans) == 1
    slices = [slice(a, b) for a, b in spans]

    def velocity(y):
        xs = [v if v > 0.0 else (0.0 if v <= 0.0 else v) for v in y]
        x = np.array(xs)
        x.setflags(write=False)
        parts = (x,) if one else tuple(map(x.__getitem__, slices))
        rates, ok = evaluate(parts) or (None, False)
        if not ok:
            rates = _checked_rates(game, protocols, parts)
        v = []
        for rho, xp, part in zip(rates, parts, slices):
            inflow = (xp @ rho).tolist()  # the BLAS call of rho.T @ xp, so the same bits, in half the time
            if len(rho) < 8:
                v += [i - xi * reduce(add, row, 0.0) for i, xi, row in zip(inflow, xs[part], rho.tolist())]
            else:
                v += [i - xi * r for i, xi, r in zip(inflow, xs[part], np.add.reduce(rho, -1).tolist())]
        return v

    return velocity


def _stopped(what: str, step: int, p: int, detail: str) -> IntegrationDivergedError:
    return IntegrationDivergedError(f"integration {what} at step {step} (population {p}: {detail})", step=step)


def mean_dynamic_rhs(
    game: PopulationGame,
    protocol: RevisionProtocol | Sequence[RevisionProtocol],
    state: Sequence[np.ndarray],
) -> tuple[np.ndarray, ...]:
    """Per-population velocity vectors at a state (one mass vector per population); each sums to zero."""
    parts = game.require_valid_state(state)
    spans = _spans(game)
    v = _velocity_fn(game, protocol_tuple(protocol, game), spans)(np.concatenate(parts).tolist())
    return tuple(np.array(v[a:b]) for a, b in spans)


def integrate_mean_dynamic(
    game: PopulationGame,
    protocol: RevisionProtocol | Sequence[RevisionProtocol],
    x0: Sequence[np.ndarray],
    horizon: float,
    dt: float = 0.01,
) -> Trajectory:
    """Classical RK4 on the mean dynamic with per-step mass renormalization.

    ``x0`` is a state, one mass vector per population, checked by
    :meth:`~symgame.games.PopulationGame.require_valid_state`.  The horizon must be finite and an
    integer number of steps.  The state and the four stages are lists of Python floats, populations
    laid out contiguously in order; each stage makes one numpy round trip in :func:`_velocity_fn`.
    Each RK4 stage ``x + h * k`` costs one payoff call and one ``rate_fn`` call per population, on
    the stage clamped at zero and made read-only.  Its velocity is computed once the stage passes
    the screen of :func:`symgame.games._evaluator`, the one that the lattice and the paths use, so
    a model that fails it raises the error of the validating path.  Each step then subtracts each
    population's (numerically zero) mass drift; undershoots below -1e-9 raise, smaller ones are
    clamped to zero and logged.  Any coordinate exceeding 10x the population mass aborts with the
    offending step.

    Rows keep the bits of the same steps on numpy arrays.  Python's ``+ - *`` on floats are the
    IEEE operations of numpy's ufuncs, in the same order (``x + dt/6 * (((k1 + 2 k2) + 2 k3) +
    k4)``).  The clamp copies ``np.maximum(y, 0.0)``, which keeps NaN and maps ``-0.0`` to ``0.0``
    (``max(v, 0.0)`` keeps ``-0.0``).  ``np.add.reduce`` sums fewer than 8 entries left to right
    from ``0.0``, so drift totals and rate row sums of populations below 8 strategies are that
    fold; it sums 8 or more pairwise, so those stay numpy calls.  Nothing that reaches ``states``
    comes from the built-in ``sum()``, compensated from Python 3.12 on.

    Payoffs and rates are deterministic functions of the state, so a step that returns the bytes
    of one of the last ``_CYCLE_WINDOW`` rows (bytes, not values: ``-0.0`` prints apart from
    ``0.0``), with no clamp logged since that row, closes a cycle that every later step repeats:
    the cycle fills the remaining rows and no further step runs.  A fixed point is a cycle of
    period 1; ``rps_sum_exponential`` in ``docs/examples`` enters a 2-cycle and stops after 1,104
    of its 5,000 steps.
    """
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    if not 0 < dt <= horizon:
        raise ValueError(f"need 0 < dt <= horizon, got dt={dt}, horizon={horizon}")
    steps = int(round(horizon / dt))
    if abs(steps * dt - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError(f"horizon {horizon} is not an integer multiple of dt {dt}")
    parts = game.require_valid_state(x0)
    protocols = protocol_tuple(protocol, game)
    spans = _spans(game)
    times = np.arange(steps + 1) * dt  # before ``states``: its int64 temporary is gone when ``states`` is made
    states = np.empty((steps + 1, spans[-1][1]))
    x = np.concatenate(parts, out=states[0]).tolist()
    pack = struct.Struct(f"{len(x)}d").pack  # a row's bytes, as ndarray.tobytes() gives them
    recent = collections.deque([pack(*x)], maxlen=_CYCLE_WINDOW)  # rows step - len(recent) .. step - 1
    half, sixth = 0.5 * dt, dt / 6.0
    clamp_events: list[int] = []
    velocity = _velocity_fn(game, protocols, spans)
    for step in range(1, steps + 1):
        try:  # y is the stage being evaluated
            k1 = velocity(y := x)
            k2 = velocity(y := [xi + half * k for xi, k in zip(x, k1)])
            k3 = velocity(y := [xi + half * k for xi, k in zip(x, k2)])
            k4 = velocity(y := [xi + dt * k for xi, k in zip(x, k3)])
        except ValueError:
            # rates whose row sums overflow make an RK4 stage state non-finite
            bad = [p for p, (a, b) in enumerate(spans) if not all(map(math.isfinite, y[a:b]))]
            if not bad:
                raise
            raise _stopped("diverged", step, bad[0], "non-finite RK4 stage") from None
        x = [xi + sixth * (a + 2.0 * b + 2.0 * c + d) for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]
        for p, (a, b) in enumerate(spans):
            part, mass = x[a:b], game.masses[p]
            total = reduce(add, part, 0.0) if b - a < 8 else float(np.add.reduce(part))
            lo, hi = min(part), max(part)  # each skips a NaN that is not first; the total keeps it
            if not (-10.0 * mass <= lo and hi <= 10.0 * mass) or total != total:
                raise _stopped("diverged", step, p, f"max |x| = {np.max(np.abs(part)):.6g}")
            # remove floating-point mass drift uniformly; subtracting one number keeps
            # the order, so the smallest entry becomes lo - drift
            drift = (total - mass) / (b - a)
            part = [v - drift for v in part]
            if lo - drift < 0:
                if lo - drift < -1e-9:
                    raise _stopped("left the simplex", step, p, f"min x = {lo - drift:.6g}")
                clamped = np.maximum(part, 0.0)
                part = (clamped * (mass / clamped.sum())).tolist()
                clamp_events.append(step)
            x[a:b] = part
        states[step] = x
        row = pack(*x)
        if row in recent and clamp_events[-1:] <= [j := step - len(recent) + recent.index(row)]:
            # rows j + 1 .. step repeat in every later step: broadcast whole periods, then the tail
            rest, period = states[step + 1 :], states[j + 1 : step + 1]
            whole = len(rest) - len(rest) % len(period)
            rest[:whole].reshape(-1, *period.shape)[:] = period
            rest[whole:] = period[: len(rest) - whole]
            break
        recent.append(row)

    return Trajectory(
        times=times,
        states=states,
        strategy_counts=game.strategy_counts,
        clamp_events=tuple(clamp_events),
    )


def rest_point(
    game: PopulationGame,
    protocol: RevisionProtocol | Sequence[RevisionProtocol],
    tol: float = 1e-10,
    max_horizon: float = 1000.0,
) -> tuple[np.ndarray, ...]:
    """A certified rest point of the mean dynamic, as read-only parts.

    The barycenter is a rest point whenever the switch rates are symmetric
    (inflow and outflow cancel pairwise), so it is tried first; otherwise the
    dynamic is relaxed from the barycenter until the velocity is below
    ``tol`` in sup norm.
    """
    velocity = _velocity_fn(game, protocol_tuple(protocol, game), _spans(game))

    def residual(parts: tuple[np.ndarray, ...]) -> float:
        return float(np.max(np.abs(velocity(np.concatenate(parts).tolist()))))

    candidate = game.barycenter()
    if residual(candidate) <= tol:
        return candidate
    horizon = 10.0
    while horizon <= max_horizon:
        traj = integrate_mean_dynamic(game, protocol, candidate, horizon, dt=0.01)
        candidate = traj.final
        if residual(candidate) <= tol:
            return candidate
        horizon *= 4.0
    raise ValueError(
        f"no rest point found within horizon {max_horizon}: residual "
        f"{residual(candidate):.3g} > {tol}"
    )

