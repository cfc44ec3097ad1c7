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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import IntegrationDivergedError
from .games import PopulationGame, RevisionProtocol, SocialState, _checked_rates, protocol_tuple

__all__ = ["Trajectory", "mean_dynamic_rhs", "integrate_mean_dynamic", "rest_point"]


_ROW_BLOCK = 1024
# RK4 looks for each new row among this many previous ones; surveyed bit cycles had periods 1-17
_CYCLE_WINDOW = 32


def _format_rows(line: str, left: np.ndarray, right: np.ndarray) -> str:
    """``line % (*left[k], *right[k])`` for every row ``k`` of two 2-D arrays, joined.

    ``"%.17g" % v`` prints the same as ``f"{v:.17g}"``.  Each block of rows
    becomes one flat tuple of Python numbers, formatted by ``line`` repeated
    once per row, so the objects alive at once stay small next to the text.
    """
    blocks = []
    for a in range(0, len(left), _ROW_BLOCK):
        block = slice(a, a + _ROW_BLOCK)
        rows = np.concatenate((left[block], right[block]), axis=1, dtype=object)
        blocks.append((line * len(rows)) % tuple(rows.ravel().tolist()))
    return "".join(blocks)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Fixed-step ODE solution: ``states[k]`` is the state at ``times[k]``.

    ``states`` is a (steps+1, total_strategies) array with populations laid
    out contiguously in order.  ``clamp_events`` records any step where a
    floating-point undershoot below zero was clamped away.
    """

    times: np.ndarray
    states: np.ndarray
    dt: float
    strategy_counts: tuple[int, ...]
    masses: tuple[float, ...]
    clamp_events: tuple[int, ...] = ()

    @property
    def final(self) -> SocialState:
        return SocialState(parts=tuple(np.split(self.states[-1], np.cumsum(self.strategy_counts))[:-1]))

    def to_csv(self) -> str:
        """Tabular text: header ``t,x_1,...,x_n`` (population blocks in order)."""
        names = []
        for p, n in enumerate(self.strategy_counts):
            tag = "" if len(self.strategy_counts) == 1 else f"p{p + 1}_"
            names.extend(f"{tag}x_{i + 1}" for i in range(n))
        line = ",".join(["%.17g"] * (1 + len(names))) + "\n"
        return "t," + ",".join(names) + "\n" + _format_rows(line, self.times[:, None], self.states)


def _spans(game: PopulationGame) -> list[tuple[int, int]]:
    """The ``(start, stop)`` columns of each population in a flat state."""
    return list(itertools.pairwise([0, *itertools.accumulate(game.strategy_counts)]))


def _velocity_fn(game, protocols, spans):
    """The mean-dynamic velocity at flat states ``y``, clamped at zero first (RK4 stages can undershoot it).

    Each call is screened as :func:`integrate_mean_dynamic` says; one that fails is evaluated again
    by :func:`symgame.games._checked_rates`, which raises the precise error or passes finite values
    whose sum overflowed.  A callable's own exception propagates, as it would from there.
    """
    payoff, one = game.payoff, len(spans) == 1
    slices, shapes = [slice(a, b) for a, b in spans], [(b - a,) for a, b in spans]
    squares = [(proto.rate_fn, (b - a, b - a)) for proto, (a, b) in zip(protocols, spans)]

    def velocity(y):
        x = np.maximum(y, 0.0)
        x.setflags(write=False)
        parts = (x,) if one else tuple(map(x.__getitem__, slices))
        values = payoff(SocialState._unchecked(parts))
        if one and isinstance(values, np.ndarray):
            values = (values,)
        payoffs = [np.asarray(pi, dtype=float) for pi in values]
        if [pi.shape for pi in payoffs] == shapes:
            v = []
            for (rate_fn, square), pi, xp in zip(squares, payoffs, parts):
                rho = np.asarray(rate_fn(pi, xp), dtype=float)
                if rho.shape != square:
                    break
                # inf and NaN propagate through a float sum; finite values whose sum overflows go the checked way
                flat = rho.ravel().tolist()
                if min(flat) < 0 or not math.isfinite(sum(flat) + sum(pi.tolist()) + sum(xp.tolist())):
                    break
                v.append(rho.T @ xp - xp * np.add.reduce(rho, axis=-1))
            else:
                return v[0] if one else np.concatenate(v)
        _, rates, row_sums = _checked_rates(game, protocols, parts)
        v = [rho.T @ xp - xp * r for rho, xp, r in zip(rates, parts, row_sums)]
        return v[0] if one else np.concatenate(v)

    return velocity


def _stopped(what: str, step: int, p: int, detail: str) -> IntegrationDivergedError:
    return IntegrationDivergedError(f"integration {what} at step {step} (population {p}: {detail})", step=step)


def mean_dynamic_rhs(
    game: PopulationGame,
    protocol: RevisionProtocol | Sequence[RevisionProtocol],
    state: SocialState,
) -> tuple[np.ndarray, ...]:
    """Per-population velocity vectors; each sums to zero (mass conservation)."""
    game.require_valid_state(state, tol=1e-9)
    spans = _spans(game)
    v = _velocity_fn(game, protocol_tuple(protocol, game), spans)(np.concatenate(state.parts))
    return tuple(v[a:b] for a, b in spans)


def integrate_mean_dynamic(
    game: PopulationGame,
    protocol: RevisionProtocol | Sequence[RevisionProtocol],
    x0: SocialState,
    horizon: float,
    dt: float = 0.01,
) -> Trajectory:
    """Classical RK4 on the mean dynamic with per-step mass renormalization.

    The horizon must be finite and an integer number of steps.  The state is one flat array,
    populations laid out contiguously in order.  Each RK4 stage ``x + h * k`` is formed once and
    costs one payoff call and one ``rate_fn`` call per population, on the stage clamped at zero
    and made read-only.  Its velocity is computed once no rate is negative and, per population,
    the sum of the state, payoffs and rates is finite: the element-wise screen of
    :func:`symgame.games._checked_rates`, by one Python sum.  Each step then works on each
    population's view: it subtracts the (numerically zero) mass drift; undershoots below -1e-9
    raise, smaller ones are clamped to zero and logged.  Any coordinate exceeding 10x the
    population mass aborts with the offending step.  Payoffs and rates are deterministic functions
    of the state, so a step that returns the bytes of one of the last ``_CYCLE_WINDOW`` rows
    (bytes, not values: ``-0.0`` prints apart from ``0.0``), with no clamp logged since that row,
    closes a cycle that every later step repeats: the cycle fills the remaining rows and no
    further step runs.  A fixed point is a cycle of period 1; ``rps_sum_exponential`` in
    ``docs/examples`` enters a 2-cycle and stops after 1,104 of its 5,000 steps.
    """
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    if not 0 < dt <= horizon:
        raise ValueError(f"need 0 < dt <= horizon, got dt={dt}, horizon={horizon}")
    steps = int(round(horizon / dt))
    if abs(steps * dt - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError(f"horizon {horizon} is not an integer multiple of dt {dt}")
    game.require_valid_state(x0)
    protocols = protocol_tuple(protocol, game)
    spans = _spans(game)
    states = np.empty((steps + 1, spans[-1][1]))
    x = np.concatenate(x0.parts, out=states[0])
    half, sixth = 0.5 * dt, dt / 6.0
    clamp_events: list[int] = []
    velocity = _velocity_fn(game, protocols, spans)

    def rhs(y):
        try:
            return velocity(y)
        except ValueError:
            # rates whose row sums overflow make an RK4 stage state non-finite
            bad = [p for p, (a, b) in enumerate(spans) if not np.isfinite(y[a:b]).all()]
            if not bad:
                raise
            raise _stopped("diverged", step, bad[0], "non-finite RK4 stage") from None

    recent = collections.deque([x.tobytes()], maxlen=_CYCLE_WINDOW)  # rows step - len(recent) .. step - 1
    for step in range(1, steps + 1):
        k1 = rhs(x)
        k2 = rhs(x + half * k1)
        k3 = rhs(x + half * k2)
        k4 = rhs(x + dt * k3)
        x = np.add(x, sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4), out=states[step])
        for p, (a, b) in enumerate(spans):
            part, mass = x[a:b], game.masses[p]
            lo, hi = np.minimum.reduce(part), np.maximum.reduce(part)
            if not (-10.0 * mass <= lo and hi <= 10.0 * mass):  # NaN fails too
                raise _stopped("diverged", step, p, f"max |x| = {np.max(np.abs(part)):.6g}")
            # remove floating-point mass drift uniformly; subtracting one number keeps
            # the order, so the smallest entry becomes lo - drift
            drift = (np.add.reduce(part) - mass) / (b - a)
            part -= drift
            if lo - drift < 0:
                if lo - drift < -1e-9:
                    raise _stopped("left the simplex", step, p, f"min x = {lo - drift:.6g}")
                np.maximum(part, 0.0, out=part)
                part *= mass / part.sum()
                clamp_events.append(step)
        row = x.tobytes()
        if row in recent and clamp_events[-1:] <= [j := step - len(recent) + recent.index(row)]:
            rest = states[step + 1 :]  # rows j + 1 .. step repeat: every later step returns their bits in turn
            rest[:] = states[j + 1 : step + 1][np.arange(len(rest)) % (step - j)]
            break
        recent.append(row)

    return Trajectory(
        times=np.arange(steps + 1) * dt,
        states=states,
        dt=dt,
        strategy_counts=game.strategy_counts,
        masses=game.masses,
        clamp_events=tuple(clamp_events),
    )


def rest_point(
    game: PopulationGame,
    protocol: RevisionProtocol | Sequence[RevisionProtocol],
    tol: float = 1e-10,
    max_horizon: float = 1000.0,
) -> SocialState:
    """A certified rest point of the mean dynamic.

    The barycenter is a rest point whenever the switch rates are symmetric
    (inflow and outflow cancel pairwise), so it is tried first; otherwise the
    dynamic is relaxed from the barycenter until the velocity is below
    ``tol`` in sup norm.
    """
    velocity = _velocity_fn(game, protocol_tuple(protocol, game), _spans(game))

    def residual(state: SocialState) -> float:
        return float(np.max(np.abs(velocity(np.concatenate(state.parts)))))

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

