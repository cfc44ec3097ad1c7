"""Mean-field dynamics: the expected-motion ODE of the revision process.

The velocity of strategy i in a population is the inflow from all strategies
minus the outflow, ``xdot_i = sum_j x_j rho_ji - x_i sum_j rho_ij``, which is
exactly the expected displacement per unit time of the finite jump process.
Trajectories come from fixed-step RK4 so runs are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import IntegrationDivergedError
from .games import PopulationGame, RevisionProtocol, SocialState, _checked_rates, protocol_tuple

__all__ = ["Trajectory", "mean_dynamic_rhs", "integrate_mean_dynamic", "rest_point"]


_ROW_BLOCK = 1024


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


def _rhs_parts(game, protocols, parts):
    # RK4 stages can undershoot zero slightly; rates are taken at the clamped state
    xs = tuple(np.maximum(p, 0.0) for p in parts)
    _, rates = _checked_rates(game, protocols, xs)
    return [rho.T @ x - x * rho.sum(axis=1) for rho, x in zip(rates, xs)]


def mean_dynamic_rhs(
    game: PopulationGame,
    protocol: RevisionProtocol | Sequence[RevisionProtocol],
    state: SocialState,
) -> tuple[np.ndarray, ...]:
    """Per-population velocity vectors; each sums to zero (mass conservation)."""
    game.require_valid_state(state, tol=1e-9)
    protocols = protocol_tuple(protocol, game)
    return tuple(_rhs_parts(game, protocols, state.parts))


def integrate_mean_dynamic(
    game: PopulationGame,
    protocol: RevisionProtocol | Sequence[RevisionProtocol],
    x0: SocialState,
    horizon: float,
    dt: float = 0.01,
) -> Trajectory:
    """Classical RK4 on the mean dynamic with per-step mass renormalization.

    The horizon must be an integer number of steps.  Each step subtracts the
    (numerically zero) per-population mass drift; undershoots below -1e-9
    raise, smaller ones are clamped to zero and logged.  Any coordinate
    exceeding 10x the population mass aborts with the offending step.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if dt <= 0 or dt > horizon:
        raise ValueError(f"need 0 < dt <= horizon, got dt={dt}, horizon={horizon}")
    steps = int(round(horizon / dt))
    if abs(steps * dt - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError(f"horizon {horizon} is not an integer multiple of dt {dt}")
    game.require_valid_state(x0)
    protocols = protocol_tuple(protocol, game)

    counts = game.strategy_counts
    offsets = np.concatenate(([0], np.cumsum(counts)))
    total = offsets[-1]
    states = np.empty((steps + 1, total))
    parts = [np.array(p, dtype=float) for p in x0.parts]
    states[0] = np.concatenate(parts)
    clamp_events: list[int] = []

    def rhs(ps):
        try:
            return _rhs_parts(game, protocols, ps)
        except ValueError:
            # rates whose row sums overflow make an RK4 stage state non-finite
            bad = [p for p, x in enumerate(ps) if not np.isfinite(x).all()]
            if not bad:
                raise
            raise IntegrationDivergedError(
                f"integration diverged at step {step} (population {bad[0]}: non-finite RK4 stage)",
                step=step,
            ) from None

    for step in range(1, steps + 1):
        k1 = rhs(parts)
        k2 = rhs([p + 0.5 * dt * k for p, k in zip(parts, k1)])
        k3 = rhs([p + 0.5 * dt * k for p, k in zip(parts, k2)])
        k4 = rhs([p + dt * k for p, k in zip(parts, k3)])
        new_parts = []
        for p, (x, a, b, c, d) in enumerate(zip(parts, k1, k2, k3, k4)):
            nxt = x + (dt / 6.0) * (a + 2.0 * b + 2.0 * c + d)
            if not np.max(np.abs(nxt)) <= 10.0 * game.masses[p]:  # NaN fails too
                raise IntegrationDivergedError(
                    f"integration diverged at step {step} (population {p}: "
                    f"max |x| = {np.max(np.abs(nxt)):.6g})",
                    step=step,
                )
            # remove floating-point mass drift uniformly
            nxt -= (nxt.sum() - game.masses[p]) / len(nxt)
            if np.any(nxt < 0):
                if np.min(nxt) < -1e-9:
                    raise IntegrationDivergedError(
                        f"integration left the simplex at step {step} "
                        f"(population {p}: min x = {np.min(nxt):.6g})",
                        step=step,
                    )
                nxt = np.maximum(nxt, 0.0)
                nxt *= game.masses[p] / nxt.sum()
                clamp_events.append(step)
            new_parts.append(nxt)
        parts = new_parts
        states[step] = np.concatenate(parts)

    return Trajectory(
        times=np.arange(steps + 1) * dt,
        states=states,
        dt=dt,
        strategy_counts=counts,
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
    candidate = game.barycenter()
    if _rhs_norm(game, protocol, candidate) <= tol:
        return candidate
    horizon = 10.0
    while horizon <= max_horizon:
        traj = integrate_mean_dynamic(game, protocol, candidate, horizon, dt=0.01)
        candidate = traj.final
        if _rhs_norm(game, protocol, candidate) <= tol:
            return candidate
        horizon *= 4.0
    raise ValueError(
        f"no rest point found within horizon {max_horizon}: residual "
        f"{_rhs_norm(game, protocol, candidate):.3g} > {tol}"
    )


def _rhs_norm(game, protocol, state) -> float:
    return max(float(np.max(np.abs(v))) for v in mean_dynamic_rhs(game, protocol, state))
