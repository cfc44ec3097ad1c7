"""Infinite-horizon predictions from two-strategy birth-death products.

Each derived 2-strategy population of size N is a birth-death chain on the
counts {0, ..., N}: from count k it gains an agent at rate (N-k) * up[k]
and loses one at rate k * down[k], where up[k] and down[k] are the derived
rates at fraction k/N.  Its stationary weights are the product

    w_k / w_0 = prod_{j=1..k} [(N-j+1)/j] * [up[j-1] / down[j]]

which the ``factor`` and ``orientation`` variant flags can switch to an
alternative spelling (factor (N-j-1)/j, ratio flipped) that zeroes out the
top counts and is kept only for regression and sensitivity runs.  The joint
prediction over the original grid is the product of the per-population
marginals conditioned on the shared simplex constraint.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chain import StateGrid, StationaryTable
from .errors import EmptySupportError, SymgameError
from .transform import TransformedGame

__all__ = [
    "BirthDeathSpec",
    "BirthDeathWeights",
    "ComparisonMetrics",
    "birth_death_weights",
    "specs_from_transform",
    "product_form_joint",
    "compare",
    "marginal_from_exact",
]


@dataclass(frozen=True, eq=False)
class BirthDeathSpec:
    """Up/down rates of one derived 2-strategy population over the counts 0..N.

    ``up[k]`` is the conditional rate of switching into the tracked strategy
    at count k (fraction k/N), ``down[k]`` the rate of leaving it.  Both must
    be strictly positive where the product reads them.
    """

    population_index: int
    size: int
    up: np.ndarray
    down: np.ndarray
    factor_variant: str = "standard"
    orientation_variant: str = "standard"

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"population size must be at least 1, got {self.size}")
        for name in ("up", "down"):
            rates = np.array(getattr(self, name), dtype=float)
            if rates.shape != (self.size + 1,):
                raise ValueError(f"{name} rates have shape {rates.shape}, expected ({self.size + 1},)")
            rates.setflags(write=False)
            object.__setattr__(self, name, rates)
        for name, value in (("factor", self.factor_variant),
                            ("orientation", self.orientation_variant)):
            if value not in ("standard", "paper"):
                raise ValueError(f"unknown {name} variant '{value}'")


@dataclass(frozen=True)
class BirthDeathWeights:
    """Unnormalized stationary weights over counts {0, ..., N}, w_0 = 1."""

    weights: np.ndarray
    degenerate: bool

    def normalized(self) -> np.ndarray:
        total = self.weights.sum()
        if total <= 0:
            raise EmptySupportError("all birth-death weights are zero")
        return self.weights / total


def birth_death_weights(spec: BirthDeathSpec) -> BirthDeathWeights:
    """Evaluate the product-form weights for one birth-death population.

    Rates are validated strictly positive; a zero weight caused by the
    alternative factor variant is returned with ``degenerate=True`` rather
    than raised.
    """
    N = spec.size
    lo, hi = (spec.down, spec.up) if spec.orientation_variant == "paper" else (spec.up, spec.down)
    lo, hi = lo[:-1], hi[1:]
    j = np.arange(1, N + 1)
    factor = (N - j - 1) / j if spec.factor_variant == "paper" else (N - j + 1) / j
    # the running products of the interleaved steps [f_1, r_1, f_2, r_2, ...]: weight j is
    # element 2j - 1, w_j = (w_(j-1) * f_j) * r_j as a loop over the counts would give it
    with np.errstate(all="ignore"):
        weights = np.multiply.accumulate(np.column_stack([factor, lo / hi]).ravel())[1::2]
    bad = ~(np.isfinite(lo) & np.isfinite(hi) & (lo > 0) & (hi > 0))
    offending = np.flatnonzero(bad | (weights < 0.0))
    if len(offending):
        k = int(offending[0])
        if bad[k]:
            raise SymgameError(
                f"population {spec.population_index}: nonpositive or non-finite rate at "
                f"count {k + 1} (numerator {lo[k].item()!r}, denominator {hi[k].item()!r})"
            )
        raise SymgameError(
            f"population {spec.population_index}: negative weight at count {k + 1} "
            f"(factor variant '{spec.factor_variant}' with N={N})"
        )
    weights = np.concatenate(([1.0], weights + 0.0))  # + 0.0 turns -0.0 into 0.0
    return BirthDeathWeights(weights=weights, degenerate=bool(np.any(weights == 0.0)))


def specs_from_transform(
    transformed: TransformedGame,
    size: int | Sequence[int],
    factor_variant: str = "standard",
    orientation_variant: str = "standard",
) -> list[BirthDeathSpec]:
    """One birth-death spec per derived 2-strategy population.

    ``size`` is the agent count shared by all derived populations, or one
    count per derived population.  The rates of each come from one stacked
    :meth:`TransformedGame.marginal_block` call over the derived states
    ``[k/N * mass, (1 - k/N) * mass]`` of the counts k = 0..N.
    """
    if isinstance(size, numbers.Integral):
        sizes = [size] * len(transformed.populations)
    else:
        sizes = [int(s) for s in size]
        if len(sizes) != len(transformed.populations):
            raise ValueError(
                f"got {len(sizes)} sizes for {len(transformed.populations)} derived populations"
            )
    specs = []
    for i, pop in enumerate(transformed.populations):
        if pop.arity != 2:
            raise ValueError(
                f"derived population {i} has arity {pop.arity}; reduce to 2 strategies first"
            )
        N, mass = sizes[i], transformed.base_game.masses[pop.base_population]
        if N < 1:
            raise ValueError(f"population size must be at least 1, got {N}")
        fractions = np.arange(N + 1) / N
        blocks = transformed.marginal_block(i, np.column_stack([fractions * mass, (1.0 - fractions) * mass]))
        # block[1, 0] switches into the leading strategy, block[0, 1] out of it
        specs.append(BirthDeathSpec(
            population_index=i, size=N, up=blocks[:, 1, 0], down=blocks[:, 0, 1],
            factor_variant=factor_variant, orientation_variant=orientation_variant,
        ))
    return specs


def product_form_joint(marginals: Sequence[np.ndarray], grid: StateGrid) -> StationaryTable:
    """Joint prediction over the original grid from per-population marginals.

    Marginals are consumed in population-block order: a base population with
    n >= 3 strategies owns n marginals (one per derived population), which
    are multiplied and conditioned on its simplex constraint; a 2-strategy
    population owns a single marginal, re-indexed without conditioning.
    Population blocks combine as an outer product.
    """
    marginals = [np.asarray(m, dtype=float) for m in marginals]
    expected = sum(n if n >= 3 else 1 for n in grid.strategy_counts)
    if len(marginals) != expected:
        raise ValueError(f"got {len(marginals)} marginals, grid needs {expected}")

    per_pop_weights = []
    cursor = 0
    for p, (n, size) in enumerate(zip(grid.strategy_counts, grid.sizes)):
        block = marginals[cursor : cursor + (n if n >= 3 else 1)]
        cursor += len(block)
        for m in block:
            if m.shape != (size + 1,):
                raise ValueError(
                    f"population {p}: marginal has {m.shape[0]} entries, expected {size + 1}"
                )
        # one marginal per strategy for n >= 3, multiplied in strategy order;
        # a 2-strategy population reads its single marginal at the first count
        counts = grid.pop_counts[p]
        weights = block[0][counts[:, 0]]
        for t in range(1, len(block)):
            weights = weights * block[t][counts[:, t]]
        total = weights.sum()
        if total <= 0:
            raise EmptySupportError(
                f"population {p}: conditioning on the simplex left no admissible state"
            )
        per_pop_weights.append(weights / total)

    joint = per_pop_weights[0]
    for weights in per_pop_weights[1:]:
        joint = np.multiply.outer(joint, weights)
    return StationaryTable(grid, joint.ravel(), "predicted-product-form")


@dataclass(frozen=True)
class ComparisonMetrics:
    """Distribution distances: total variation, KL (natural log), sup norm."""

    tv: float
    kl: float
    max_abs: float

    def as_lines(self, suffix: str = "") -> list[str]:
        tag = f"_{suffix}" if suffix else ""
        kl = "inf" if math.isinf(self.kl) else f"{self.kl:.17g}"
        return [
            f"tv{tag}: {self.tv:.17g}",
            f"kl{tag}: {kl}",
            f"max_abs{tag}: {self.max_abs:.17g}",
        ]


def compare(p: StationaryTable, q: StationaryTable) -> ComparisonMetrics:
    """Distances between two distributions on the same grid.

    KL uses the 0 log 0 = 0 convention and is +infinity where p puts mass on
    a q-null state.
    """
    if p.grid != q.grid:
        raise ValueError("stationary tables live on different grids")
    pv, qv = p.probabilities, q.probabilities
    tv = 0.5 * float(np.abs(pv - qv).sum())
    support = pv > 0
    if np.any(qv[support] == 0):
        kl = math.inf
    else:
        kl = float(np.sum(pv[support] * np.log(pv[support] / qv[support])))
    return ComparisonMetrics(tv=tv, kl=kl, max_abs=float(np.max(np.abs(pv - qv))))


def marginal_from_exact(
    table: StationaryTable, strategy: int, population: int = 0
) -> np.ndarray:
    """Project an exact table onto one strategy's count; sums to one."""
    if table.provenance != "exact":
        raise ValueError(f"expected an exact table, got '{table.provenance}'")
    grid = table.grid
    if not 0 <= population < len(grid.strategy_counts):
        raise IndexError(f"population {population} out of range")
    if not 0 <= strategy < grid.strategy_counts[population]:
        raise IndexError(
            f"strategy {strategy} out of range for population {population} "
            f"({grid.strategy_counts[population]} strategies)"
        )
    column = grid.counts[:, grid.offsets[population] + strategy]
    return np.bincount(column, weights=table.probabilities, minlength=grid.sizes[population] + 1)
