"""Domain types for population games, social states, and revision protocols.

A game couples one or more populations of continuous mass with a payoff map
over social states.  A social state is a tuple of float mass vectors, one per
population; :meth:`PopulationGame.require_valid_state` checks one from outside.
A revision protocol assigns every (payoff, state) pair a matrix of conditional
switch rates between strategies.  This module also provides the lattice of
social states as an array (:class:`StateGrid`) and the hypothesis checks (rate
symmetry, full support) that the two-strategy decomposition machinery relies on.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import GridSizeError, ProtocolError

__all__ = [
    "StateGrid",
    "PopulationGame",
    "RevisionProtocol",
    "ValidationReport",
    "make_linear_game",
    "make_separable_game",
    "constant_protocol",
    "sum_exponential_protocol",
    "table_protocol",
    "custom_protocol",
    "protocol_tuple",
    "grid_rates",
    "validate_hypotheses",
    "sample_states",
    "count_states",
]

# Rate functions map (payoff vector, population state) -> n x n switch-rate matrix.
RateFn = Callable[[np.ndarray, np.ndarray], np.ndarray]
PayoffFn = Callable[[tuple[np.ndarray, ...]], tuple[np.ndarray, ...]]

MASS_TOL = 1e-12
DEFAULT_GRID_LIMIT = 2_000_000
ENUMERATION_LIMIT = 1_000_000


def _check_masses(p: int, vec: np.ndarray) -> None:
    """Raise at the first state of ``vec`` (``(n,)`` or ``(S, n)``) whose masses are not all finite and above ``-MASS_TOL``."""
    bad = ~np.isfinite(vec) | (vec < -MASS_TOL)
    if bad.any():
        row = vec.reshape(-1, vec.shape[-1])[bad.reshape(-1, vec.shape[-1]).any(axis=1).argmax()]
        if not np.isfinite(row).all():
            raise ValueError(f"population {p}: state has non-finite entries")
        raise ValueError(f"population {p}: negative mass {float(row.min())}")


def _per_population(items, num_populations: int, what: str) -> tuple:
    """``items`` as a tuple, which must hold one entry per population, else ``ValueError``."""
    items = tuple(items)
    if len(items) != num_populations:
        raise ValueError(f"got {len(items)} {what} for {num_populations} populations")
    return items


def _frozen(parts) -> tuple[np.ndarray, ...]:
    """``parts`` as a tuple, each array made read-only in place."""
    for x in parts:
        x.setflags(write=False)
    return tuple(parts)


@dataclass(frozen=True, eq=False)
class PopulationGame:
    """A population game: masses, strategy counts, and a total payoff map.

    ``payoff(parts)`` takes a state, a tuple of read-only ``(n_p,)`` float
    arrays, and must return one payoff vector per population for every valid
    state (it never raises on valid input).  A ``vectorized`` game declares
    that the same callable also takes a tuple of ``(S, n_p)`` arrays, one
    state per row, and returns one ``(S, n_p)`` payoff array per population,
    row ``s`` equal to the payoff at state ``s``.  With vectorized protocols
    too, :func:`grid_rates` evaluates a whole lattice in one call each, and a
    simulated path a tile of nearby lattice states, visited or not.
    """

    masses: tuple[float, ...]
    strategy_counts: tuple[int, ...]
    payoff: PayoffFn
    vectorized: bool = False

    def __post_init__(self):
        object.__setattr__(self, "masses", tuple(float(m) for m in self.masses))
        object.__setattr__(self, "strategy_counts", tuple(int(n) for n in self.strategy_counts))
        if len(self.masses) != len(self.strategy_counts):
            raise ValueError("masses and strategy_counts must have one entry per population")
        for p, (m, n) in enumerate(zip(self.masses, self.strategy_counts)):
            if m <= 0:
                raise ValueError(f"population {p}: mass must be positive, got {m}")
            if n < 2:
                raise ValueError(f"population {p}: needs at least 2 strategies, got {n}")

    @property
    def num_populations(self) -> int:
        return len(self.masses)

    def payoff_at(self, parts: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
        """Evaluate the payoff map at one state and validate its shape and finiteness."""
        values = self.payoff(parts)
        if isinstance(values, np.ndarray) and self.num_populations == 1:
            values = (values,)
        values = _per_population(values, self.num_populations, "payoff vectors")
        values = tuple(np.asarray(v, dtype=float) for v in values)
        for p, (vec, n) in enumerate(zip(values, self.strategy_counts)):
            if vec.shape != (n,):
                raise ValueError(f"population {p}: payoff shape {vec.shape} != ({n},)")
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"population {p}: payoff has non-finite entries")
        return values

    def require_valid_state(self, parts: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
        """``parts`` as read-only float64 copies, else ``ValueError``: nonempty vectors of finite masses,
        none below ``-MASS_TOL``, one per population, of its length and mass (``MASS_TOL``, relative above 1)."""
        parts = tuple(np.array(x, dtype=float) for x in parts)
        for p, vec in enumerate(parts):
            if vec.ndim != 1 or vec.size == 0:
                raise ValueError(f"population {p}: state must be a nonempty vector")
            _check_masses(p, vec)
        parts = _per_population(parts, self.num_populations, "state parts")
        for p, (vec, m, n) in enumerate(zip(parts, self.masses, self.strategy_counts)):
            if vec.shape != (n,):
                raise ValueError(f"population {p}: state shape {vec.shape} != ({n},)")
            if abs(float(vec.sum()) - m) > MASS_TOL * max(1.0, m):
                raise ValueError(f"population {p}: mass {float(vec.sum())} != {m} beyond tolerance {MASS_TOL}")
        return _frozen(parts)

    def barycenter(self) -> tuple[np.ndarray, ...]:
        return _frozen([np.full(n, m / n) for m, n in zip(self.masses, self.strategy_counts)])


def _matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    # a stack of states goes through one gemv per state, as a single ``A @ x``
    # does, so both give the same bits (``x @ A.T`` does not)
    return A @ x if x.ndim == 1 else np.matmul(A, x[..., None])[..., 0]


def make_linear_game(payoff_matrix, mass: float = 1.0) -> PopulationGame:
    """Single-population game with linear payoffs ``A @ x``.

    Raises ValueError for a non-square or non-finite matrix.
    """
    A = np.array(payoff_matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"payoff matrix must be square, got shape {A.shape}")
    if A.shape[0] < 2:
        raise ValueError("payoff matrix must be at least 2x2")
    if not np.all(np.isfinite(A)):
        raise ValueError("payoff matrix has non-finite entries")
    A.setflags(write=False)

    def payoff(parts: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
        return (_matvec(A, parts[0]),)

    return PopulationGame(
        masses=(float(mass),), strategy_counts=(A.shape[0],), payoff=payoff, vectorized=True
    )


def make_separable_game(payoff_matrices, masses=None) -> PopulationGame:
    """Multi-population game where population p feels only its own state: ``A_p @ x_p``."""
    mats = [np.array(A, dtype=float) for A in payoff_matrices]
    for p, A in enumerate(mats):
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"population {p}: payoff matrix must be square, got {A.shape}")
        if not np.all(np.isfinite(A)):
            raise ValueError(f"population {p}: payoff matrix has non-finite entries")
        A.setflags(write=False)
    if masses is None:
        masses = [1.0] * len(mats)

    def payoff(parts: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
        return tuple(_matvec(A, x) for A, x in zip(mats, parts, strict=True))

    return PopulationGame(
        masses=tuple(masses),
        strategy_counts=tuple(A.shape[0] for A in mats),
        payoff=payoff,
        vectorized=True,
    )


@dataclass(frozen=True, eq=False)
class RevisionProtocol:
    """Conditional switch rates between strategies.

    ``rate_fn(payoffs, state_part)`` returns the n x n rate matrix for one population.
    ``support_floor`` is the declared lower rate bound (> 0 for a fully supported protocol).
    Symmetry is not declared: :func:`validate_hypotheses` measures it on the rates.
    Diagonal entries are carried but never drive transitions.  A ``vectorized`` protocol
    declares that the same ``rate_fn`` also takes ``(S, n)`` payoffs and states, one row per
    state, and returns the ``(S, n, n)`` stack of their rate matrices; the built-in protocols
    are vectorized.  The payoffs and ``rate_fn`` must be deterministic functions of the
    state: a simulated path reuses a state's rates for the rest of its call, and RK4 stops at
    the first step that returns its state's bytes unchanged.  A path evaluates a
    vectorized model one tile of nearby lattice states per call, visited or not, and any other
    model once per visited state.
    """

    kind: str
    rate_fn: RateFn
    support_floor: float = 0.0
    vectorized: bool = False

    def rates(self, payoffs: np.ndarray, state_part: np.ndarray) -> np.ndarray:
        """Evaluate and validate the rate matrix at one (payoff, state) pair."""
        pi = np.asarray(payoffs, dtype=float)
        x = np.asarray(state_part, dtype=float)
        if pi.shape != x.shape:
            raise ValueError(f"payoff shape {pi.shape} does not match state shape {x.shape}")
        out = np.asarray(self.rate_fn(pi, x), dtype=float)
        n = x.shape[0]
        if out.shape != (n, n):
            raise ValueError(f"protocol '{self.kind}' returned shape {out.shape}, expected ({n}, {n})")
        if not np.all(np.isfinite(out)):
            raise ProtocolError(f"protocol '{self.kind}' produced non-finite rates")
        if np.any(out < 0):
            raise ProtocolError(f"protocol '{self.kind}' produced negative rates (min {float(out.min())})")
        return out


def constant_protocol(c: float = 1.0) -> RevisionProtocol:
    """All pairs switch at the same constant rate ``c``."""
    c = float(c)
    if c <= 0 or not math.isfinite(c):
        raise ValueError(f"constant rate must be positive and finite, got {c}")
    return RevisionProtocol(
        kind="constant",
        rate_fn=lambda pi, x: np.full((*x.shape, x.shape[-1]), c),
        support_floor=c,
        vectorized=True,
    )


def sum_exponential_protocol(eta: float, support_floor: float = 0.0) -> RevisionProtocol:
    """Payoff-sensitive symmetric rates ``exp(eta * (pi_i + pi_j))``.

    Symmetric because the rate depends on the unordered strategy pair only
    through the payoff sum.  ``support_floor`` must be supplied by the caller
    from the payoff range (e.g. exp(-2*eta) when payoffs live in [-1, 1]).
    """
    eta = float(eta)

    def rate_fn(pi: np.ndarray, x: np.ndarray) -> np.ndarray:
        u = np.exp(eta * pi)
        return u[..., :, None] * u[..., None, :]

    return RevisionProtocol(
        kind="sum_exponential",
        rate_fn=rate_fn,
        support_floor=float(support_floor),
        vectorized=True,
    )


def table_protocol(matrix, support_floor: float | None = None) -> RevisionProtocol:
    """State- and payoff-independent rates given by an explicit matrix."""
    M = np.array(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"rate table must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)) or np.any(M < 0):
        raise ValueError("rate table entries must be finite and nonnegative")
    M.setflags(write=False)
    floor = float(M.min()) if support_floor is None else float(support_floor)

    def rate_fn(pi: np.ndarray, x: np.ndarray) -> np.ndarray:
        if x.shape[-1] != M.shape[0]:
            raise ValueError(
                f"rate table is {M.shape[0]}x{M.shape[0]}, state has {x.shape[-1]} strategies"
            )
        return M if x.ndim == 1 else np.broadcast_to(M, (*x.shape[:-1], *M.shape))

    return RevisionProtocol(kind="table", rate_fn=rate_fn, support_floor=floor, vectorized=True)


def custom_protocol(rate_fn: RateFn, support_floor: float = 0.0, *, name: str = "custom") -> RevisionProtocol:
    """A non-vectorized protocol: a path evaluates it once per visited state, so ``rate_fn`` must be deterministic."""
    return RevisionProtocol(kind=name, rate_fn=rate_fn, support_floor=float(support_floor))


def protocol_tuple(
    protocol: RevisionProtocol | Sequence[RevisionProtocol], game: PopulationGame
) -> tuple[RevisionProtocol, ...]:
    """Normalize a protocol argument to one protocol per population."""
    if isinstance(protocol, RevisionProtocol):
        return (protocol,) * game.num_populations
    return _per_population(protocol, game.num_populations, "protocols")


def count_states(strategy_counts: Sequence[int], sizes: Sequence[int]) -> int:
    """Size of the product lattice, ``prod_p C(size_p + n_p - 1, n_p - 1)``, without enumerating it."""
    return math.prod(
        math.comb(size + n - 1, n - 1) for n, size in zip(strategy_counts, sizes, strict=True)
    )


def _compositions(total: int, n: int) -> np.ndarray:
    # all compositions of total into n parts, lexicographic, one per row: each
    # level expands a row with `rest` agents left into heads 0..rest in order
    rows = np.zeros((1, 0), dtype=np.int64)
    rest = np.array([total], dtype=np.int64)
    for _ in range(n - 1):
        parent = np.repeat(np.arange(len(rest)), rest + 1)
        head = np.arange(len(parent)) - np.searchsorted(parent, parent)
        rows = np.column_stack([rows[parent], head])
        rest = rest[parent] - head
    return np.column_stack([rows, rest])


class StateGrid:
    """Lattice states as one read-only ``(len(grid), sum(strategy_counts))`` count array.

    Population p contributes all compositions of ``sizes[p]`` agents into its
    strategies, in lexicographic order (``pop_counts[p]``); multi-population
    grids are the ordered product, indexed mixed-radix with population 0 most
    significant.  Row ``o`` of ``counts`` holds the state of ordinal ``o``,
    population p in columns ``offsets[p]:offsets[p + 1]``.  :meth:`ranks`
    inverts the order on whole arrays with the combinatorial number system
    (Knuth, TAOCP 4A, 7.2.1.3).
    """

    def __init__(self, strategy_counts, sizes, resolutions, limit: int = DEFAULT_GRID_LIMIT):
        self.strategy_counts = tuple(int(n) for n in strategy_counts)
        self.sizes = tuple(int(s) for s in _per_population(sizes, len(self.strategy_counts), "sizes"))
        self.resolutions = tuple(int(r) for r in _per_population(resolutions, len(self.sizes), "resolutions"))
        self._radix = tuple(count_states((n,), (s,)) for n, s in zip(self.strategy_counts, self.sizes))
        total = math.prod(self._radix)
        if total > limit:
            raise GridSizeError(f"product grid has {total} states, exceeding the limit {limit}")
        self.offsets = (0, *itertools.accumulate(self.strategy_counts))
        self._spans = list(zip(self.offsets, self.offsets[1:]))
        self.pop_counts = tuple(_compositions(s, n) for n, s in zip(self.strategy_counts, self.sizes))
        ordinal = np.arange(total)
        blocks, stride = [], total
        for part, radix in zip(self.pop_counts, self._radix):
            stride //= radix
            blocks.append(part[(ordinal // stride) % radix])
        self.counts = np.hstack(blocks)
        for arr in (self.counts, *self.pop_counts):
            arr.setflags(write=False)
        # binom[p][j, m] = C(j + m, m): compositions of j agents into m + 1 strategies
        self._binom = []
        for n, size in zip(self.strategy_counts, self.sizes):
            binom = np.ones((size + 1, n), dtype=np.int64)
            for m in range(1, n):
                binom[:, m] = np.cumsum(binom[:, m - 1])
            self._binom.append(binom)

    def __len__(self) -> int:
        return len(self.counts)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StateGrid)
            and self.strategy_counts == other.strategy_counts
            and self.sizes == other.sizes
            and self.resolutions == other.resolutions
        )

    def __hash__(self):
        return hash((self.strategy_counts, self.sizes, self.resolutions))

    def ranks(self, counts) -> np.ndarray:
        """Ordinals of count rows (``(..., sum(strategy_counts))``, assumed on the grid)."""
        counts = np.asarray(counts, dtype=np.int64)
        out = np.zeros(counts.shape[:-1], dtype=np.int64)
        for p, (n, size, radix, binom) in enumerate(
            zip(self.strategy_counts, self.sizes, self._radix, self._binom)
        ):
            # states before c: for each leading coordinate t, those with the same
            # prefix and a smaller c_t, C(rest + m, m) - C(rest - c_t + m, m)
            rest = np.full(out.shape, size, dtype=np.int64)
            rank = np.zeros(out.shape, dtype=np.int64)
            for t in range(n - 1):
                m = n - 1 - t
                c = counts[..., self.offsets[p] + t]
                rank += binom[rest, m] - binom[rest - c, m]
                rest -= c
            out = out * radix + rank
        return out

    def _parts(self, ordinal: int) -> list[list[int]]:
        if not 0 <= ordinal < len(self.counts):
            raise IndexError(f"ordinal {ordinal} out of range for grid of {len(self)} states")
        row = self.counts[ordinal].tolist()
        return [row[a:b] for a, b in self._spans]

    def state(self, ordinal: int) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(part) for part in self._parts(ordinal))

    def format_state(self, ordinal: int) -> str:
        return "|".join([" ".join(map(str, part)) for part in self._parts(ordinal)])


def _lattice_sizes(game: PopulationGame, resolution) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-population resolutions N and agent counts N * mass, which must be integers."""
    if isinstance(resolution, numbers.Integral):
        resolution = (resolution,) * game.num_populations
    resolutions = tuple(int(r) for r in _per_population(resolution, game.num_populations, "resolutions"))
    sizes = []
    for p, (res, m) in enumerate(zip(resolutions, game.masses)):
        if res < 1:
            raise ValueError(f"population {p}: resolution must be >= 1, got {res}")
        size = res * m
        if abs(size - round(size)) > 1e-9:
            raise ValueError(f"population {p}: resolution {res} x mass {m} is not an integer agent count")
        sizes.append(int(round(size)))
    return resolutions, tuple(sizes)


def _require_lattice(game: PopulationGame, grid: StateGrid) -> None:
    """Raise ``ValueError`` unless ``grid`` is the game's lattice at ``grid.resolutions``, of N * mass agents each."""
    if grid.strategy_counts != game.strategy_counts:
        raise ValueError(f"grid strategy counts {grid.strategy_counts} != {game.strategy_counts}")
    if grid.sizes != (sizes := _lattice_sizes(game, grid.resolutions)[1]):
        raise ValueError(f"grid agent counts {grid.sizes} != {sizes}, the game's at resolutions {grid.resolutions}")


def sample_states(game: PopulationGame, n_random: int = 1000, seed: int = 0) -> np.ndarray:
    """At least ``n_random`` seeded Dirichlet-uniform simplex states, to probe protocol hypotheses.

    One read-only ``(S, sum(strategy_counts))`` mass array, one state per row, columns as in
    :attr:`StateGrid.counts`, from one draw of standard exponentials: a block ``e`` of population p
    becomes ``m_p * e / sum(e)``, the running sum, bit for bit what ``m_p * rng.dirichlet(np.ones(n_p))``
    gives drawing state by state.  The whole lattice is checked by passing its :class:`StateGrid` to
    :func:`validate_hypotheses` instead.
    """
    draws = np.random.default_rng(seed).standard_exponential((max(n_random, 1), sum(game.strategy_counts)))
    blocks = np.split(draws, np.cumsum(game.strategy_counts)[:-1], axis=1)
    states = np.hstack([m * (e * (1.0 / np.cumsum(e, axis=1)[:, -1:])) for m, e in zip(game.masses, blocks)])
    states.setflags(write=False)
    return states


SYMMETRY_TOL = 1e-14


@dataclass(frozen=True)
class ValidationReport:
    """Per-population facts of a hypothesis check, and the one rule that reads them.

    ``per_population[p]`` is ``(strategies, max_asymmetry, min_rate, support_floor)``: population p's
    strategy count, the largest ``|rho_ij - rho_ji|`` and the smallest rate (the diagonal too) over the
    checked states, and its protocol's declared floor.  Sampling is a surrogate for the universally
    quantified conditions, so the sample count and exhaustiveness are recorded.  :meth:`problems`
    decides; :meth:`as_lines` prints a whole-game summary derived from the facts.
    """

    per_population: tuple[tuple[int, float, float, float], ...]
    sample_count: int
    exhaustive: bool

    def problems(self, target: int = 2) -> list[str]:
        """Every failed hypothesis, empty when the model may be reduced to ``target`` strategies.

        A population of more than ``target`` strategies needs rates symmetric to ``SYMMETRY_TOL``
        (one of at most ``target`` is a birth-death chain, reversible whatever its rates); every
        population needs a positive floor that no checked rate falls below.
        """
        rate, problems = "rate" if self.exhaustive else "sampled rate", []
        for p, (n, asym, min_rate, floor) in enumerate(self.per_population):
            if n > target and asym > SYMMETRY_TOL:
                problems.append(f"population {p}: max asymmetry {asym:.6g} exceeds {SYMMETRY_TOL}")
            if floor <= 0:
                problems.append(f"population {p}: support floor {floor} is not positive")
            elif min_rate < floor:
                problems.append(f"population {p}: {rate} {min_rate:.6g} falls below the floor {floor:.6g}")
        return problems

    def as_lines(self) -> list[str]:
        _, asyms, min_rates, floors = zip(*self.per_population)
        asym, min_rate, floor = max(asyms), min(min_rates), min(floors)
        return [
            f"symmetric: {str(asym <= SYMMETRY_TOL).lower()}",
            f"fully_supported: {str(floor > 0 and min_rate >= floor).lower()}",
            f"max_asymmetry: {asym:.17g}",
            f"min_rate: {min_rate:.17g}",
            f"support_floor: {floor:.17g}",
            f"sample_count: {self.sample_count}",
            f"exhaustive: {str(self.exhaustive).lower()}",
        ]


F64 = np.dtype(float)


def _evaluator(game: PopulationGame, protocols: Sequence[RevisionProtocol]):
    """``evaluate(parts) -> (rates, ok) | None``: the one evaluation and screen of payoffs and rates.

    ``parts`` is one state, ``(n_p,)`` each, or a stack of states, ``(S, n_p)`` each, of the game's
    strategy counts.  A stack takes one call of the payoff map and of each ``rate_fn`` when the game
    and every protocol are ``vectorized``, else one per state.  None means an output of the wrong
    count or shape.  ``ok``, one bool or one per row of a stack, holds when the state, the payoffs
    and every rate (the diagonal too) are finite and no rate is negative.  A stack is screened
    element-wise; one state by a Python ``min`` and sum over its few entries, faster than numpy
    calls.  inf and NaN propagate through a float sum (a NaN that ``min`` skips too), and only a
    sum that is not finite is checked element-wise, so finite values whose sum overflows pass.
    """
    payoff, one = game.payoff, game.num_populations == 1
    rate_fns = [proto.rate_fn for proto in protocols]
    stacked = all(model.vectorized for model in (game, *protocols))
    shapes, squares = [(n,) for n in game.strategy_counts], [(n, n) for n in game.strategy_counts]

    def evaluate(parts):
        if parts[0].ndim > 1:
            return evaluate_stack(parts)
        values = payoff(parts)
        if one and isinstance(values, np.ndarray):
            values = (values,)
        payoffs = [pi if type(pi) is np.ndarray and pi.dtype is F64 else np.asarray(pi, dtype=float) for pi in values]
        if [pi.shape for pi in payoffs] != shapes:
            return None
        rates, ok, total = [], True, 0.0
        for rate_fn, square, pi, x in zip(rate_fns, squares, payoffs, parts):
            rho = rate_fn(pi, x)
            if type(rho) is not np.ndarray or rho.dtype is not F64:
                rho = np.asarray(rho, dtype=float)
            if rho.shape != square:
                return None
            flat = rho.ravel().tolist()
            ok = ok and min(flat) >= 0
            total += sum(flat) + sum(pi.tolist()) + sum(x.tolist())
            rates.append(rho)
        if ok and not math.isfinite(total):
            ok = bool(np.isfinite(np.concatenate([*parts, *payoffs, *rates], axis=None)).all())
        return rates, ok

    def evaluate_stack(parts):
        if [x.shape[1:] for x in parts] != shapes:
            return None
        if not stacked:
            rows = [evaluate(row) for row in zip(*parts)]
            if None in rows:
                return None
            return [np.stack(col) for col in zip(*(rates for rates, _ in rows))], np.array([ok for _, ok in rows])
        values = payoff(parts)
        if one and isinstance(values, np.ndarray):
            values = (values,)
        payoffs = [np.asarray(pi, dtype=float) for pi in values]
        if [pi.shape for pi in payoffs] != [x.shape for x in parts]:
            return None
        rates = [np.asarray(rate_fn(pi, x), dtype=float) for rate_fn, pi, x in zip(rate_fns, payoffs, parts)]
        if any(rho.shape != (*x.shape, x.shape[-1]) for rho, x in zip(rates, parts)):
            return None
        finite = [np.isfinite(a).all(axis=1) for a in (*parts, *payoffs)]
        signs = [((rho >= 0.0) & (rho < math.inf)).all(axis=(1, 2)) for rho in rates]  # NaN fails both
        return rates, np.logical_and.reduce(finite + signs)

    return evaluate


def _checked_rates(game, protocols, parts) -> list[np.ndarray]:
    """The rates at one state or at each of a stack of states, from :func:`_evaluator`.

    ``parts`` are made read-only.  When the screen fails, the states are re-evaluated in order:
    :func:`_check_masses`, then :meth:`PopulationGame.payoff_at` and :meth:`RevisionProtocol.rates`
    raise the precise error at the first offending state.
    """
    parts = _frozen(parts)
    rates, ok = _evaluator(game, protocols)(parts) or (None, False)
    if np.all(ok):
        return rates
    for row in [parts] if parts[0].ndim == 1 else zip(*parts):
        for p, x in enumerate(row):
            _check_masses(p, x)
        for proto, pi, x in zip(protocols, game.payoff_at(row), row):
            proto.rates(pi, x)
    raise ProtocolError("payoff or protocol changed its output on re-evaluation")


def _check_rate_shapes(rates, strategy_counts, n_states: int) -> None:
    """Raise ``ValueError`` unless ``rates`` holds one ``(n_states, n_p, n_p)`` array per population."""
    for p, (rho, n) in enumerate(zip(_per_population(rates, len(strategy_counts), "rate arrays"), strategy_counts)):
        if np.shape(rho) != (n_states, n, n):
            raise ValueError(f"population {p}: rates shape {np.shape(rho)} != ({n_states}, {n}, {n})")


def grid_rates(
    game: PopulationGame,
    protocol: RevisionProtocol | Sequence[RevisionProtocol],
    grid: StateGrid,
) -> tuple[np.ndarray, ...]:
    """Switch-rate matrices at every grid state: one ``(len(grid), n_p, n_p)`` array per population.

    Payoffs and rates are evaluated on the lattice fractions ``counts /
    resolution``: in one call each when the game and every protocol are
    ``vectorized``, else once per state.  Invalid output raises the error
    of the validating path at the first offending state.
    """
    _require_lattice(game, grid)
    fractions = tuple(
        grid.counts[:, a:b] / res for a, b, res in zip(grid.offsets, grid.offsets[1:], grid.resolutions)
    )
    rates = _checked_rates(game, protocol_tuple(protocol, game), fractions)
    return tuple(np.ascontiguousarray(rho) for rho in rates)


def validate_hypotheses(
    game: PopulationGame,
    protocol: RevisionProtocol | Sequence[RevisionProtocol],
    states: np.ndarray | StateGrid,
    rates: Sequence[np.ndarray] | None = None,
) -> ValidationReport:
    """Each population's rate asymmetry, smallest rate and floor, for :meth:`ValidationReport.problems`.

    Sample states are one ``(S, sum(strategy_counts))`` mass array, as :func:`sample_states` returns
    it, finite and none below ``-MASS_TOL``.  The game's lattice, a :class:`StateGrid`, makes the
    check exhaustive.  Its rates come from :func:`grid_rates`, evaluated once per grid; pass its result
    as ``rates`` to share it with :func:`symgame.chain.build_generator`; it must hold one
    ``(len(states), n_p, n_p)`` array per population.
    """
    if not len(states):
        raise ValueError("need at least one sample state")
    protocols = protocol_tuple(protocol, game)
    exhaustive = isinstance(states, StateGrid)
    if exhaustive:
        _require_lattice(game, states)
    if rates is not None:
        _check_rate_shapes(rates, game.strategy_counts, len(states))
    elif exhaustive:
        rates = grid_rates(game, protocols, states)
    else:
        states, columns = np.asarray(states, dtype=float), sum(game.strategy_counts)
        if states.ndim != 2 or states.shape[1] != columns:
            raise ValueError(f"sample states shape {states.shape} != (S, {columns})")
        parts = np.split(states, np.cumsum(game.strategy_counts)[:-1], axis=1)
        for p, x in enumerate(parts):
            _check_masses(p, x)
        rates = _checked_rates(game, protocols, parts)
    per_population = tuple(
        (n, float(np.max(np.abs(rho - rho.transpose(0, 2, 1)))), float(rho.min()), proto.support_floor)
        for n, rho, proto in zip(game.strategy_counts, rates, protocols)
    )
    return ValidationReport(per_population, sample_count=len(states), exhaustive=exhaustive)
