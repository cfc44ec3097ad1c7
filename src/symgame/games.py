"""Domain types for population games, social states, and revision protocols.

A game couples one or more populations of continuous mass with a payoff map
over social states.  A revision protocol assigns every (payoff, state) pair a
matrix of conditional switch rates between strategies.  This module also
provides the lattice of social states as an array (:class:`StateGrid`) and
the hypothesis checks (rate symmetry, full support) that the two-strategy
decomposition machinery relies on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import GridSizeError, ProtocolError

__all__ = [
    "SocialState",
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
PayoffFn = Callable[["SocialState"], tuple[np.ndarray, ...]]

MASS_TOL = 1e-12
DEFAULT_GRID_LIMIT = 2_000_000
ENUMERATION_LIMIT = 1_000_000


def _readonly(vec) -> np.ndarray:
    arr = np.array(vec, dtype=float)
    arr.setflags(write=False)
    return arr


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


@dataclass(frozen=True, eq=False)
class SocialState:
    """Per-population strategy masses: ``parts[p]`` is the nonnegative mass vector of population ``p``."""

    parts: tuple[np.ndarray, ...]

    def __post_init__(self):
        parts = tuple(_readonly(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        for p, vec in enumerate(parts):
            if vec.ndim != 1 or vec.size == 0:
                raise ValueError(f"population {p}: state must be a nonempty vector")
            _check_masses(p, vec)

    @classmethod
    def single(cls, vec) -> "SocialState":
        return cls(parts=(np.asarray(vec, dtype=float),))

    @classmethod
    def _unchecked(cls, parts: tuple[np.ndarray, ...]) -> "SocialState":
        # fast constructor for hot loops; callers guarantee validity
        obj = object.__new__(cls)
        object.__setattr__(obj, "parts", parts)
        return obj


@dataclass(frozen=True, eq=False)
class PopulationGame:
    """A population game: masses, strategy counts, and a total payoff map.

    ``payoff(state)`` must return one payoff vector per population for every
    valid :class:`SocialState` (it never raises on valid input).  A
    ``vectorized`` game declares that the same callable also takes a state
    whose parts carry a leading axis of states, ``(S, n_p)`` each, and
    returns one ``(S, n_p)`` payoff array per population, row ``s`` equal to
    the payoff at state ``s``.  With vectorized protocols too,
    :func:`grid_rates` evaluates a whole lattice in one call each, and a
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

    def payoff_at(self, state: SocialState) -> tuple[np.ndarray, ...]:
        """Evaluate the payoff map and validate its shape and finiteness."""
        values = self.payoff(state)
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

    def require_valid_state(self, state: SocialState, tol: float = MASS_TOL) -> None:
        parts = _per_population(state.parts, self.num_populations, "state parts")
        for p, (vec, m, n) in enumerate(zip(parts, self.masses, self.strategy_counts)):
            if vec.shape != (n,):
                raise ValueError(f"population {p}: state shape {vec.shape} != ({n},)")
            if abs(float(vec.sum()) - m) > max(tol, tol * m):
                raise ValueError(
                    f"population {p}: mass {float(vec.sum())} != {m} beyond tolerance {tol}"
                )

    def barycenter(self) -> SocialState:
        return SocialState(
            parts=tuple(np.full(n, m / n) for m, n in zip(self.masses, self.strategy_counts))
        )


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

    def payoff(state: SocialState) -> tuple[np.ndarray, ...]:
        return (_matvec(A, state.parts[0]),)

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

    def payoff(state: SocialState) -> tuple[np.ndarray, ...]:
        return tuple(_matvec(A, x) for A, x in zip(mats, state.parts, strict=True))

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
    symmetric: bool | None = None
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
        symmetric=True,
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
        symmetric=True,
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

    return RevisionProtocol(
        kind="table",
        rate_fn=rate_fn,
        support_floor=floor,
        symmetric=bool(np.array_equal(M, M.T)),
        vectorized=True,
    )


def custom_protocol(
    rate_fn: RateFn,
    support_floor: float = 0.0,
    symmetric: bool | None = None,
    name: str = "custom",
) -> RevisionProtocol:
    """A non-vectorized protocol: a path evaluates it once per visited state, so ``rate_fn`` must be deterministic."""
    return RevisionProtocol(
        kind=name, rate_fn=rate_fn, support_floor=float(support_floor), symmetric=symmetric
    )


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
        for per_pop in self._radix:
            if per_pop > limit:
                raise GridSizeError(
                    f"population grid has {per_pop} states, exceeding the limit {limit}"
                )
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


def sample_states(game: PopulationGame, n_random: int = 1000, seed: int = 0) -> list[SocialState]:
    """At least ``n_random`` seeded Dirichlet-uniform simplex states, to probe protocol hypotheses.

    The whole lattice is checked by passing its :class:`StateGrid` to
    :func:`validate_hypotheses` instead.
    """
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(max(n_random, 1)):
        parts = tuple(
            m * rng.dirichlet(np.ones(n))
            for m, n in zip(game.masses, game.strategy_counts)
        )
        states.append(SocialState(parts=parts))
    return states


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of sampling-based hypothesis checks.

    ``symmetric`` holds when the largest rate asymmetry over all samples is
    zero to 1e-14; ``fully_supported`` when every sampled rate stays at or
    above a positive declared floor.
    Sampling is a surrogate for the underlying universally quantified
    conditions, so the sample count and exhaustiveness are recorded.
    """

    symmetric: bool
    fully_supported: bool
    max_asymmetry: float
    min_rate: float
    sample_count: int
    exhaustive: bool
    support_floor: float
    per_population: tuple[tuple[float, float], ...] = ()

    def as_lines(self) -> list[str]:
        return [
            f"symmetric: {str(self.symmetric).lower()}",
            f"fully_supported: {str(self.fully_supported).lower()}",
            f"max_asymmetry: {self.max_asymmetry:.17g}",
            f"min_rate: {self.min_rate:.17g}",
            f"support_floor: {self.support_floor:.17g}",
            f"sample_count: {self.sample_count}",
            f"exhaustive: {str(self.exhaustive).lower()}",
        ]


SYMMETRY_TOL = 1e-14


def _unscreened_rates(game, protocols, parts):
    """Payoffs and rates at one state (1-D ``parts``) or at each of a stack of states (``(S, n_p)`` parts).

    A stack takes one call of the payoff map and of each ``rate_fn`` when the
    game and every protocol are ``vectorized``, else one per state.  Returns
    ``(payoffs, rates)``, one array per population, or None when an output
    has the wrong count or shape; values are not screened.
    """
    if parts[0].ndim > 1 and not (game.vectorized and all(proto.vectorized for proto in protocols)):
        rows = [_unscreened_rates(game, protocols, row) for row in zip(*parts)]
        return None if None in rows else [[np.stack(col) for col in zip(*side)] for side in zip(*rows)]
    values = game.payoff(SocialState._unchecked(parts))
    if isinstance(values, np.ndarray) and game.num_populations == 1:
        values = (values,)
    payoffs = [np.asarray(v, dtype=float) for v in values]
    if len(payoffs) != len(parts):
        return None
    for pi, x in zip(payoffs, parts):
        if pi.shape != x.shape:
            return None
    rates = []
    for proto, pi, x in zip(protocols, payoffs, parts):
        rho = np.asarray(proto.rate_fn(pi, x), dtype=float)
        if rho.shape != (*x.shape, x.shape[-1]):
            return None
        rates.append(rho)
    return payoffs, rates


# One state's arrays hold a few entries each: a Python sum or min over them beats a numpy call.
def _total(a: np.ndarray) -> float:
    return sum(a.tolist()) if a.ndim == 1 else float(np.add.reduce(a, axis=None))


def _smallest(rho: np.ndarray) -> float:
    return min(rho.ravel().tolist()) if rho.ndim == 2 else np.minimum.reduce(rho, axis=None)


def _checked_rates(game, protocols, parts) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """``(payoffs, rates, row_sums)`` at one state or at each of a stack of states, from :func:`_unscreened_rates`.

    No ``protocols`` evaluates payoffs only; ``parts`` are made read-only; ``row_sums[p]`` sums
    ``rates[p]`` over its last axis.  A fused fast accept passes the output when the sum of the
    states, payoffs and row sums is finite and no rate is negative: inf and NaN propagate
    through a float sum, so each term is finite (a NaN that ``min`` skips is in its row sum).
    Otherwise an element-wise screen decides, so finite values whose sum overflows pass.  On a
    failure the states are re-evaluated in order through :meth:`PopulationGame.payoff_at` and
    :meth:`RevisionProtocol.rates`, which raise the precise error at the first offending state.
    """
    for x in parts:
        x.setflags(write=False)
    out = _unscreened_rates(game, protocols, parts)
    if out is not None:
        payoffs, rates = out
        row_sums = [np.add.reduce(rho, axis=-1) for rho in rates]
        if all(_smallest(rho) >= 0 for rho in rates) and (
            math.isfinite(sum(map(_total, (*parts, *payoffs, *row_sums))))
            or np.isfinite(np.concatenate([*parts, *payoffs, *rates], axis=None)).all()
        ):
            return payoffs, rates, row_sums
    for row in [parts] if parts[0].ndim == 1 else zip(*parts):
        state = SocialState(parts=row)
        for proto, pi, x in zip(protocols, game.payoff_at(state), state.parts):
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
    fractions = tuple(
        grid.counts[:, a:b] / res for a, b, res in zip(grid.offsets, grid.offsets[1:], grid.resolutions)
    )
    rates = _checked_rates(game, protocol_tuple(protocol, game), fractions)[1]
    return tuple(np.ascontiguousarray(rho) for rho in rates)


def validate_hypotheses(
    game: PopulationGame,
    protocol: RevisionProtocol | Sequence[RevisionProtocol],
    states: Sequence[SocialState] | StateGrid,
    rates: Sequence[np.ndarray] | None = None,
) -> ValidationReport:
    """Check rate symmetry and full support over sample states or a whole grid.

    A :class:`StateGrid` makes the check exhaustive.  Its rates come from
    :func:`grid_rates`, evaluated once per grid; pass its result as
    ``rates`` to share it with :func:`symgame.chain.build_generator`; it must
    hold one ``(len(states), n_p, n_p)`` array per population.
    """
    if not len(states):
        raise ValueError("need at least one sample state")
    protocols = protocol_tuple(protocol, game)
    exhaustive = isinstance(states, StateGrid)
    if rates is not None:
        _check_rate_shapes(rates, game.strategy_counts, len(states))
    elif exhaustive:
        rates = grid_rates(game, protocols, states)
    else:
        parts = tuple(np.stack(col) for col in zip(*(state.parts for state in states)))
        rates = _checked_rates(game, protocols, parts)[1]
    per_pop = [
        (float(np.max(np.abs(rho - rho.transpose(0, 2, 1)))), float(rho.min())) for rho in rates
    ]
    max_asym = max(stats[0] for stats in per_pop)
    min_rate = min(stats[1] for stats in per_pop)
    floor = min(proto.support_floor for proto in protocols)
    return ValidationReport(
        symmetric=max_asym <= SYMMETRY_TOL,
        fully_supported=(floor > 0) and (min_rate >= floor),
        max_asymmetry=max_asym,
        min_rate=min_rate,
        sample_count=len(states),
        exhaustive=exhaustive,
        support_floor=floor,
        per_population=tuple(per_pop),
    )
