"""Exact finite-population jump process on the lattice of social states.

For population size N the process jumps from x to x + (e_j - e_i)/N at rate
``N * x_i * rho_ij(F(x), x)``: revision opportunities arrive at rate N R and
the per-pair normalization caps cancel against the acceptance probabilities,
so the generator is written directly in the conditional rates.  Diagonal
rates never produce transitions (a self-switch is unobservable), and the
expected velocity field of this process is exactly the mean dynamic.
scipy's sparse stack loads on the first generator build, not on import.
"""

from __future__ import annotations

import contextlib
import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .dynamics import Trajectory, _format_distinct, _format_rows, _spans
from .errors import ProtocolError, ReducibleChainError, SolverError
from .games import (
    DEFAULT_GRID_LIMIT,
    SYMMETRY_TOL,
    PopulationGame,
    RevisionProtocol,
    StateGrid,
    _check_rate_shapes,
    _checked_rates,
    _evaluator,
    _lattice_sizes,
    _per_population,
    _require_lattice,
    grid_rates,
    protocol_tuple,
)

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "StateGrid",
    "FiniteChain",
    "StationaryTable",
    "PathResult",
    "DetailedBalanceReport",
    "build_grid",
    "build_generator",
    "exact_stationary",
    "simulate_path",
    "simulate_paths",
    "check_detailed_balance",
    "deviation_vs_ode",
]

# above this many states of the solved chain (the orbits when a symmetry lumps it), LU fill-in costs
# more memory than Jacobi-scaled power iteration
LU_STATE_LIMIT = 20_000

# blocks of at most this many lattice points end the nested dissection of the solved chain
DISSECTION_LEAF = 16

# random draws per refill of each path's two streams
DRAW_BLOCK = 1024

# lattice states per evaluation of the move weights, for a vectorized model, in the event loop
TILE_STATES = 64


def build_grid(
    game: PopulationGame,
    resolution: int | Sequence[int],
    limit: int = DEFAULT_GRID_LIMIT,
) -> StateGrid:
    """The game's lattice at resolution N per population (N * mass agents, an integer).

    Above ``limit`` states it raises ``GridSizeError`` before enumerating any.
    """
    resolutions, sizes = _lattice_sizes(game, resolution)
    return StateGrid(game.strategy_counts, sizes, resolutions, limit=limit)


def _counts_format(strategy_counts: Sequence[int]) -> str:
    # one lattice state as StateGrid.format_state prints it, as a ``%`` format
    return "|".join(" ".join(["%d"] * n) for n in strategy_counts)


@dataclass(frozen=True, eq=False)
class StationaryTable:
    """A probability distribution over a state grid with provenance.

    ``provenance`` is one of ``exact`` (linear solve of mu Q = 0),
    ``empirical`` (time-weighted occupancy of a simulated path), or
    ``predicted-product-form`` (conditioned product of two-strategy
    marginals).
    """

    grid: StateGrid
    probabilities: np.ndarray
    provenance: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        probs = np.asarray(self.probabilities, dtype=float)
        if probs.shape != (len(self.grid),):
            raise ValueError(f"got probabilities of shape {probs.shape} for {len(self.grid)} states")
        bad = np.flatnonzero(~np.isfinite(probs))
        if bad.size:
            raise ValueError(f"non-finite probability {float(probs[bad[0]])} at state {bad[0]}")
        if np.any(probs < -1e-12):
            raise ValueError(f"negative probability {float(probs.min())}")
        probs = np.maximum(probs, 0.0)
        total = probs.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {float(total)}, expected 1")
        probs = probs / total
        probs.setflags(write=False)
        object.__setattr__(self, "probabilities", probs)

    def to_csv(self) -> str:
        """Rows ``counts,probability,provenance``, probabilities as ``%.17g``.

        Each distinct probability is formatted once (``_format_distinct``),
        because a law over a symmetric game repeats its values across states;
        the path writer formats every value.
        """
        provenance = self.provenance.replace("%", "%%")
        line = f"{_counts_format(self.grid.strategy_counts)},%s,{provenance}\n"
        rows = _format_rows(line, self.grid.counts, _format_distinct(self.probabilities)[:, None])
        return "state_counts,probability,provenance\n" + rows


@dataclass(frozen=True, eq=False)
class FiniteChain:
    """Sparse generator of the revision process on an enumerated grid.

    Edge arrays run over the off-diagonal transitions with a nonzero rate;
    entry k is the jump ``src[k] -> dst[k]`` at ``rate[k]``.  Edges are
    ordered by source state, then by the move order of :func:`_moves`.
    """

    grid: StateGrid
    generator: sp.csr_matrix
    src: np.ndarray
    dst: np.ndarray
    rate: np.ndarray

    @property
    def num_states(self) -> int:
        return len(self.grid)

    def max_rate(self) -> float:
        return float(np.max(np.abs(self.generator.data))) if self.generator.nnz else 0.0


def _moves(spans) -> tuple[list[np.ndarray], np.ndarray]:
    """The move layout of the jump process: one agent of a population switches from i to j != i.

    Moves run by population, then row-major over the ordered pairs ``(i, j)``.
    Returns each population's ``i * n + j`` indices into its flattened ``n x n``
    rate matrix, and the count change of every move, one row per move.
    """
    unit = np.eye(spans[-1][1], dtype=np.int64)
    off_diagonal = [np.flatnonzero(~np.eye(b - a, dtype=bool)) for a, b in spans]
    deltas = np.array([
        unit[a + j] - unit[a + i]
        for (a, b), idx in zip(spans, off_diagonal) for i, j in zip(*np.divmod(idx, b - a))
    ])
    return off_diagonal, deltas


def _move_weights(counts, rates, spans, off_diagonal) -> np.ndarray:
    """The weight ``k_i * rho_ij`` of every move of :func:`_moves` at each row of the count stack ``counts``."""
    return np.concatenate([(counts[:, a:b, None] * rho).reshape(len(counts), -1)[:, idx]
                           for (a, b), rho, idx in zip(spans, rates, off_diagonal)], axis=1)


def build_generator(
    game: PopulationGame,
    protocol: RevisionProtocol | Sequence[RevisionProtocol],
    grid: StateGrid,
    rates: Sequence[np.ndarray] | None = None,
) -> FiniteChain:
    """Assemble the jump-rate generator Q over ``grid``, the game's lattice from :func:`build_grid`.

    Rate of ``x -> x + (e_j - e_i)/N^p`` is ``N^p x_i^p rho^p_ij(F(x), x^p)``,
    i.e. ``k_i^p`` agents each revising at the conditional rate.  Diagonal
    entries are the negative row sums.  The rate matrices come from
    :func:`symgame.games.grid_rates`, evaluated once per grid, or from
    ``rates`` when the caller already holds them for this grid; edges are
    then assembled with array operations, ordered by source state, then by
    the move order of :func:`_moves`.
    """
    import scipy.sparse as sp
    protocols = protocol_tuple(protocol, game)
    _require_lattice(game, grid)
    n_states, spans = len(grid), _spans(game)
    if rates is None:
        rates = grid_rates(game, protocols, grid)
    _check_rate_shapes(rates, grid.strategy_counts, n_states)
    off_diagonal, deltas = _moves(spans)
    weights = _move_weights(grid.counts, rates, spans, off_diagonal)
    hit = np.flatnonzero(weights)
    rate_arr = weights.ravel()[hit]
    del weights
    src_arr, move = np.divmod(hit, len(deltas))
    del hit
    # one move at a time, so no (edges x strategies) array is ever held
    dst_arr = np.empty_like(src_arr)
    for m, delta in enumerate(deltas):
        edges = np.flatnonzero(move == m)
        dst_arr[edges] = grid.ranks(grid.counts[src_arr[edges]] + delta)
    del move

    off_diag = sp.coo_matrix((rate_arr, (src_arr, dst_arr)), shape=(n_states, n_states))
    row_sums = np.bincount(src_arr, weights=rate_arr, minlength=n_states)
    diag = sp.coo_matrix((-row_sums, (np.arange(n_states), np.arange(n_states))),
                         shape=(n_states, n_states))
    generator = (off_diag + diag).tocsr()
    return FiniteChain(grid, generator, src_arr, dst_arr, rate_arr)


def _communicating_classes(chain: FiniteChain):
    import scipy.sparse.csgraph as csgraph
    # strong connectivity ignores the diagonal, so the generator is the adjacency
    return csgraph.connected_components(chain.generator, directed=True, connection="strong")


def _relabellings(n: int) -> list[list[int]]:
    """Candidate strategy permutations of one population: the cyclic shifts and the transpositions."""
    shifts = [[(i + s) % n for i in range(n)] for s in range(1, n)]
    swaps = []
    for i in range(n):
        for j in range(i + 1, n):
            perm = list(range(n))
            perm[i], perm[j] = j, i
            if perm not in shifts:  # for n = 2 the one swap is the one shift
                swaps.append(perm)
    return shifts + swaps


def _symmetry_orbits(chain: FiniteChain) -> tuple[np.ndarray | None, float]:
    """Orbit labels of the states under the strategy relabellings that leave Q unchanged, and the largest defect.

    A relabelling of one population's strategies maps each state to the one with its counts
    permuted.  It is accepted when it moves no entry of Q, the diagonal first, by more than
    ``SYMMETRY_TOL`` times the largest rate.  The orbits are the connected components of the
    graph x -> sigma(x) over the accepted relabellings.  Labels are None when every orbit is
    one state.
    """
    import scipy.sparse as sp
    import scipy.sparse.csgraph as csgraph
    grid, q, n = chain.grid, chain.generator, chain.num_states
    tol = SYMMETRY_TOL * chain.max_rate()
    diag = q.diagonal()
    images, defect = [], 0.0
    for a, n_p in zip(grid.offsets, grid.strategy_counts):
        for perm in _relabellings(n_p):
            columns = np.arange(grid.counts.shape[1])
            columns[a:a + n_p] = a + np.asarray(perm)
            image = grid.ranks(grid.counts[:, columns])
            worst = float(np.max(np.abs(diag[image] - diag)))  # cheap, and rejects most candidates
            if worst <= tol and len(chain.src):  # a grid of zero agents is one state, with no edges
                moved = np.asarray(q[image[chain.src], image[chain.dst]]).ravel()
                worst = max(worst, float(np.max(np.abs(moved - chain.rate))))
            if worst <= tol:
                images.append(image)
                defect = max(defect, worst)
    if not images:
        return None, 0.0
    edges = (np.tile(np.arange(n), len(images)), np.concatenate(images))
    graph = sp.csr_matrix((np.ones(len(edges[0])), edges), shape=(n, n))
    n_orbits, labels = csgraph.connected_components(graph, directed=False)
    return (labels if n_orbits < n else None), defect


def exact_stationary(chain: FiniteChain) -> StationaryTable:
    """Solve mu Q = 0, sum(mu) = 1 for the unique stationary distribution.

    Requires irreducibility (single strongly connected class), checked on the full chain
    first, since a symmetry can merge two classes.  The solve then runs on the orbits of the
    game's strategy symmetries (:func:`_symmetry_orbits`): the unique law of a chain that a
    relabelling leaves unchanged is constant on each orbit, so the orbit chain
    ``Q_hat = R Q L`` (R picks the first state of each orbit, L sums columns by orbit) carries
    all of it (Kemeny & Snell, *Finite Markov Chains*, 1960, ch. 6), and
    ``mu(x) = pi(orbit(x)) / |orbit(x)|``.  States of one orbit get bitwise equal
    probabilities.  Without a symmetry the solve runs on Q itself.  ``orbits`` (the states
    when there is no symmetry) and ``symmetry_defect`` (the largest accepted
    ``max |Q[sigma x, sigma y] - Q[x, y]|``) go in the metadata.

    The size of the solved chain, the orbit count when lumped, picks the solve.  Up to
    ``LU_STATE_LIMIT`` (20,000) states or orbits it is sparse LU on the transposed generator,
    numbered in the geometric nested-dissection order of the states' counts (an orbit's first
    state's; :func:`_lumped_generator`), with its last equation replaced by the normalization
    row, diagonal pivots and one step of iterative refinement (:func:`_lu_stationary`); the
    factor's stored entries go in the metadata as ``factor_entries``.  Above, power iteration
    runs on the Jacobi-scaled lazy jump chain ``K = I + 0.99 D^-1 Q`` (D the exit rates), mapped
    back by ``mu ~ nu / D``, with its ``iterations`` in the metadata.  The residual ``max |mu Q|``
    on the full chain is checked against 1e-12 times its largest rate and stored in the
    metadata; ``SolverError`` is raised above it, or when power iteration does not converge.
    Small probabilities are not entrywise accurate; the total-variation distance is unaffected.
    """
    n_comp, labels = _communicating_classes(chain)
    if n_comp > 1:
        sizes = np.bincount(labels)
        raise ReducibleChainError(
            f"chain is reducible: {n_comp} communicating classes with sizes "
            f"{sorted(sizes.tolist(), reverse=True)}",
            classes=[np.flatnonzero(labels == c).tolist() for c in range(n_comp)],
        )
    bound = 1e-12 * chain.max_rate()
    orbit, defect = _symmetry_orbits(chain)
    q, orbit = _lumped_generator(chain, orbit)
    if q.shape[0] <= LU_STATE_LIMIT:
        metadata = {"solver": "lu"}
        mu, metadata["factor_entries"] = _lu_stationary(q)
    else:
        metadata = {"solver": "power"}
        mu, metadata["iterations"] = _power_stationary(q, bound)
    metadata["orbits"] = q.shape[0]
    metadata["symmetry_defect"] = defect
    mu = (mu / np.bincount(orbit))[orbit]

    mu = np.maximum(mu, 0.0)
    mu /= mu.sum()
    residual = float(np.max(np.abs(mu @ chain.generator)))
    if not residual <= bound:  # NaN included
        raise SolverError(f"stationary residual {residual:.3g} exceeds bound {bound:.3g}")
    metadata["residual"] = residual
    return StationaryTable(grid=chain.grid, probabilities=mu, provenance="exact", metadata=metadata)


def _dissection_order(points: np.ndarray) -> np.ndarray:
    """A geometric nested-dissection order of lattice points (George 1973): a permutation of their rows.

    Level by level, each block of more than ``DISSECTION_LEAF`` points splits at the midpoint m of
    its widest count coordinate into the points below m, those above and the separator on m, in
    that order; the separator is final, the halves split on, and a leaf keeps its given order.  A
    move changes each count by at most one, so no edge of the full lattice joins two halves, and
    eliminating both before their separator keeps the fill-in inside each half and the separator.
    """
    n, d = points.shape
    flat = np.ascontiguousarray(points.T, dtype=np.int32).ravel()  # coordinate-major
    offsets = np.arange(0, d * n, n)[:, None]
    order = np.arange(n)
    starts, sizes = np.zeros(1, dtype=np.intp), np.array([n])  # blocks of ``order`` to split
    while True:
        keep = sizes > DISSECTION_LEAF
        starts, sizes, blocks = starts[keep], sizes[keep], np.count_nonzero(keep)
        if not blocks:
            return order
        block = np.repeat(np.arange(blocks), sizes)
        first = np.cumsum(sizes) - sizes  # of each block among the gathered members
        at = np.arange(len(block)) + (starts - first)[block]
        members = order[at]
        coords = flat[offsets + members]
        lo, hi = np.minimum.reduceat(coords, first, axis=1), np.maximum.reduceat(coords, first, axis=1)
        axis = np.argmax(hi - lo, axis=0)
        mid = (lo + hi)[axis, np.arange(blocks)] // 2
        value = coords.ravel()[axis[block] * len(block) + np.arange(len(block))]
        side = (value > mid[block]) + 2 * (value == mid[block])  # below, above, on the separator
        key = 3 * block + side
        order[at] = members[np.argsort(key, kind="stable")]
        counts = np.bincount(key, minlength=3 * blocks).reshape(blocks, 3)
        starts, sizes = np.concatenate([starts, starts + counts[:, 0]]), counts[:, :2].T.ravel()


def _lumped_generator(chain: FiniteChain, labels: np.ndarray | None) -> tuple[sp.csr_matrix, np.ndarray]:
    """The generator lumped by state ``labels`` (None: a lump per state), and the lumps' new labels.

    Lump a's row is its first state's row with columns summed by lump (``R Q L``).  Up to
    ``LU_STATE_LIMIT`` lumps, which LU factors, are numbered in the :func:`_dissection_order` of
    their first states' counts; more keep the order of their first states for power iteration.
    """
    import scipy.sparse as sp
    first = np.arange(chain.num_states) if labels is None else np.unique(labels, return_index=True)[1]
    order = np.arange(len(first))
    if len(first) <= LU_STATE_LIMIT:
        order = _dissection_order(chain.grid.counts[first])
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    labels = rank if labels is None else rank[labels]
    rows = chain.generator[first[order]]
    q = sp.csr_matrix((rows.data, labels[rows.indices], rows.indptr), shape=(len(order),) * 2)
    q.sum_duplicates()
    return q, labels


def _lu_stationary(q: sp.csr_matrix) -> tuple[np.ndarray, int]:
    """The solution of mu q = 0, sum(mu) = 1 by LU in q's own order, and the factor's stored entries."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu
    # Row j of Q in CSR is column j of A = Q^T in CSC.  Drop A's last row and
    # append a 1 to every column in its place: the equation sum(mu) = 1.
    # Above that row, A's columns are diagonally dominant and stay so through elimination, so
    # diagonal pivots are stable (Stewart 1994, ch. 2).  The last row grows with the mass
    # eliminated; a pivoting threshold above 0 would let it take a pivot and fill every later row.
    n = q.shape[0]
    keep = q.indices != n - 1
    kept_before = np.concatenate(([0], np.cumsum(keep)))[q.indptr]
    ends = kept_before[1:]
    A = sp.csc_matrix(
        (np.insert(q.data[keep], ends, 1.0),
         np.insert(q.indices[keep], ends, n - 1),
         kept_before + np.arange(n + 1)),
        shape=(n, n),
    )
    b = np.zeros(n)
    b[-1] = 1.0
    lu = splu(A, permc_spec="NATURAL", diag_pivot_thresh=0.0, relax=2, panel_size=4,
              options={"SymmetricMode": True})
    mu = lu.solve(b)
    mu += lu.solve(b - A @ mu)
    return mu, lu.nnz


def _power_stationary(q: sp.csr_matrix, target: float, max_iters: int = 2_000_000) -> tuple[np.ndarray, int]:
    import scipy.sparse as sp
    # Jacobi scaling (Stewart 1994, ch. 3): nu K = nu for K = I + 0.99 D^-1 Q
    # gives mu = nu D^-1 with mu Q = 0.  Factors above 1 diverge (at 1.3).
    # ``target`` is the full chain's bound: an orbit chain sums rates, so its own is larger.
    n = q.shape[0]
    exit_rates = -q.diagonal()
    kernel_t = (sp.eye(n, format="csr") + (sp.diags(0.99 / exit_rates) @ q).T).tocsr()
    nu = np.full(n, 1.0 / n)
    for it in range(1, max_iters + 1):
        nu = kernel_t @ nu
        nu /= nu.sum()
        if it % 64 == 0 or it == max_iters:
            mu = nu / exit_rates
            mu /= mu.sum()
            residual = float(np.max(np.abs(mu @ q)))
            if residual <= target:
                return mu, it
    raise SolverError(f"power iteration on {n} states did not reach residual {target:.3g} "
                      f"in {max_iters} iterations (got {residual:.3g})")


@dataclass(frozen=True, eq=False)
class PathResult:
    """One realized path of the jump process.

    ``times[k]`` is the k-th event time (``times[0] = 0``) and ``counts[k]``
    the flattened per-population agent counts holding from ``times[k]`` until
    the next event.  The path is right-continuous and ends at ``horizon``.
    """

    times: np.ndarray
    counts: np.ndarray
    horizon: float
    seed: int
    strategy_counts: tuple[int, ...]
    resolutions: tuple[int, ...]
    occupancy: StationaryTable | None = None

    def fractions(self) -> np.ndarray:
        scale = np.concatenate(
            [np.full(n, r, dtype=float) for n, r in zip(self.strategy_counts, self.resolutions)]
        )
        return self.counts / scale

    def to_csv(self) -> str:
        line = f"%.17g,{_counts_format(self.strategy_counts)}\n"
        return "t,state_counts\n" + _format_rows(line, self.times[:, None], self.counts)


def _normalize_x0(x0, strategy_counts, sizes) -> list[np.ndarray]:
    parts = [np.asarray([int(v) for v in part], dtype=np.int64)
             for part in _per_population(x0, len(strategy_counts), "initial count blocks")]
    for p, (part, n) in enumerate(zip(parts, strategy_counts)):
        if part.shape != (n,):
            raise ValueError(f"population {p}: initial counts shape {part.shape} != ({n},)")
        if np.any(part < 0):
            raise ValueError(f"population {p}: negative initial counts")
    if tuple(int(part.sum()) for part in parts) != sizes:
        raise KeyError(f"state {tuple(tuple(part.tolist()) for part in parts)} is not on the grid")
    return parts


def simulate_path(model: tuple, x0, horizon: float, seed: int, burn_in: float = 0.0) -> PathResult:
    """One Gillespie path: :func:`simulate_paths` with the single seed ``seed``.

    A seed run alone gives the same bytes as the same seed in any batch.
    """
    return simulate_paths(model, x0, horizon, [seed], burn_in)[0]


def simulate_paths(model: tuple, x0, horizon: float, seeds: Sequence[int], burn_in: float = 0.0) -> list[PathResult]:
    """Gillespie realizations of the revision process from ``x0``, one per seed, in seed order.

    ``model`` is a ``(game, protocol, lattice)`` triple whose ``lattice`` is
    the game's :class:`StateGrid` or its resolution, which enumerates no
    state.  ``x0`` is per-population agent counts, one sequence per
    population, and must hold the ``N * mass`` agents of each population,
    else ``KeyError``.

    The seeds run one after another, each as one event loop on Python floats.
    The running sums of the move weights ``k_i * rho_ij`` at a state, in the
    move order of :func:`_moves` (the edge order of :class:`FiniteChain`), are
    computed at its first visit in this call and kept for every later visit
    by any seed; the total exit rate is the last running sum.  A ``vectorized`` model (game and protocols) is evaluated
    one tile at a time, one call of the payoff map and of each ``rate_fn``
    over a box of about ``TILE_STATES`` lattice states, visited or not; any
    other model once per visited state.  Each path owns two streams,
    ``default_rng`` of each child of ``SeedSequence(seed).spawn(2)``: the
    first gives the standard exponential ``E`` of each event (holding time
    ``E / total``), the second the uniform ``V`` (the move is the first
    whose running sum exceeds ``V * total``).  Both are drawn in blocks of
    ``DRAW_BLOCK``, so a path's bytes depend neither on the block size nor on
    the other seeds of the batch.  A path ends at the event whose holding
    time passes ``horizon``.  On a :class:`StateGrid` lattice, and only
    there, each path carries its occupancy: the time-weighted state
    distribution over ``(burn_in, horizon]``, normalized to one.

    Each state a path visits is screened as the lattice and the mean dynamic
    are, by :func:`symgame.games._evaluator`, so invalid output raises the
    error of the validating path at the offending state, and weights that
    overflow although every rate is finite raise ``ProtocolError`` naming the
    state; in a batch, the error is the one of the first seed, in seed order,
    whose path reaches an invalid state.  A tile runs with numpy's warnings
    off, and a visited state whose row fails or whose tile raises is
    evaluated alone: unvisited states never warn or raise.
    """
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    if not 0 <= burn_in < horizon:
        raise ValueError(f"need 0 <= burn_in < horizon, got burn_in={burn_in}")
    game, protocol, grid = model
    protocols = protocol_tuple(protocol, game)
    if isinstance(grid, StateGrid):
        _require_lattice(game, grid)
        resolutions, sizes = grid.resolutions, grid.sizes
    else:
        resolutions, sizes = _lattice_sizes(game, grid)
        grid = None
    k0 = np.concatenate(_normalize_x0(x0, game.strategy_counts, sizes))
    recorded = _event_paths(game, protocols, resolutions, sizes, k0, horizon, seeds)
    paths = []
    for seed, (path_times, path_counts) in zip(seeds, recorded):
        occupancy = None
        if grid is not None:
            dwell = np.diff(np.maximum(np.append(path_times, horizon), burn_in))
            residence = np.bincount(grid.ranks(path_counts), weights=dwell, minlength=len(grid))
            occupancy = StationaryTable(grid, residence / (horizon - burn_in), "empirical")
        paths.append(PathResult(
            times=path_times,
            counts=path_counts,
            horizon=horizon,
            seed=seed,
            strategy_counts=game.strategy_counts,
            resolutions=resolutions,
            occupancy=occupancy,
        ))
    return paths


def _event_paths(game, protocols, resolutions, sizes, k0, horizon, seeds):
    """The event loop of :func:`simulate_paths`: the event times and count rows of each path."""
    spans = _spans(game)
    off_diagonal, deltas = _moves(spans)
    unit = np.eye(len(k0), dtype=np.int64)
    # a state's key is its counts in mixed radix: a column of population p has N^p * mass + 1 digits
    bases = [size + 1 for (a, b), size in zip(spans, sizes) for _ in range(a, b)]
    strides = [math.prod(bases[:c]) for c in range(len(bases))]
    key_steps = [sum(d * s for d, s in zip(row, strides)) for row in deltas.tolist()]
    cumulative_at = {}  # key -> running sums of the move weights, shared by this call's seeds
    # a tile is a box of `edge` counts in each free column (all but each population's last): a
    # vectorized model evaluates its lattice states in one call, any other model one state per call
    free = [c for a, b in spans for c in range(a, b - 1)]
    # row i of `lift` moves one agent from its population's last strategy to free column i
    lift = unit[free] - unit[[b - 1 for a, b in spans for _ in range(a, b - 1)]]
    edge = int(TILE_STATES ** (1 / len(free)) + 1e-9) if all(m.vectorized for m in (game, *protocols)) else 1
    box = np.indices([edge] * len(free)).reshape(len(free), -1).T
    box_strides = [edge**i for i in reversed(range(len(free)))]  # row of offsets o in `box`: sum(o * box_strides)
    tiles = {}  # tile origin -> the running sums of each state of its box

    evaluate_rates = _evaluator(game, protocols)

    def fractions(k):
        return tuple([k[:, a:b] / r for (a, b), r in zip(spans, resolutions)])

    def evaluate(k):
        # running sums of the move weights at each row of counts `k`; a row that fails the screen,
        # and every row if an output has a wrong shape, is NaN and never multiplied
        rates, ok = evaluate_rates(fractions(k)) or (None, False)
        cumulative = np.full((len(k), len(deltas)), math.nan)
        if np.any(ok):
            weights = _move_weights(k[ok], [rho[ok] for rho in rates], spans, off_diagonal)
            cumulative[ok] = np.add.accumulate(weights, axis=1)
        return cumulative

    def running_sums(key):
        # a state's first visit in this call reads its row of its tile's evaluation; a failed row
        # is evaluated alone, as a one-state tile, and then by the checked path, which raises the
        # error of an invalid state
        counts = [key // s % base for s, base in zip(strides, bases)]
        offsets = [counts[c] % edge for c in free]
        origin = tuple([counts[c] - o for c, o in zip(free, offsets)])
        if len(box) > 1 and origin not in tiles:
            k = (counts + (box - offsets) @ lift).astype(float)  # exact: counts stay far below 2**53
            on_lattice = np.all(k >= 0.0, axis=1)
            tiles[origin] = np.full((len(box), len(deltas)), math.nan)  # a NaN row is evaluated alone
            with contextlib.suppress(Exception), np.errstate(all="ignore"):  # unvisited states may be invalid
                tiles[origin][on_lattice] = evaluate(k[on_lattice])
        rows, row = tiles.get(origin), sum([o * s for o, s in zip(offsets, box_strides)])
        if rows is None or not math.isfinite(rows[row, -1]):
            k = np.array([counts], dtype=float)
            rows, row = evaluate(k), 0
            if not math.isfinite(rows[0, -1]):
                _checked_rates(game, protocols, fractions(k))
                state = _counts_format(game.strategy_counts) % tuple(counts)
                raise ProtocolError(f"jump rates k_i * rho_ij overflow at state {state}; every rate is finite")
        cumulative_at[key] = cumulative = tuple(rows[row].tolist())
        return cumulative

    recorded = []
    for seed in seeds:
        key, t = sum(int(c) * s for c, s in zip(k0, strides)), 0.0
        times, picks = array("d", [t]), array("i")
        for e, v in _draws(seed):
            cumulative = cumulative_at.get(key) or running_sums(key)
            total = cumulative[-1]
            t = t + e / total if total > 0.0 else math.inf  # no possible move: hold to the horizon
            if t >= horizon:
                break
            # the weights are non-negative, so this counts the running sums <= V * total
            pick = bisect_right(cumulative, v * total)
            key += key_steps[pick]
            times.append(t)
            picks.append(pick)
        steps = np.concatenate([k0[None, :], deltas[np.frombuffer(picks, dtype=np.intc)]])
        recorded.append((np.array(times), np.cumsum(steps, axis=0)))
    return recorded


def _draws(seed):
    """The ``(E, V)`` pairs of one path, from its two streams in blocks of ``DRAW_BLOCK``."""
    exponentials, uniforms = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    while True:
        yield from zip(exponentials.standard_exponential(DRAW_BLOCK).tolist(),
                       uniforms.random(DRAW_BLOCK).tolist())


@dataclass(frozen=True)
class DetailedBalanceReport:
    """Largest probability-flow imbalance over all transition pairs."""

    max_imbalance: float
    worst_edge: tuple[str, str]


def check_detailed_balance(chain: FiniteChain, stationary: StationaryTable) -> DetailedBalanceReport:
    """Max over edges of |mu_x q_xy - mu_y q_yx|, normalized by the largest edge flow."""
    if stationary.provenance != "exact":
        raise ValueError(f"detailed balance needs an exact table, got '{stationary.provenance}'")
    if stationary.grid != chain.grid:
        raise ValueError("stationary table grid does not match the chain grid")
    mu = stationary.probabilities
    src, dst = chain.src, chain.dst
    fwd = mu[src] * chain.rate
    # the reverse rate of each edge, from the generator: nonzero exactly when the reverse edge exists
    rev_rate = np.asarray(chain.generator[dst, src]).ravel()
    has_rev = rev_rate != 0.0
    back = mu[dst] * rev_rate
    # each reversible pair is measured once, from its lower-ordinal end
    gap = np.where((src > dst) & has_rev, 0.0, np.abs(fwd - back))
    if len(gap):
        worst_k = int(np.argmax(gap))
        max_imbalance, worst = float(gap[worst_k]), (int(src[worst_k]), int(dst[worst_k]))
    else:
        max_imbalance, worst = 0.0, (0, 0)
    max_flow = float(fwd.max()) if len(fwd) else 0.0
    if max_flow > 0:
        max_imbalance /= max_flow
    return DetailedBalanceReport(
        max_imbalance=max_imbalance,
        worst_edge=(chain.grid.format_state(worst[0]), chain.grid.format_state(worst[1])),
    )


def deviation_vs_ode(path: PathResult, trajectory: Trajectory) -> float:
    """Exact sup-norm distance between a path and an ODE trajectory.

    The path is piecewise constant and the trajectory piecewise linear, so
    the supremum over each merged segment is attained at its endpoints.
    """
    if path.strategy_counts != trajectory.strategy_counts:
        raise ValueError("path and trajectory have different strategy layouts")
    t_end = float(trajectory.times[-1])
    if abs(path.horizon - t_end) > 1e-9 * max(1.0, t_end):
        raise ValueError(f"horizon mismatch: path ends at {path.horizon}, trajectory at {t_end}")
    merged = np.union1d(path.times, trajectory.times)
    merged = merged[merged <= t_end + 1e-15]
    frac = path.fractions()
    # piecewise-constant path values at merged times (right-continuous)
    idx = np.searchsorted(path.times, merged, side="right") - 1
    path_vals = frac[np.clip(idx, 0, len(frac) - 1)]
    traj_vals = np.column_stack([
        np.interp(merged, trajectory.times, trajectory.states[:, c])
        for c in range(trajectory.states.shape[1])
    ])
    sup = float(np.max(np.abs(path_vals - traj_vals)))
    # each constant segment also meets the trajectory at the next merged time
    if len(merged) > 1:
        sup = max(sup, float(np.max(np.abs(path_vals[:-1] - traj_vals[1:]))))
    return sup
