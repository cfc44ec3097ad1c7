"""The array-backed lattice code against per-state reference implementations.

Each ``_reference_*`` function below is the straightforward per-state
algorithm: it walks Python tuples of counts, evaluates the validated payoff
and rate map at every state and looks neighbours up in a dict.  The library
versions must reproduce them exactly, element for element and in the same
order, on randomly drawn games, protocols and grids.  The two
``_reference_*_path`` functions are per-event Gillespie loops on Python
floats that read a path's two draw streams one draw at a time: one reads
the rates from a prebuilt chain's edges, the other evaluates the validated
protocol at each event and keeps occupancy in a dict.
``_reference_dense_stationary`` is the dense LU solve that the sparse
factorization in :func:`symgame.exact_stationary` replaced, and sparse LU
on the full generator the solve that it runs on symmetry orbits,
``_reference_rhs_parts`` the mean-dynamic right-hand side that built a
validated state and validated rates on every call,
``_reference_integrate_mean_dynamic`` the RK4 loop over per-population
arrays that called it, ``_reference_rest_point`` the relaxation that
called both, and
``_reference_birth_death_weights`` the product loop that called the up and
down rates as functions of the fraction, one derived rate block per call;
its per-count loop, ``_reference_weight_loop``, is the one that
:func:`symgame.birth_death_weights` replaced with one running product.
``_reference_grid_rates`` is the per-state payoff and rate loop that
:func:`symgame.games.grid_rates` keeps for custom callables, and the three
``_reference_*_csv`` functions the per-row f-string CSV writers.  The
``_reference_derived_block``, ``_reference_fill_base_state``,
``_reference_marginal_block`` and ``_reference_collapse_last_two``
functions are the one-state derived-game evaluations that the stacked
:class:`symgame.TransformedGame` methods replaced; ``_reference_derived_block``
rebuilds, from the strategy count, leading strategy and target, the rotation
and the "sum"/"half" stage list that member lists replaced.  ``_reference_sample_states``
draws one Dirichlet state at a time, as :func:`symgame.sample_states` did before
it drew all in one call, and ``_reference_lattice_counts`` is the remainder loop
that rounded the CLI's initial state to the lattice.  The event loop's tiles
(one stacked evaluation per box of lattice states) are held to one-state
tiles, ``symgame.chain.TILE_STATES = 1``, and each stacked row to the
one-row evaluation of its state.
"""

import collections
import dataclasses
import itertools
import math
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symgame import (
    BirthDeathSpec,
    IntegrationDivergedError,
    PathResult,
    PopulationGame,
    ProtocolError,
    ReducibleChainError,
    RevisionProtocol,
    SymgameError,
    StateGrid,
    StationaryTable,
    Trajectory,
    birth_death_weights,
    build_generator,
    check_detailed_balance,
    constant_protocol,
    custom_protocol,
    decompose,
    derived_block,
    exact_stationary,
    integrate_mean_dynamic,
    make_linear_game,
    make_separable_game,
    marginal_from_exact,
    mean_dynamic_rhs,
    product_form_joint,
    rest_point,
    simulate_path,
    simulate_paths,
    specs_from_transform,
    sum_exponential_protocol,
    table_protocol,
    validate_hypotheses,
)
from symgame import chain as chain_module
from symgame import cli as cli_module
from symgame.chain import _communicating_classes, _lu_stationary, _lumped_generator, _symmetry_orbits, build_grid
from symgame.config import parse_config
from symgame.dynamics import _CYCLE_WINDOW, _ROW_BLOCK, _format_distinct, _spans, _velocity_fn
from symgame.games import _checked_rates, _evaluator, count_states, grid_rates, protocol_tuple, sample_states
from symgame.transform import _reduced_population

# -- per-state reference implementations ------------------------------------


def simplex_counts(total, parts):
    """All compositions of ``total`` into ``parts`` nonnegative integers, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in simplex_counts(total - head, parts - 1):
            yield (head,) + tail


def _reference_states(strategy_counts, sizes):
    per_pop = [list(simplex_counts(s, n)) for n, s in zip(strategy_counts, sizes)]
    return list(itertools.product(*per_pop))


def _lattice_state(counts, resolutions):
    # the state of per-population agent counts on the lattice of resolution N per population
    return tuple(np.asarray(k, dtype=float) / n for k, n in zip(counts, resolutions, strict=True))


def _reference_generator(game, protocol, resolution):
    protocols = protocol_tuple(protocol, game)
    resolutions = (resolution,) * game.num_populations
    sizes = [round(resolution * m) for m in game.masses]
    states = _reference_states(game.strategy_counts, sizes)
    index = {counts: i for i, counts in enumerate(states)}
    src, dst, rate = [], [], []
    for ordinal, counts in enumerate(states):
        state = _lattice_state(counts, resolutions)
        payoffs = game.payoff_at(state)
        for p, (proto, pi, x) in enumerate(zip(protocols, payoffs, state)):
            rho = proto.rates(pi, x)
            part = counts[p]
            for i, k_i in enumerate(part):
                if k_i == 0:
                    continue
                for j in range(len(part)):
                    if j == i:
                        continue
                    q = k_i * rho[i, j]
                    if q == 0.0:
                        continue
                    target = list(counts)
                    moved = list(part)
                    moved[i] -= 1
                    moved[j] += 1
                    target[p] = tuple(moved)
                    src.append(ordinal)
                    dst.append(index[tuple(target)])
                    rate.append(q)
    n = len(states)
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    rate = np.asarray(rate, dtype=float)
    off_diag = sp.coo_matrix((rate, (src, dst)), shape=(n, n))
    row_sums = np.asarray(off_diag.sum(axis=1)).ravel()
    diag = sp.coo_matrix((-row_sums, (np.arange(n), np.arange(n))), shape=(n, n))
    return {
        "generator": (off_diag + diag).tocsr(),
        "src": src,
        "dst": dst,
        "rate": rate,
    }


def _reference_grid_rates(game, protocols, grid):
    # one payoff and one rate_fn call per state, stacked afterwards
    per_state = []
    for ordinal in range(len(grid)):
        state = _lattice_state(grid.state(ordinal), grid.resolutions)
        payoffs = game.payoff(state)
        per_state.append([proto.rate_fn(pi, x) for proto, pi, x in zip(protocols, payoffs, state)])
    return [np.array(stack, dtype=float) for stack in zip(*per_state)]


def _reference_table_csv(table):
    grid = table.grid
    rows = [
        f"{grid.format_state(ordinal)},{prob:.17g},{table.provenance}\n"
        for ordinal, prob in enumerate(table.probabilities)
    ]
    return "state_counts,probability,provenance\n" + "".join(rows)


def _reference_path_csv(path):
    offsets = np.concatenate(([0], np.cumsum(path.strategy_counts)))
    lines = ["t,state_counts\n"]
    for t, row in zip(path.times, path.counts):
        parts = "|".join(
            " ".join(str(int(v)) for v in row[offsets[p]:offsets[p + 1]])
            for p in range(len(path.strategy_counts))
        )
        lines.append(f"{t:.17g},{parts}\n")
    return "".join(lines)


def _reference_trajectory_csv(traj):
    names = []
    for p, n in enumerate(traj.strategy_counts):
        tag = "" if len(traj.strategy_counts) == 1 else f"p{p + 1}_"
        names.extend(f"{tag}x_{i + 1}" for i in range(n))
    lines = ["t," + ",".join(names) + "\n"]
    for t, row in zip(traj.times, traj.states):
        lines.append(f"{t:.17g}," + ",".join(f"{v:.17g}" for v in row) + "\n")
    return "".join(lines)


def _reference_balance(chain, mu):
    rate_of = {(int(s), int(d)): float(r) for s, d, r in zip(chain.src, chain.dst, chain.rate)}
    max_flow = 0.0
    # ties, including an all-zero imbalance, go to the first edge
    worst = (int(chain.src[0]), int(chain.dst[0])) if len(chain.src) else (0, 0)
    max_imbalance = 0.0
    for (s, d), q in rate_of.items():
        fwd = mu[s] * q
        max_flow = max(max_flow, fwd)
        if s > d and (d, s) in rate_of:
            continue
        back = mu[d] * rate_of.get((d, s), 0.0)
        gap = abs(fwd - back)
        if gap > max_imbalance:
            max_imbalance = gap
            worst = (s, d)
    if max_flow > 0:
        max_imbalance /= max_flow
    return max_imbalance, worst


def _reference_validation(game, protocol, states):
    # per population: strategies, max asymmetry, min rate, declared floor
    protocols = protocol_tuple(protocol, game)
    per_pop = [[0.0, math.inf] for _ in range(game.num_populations)]
    for state in states:
        for p, (proto, pi, x) in enumerate(zip(protocols, game.payoff_at(state), state)):
            rho = proto.rates(pi, x)
            per_pop[p][0] = max(per_pop[p][0], float(np.max(np.abs(rho - rho.T))))
            per_pop[p][1] = min(per_pop[p][1], float(rho.min()))
    return tuple(
        (n, a, b, proto.support_floor) for n, (a, b), proto in zip(game.strategy_counts, per_pop, protocols)
    )


def _reference_sample_states(game, n_random, seed):
    rng = np.random.default_rng(seed)
    return [
        tuple(m * rng.dirichlet(np.ones(n)) for m, n in zip(game.masses, game.strategy_counts))
        for _ in range(max(n_random, 1))
    ]


def _reference_lattice_counts(parts, resolutions, masses):
    counts = []
    for part, res, m in zip(parts, resolutions, masses):
        scaled = part * res
        k = np.floor(scaled).astype(int)
        target = int(round(res * m))
        remainder = scaled - k
        while k.sum() < target:
            k[int(np.argmax(remainder))] += 1
            remainder[int(np.argmax(remainder))] = -1.0
        while k.sum() > target:
            k[int(np.argmin(remainder))] -= 1
            remainder[int(np.argmin(remainder))] = 2.0
        counts.append(tuple(int(v) for v in k))
    return tuple(counts)


def _reference_dense_stationary(chain):
    # Q^T densified, its last equation replaced by sum(mu) = 1
    n = chain.num_states
    A = chain.generator.toarray().T
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    mu = np.maximum(np.linalg.solve(A, b), 0.0)
    return mu / mu.sum()


def _reference_rhs_parts(game, protocols, parts):
    # the stage clamped at zero, read-only; a non-finite one is refused before any call
    state = tuple(np.maximum(p, 0.0) for p in parts)
    for p, x in enumerate(state):
        x.setflags(write=False)
        if not np.isfinite(x).all():
            raise ValueError(f"population {p}: state has non-finite entries")
    payoffs = game.payoff_at(state)
    out = []
    for proto, pi, x in zip(protocols, payoffs, state):
        rho = proto.rates(pi, x)
        inflow = rho.T @ x
        outflow = x * rho.sum(axis=1)
        out.append(inflow - outflow)
    return out


def _reference_integrate_mean_dynamic(game, protocols, x0, horizon, dt):
    # RK4 with one array per population, each stage and step assembled population by population
    steps = int(round(horizon / dt))
    states = np.empty((steps + 1, sum(game.strategy_counts)))
    parts = [np.array(p, dtype=float) for p in x0]
    states[0] = np.concatenate(parts)
    clamp_events = []

    def rhs(ps):
        try:
            return _reference_rhs_parts(game, protocols, ps)
        except ValueError:
            bad = [p for p, x in enumerate(ps) if not np.isfinite(x).all()]
            if not bad:
                raise
            raise IntegrationDivergedError(
                f"integration diverged at step {step} (population {bad[0]}: non-finite RK4 stage)", step=step
            ) from None

    for step in range(1, steps + 1):
        k1 = rhs(parts)
        k2 = rhs([p + 0.5 * dt * k for p, k in zip(parts, k1)])
        k3 = rhs([p + 0.5 * dt * k for p, k in zip(parts, k2)])
        k4 = rhs([p + dt * k for p, k in zip(parts, k3)])
        new_parts = []
        for p, (x, a, b, c, d) in enumerate(zip(parts, k1, k2, k3, k4)):
            nxt = x + (dt / 6.0) * (a + 2.0 * b + 2.0 * c + d)
            if not np.max(np.abs(nxt)) <= 10.0 * game.masses[p]:
                raise IntegrationDivergedError(
                    f"integration diverged at step {step} (population {p}: max |x| = {np.max(np.abs(nxt)):.6g})",
                    step=step,
                )
            nxt -= (nxt.sum() - game.masses[p]) / len(nxt)
            if np.any(nxt < 0):
                if np.min(nxt) < -1e-9:
                    raise IntegrationDivergedError(
                        f"integration left the simplex at step {step} (population {p}: min x = {np.min(nxt):.6g})",
                        step=step,
                    )
                nxt = np.maximum(nxt, 0.0)
                nxt *= game.masses[p] / nxt.sum()
                clamp_events.append(step)
            new_parts.append(nxt)
        parts = new_parts
        states[step] = np.concatenate(parts)
    return states, tuple(clamp_events)


def _reference_rest_point(game, protocols, tol, max_horizon):
    # the barycenter, else RK4 relaxation over growing horizons; returns the flat rest point
    def residual(flat):
        parts = np.split(flat, np.cumsum(game.strategy_counts))[:-1]
        return float(np.max(np.abs(np.concatenate(_reference_rhs_parts(game, protocols, parts)))))

    flat = np.concatenate(game.barycenter())
    if residual(flat) <= tol:
        return flat
    horizon = 10.0
    while horizon <= max_horizon:
        x0 = tuple(np.split(flat, np.cumsum(game.strategy_counts))[:-1])
        flat = _reference_integrate_mean_dynamic(game, protocols, x0, horizon, 0.01)[0][-1]
        if residual(flat) <= tol:
            return flat
        horizon *= 4.0
    raise ValueError(f"no rest point found within horizon {max_horizon}: residual {residual(flat):.3g} > {tol}")


def _reference_weight_loop(index, N, up, down, factor_variant, orientation_variant):
    # the per-count product over Python floats; up[k] and down[k] are the rates at count k
    if orientation_variant == "paper":
        up, down = down, up
    weights = np.empty(N + 1)
    weights[0] = 1.0
    degenerate = False
    w = 1.0
    for j in range(1, N + 1):
        lo, hi = up[j - 1], down[j]
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo <= 0 or hi <= 0:
            raise SymgameError(
                f"population {index}: nonpositive or non-finite rate at "
                f"count {j} (numerator {lo!r}, denominator {hi!r})"
            )
        if factor_variant == "paper":
            factor = (N - j - 1) / j
        else:
            factor = (N - j + 1) / j
        w = w * factor * (lo / hi)
        if w == 0.0:
            degenerate = True
            w = 0.0
        elif w < 0.0:
            raise SymgameError(
                f"population {index}: negative weight at count {j} "
                f"(factor variant '{factor_variant}' with N={N})"
            )
        weights[j] = w
    return weights, degenerate


def _reference_birth_death_weights(transformed, index, N, factor_variant, orientation_variant):
    mass = transformed.base_game.masses[transformed.populations[index].base_population]

    def rate(fraction, entry):
        part = np.array([fraction * mass, (1.0 - fraction) * mass])
        return float(transformed.marginal_block(index, part)[entry])

    up = [rate(k / N, (1, 0)) for k in range(N + 1)]
    down = [rate(k / N, (0, 1)) for k in range(N + 1)]
    return _reference_weight_loop(index, N, up, down, factor_variant, orientation_variant)


def _reference_collapse_last_two(M, mode):
    a = M.shape[0]
    out = np.empty((a - 1, a - 1))
    out[: a - 2, : a - 2] = M[: a - 2, : a - 2]
    out[: a - 2, a - 2] = M[: a - 2, a - 2] + M[: a - 2, a - 1]
    out[a - 2, : a - 2] = 0.5 * (M[a - 2, : a - 2] + M[a - 1, : a - 2])
    corner = M[a - 2 :, a - 2 :].sum()
    out[a - 2, a - 2] = 0.5 * corner if mode == "half" else corner
    return out


def _reference_derived_block(n, lead, target, base_rates):
    """The block of the derived population led by ``lead`` of n strategies reduced to ``target``: the base
    rates in the cyclic rotation from ``lead``, then one "sum" stage per step and "half" on the step 3->2."""
    rotation = [(lead + t) % n for t in range(n)]
    M = np.asarray(base_rates, dtype=float)[np.ix_(rotation, rotation)]
    for a in range(n, target, -1):
        M = _reference_collapse_last_two(M, "half" if a == 3 else "sum")
    return M


def _reference_fill_base_state(tg, population, part):
    parts = [np.array(r, dtype=float) for r in tg._rest_parts]
    bp = population.base_population
    vec = np.zeros(tg.base_game.strategy_counts[bp])
    for t, mem in enumerate(population.members):
        if len(mem) == 1:
            vec[mem[0]] = float(part[t])
        else:
            idx = list(mem)
            ref = tg._rest_parts[bp][idx]
            total = float(ref.sum())
            share = ref / total if total > 0 else np.full(len(idx), 1.0 / len(idx))
            vec[idx] = float(part[t]) * share
    parts[bp] = vec
    return tuple(parts)


def _reference_marginal_block(tg, index, part):
    pop = tg.populations[index]
    base_state = _reference_fill_base_state(tg, pop, np.asarray(part, dtype=float))
    bp = pop.base_population
    pi = tg.base_game.payoff_at(base_state)[bp]
    n = tg.base_game.strategy_counts[bp]
    return _reference_derived_block(n, pop.members[0][0], pop.arity, tg.base_protocols[bp].rates(pi, base_state[bp]))


def _reference_joint_weights(marginals, strategy_counts, sizes):
    per_pop, cursor = [], 0
    for n, size in zip(strategy_counts, sizes):
        block = marginals[cursor : cursor + (n if n >= 3 else 1)]
        cursor += len(block)
        states = list(simplex_counts(size, n))
        if n >= 3:
            weights = np.array(
                [np.prod([block[t][k] for t, k in enumerate(counts)]) for counts in states]
            )
        else:
            weights = np.array([block[0][counts[0]] for counts in states])
        per_pop.append(weights / weights.sum())
    joint = per_pop[0]
    for weights in per_pop[1:]:
        joint = np.multiply.outer(joint, weights)
    return joint.ravel()


def _path_streams(seed):
    # the exponential and the uniform stream of one path, read one draw per event
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)]


def _reference_step(weights, t, horizon, streams):
    """One Gillespie event on Python floats: the next time and the index of the move, or None."""
    cumulative, total = [], 0.0
    for w in weights:
        total += w
        cumulative.append(total)
    t_next = t + streams[0].standard_exponential() / total if total > 0.0 else math.inf
    if t_next >= horizon:
        return t_next, None
    u = streams[1].random() * total
    return t_next, sum(c <= u for c in cumulative)


def _reference_chain_path(chain, x0, horizon, seed, burn_in):
    grid = chain.grid
    current = int(grid.ranks([k for part in x0 for k in part]))
    row_ptr = np.searchsorted(chain.src, np.arange(len(grid) + 1))
    streams = _path_streams(seed)
    times = [0.0]
    visited = [current]
    residence = np.zeros(len(grid))
    t = 0.0
    while True:
        lo, hi = row_ptr[current], row_ptr[current + 1]
        t_next, pick = _reference_step(chain.rate[lo:hi].tolist(), t, horizon, streams)
        end = min(t_next, horizon)
        if end > burn_in:
            residence[current] += end - max(t, burn_in)
        if pick is None:
            break
        current = int(chain.dst[lo + pick])
        t = t_next
        times.append(t)
        visited.append(current)
    occupancy = StationaryTable(grid=grid, probabilities=residence / (horizon - burn_in),
                                provenance="empirical")
    return np.asarray(times), grid.counts[visited], occupancy.probabilities


def _reference_fly_path(game, protocol, resolution, x0, horizon, seed, burn_in):
    protocols = protocol_tuple(protocol, game)
    resolutions = (resolution,) * game.num_populations
    parts = [list(part) for part in x0]
    moves = [(p, i, j) for p, n in enumerate(game.strategy_counts)
             for i in range(n) for j in range(n) if i != j]
    streams = _path_streams(seed)
    t = 0.0
    rows = [sum(parts, [])]
    times = [0.0]
    residence = {}
    while True:
        state = _lattice_state(parts, resolutions)
        rates = [proto.rates(pi, x) for proto, pi, x in zip(protocols, game.payoff_at(state), state)]
        weights = [parts[p][i] * float(rates[p][i, j]) for p, i, j in moves]
        t_next, pick = _reference_step(weights, t, horizon, streams)
        end = min(t_next, horizon)
        if end > burn_in:
            key = tuple(rows[-1])
            residence[key] = residence.get(key, 0.0) + (end - max(t, burn_in))
        if pick is None:
            break
        p, i, j = moves[pick]
        parts[p][i] -= 1
        parts[p][j] += 1
        t = t_next
        times.append(t)
        rows.append(sum(parts, []))
    grid = StateGrid(game.strategy_counts, [sum(part) for part in parts], resolutions)
    probs = np.zeros(len(grid))
    probs[grid.ranks(list(residence))] = np.array(list(residence.values())) / (horizon - burn_in)
    occupancy = StationaryTable(grid=grid, probabilities=probs, provenance="empirical")
    return np.asarray(times), np.asarray(rows, dtype=np.int64), occupancy.probabilities


# -- randomized inputs ------------------------------------------------------

# largest agent count per population, by number of populations, keeping grids small
_MAX_SIZE = {1: 8, 2: 4, 3: 2}


@st.composite
def layouts(draw, min_size=0):
    n_pops = draw(st.integers(1, 3))
    counts = tuple(draw(st.lists(st.integers(2, 5), min_size=n_pops, max_size=n_pops)))
    sizes = tuple(
        draw(st.lists(st.integers(min_size, _MAX_SIZE[n_pops]), min_size=n_pops, max_size=n_pops))
    )
    return counts, sizes


def _masked_protocol(n_zero_mod):
    # state- and payoff-dependent, asymmetric, and zero on some ordered pairs
    def rate_fn(pi, x):
        n = len(x)
        ij = np.add.outer(3 * np.arange(n), np.arange(n))
        return np.where(ij % n_zero_mod == 0, 0.0, np.exp(pi)[:, None] + x[None, :])

    return custom_protocol(rate_fn)


def _protocol(kind, n, rng, decomposable=False):
    """A random protocol of ``kind``; ``decomposable`` makes the same draw symmetric and fully supported.

    Payoffs of the drawn games lie in [-1, 1].
    """
    if kind == "constant":
        return constant_protocol(float(rng.uniform(0.5, 2.0)))
    if kind == "sum_exponential":
        eta = float(rng.uniform(-1.5, 1.5))
        return sum_exponential_protocol(eta, support_floor=0.5 * math.exp(-2.0 * abs(eta)) if decomposable else 0.0)
    if kind == "table":
        M = rng.uniform(0.0, 2.0, size=(n, n))
        return table_protocol(M + M.T + 0.1 if decomposable else M)
    n_zero_mod = int(rng.integers(2, 4))
    if not decomposable:
        return _masked_protocol(n_zero_mod)

    def rate_fn(pi, x):
        u = np.exp(pi)
        return np.add.outer(u, u) * (1.0 + np.add.outer(x, x))

    return custom_protocol(rate_fn, support_floor=0.5)


PROTOCOL_KINDS = ("constant", "sum_exponential", "table", "custom")


@st.composite
def models(draw, max_pops=3, decomposable=False, strategies=(2, 4)):
    """A linear or separable game, one protocol per population, and a resolution.

    ``decomposable`` draws symmetric, fully supported protocols (see :func:`_protocol`).
    Each population has ``strategies[0]`` to ``strategies[1]`` strategies.
    """
    n_pops = draw(st.integers(1, max_pops))
    counts = draw(st.lists(st.integers(*strategies), min_size=n_pops, max_size=n_pops))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrices = [rng.uniform(-1.0, 1.0, size=(n, n)) for n in counts]
    if n_pops == 1 and draw(st.booleans()):
        game = make_linear_game(matrices[0])
    else:
        game = make_separable_game(matrices)
    kinds = draw(st.lists(st.sampled_from(PROTOCOL_KINDS), min_size=n_pops, max_size=n_pops))
    protocols = tuple(_protocol(kind, n, rng, decomposable) for kind, n in zip(kinds, counts))
    resolution = draw(st.integers(1, _MAX_SIZE[n_pops]))
    return game, protocols, resolution


def _circulant(first_row):
    n = len(first_row)
    return np.array([[first_row[(j - i) % n] for j in range(n)] for i in range(n)])


@st.composite
def symmetric_models(draw):
    """A game whose strategy shift (for two strategies, the swap) leaves the chain unchanged.

    Payoffs are circulant, and each population's protocol is ``sum_exponential``,
    ``constant`` or a circulant ``table``, so relabelling i -> i + 1 permutes every
    payoff and rate.  One or two populations of 2-5 strategies.
    """
    n_pops = draw(st.integers(1, 2))
    counts = draw(st.lists(st.integers(2, 5), min_size=n_pops, max_size=n_pops))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrices = [_circulant(rng.uniform(-1.0, 1.0, size=n)) for n in counts]
    game = make_linear_game(matrices[0]) if n_pops == 1 and draw(st.booleans()) else make_separable_game(matrices)
    protocols = []
    for n in counts:
        kind = draw(st.sampled_from(("sum_exponential", "constant", "table")))
        if kind == "sum_exponential":
            protocols.append(sum_exponential_protocol(float(rng.uniform(-1.5, 1.5))))
        elif kind == "constant":
            protocols.append(constant_protocol(float(rng.uniform(0.5, 2.0))))
        else:
            protocols.append(table_protocol(_circulant(rng.uniform(0.1, 2.0, size=n))))
    largest = {1: {2: 12, 3: 8, 4: 6, 5: 4}, 2: {2: 4, 3: 3, 4: 2, 5: 2}}[n_pops][max(counts)]
    return game, tuple(protocols), draw(st.integers(1, largest))


@st.composite
def tiled_path_models(draw):
    """A vectorized model of one or two populations (2-4 strategies, ``constant``,
    ``sum_exponential`` or ``table``) at N = 2-40, a random lattice state and 1-3 seeds.

    Two populations stay below N = 40 where their product lattice, which occupancy
    enumerates, would pass 10,000 states."""
    n_pops = draw(st.integers(1, 2))
    counts = draw(st.lists(st.integers(2, 4), min_size=n_pops, max_size=n_pops))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrices = [rng.uniform(-1.0, 1.0, size=(n, n)) for n in counts]
    game = make_linear_game(matrices[0]) if n_pops == 1 else make_separable_game(matrices)
    kinds = draw(st.lists(st.sampled_from(PROTOCOL_KINDS[:3]), min_size=n_pops, max_size=n_pops))
    protocols = tuple(_protocol(kind, n, rng) for kind, n in zip(kinds, counts))
    largest = 40 if n_pops == 1 else {2: 40, 3: 12, 4: 6}[max(counts)]
    resolution = draw(st.integers(2, largest))
    x0 = tuple(tuple(rng.multinomial(resolution, np.full(n, 1.0 / n)).tolist()) for n in counts)
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3, unique=True))
    return (game, protocols, resolution), x0, seeds


# -- tests ------------------------------------------------------------------


class TestStateGrid:
    @given(layouts())
    @settings(max_examples=60, deadline=None)
    def test_rank_unrank_against_simplex_counts(self, layout):
        strategy_counts, sizes = layout
        grid = StateGrid(strategy_counts, sizes, [max(s, 1) for s in sizes])
        expected = _reference_states(strategy_counts, sizes)
        assert len(grid) == len(expected) == count_states(strategy_counts, sizes)
        assert [grid.state(i) for i in range(len(grid))] == expected
        assert np.array_equal(grid.ranks(grid.counts), np.arange(len(grid)))
        flat = [tuple(v for part in s for v in part) for s in expected]
        assert np.array_equal(grid.counts, np.array(flat, dtype=np.int64).reshape(len(flat), -1))


class TestBuildGenerator:
    @given(models())
    @settings(max_examples=60, deadline=None)
    def test_edges_and_generator_match_per_state_loop(self, model):
        game, protocols, resolution = model
        chain = build_generator(game, protocols, build_grid(game, resolution))
        expected = _reference_generator(game, protocols, resolution)
        for name in ("src", "dst", "rate"):
            got = getattr(chain, name)
            assert got.dtype == expected[name].dtype, name
            assert np.array_equal(got, expected[name]), name
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(chain.generator, part), getattr(expected["generator"], part))

    @pytest.mark.parametrize(
        "bad_rate_fn",
        [
            lambda pi, x: pi[:, None] * np.ones(len(x)),  # negative where a payoff is
            lambda pi, x: np.full((len(x), len(x)), np.inf if x[0] < 0.3 else 1.0),
            lambda pi, x: np.ones((len(x), len(x) + (x[1] > 0.5))),  # wrong shape at some states
            lambda pi, x: np.ones(len(x)) if x[2] > 0.6 else np.ones((len(x), len(x))),
            # stacked evaluation: exp(500 (pi_i + pi_j)) overflows where a payoff sum exceeds 1.42
            pytest.param(
                sum_exponential_protocol(500.0),
                id="sum_exponential_overflow",
                marks=pytest.mark.filterwarnings("ignore:overflow encountered"),
            ),
            pytest.param(
                RevisionProtocol(
                    kind="one_stack",
                    rate_fn=lambda pi, x: np.ones((1, x.shape[-1], x.shape[-1])),
                    vectorized=True,
                ),
                id="vectorized_wrong_stack",
            ),
        ],
    )
    def test_invalid_rates_raise_the_per_state_error(self, bad_rate_fn):
        game = make_linear_game([[0, -1, 1], [1, 0, -1], [-1, 1, 0]])
        if isinstance(bad_rate_fn, RevisionProtocol):
            proto = bad_rate_fn
        else:
            proto = custom_protocol(bad_rate_fn)
        with pytest.raises((ValueError, ProtocolError)) as expected:
            _reference_generator(game, proto, 4)
        with pytest.raises(expected.type, match=None) as got:
            build_generator(game, proto, build_grid(game, 4))
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize(
        "bad_payoff",
        [
            lambda s: (np.array([1.0, np.nan]) if s[0][0] > 0.5 else np.zeros(2),),
            lambda s: (np.zeros(3 if s[0][0] > 0.5 else 2),),
            lambda s: (np.zeros(2), np.zeros(2)) if s[0][0] > 0.5 else (np.zeros(2),),
            # stacked evaluation: NaN in the rows of the states with x_1 > 1/2
            pytest.param(
                PopulationGame(
                    masses=(1.0,),
                    strategy_counts=(2,),
                    payoff=lambda s: (np.where(s[0][..., :1] > 0.5, [1.0, np.nan], 0.0),),
                    vectorized=True,
                ),
                id="vectorized_nan",
            ),
        ],
    )
    def test_invalid_payoffs_raise_the_per_state_error(self, bad_payoff):
        if isinstance(bad_payoff, PopulationGame):
            game = bad_payoff
        else:
            game = PopulationGame(masses=(1.0,), strategy_counts=(2,), payoff=bad_payoff)
        with pytest.raises(ValueError) as expected:
            _reference_generator(game, constant_protocol(1.0), 4)
        with pytest.raises(ValueError) as got:
            build_generator(game, constant_protocol(1.0), build_grid(game, 4))
        assert str(got.value) == str(expected.value)


class TestDetailedBalance:
    @given(models(), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_imbalance_and_worst_edge_match_dict_walk(self, model, seed, uniform):
        game, protocols, resolution = model
        chain = build_generator(game, protocols, build_grid(game, resolution))
        n = len(chain.grid)
        # uniform weights with constant rates produce ties, which go to the first edge
        mu = np.full(n, 1.0 / n) if uniform else np.random.default_rng(seed).dirichlet(np.ones(n))
        table = StationaryTable(grid=chain.grid, probabilities=mu, provenance="exact")
        report = check_detailed_balance(chain, table)
        max_imbalance, worst = _reference_balance(chain, table.probabilities)
        assert report.max_imbalance == max_imbalance
        assert report.worst_edge == (
            chain.grid.format_state(worst[0]),
            chain.grid.format_state(worst[1]),
        )


class TestExactStationary:
    @given(models(max_pops=2))
    @settings(max_examples=60, deadline=None)
    def test_sparse_lu_matches_the_dense_solve(self, model):
        game, protocols, resolution = model
        chain = build_generator(game, protocols, build_grid(game, resolution))
        if _communicating_classes(chain)[0] > 1:  # a custom protocol can cut moves
            with pytest.raises(ReducibleChainError):
                exact_stationary(chain)
            return
        before = [getattr(chain.generator, part).copy() for part in ("indptr", "indices", "data")]
        exact = exact_stationary(chain)
        assert exact.metadata["solver"] == "lu"
        for part, old in zip(("indptr", "indices", "data"), before):
            assert np.array_equal(getattr(chain.generator, part), old), part
        expected = _reference_dense_stationary(chain)
        assert np.max(np.abs(exact.probabilities - expected)) <= 1e-13

    @given(symmetric_models())
    @settings(max_examples=80, deadline=None)
    def test_orbit_solve_matches_the_full_lu_solve(self, model):
        game, protocols, resolution = model
        chain = build_generator(game, protocols, build_grid(game, resolution))
        exact = exact_stationary(chain)
        labels, defect = _symmetry_orbits(chain)
        assert labels is not None and exact.metadata["orbits"] == labels.max() + 1 < chain.num_states
        assert exact.metadata["symmetry_defect"] == defect <= 1e-14 * chain.max_rate()
        q, states = _lumped_generator(chain, None)
        full = np.maximum(_lu_stationary(q)[0][states], 0.0)
        full /= full.sum()
        assert 0.5 * np.abs(exact.probabilities - full).sum() <= 1e-13
        first = np.unique(labels, return_index=True)[1]
        assert np.array_equal(exact.probabilities, exact.probabilities[first][labels])
        assert exact.metadata["residual"] <= 1e-12 * chain.max_rate()


class TestValidateHypotheses:
    @given(models())
    @settings(max_examples=60, deadline=None)
    def test_grid_report_equals_sampled_lattice_report(self, model):
        # the grid's one-pass rates against the validating per-state path
        game, protocols, resolution = model
        grid = build_grid(game, resolution)
        states = [_lattice_state(grid.state(ordinal), grid.resolutions) for ordinal in range(len(grid))]
        on_grid = validate_hypotheses(game, protocols, grid)
        on_states = validate_hypotheses(game, protocols, np.array([np.concatenate(state) for state in states]))
        assert on_grid.exhaustive and not on_states.exhaustive
        assert on_grid == dataclasses.replace(on_states, exhaustive=True)
        assert on_grid.per_population == _reference_validation(game, protocols, states)


    @pytest.mark.parametrize("strategy_counts, masses", [
        ((3,), (1.0,)), ((12,), (0.7,)), ((2, 3), (1.0, 2.5)), ((9, 2, 4), (1.0, 2.5, 1 / 3)),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("n_random", [0, 1, 1000])
    def test_sample_states_are_the_per_state_dirichlet_draws(self, strategy_counts, masses, seed, n_random):
        game = make_separable_game([np.zeros((n, n)) for n in strategy_counts], masses=masses)
        states = sample_states(game, n_random, seed)
        expected = _reference_sample_states(game, n_random, seed)
        assert states.shape == (max(n_random, 1), sum(strategy_counts)) and not states.flags.writeable
        assert states.tobytes() == np.array([np.concatenate(state) for state in expected]).tobytes()


@st.composite
def initial_states(draw):
    # per population: a mass p/q at a resolution N = q * j (N * mass = p * j agents) and a state
    # of that mass: a Dirichlet draw, a lattice point (remainders tie at 0), or the barycenter; an
    # empty strategy of a lattice point may read -1e-13, as a mass-preserving parse can leave it
    parts, resolutions, masses = [], [], []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(2, 6))
        p, q = draw(st.sampled_from([(1, 3), (1, 2), (1, 1), (2, 1), (5, 2), (3, 1)]))
        res, m = q * draw(st.integers(1, 2000 // q)), p / q
        kind = draw(st.sampled_from(["dirichlet", "lattice", "barycenter"]))
        if kind == "dirichlet":
            x = m * np.random.default_rng(draw(st.integers(0, 2**32 - 1))).dirichlet(np.ones(n))
        elif kind == "lattice":
            cuts = sorted(draw(st.lists(st.integers(0, round(res * m)), min_size=n - 1, max_size=n - 1)))
            x = np.diff([0, *cuts, round(res * m)]) / res
            if draw(st.booleans()):
                x[x == 0] = -1e-13
        else:
            x = np.full(n, m / n)
        parts.append(x)
        resolutions.append(res)
        masses.append(m)
    return tuple(parts), tuple(resolutions), tuple(masses)


class TestLatticeCounts:
    @given(initial_states())
    @settings(max_examples=300, deadline=None)
    def test_one_stable_argsort_matches_the_remainder_loop(self, case):
        parts, resolutions, masses = case
        model = types.SimpleNamespace(
            initial_state=lambda: parts, resolutions=resolutions, game=types.SimpleNamespace(masses=masses)
        )
        expected = _reference_lattice_counts(parts, resolutions, masses)
        assert cli_module._Model.lattice_counts(model) == expected
        assert [sum(k) for k in expected] == [round(res * m) for res, m in zip(resolutions, masses)]


class TestProjections:
    @given(layouts(min_size=1), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_product_form_joint_matches_per_state_products(self, layout, seed):
        strategy_counts, sizes = layout
        rng = np.random.default_rng(seed)
        marginals = [
            rng.dirichlet(np.ones(size + 1))
            for n, size in zip(strategy_counts, sizes)
            for _ in range(n if n >= 3 else 1)
        ]
        grid = StateGrid(strategy_counts, sizes, sizes)
        table = product_form_joint(marginals, grid)
        expected = _reference_joint_weights(marginals, strategy_counts, sizes)
        assert np.array_equal(table.probabilities, expected / expected.sum())

    @given(layouts(min_size=1), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_marginal_from_exact_matches_per_state_sums(self, layout, seed):
        strategy_counts, sizes = layout
        grid = StateGrid(strategy_counts, sizes, sizes)
        mu = np.random.default_rng(seed).dirichlet(np.ones(len(grid)))
        table = StationaryTable(grid=grid, probabilities=mu, provenance="exact")
        for p, n in enumerate(strategy_counts):
            for strategy in range(n):
                expected = np.zeros(sizes[p] + 1)
                for ordinal, prob in enumerate(table.probabilities):
                    expected[grid.state(ordinal)[p][strategy]] += prob
                assert np.array_equal(marginal_from_exact(table, strategy, p), expected)


# numpy reduces 8 or more entries in another order (eight partial sums, then pairwise)
def any_models():
    """:func:`models`, or one or two populations of 8-10 strategies."""
    return st.one_of(models(), models(max_pops=2, strategies=(8, 10)))


# a population of 9 strategies, whose rate rows and drift totals numpy sums pairwise, beside one of 3
NINE_AND_THREE = (
    make_separable_game([_circulant(np.linspace(-1.0, 1.0, 9)), _circulant([0, -1, 1])]),
    (_masked_protocol(2), sum_exponential_protocol(0.8)),
    1,
)


class TestMeanDynamicRhs:
    @given(any_models(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    @example(NINE_AND_THREE, 0)
    def test_matches_the_validating_rhs(self, model, seed):
        game, protocols, _ = model
        velocity = _velocity_fn(game, protocols, _spans(game))
        rng = np.random.default_rng(seed)
        for _ in range(5):
            # RK4 stages can undershoot zero slightly; both versions clamp
            parts = [
                np.where(rng.random(n) < 0.3, -1e-10, m * rng.dirichlet(np.ones(n)))
                for m, n in zip(game.masses, game.strategy_counts)
            ]
            # the velocity takes and returns the flat state as a list of Python floats
            got = velocity(np.concatenate(parts).tolist())
            want = np.concatenate(_reference_rhs_parts(game, protocols, parts))
            assert {type(v) for v in got} == {float}
            assert np.array(got).tobytes() == want.tobytes()
            # the public one takes a valid state
            state = tuple(m * rng.dirichlet(np.ones(n)) for m, n in zip(game.masses, game.strategy_counts))
            want = _reference_rhs_parts(game, protocols, state)
            got = mean_dynamic_rhs(game, protocols, state)
            assert [v.tobytes() for v in got] == [v.tobytes() for v in want]

    @given(models(max_pops=2), st.sampled_from([1e-10, 1e-3]))
    @settings(max_examples=8, deadline=None)
    def test_rest_point_matches_the_reference_relaxation(self, model, tol):
        game, protocols, _ = model

        def found(run):
            try:
                return run().tobytes()
            except ValueError as exc:
                return type(exc), str(exc)

        got = found(lambda: np.concatenate(rest_point(game, protocols, tol, max_horizon=10.0)))
        assert got == found(lambda: _reference_rest_point(game, protocols, tol, 10.0))


def _boundary_state(game, rng):
    """A state on or near the simplex boundary: some strategies at zero or at 1e-13 of the mass.

    ``_masked_protocol(3)`` sends no flow into strategy 0, so where that is at
    zero the mass drift of a step can push it below zero, and RK4 clamps.
    """
    parts = []
    for m, n in zip(game.masses, game.strategy_counts):
        x = rng.dirichlet(np.ones(n))
        x[rng.random(n) < 0.3] = 0.0
        x[rng.random(n) < 0.2] = 1e-13
        if rng.random() < 0.5:
            x[0] = 0.0
        x[rng.integers(n)] += 1.0  # at least one strategy keeps its mass
        parts.append(m * x / x.sum())
    return tuple(parts)


class _Refusal(Exception):
    """A callable's own error."""


def _refusing_rates(pi, x):
    # step 1 from (0.7, 0.2, 0.1) at dt = 0.1 under rates of one evaluates x_0 = 0.7, 0.645, 0.65325, 0.604025
    if x[0] < 0.62:
        raise _Refusal(f"refused at {x.tolist()}")
    return np.ones((3, 3))


def _writing_payoff(state):
    state[0][0] = 0.5
    return (np.zeros(3),)


def _integration_outcome(run):
    """The trajectory's bytes and clamp events, or the type, message and step of the error raised."""
    try:
        states, clamp_events = run()
    except (ValueError, _Refusal) as exc:
        return type(exc), str(exc), getattr(exc, "step", None)
    return states.tobytes(), clamp_events


def _flat_run(game, protocols, x0, horizon, dt):
    def run():
        traj = integrate_mean_dynamic(game, protocols, x0, horizon, dt)
        return traj.states, traj.clamp_events

    return run


def _stop_step(states, clamp_events):
    """The step after which RK4 runs no more: the first ``k`` whose row has the bytes of one of the
    ``_CYCLE_WINDOW`` rows before it, with no clamp event after that row; the last step if none has."""
    rows = [row.tobytes() for row in states]
    steps = len(rows) - 1
    repeats = (
        k
        for k in range(1, steps + 1)
        for j in range(max(0, k - _CYCLE_WINDOW), k)
        if rows[j] == rows[k] and not any(j < c <= k for c in clamp_events)
    )
    return next(repeats, steps)


def _assert_stops_at_the_first_repeat(game, protocols, x0, steps, dt):
    """RK4 returns the reference loop's bytes and clamp events (or its error), and calls each callable
    4 x ``_stop_step`` times."""
    calls = collections.Counter()
    got = _integration_outcome(_flat_run(*_counted_model(game, protocols, calls), x0, steps * dt, dt))
    assert got == _integration_outcome(lambda: _reference_integrate_mean_dynamic(game, protocols, x0, steps * dt, dt))
    if len(got) == 2:
        # a repeat is found by the bytes of the state, not its values: -0.0 == 0.0 but prints apart
        stop = _stop_step(np.frombuffer(got[0]).reshape(steps + 1, -1), got[1])
        assert calls == {"payoff": 4 * stop} | {p: 4 * stop for p in range(len(protocols))}


def _example_model(name):
    """The game, protocols and start built from ``docs/examples/<name>.cfg``, and the config."""
    config = parse_config((EXAMPLES / f"{name}.cfg").read_text())
    game = config.build_game()
    x0 = tuple(config.initial_state_parts(game))
    return game, config.build_protocols(game), x0, config


RPS = [[0, -1, 1], [1, 0, -1], [-1, 1, 0]]
RPSL = _circulant([0, -1, 0, 1])
RPS5 = _circulant([0, -1, -1, -1, 1])
EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"
_OVERFLOWING = "ignore:overflow encountered:RuntimeWarning"


class TestIntegrateMeanDynamic:
    @given(any_models(), st.integers(0, 2**32 - 1), st.integers(1, 30), st.sampled_from([0.01, 0.05, 0.2]))
    @settings(max_examples=80, deadline=None)
    @example(NINE_AND_THREE, 0, 30, 0.05)
    @pytest.mark.filterwarnings(_OVERFLOWING)
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_matches_the_per_population_loop(self, model, seed, steps, dt):
        game, protocols, _ = model
        x0 = _boundary_state(game, np.random.default_rng(seed))
        horizon = steps * dt
        got = _integration_outcome(_flat_run(game, protocols, x0, horizon, dt))
        want = _integration_outcome(lambda: _reference_integrate_mean_dynamic(game, protocols, x0, horizon, dt))
        assert got == want

    @pytest.mark.parametrize(
        "x0, clamped_cycle",
        [
            (([0.0, 0.6, 0.4],), None),
            (([0.0, 1.0, 0.0],), None),  # a fixed point from step 244 on, which logs no clamp
            (([0.0, 1.0, 0.0], [0.0, 0.1, 0.9]), None),
            (([0.0, 1.0, 0.0],) * 3, None),
            (([0.0, 1.0, 0.0, 0.0],), (244, 1)),
            (([0.0, 1.0, 0.0, 0.0], [0.0, 0.1, 0.9]), None),
            (([0.0, 0.5, 0.0, 0.0, 0.5],), (256, 2)),
        ],
    )
    def test_clamped_steps_match_the_per_population_loop(self, x0, clamped_cycle):
        # strategy 0 (and 3 of four or five), at zero with nothing flowing into it, undershoots by the mass drift
        game = make_separable_game([{3: RPS, 4: RPSL, 5: RPS5}[len(part)] for part in x0])
        protocols = (_masked_protocol(3),) * len(x0)
        x0 = tuple(np.asarray(part, dtype=float) for part in x0)
        calls = collections.Counter()
        traj = integrate_mean_dynamic(*_counted_model(game, protocols, calls), x0, 20.0, 0.05)
        assert len(traj.clamp_events) > 0
        got = (traj.states.tobytes(), traj.clamp_events)
        assert got == _integration_outcome(lambda: _reference_integrate_mean_dynamic(game, protocols, x0, 20.0, 0.05))
        if clamped_cycle is not None:
            # from that step on each step returns the bytes of the state one period back, but clamps
            # to do so: no cycle is taken, so every step up to the horizon runs and logs a clamp event
            start, period = clamped_cycle
            rows, later = traj.states, list(range(start, 401))
            for p in range(1, period + 1):
                repeats = [k for k in range(p, 401) if rows[k].tobytes() == rows[k - p].tobytes()]
                assert repeats == (later if p == period else [])
            assert set(later) <= set(traj.clamp_events)
            assert calls == {"payoff": 4 * 400, 0: 4 * 400}

    @given(
        st.one_of(symmetric_models(), models(max_pops=2, decomposable=True), any_models()),
        st.integers(100, 400),
        st.sampled_from([0.02, 0.05, 0.1]),
    )
    @settings(max_examples=40, deadline=None)
    @pytest.mark.filterwarnings(_OVERFLOWING)
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_a_fixed_point_fills_the_rows_the_per_population_loop_computes(self, model, steps, dt):
        # from the barycenter: a rest point under symmetric rates, and often one after a few hundred steps otherwise
        game, protocols, _ = model
        _assert_stops_at_the_first_repeat(game, protocols, game.barycenter(), steps, dt)

    @given(st.one_of(symmetric_models(), any_models()), st.integers(0, 2**32 - 1), st.integers(400, 2000))
    @settings(max_examples=20, deadline=None)
    @example(
        (make_separable_game([RPS, RPS]), (sum_exponential_protocol(1.0), sum_exponential_protocol(0.5)), 1), 0, 400
    )
    @pytest.mark.filterwarnings(_OVERFLOWING)
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_an_interior_start_stops_at_the_first_repeat_of_the_per_population_loop(self, model, seed, steps):
        # from a Dirichlet start, at dt 0.05 or 0.1: most runs reach a bit cycle within a few hundred steps
        game, protocols, _ = model
        rng = np.random.default_rng(seed)
        x0 = tuple(m * rng.dirichlet(np.ones(n)) for m, n in zip(game.masses, game.strategy_counts))
        _assert_stops_at_the_first_repeat(game, protocols, x0, steps, (0.05, 0.1)[seed % 2])

    def test_a_negative_zero_start_keeps_its_sign_in_row_0(self):
        # no flow into or out of strategy 0: step 1 turns -0.0 into 0.0, so step 2 is the first fixed point
        game = make_linear_game(RPS)
        protocols = (table_protocol([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),)
        x0 = (np.array([-0.0, 0.5, 0.5]),)
        calls = collections.Counter()
        traj = integrate_mean_dynamic(*_counted_model(game, protocols, calls), x0, 1.0, 0.1)
        states, clamp_events = _reference_integrate_mean_dynamic(game, protocols, x0, 1.0, 0.1)
        assert (traj.states.tobytes(), traj.clamp_events) == (states.tobytes(), clamp_events)
        assert traj.to_csv().splitlines()[1:3] == ["0,-0,0.5,0.5", "0.10000000000000001,0,0.5,0.5"]
        assert calls == {"payoff": 8, 0: 8}

    def test_each_stage_reaches_the_payoff_clamped_as_np_maximum_clamps_it(self):
        # np.maximum(y, 0.0) turns -0.0 into 0.0, where max(v, 0.0) would keep it: a payoff that
        # keeps the bytes of each state it is given sees the stages of the per-population loop
        def recording_game(seen):
            def payoff(state):
                seen.append(b"".join(part.tobytes() for part in state))
                return tuple(np.asarray(RPS, dtype=float) @ part for part in state)

            return PopulationGame(masses=(1.0, 1.0), strategy_counts=(3, 3), payoff=payoff)

        protocols = (table_protocol([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]), constant_protocol(1.0))
        x0 = (np.array([-0.0, 0.5, 0.5]), np.array([0.2, -0.0, 0.8]))
        got, want = [], []
        traj = integrate_mean_dynamic(recording_game(got), protocols, x0, 0.3, 0.1)
        states, clamp_events = _reference_integrate_mean_dynamic(recording_game(want), protocols, x0, 0.3, 0.1)
        assert (traj.states.tobytes(), traj.clamp_events) == (states.tobytes(), clamp_events)
        assert traj.states[0].tobytes() == np.concatenate(x0).tobytes()  # row 0 keeps both -0.0
        assert got[0] == np.array([0.0, 0.5, 0.5, 0.2, 0.0, 0.8]).tobytes()
        assert got == want and len(got) == 12

    @pytest.mark.parametrize(
        "game, protocols, x0, error, message",
        [
            # rates whose row sums overflow make the next RK4 stage non-finite
            pytest.param(
                make_separable_game([np.eye(2), RPS]),
                (constant_protocol(1.0), custom_protocol(lambda pi, x: np.full((3, 3), 1e308))),
                ([0.5, 0.5], [0.5, 0.3, 0.2]), IntegrationDivergedError,
                "integration diverged at step 1 (population 1: non-finite RK4 stage)", id="nan-stage",
            ),
            # min() sees no negative rate in either, so only the row sums in the fused total find them
            pytest.param(
                make_linear_game(RPS), (custom_protocol(lambda pi, x: np.where(np.eye(3) > 0, 1.0, np.inf)),),
                ([0.7, 0.2, 0.1],), ProtocolError, "protocol 'custom' produced non-finite rates", id="infinite-rate",
            ),
            pytest.param(
                make_linear_game(RPS),
                (custom_protocol(lambda pi, x: np.where(np.arange(9).reshape(3, 3) == 8, np.nan, 1.0)),),
                ([0.7, 0.2, 0.1],), ProtocolError, "protocol 'custom' produced non-finite rates", id="nan-rate",
            ),
            pytest.param(
                make_linear_game(RPS),
                (custom_protocol(lambda pi, x: np.ones((3, 3)) if x[0] >= 0.5 else -np.ones((3, 3))),),
                ([0.7, 0.2, 0.1],), ProtocolError, "protocol 'custom' produced negative rates (min -1.0)",
                id="negative-rate",
            ),
            pytest.param(
                PopulationGame(masses=(1.0,), strategy_counts=(3,), payoff=lambda s: (np.full(3, np.inf),)),
                (constant_protocol(1.0),), ([0.7, 0.2, 0.1],), ValueError,
                "population 0: payoff has non-finite entries", id="payoff-the-protocol-ignores",
            ),
            pytest.param(
                make_linear_game(RPS), (custom_protocol(lambda pi, x: np.ones((2, 2))),), ([0.7, 0.2, 0.1],),
                ValueError, "protocol 'custom' returned shape (2, 2), expected (3, 3)", id="wrong-shape",
            ),
            # payoffs and rates that ignore the state: only the state's own check finds the stage non-finite
            pytest.param(
                PopulationGame(masses=(1.0,), strategy_counts=(3,), payoff=lambda s: (np.zeros(3),)),
                (constant_protocol(1e300),), ([0.7, 0.2, 0.1],), IntegrationDivergedError,
                "integration diverged at step 1 (population 0: non-finite RK4 stage)", id="stage-nothing-reads",
            ),
            # sum_exponential maps a payoff of -inf to a rate of zero: the rates and the velocity are finite
            pytest.param(
                PopulationGame(masses=(1.0,), strategy_counts=(3,), payoff=lambda s: (np.array([-np.inf, 0.0, 0.0]),)),
                (sum_exponential_protocol(1.0),), ([0.7, 0.2, 0.1],), ValueError,
                "population 0: payoff has non-finite entries", id="payoff-mapped-to-a-zero-rate",
            ),
            # the first invalid evaluation is stage 2, 3 or 4 of step 1 (see _refusing_rates)
            pytest.param(
                make_linear_game(RPS),
                (custom_protocol(lambda pi, x: np.ones((3, 3)) if x[0] > 0.65 else -np.ones((3, 3))),),
                ([0.7, 0.2, 0.1],), ProtocolError, "protocol 'custom' produced negative rates (min -1.0)",
                id="negative-at-stage-2",
            ),
            pytest.param(
                make_linear_game(RPS),
                (custom_protocol(lambda pi, x: np.full((3, 3), np.nan) if 0.65 < x[0] < 0.66 else np.ones((3, 3))),),
                ([0.7, 0.2, 0.1],), ProtocolError, "protocol 'custom' produced non-finite rates", id="nan-at-stage-3",
            ),
            pytest.param(
                make_linear_game(RPS), (custom_protocol(_refusing_rates),), ([0.7, 0.2, 0.1],), _Refusal,
                "refused at [0.6040249999999999, 0.2349, 0.16107500000000002]", id="callable-raises-at-stage-4",
            ),
            pytest.param(
                PopulationGame(masses=(1.0,), strategy_counts=(3,), payoff=_writing_payoff), (constant_protocol(1.0),),
                ([0.7, 0.2, 0.1],), ValueError, "assignment destination is read-only", id="payoff-writes-its-state",
            ),
            # every rate and every row sum is finite, their total is not: this integrates
            pytest.param(
                make_linear_game(np.eye(2)),
                (custom_protocol(lambda pi, x: np.array([[1e308, 1.0], [1.0, 1e308]])),),
                ([0.75, 0.25],), None, None, id="overflowing-total",
            ),
        ],
    )
    @pytest.mark.filterwarnings(_OVERFLOWING)
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_errors_match_the_per_population_loop(self, game, protocols, x0, error, message):
        x0 = tuple(np.asarray(part, dtype=float) for part in x0)
        got = _integration_outcome(_flat_run(game, protocols, x0, 1.0, 0.1))
        assert got == _integration_outcome(
            lambda: _reference_integrate_mean_dynamic(game, protocols, x0, 1.0, 0.1)
        )
        if error is None:
            assert len(got) == 2  # the states' bytes and the clamp events
        else:
            assert got[:2] == (error, message)

    def test_one_step_evaluates_each_callable_once_per_stage(self):
        game = make_separable_game([[[0, 1], [1, 0]], RPS])
        calls = collections.Counter()
        protocols = (sum_exponential_protocol(0.7), table_protocol(np.ones((3, 3))))
        integrate_mean_dynamic(*_counted_model(game, protocols, calls), game.barycenter(), 0.1, 0.1)
        assert calls == {"payoff": 4, 0: 4, 1: 4}  # one per RK4 stage

    @pytest.mark.parametrize("name", ["coordination_table", "rps_constant", "two_populations"])
    def test_an_example_at_its_barycenter_runs_one_step(self, name):
        # symmetric rates make the barycenter start of these examples a rest point to the last bit,
        # so RK4 stops after its first step, whatever the horizon
        game, protocols, x0, config = _example_model(name)
        calls = collections.Counter()
        traj = integrate_mean_dynamic(*_counted_model(game, protocols, calls), x0, config.horizon, config.dt)
        assert calls == {"payoff": 4} | {p: 4 for p in range(game.num_populations)}
        assert traj.states.tobytes() == np.tile(np.concatenate(x0), (len(traj.times), 1)).tobytes()

    def test_rps_sum_exponential_stops_in_a_2_cycle(self):
        # from (0.5, 0.3, 0.2) RK4 spirals into the barycenter, then alternates between two rows of bits:
        # row 1,104 repeats row 1,102, so step 1,104 is the last of 5,000 to run
        game, protocols, x0, config = _example_model("rps_sum_exponential")
        calls = collections.Counter()
        traj = integrate_mean_dynamic(*_counted_model(game, protocols, calls), x0, config.horizon, config.dt)
        assert calls == {"payoff": 4 * 1104, 0: 4 * 1104}
        rows = traj.states
        assert rows[1102].tobytes() == rows[1104].tobytes() != rows[1103].tobytes()
        states, clamp_events = _reference_integrate_mean_dynamic(game, protocols, x0, config.horizon, config.dt)
        assert states.shape == (5001, 3)
        assert (rows.tobytes(), traj.clamp_events) == (states.tobytes(), clamp_events)


class TestSimulatePath:
    @staticmethod
    def _draw_path_inputs(model, seed, burn_in_share):
        game, protocols, resolution = model
        chain = build_generator(game, protocols, build_grid(game, resolution))
        x0 = chain.grid.state(int(np.random.default_rng(seed).integers(len(chain.grid))))
        horizon = 10.0  # tens to hundreds of events
        return game, protocols, resolution, chain, x0, horizon, burn_in_share * horizon

    @given(models(), st.integers(0, 2**32 - 1), st.floats(0.0, 0.9))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_per_event_protocol_loop(self, model, seed, burn_in_share):
        game, protocols, resolution, _, x0, horizon, burn_in = self._draw_path_inputs(
            model, seed, burn_in_share
        )
        path = simulate_path((game, protocols, build_grid(game, resolution)), x0, horizon, seed, burn_in=burn_in)
        times, counts, occupancy = _reference_fly_path(
            game, protocols, resolution, x0, horizon, seed, burn_in
        )
        assert path.times.tobytes() == times.tobytes()
        assert path.counts.dtype == counts.dtype
        assert path.counts.tobytes() == counts.tobytes()
        assert path.occupancy.probabilities.tobytes() == occupancy.tobytes()

    @given(models(), st.integers(0, 2**32 - 1), st.floats(0.0, 0.9))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_chain_edge_loop(self, model, seed, burn_in_share):
        # the chain skips zero-rate moves; adding their zero weights leaves every
        # running sum, and so the total exit rate, unchanged to the bit
        game, protocols, resolution, chain, x0, horizon, burn_in = self._draw_path_inputs(
            model, seed, burn_in_share
        )
        path = simulate_path((game, protocols, chain.grid), x0, horizon, seed, burn_in=burn_in)
        times, counts, occupancy = _reference_chain_path(chain, x0, horizon, seed, burn_in)
        assert path.times.tobytes() == times.tobytes()
        assert path.counts.tobytes() == counts.tobytes()
        assert path.occupancy.probabilities.tobytes() == occupancy.tobytes()

    @given(models(), st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=6, unique=True),
           st.booleans(), st.sampled_from([chain_module.DRAW_BLOCK, 5]), st.floats(0.0, 0.9))
    @settings(max_examples=60, deadline=None)
    def test_each_seed_of_a_batch_gives_its_bytes_alone(self, model, seeds, custom, block, burn_in_share):
        # seeds come in random order; a block of 5 draws makes paths leave the
        # batch in the middle of blocks and refill many times
        game, protocols, resolution = model
        if custom:  # not vectorized: the batch is evaluated one state at a time
            protocols = (_masked_protocol(2), *protocols[1:])
        _, protocols, resolution, _, x0, horizon, burn_in = self._draw_path_inputs(
            (game, protocols, resolution), seeds[0], burn_in_share
        )
        model = (game, protocols, build_grid(game, resolution))
        with mock.patch.object(chain_module, "DRAW_BLOCK", block):
            batch = simulate_paths(model, x0, horizon, seeds, burn_in=burn_in)
            alone = [simulate_path(model, x0, horizon, seed, burn_in=burn_in) for seed in seeds]
        assert [path.seed for path in batch] == seeds
        for a, b in zip(batch, alone):
            assert a.to_csv() == b.to_csv()
            assert a.occupancy.to_csv() == b.occupancy.to_csv()

    @given(tiled_path_models(), st.floats(0.0, 0.9))
    @settings(max_examples=60, deadline=None)
    def test_tiles_give_the_bytes_of_one_state_tiles(self, drawn, burn_in_share):
        # every stacked call is one tile: each of its rows must equal the one-row evaluation of its
        # lattice state, the states that no path visits included, and the paths must not move a byte
        (game, protocols, resolution), x0, seeds = drawn
        model = (game, protocols, build_grid(game, resolution))
        horizon = 2.0  # tens to hundreds of events
        calls = []

        def spy(*args):
            evaluate = _evaluator(*args)

            def recorded(parts):
                calls.append((parts, evaluate(parts)))
                return calls[-1][1]

            return recorded

        with mock.patch.object(chain_module, "_evaluator", spy):
            tiled = simulate_paths(model, x0, horizon, seeds, burn_in=burn_in_share * horizon)
        with mock.patch.object(chain_module, "TILE_STATES", 1):
            alone = simulate_paths(model, x0, horizon, seeds, burn_in=burn_in_share * horizon)
        for a, b in zip(tiled, alone):
            assert a.to_csv() == b.to_csv()
            assert a.occupancy.to_csv() == b.occupancy.to_csv()
        assert calls
        for parts, (rates, ok) in calls:
            for s in range(len(parts[0])):
                row = tuple((np.rint(part[s] * resolution) / resolution)[None, :] for part in parts)
                assert all(x.tobytes() == part[s].tobytes() for x, part in zip(row, parts))
                one_rates, one_ok = _evaluator(game, protocols)(row)
                assert one_ok.tolist() == [ok[s]]
                for one, stacked in zip(one_rates, rates):
                    assert one.tobytes() == stacked[s:s + 1].tobytes()

    def test_block_size_does_not_change_the_bytes(self, monkeypatch):
        # about 2,000 events per path: the default block refills once, a block of 7 every 7 events
        game = make_separable_game([[[0, -1, 1], [1, 0, -1], [-1, 1, 0]], [[1, 0], [0, 2]]])
        protocols = (sum_exponential_protocol(1.0), constant_protocol(1.0))
        model = (game, protocols, 100)
        runs = []
        for block in (chain_module.DRAW_BLOCK, 7):
            monkeypatch.setattr(chain_module, "DRAW_BLOCK", block)
            paths = simulate_paths(model, ((50, 30, 20), (60, 40)), 10.0, [3, 1, 4])
            runs.append([path.to_csv() for path in paths])
        assert min(len(text.splitlines()) for text in runs[0]) > chain_module.DRAW_BLOCK
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("uniform, first", [(0.0, [1, 1, 2]), (0.25, [0, 1, 3])])
    def test_a_draw_on_a_running_sum_picks_the_next_move(self, uniform, first, monkeypatch):
        # at (0, 2, 2) the constant weights are 0, 0, 2, 2, 2, 2 with running sums 0, 0, 2, 4, 6, 8:
        # V * total = 0 equals the two leading sums, and 2.0 the third.  Random draws hit such
        # ties with probability about 2**-53, so both streams are replaced by constants
        class Stream:
            def standard_exponential(self, size=None):
                return 0.1 if size is None else np.full(size, 0.1)

            def random(self, size=None):
                return uniform if size is None else np.full(size, uniform)

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Stream())
        game, proto = make_linear_game(RPS), constant_protocol(1.0)
        path = simulate_path((game, proto, 4), ((0, 2, 2),), 1.0, seed=0)
        times, counts, _ = _reference_fly_path(game, proto, 4, ((0, 2, 2),), 1.0, 0, 0.0)
        assert path.counts[1].tolist() == first
        assert len(times) > 10
        assert path.times.tobytes() == times.tobytes()
        assert path.counts.tobytes() == counts.tobytes()


class TestBirthDeathRates:
    @given(models(decomposable=True))
    @settings(max_examples=60, deadline=None)
    def test_rate_arrays_and_weights_match_the_per_fraction_closures(self, model):
        game, protocols, N = model
        transformed = decompose(game, protocols)
        for variants in itertools.product(("standard", "paper"), repeat=2):
            for i, spec in enumerate(specs_from_transform(transformed, N, *variants)):
                mass = game.masses[transformed.populations[i].base_population]
                blocks = [
                    transformed.marginal_block(i, np.array([k / N * mass, (1.0 - k / N) * mass]))
                    for k in range(N + 1)
                ]
                assert spec.up.tobytes() == np.array([b[1, 0] for b in blocks]).tobytes()
                assert spec.down.tobytes() == np.array([b[0, 1] for b in blocks]).tobytes()
                try:
                    weights, degenerate = _reference_birth_death_weights(transformed, i, N, *variants)
                except SymgameError as err:  # the paper factor at N = 1
                    with pytest.raises(SymgameError) as got:
                        birth_death_weights(spec)
                    assert str(got.value) == str(err)
                    continue
                got = birth_death_weights(spec)
                assert got.weights.tobytes() == weights.tobytes()
                assert got.degenerate == degenerate


@st.composite
def birth_death_specs(draw):
    """Moderate rates and rates at the ends of the float range (the product may overflow or
    underflow); half the specs carry one rate that the product must reject."""
    N = draw(st.integers(1, 30))
    rates = st.lists(st.floats(1e-3, 1e3) | st.floats(1e-300, 1e300), min_size=N + 1, max_size=N + 1)
    up, down = draw(rates), draw(rates)
    if draw(st.booleans()):
        side = up if draw(st.booleans()) else down
        side[draw(st.integers(0, N))] = draw(st.sampled_from([0.0, -0.0, -1.5, math.inf, -math.inf, math.nan]))
    return BirthDeathSpec(
        population_index=draw(st.integers(0, 3)), size=N, up=up, down=down,
        factor_variant=draw(st.sampled_from(("standard", "paper"))),
        orientation_variant=draw(st.sampled_from(("standard", "paper"))),
    )


class TestBirthDeathWeights:
    @given(birth_death_specs())
    # the paper factor at N = 1 makes the weight at count 1 negative; at count 2 of
    # the last, a negative rate and the negative weight it makes come together
    @example(BirthDeathSpec(0, 1, [1.0, 2.0], [3.0, 4.0], factor_variant="paper"))
    @example(BirthDeathSpec(1, 1, [1.0, 2.0], [3.0, 4.0], factor_variant="paper", orientation_variant="paper"))
    @example(BirthDeathSpec(2, 2, [1.0, -1.5, 1.0], [1.0, 1.0, 1.0]))
    @settings(max_examples=400, deadline=None)
    def test_running_product_matches_the_per_count_loop(self, spec):
        args = (spec.population_index, spec.size, spec.up.tolist(), spec.down.tolist())
        try:
            weights, degenerate = _reference_weight_loop(*args, spec.factor_variant, spec.orientation_variant)
        except SymgameError as err:
            with pytest.raises(SymgameError) as got:
                birth_death_weights(spec)
            assert str(got.value) == str(err)
            return
        got = birth_death_weights(spec)
        assert got.weights.tobytes() == weights.tobytes()
        assert got.degenerate == degenerate


@st.composite
def derived_models(draw):
    """A decomposition of 1-2 populations, one of 3-5 strategies, and a stack of derived states per derived population.

    The target arity is 2 (``sum`` and ``half`` stages) or 3 (``sum`` stages
    only, or a pass-through).  Each stack has a few Dirichlet rows and the
    two rows with all mass on the first or on the last derived strategy.
    """
    n_pops = draw(st.integers(1, 2))
    counts = [draw(st.integers(3, 5))] + draw(st.lists(st.integers(2, 4), min_size=n_pops - 1, max_size=n_pops - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrices = [rng.uniform(-1.0, 1.0, size=(n, n)) for n in counts]
    if n_pops == 1 and draw(st.booleans()):
        game = make_linear_game(matrices[0])
    else:
        game = make_separable_game(matrices)
    kinds = draw(st.lists(st.sampled_from(PROTOCOL_KINDS), min_size=n_pops, max_size=n_pops))
    protocols = tuple(_protocol(kind, n, rng, decomposable=True) for kind, n in zip(kinds, counts))
    tg = decompose(game, protocols, target=draw(st.sampled_from((2, 3))))
    rows = draw(st.integers(1, 4))
    stacks = []
    for pop in tg.populations:
        ends = np.eye(pop.arity)[[0, -1]]
        stacks.append(game.masses[pop.base_population] * np.vstack([rng.dirichlet(np.ones(pop.arity), size=rows), ends]))
    return tg, stacks, rng


class TestDerivedStacks:
    @given(derived_models())
    @settings(max_examples=80, deadline=None)
    def test_each_row_of_a_stack_matches_the_per_state_code(self, model):
        tg, stacks, rng = model
        for i, (pop, stack) in enumerate(zip(tg.populations, stacks)):
            filled = tg.fill_base_state(pop, stack)
            blocks = tg.marginal_block(i, stack)
            assert blocks.shape == (len(stack), pop.arity, pop.arity)
            for s, part in enumerate(stack):
                want_state = _reference_fill_base_state(tg, pop, part)
                want_block = _reference_marginal_block(tg, i, part)
                one_state = tg.fill_base_state(pop, part)
                for got, one, want in zip(filled, one_state, want_state, strict=True):
                    assert got[s].tobytes() == one.tobytes() == want.tobytes()
                assert blocks[s].tobytes() == tg.marginal_block(i, part).tobytes() == want_block.tobytes()
        # rates spread over 16 decades, so every summation order shows
        for pop in tg.populations:
            n = tg.base_game.strategy_counts[pop.base_population]
            base = rng.uniform(0.0, 10.0, size=(5, n, n)) * 10.0 ** rng.integers(-8, 8, size=(5, n, n))
            got = derived_block(pop, base)
            for s in range(len(base)):
                assert got[s].tobytes() == derived_block(pop, base[s]).tobytes()
                want = _reference_derived_block(n, pop.members[0][0], pop.arity, base[s])
                assert got[s].tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", range(2, 8))
    def test_member_lists_give_the_rotation_and_stage_blocks(self, n):
        # every target and leading strategy; rates spread over 16 decades, so every summation order shows
        rng = np.random.default_rng(n)
        base = rng.uniform(0.0, 10.0, size=(6, n, n)) * 10.0 ** rng.integers(-8, 8, size=(6, n, n))
        game = make_linear_game(np.zeros((n, n)))
        for target in range(2, n + 1):
            pops = [_reduced_population(0, lead, n, target) for lead in range(n)]
            built = decompose(game, constant_protocol(1.0), target).populations
            assert built == (tuple(pops) if target < n else tuple(pops[:1]))
            for lead, pop in enumerate(pops):
                stacked = derived_block(pop, base[1:])
                for s, M in enumerate(base):
                    want = _reference_derived_block(n, lead, target, M).tobytes()
                    got = derived_block(pop, M) if s == 0 else stacked[s - 1]
                    assert got.tobytes() == want, (target, lead, s)

    @given(derived_models())
    @settings(max_examples=30, deadline=None)
    def test_a_stack_costs_one_base_call_each_when_vectorized(self, model):
        tg, stacks, _ = model
        calls = collections.Counter()
        counted = dataclasses.replace(
            tg,
            base_game=dataclasses.replace(tg.base_game, payoff=_counted(tg.base_game.payoff, calls, "payoff")),
            base_protocols=tuple(
                dataclasses.replace(proto, rate_fn=_counted(proto.rate_fn, calls, p))
                for p, proto in enumerate(tg.base_protocols)
            ),
        )
        stacked = all(proto.kind != "custom" for proto in tg.base_protocols)
        game, protocols = counted.as_population_game()
        assert game.vectorized == stacked and all(proto.vectorized == stacked for proto in protocols)
        counted._rest_parts  # the rest point's own evaluations are not counted
        per_callable = 1 if stacked else len(stacks[0])
        for i, stack in enumerate(stacks):
            calls.clear()
            counted.marginal_block(i, stack)
            assert calls == {"payoff": per_callable, **{p: per_callable for p in range(len(tg.base_protocols))}}
        # the derived game's own payoff costs no base call: one per derived population in all
        calls.clear()
        _checked_rates(game, protocols, tuple(stacks))
        per_game = per_callable * len(stacks)
        assert calls == {"payoff": per_game, **{p: per_game for p in range(len(tg.base_protocols))}}

    @pytest.mark.parametrize("part", [[0.5, 0.5, 0.7], [[0.4, 0.6, 0.0], [0.5, 0.5, 9.0]], [0.5], [[0.5], [1.0]]])
    def test_a_state_of_the_wrong_length_raises_before_any_base_call(self, part):
        calls = collections.Counter()
        tg = decompose(make_linear_game(RPS), constant_protocol(1.0))
        counted = dataclasses.replace(
            tg, base_game=dataclasses.replace(tg.base_game, payoff=_counted(tg.base_game.payoff, calls, "payoff"))
        )
        counted._rest_parts  # the rest point's own evaluations are not counted
        calls.clear()
        message = f"derived population 1 has 2 strategies, got a state of length {np.shape(part)[-1]}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            counted.marginal_block(1, np.array(part))
        assert calls == {}

    @pytest.mark.parametrize(
        "bad, message",
        [
            ([-0.1, 1.1], "population 1: negative mass -0.1"),
            ([1.1, -0.1], "population 1: negative mass -0.05"),  # the aggregate's mass, split in halves
            ([np.nan, 1.0], "population 1: state has non-finite entries"),
            ([0.0, np.inf], "population 1: state has non-finite entries"),
        ],
        ids=["negative-singleton", "negative-aggregate", "nan", "inf"],
    )
    @pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
    def test_an_invalid_state_raises_the_one_state_error_on_a_stack_too(self, bad, message, stacked):
        # derived population 4 leads with strategy 2 of base population 1; a stack raises at its first bad row
        tg = decompose(make_separable_game([RPS, RPS]), constant_protocol(1.0))
        part = np.array([[0.5, 0.5], bad, [-0.3, 1.3]]) if stacked else np.array(bad)
        for call in (lambda: tg.fill_base_state(tg.populations[4], part), lambda: tg.marginal_block(4, part)):
            with pytest.raises(ValueError) as got:
                call()
            assert str(got.value) == message

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_an_invalid_rate_at_one_count_raises_the_per_state_error(self, vectorized):
        # negative rates exactly where x_1 is 3/4 or 1, which sampled states never hit
        def rate_fn(pi, x):
            lead = x[..., :1, None]
            return np.where((lead == 0.75) | (lead == 1.0), -lead, 1.0) * np.ones((3, 3))

        proto = RevisionProtocol(
            kind="spiked", rate_fn=rate_fn, support_floor=1.0, vectorized=vectorized
        )
        tg = decompose(make_linear_game([[0, -1, 1], [1, 0, -1], [-1, 1, 0]]), proto)
        stack = np.column_stack([np.arange(5) / 4, 1.0 - np.arange(5) / 4])
        with pytest.raises(ProtocolError) as expected:
            for part in stack:
                _reference_marginal_block(tg, 0, part)
        assert str(expected.value).endswith("(min -0.75)")
        with pytest.raises(ProtocolError) as got:
            tg.marginal_block(0, stack)
        assert str(got.value) == str(expected.value)
        with pytest.raises(ProtocolError) as got:
            specs_from_transform(tg, 4)
        assert str(got.value) == str(expected.value)


def _counted(fn, calls, key):
    def counted(*args):
        calls[key] += 1
        return fn(*args)

    return counted


def _counted_model(game, protocols, calls):
    """``game`` and ``protocols`` whose calls count into ``calls``: ``"payoff"``, and each protocol's index."""
    return dataclasses.replace(game, payoff=_counted(game.payoff, calls, "payoff")), tuple(
        dataclasses.replace(proto, rate_fn=_counted(proto.rate_fn, calls, p)) for p, proto in enumerate(protocols)
    )


class TestGridRates:
    @given(models())
    @settings(max_examples=80, deadline=None)
    def test_stacked_evaluation_matches_the_per_state_loop(self, model):
        game, protocols, resolution = model
        grid = build_grid(game, resolution)
        calls = collections.Counter()
        counted_game = dataclasses.replace(game, payoff=_counted(game.payoff, calls, "payoff"))
        counted_protocols = tuple(
            dataclasses.replace(proto, rate_fn=_counted(proto.rate_fn, calls, p))
            for p, proto in enumerate(protocols)
        )
        got = grid_rates(counted_game, counted_protocols, grid)
        want = _reference_grid_rates(game, protocols, grid)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()
        # the built-in games and protocols are stacked; one custom protocol
        # sends the whole grid through the per-state loop
        assert game.vectorized
        stacked = all(proto.kind != "custom" for proto in protocols)
        assert stacked == all(proto.vectorized for proto in protocols)
        per_callable = 1 if stacked else len(grid)
        assert calls == {"payoff": per_callable, **{p: per_callable for p in range(len(protocols))}}

    def test_vectorized_rate_fn_runs_once_per_population(self):
        game = make_separable_game([[[0, 1], [1, 0]], [[0, -1, 1], [1, 0, -1], [-1, 1, 0]]])
        calls = collections.Counter()
        proto = sum_exponential_protocol(0.7)
        counted = dataclasses.replace(proto, rate_fn=_counted(proto.rate_fn, calls, "rate_fn"))
        grid = build_grid(game, 4)
        for _ in range(2):
            grid_rates(game, counted, grid)
        assert len(grid) == 5 * 15
        assert calls == {"rate_fn": 2 * 2}  # two calls, two populations each

    def test_table_checks_the_last_axis_of_a_stack(self):
        M = np.arange(9.0).reshape(3, 3)
        proto = table_protocol(M)
        stack = proto.rate_fn(np.zeros((4, 3)), np.full((4, 3), 1.0 / 3))
        assert stack.shape == (4, 3, 3)
        assert np.array_equal(stack, np.broadcast_to(M, (4, 3, 3)))
        with pytest.raises(ValueError, match="rate table is 3x3, state has 2 strategies"):
            proto.rate_fn(np.zeros((3, 2)), np.full((3, 2), 0.5))


# probabilities whose 17-digit rendering is easy to get wrong: zero, tiny,
# subnormal, the smallest subnormal and one
_AWKWARD = (0.0, 8e-20, 1e-310, 5e-324, 1.0)


class TestCsvWriters:
    @given(
        layouts(),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["exact", "empirical", "predicted-product-form", "50%-mix"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_format_string_matches_per_row_f_strings(self, layout, seed, provenance):
        strategy_counts, sizes = layout
        grid = StateGrid(strategy_counts, sizes, [max(s, 1) for s in sizes])
        rng = np.random.default_rng(seed)
        n = len(grid)
        # a spread law, a point mass, or a law drawn from a pool of 1-3 values, so that
        # many rows share bits; the awkward values ride along in all three
        kind = rng.integers(3)
        if kind == 0:
            probs = rng.dirichlet(np.ones(n))
        elif kind == 1:
            probs = np.eye(n)[rng.integers(n)]
        else:
            probs = rng.choice(rng.exponential(size=rng.integers(1, 4)), size=n)
        awkward = (rng.random(n) < 0.4) & (probs < 1.0)
        awkward[rng.integers(n)] = False
        probs[awkward] = rng.choice(_AWKWARD[:-1], size=int(awkward.sum()))
        probs[~awkward] /= probs[~awkward].sum()
        table = StationaryTable(grid=grid, probabilities=probs, provenance=provenance)
        assert table.to_csv() == _reference_table_csv(table)

        # path and trajectory lengths on both sides of the writers' row blocks
        lengths = [1, 2, 17, _ROW_BLOCK, _ROW_BLOCK + 1, 2 * _ROW_BLOCK + 3]
        picks = rng.integers(n, size=int(rng.choice(lengths)))
        times = np.concatenate(([0.0], np.sort(rng.exponential(size=len(picks) - 1))))
        path = PathResult(
            times=times, counts=grid.counts[picks], horizon=float(times[-1]) + 1.0, seed=seed,
            strategy_counts=strategy_counts, resolutions=grid.resolutions,
        )
        assert path.to_csv() == _reference_path_csv(path)

        values = np.concatenate((_AWKWARD, [-0.0, 1 / 3, -2.5e-17, 1e300, np.inf, np.nan]))
        shape = (len(times), grid.counts.shape[1])
        states = np.where(
            rng.random(shape) < 0.5, rng.choice(values, size=shape), rng.uniform(-1.0, 2.0, size=shape)
        )
        traj = Trajectory(times=times, states=states, strategy_counts=strategy_counts)
        assert traj.to_csv() == _reference_trajectory_csv(traj)

    def test_distinct_value_formatter_keys_on_bits(self):
        values = np.array([0.0, -0.0, 0.0, 5e-324, np.nan])
        assert _format_distinct(values).tolist() == ["0", "-0", "0", "4.9406564584124654e-324", "nan"]

    def test_tables_that_repeat_match_per_row_f_strings(self):
        # the exact law is constant on relabelling orbits, the product form repeats
        # too, and a short path leaves most states at zero
        game, proto = make_linear_game(RPS), sum_exponential_protocol(1.0, math.exp(-2.0))
        grid = build_grid(game, 30)
        chain = build_generator(game, (proto,), grid)
        transformed = decompose(game, proto)
        specs = specs_from_transform(transformed, [30] * len(transformed.populations))
        tables = [
            exact_stationary(chain),
            product_form_joint([birth_death_weights(spec).normalized() for spec in specs], grid),
            simulate_paths((game, proto, grid), [(10, 10, 10)], 5.0, [3])[0].occupancy,
        ]
        for table in tables:
            assert len(np.unique(table.probabilities)) < len(grid) // 2
            assert table.to_csv() == _reference_table_csv(table)
