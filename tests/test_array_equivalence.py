"""The array-backed lattice code against per-state reference implementations.

Each ``_reference_*`` function below is the straightforward per-state
algorithm: it walks Python tuples of counts, evaluates the validated payoff
and rate map at every state and looks neighbours up in a dict.  The library
versions must reproduce them exactly, element for element and in the same
order, on randomly drawn games, protocols and grids.  The two
``_reference_*_path`` functions are the Gillespie loops that
:func:`symgame.simulate_path` replaced: one read the rates from a prebuilt
chain's edges, the other evaluated the protocol at each event and kept
occupancy in a dict.  ``_reference_dense_stationary`` is the dense LU solve
that the sparse factorization in :func:`symgame.exact_stationary` replaced,
``_reference_rhs_parts`` the mean-dynamic right-hand side that built a
validated state and validated rates on every call, and
``_reference_birth_death_weights`` the product loop that called the up and
down rates as functions of the fraction, one derived rate block per call.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from symgame import (
    ProtocolError,
    ReducibleChainError,
    SocialState,
    SymgameError,
    StateGrid,
    StationaryTable,
    birth_death_weights,
    build_generator,
    check_detailed_balance,
    constant_protocol,
    custom_protocol,
    decompose,
    exact_stationary,
    make_linear_game,
    make_separable_game,
    marginal_from_exact,
    product_form_joint,
    simulate_path,
    specs_from_transform,
    sum_exponential_protocol,
    table_protocol,
    validate_hypotheses,
)
from symgame.chain import _communicating_classes, build_grid
from symgame.dynamics import _rhs_parts
from symgame.games import count_states, protocol_tuple

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


def _reference_generator(game, protocol, resolution):
    protocols = protocol_tuple(protocol, game)
    resolutions = (resolution,) * game.num_populations
    sizes = [round(resolution * m) for m in game.masses]
    states = _reference_states(game.strategy_counts, sizes)
    index = {counts: i for i, counts in enumerate(states)}
    src, dst, rate, pop, s_from, s_to = [], [], [], [], [], []
    for ordinal, counts in enumerate(states):
        state = SocialState.from_counts(counts, resolutions)
        payoffs = game.payoff_at(state)
        for p, (proto, pi, x) in enumerate(zip(protocols, payoffs, state.parts)):
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
                    pop.append(p)
                    s_from.append(i)
                    s_to.append(j)
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
        "pop": np.asarray(pop, dtype=np.int32),
        "from_strategy": np.asarray(s_from, dtype=np.int32),
        "to_strategy": np.asarray(s_to, dtype=np.int32),
    }


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
    protocols = protocol_tuple(protocol, game)
    per_pop = [[0.0, math.inf] for _ in range(game.num_populations)]
    for state in states:
        for p, (proto, pi, x) in enumerate(zip(protocols, game.payoff_at(state), state.parts)):
            rho = proto.rates(pi, x)
            per_pop[p][0] = max(per_pop[p][0], float(np.max(np.abs(rho - rho.T))))
            per_pop[p][1] = min(per_pop[p][1], float(rho.min()))
    return tuple((a, b) for a, b in per_pop)


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
    state = SocialState(parts=tuple(np.maximum(p, 0.0) for p in parts))
    payoffs = game.payoff_at(state)
    out = []
    for proto, pi, x in zip(protocols, payoffs, state.parts):
        rho = proto.rates(pi, x)
        inflow = rho.T @ x
        outflow = x * rho.sum(axis=1)
        out.append(inflow - outflow)
    return out


def _reference_birth_death_weights(transformed, index, N, factor_variant, orientation_variant):
    mass = transformed.base_game.masses[transformed.populations[index].base_population]

    def rate(fraction, entry):
        part = np.array([fraction * mass, (1.0 - fraction) * mass])
        return float(transformed.marginal_block(index, part)[entry])

    def up_rate(fraction):
        return rate(fraction, (1, 0))

    def down_rate(fraction):
        return rate(fraction, (0, 1))

    weights = np.empty(N + 1)
    weights[0] = 1.0
    degenerate = False
    w = 1.0
    for j in range(1, N + 1):
        lo = up_rate((j - 1) / N)
        hi = down_rate(j / N)
        if orientation_variant == "paper":
            lo = down_rate((j - 1) / N)
            hi = up_rate(j / N)
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


def _reference_chain_path(chain, x0, horizon, seed, burn_in):
    grid = chain.grid
    current = int(grid.ranks([k for part in x0 for k in part]))
    row_ptr = np.searchsorted(chain.src, np.arange(len(grid) + 1))
    rng = np.random.default_rng(seed)
    times = [0.0]
    visited = [current]
    residence = np.zeros(len(grid))
    t = 0.0
    while True:
        lo, hi = row_ptr[current], row_ptr[current + 1]
        rates = chain.rate[lo:hi]
        total = float(rates.sum())
        if total <= 0.0:
            t_next = horizon
        else:
            t_next = t + rng.exponential(1.0 / total)
        if t_next >= horizon:
            residence[current] += horizon - max(t, burn_in) if horizon > burn_in else 0.0
            break
        if t_next > burn_in:
            residence[current] += t_next - max(t, burn_in)
        cum = np.cumsum(rates)
        pick = int(np.searchsorted(cum, rng.random() * total, side="right"))
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
    parts = [np.asarray(part, dtype=np.int64) for part in x0]
    move_pop, move_from, move_to, flat_idx = [], [], [], []
    for p, n in enumerate(game.strategy_counts):
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        move_pop.extend(p for _ in pairs)
        move_from.extend(i for i, _ in pairs)
        move_to.extend(j for _, j in pairs)
        flat_idx.append(np.array([i * n + j for i, j in pairs]))
    rng = np.random.default_rng(seed)
    t = 0.0
    times = [0.0]
    rows = [np.concatenate(parts).copy()]
    residence = {}
    first_step = True
    while True:
        x_parts = tuple(p / r for p, r in zip(parts, resolutions))
        state = SocialState._unchecked(x_parts)
        if first_step:
            payoffs = game.payoff_at(state)
            weight_blocks = [
                (parts[p][:, None] * proto.rates(pi, x_parts[p])).ravel()[flat_idx[p]]
                for p, (proto, pi) in enumerate(zip(protocols, payoffs))
            ]
            first_step = False
        else:
            payoffs = game.payoff(state)
            if isinstance(payoffs, np.ndarray):
                payoffs = (payoffs,)
            weight_blocks = [
                (parts[p][:, None] * proto.rate_fn(pi, x_parts[p])).ravel()[flat_idx[p]]
                for p, (proto, pi) in enumerate(zip(protocols, payoffs))
            ]
        weights = np.concatenate(weight_blocks)
        total = float(weights.sum())
        if total <= 0.0:
            t_next = horizon
        else:
            t_next = t + rng.exponential(1.0 / total)
        key = tuple(np.concatenate(parts).tolist())
        if t_next >= horizon:
            if horizon > burn_in:
                residence[key] = residence.get(key, 0.0) + horizon - max(t, burn_in)
            break
        if t_next > burn_in:
            residence[key] = residence.get(key, 0.0) + t_next - max(t, burn_in)
        cum = np.cumsum(weights)
        pick = int(np.searchsorted(cum, rng.random() * total, side="right"))
        parts[move_pop[pick]][move_from[pick]] -= 1
        parts[move_pop[pick]][move_to[pick]] += 1
        t = t_next
        times.append(t)
        rows.append(np.concatenate(parts).copy())
    grid = StateGrid(game.strategy_counts, [int(p.sum()) for p in parts], resolutions)
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


def _protocol(kind, n, rng):
    if kind == "constant":
        return constant_protocol(float(rng.uniform(0.5, 2.0)))
    if kind == "sum_exponential":
        return sum_exponential_protocol(float(rng.uniform(-1.5, 1.5)))
    if kind == "table":
        return table_protocol(rng.uniform(0.0, 2.0, size=(n, n)))
    return _masked_protocol(int(rng.integers(2, 4)))


PROTOCOL_KINDS = ("constant", "sum_exponential", "table", "custom")


def _decomposable(proto):
    # the same kind made symmetric and fully supported; payoffs of the drawn
    # games lie in [-1, 1]
    if proto.kind == "sum_exponential":
        eta = proto.params["eta"]
        return sum_exponential_protocol(eta, support_floor=0.5 * math.exp(-2.0 * abs(eta)))
    if proto.kind == "table":
        M = proto.params["matrix"]
        return table_protocol(M + M.T + 0.1)
    if proto.kind == "constant":
        return proto

    def rate_fn(pi, x):
        u = np.exp(pi)
        return np.add.outer(u, u) * (1.0 + np.add.outer(x, x))

    return custom_protocol(rate_fn, support_floor=0.5, symmetric=True)


@st.composite
def models(draw, max_pops=3):
    """A linear or separable game, one protocol per population, and a resolution."""
    n_pops = draw(st.integers(1, max_pops))
    counts = draw(st.lists(st.integers(2, 4), min_size=n_pops, max_size=n_pops))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrices = [rng.uniform(-1.0, 1.0, size=(n, n)) for n in counts]
    if n_pops == 1 and draw(st.booleans()):
        game = make_linear_game(matrices[0])
    else:
        game = make_separable_game(matrices)
    kinds = draw(st.lists(st.sampled_from(PROTOCOL_KINDS), min_size=n_pops, max_size=n_pops))
    protocols = tuple(_protocol(kind, n, rng) for kind, n in zip(kinds, counts))
    resolution = draw(st.integers(1, _MAX_SIZE[n_pops]))
    return game, protocols, resolution


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
        for name in ("src", "dst", "rate", "pop", "from_strategy", "to_strategy"):
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
        ],
    )
    def test_invalid_rates_raise_the_per_state_error(self, bad_rate_fn):
        game = make_linear_game([[0, -1, 1], [1, 0, -1], [-1, 1, 0]])
        proto = custom_protocol(bad_rate_fn)
        with pytest.raises((ValueError, ProtocolError)) as expected:
            _reference_generator(game, proto, 4)
        with pytest.raises(expected.type, match=None) as got:
            build_generator(game, proto, build_grid(game, 4))
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize(
        "bad_payoff",
        [
            lambda s: (np.array([1.0, np.nan]) if s.parts[0][0] > 0.5 else np.zeros(2),),
            lambda s: (np.zeros(3 if s.parts[0][0] > 0.5 else 2),),
            lambda s: (np.zeros(2), np.zeros(2)) if s.parts[0][0] > 0.5 else (np.zeros(2),),
        ],
    )
    def test_invalid_payoffs_raise_the_per_state_error(self, bad_payoff):
        from symgame import PopulationGame

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
        exact = exact_stationary(chain, solver="lu")
        assert exact.metadata["solver"] == "lu"
        for part, old in zip(("indptr", "indices", "data"), before):
            assert np.array_equal(getattr(chain.generator, part), old), part
        expected = _reference_dense_stationary(chain)
        assert np.max(np.abs(exact.probabilities - expected)) <= 1e-13


class TestValidateHypotheses:
    @given(models())
    @settings(max_examples=60, deadline=None)
    def test_grid_report_equals_sampled_lattice_report(self, model):
        # the grid's one-pass rates against the validating per-state path
        game, protocols, resolution = model
        grid = build_grid(game, resolution)
        states = [grid.social_state(ordinal) for ordinal in range(len(grid))]
        on_grid = validate_hypotheses(game, protocols, grid)
        on_states = validate_hypotheses(game, protocols, states)
        assert on_grid.exhaustive and not on_states.exhaustive
        assert on_grid == dataclasses.replace(on_states, exhaustive=True)
        assert on_grid.per_population == _reference_validation(game, protocols, states)


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


class TestMeanDynamicRhs:
    @given(models(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_validating_rhs(self, model, seed):
        game, protocols, _ = model
        rng = np.random.default_rng(seed)
        for _ in range(5):
            # RK4 stages can undershoot zero slightly; both versions clamp
            parts = [
                np.where(rng.random(n) < 0.3, -1e-10, m * rng.dirichlet(np.ones(n)))
                for m, n in zip(game.masses, game.strategy_counts)
            ]
            got = _rhs_parts(game, protocols, parts)
            want = _reference_rhs_parts(game, protocols, parts)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()


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
        path = simulate_path((game, protocols, resolution), x0, horizon, seed,
                             burn_in=burn_in, collect_occupancy=True)
        times, counts, occupancy = _reference_fly_path(
            game, protocols, resolution, x0, horizon, seed, burn_in
        )
        assert path.times.tobytes() == times.tobytes()
        assert path.counts.dtype == counts.dtype
        assert path.counts.tobytes() == counts.tobytes()
        # the dict loop added a revisit as (residence + end) - start, the
        # library as residence + (end - start), like the chain loop did
        assert np.allclose(path.occupancy.probabilities, occupancy, rtol=0.0, atol=1e-10)

    @given(models(), st.integers(0, 2**32 - 1), st.floats(0.0, 0.9))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_chain_edge_loop(self, model, seed, burn_in_share):
        # below 8 moves per state numpy sums the exit rates in order, so the
        # zero-rate moves the chain skips cannot change a bit; from 8 moves on
        # it sums in blocks and the event times may differ in the last bits
        game, protocols, resolution, chain, x0, horizon, burn_in = self._draw_path_inputs(
            model, seed, burn_in_share
        )
        path = simulate_path(chain, x0, horizon, seed, burn_in=burn_in)
        times, counts, occupancy = _reference_chain_path(chain, x0, horizon, seed, burn_in)
        assert np.array_equal(path.counts, counts)
        moves = sum(n * (n - 1) for n in game.strategy_counts)
        if moves < 8:
            assert path.times.tobytes() == times.tobytes()
            assert path.occupancy.probabilities.tobytes() == occupancy.tobytes()
        else:
            assert np.allclose(path.times, times, rtol=1e-12, atol=0.0)
            assert np.allclose(path.occupancy.probabilities, occupancy, rtol=1e-9, atol=1e-15)


class TestBirthDeathRates:
    @given(models())
    @settings(max_examples=60, deadline=None)
    def test_rate_arrays_and_weights_match_the_per_fraction_closures(self, model):
        game, protocols, N = model
        transformed = decompose(game, tuple(_decomposable(proto) for proto in protocols))
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
