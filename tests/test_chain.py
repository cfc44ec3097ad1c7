import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom, multinomial

from symgame import (
    GridSizeError,
    PathResult,
    PopulationGame,
    ProtocolError,
    ReducibleChainError,
    RevisionProtocol,
    SocialState,
    SolverError,
    StationaryTable,
    build_generator,
    check_detailed_balance,
    constant_protocol,
    custom_protocol,
    decompose,
    deviation_vs_ode,
    exact_stationary,
    integrate_mean_dynamic,
    make_linear_game,
    make_separable_game,
    mean_dynamic_rhs,
    simulate_path,
    simulate_paths,
    specs_from_transform,
    sum_exponential_protocol,
    table_protocol,
)
from symgame import chain as chain_module
from symgame.chain import _lu_stationary, _power_stationary, build_grid
from symgame.games import grid_rates

ROOT = Path(__file__).resolve().parent.parent
RPS = [[0, -1, 1], [1, 0, -1], [-1, 1, 0]]


def birth_death_closed_form(chain):
    """Independent oracle for 2-strategy chains: mu_k ~ prod up(j-1)/down(j).

    Reads the up/down rates straight off the generator edge lists; valid for
    any single-population 2-strategy chain.
    """
    grid = chain.grid
    N = grid.sizes[0]
    up = np.zeros(N + 1)
    down = np.zeros(N + 1)
    for s, d, r in zip(chain.src, chain.dst, chain.rate):
        k_src = grid.state(s)[0][0]
        k_dst = grid.state(d)[0][0]
        if k_dst == k_src + 1:
            up[k_src] = r
        elif k_dst == k_src - 1:
            down[k_src] = r
    w = np.ones(N + 1)
    for k in range(1, N + 1):
        w[k] = w[k - 1] * up[k - 1] / down[k]
    w /= w.sum()
    # reorder onto grid ordinals (grid lists counts of strategy 1 ascending)
    out = np.zeros(N + 1)
    out[grid.ranks([(k, N - k) for k in range(N + 1)])] = w
    return out


def gth_stationary(chain):
    """Independent oracle: Grassmann-Taksar-Heyman state reduction.

    Censors the chain onto states 0..k-1 for k = n-1, ..., 1 and back-solves;
    it adds and multiplies nonnegative rates only, so it never subtracts and
    keeps tiny probabilities to relative accuracy (Grassmann, Taksar & Heyman,
    Oper. Res. 33, 1985).
    """
    P = chain.generator.toarray()
    np.fill_diagonal(P, 0.0)
    n = len(P)
    for k in range(n - 1, 0, -1):
        P[:k, k] /= P[k, :k].sum()
        P[:k, :k] += np.outer(P[:k, k], P[k, :k])
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = pi[:k] @ P[:k, k]
    return pi / pi.sum()


def _uniformized_power_iterations(chain):
    # iterations of the power solve on I + Q^T / (1.01 max rate), with the
    # same stopping rule, before Jacobi scaling replaced it
    n = chain.num_states
    kernel_t = (sp.eye(n, format="csr") + chain.generator.T.tocsr() / (1.01 * chain.max_rate())).tocsr()
    mu = np.full(n, 1.0 / n)
    target = 1e-12 * chain.max_rate()
    for it in range(1, 100_000):
        mu = kernel_t @ mu
        mu /= mu.sum()
        if it % 64 == 0 and np.max(np.abs(mu @ chain.generator)) <= target:
            return it
    raise AssertionError("uniformized power iteration did not converge")


@st.composite
def sum_exponential_chains(draw):
    """A ``sum_exponential`` chain (eta 0.5, 2 or 4) of a linear game of 2-4 strategies, or of a
    separable game of two such populations; its payoffs are circulant, so that the strategy
    shift leaves the chain unchanged, when the second value is True."""
    n_pops = draw(st.integers(1, 2))
    counts = draw(st.lists(st.integers(2, 4), min_size=n_pops, max_size=n_pops))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    circulant = draw(st.booleans())
    matrices = []
    for n in counts:
        matrix = rng.uniform(-1.0, 1.0, size=(n, n))
        if circulant:
            matrix = matrix[0][(np.arange(n)[None, :] - np.arange(n)[:, None]) % n]
        matrices.append(matrix)
    game = make_linear_game(matrices[0]) if n_pops == 1 else make_separable_game(matrices)
    eta = draw(st.sampled_from([0.5, 2.0, 4.0]))
    largest = {1: {2: 30, 3: 10, 4: 6}, 2: {2: 6, 3: 3, 4: 2}}[n_pops][max(counts)]
    grid = build_grid(game, draw(st.integers(1, largest)))
    return build_generator(game, sum_exponential_protocol(eta), grid), circulant


def lattice(n, size, **kwargs):
    """The lattice of ``size`` agents over ``n`` strategies, from a zero-payoff game."""
    return build_grid(make_linear_game(np.zeros((n, n))), size, **kwargs)


class TestEnumerateStates:
    def test_small_grid_sizes(self):
        assert len(lattice(3, 2)) == 6
        assert len(lattice(2, 5)) == 6
        assert len(lattice(4, 10)) == 286  # C(13, 3)

    def test_two_strategy_line(self):
        grid = lattice(2, 5)
        states = [grid.state(i)[0] for i in range(len(grid))]
        assert states == [(0, 5), (1, 4), (2, 3), (3, 2), (4, 1), (5, 0)]

    def test_lexicographic_order_and_bijection(self):
        grid = lattice(3, 4)
        states = [grid.state(i)[0] for i in range(len(grid))]
        assert states == sorted(states)
        assert np.array_equal(grid.ranks(states), np.arange(len(states)))

    def test_grid_limit(self):
        with pytest.raises(GridSizeError, match="286"):
            lattice(4, 10, limit=200)


@pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint16])
@pytest.mark.parametrize("stage", ["build_grid", "simulate_path", "specs_from_transform"])
def test_numpy_integer_resolution_acts_as_int(stage, integer):
    game, proto = make_linear_game(RPS), constant_protocol(1.0)
    run = {
        "build_grid": lambda n: build_grid(game, n).counts,
        "simulate_path": lambda n: simulate_path((game, proto, n), ((2, 1, 1),), 2.0, seed=3).counts,
        "specs_from_transform": lambda n: [
            spec.up for spec in specs_from_transform(decompose(game, proto), n)
        ],
    }[stage]
    assert np.array_equal(run(integer(4)), run(4))


class TestBuildGenerator:
    def test_grid_of_another_layout_is_rejected(self):
        game = make_linear_game(RPS)
        with pytest.raises(ValueError, match="strategy counts"):
            build_generator(game, constant_protocol(1.0), lattice(2, 3))

    def test_single_switch_rate(self):
        game = make_linear_game(np.zeros((2, 2)))
        chain = build_generator(game, constant_protocol(1.0), build_grid(game, 2))
        src, dst = chain.grid.ranks([(1, 1), (0, 2)])
        q = chain.generator[src, dst]
        assert q == pytest.approx(1.0)  # 2 * (1/2) * 1

    def test_total_exit_rate_at_pure_state(self):
        game = make_linear_game(RPS)
        chain = build_generator(game, constant_protocol(1.0), build_grid(game, 2))
        pure = chain.grid.ranks([2, 0, 0])
        assert -chain.generator[pure, pure] == pytest.approx(4.0)  # 2 * 1 * (1 + 1)

    def test_row_sums_zero(self):
        game = make_linear_game(RPS)
        chain = build_generator(game, sum_exponential_protocol(1.0), build_grid(game, 5))
        rows = np.asarray(chain.generator.sum(axis=1)).ravel()
        assert np.max(np.abs(rows)) < 1e-12

    def test_expected_velocity_matches_mean_dynamic(self):
        # sum of rate * displacement over outgoing edges equals the ODE field
        game = make_linear_game(RPS)
        proto = sum_exponential_protocol(0.8)
        N = 4
        chain = build_generator(game, proto, build_grid(game, N))
        velocity = np.zeros((len(chain.grid), 3))
        for s, d, r in zip(chain.src, chain.dst, chain.rate):
            delta = (np.array(chain.grid.state(d)[0]) - np.array(chain.grid.state(s)[0])) / N
            velocity[s] += r * delta
        for ordinal in range(len(chain.grid)):
            state = chain.grid.social_state(ordinal)
            (v,) = mean_dynamic_rhs(game, proto, state)
            assert np.max(np.abs(velocity[ordinal] - v)) < 1e-12

    def test_multi_population_product_grid(self):
        from symgame import make_separable_game

        game = make_separable_game([np.zeros((2, 2)), np.zeros((3, 3))])
        chain = build_generator(game, constant_protocol(1.0), build_grid(game, 2))
        assert len(chain.grid) == 3 * 6
        rows = np.asarray(chain.generator.sum(axis=1)).ravel()
        assert np.max(np.abs(rows)) < 1e-12

    def test_assembly_peak_memory_is_at_most_twice_what_it_keeps(self):
        game, proto = make_linear_game(RPS), sum_exponential_protocol(1.0)
        grid = build_grid(game, 120)
        rates = grid_rates(game, (proto,), grid)
        tracemalloc.start()
        try:
            chain = build_generator(game, proto, grid, rates)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        edges = (chain.src, chain.dst, chain.rate, chain.pop, chain.from_strategy, chain.to_strategy)
        csr = (chain.generator.indptr, chain.generator.indices, chain.generator.data)
        assert peak <= 2 * sum(a.nbytes for a in edges + csr)

    def test_negative_rate_aborts_construction(self):
        from symgame import ProtocolError, custom_protocol

        game = make_linear_game(RPS)
        bad = custom_protocol(lambda pi, x: pi[:, None] * np.ones(len(x)))
        with pytest.raises(ProtocolError, match="negative"):
            build_generator(game, bad, build_grid(game, 2))


class TestExactStationary:
    def test_two_strategy_hand_solve(self):
        game = make_linear_game(np.zeros((2, 2)))
        chain = build_generator(game, constant_protocol(1.0), build_grid(game, 2))
        exact = exact_stationary(chain)
        # counts of strategy 1: 0,1,2 -> 1/4, 1/2, 1/4
        probs = exact.probabilities[chain.grid.ranks([(k, 2 - k) for k in range(3)])]
        assert np.allclose(probs, [0.25, 0.5, 0.25], atol=1e-12)

    def test_constant_protocol_multinomial(self):
        game = make_linear_game(RPS)
        chain = build_generator(game, constant_protocol(1.0), build_grid(game, 2))
        exact = exact_stationary(chain)
        for ordinal in range(len(chain.grid)):
            counts = chain.grid.state(ordinal)[0]
            expected = multinomial.pmf(counts, 2, [1 / 3] * 3)
            assert exact.probabilities[ordinal] == pytest.approx(expected, abs=1e-12)

    def test_normalization(self):
        game = make_linear_game(RPS)
        chain = build_generator(game, sum_exponential_protocol(2.0), build_grid(game, 3))
        exact = exact_stationary(chain)
        assert abs(exact.probabilities.sum() - 1.0) < 1e-12

    def test_birth_death_closed_form_oracle(self):
        game = make_linear_game([[0.3, -0.2], [0.1, 0.5]])
        for N in (2, 5, 11):
            chain = build_generator(game, sum_exponential_protocol(1.0), build_grid(game, N))
            exact = exact_stationary(chain)
            oracle = birth_death_closed_form(chain)
            assert 0.5 * np.abs(exact.probabilities - oracle).sum() <= 1e-12

    @pytest.mark.parametrize("eta", [2.0, 4.0])
    @pytest.mark.parametrize("N", [10, 20, 40])
    def test_lu_agrees_with_gth_on_stiff_coordination(self, eta, N):
        # per-agent rates exp(eta (pi_i + pi_j)) span e^(2 eta); at N = 40 the
        # smallest probability is 8e-20
        game = make_linear_game(np.eye(3))
        chain = build_generator(game, sum_exponential_protocol(eta), build_grid(game, N))
        exact = exact_stationary(chain)
        assert exact.metadata["solver"] == "lu"
        assert 0.5 * np.abs(exact.probabilities - gth_stationary(chain)).sum() <= 1e-14

    def test_power_iteration_agrees_with_lu(self):
        game = make_linear_game(RPS)
        chain = build_generator(game, sum_exponential_protocol(1.0), build_grid(game, 6))
        power, _ = _power_stationary(chain.generator, 1e-12 * chain.max_rate())
        assert np.max(np.abs(_lu_stationary(chain.generator) - power)) < 1e-10

    def test_jacobi_scaled_power_agrees_with_lu_in_fewer_iterations(self):
        game = make_linear_game(RPS)
        chain = build_generator(game, sum_exponential_protocol(1.0), build_grid(game, 40))
        lu = exact_stationary(chain)
        assert lu.metadata["solver"] == "lu"
        power, iterations = _power_stationary(chain.generator, 1e-12 * chain.max_rate())
        assert 0.5 * np.abs(lu.probabilities - power).sum() <= 1e-9
        assert iterations <= 0.75 * _uniformized_power_iterations(chain)

    def test_orbit_count_picks_the_solve(self, monkeypatch):
        game = make_linear_game(RPS)
        chain = build_generator(game, sum_exponential_protocol(1.0), build_grid(game, 6))
        orbits = (chain.num_states - 1) // 3 + 1  # the cyclic shift fixes only the centre
        monkeypatch.setattr(chain_module, "LU_STATE_LIMIT", orbits)
        lu = exact_stationary(chain)
        assert (lu.metadata["solver"], lu.metadata["orbits"]) == ("lu", orbits)
        assert orbits < chain.num_states
        monkeypatch.setattr(chain_module, "LU_STATE_LIMIT", orbits - 1)
        power = exact_stationary(chain)
        assert (power.metadata["solver"], power.metadata["orbits"]) == ("power", orbits)
        assert power.metadata["iterations"] > 0
        assert power.metadata["residual"] <= 1e-12 * chain.max_rate()
        # a game without symmetry solves all of its states, above the limit by power
        asymmetric = make_linear_game(np.random.default_rng(7).uniform(-1.0, 1.0, size=(3, 3)))
        chain = build_generator(asymmetric, sum_exponential_protocol(1.0), build_grid(asymmetric, 6))
        monkeypatch.setattr(chain_module, "LU_STATE_LIMIT", chain.num_states - 1)
        power = exact_stationary(chain)
        assert (power.metadata["solver"], power.metadata["orbits"]) == ("power", chain.num_states)
        assert power.metadata["residual"] <= 1e-12 * chain.max_rate()

    @given(sum_exponential_chains())
    @settings(max_examples=80, deadline=None)
    def test_lu_agrees_with_gth_at_every_rate_scale(self, model):
        # scaling Q moves its rates far from the normalization row's 1, the pivot that the
        # threshold lets SuperLU take off the diagonal.  Two independent populations whose
        # rates differ widely make a nearly decomposable chain, which elimination with any
        # pivoting solves only to about eps times the rate spread (at most 0.33 of it wherever
        # the error passed 3e-14, over 4,800 such chains and scales), so that is their bound.
        chain, circulant = model
        bound = 1e-13
        if len(chain.grid.sizes) == 2:
            bound += np.finfo(float).eps * chain.rate.max() / chain.rate.min()
        for scale in (1e-8, 1.0, 1e8):
            scaled = dataclasses.replace(chain, generator=chain.generator * scale, rate=chain.rate * scale)
            oracle = gth_stationary(scaled)
            full = np.maximum(_lu_stationary(scaled.generator), 0.0)
            assert 0.5 * np.abs(full / full.sum() - oracle).sum() <= bound
            exact = exact_stationary(scaled)
            assert exact.metadata["solver"] == "lu"
            assert exact.metadata["orbits"] < chain.num_states or not circulant
            assert 0.5 * np.abs(exact.probabilities - oracle).sum() <= bound

    def test_bytes_do_not_depend_on_the_blas_thread_count(self):
        script = (
            "from symgame import build_generator, exact_stationary, make_linear_game, sum_exponential_protocol\n"
            "from symgame.chain import build_grid\n"
            f"game = make_linear_game({RPS})\n"
            "table = exact_stationary(build_generator(game, sum_exponential_protocol(1.0), build_grid(game, 120)))\n"
            "print(table.metadata['solver'], table.metadata['orbits'])\n"
            "print(table.to_csv(), end='')\n"
        )
        pythonpath = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True, check=True, timeout=300,
            ).stdout
            for threads in ("1", "2")
        ]
        assert outputs[0].startswith(b"lu 2461\nstate_counts,probability,provenance\n")
        assert outputs[0] == outputs[1]

    def test_an_asymmetric_game_solves_the_full_chain(self):
        game = make_linear_game(np.random.default_rng(7).uniform(-1.0, 1.0, size=(3, 3)))
        chain = build_generator(game, sum_exponential_protocol(1.0), build_grid(game, 8))
        exact = exact_stationary(chain)
        assert exact.metadata["orbits"] == chain.num_states
        assert exact.metadata["symmetry_defect"] == 0.0
        full = np.maximum(_lu_stationary(chain.generator), 0.0)
        full /= full.sum()
        assert np.array_equal(exact.probabilities, StationaryTable(chain.grid, full, "exact").probabilities)

    def test_a_payoff_perturbed_by_1e_9_breaks_the_symmetry(self):
        perturbed = np.array(RPS, dtype=float)
        perturbed[0, 1] += 1e-9
        for matrix, symmetric in ((RPS, True), (perturbed, False)):
            game = make_linear_game(matrix)
            chain = build_generator(game, sum_exponential_protocol(1.0), build_grid(game, 12))
            exact = exact_stationary(chain)
            assert (exact.metadata["orbits"] < chain.num_states) == symmetric
            assert exact.metadata["symmetry_defect"] <= 1e-14 * chain.max_rate()
        assert exact.metadata["symmetry_defect"] == 0.0  # no relabelling accepted

    def test_orbit_mates_get_bitwise_equal_probabilities(self):
        game = make_linear_game(RPS)
        chain = build_generator(game, sum_exponential_protocol(1.0), build_grid(game, 9))
        probs = exact_stationary(chain).probabilities
        shifted = chain.grid.ranks(chain.grid.counts[:, [1, 2, 0]])
        assert np.array_equal(probs[shifted], probs)
        assert not np.array_equal(probs[chain.grid.ranks(chain.grid.counts[:, [1, 0, 2]])], probs)

    def test_power_iteration_short_of_the_residual_raises_solver_error(self):
        game = make_linear_game(RPS)
        chain = build_generator(game, sum_exponential_protocol(1.0), build_grid(game, 40))
        with pytest.raises(SolverError, match=r"power iteration on 861 states did not reach .* in 64 iterations"):
            _power_stationary(chain.generator, 1e-12 * chain.max_rate(), max_iters=64)

    def test_residual_above_the_bound_raises_solver_error(self, monkeypatch):
        game = make_linear_game(RPS)
        chain = build_generator(game, sum_exponential_protocol(1.0), build_grid(game, 6))
        monkeypatch.setattr(chain_module, "_lu_stationary", lambda q: np.ones(q.shape[0]))
        with pytest.raises(SolverError, match=r"stationary residual .* exceeds bound"):
            exact_stationary(chain)

    def test_nan_residual_raises_solver_error(self, monkeypatch):
        # NaN compares False with any bound, so the check must fail it explicitly
        game = make_linear_game(RPS)
        chain = build_generator(game, sum_exponential_protocol(1.0), build_grid(game, 6))
        monkeypatch.setattr(chain_module, "_lu_stationary", lambda q: np.full(q.shape[0], np.nan))
        with pytest.raises(SolverError, match=r"stationary residual nan exceeds bound"):
            exact_stationary(chain)

    def test_reducible_chain_reports_classes(self):
        game = make_linear_game(np.zeros((2, 2)))
        one_way = table_protocol([[0.0, 1.0], [0.0, 0.0]])
        chain = build_generator(game, one_way, build_grid(game, 3))
        with pytest.raises(ReducibleChainError, match="communicating classes") as err:
            exact_stationary(chain)
        assert len(err.value.classes) == 4

    def test_irreducible_under_full_support(self):
        from symgame.chain import _communicating_classes

        game = make_linear_game(RPS)
        for proto in (constant_protocol(0.5), sum_exponential_protocol(2.0)):
            chain = build_generator(game, proto, build_grid(game, 4))
            n_comp, _ = _communicating_classes(chain)
            assert n_comp == 1


class TestSimulatePath:
    def test_seed_determinism(self):
        game = make_linear_game(RPS)
        chain = build_generator(game, constant_protocol(1.0), build_grid(game, 4))
        a = simulate_path(chain, ((4, 0, 0),), 50.0, seed=42)
        b = simulate_path(chain, ((4, 0, 0),), 50.0, seed=42)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.counts, b.counts)
        assert a.to_csv() == b.to_csv()

    def test_different_seeds_differ(self):
        game = make_linear_game(RPS)
        chain = build_generator(game, constant_protocol(1.0), build_grid(game, 4))
        a = simulate_path(chain, ((4, 0, 0),), 50.0, seed=1)
        b = simulate_path(chain, ((4, 0, 0),), 50.0, seed=2)
        assert not (len(a.times) == len(b.times) and np.array_equal(a.times, b.times))

    def test_occupancy_sums_to_one(self):
        game = make_linear_game(RPS)
        chain = build_generator(game, constant_protocol(1.0), build_grid(game, 3))
        path = simulate_path(chain, ((3, 0, 0),), 200.0, seed=7, burn_in=10.0)
        assert abs(path.occupancy.probabilities.sum() - 1.0) < 1e-12
        assert path.occupancy.provenance == "empirical"

    def test_long_path_occupancy_matches_exact_law(self):
        # an asymmetric table: a symmetric one gives the multinomial law whatever
        # the direction of each move; this law is 0.29 in TV from that of the
        # transposed table and 0.26 from uniform
        game = make_linear_game(np.eye(3))
        chain = build_generator(game, table_protocol([[0, 1, 4], [2, 0, 1], [1, 3, 0]]), build_grid(game, 3))
        exact = exact_stationary(chain)
        path = simulate_path(chain, ((3, 0, 0),), 2000.0, seed=3, burn_in=20.0)
        tv = 0.5 * np.abs(path.occupancy.probabilities - exact.probabilities).sum()
        assert tv < 0.03  # seeds 0-29 gave at most 0.0175 (about 23k events)

    def test_binomial_occupancy(self):
        # two strategies with uniform switching settle at Binomial(N, 1/2)
        game = make_linear_game(np.zeros((2, 2)))
        chain = build_generator(game, constant_protocol(1.0), build_grid(game, 50))
        path = simulate_path(chain, ((50, 0),), 1e4, seed=2024, burn_in=1e2)
        target = np.zeros(51)
        target[chain.grid.ranks([(k, 50 - k) for k in range(51)])] = binom.pmf(np.arange(51), 50, 0.5)
        tv = 0.5 * np.abs(path.occupancy.probabilities - target).sum()
        assert tv < 0.02

    def test_occupancy_tv_nonincreasing_in_horizon(self):
        game = make_linear_game(np.zeros((2, 2)))
        proto = constant_protocol(0.5)
        chain = build_generator(game, proto, build_grid(game, 4))
        exact = exact_stationary(chain)
        mean_tv = []
        for horizon in (1e2, 1e3, 1e4):
            paths = simulate_paths(chain, ((2, 2),), horizon, list(range(10)))
            tvs = [0.5 * np.abs(path.occupancy.probabilities - exact.probabilities).sum() for path in paths]
            mean_tv.append(np.mean(tvs))
        assert mean_tv[0] >= mean_tv[1] >= mean_tv[2]


    @pytest.mark.parametrize("model", ["chain", "triple", "triple-occupancy"])
    def test_off_lattice_x0_raises_before_the_first_event(self, model):
        # 9 agents at resolution 10 would simulate fractions summing to 0.9
        calls = []

        def rate_fn(pi, x):
            calls.append(x)
            return np.ones((len(x), len(x)))

        game = make_linear_game(RPS)
        proto = custom_protocol(rate_fn, support_floor=1.0, symmetric=True)
        source = build_generator(game, proto, build_grid(game, 10)) if model == "chain" else (game, proto, 10)
        calls.clear()
        with pytest.raises(KeyError, match=r"state \(\(3, 3, 3\),\) is not on the grid"):
            simulate_path(source, ((3, 3, 3),), 1.0, seed=0,
                          collect_occupancy=model != "triple")
        assert calls == []

    def test_fractional_agent_count_raises_as_for_a_chain(self):
        # mass 0.5 at resolution 3 is 1.5 agents: build_generator refuses it too
        game = make_linear_game(np.zeros((2, 2)), mass=0.5)
        with pytest.raises(ValueError, match="not an integer agent count"):
            simulate_path((game, constant_protocol(1.0), 3), ((1, 1),), 1.0, seed=0)

    def test_chain_and_triple_give_the_same_path(self):
        game = make_linear_game(RPS)
        proto = sum_exponential_protocol(1.0)
        chain = build_generator(game, proto, build_grid(game, 5))
        a = simulate_path(chain, ((3, 1, 1),), 20.0, seed=8, burn_in=2.0)
        b = simulate_path((game, proto, 5), ((3, 1, 1),), 20.0, seed=8, burn_in=2.0,
                          collect_occupancy=True)
        c = simulate_path((game, proto, chain.grid), ((3, 1, 1),), 20.0, seed=8, burn_in=2.0,
                          collect_occupancy=True)
        for path in (b, c):
            assert a.to_csv() == path.to_csv()
            assert a.occupancy.to_csv() == path.occupancy.to_csv()

    @pytest.mark.parametrize("horizon", [math.inf, math.nan])
    def test_non_finite_horizon_raises_before_the_event_loop(self, horizon, monkeypatch):
        # an infinite horizon once ran the event loop without end
        loop = mock.Mock(side_effect=AssertionError("the event loop started"))
        monkeypatch.setattr(chain_module, "_event_paths", loop)
        game = make_linear_game(RPS)
        with pytest.raises(ValueError, match=f"^horizon must be positive and finite, got {horizon}$"):
            simulate_paths((game, constant_protocol(1.0), 3), ((1, 1, 1),), horizon, [0, 1])
        loop.assert_not_called()

    def test_grid_of_another_layout_is_rejected(self):
        game = make_linear_game(RPS)
        with pytest.raises(ValueError, match=r"grid strategy counts \(2,\) != \(3,\)"):
            simulate_path((game, constant_protocol(1.0), lattice(2, 5)), ((3, 1, 1),), 1.0, seed=0)

    @pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
    def test_overflowing_jump_rates_are_named_at_their_state(self):
        # every rate is 1e306, finite and valid; 500 agents times 1e306 is not
        from symgame import ProtocolError

        game = make_linear_game(RPS)
        with pytest.raises(ProtocolError, match=r"^jump rates k_i \* rho_ij overflow at state 500 300 200;"):
            simulate_path((game, constant_protocol(1e306), 1000), ((500, 300, 200),), 1.0, seed=0)

    def test_invalid_rates_of_one_path_raise_in_a_batch(self):
        # the rates turn negative once strategy 0 drops below 3 of 5 agents
        from symgame import ProtocolError

        game = make_linear_game(RPS)
        proto = custom_protocol(lambda pi, x: np.ones((3, 3)) if x[0] >= 0.6 else -np.ones((3, 3)))
        with pytest.raises(ProtocolError, match="protocol 'custom' produced negative rates"):
            simulate_paths((game, proto, 5), ((4, 1, 0),), 50.0, [1, 2, 3])

    @pytest.mark.filterwarnings("ignore:overflow encountered in accumulate:RuntimeWarning")
    def test_a_batch_raises_the_error_of_its_first_failing_seed(self):
        # the weights overflow once strategy 0 drops below 30 of 100 agents.  Seed 2 never
        # gets there by t = 1; seed 1 does after 67 events and seed 0 after 55, so the
        # batch raises seed 1's error, not the one of the earliest failing event
        from symgame import ProtocolError

        game = make_linear_game(RPS)
        proto = custom_protocol(lambda pi, x: np.full((3, 3), 1e306 if x[0] < 0.3 else 1.0))
        model, x0 = (game, proto, 100), ((34, 33, 33),)
        simulate_path(model, x0, 1.0, seed=2)
        alone = []
        for seed in (1, 0):
            with pytest.raises(ProtocolError, match="^jump rates k_i \\* rho_ij overflow at state 29 ") as err:
                simulate_path(model, x0, 1.0, seed=seed)
            alone.append(str(err.value))
        assert alone[0] != alone[1]
        with pytest.raises(ProtocolError) as err:
            simulate_paths(model, x0, 1.0, [2, 1, 0])
        assert str(err.value) == alone[0]

    @pytest.mark.parametrize("seeds", [[5], [5, 6, 7]])
    def test_each_visited_state_is_evaluated_once_per_call(self, seeds):
        # 15 states at N = 4 and hundreds of events, so the paths return to each state many times
        calls = []

        def rate_fn(pi, x):
            calls.append(tuple(x.tolist()))
            return np.exp(np.add.outer(-pi, pi))

        game = make_linear_game(RPS)
        proto = custom_protocol(rate_fn, support_floor=0.1)
        paths = simulate_paths((game, proto, 4), ((2, 1, 1),), 50.0, seeds)
        visited = {tuple(row) for path in paths for row in path.counts.tolist()}
        assert sum(len(path.times) for path in paths) > 10 * len(visited)
        assert len(calls) == len(set(calls)) == len(visited)
        assert set(calls) == {tuple(c / 4 for c in state) for state in visited}
        calls.clear()
        simulate_paths((game, proto, 4), ((2, 1, 1),), 50.0, seeds)
        assert len(calls) == len(visited)  # the states of one call are not kept for the next


def vectorized_protocol(rate_fn):
    return RevisionProtocol(kind="tiled", rate_fn=rate_fn, vectorized=True)


class TestTiles:
    """A vectorized model's move weights come from one call per lattice tile; an invalid or
    raising state that no path visits must act as with one-state tiles, where it is never evaluated."""

    # N = 100 from (34, 33, 33) to t = 0.05: the paths stay below 37 agents on strategy 0, yet
    # their 8 x 8 tiles hold states with 37-39
    N, X0, HORIZON, SEEDS = 100, ((34, 33, 33),), 0.05, [1, 2, 3]

    @pytest.mark.parametrize("bad_rates", [
        lambda x: -np.ones(x.shape[:-1]),  # negative
        lambda x: np.sqrt(0.365 - x[..., 0]),  # NaN, with a RuntimeWarning
    ])
    def test_invalid_rates_at_unvisited_states_neither_raise_nor_warn(self, bad_rates, monkeypatch):
        seen = []

        def rate_fn(pi, x):
            seen.append(round(x[:, 0].max() * self.N))
            ok = np.where(x[:, 0] < 0.365, 1.0, bad_rates(x))
            return np.exp(pi[:, :, None] + pi[:, None, :]) * ok[:, None, None]

        game = make_linear_game(RPS)
        model = (game, vectorized_protocol(rate_fn), self.N)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tiled = simulate_paths(model, self.X0, self.HORIZON, self.SEEDS)
        assert caught == []
        assert max(seen) >= 37  # a tile held an invalid state
        assert max(int(path.counts[:, 0].max()) for path in tiled) < 37  # that no path visited
        monkeypatch.setattr(chain_module, "TILE_STATES", 1)
        alone = simulate_paths(model, self.X0, self.HORIZON, self.SEEDS)
        assert [path.to_csv() for path in tiled] == [path.to_csv() for path in alone]

    def test_a_payoff_that_raises_at_an_unvisited_state_does_not_fail_the_path(self, monkeypatch):
        matrix = np.array(RPS, dtype=float)
        raised = []

        def payoff(state):
            x = state.parts[0]
            if np.any(x[..., 0] >= 0.365):
                raised.append(len(x))
                raise ValueError("payoff undefined above 36 agents on strategy 0")
            return (np.matmul(matrix, x[..., None])[..., 0],)

        game = PopulationGame((1.0,), (3,), payoff, vectorized=True)
        model = (game, sum_exponential_protocol(1.0), self.N)
        tiled = simulate_paths(model, self.X0, self.HORIZON, self.SEEDS)
        assert raised and max(int(path.counts[:, 0].max()) for path in tiled) < 37
        monkeypatch.setattr(chain_module, "TILE_STATES", 1)
        alone = simulate_paths(model, self.X0, self.HORIZON, self.SEEDS)
        assert [path.to_csv() for path in tiled] == [path.to_csv() for path in alone]

    @pytest.mark.parametrize("rates, message", [
        (lambda x: np.where(x[..., 0] < 0.3, 1e306, 1.0), "^jump rates k_i \\* rho_ij overflow at state 29 "),
        (lambda x: np.where(x[..., 0] < 0.3, -x[..., 1], 1.0), "^protocol 'tiled' produced negative rates "),
    ])
    @pytest.mark.filterwarnings("ignore:overflow encountered in accumulate:RuntimeWarning")
    def test_an_invalid_visited_state_raises_the_one_state_error(self, rates, message, monkeypatch):
        # as in the custom-protocol test above: seeds 1 and 0 drop below 30 of 100 agents on
        # strategy 0 by t = 1, seed 1 first in seed order, and seed 2 does not
        def rate_fn(pi, x):
            return np.broadcast_to(rates(x)[..., None, None], (*x.shape, x.shape[-1]))

        model, x0 = (make_linear_game(RPS), vectorized_protocol(rate_fn), 100), ((34, 33, 33),)
        errors = {}
        for tiles in ("tiled", "alone"):
            if tiles == "alone":
                monkeypatch.setattr(chain_module, "TILE_STATES", 1)
            simulate_path(model, x0, 1.0, seed=2)
            for seeds in ([1], [0], [2, 1, 0]):
                with pytest.raises(ProtocolError, match=message) as err:
                    simulate_paths(model, x0, 1.0, seeds)
                errors[tiles, tuple(seeds)] = str(err.value)
        assert errors["tiled", (1,)] != errors["tiled", (0,)]
        for seeds in ((1,), (0,), (2, 1, 0)):
            assert errors["tiled", seeds] == errors["alone", seeds]
        assert errors["tiled", (2, 1, 0)] == errors["tiled", (1,)]

    def test_each_tile_is_evaluated_once_per_call(self):
        # the benchmark's path workload: RPS with sum_exponential at N = 1000, four seeds to t = 10
        base = sum_exponential_protocol(1.0)
        tiles_of_calls = []

        def rate_fn(pi, x):
            tiles_of_calls.append({tuple(row) for row in np.rint(x[:, :2] * 1000).astype(int) // edge})
            return base.rate_fn(pi, x)

        edge = int(chain_module.TILE_STATES ** 0.5 + 1e-9)
        game = make_linear_game(RPS)
        paths = simulate_paths((game, vectorized_protocol(rate_fn), 1000), ((500, 300, 200),), 10.0, [1, 2, 3, 4])
        visited = {tuple(row) for path in paths for row in path.counts[:, :2].tolist()}
        touched = {(a // edge, b // edge) for a, b in visited}
        assert all(len(tiles) == 1 for tiles in tiles_of_calls)  # each call is one tile
        called = [tiles.pop() for tiles in tiles_of_calls]
        assert len(called) == len(set(called))  # never twice for one tile
        assert set(called) == touched  # and only for the tiles that a path touches
        assert len(called) * 20 < len(visited)


class TestStationaryTable:
    @pytest.mark.parametrize("probs,shape", [(1.0, "()"), (np.full((4, 1), 0.25), "(4, 1)")])
    def test_wrong_shape_is_reported(self, probs, shape):
        with pytest.raises(ValueError) as err:
            StationaryTable(lattice(2, 3), probs, "exact")
        assert str(err.value) == f"got probabilities of shape {shape} for 4 states"

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_probability_is_reported(self, value):
        # both the sign and the sum checks compare False on NaN
        with pytest.raises(ValueError) as err:
            StationaryTable(lattice(2, 3), [0.5, value, np.nan, 0.5], "exact")
        assert str(err.value) == f"non-finite probability {value} at state 1"


class TestDetailedBalance:
    def test_two_strategy_chain_reversible(self):
        game = make_linear_game([[0.2, -0.1], [0.4, 0.0]])
        chain = build_generator(game, sum_exponential_protocol(1.5), build_grid(game, 8))
        report = check_detailed_balance(chain, exact_stationary(chain))
        assert report.max_imbalance <= 1e-12

    def test_constant_multinomial_reversible(self):
        game = make_linear_game(RPS)
        chain = build_generator(game, constant_protocol(1.0), build_grid(game, 2))
        report = check_detailed_balance(chain, exact_stationary(chain))
        assert report.max_imbalance <= 1e-12

    def test_rps_sum_exponential_breaks_balance(self):
        game = make_linear_game(RPS)
        chain = build_generator(game, sum_exponential_protocol(2.0), build_grid(game, 4))
        report = check_detailed_balance(chain, exact_stationary(chain))
        assert report.max_imbalance > 1e-6
        # pinned on first computation; guards against silent rate changes
        assert report.max_imbalance == pytest.approx(0.6321205588285579, rel=1e-9)

    def test_requires_exact_table(self):
        game = make_linear_game(RPS)
        chain = build_generator(game, constant_protocol(1.0), build_grid(game, 2))
        path = simulate_path(chain, ((2, 0, 0),), 10.0, seed=0)
        with pytest.raises(ValueError, match="exact"):
            check_detailed_balance(chain, path.occupancy)


class TestDeviationVsOde:
    def _flat_path(self, counts, horizon, n=3, N=3):
        return PathResult(
            times=np.array([0.0]),
            counts=np.array([counts]),
            horizon=horizon,
            seed=0,
            strategy_counts=(n,),
            resolutions=(N,),
        )

    def test_identical_constants_give_zero(self):
        game = make_linear_game(RPS)
        traj = integrate_mean_dynamic(game, constant_protocol(1.0), game.barycenter(), 1.0, 0.01)
        path = self._flat_path([1, 1, 1], 1.0)
        assert deviation_vs_ode(path, traj) == 0.0

    def test_constant_offset(self):
        game = make_linear_game(RPS)
        traj = integrate_mean_dynamic(game, constant_protocol(1.0), game.barycenter(), 1.0, 0.01)
        path = self._flat_path([2, 1, 0], 1.0)
        assert deviation_vs_ode(path, traj) == pytest.approx(1 / 3, abs=1e-12)

    def test_horizon_mismatch(self):
        game = make_linear_game(RPS)
        traj = integrate_mean_dynamic(game, constant_protocol(1.0), game.barycenter(), 2.0, 0.01)
        path = self._flat_path([1, 1, 1], 1.0)
        with pytest.raises(ValueError, match="[Hh]orizon"):
            deviation_vs_ode(path, traj)

    def test_shrinks_with_population_size(self):
        game = make_linear_game(RPS)
        proto = sum_exponential_protocol(1.0)
        traj = integrate_mean_dynamic(game, proto, SocialState.single([0.5, 0.3, 0.2]), 5.0, 0.01)
        devs = {}
        for N in (100, 1000):
            x0 = ((N // 2, int(0.3 * N), N - N // 2 - int(0.3 * N)),)
            path = simulate_path((game, proto, N), x0, 5.0, seed=5, collect_occupancy=False)
            devs[N] = deviation_vs_ode(path, traj)
        assert devs[1000] < devs[100]
