import math

import numpy as np
import pytest
from scipy.stats import binom

from symgame import (
    BirthDeathSpec,
    EmptySupportError,
    StationaryTable,
    SymgameError,
    birth_death_weights,
    build_generator,
    compare,
    constant_protocol,
    decompose,
    exact_stationary,
    make_linear_game,
    marginal_from_exact,
    product_form_joint,
    specs_from_transform,
    sum_exponential_protocol,
    table_protocol,
)
from symgame.chain import build_grid

RPS = [[0, -1, 1], [1, 0, -1], [-1, 1, 0]]


def flat_spec(up, down, N, **kw):
    return BirthDeathSpec(
        population_index=0, size=N, up=np.full(N + 1, up), down=np.full(N + 1, down), **kw
    )


class TestBirthDeathWeights:
    def test_flat_rates_small_chain(self):
        result = birth_death_weights(flat_spec(1.0, 2.0, 2))
        assert result.weights.tolist() == [1.0, 1.0, 0.25]
        assert not result.degenerate
        assert np.allclose(result.normalized(), [4 / 9, 4 / 9, 1 / 9], atol=1e-15)

    def test_flat_rates_against_exact_chain(self):
        # oracle: the 3-state generator with the same up/down rates
        game = make_linear_game(np.zeros((2, 2)))
        proto = table_protocol([[0.0, 2.0], [1.0, 0.0]])
        chain = build_generator(game, proto, build_grid(game, 2))
        exact = exact_stationary(chain)
        w = birth_death_weights(flat_spec(1.0, 2.0, 2)).normalized()
        probs = exact.probabilities[chain.grid.ranks([(k, 2 - k) for k in range(3)])]
        assert np.max(np.abs(w - probs)) < 1e-14

    def test_constant_transformed_population_is_binomial(self):
        game = make_linear_game(RPS)
        tg = decompose(game, constant_protocol(1.0))
        (spec, *_) = specs_from_transform(tg, 6)
        w = birth_death_weights(spec).normalized()
        assert 0.5 * np.abs(w - binom.pmf(np.arange(7), 6, 1 / 3)).sum() <= 1e-12

    def test_matches_exact_transformed_chains(self):
        game = make_linear_game(RPS)
        proto = sum_exponential_protocol(1.0, support_floor=math.exp(-2.0))
        tg = decompose(game, proto)
        for N in (2, 7, 15):
            for i, spec in enumerate(specs_from_transform(tg, N)):
                w = birth_death_weights(spec).normalized()
                mg, mp = tg.marginal_game(i)
                chain = build_generator(mg, mp, build_grid(mg, N))
                exact = exact_stationary(chain)
                probs = exact.probabilities[chain.grid.ranks([(k, N - k) for k in range(N + 1)])]
                assert 0.5 * np.abs(w - probs).sum() <= 1e-10

    def test_paper_factor_degenerates_at_n2(self):
        result = birth_death_weights(flat_spec(1.0, 2.0, 2, factor_variant="paper"))
        assert result.weights[0] == 1.0
        assert result.weights[1] == 0.0
        assert result.weights[2] == 0.0
        assert result.degenerate

    def test_paper_factor_zeroes_top_counts(self):
        result = birth_death_weights(flat_spec(1.0, 1.0, 6, factor_variant="paper"))
        assert result.degenerate
        assert result.weights[5] == result.weights[6] == 0.0
        assert np.all(result.weights[:5] > 0)

    def test_paper_orientation_flips_ratio(self):
        std = birth_death_weights(flat_spec(1.0, 2.0, 4))
        flipped = birth_death_weights(flat_spec(1.0, 2.0, 4, orientation_variant="paper"))
        # flat rates: ratio inverts from 1/2 to 2
        assert flipped.weights[1] / flipped.weights[0] == 4 * 2.0
        assert std.weights[1] / std.weights[0] == 4 * 0.5

    def test_rate_arrays_cover_counts_zero_to_n(self):
        with pytest.raises(ValueError, match="down rates have shape"):
            BirthDeathSpec(population_index=0, size=2, up=np.ones(3), down=np.ones(2))

    def test_nonpositive_rate_errors(self):
        with pytest.raises(SymgameError, match="nonpositive"):
            birth_death_weights(flat_spec(0.0, 1.0, 3))
        with pytest.raises(SymgameError, match="nonpositive"):
            birth_death_weights(flat_spec(1.0, -2.0, 3))


class TestProductFormJoint:
    def test_constant_n3_hand_enumeration(self):
        game = make_linear_game(RPS)
        grid = build_grid(game, 2)
        marginal = binom.pmf(np.arange(3), 2, 1 / 3)
        table = product_form_joint([marginal] * 3, grid)
        assert table.provenance == "predicted-product-form"
        for ordinal in range(len(grid)):
            counts = grid.state(ordinal)[0]
            expected = 4 / 15 if max(counts) == 1 else 1 / 15
            assert table.probabilities[ordinal] == pytest.approx(expected, abs=1e-12)

    def test_single_two_strategy_population_reindexes_marginal(self):
        game = make_linear_game(np.zeros((2, 2)))
        grid = build_grid(game, 4)
        marginal = binom.pmf(np.arange(5), 4, 0.3)
        table = product_form_joint([marginal], grid)
        probs = table.probabilities[grid.ranks([(k, 4 - k) for k in range(5)])]
        assert np.max(np.abs(probs - marginal)) < 1e-15

    def test_empty_support_error(self):
        game = make_linear_game(RPS)
        grid = build_grid(game, 2)
        delta0 = np.array([1.0, 0.0, 0.0])
        with pytest.raises(EmptySupportError):
            product_form_joint([delta0] * 3, grid)

    def test_inconsistent_sizes_error(self):
        game = make_linear_game(RPS)
        grid = build_grid(game, 2)
        with pytest.raises(ValueError, match="entries"):
            product_form_joint([np.ones(3) / 3, np.ones(4) / 4, np.ones(3) / 3], grid)

    def test_wrong_marginal_count(self):
        game = make_linear_game(RPS)
        grid = build_grid(game, 2)
        with pytest.raises(ValueError, match="marginals"):
            product_form_joint([np.ones(3) / 3] * 2, grid)

    def test_unconditioned_product_projects_back(self):
        # 2-strategy populations are not conditioned: the joint is the plain
        # product of their marginals and projects back onto each of them
        from symgame import make_separable_game

        rng = np.random.default_rng(9)
        marginals = [rng.dirichlet(np.ones(5)) for _ in range(3)]
        grid = build_grid(make_separable_game([np.zeros((2, 2))] * 3), 4)
        table = product_form_joint(marginals, grid)
        for p in range(3):
            projected = np.bincount(
                grid.counts[:, grid.offsets[p]], weights=table.probabilities, minlength=5
            )
            assert np.max(np.abs(projected - marginals[p])) < 1e-12

    def test_multi_population_outer_product(self):
        from symgame import make_separable_game

        game = make_separable_game([np.zeros((2, 2)), np.zeros((3, 3))])
        grid = build_grid(game, 2)
        m2 = binom.pmf(np.arange(3), 2, 0.5)
        m3 = binom.pmf(np.arange(3), 2, 1 / 3)
        table = product_form_joint([m2, m3, m3, m3], grid)
        assert abs(table.probabilities.sum() - 1.0) < 1e-12
        # block structure: P(pop1 state) factorizes
        probs = table.probabilities.reshape(3, 6)
        pop1 = probs.sum(axis=1)
        assert np.max(np.abs(pop1 - m2)) < 1e-12


class TestCompare:
    def _uniform_table(self, grid):
        n = len(grid)
        return StationaryTable(grid, np.full(n, 1 / n), "exact")

    def test_identical_tables(self):
        game = make_linear_game(RPS)
        grid = build_grid(game, 2)
        p = self._uniform_table(grid)
        metrics = compare(p, p)
        assert metrics.tv == 0.0 and metrics.kl == 0.0 and metrics.max_abs == 0.0

    def test_disjoint_point_masses(self):
        game = make_linear_game(RPS)
        grid = build_grid(game, 2)
        a = np.zeros(6)
        a[0] = 1.0
        b = np.zeros(6)
        b[5] = 1.0
        pa = StationaryTable(grid, a, "exact")
        pb = StationaryTable(grid, b, "exact")
        metrics = compare(pa, pb)
        assert metrics.tv == 1.0
        assert math.isinf(metrics.kl)
        assert metrics.max_abs == 1.0

    def test_symmetry_and_range(self):
        game = make_linear_game(RPS)
        grid = build_grid(game, 3)
        rng = np.random.default_rng(4)
        p = StationaryTable(grid, rng.dirichlet(np.ones(len(grid))), "exact")
        q = StationaryTable(grid, rng.dirichlet(np.ones(len(grid))), "exact")
        ab, ba = compare(p, q), compare(q, p)
        assert ab.tv == ba.tv
        assert ab.max_abs == ba.max_abs
        assert 0.0 <= ab.tv <= 1.0

    def test_grid_mismatch(self):
        game = make_linear_game(RPS)
        p = self._uniform_table(build_grid(game, 2))
        q = self._uniform_table(build_grid(game, 3))
        with pytest.raises(ValueError, match="grids"):
            compare(p, q)


class TestMarginalFromExact:
    def test_constant_marginals_are_binomial(self):
        game = make_linear_game(RPS)
        chain = build_generator(game, constant_protocol(1.0), build_grid(game, 4))
        exact = exact_stationary(chain)
        for i in range(3):
            marg = marginal_from_exact(exact, i)
            assert 0.5 * np.abs(marg - binom.pmf(np.arange(5), 4, 1 / 3)).sum() <= 1e-12
            assert abs(marg.sum() - 1.0) < 1e-12

    def test_two_strategy_identity_projection(self):
        game = make_linear_game(np.zeros((2, 2)))
        chain = build_generator(game, constant_protocol(1.0), build_grid(game, 5))
        exact = exact_stationary(chain)
        marg = marginal_from_exact(exact, 0)
        probs = exact.probabilities[chain.grid.ranks([(k, 5 - k) for k in range(6)])]
        assert np.array_equal(marg, probs)

    def test_point_mass(self):
        game = make_linear_game(RPS)
        grid = build_grid(game, 3)
        probs = np.zeros(len(grid))
        probs[grid.ranks([3, 0, 0])] = 1.0
        table = StationaryTable(grid, probs, "exact")
        marg = marginal_from_exact(table, 0)
        assert marg.tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_index_out_of_range(self):
        game = make_linear_game(RPS)
        chain = build_generator(game, constant_protocol(1.0), build_grid(game, 2))
        exact = exact_stationary(chain)
        with pytest.raises(IndexError):
            marginal_from_exact(exact, 3)

    def test_requires_exact_tag(self):
        game = make_linear_game(RPS)
        grid = build_grid(game, 2)
        table = StationaryTable(grid, np.full(6, 1 / 6), "empirical")
        with pytest.raises(ValueError, match="exact"):
            marginal_from_exact(table, 0)
