import numpy as np
import pytest

from symgame import (
    SymgameError,
    build_generator,
    build_grid,
    constant_protocol,
    decompose,
    derived_block,
    exact_stationary,
    invert_3to2,
    make_linear_game,
    make_separable_game,
    sum_exponential_protocol,
    table_protocol,
)

RPS = [[0, -1, 1], [1, 0, -1], [-1, 1, 0]]


def random_symmetric_table(rng, n=3):
    # dyadic-grid entries in [0.1, 10] keep the two-term affine transform
    # formulas exact in binary floating point
    vals = rng.integers(103, 10241, size=(n, n)) / 1024.0
    return np.triu(vals) + np.triu(vals, 1).T


def reduction_block_oracle(R, lead):
    """Independent spelling of one n -> n-1 block straight from the index rules."""
    n = R.shape[0]
    order = [(lead + t) % n for t in range(n)]
    keep, agg = order[: n - 2], order[n - 2 :]
    B = np.zeros((n - 1, n - 1))
    for s in range(n - 2):
        for t in range(n - 2):
            B[s, t] = R[keep[s], keep[t]]
        B[s, n - 2] = R[keep[s], agg[0]] + R[keep[s], agg[1]]
        B[n - 2, s] = 0.5 * (R[agg[0], keep[s]] + R[agg[1], keep[s]])
    B[n - 2, n - 2] = (
        R[agg[0], agg[0]] + R[agg[0], agg[1]] + R[agg[1], agg[0]] + R[agg[1], agg[1]]
    )
    return B


class TestSymmetrize3to2:
    def test_constant_blocks(self):
        game = make_linear_game(RPS)
        tg = decompose(game, constant_protocol(1.0))
        assert tg.arities == (2, 2, 2)
        for i in range(3):
            block = tg.marginal_block(i, np.array([0.4, 0.6]))
            assert block[0, 0] == 1.0  # own-strategy self rate
            assert block[0, 1] == 2.0  # leave the strategy
            assert block[1, 0] == 1.0  # join the strategy
            assert block[1, 1] == 2.0  # churn within the complement

    def test_table_example(self):
        game = make_linear_game(RPS)
        table = np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 5.0], [3.0, 5.0, 1.0]])
        tg = decompose(game, table_protocol(table))
        x = np.array([0.5, 0.5])
        down = [tg.marginal_block(i, x)[0, 1] for i in range(3)]
        up = [tg.marginal_block(i, x)[1, 0] for i in range(3)]
        assert down == [5.0, 7.0, 8.0]
        assert up == [2.5, 3.5, 4.0]

    def test_derived_payoffs_are_zero(self):
        # no derived rate reads a derived payoff, so both derived games return zeros of the derived shapes
        tg = decompose(make_linear_game(RPS), constant_protocol(1.0))
        one = tg.embed((np.array([0.6, 0.3, 0.1]),))
        stack = tuple(np.tile(part, (4, 1)) for part in one)
        dg, _ = tg.as_population_game()
        games = [(dg, range(3))] + [(tg.marginal_game(i)[0], [i]) for i in range(3)]
        for game, members in games:
            for state, shape in ((one, (2,)), (stack, (4, 2))):
                payoffs = game.payoff(tuple(state[i] for i in members))
                assert [p.shape for p in payoffs] == [shape] * len(members)
                assert all(not p.any() for p in payoffs)

    def test_rejects_asymmetric_protocol(self):
        game = make_linear_game(RPS)
        skew = table_protocol([[1.0, 2.0, 1.0], [3.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        with pytest.raises(SymgameError, match="max asymmetry 1"):
            decompose(game, skew)

    def test_embedding_mass_exact_on_dyadic_lattice(self):
        game = make_linear_game(RPS)
        tg = decompose(game, constant_protocol(1.0))
        for N in (2, 4, 8):
            for i in range(N + 1):
                for j in range(N + 1 - i):
                    state = (np.array([i, j, N - i - j]) / N,)
                    for part in tg.embed(state):
                        assert part.sum() == 1.0

    def test_block_diagonal_independence(self):
        # a derived population's rates ignore its siblings' coordinates
        game = make_linear_game(RPS)
        eta = 1.0
        # RPS payoffs lie in [-1, 1], so exp(eta * (pi_i + pi_j)) >= exp(-2 eta)
        tg = decompose(game, sum_exponential_protocol(eta, support_floor=np.exp(-2 * eta)))
        dg, protocols = tg.as_population_game()
        x_own = np.array([0.3, 0.7])
        base = protocols[1].rates(np.zeros(2), x_own)
        assert np.array_equal(base, protocols[1].rates(np.ones(2) * 5.0, x_own))


class TestInvert3to2:
    def test_worked_example(self):
        game = make_linear_game(RPS)
        table = np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 5.0], [3.0, 5.0, 1.0]])
        tg = decompose(game, table_protocol(table))
        recovered = invert_3to2(tg)
        out = recovered.rates(np.zeros(3), np.array([1 / 3, 1 / 3, 1 / 3]))
        # (5 + 7 - 2*4) / 2 = 2 and (5 + 8 - 2*3.5) / 2 = 3
        assert out[0, 1] == 2.0
        assert out[0, 2] == 3.0
        assert np.array_equal(out, table)

    def test_constant_case(self):
        game = make_linear_game(RPS)
        tg = decompose(game, constant_protocol(1.0))
        out = invert_3to2(tg).rates(np.zeros(3), np.full(3, 1 / 3))
        assert np.array_equal(out, np.ones((3, 3)))  # (2 + 2 - 2*1) / 2 = 1

    def test_round_trip_100_random_tables_exact(self):
        game = make_linear_game(RPS)
        rng = np.random.default_rng(2024)
        x = np.array([0.2, 0.5, 0.3])
        pi = np.zeros(3)
        for _ in range(100):
            table = random_symmetric_table(rng)
            tg = decompose(game, table_protocol(table))
            out = invert_3to2(tg).rates(pi, x)
            assert np.array_equal(out, table)

    def test_round_trip_payoff_dependent_protocol(self):
        game = make_linear_game(RPS)
        eta = 1.3
        proto = sum_exponential_protocol(eta, support_floor=np.exp(-2 * eta))
        tg = decompose(game, proto)
        recovered = invert_3to2(tg)
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.dirichlet(np.ones(3))
            pi = game.payoff_at((x,))[0]
            want = proto.rates(pi, x)
            got = recovered.rates(pi, x)
            assert np.max(np.abs(got - want)) < 1e-15

    def test_shape_mismatch(self):
        game = make_linear_game(np.eye(4))
        tg = decompose(game, constant_protocol(1.0), 3)
        with pytest.raises(ValueError, match="2-strategy blocks"):
            invert_3to2(tg)


class TestReduceOnce:
    def test_constant_instantiation_n4(self):
        game = make_linear_game(np.eye(4))
        c = 2.0
        tg = decompose(game, constant_protocol(c), 3)
        assert len(tg.populations) == 4
        assert tg.arities == (3, 3, 3, 3)
        assert sum(tg.arities) == 12
        R = np.full((4, 4), c)
        for pop in tg.populations:
            block = derived_block(pop, R)
            assert np.array_equal(block[:2, :2], np.full((2, 2), c))
            assert np.array_equal(block[:2, 2], [2 * c, 2 * c])
            assert np.array_equal(block[2, :2], [c, c])
            assert block[2, 2] == 4 * c

    def test_matches_index_oracle_n5(self):
        game = make_linear_game(np.eye(5))
        rng = np.random.default_rng(77)
        table = random_symmetric_table(rng, n=5)
        tg = decompose(game, table_protocol(table), 4)
        for lead, pop in enumerate(tg.populations):
            assert np.array_equal(derived_block(pop, table), reduction_block_oracle(table, lead))

    def test_aggregate_members_n5(self):
        # population 1 lumps strategies 4 and 5 (1-based)
        game = make_linear_game(np.eye(5))
        tg = decompose(game, constant_protocol(1.0), 4)
        pop = tg.populations[0]
        assert pop.members[-1] == (3, 4)
        table = random_symmetric_table(np.random.default_rng(3), n=5)
        block = derived_block(pop, table)
        assert block[0, 3] == table[0, 3] + table[0, 4]

    def test_rejects_asymmetric(self):
        game = make_linear_game(np.eye(4))
        skew = np.ones((4, 4))
        skew[0, 1] = 3.0
        with pytest.raises(SymgameError, match="asymmetry"):
            decompose(game, table_protocol(skew), 3)


class TestReduceTo:
    def test_single_stage(self):
        game = make_linear_game(np.eye(4))
        tg = decompose(game, constant_protocol(1.0), 3)
        assert tg.lineage == ("4->3",)
        assert len(tg.populations) == 4
        assert tg.arities == (3, 3, 3, 3)

    def test_five_to_two_lineage(self):
        game = make_linear_game(np.eye(5))
        tg = decompose(game, constant_protocol(1.0), 2)
        assert tg.lineage == ("5->4", "4->3", "3->2")
        assert len(tg.populations) == 5
        assert tg.arities == (2, 2, 2, 2, 2)

    def test_constant_closure_at_every_stage(self):
        c = 1.5
        for n in (4, 5, 6):
            game = make_linear_game(np.eye(n))
            R = np.full((n, n), c)
            for target in range(n - 1, 1, -1):
                tg = decompose(game, constant_protocol(c), target)
                for pop in tg.populations:
                    block = derived_block(pop, R)
                    inner = block[: target - 1, : target - 1]
                    assert np.array_equal(inner, np.full((target - 1, target - 1), c))

    def test_constant_final_stage_matches_direct_3to2(self):
        # reducing to 3 and then splitting equals reducing straight to 2
        c = 2.0
        game5 = make_linear_game(np.eye(5))
        tg2 = decompose(game5, constant_protocol(c), 2)
        R = np.full((5, 5), c)
        for pop in tg2.populations:
            block = derived_block(pop, R)
            assert block[0, 1] == 4 * c  # (n-1) c leave rate
            assert block[1, 0] == c  # join rate stays at c
        # the down/up pair therefore matches the direct 3-strategy result
        game3 = make_linear_game(RPS)
        tg3 = decompose(game3, constant_protocol(c))
        up3 = tg3.marginal_block(0, np.array([0.5, 0.5]))[1, 0]
        up5 = tg2.marginal_block(0, np.array([0.5, 0.5]))[1, 0]
        assert up3 == up5 == c

    def test_target_below_two_errors(self):
        game = make_linear_game(np.eye(4))
        with pytest.raises(ValueError, match="at least 2"):
            decompose(game, constant_protocol(1.0), 1)


class TestDecompose:
    def test_two_strategy_game_passes_through(self):
        game = make_linear_game(np.eye(2))
        tg = decompose(game, table_protocol([[0.5, 1.0], [2.0, 0.5]]))
        assert len(tg.populations) == 1
        assert tg.populations[0].members == ((0,), (1,))
        assert tg.populations[0].labels == ("1", "2")
        assert tg.lineage == ()
        block = tg.marginal_block(0, np.array([0.25, 0.75]))
        assert np.array_equal(block, [[0.5, 1.0], [2.0, 0.5]])

    def test_three_strategy_split_layout(self):
        tg = decompose(make_linear_game(RPS), constant_protocol(1.0))
        assert tg.lineage == ("3->2",)
        assert [pop.members for pop in tg.populations] == [
            ((0,), (1, 2)),
            ((1,), (2, 0)),
            ((2,), (0, 1)),
        ]
        assert [pop.labels for pop in tg.populations] == [("1", "not_1"), ("2", "not_2"), ("3", "not_3")]

    def test_target_at_or_above_arity_passes_through(self):
        game = make_separable_game([np.zeros((2, 2)), np.zeros((3, 3)), np.zeros((4, 4))])
        for target in (4, 5):
            tg = decompose(game, constant_protocol(1.0), target)
            assert tg.arities == (2, 3, 4)
            assert tg.lineage == ("p1:id", "p2:id", "p3:id")
            for pop, n in zip(tg.populations, (2, 3, 4)):
                assert pop.members == tuple((i,) for i in range(n))
                assert pop.labels == tuple(str(i + 1) for i in range(n))
        single = decompose(make_linear_game(RPS), constant_protocol(1.0), 3)
        assert single.lineage == ()
        assert single.populations[0].members == ((0,), (1,), (2,))

    def test_mixed_population_game_partial_target(self):
        game = make_separable_game([np.zeros((2, 2)), np.zeros((4, 4))])
        tg = decompose(game, constant_protocol(1.0), 3)
        assert tg.lineage == ("p1:id", "p2:4->3")
        assert tg.arities == (2, 3, 3, 3, 3)
        assert [pop.base_population for pop in tg.populations] == [0, 1, 1, 1, 1]
        assert tg.populations[1].members == ((0,), (1,), (2, 3))
        assert tg.populations[4].members == ((3,), (0,), (1, 2))
        assert [pop.labels for pop in tg.populations[1::3]] == [("1", "2", "a_1"), ("4", "1", "a_4")]

    def test_symmetry_required_only_where_reduced(self):
        game = make_linear_game(RPS)
        skew = table_protocol([[1.0, 2.0, 1.0], [3.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        tg = decompose(game, skew, 3)
        assert tg.populations[0].members == ((0,), (1,), (2,))
        assert tg.lineage == ()
        with pytest.raises(SymgameError, match="asymmetry"):
            decompose(game, skew, 2)

    def test_mixed_population_game(self):
        game = make_separable_game([np.zeros((2, 2)), np.zeros((3, 3))])
        tg = decompose(game, constant_protocol(1.0))
        assert len(tg.populations) == 4  # one passthrough + three splits
        assert tg.arities == (2, 2, 2, 2)
        assert [pop.base_population for pop in tg.populations] == [0, 1, 1, 1]
        assert tg.lineage == ("p1:id", "p2:3->2")

    def test_aggregated_error_report(self):
        game = make_separable_game([np.zeros((3, 3)), np.zeros((3, 3))])
        skew = np.ones((3, 3))
        skew[0, 1] = 2.0
        protos = [table_protocol(skew), table_protocol(np.zeros((3, 3)))]
        with pytest.raises(SymgameError) as err:
            decompose(game, protos)
        message = str(err.value)
        assert "population 0" in message and "asymmetry" in message
        assert "population 1" in message and "floor" in message

    def test_unsupported_protocol_rejected(self):
        game = make_linear_game(RPS)
        proto = sum_exponential_protocol(1.0)  # no declared floor
        with pytest.raises(SymgameError, match="floor"):
            decompose(game, proto)

    def test_a_floor_above_a_sampled_rate_is_rejected(self):
        # the rates of eta = 1 reach exp(-2) = 0.135 on the simplex, 0.139959 on the 1000 sampled
        # states; the 16 states once sampled for a built-in protocol stayed above 0.2
        proto = sum_exponential_protocol(1.0, support_floor=0.2)
        with pytest.raises(SymgameError) as err:
            decompose(make_linear_game(RPS), proto)
        assert str(err.value) == (
            "decomposition preconditions failed: population 0: sampled rate 0.139959 falls below the floor 0.2"
        )

    def test_joint_chain_is_product_of_marginals(self):
        # derived populations evolve independently: the joint stationary law
        # is the outer product of the per-population birth-death laws
        game = make_linear_game(RPS)
        tg = decompose(game, constant_protocol(1.0))
        dg, protocols = tg.as_population_game()
        joint_chain = build_generator(dg, protocols, build_grid(dg, 2))
        joint = exact_stationary(joint_chain)
        marginal_tables = []
        for i in range(3):
            mg, mp = tg.marginal_game(i)
            mchain = build_generator(mg, mp, build_grid(mg, 2))
            mexact = exact_stationary(mchain)
            marginal_tables.append(mexact.probabilities)
        a, b, c = marginal_tables
        product = np.multiply.outer(np.multiply.outer(a, b), c).ravel()
        assert np.max(np.abs(joint.probabilities - product)) < 1e-12
