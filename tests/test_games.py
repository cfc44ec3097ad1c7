import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symgame import (
    IntegrationDivergedError,
    PopulationGame,
    ProtocolError,
    RevisionProtocol,
    build_generator,
    constant_protocol,
    custom_protocol,
    decompose,
    integrate_mean_dynamic,
    make_linear_game,
    make_separable_game,
    mean_dynamic_rhs,
    rest_point,
    sample_states,
    simulate_paths,
    sum_exponential_protocol,
    table_protocol,
    validate_hypotheses,
)
from symgame.chain import build_grid
from symgame.cli import main as cli_main
from symgame.games import grid_rates, protocol_tuple

RPS = [[0, -1, 1], [1, 0, -1], [-1, 1, 0]]
EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"


class TestMakeLinearGame:
    def test_rps_barycenter_payoff_is_zero(self):
        game = make_linear_game(RPS, mass=1.0)
        (pi,) = game.payoff_at((np.array([1 / 3, 1 / 3, 1 / 3]),))
        assert np.allclose(pi, 0.0)

    def test_identity_game_reads_state(self):
        game = make_linear_game(np.eye(2))
        (pi,) = game.payoff_at((np.array([1.0, 0.0]),))
        assert pi.tolist() == [1.0, 0.0]

    def test_rps_pure_state_reads_column(self):
        game = make_linear_game(RPS)
        (pi,) = game.payoff_at((np.array([1.0, 0.0, 0.0]),))
        assert pi.tolist() == [0.0, 1.0, -1.0]

    @pytest.mark.parametrize(
        "matrix",
        [np.ones((3, 2)), [[1.0, np.nan], [0.0, 1.0]], [[np.inf, 0], [0, 1]]],
    )
    def test_rejects_bad_matrices(self, matrix):
        with pytest.raises(ValueError):
            make_linear_game(matrix)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_payoff_is_exactly_linear(self, seed):
        game = make_linear_game(RPS)
        rng = np.random.default_rng(seed)
        x, y = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))
        alpha = rng.random()
        mix = alpha * x + (1 - alpha) * y
        (f_mix,) = game.payoff_at((mix / mix.sum(),))
        (f_x,) = game.payoff_at((x,))
        (f_y,) = game.payoff_at((y,))
        assert np.max(np.abs(f_mix - (alpha * f_x + (1 - alpha) * f_y))) < 1e-12


_SUM_EXP = sum_exponential_protocol(1.0, support_floor=math.exp(-2.0))

# malformed states of the one-population RPS game: (parts, the error of every library entry point; x0 as a
# config line and the CLI's stderr, or None where a config cannot say it)
_MALFORMED = {
    "2d_part": (([[0.5, 0.3, 0.2]],), "population 0: state must be a nonempty vector", None),
    "empty_part": (([],), "population 0: state must be a nonempty vector", None),
    "nan": (
        ([0.5, np.nan, 0.5],), "population 0: state has non-finite entries",
        ("0.5, nan, 0.5", "invalid configuration:\n  - run section (x0): expected finite numbers, got '0.5, nan, 0.5'\n"),
    ),
    "inf": (
        ([0.5, np.inf, 0.5],), "population 0: state has non-finite entries",
        ("0.5, inf, 0.5", "invalid configuration:\n  - run section (x0): expected finite numbers, got '0.5, inf, 0.5'\n"),
    ),
    "negative_mass": (
        ([0.501, 0.5, -1e-3],), "population 0: negative mass -0.001",
        ("0.501, 0.5, -1e-3", "population 0: negative mass -0.001\n"),
    ),
    "part_count": (
        ([0.5, 0.3, 0.2], [0.5, 0.5]), "got 2 state parts for 1 populations",
        ("0.5, 0.3, 0.2 | 0.5, 0.5", "invalid configuration:\n  - run section: x0 has 2 population blocks, game has 1\n"),
    ),
    # each part is checked on its own before the parts are counted
    "nan_and_part_count": (([0.5, np.nan, 0.5], [0.5, 0.5]), "population 0: state has non-finite entries", None),
    "shape": (
        ([0.5, 0.5],), "population 0: state shape (2,) != (3,)",
        ("0.5, 0.5", "invalid configuration:\n  - run section: x0 block 1 has 2 entries, population has 3 strategies\n"),
    ),
    "mass_sum": (
        ([0.5, 0.3, 0.3],), "population 0: mass 1.1 != 1.0 beyond tolerance 1e-12",
        ("0.5, 0.3, 0.3", "population 0: mass 1.1 != 1.0 beyond tolerance 1e-12\n"),
    ),
    # within the 1e-9 that the CLI's start and mean_dynamic_rhs once allowed, so simulate ran it
    "mass_sum_1e-11": (
        ([0.33333333333] * 3,), "population 0: mass 0.99999999999 != 1.0 beyond tolerance 1e-12",
        (
            "0.33333333333, 0.33333333333, 0.33333333333",
            "population 0: mass 0.99999999999 != 1.0 beyond tolerance 1e-12\n",
        ),
    ),
}

# every entry point that takes a state from outside; all check the one mass tolerance, MASS_TOL
_STATE_ENTRIES = {
    "require_valid_state": lambda parts: make_linear_game(RPS).require_valid_state(parts),
    "integrate_mean_dynamic": lambda parts: integrate_mean_dynamic(make_linear_game(RPS), _SUM_EXP, parts, 1.0, 0.1),
    "mean_dynamic_rhs": lambda parts: mean_dynamic_rhs(make_linear_game(RPS), _SUM_EXP, parts),
    "embed": lambda parts: decompose(make_linear_game(RPS), _SUM_EXP).embed(parts),
}


class TestSocialState:
    @pytest.mark.parametrize("entry", sorted(_STATE_ENTRIES))
    @pytest.mark.parametrize("row", sorted(_MALFORMED))
    def test_a_malformed_state_raises_the_same_error_at_every_entry(self, row, entry):
        parts, message, _ = _MALFORMED[row]
        with pytest.raises(ValueError) as err:
            _STATE_ENTRIES[entry](tuple(np.array(x, dtype=float) for x in parts))
        assert type(err.value) is ValueError
        assert str(err.value) == message

    @pytest.mark.parametrize("row", sorted(row for row, (_, _, cli) in _MALFORMED.items() if cli))
    def test_a_malformed_x0_fails_the_cli_with_the_same_error(self, row, tmp_path, capsys):
        x0, stderr = _MALFORMED[row][2]
        config = tmp_path / "rps.cfg"
        config.write_text((EXAMPLES / "rps_sum_exponential.cfg").read_text().replace("x0 = 0.5, 0.3, 0.2", f"x0 = {x0}"))
        assert cli_main(["mean-dynamic", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == stderr
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("command", ["simulate", "experiment"])
    @pytest.mark.parametrize("row", ["mass_sum", "mass_sum_1e-11"])
    def test_every_command_that_reads_x0_checks_it_alike(self, row, command, tmp_path, capsys):
        # simulate once checked its start to 1e-9 and ran an x0 that mean-dynamic and experiment refused
        x0, stderr = _MALFORMED[row][2]
        config = tmp_path / "rps.cfg"
        config.write_text((EXAMPLES / "rps_sum_exponential.cfg").read_text().replace("x0 = 0.5, 0.3, 0.2", f"x0 = {x0}"))
        assert cli_main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == stderr
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())

    def test_no_returned_state_can_be_written(self):
        game = make_linear_game(RPS)
        traj = integrate_mean_dynamic(game, _SUM_EXP, ([0.5, 0.3, 0.2],), 1.0, 0.1)
        rows = traj.states.tobytes()
        returned = {
            "barycenter": game.barycenter(),
            "final": traj.final,
            "rest_point_at_the_barycenter": rest_point(game, _SUM_EXP),
            # an asymmetric table: the barycenter moves, so the rest point is a relaxed trajectory's final state
            "rest_point_relaxed": rest_point(
                make_linear_game(np.zeros((3, 3))), table_protocol([[0, 2, 1], [1, 0, 2], [1, 1, 0]])
            ),
            "embed": decompose(game, _SUM_EXP).embed(([0.5, 0.3, 0.2],)),
            "sample_states": (sample_states(game, n_random=3, seed=1)[2],),
        }
        for name, state in returned.items():
            assert type(state) is tuple, name
            for part in state:
                with pytest.raises(ValueError, match="read-only"):
                    part[0] = 0.25
        final = traj.final
        assert not np.shares_memory(final[0], traj.states)
        assert traj.states.tobytes() == rows


class TestPayoffContract:
    @staticmethod
    def _recording_game(seen, vectorized):
        # RPS on population 0 and the identity on population 1, recording what each call receives
        def payoff(parts):
            seen.append((type(parts), [(x.shape, x.flags.writeable) for x in parts]))
            x, y = parts
            return np.matmul(np.array(RPS, dtype=float), x[..., None])[..., 0], y.copy()

        return PopulationGame(masses=(1.0, 1.0), strategy_counts=(3, 2), payoff=payoff, vectorized=vectorized)

    def test_a_vectorized_payoff_receives_a_plain_tuple_of_stacks(self):
        seen = []
        game = self._recording_game(seen, vectorized=True)
        grid_rates(game, _SUM_EXP, build_grid(game, 4))
        assert [(kind, [shape for shape, _ in parts]) for kind, parts in seen] == [(tuple, [(15 * 5, 3), (15 * 5, 2)])]
        seen.clear()
        simulate_paths((game, _SUM_EXP, 20), ((10, 5, 5), (12, 8)), 0.05, [0])
        assert seen and all(kind is tuple for kind, _ in seen)
        assert all(parts[0][0][0] == parts[1][0][0] > 1 for _, parts in seen)  # a tile of states, one per row
        assert all([shape[1:] for shape, _ in parts] == [(3,), (2,)] for _, parts in seen)
        seen.clear()
        decompose(game, _SUM_EXP)  # 1000 sampled states, whatever the protocols
        assert [(kind, [shape for shape, _ in parts]) for kind, parts in seen] == [(tuple, [(1000, 3), (1000, 2)])]

    def test_a_per_state_payoff_receives_read_only_vectors_at_each_rk4_stage(self):
        seen = []
        game = self._recording_game(seen, vectorized=False)
        integrate_mean_dynamic(game, constant_protocol(1.0), ([0.5, 0.3, 0.2], [0.4, 0.6]), 0.3, 0.1)
        assert seen == [(tuple, [((3,), False), ((2,), False)])] * 12


class TestProtocolRates:
    def test_constant_protocol_all_ones(self):
        state = (np.array([0.2, 0.3, 0.5]),)
        rho = constant_protocol(1.0).rates(np.zeros(3), state[0])
        assert np.array_equal(rho, np.ones((3, 3)))

    def test_sum_exponential_zero_temperature(self):
        state = (np.array([0.2, 0.3, 0.5]),)
        rho = sum_exponential_protocol(0.0).rates(np.array([3.0, -1.0, 0.5]), state[0])
        assert np.array_equal(rho, np.ones((3, 3)))

    def test_sum_exponential_values(self):
        state = (np.array([0.2, 0.3, 0.5]),)
        pi = np.array([1.0, 0.0, -1.0])
        rho = sum_exponential_protocol(1.0).rates(pi, state[0])
        e = math.e
        expected = [[e**2, e, 1.0], [e, 1.0, 1 / e], [1.0, 1 / e, e**-2]]
        assert np.allclose(rho, expected, rtol=1e-15)
        assert rho[0, 1] == rho[1, 0] == e
        assert rho[0, 2] == rho[2, 0] == 1.0
        assert rho[1, 2] == rho[2, 1] == 1 / e

    def test_dimension_mismatch(self):
        state = (np.array([0.5, 0.5]),)
        with pytest.raises(ValueError):
            constant_protocol(1.0).rates(np.zeros(3), state[0])

    def test_negative_rate_from_custom_protocol(self):
        bad = custom_protocol(lambda pi, x: -np.ones((len(x), len(x))))
        with pytest.raises(ProtocolError, match="negative"):
            bad.rates(np.zeros(2), np.array([0.5, 0.5]))

    def test_non_finite_rate_from_custom_protocol(self):
        bad = custom_protocol(lambda pi, x: np.full((len(x), len(x)), np.nan))
        with pytest.raises(ProtocolError, match="non-finite"):
            bad.rates(np.zeros(2), np.array([0.5, 0.5]))


class TestValidateHypotheses:
    def test_constant_protocol_report(self):
        game = make_linear_game(RPS)
        report = validate_hypotheses(game, constant_protocol(1.0), build_grid(game, 6))
        assert report.per_population == ((3, 0.0, 1.0, 1.0),)  # strategies, max asymmetry, min rate, floor
        assert report.as_lines()[:2] == ["symmetric: true", "fully_supported: true"]
        assert report.problems() == []
        assert report.exhaustive  # a grid is checked state by state
        assert report.sample_count == 28

    def test_asymmetric_table(self):
        game = make_linear_game(np.zeros((2, 2)))
        proto = table_protocol([[1.0, 2.0], [3.0, 1.0]])
        report = validate_hypotheses(game, proto, build_grid(game, 4))
        assert "symmetric: false" in report.as_lines()
        assert report.per_population[0][1] == 1.0

    def test_sum_exponential_full_support_on_rps(self):
        # payoff sums on the simplex stay above -2, so exp(pi_i + pi_j) >= e^-2
        game = make_linear_game(RPS)
        proto = sum_exponential_protocol(1.0, support_floor=math.exp(-2.0))
        grid = build_grid(game, 40)
        report = validate_hypotheses(game, proto, grid)
        assert "fully_supported: true" in report.as_lines()
        floor = min(
            float(np.min(np.add.outer(pi, pi)))
            for pi in (game.payoff_at((k / 40,))[0] for k in grid.counts)
        )
        assert math.exp(floor) >= math.exp(-2.0)
        assert report.per_population[0][2] >= math.exp(-2.0)

    def test_builtin_symmetric_protocols_are_exactly_symmetric(self):
        game = make_linear_game(RPS)
        states = sample_states(game, n_random=200, seed=3)
        for proto in (constant_protocol(2.5), sum_exponential_protocol(1.7)):
            for row in states:
                rho = proto.rates(game.payoff_at((row,))[0], row)
                assert np.array_equal(rho, rho.T)

    @pytest.mark.parametrize("shape", [(3,), (4, 2), (4, 1, 3)])  # (4, 1, 3): sample tuples of the one part
    def test_sample_states_of_another_shape_are_rejected(self, shape):
        with pytest.raises(ValueError, match=rf"^sample states shape \({', '.join(map(str, shape))},?\) != \(S, 3\)$"):
            validate_hypotheses(make_linear_game(RPS), constant_protocol(1.0), np.full(shape, 0.5))

    def test_random_sampling_size(self):
        game = make_linear_game(RPS)
        states = sample_states(game, n_random=1000, seed=1)
        assert len(states) == 1000
        for row in states[:10]:
            game.require_valid_state((row,))
        assert not validate_hypotheses(game, constant_protocol(1.0), states).exhaustive


class TestMultiPopulation:
    def test_separable_game_payoffs(self):
        game = make_separable_game([np.eye(2), RPS], masses=[1.0, 1.0])
        state = (np.array([0.25, 0.75]), np.array([1 / 3, 1 / 3, 1 / 3]))
        payoffs = game.payoff_at(state)
        assert np.allclose(payoffs[0], [0.25, 0.75])
        assert np.allclose(payoffs[1], 0.0)

    def test_protocol_count_mismatch(self):
        game = make_separable_game([np.eye(2), np.eye(2)])
        with pytest.raises(ValueError, match="protocols"):
            protocol_tuple([constant_protocol(1.0)] * 3, game)


def _rates_like(x, value):
    # one (n, n) matrix for a state, an (S, n, n) stack for a stack of states
    return np.full((*x.shape, x.shape[-1]), value)


# 1e200 out of strategy 2, which x0 leaves empty: finite, and no flow moves it
_HUGE = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [1e200, 1.0, 1.0]])
# -1 out of strategy 2: its weight k_2 * rho_2j at x0 is -0.0, which is not below zero
_FROM_EMPTY = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [-1.0, -1.0, 1.0]])

# (payoff of the state part, or None for RPS; rates of the state part), 1-D or stacked;
# each output is the same at every state, and all but the last are invalid
_FAULTS = {
    "payoff_count": (lambda x: (np.zeros(x.shape), np.zeros(x.shape)), lambda x: _rates_like(x, 1.0)),
    "payoff_shape": (lambda x: (x[..., :2],), lambda x: _rates_like(x, 1.0)),
    "payoff_nan": (lambda x: (np.full(x.shape, np.nan),), lambda x: _rates_like(x, 1.0)),
    "rate_shape": (None, lambda x: np.ones((*x.shape[:-1], 2, 2))),
    "rate_nan": (None, lambda x: _rates_like(x, np.nan)),
    "rate_inf": (None, lambda x: _rates_like(x, np.inf)),
    "rate_negative": (None, lambda x: _rates_like(x, -1.0)),
    "rate_negative_diagonal": (None, lambda x: _rates_like(x, 1.0) - 2.0 * np.eye(3)),
    "rate_negative_from_empty": (None, lambda x: np.broadcast_to(_FROM_EMPTY, (*x.shape, 3))),
    "rate_huge": (None, lambda x: np.broadcast_to(_HUGE, (*x.shape, 3))),
}


def _model(fault, vectorized):
    payoff, rates = _FAULTS[fault]
    game = make_linear_game(RPS) if payoff is None else PopulationGame(
        masses=(1.0,), strategy_counts=(3,), payoff=lambda s: payoff(s[0]), vectorized=vectorized
    )
    return game, RevisionProtocol(kind="custom", rate_fn=lambda pi, x: rates(x), vectorized=vectorized)


_ENTRY_POINTS = {
    "build_generator": lambda game, proto, x0: build_generator(game, proto, build_grid(game, 3)),
    "validate_hypotheses": lambda game, proto, x0: validate_hypotheses(game, proto, sample_states(game, 16)),
    "mean_dynamic_rhs": lambda game, proto, x0: mean_dynamic_rhs(game, proto, x0),
    "integrate_mean_dynamic": lambda game, proto, x0: integrate_mean_dynamic(game, proto, x0, 1.0, 0.1),
    "simulate_paths": lambda game, proto, x0: simulate_paths((game, proto, 2), ((1, 1, 0),), 1.0, [0]),
    "grid_rates": lambda game, proto, x0: grid_rates(game, proto, build_grid(game, 3)),
    "rest_point": lambda game, proto, x0: rest_point(game, proto),
}


class TestErrorContract:
    @pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
    @pytest.mark.parametrize("vectorized", [False, True], ids=["per_state", "vectorized"])
    @pytest.mark.parametrize("fault", [f for f in _FAULTS if f != "rate_huge"])
    def test_every_evaluation_raises_the_validating_error(self, fault, vectorized, entry):
        game, proto = _model(fault, vectorized)
        x0 = (np.array([0.5, 0.5, 0.0]),)
        with pytest.raises(ValueError) as expected:  # ProtocolError is a ValueError
            (pi,) = game.payoff_at(x0)
            proto.rates(pi, x0[0])
        with pytest.raises(expected.type) as got:
            _ENTRY_POINTS[entry](game, proto, x0)
        assert type(got.value) is expected.type
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
    @pytest.mark.parametrize("vectorized", [False, True], ids=["per_state", "vectorized"])
    def test_a_huge_finite_rate_is_no_false_alarm(self, vectorized, entry):
        game, proto = _model("rate_huge", vectorized)
        x0 = (np.array([0.5, 0.5, 0.0]),)
        if entry == "rest_point":  # it starts at the barycenter, where 1e200 moves strategy 2's mass at once
            with pytest.raises(IntegrationDivergedError, match="^integration diverged at step 1 "):
                _ENTRY_POINTS[entry](game, proto, x0)
        else:
            _ENTRY_POINTS[entry](game, proto, x0)
