import math
from unittest import mock

import numpy as np
import pytest

from symgame import (
    IntegrationDivergedError,
    PopulationGame,
    ProtocolError,
    SocialState,
    constant_protocol,
    custom_protocol,
    integrate_mean_dynamic,
    make_linear_game,
    mean_dynamic_rhs,
    rest_point,
    sum_exponential_protocol,
)

RPS = [[0, -1, 1], [1, 0, -1], [-1, 1, 0]]
NEGATIVE_RATES = "protocol 'custom' produced negative rates (min -1.0)"


def closed_form_uniform_switching(x0, t, n=3):
    # xdot_i = 1 - n x_i for unit constant rates solves to exponential decay
    x0 = np.asarray(x0, dtype=float)
    return 1.0 / n + (x0 - 1.0 / n) * math.exp(-n * t)


class TestMeanDynamicRhs:
    def test_pure_state_constant_protocol(self):
        game = make_linear_game(RPS)
        (v,) = mean_dynamic_rhs(game, constant_protocol(1.0), SocialState.single([1, 0, 0]))
        assert np.allclose(v, [-2.0, 1.0, 1.0])

    def test_barycenter_is_rest_point_constant(self):
        game = make_linear_game(np.eye(3))
        (v,) = mean_dynamic_rhs(game, constant_protocol(3.0), game.barycenter())
        assert np.max(np.abs(v)) < 1e-15

    def test_barycenter_is_rest_point_rps_sum_exponential(self):
        game = make_linear_game(RPS)
        (v,) = mean_dynamic_rhs(game, sum_exponential_protocol(1.0), game.barycenter())
        assert np.max(np.abs(v)) < 1e-15

    def test_mass_conservation_at_random_states(self):
        game = make_linear_game(RPS)
        rng = np.random.default_rng(11)
        proto = sum_exponential_protocol(0.7)
        for _ in range(50):
            state = SocialState.single(rng.dirichlet(np.ones(3)))
            (v,) = mean_dynamic_rhs(game, proto, state)
            assert abs(v.sum()) < 1e-12


class TestIntegrate:
    def test_converges_to_barycenter(self):
        game = make_linear_game(RPS)
        traj = integrate_mean_dynamic(
            game, constant_protocol(1.0), SocialState.single([1, 0, 0]), 50.0, 0.01
        )
        assert np.max(np.abs(traj.states[-1] - 1 / 3)) < 1e-6

    def test_matches_closed_form(self):
        game = make_linear_game(RPS)
        traj = integrate_mean_dynamic(
            game, constant_protocol(1.0), SocialState.single([1, 0, 0]), 1.0, 0.01
        )
        expected = closed_form_uniform_switching([1, 0, 0], 1.0)
        assert np.max(np.abs(traj.states[-1] - expected)) < 1e-9

    def test_single_step_trajectory(self):
        game = make_linear_game(RPS)
        traj = integrate_mean_dynamic(
            game, constant_protocol(1.0), game.barycenter(), 0.01, 0.01
        )
        assert len(traj.times) == 2

    def test_rest_point_stays_put(self):
        game = make_linear_game(RPS)
        traj = integrate_mean_dynamic(
            game, constant_protocol(1.0), game.barycenter(), 5.0, 0.01
        )
        assert np.max(np.abs(traj.states - 1 / 3)) < 1e-12

    def test_mass_conserved_over_long_run(self):
        game = make_linear_game(RPS)
        traj = integrate_mean_dynamic(
            game,
            sum_exponential_protocol(1.0),
            SocialState.single([0.7, 0.2, 0.1]),
            100.0,
            0.01,
        )
        assert traj.states.shape[0] == 10_001
        assert np.max(np.abs(traj.states.sum(axis=1) - 1.0)) <= 1e-9

    def test_rk4_observed_order(self):
        game = make_linear_game(RPS)
        proto = constant_protocol(1.0)
        x0 = SocialState.single([1, 0, 0])
        exact = closed_form_uniform_switching([1, 0, 0], 1.0)
        errors = []
        for dt in (0.1, 0.05):
            traj = integrate_mean_dynamic(game, proto, x0, 1.0, dt)
            errors.append(np.max(np.abs(traj.states[-1] - exact)))
        order = math.log2(errors[0] / errors[1])
        assert order >= 3.9

    def test_times_are_arithmetic(self):
        game = make_linear_game(RPS)
        traj = integrate_mean_dynamic(game, constant_protocol(1.0), game.barycenter(), 1.0, 0.01)
        assert np.allclose(np.diff(traj.times), 0.01, atol=1e-12)
        assert traj.times[0] == 0.0

    def test_divergence_raises_with_step(self):
        # stiff rates with a huge step make RK4 blow up immediately
        game = make_linear_game(RPS)
        stiff = custom_protocol(lambda pi, x: 1e6 * np.ones((len(x), len(x))))
        with pytest.raises(IntegrationDivergedError, match="step 1") as err:
            integrate_mean_dynamic(game, stiff, SocialState.single([1, 0, 0]), 1.0, 0.5)
        assert err.value.step == 1

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_overflowing_rate_sums_raise_divergence_with_step(self):
        # every rate is finite, but each row sums to inf: the velocity is -inf,
        # and the next RK4 stage evaluates inf * 0 at the clamped state
        game = make_linear_game(RPS)
        huge = custom_protocol(lambda pi, x: np.full((3, 3), 1e308))
        with pytest.raises(IntegrationDivergedError, match="step 1") as err:
            integrate_mean_dynamic(game, huge, SocialState.single([0.5, 0.3, 0.2]), 1.0, 0.1)
        assert err.value.step == 1

    def test_nan_step_raises_divergence_with_step(self, monkeypatch):
        from symgame import dynamics

        monkeypatch.setattr(dynamics, "_velocity", lambda game, protocols, spans, x: np.full(3, np.nan))
        game = make_linear_game(RPS)
        with pytest.raises(IntegrationDivergedError, match=r"step 1 \(population 0: max \|x\| = nan\)"):
            integrate_mean_dynamic(game, constant_protocol(1.0), game.barycenter(), 1.0, 0.1)

    @pytest.mark.parametrize(
        "payoff,rate_fn,error,message",
        [
            (None, lambda pi, x: -np.ones((3, 3)), ProtocolError,
             NEGATIVE_RATES),
            (None, lambda pi, x: np.full((3, 3), np.nan), ProtocolError,
             "protocol 'custom' produced non-finite rates"),
            # valid at x0, negative once strategy 1 falls below half the mass
            (None, lambda pi, x: np.ones((3, 3)) if x[0] >= 0.5 else -np.ones((3, 3)),
             ProtocolError, NEGATIVE_RATES),
            (lambda s: (np.zeros(2),), lambda pi, x: np.ones((3, 3)), ValueError,
             "population 0: payoff shape (2,) != (3,)"),
            (lambda s: (np.full(3, np.nan),), lambda pi, x: np.ones((3, 3)), ValueError,
             "population 0: payoff has non-finite entries"),
        ],
    )
    def test_invalid_payoff_or_rates_raise_precise_error(self, payoff, rate_fn, error, message):
        game = make_linear_game(RPS)
        if payoff is not None:
            game = PopulationGame(masses=(1.0,), strategy_counts=(3,), payoff=payoff)
        x0 = SocialState.single([0.7, 0.2, 0.1])
        with pytest.raises(error) as err:
            integrate_mean_dynamic(game, custom_protocol(rate_fn), x0, 10.0, 0.01)
        assert str(err.value) == message

    def test_bad_horizon_args(self):
        game = make_linear_game(RPS)
        with pytest.raises(ValueError):
            integrate_mean_dynamic(game, constant_protocol(1.0), game.barycenter(), -1.0, 0.01)
        with pytest.raises(ValueError):
            integrate_mean_dynamic(game, constant_protocol(1.0), game.barycenter(), 1.0, 2.0)
        with pytest.raises(ValueError, match="integer multiple"):
            integrate_mean_dynamic(game, constant_protocol(1.0), game.barycenter(), 1.0, 0.3)

    @pytest.mark.parametrize(
        "horizon, dt, message",
        [
            (math.inf, 0.01, "horizon must be positive and finite, got inf"),
            (math.nan, 0.01, "horizon must be positive and finite, got nan"),
            (1.0, math.nan, "need 0 < dt <= horizon, got dt=nan, horizon=1.0"),
            (1.0, math.inf, "need 0 < dt <= horizon, got dt=inf, horizon=1.0"),
        ],
    )
    def test_non_finite_horizon_or_dt_raises_before_any_step(self, horizon, dt, message, monkeypatch):
        # an infinite horizon once overflowed in the step count, and dt = nan
        # failed to convert it; neither message named the argument
        from symgame import dynamics

        monkeypatch.setattr(dynamics, "_velocity", mock.Mock(side_effect=AssertionError("a step ran")))
        game = make_linear_game(RPS)
        with pytest.raises(ValueError) as err:
            integrate_mean_dynamic(game, constant_protocol(1.0), game.barycenter(), horizon, dt)
        assert str(err.value) == message

    def test_csv_row_count(self):
        game = make_linear_game(RPS)
        traj = integrate_mean_dynamic(game, constant_protocol(1.0), game.barycenter(), 1.0, 0.01)
        lines = traj.to_csv().strip().split("\n")
        assert lines[0] == "t,x_1,x_2,x_3"
        assert len(lines) == 102  # header + 101 states


class TestRestPoint:
    @pytest.mark.parametrize(
        "matrix,proto",
        [
            (RPS, constant_protocol(1.0)),
            (RPS, sum_exponential_protocol(2.0)),
            (np.eye(3), sum_exponential_protocol(0.5)),
        ],
    )
    def test_certificate(self, matrix, proto):
        game = make_linear_game(matrix)
        r = rest_point(game, proto)
        (v,) = mean_dynamic_rhs(game, proto, r)
        assert np.max(np.abs(v)) <= 1e-10
