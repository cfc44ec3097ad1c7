import numpy as np
import pytest

from symgame import ConfigError
from symgame.config import parse_config, render_config

MINIMAL_RPS = """\
[game]
type = linear
payoff_matrix =
    0 -1 1
    1 0 -1
    -1 1 0

[protocol]
kind = constant
c = 1.0

[run]
N = 2
horizon = 10.0
seeds = 1
"""


MULTI_POPULATION = """\
[game]
type = table-payoff
populations = 2
masses = 1.0, 1.0
payoff_matrix_1 =
    0 0
    0 0
payoff_matrix_2 =
    0 -1 1
    1 0 -1
    -1 1 0

[protocol]
kind = constant
c = 0.5

[run]
N = 3
horizon = 5.0
seeds = 7
"""


class TestParseConfig:
    def test_minimal_config_fills_defaults(self):
        config = parse_config(MINIMAL_RPS)
        assert config.dt == 0.01
        assert config.burn_in == pytest.approx(1.0)  # horizon / 10
        assert config.variant_factor == "standard"
        assert config.variant_orientation == "standard"
        assert config.fstar == "zero"
        assert config.output_directory == "out"
        assert config.masses == [1.0]
        assert config.support_floor == 1.0  # constant protocols imply their own floor

    def test_builds_game_and_protocols(self):
        config = parse_config(MINIMAL_RPS)
        game = config.build_game()
        assert game.strategy_counts == (3,)
        protocols = config.build_protocols(game)
        assert protocols[0].kind == "constant"

    def test_non_square_matrix_names_game_section(self):
        text = MINIMAL_RPS.replace("    -1 1 0\n", "")
        with pytest.raises(ConfigError, match="game section.*square"):
            parse_config(text)

    def test_unknown_section_has_hint(self):
        text = MINIMAL_RPS.replace("[protocol]", "[protocl]")
        with pytest.raises(ConfigError, match="did you mean 'protocol'"):
            parse_config(text)

    def test_unknown_key_has_hint(self):
        text = MINIMAL_RPS.replace("horizon = 10.0", "horizn = 10.0")
        with pytest.raises(ConfigError, match="did you mean 'horizon'"):
            parse_config(text)

    def test_errors_are_collected_not_fail_fast(self):
        text = MINIMAL_RPS.replace("kind = constant", "kind = nonsense").replace(
            "horizon = 10.0", "horizon = -1"
        )
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert len(err.value.problems) >= 2

    def test_table_protocol_shape_checked(self):
        text = MINIMAL_RPS.replace(
            "kind = constant\nc = 1.0",
            "kind = table\nmatrix =\n    1 2\n    2 1",
        )
        with pytest.raises(ConfigError, match="rate table"):
            parse_config(text)

    def test_x0_dimension_checked(self):
        text = MINIMAL_RPS + "x0 = 0.5, 0.5\n"
        with pytest.raises(ConfigError, match="x0"):
            parse_config(text)

    def test_multi_population_game(self):
        config = parse_config(MULTI_POPULATION)
        game = config.build_game()
        assert game.strategy_counts == (2, 3)
        assert config.resolutions == [3, 3]

    def test_bad_scalars_are_reported_together_under_their_keys(self):
        text = MINIMAL_RPS.replace("horizon = 10.0", "horizon = fifty\ndt = nan")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.problems == [
            "run section (horizon): expected a finite number, got 'fifty'",
            "run section (dt): expected a finite number, got 'nan'",
        ]

    def test_infinite_horizon_is_a_config_error(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL_RPS.replace("horizon = 10.0", "horizon = inf"))
        assert err.value.problems == ["run section (horizon): expected a finite number, got 'inf'"]

    def test_bad_population_count_goes_on_with_the_matrices_given(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MULTI_POPULATION.replace("populations = 2", "populations = two"))
        assert err.value.problems == ["game section (populations): expected a finite number, got 'two'"]

    def test_config_hash_depends_on_text(self):
        a = parse_config(MINIMAL_RPS)
        b = parse_config(MINIMAL_RPS + "\n# trailing comment\n")
        assert a.config_hash != b.config_hash


class TestExampleCorpus:
    def test_all_shipped_examples_validate(self):
        import pathlib

        corpus = sorted((pathlib.Path(__file__).parent.parent / "docs" / "examples").glob("*.cfg"))
        assert len(corpus) >= 4
        for path in corpus:
            config = parse_config(path.read_text())
            game = config.build_game()
            config.build_protocols(game)


class TestRenderConfig:
    def test_round_trip(self):
        config = parse_config(MINIMAL_RPS)
        text = render_config(config)
        again = parse_config(text)
        assert np.array_equal(again.payoff_matrices[0], config.payoff_matrices[0])
        assert again.protocol_kind == config.protocol_kind
        assert again.resolutions == config.resolutions
        assert again.seeds == config.seeds

    def test_lineage_section(self):
        config = parse_config(MINIMAL_RPS)
        text = render_config(config, lineage=("3->2",))
        again = parse_config(text)
        assert again.transform_lineage == ("3->2",)
