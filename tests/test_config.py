import dataclasses
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symgame import ConfigError
from symgame.config import _KEYS, parse_config, render_config

EXAMPLES = pathlib.Path(__file__).parent.parent / "docs" / "examples"

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

    def test_a_large_population_count_gives_one_missing_matrix_problem(self):
        # the problem list and message stay the size of the file, not of the declared count
        text = (EXAMPLES / "two_populations.cfg").read_text().replace("populations = 2", "populations = 100000")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert [p for p in err.value.problems if "missing" in p] == [
            "game section: missing 'payoff_matrix_3' (99998 payoff matrices missing)"
        ]
        assert len(str(err.value)) < 1024

    def test_numbered_rate_tables_are_read_in_population_order(self):
        # matrix_10 is the tenth table, not the second
        lines = ["[game]", "type = table-payoff", "populations = 10"]
        lines += [f"payoff_matrix_{p} =\n    0 0\n    0 0" for p in range(1, 11)]
        lines += ["[protocol]", "kind = table"]
        lines += [f"matrix_{p} =\n    1 {p}\n    {p} 1" for p in range(1, 11)]
        config = parse_config("\n".join(lines + ["[run]", "N = 2"]) + "\n")
        assert [M[0, 1] for M in config.protocol_matrices] == list(range(1, 11))

    def test_config_hash_depends_on_text(self):
        a = parse_config(MINIMAL_RPS)
        b = parse_config(MINIMAL_RPS + "\n# trailing comment\n")
        assert a.config_hash != b.config_hash


class TestExampleCorpus:
    def test_all_shipped_examples_validate(self):
        corpus = sorted(EXAMPLES.glob("*.cfg"))
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


VALID = "valid"

# name -> (example, edits, the full problems list in order, or VALID).  Each edit
# (old, new) replaces the first ``old`` in the example; an empty ``old`` appends.
CORPUS = {
    "coordination_table unchanged": ("coordination_table", (), VALID),
    "rps_constant unchanged": ("rps_constant", (), VALID),
    "rps_sum_exponential unchanged": ("rps_sum_exponential", (), VALID),
    "two_populations unchanged": ("two_populations", (), VALID),
    "duplicate key": (
        "rps_constant",
        (("N = 2\n", "N = 2\nN = 3\n"),),
        [
            "syntax: While reading from '<string>' [line 17]: option 'N' in section 'run' already exists",
        ],
    ),
    "unknown section with hint": (
        "rps_constant",
        (("[protocol]", "[protocl]"),),
        [
            "unknown section 'protocl' (did you mean 'protocol'?)",
            "missing required section 'protocol'",
        ],
    ),
    "unknown section without hint": (
        "rps_constant",
        (("", "\n[zzz]\na = 1\n"),),
        ["unknown section 'zzz'"],
    ),
    "missing run section": (
        "coordination_table",
        (("[run]", "[rn]"),),
        ["unknown section 'rn' (did you mean 'run'?)", "missing required section 'run'"],
    ),
    "unknown run key with hint": (
        "rps_constant",
        (("horizon =", "horizn ="),),
        ["section 'run': unknown key 'horizn' (did you mean 'horizon'?)"],
    ),
    "unknown output key": (
        "rps_constant",
        (("directory =", "directry = csv\ndirectory ="),),
        ["section 'output': unknown key 'directry' (did you mean 'directory'?)"],
    ),
    "unknown game type": (
        "rps_constant",
        (("type = linear", "type = quadratic"),),
        ["game section: unknown type 'quadratic'"],
    ),
    "linear without payoff_matrix": (
        "rps_constant",
        (("payoff_matrix =\n    0 -1 1\n    1 0 -1\n    -1 1 0\n", ""),),
        ["game section: linear games need 'payoff_matrix'"],
    ),
    "non-square payoff matrix": (
        "rps_constant",
        (("    -1 1 0\n", ""),),
        ["game section: matrix must be square, got 2x3"],
    ),
    "ragged payoff matrix": (
        "rps_constant",
        (("    1 0 -1\n", "    1 0\n"),),
        ["game section: ragged matrix rows with widths [2, 3]"],
    ),
    "unparsable payoff row": (
        "rps_constant",
        (("    1 0 -1\n", "    1 zero -1\n"),),
        ["game section: cannot parse matrix row '1 zero -1'"],
    ),
    "empty payoff matrix": (
        "rps_constant",
        (("payoff_matrix =\n    0 -1 1\n    1 0 -1\n    -1 1 0\n", "payoff_matrix =\n"),),
        ["game section: empty matrix"],
    ),
    "non-numeric mass": (
        "rps_constant",
        (("mass = 1.0", "mass = heavy"),),
        ["game section (mass): expected a finite number, got 'heavy'"],
    ),
    "infinite mass": (
        "rps_constant",
        (("mass = 1.0", "mass = inf"),),
        ["game section (mass): expected a finite number, got 'inf'"],
    ),
    "table-payoff from a linear file": (
        "rps_constant",
        (("type = linear", "type = table-payoff"),),
        [
            "section 'game': unknown key 'payoff_matrix' (type 'table-payoff' does not read it)",
            "section 'game': unknown key 'mass' (type 'table-payoff' does not read it)",
            "game section: missing 'payoff_matrix_1'",
        ],
    ),
    "linear with numbered payoff matrices": (
        "two_populations",
        (("type = table-payoff", "type = linear"),),
        [
            "section 'game': unknown key 'populations' (type 'linear' does not read it)",
            "section 'game': unknown key 'masses' (type 'linear' does not read it)",
            "section 'game': unknown key 'payoff_matrix_1' (did you mean 'payoff_matrix'?)",
            "section 'game': unknown key 'payoff_matrix_2' (did you mean 'payoff_matrix'?)",
        ],
    ),
    "populations and masses in a linear game": (
        "rps_constant",
        (("mass = 1.0", "mass = 1.0\npopulations = 7\nmasses = 3, 4"),),
        [
            "section 'game': unknown key 'populations' (type 'linear' does not read it)",
            "section 'game': unknown key 'masses' (type 'linear' does not read it)",
        ],
    ),
    "mass and an unnumbered payoff matrix in a table-payoff game": (
        "two_populations",
        (("masses = 1.0, 1.0", "masses = 1.0, 1.0\nmass = 2.0\npayoff_matrix =\n    0 1\n    1 0"),),
        [
            "section 'game': unknown key 'mass' (type 'table-payoff' does not read it)",
            "section 'game': unknown key 'payoff_matrix' (type 'table-payoff' does not read it)",
        ],
    ),
    "eta and a matrix under kind constant": (
        "rps_constant",
        (("c = 1.0", "c = 1.0\neta = 5\nmatrix =\n    0 1 1\n    1 0 1\n    1 1 0"),),
        [
            "section 'protocol': unknown key 'eta' (kind 'constant' does not read it)",
            "section 'protocol': unknown key 'matrix' (kind 'constant' does not read it)",
        ],
    ),
    "c under kind sum_exponential, reported with a bad value": (
        "rps_sum_exponential",
        (("eta = 1.0", "eta = 1.0\nc = 2.0"), ("horizon = 50.0", "horizon = -1")),
        [
            "section 'protocol': unknown key 'c' (kind 'sum_exponential' does not read it)",
            "run section: horizon must be positive, got -1.0",
            "run section: burn_in must lie in [0, horizon), got 5.0",
        ],
    ),
    "non-numeric populations": (
        "two_populations",
        (("populations = 2", "populations = two"),),
        ["game section (populations): expected a finite number, got 'two'"],
    ),
    "fractional populations": (
        "two_populations",
        (("populations = 2", "populations = 2.5"),),
        ["game section (populations): expected a finite number, got '2.5'"],
    ),
    "populations beyond the matrices": (
        "two_populations",
        (("populations = 2", "populations = 3"),),
        ["game section: missing 'payoff_matrix_3'", "game section: 2 masses for 3 populations"],
    ),
    "populations far beyond the matrices": (
        "two_populations",
        (("populations = 2", "populations = 5"), ("masses = 1.0, 1.0\n", "")),
        ["game section: missing 'payoff_matrix_3' (3 payoff matrices missing)"],
    ),
    "first missing payoff matrix before a given one": (
        "two_populations",
        (("payoff_matrix_1 =\n    0 0\n    0 0\n", ""), ("populations = 2", "populations = 3")),
        ["game section: missing 'payoff_matrix_1' (2 payoff matrices missing)", "game section: 2 masses for 3 populations"],
    ),
    "payoff matrix past the population count": (
        "two_populations",
        (("masses = 1.0, 1.0\n", "masses = 1.0, 1.0\npayoff_matrix_3 =\n    0 0\n    0 0\n"),),
        ["section 'game': unknown key 'payoff_matrix_3' (did you mean 'payoff_matrix'?)"],
    ),
    "zero populations with masses": (
        "two_populations",
        (("populations = 2", "populations = 0"),),
        ["game section: populations must be at least 1, got 0"],
    ),
    "zero populations without masses": (
        "two_populations",
        (("populations = 2", "populations = 0"), ("masses = 1.0, 1.0\n", "")),
        ["game section: populations must be at least 1, got 0"],
    ),
    "missing second payoff matrix": (
        "two_populations",
        (("payoff_matrix_2 =\n    0 -1 1\n    1 0 -1\n    -1 1 0\n", ""),),
        ["game section: missing 'payoff_matrix_2'"],
    ),
    "blank masses": ("two_populations", (("masses = 1.0, 1.0", "masses ="),), VALID),
    "too few masses": (
        "two_populations",
        (("masses = 1.0, 1.0", "masses = 1.0"),),
        ["game section: 1 masses for 2 populations"],
    ),
    "non-numeric masses": (
        "two_populations",
        (("masses = 1.0, 1.0", "masses = 1.0, heavy"),),
        ["game section (masses): cannot parse list '1.0, heavy'"],
    ),
    "infinite mass in list": (
        "two_populations",
        (("masses = 1.0, 1.0", "masses = 1.0, inf"),),
        ["game section (masses): expected finite numbers, got '1.0, inf'"],
    ),
    "missing kind": (
        "rps_constant",
        (("kind = constant\n", ""),),
        ["protocol section: missing 'kind'"],
    ),
    "unknown kind": (
        "rps_constant",
        (("kind = constant", "kind = bogus"),),
        ["protocol section: unknown kind 'bogus'"],
    ),
    "numbered matrix with constant kind": (
        "rps_constant",
        (("c = 1.0\n", "c = 1.0\nmatrix_1 =\n    1 1 1\n    1 1 1\n    1 1 1\n"),),
        ["section 'protocol': unknown key 'matrix_1' (did you mean 'matrix'?)"],
    ),
    "non-numeric c": (
        "rps_constant",
        (("c = 1.0", "c = fast"),),
        ["protocol section (c): expected a finite number, got 'fast'"],
    ),
    "explicit support floor with constant": (
        "rps_constant",
        (("c = 1.0", "c = 2.0\nsupport_floor = 0.5"),),
        VALID,
    ),
    "sum_exponential without eta": (
        "rps_sum_exponential",
        (("eta = 1.0\n", ""),),
        ["protocol section: sum_exponential needs 'eta'"],
    ),
    "non-numeric eta": (
        "rps_sum_exponential",
        (("eta = 1.0", "eta = hot"),),
        ["protocol section (eta): expected a finite number, got 'hot'"],
    ),
    "infinite support floor": (
        "rps_sum_exponential",
        (("support_floor = 0.1353352832366127", "support_floor = inf"),),
        ["protocol section (support_floor): expected a finite number, got 'inf'"],
    ),
    "table without matrix": (
        "coordination_table",
        (("matrix =\n    1 2 3\n    2 1 5\n    3 5 1\n", ""),),
        ["protocol section: table protocols need 'matrix'"],
    ),
    "rate table under an unnumbered key": (
        "coordination_table",
        (("\nmatrix =", "\nmatrix_a ="),),
        ["section 'protocol': unknown key 'matrix_a' (did you mean 'matrix'?)"],
    ),
    "rate table of the wrong size": (
        "coordination_table",
        (("matrix =\n    1 2 3\n    2 1 5\n    3 5 1\n", "matrix =\n    1 2\n    2 1\n"),),
        ["protocol section: rate table 1 is 2x2, game has 3 strategies"],
    ),
    "unparsable rate table row": (
        "coordination_table",
        (("    2 1 5\n", "    2 one 5\n"),),
        ["protocol section (matrix): cannot parse matrix row '2 one 5'"],
    ),
    "numbered rate table next to a single one": (
        "coordination_table",
        (("support_floor = 1.0\n", "support_floor = 1.0\nmatrix_1 =\n    1 1 1\n    1 1 1\n    1 1 1\n"),),
        ["section 'protocol': unknown key 'matrix_1' (did you mean 'matrix'?)"],
    ),
    "two rate tables for one population": (
        "coordination_table",
        (
            (
                "matrix =\n    1 2 3\n    2 1 5\n    3 5 1\n",
                "matrix_1 =\n    1 2 3\n    2 1 5\n    3 5 1\n"
                "matrix_2 =\n    1 2 3\n    2 1 5\n    3 5 1\n",
            ),
        ),
        ["protocol section: 2 rate tables for 1 populations"],
    ),
    "numbered rate tables per population": (
        "two_populations",
        (
            (
                "kind = constant\nc = 0.5",
                "kind = table\nmatrix_1 =\n    1 2\n    2 1\nmatrix_2 =\n    1 2 3\n    2 1 5\n    3 5 1",
            ),
        ),
        VALID,
    ),
    "one rate table for two populations of different sizes": (
        "two_populations",
        (("kind = constant\nc = 0.5", "kind = table\nmatrix =\n    1 2 3\n    2 1 5\n    3 5 1"),),
        ["protocol section: rate table 1 is 3x3, game has 2 strategies"],
    ),
    "N of zero": (
        "rps_constant",
        (("\nN = 2\n", "\nN = 0\n"),),
        ["run section: N must be at least 1, got 0"],
    ),
    "non-numeric N": (
        "rps_constant",
        (("\nN = 2\n", "\nN = two\n"),),
        ["run section (N): cannot parse list 'two'"],
    ),
    "blank N": (
        "rps_constant",
        (("\nN = 2\n", "\nN =\n"),),
        ["run section (N): expected at least one value"],
    ),
    "two N for one population": (
        "rps_constant",
        (("\nN = 2\n", "\nN = 2, 3\n"),),
        ["run section: 2 values of N for 1 populations"],
    ),
    "one N per population": ("two_populations", (("N = 2", "N = 2, 3"),), VALID),
    "three N for two populations": (
        "two_populations",
        (("N = 2", "N = 2, 3, 4"),),
        ["run section: 3 values of N for 2 populations"],
    ),
    "negative horizon": (
        "rps_constant",
        (("horizon = 20.0", "horizon = -1"),),
        [
            "run section: horizon must be positive, got -1.0",
            "run section: burn_in must lie in [0, horizon), got -0.1",
        ],
    ),
    "zero dt": (
        "rps_constant",
        (("dt = 0.01", "dt = 0"),),
        ["run section: need 0 < dt <= horizon, got dt=0.0"],
    ),
    "dt beyond the horizon": (
        "rps_constant",
        (("dt = 0.01", "dt = 30"),),
        ["run section: need 0 < dt <= horizon, got dt=30.0"],
    ),
    "burn_in at the horizon": (
        "rps_sum_exponential",
        (("burn_in = 5.0", "burn_in = 50"),),
        ["run section: burn_in must lie in [0, horizon), got 50.0"],
    ),
    "non-numeric burn_in": (
        "rps_sum_exponential",
        (("burn_in = 5.0", "burn_in = early"),),
        ["run section (burn_in): expected a finite number, got 'early'"],
    ),
    "non-numeric seed": (
        "rps_constant",
        (("seeds = 1, 2, 3", "seeds = 1, two"),),
        ["run section (seeds): cannot parse list '1, two'"],
    ),
    "x0 too short": (
        "rps_sum_exponential",
        (("x0 = 0.5, 0.3, 0.2", "x0 = 0.5, 0.5"),),
        ["run section: x0 block 1 has 2 entries, population has 3 strategies"],
    ),
    "non-numeric x0": (
        "rps_sum_exponential",
        (("x0 = 0.5, 0.3, 0.2", "x0 = 0.5, 0.3, zz"),),
        ["run section (x0): cannot parse list '0.5, 0.3, zz'"],
    ),
    "infinite x0": (
        "rps_sum_exponential",
        (("x0 = 0.5, 0.3, 0.2", "x0 = inf, 0, 0"),),
        ["run section (x0): expected finite numbers, got 'inf, 0, 0'"],
    ),
    "x0 with a bad block among two for one population": (
        "rps_sum_exponential",
        (("x0 = 0.5, 0.3, 0.2", "x0 = 0.5, 0.3, 0.2 | 0.5, nan, 0.5"),),
        [
            "run section (x0): expected finite numbers, got ' 0.5, nan, 0.5'",
            "run section: x0 has 2 population blocks, game has 1",
        ],
    ),
    "x0 with one block for two populations": (
        "two_populations",
        (("N = 2", "N = 2\nx0 = 0.5, 0.5"),),
        ["run section: x0 has 1 population blocks, game has 2"],
    ),
    "x0 per population": (
        "two_populations",
        (("N = 2", "N = 2\nx0 = 1, 0 | 0.5, 0.3, 0.2"),),
        VALID,
    ),
    "unknown variant_factor": (
        "rps_constant",
        (("seeds =", "variant_factor = weird\nseeds ="),),
        ["run section: variant_factor must be 'standard' or 'paper', got 'weird'"],
    ),
    "paper orientation": (
        "rps_constant",
        (("seeds =", "variant_orientation = paper\nseeds ="),),
        VALID,
    ),
    "fstar is an unknown key": (
        "rps_constant",
        (("seeds =", "fstar = zero\nseeds ="),),
        ["section 'run': unknown key 'fstar'"],
    ),
    "transform marker": (
        "rps_constant",
        (("", "\n[transform]\nlineage = 3->2\n"),),
        VALID,
    ),
    "transform fstar is an unknown key": (
        "rps_constant",
        (("", "\n[transform]\nlineage = 3->2\nfstar = zero\n"),),
        ["section 'transform': unknown key 'fstar'"],
    ),
    "unknown transform key": (
        "rps_constant",
        (("", "\n[transform]\nlineag = 3->2\n"),),
        ["section 'transform': unknown key 'lineag' (did you mean 'lineage'?)"],
    ),
    "output formats is an unknown key": (
        "rps_constant",
        (("", "formats = csv, report\n"),),
        ["section 'output': unknown key 'formats'"],
    ),
    "negative seed": (
        "rps_constant",
        (("seeds = 1, 2, 3", "seeds = 1, -2"),),
        ["run section (seeds): expected non-negative integers, got '1, -2'"],
    ),
    "repeated seed": (
        "rps_constant",
        (("seeds = 1, 2, 3", "seeds = 3, 1, 3"),),
        ["run section (seeds): expected distinct seeds, got '3, 1, 3'"],
    ),
    "problems across sections": (
        "rps_constant",
        (
            ("kind = constant", "kind = nonsense"),
            ("horizon = 20.0", "horizon = -1"),
            ("    1 0 -1\n", "    1 0\n"),
        ),
        [
            "game section: ragged matrix rows with widths [2, 3]",
            "protocol section: unknown kind 'nonsense'",
            "run section: horizon must be positive, got -1.0",
            "run section: burn_in must lie in [0, horizon), got -0.1",
        ],
    ),

}


def _edited(example: str, edits) -> str:
    text = (EXAMPLES / f"{example}.cfg").read_text()
    for old, new in edits:
        if old:
            assert old in text
            text = text.replace(old, new, 1)
        else:
            text += new
    return text


class TestProblemCorpus:
    @pytest.mark.parametrize("name", list(CORPUS))
    def test_problems(self, name):
        example, edits, expected = CORPUS[name]
        text = _edited(example, edits)
        if expected == VALID:
            parse_config(text)
            return
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.problems == expected

    def test_a_transformed_config_with_the_removed_padding_and_formats_keys_is_refused(self):
        with pytest.raises(ConfigError) as err:
            parse_config(OLD_TRANSFORMED_RPS)
        assert err.value.problems == [
            "section 'run': unknown key 'fstar'",
            "section 'output': unknown key 'formats'",
            "section 'transform': unknown key 'fstar'",
        ]
        kept = "".join(line for line in OLD_TRANSFORMED_RPS.splitlines(True) if not line.startswith(("fstar", "formats")))
        assert parse_config(kept).transform_lineage == ("3->2",)


# transformed_game.cfg of rps_constant as `transform` wrote it while the `fstar` and `formats` keys existed
OLD_TRANSFORMED_RPS = """\
[game]
type = linear
payoff_matrix =
    0 -1 1
    1 0 -1
    -1 1 0
mass = 1

[protocol]
kind = constant
c = 1
support_floor = 1

[run]
N = 2
horizon = 20
dt = 0.01
burn_in = 2
seeds = 1, 2, 3
variant_factor = standard
variant_orientation = standard
fstar = zero

[output]
directory = out/rps_constant
formats = csv, report

[transform]
lineage = 3->2
fstar = zero
"""


def _matrix_lines(draw, n: int) -> str:
    entries = st.floats(-10, 10, allow_nan=False)
    rows = [" ".join(repr(draw(entries)) for _ in range(n)) for _ in range(n)]
    return "".join(f"\n    {row}" for row in rows)


def _list(values) -> str:
    return ", ".join(repr(v) for v in values)


@st.composite
def config_texts(draw) -> str:
    """Valid config text over both game types, all protocol kinds and every optional key."""
    game_type = draw(st.sampled_from(["linear", "table-payoff"]))
    n_pops = 1 if game_type == "linear" else draw(st.integers(1, 12))
    single_table = draw(st.booleans())
    size = st.integers(1, 3)
    sizes = [draw(size)] * n_pops if single_table else [draw(size) for _ in range(n_pops)]
    masses = [draw(st.floats(0.1, 10)) for _ in range(n_pops)]
    lines = ["[game]", f"type = {game_type}"]
    if game_type == "linear":
        lines += [f"payoff_matrix ={_matrix_lines(draw, sizes[0])}", f"mass = {masses[0]!r}"]
    else:
        lines.append(f"populations = {n_pops}")
        if draw(st.booleans()):
            lines.append(f"masses = {_list(masses)}")
        lines += [f"payoff_matrix_{p} ={_matrix_lines(draw, n)}" for p, n in enumerate(sizes, start=1)]

    kind = draw(st.sampled_from(["constant", "sum_exponential", "table"]))
    lines += ["", "[protocol]", f"kind = {kind}"]
    if kind == "constant":
        lines.append(f"c = {draw(st.floats(0.1, 10))!r}")
    elif kind == "sum_exponential":
        lines.append(f"eta = {draw(st.floats(-3, 3))!r}")
    elif single_table:
        lines.append(f"matrix ={_matrix_lines(draw, sizes[0])}")
    else:
        lines += [f"matrix_{p} ={_matrix_lines(draw, n)}" for p, n in enumerate(sizes, start=1)]
    if draw(st.booleans()):
        lines.append(f"support_floor = {draw(st.floats(0, 1))!r}")

    horizon = draw(st.floats(0.01, 100))
    n_values = draw(st.sampled_from([1, n_pops]))  # one N for all, or one per population
    resolutions = draw(st.lists(st.integers(1, 50), min_size=n_values, max_size=n_values))
    lines += ["", "[run]", f"N = {_list(resolutions)}"]
    lines += [f"horizon = {horizon!r}", f"dt = {horizon * draw(st.floats(0.001, 1))!r}"]
    if draw(st.booleans()):
        lines.append(f"burn_in = {horizon * draw(st.floats(0, 0.99))!r}")
    if draw(st.booleans()):
        lines.append(f"seeds = {_list(draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=4, unique=True)))}")
    if draw(st.booleans()):
        blocks = [[draw(st.floats(0, 1)) for _ in range(n)] for n in sizes]
        lines.append("x0 = " + " | ".join(_list(block) for block in blocks))
    for key, choices in (
        ("variant_factor", ["standard", "paper"]),
        ("variant_orientation", ["standard", "paper"]),
    ):
        if draw(st.booleans()):
            lines.append(f"{key} = {draw(st.sampled_from(choices))}")

    if draw(st.booleans()):
        words = st.text("abcdefgh", min_size=1, max_size=6)
        lines += ["", "[output]", f"directory = out/{draw(words)}"]
    if draw(st.booleans()):
        steps = st.text("0123456789->", min_size=1, max_size=5)
        lines += ["", "[transform]", "lineage = " + ", ".join(draw(st.lists(steps, min_size=1, max_size=3)))]
    return "\n".join(lines) + "\n"


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(config_texts())
    def test_render_then_parse_gives_every_field_back(self, text):
        config = parse_config(text)
        again = parse_config(render_config(config, config.transform_lineage))
        for field in dataclasses.fields(config):
            if field.name == "config_hash":
                continue
            before, after = getattr(config, field.name), getattr(again, field.name)
            if field.name in ("payoff_matrices", "protocol_matrices"):
                assert len(before) == len(after)
                assert all(np.array_equal(a, b) for a, b in zip(before, after)), field.name
            else:
                assert before == after, field.name


class TestDocs:
    def test_each_section_table_lists_exactly_its_keys(self):
        # the numbered per-population matrix rows are documented as extras
        documented = {}
        for block in re.split(r"^## ", (EXAMPLES.parent / "config.md").read_text(), flags=re.M):
            heading = re.match(r"`\[(\w+)\]`", block)
            if heading is None:
                continue
            cells = [row.split("|")[1] for row in block.splitlines() if row.startswith("| `")]
            names = {name for cell in cells for name in re.findall(r"`(\w+)`", cell)}
            documented[heading.group(1)] = {n for n in names if not re.fullmatch(r"(payoff_)?matrix_\d+", n)}
        assert documented == {section: set(keys) for section, keys in _KEYS.items()}
