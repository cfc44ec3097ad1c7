import os
import pathlib
import subprocess
import sys

import pytest

from symgame.cli import main

ROOT = pathlib.Path(__file__).parent.parent

RPS_CONSTANT = """\
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
horizon = 20.0
dt = 0.01
seeds = 1, 2
"""

ASYMMETRIC_TABLE = """\
[game]
type = linear
payoff_matrix =
    0 0 0
    0 0 0
    0 0 0

[protocol]
kind = table
matrix =
    1 2 1
    3 1 1
    1 1 1

[run]
N = 2
horizon = 1.0
seeds = 1
"""

# mass 0.5 at N = 3 is 1.5 agents: no lattice exists
HALF_AGENT = RPS_CONSTANT.replace("type = linear", "type = linear\nmass = 0.5").replace(
    "N = 2", "N = 3"
).replace("horizon = 20.0", "horizon = 1.0")


@pytest.fixture
def rps_config(tmp_path):
    path = tmp_path / "rps.cfg"
    path.write_text(RPS_CONSTANT)
    return path


def run(command, config_path, out_dir, *extra):
    return main([command, "--config", str(config_path), "--out", str(out_dir), *extra])


class TestCommands:
    def test_validate_ok(self, rps_config, tmp_path):
        out = tmp_path / "out"
        assert run("validate", rps_config, out) == 0
        report = (out / "validate_report.txt").read_text()
        assert "symmetric: true" in report
        assert "fully_supported: true" in report

    def test_validate_asymmetric_fails_and_names_asymmetry(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text(ASYMMETRIC_TABLE)
        out = tmp_path / "out"
        assert run("validate", config, out) == 1
        report = (out / "validate_report.txt").read_text()
        assert "symmetric: false" in report
        assert "max_asymmetry: 1" in report

    def test_mean_dynamic_row_count(self, rps_config, tmp_path):
        config = tmp_path / "short.cfg"
        config.write_text(RPS_CONSTANT.replace("horizon = 20.0", "horizon = 1.0"))
        out = tmp_path / "out"
        assert run("mean-dynamic", config, out) == 0
        lines = (out / "trajectory.csv").read_text().strip().split("\n")
        data = [l for l in lines if not l.startswith("#")]
        assert data[0].startswith("t,")
        assert len(data) == 102  # header + 101 rows

    def test_simulate_writes_paths_and_occupancy(self, rps_config, tmp_path):
        out = tmp_path / "out"
        assert run("simulate", rps_config, out) == 0
        for seed in (1, 2):
            assert (out / f"path_{seed}.csv").exists()
            assert (out / f"occupancy_{seed}.csv").exists()
        body = (out / "path_1.csv").read_text()
        assert "# seed: 1" in body

    def test_exact_stationary_table(self, rps_config, tmp_path):
        out = tmp_path / "out"
        assert run("exact-stationary", rps_config, out) == 0
        text = (out / "exact_stationary.csv").read_text()
        assert "state_counts,probability,provenance" in text
        assert ",exact" in text

    def test_transform_and_feedback(self, rps_config, tmp_path):
        out = tmp_path / "out"
        assert run("transform", rps_config, out) == 0
        transformed = out / "transformed_game.cfg"
        assert "lineage = 3->2" in transformed.read_text()
        # the serialized transformed game feeds back into chain commands
        out2 = tmp_path / "out2"
        assert run("exact-stationary", transformed, out2) == 0
        rows = [
            l
            for l in (out2 / "exact_stationary.csv").read_text().strip().split("\n")
            if "|" in l
        ]
        assert len(rows) == 27  # (N+1)^3 product grid of the three derived populations

    def test_predict_and_compare(self, rps_config, tmp_path):
        out = tmp_path / "out"
        assert run("predict", rps_config, out) == 0
        assert (out / "predicted.csv").exists()
        assert run("compare", rps_config, out) == 0
        report = (out / "compare_report.txt").read_text()
        assert "tv_predicted_vs_exact: 0.1333333333333333" in report

    def test_experiment_report_gap(self, rps_config, tmp_path):
        out = tmp_path / "out"
        assert run("experiment", rps_config, out) == 0
        report = (out / "experiment_report.txt").read_text()
        tv_line = [l for l in report.split("\n") if l.startswith("tv_predicted_vs_exact")][0]
        assert abs(float(tv_line.split(":")[1]) - 2 / 15) < 1e-6
        assert "original_max_imbalance: " in report
        assert "derived_max_imbalance" not in report

    def test_experiment_exit_ignores_gap_size(self, tmp_path):
        # a protocol with a visible prediction gap still completes with status 0
        config = tmp_path / "se.cfg"
        config.write_text(
            RPS_CONSTANT.replace(
                "kind = constant\nc = 1.0",
                "kind = sum_exponential\neta = 2.0\nsupport_floor = 0.000335",
            ).replace("N = 2", "N = 4")
        )
        out = tmp_path / "out"
        assert run("experiment", config, out) == 0
        report = (out / "experiment_report.txt").read_text()
        imbalance = [l for l in report.split("\n") if l.startswith("original_max_imbalance")][0]
        assert float(imbalance.split(":")[1]) > 1e-6

    def test_reproducibility_byte_identical(self, rps_config, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run("experiment", rps_config, out_a) == 0
        assert run("experiment", rps_config, out_b) == 0
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_seed_override_changes_paths(self, rps_config, tmp_path):
        out = tmp_path / "out"
        assert run("simulate", rps_config, out, "--seed-override", "9") == 0
        assert (out / "path_9.csv").exists()
        assert not (out / "path_1.csv").exists()

    def test_a_seed_in_a_batch_writes_the_files_of_its_run_alone(self, rps_config, tmp_path):
        assert run("simulate", rps_config, tmp_path / "batch", "--seed-override", "1,2,3") == 0
        assert run("simulate", rps_config, tmp_path / "alone", "--seed-override", "2") == 0
        for name in ("path_2.csv", "occupancy_2.csv"):
            assert (tmp_path / "batch" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()

    def test_paper_variant_fails_with_empty_support(self, rps_config, tmp_path, capsys):
        out = tmp_path / "out"
        code = run("predict", rps_config, out, "--variant-factor", "paper")
        assert code == 1
        assert "no admissible state" in capsys.readouterr().err
        assert not (out / "predicted.csv").exists()  # partial artifacts removed

    def test_bad_config_lists_problems(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text(RPS_CONSTANT.replace("[protocol]", "[protocl]"))
        assert main(["validate", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "did you mean 'protocol'" in err

    @pytest.mark.parametrize(
        "command", ["validate", "simulate", "exact-stationary", "predict", "compare", "experiment"]
    )
    def test_non_integer_agent_count_is_rejected(self, command, tmp_path, capsys):
        # every command that needs the lattice refuses the config instead of rounding it
        config = tmp_path / "half.cfg"
        config.write_text(HALF_AGENT)
        out = tmp_path / "out"
        assert run(command, config, out) == 1
        assert "not an integer agent count" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_non_integer_agent_count_keeps_mean_dynamic(self, tmp_path):
        config = tmp_path / "half.cfg"
        config.write_text(HALF_AGENT)
        assert run("mean-dynamic", config, tmp_path / "out") == 0

    @pytest.mark.parametrize(
        "example, old, new, key",
        [
            ("rps_constant", "\nN = 2\n", "\nN =\n", "run section (N)"),
            ("two_populations", "masses = 1.0, 1.0", "masses = 1.0, inf", "game section (masses)"),
        ],
    )
    def test_bad_values_are_config_errors_under_their_key(self, example, old, new, key, tmp_path):
        # a blank N and an infinite mass once ended the process with a traceback
        config = tmp_path / "bad.cfg"
        config.write_text((ROOT / "docs" / "examples" / f"{example}.cfg").read_text().replace(old, new, 1))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-m", "symgame.cli", "validate", "--config", str(config), "--out", str(tmp_path)],
            capture_output=True, text=True, env=env,
        )
        assert done.returncode == 1
        assert key in done.stderr
        assert "Traceback" not in done.stderr

    def test_trajectory_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # the mean dynamic's velocity goes through BLAS gemv
        config = ROOT / "docs" / "examples" / "rps_sum_exponential.cfg"
        written = []
        for threads in ("1", "2"):
            env = {
                **os.environ,
                "OPENBLAS_NUM_THREADS": threads,
                "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]),
            }
            out = tmp_path / f"threads_{threads}"
            subprocess.run(
                [sys.executable, "-m", "symgame.cli", "mean-dynamic", "--config", str(config), "--out", str(out)],
                check=True, capture_output=True, env=env,
            )
            written.append((out / "trajectory.csv").read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize(
        "text, extra, key",
        [
            (RPS_CONSTANT.replace("seeds = 1, 2", "seeds = 1, -2"), (), "run section (seeds)"),
            (RPS_CONSTANT, ("--seed-override=-1",), "--seed-override (seeds)"),
        ],
    )
    def test_a_negative_seed_is_a_config_error_before_any_work(self, text, extra, key, tmp_path, capsys, monkeypatch):
        # numpy's SeedSequence refused it only after the whole experiment had run, naming no key
        def no_run(*args, **kwargs):
            raise AssertionError("the command ran")

        monkeypatch.setattr("symgame.cli.run_command", no_run)
        config = tmp_path / "seeds.cfg"
        config.write_text(text)
        out = tmp_path / "out"
        assert run("experiment", config, out, *extra) == 1
        assert f"{key}: expected non-negative integers" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, extra, key",
        [
            (RPS_CONSTANT.replace("seeds = 1, 2", "seeds = 3, 3"), (), "run section (seeds)"),
            (RPS_CONSTANT, ("--seed-override", "3,3"), "--seed-override (seeds)"),
        ],
    )
    def test_a_repeated_seed_is_a_config_error_before_any_work(self, text, extra, key, tmp_path, capsys, monkeypatch):
        # it once simulated the same path twice and wrote path_3.csv twice
        def no_run(*args, **kwargs):
            raise AssertionError("the command ran")

        monkeypatch.setattr("symgame.cli.run_command", no_run)
        config = tmp_path / "seeds.cfg"
        config.write_text(text)
        out = tmp_path / "out"
        assert run("simulate", config, out, *extra) == 1
        assert f"{key}: expected distinct seeds, got '3" in capsys.readouterr().err
        assert not out.exists()

    def test_the_removed_padding_flag_is_an_argparse_error(self, rps_config, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("experiment", rps_config, tmp_path / "out", "--fstar", "zero")
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path / "nope.cfg")]) == 2
        assert "cannot read config" in capsys.readouterr().err


class TestRateEvaluations:
    def test_experiment_evaluates_rates_once_per_lattice_state(self, tmp_path, monkeypatch):
        # the hypothesis check and the generator share one evaluation per main-grid
        # state.  The stages that evaluate off the lattice or along a path
        # (decomposition samples, RK4, birth-death rates, simulated paths) are
        # not counted here; the batch of paths evaluates once per distinct state
        # that any of its paths visits, and the birth-death rates of each derived
        # population take one stacked block call over the counts 0..N.
        import numpy as np

        from symgame import cli, custom_protocol
        from symgame.config import ExperimentConfig
        from symgame.transform import TransformedGame

        calls = {"count": 0, "all": 0, "paused": 0}

        def rate_fn(pi, x):
            calls["all"] += 1
            if not calls["paused"]:
                calls["count"] += 1
            u = np.exp(pi)
            return np.outer(u, u)

        protocol = custom_protocol(rate_fn, support_floor=np.exp(-2.0), symmetric=True)
        monkeypatch.setattr(ExperimentConfig, "build_protocols", lambda self, game: (protocol,))

        def paused(fn):
            def wrapper(*args, **kwargs):
                calls["paused"] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    calls["paused"] -= 1

            return wrapper

        for name in ("decompose", "integrate_mean_dynamic"):
            monkeypatch.setattr(cli, name, paused(getattr(cli, name)))
        blocks = []  # derived population and stack height of each block call for birth-death rates
        marginal_block = TransformedGame.marginal_block
        specs_from_transform = paused(cli.specs_from_transform)

        def counted_block(self, index, part):
            blocks.append((index, len(part)))
            return marginal_block(self, index, part)

        def counted_specs(*args, **kwargs):
            with monkeypatch.context() as patch:
                patch.setattr(TransformedGame, "marginal_block", counted_block)
                return specs_from_transform(*args, **kwargs)

        monkeypatch.setattr(cli, "specs_from_transform", counted_specs)
        batches = []
        simulate_paths = paused(cli.chain_mod.simulate_paths)

        def counted_paths(*args, **kwargs):
            start = calls["all"]
            paths = simulate_paths(*args, **kwargs)
            visited = {tuple(row) for path in paths for row in path.counts.tolist()}
            batches.append((calls["all"] - start, [len(path.times) - 1 for path in paths], len(visited)))
            return paths

        monkeypatch.setattr(cli.chain_mod, "simulate_paths", counted_paths)
        config = tmp_path / "rps.cfg"
        config.write_text(RPS_CONSTANT.replace("N = 2", "N = 6").replace("horizon = 20.0", "horizon = 1.0"))
        assert run("experiment", config, tmp_path / "out") == 0
        # C(6 + 2, 2) = 28 main-grid states
        assert calls["count"] == 28
        assert blocks == [(i, 6 + 1) for i in range(3)]  # one stack of the counts 0..N per population
        [(evaluations, events, visited)] = batches  # seeds 1, 2 in one batch
        assert len(events) == 2 and min(events) > 0
        assert evaluations == visited


class TestStageBuilds:
    @staticmethod
    def _counted(monkeypatch):
        from symgame import cli

        calls = {"build_grid": 0, "decompose": 0}
        for owner, name in ((cli.chain_mod, "build_grid"), (cli, "decompose")):
            def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        return calls

    @pytest.fixture
    def rps6(self, tmp_path):
        path = tmp_path / "rps6.cfg"
        path.write_text(RPS_CONSTANT.replace("N = 2", "N = 6").replace("horizon = 20.0", "horizon = 1.0"))
        return path

    def test_experiment_builds_each_lattice_and_decomposition_once(self, rps6, tmp_path, monkeypatch):
        calls = self._counted(monkeypatch)
        assert run("experiment", rps6, tmp_path / "out") == 0
        # the base lattice, shared with the occupancy of every path; no derived chain is built
        assert calls == {"build_grid": 1, "decompose": 1}

    def test_compare_builds_one_lattice(self, rps6, tmp_path, monkeypatch):
        calls = self._counted(monkeypatch)
        assert run("compare", rps6, tmp_path / "out") == 0
        assert calls == {"build_grid": 1, "decompose": 1}
