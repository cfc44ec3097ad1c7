"""Benchmark of the symgame command line, one workload per run.

    python3 perfbench/run.py --workload exact-power --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 1

A run writes the workload's configs (chosen by --seed) under .bench_work/ in
the repository that holds this file, times set-up in fresh interpreters, then
repeats passes over the workload's CLI operations inside this process until
--seconds are used, checking every output.  It prints readable lines and,
last, one JSON object with the keys correct, attempted, failed and metrics.
--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 the
per-layer metrics, from spans that tracing.py puts around each layer's public
functions.  workloads.py says why each workload exists.

The end-to-end times are scaled to a fixed host speed.  On a shared machine
the CPU speed drifts by up to 2x, over seconds and over minutes, with no time
stolen from the process, so raw times of the same code differ more between
runs than any bound worth having.  While a set-up or an untraced pass runs, a
timer interrupts this process every SAMPLE_INTERVAL_S and times speed_probe,
a fixed loop that runs no symgame code; the handler's time is taken out of
the pass.  Each pass's and each set-up's time is scaled by SPEED_REF_S /
(median probe time during it), so it reads as seconds on a host where the
probe takes SPEED_REF_S.  A program change does not move the probe, so it
moves the scaled times as it moves the raw ones.  Raw times are printed too;
per-layer times are raw.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
SETUP_REPEATS = 5
SAMPLE_INTERVAL_S = 0.05
SPEED_REF_S = 1e-3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Fresh interpreter up to a ready run: import the CLI (numpy and scipy with
# it) and write the workload's configs.
SETUP_PROBE = """\
import sys
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import symgame.cli
import workloads
workloads.generate(sys.argv[3], int(sys.argv[4]), Path(sys.argv[5]), Path(sys.argv[6]), sys.argv[7] == "1")
"""


def cap_blas_threads() -> int:
    """Limit BLAS threads to the CPUs this process may use; return the limit.

    Must run before numpy is imported; the set-up probes inherit it.
    """
    limit = NPROC
    for var in BLAS_THREAD_VARS:
        try:
            limit = min(limit, int(os.environ[var]))
        except (KeyError, ValueError):
            pass
    limit = max(limit, 1)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(limit)
    return limit


def cpu_steal_seconds() -> float | None:
    """Machine-wide CPU time stolen by the hypervisor so far, if the kernel reports it."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def speed_probe() -> float:
    """Seconds for a fixed pure-Python loop, about SPEED_REF_S on this kind of host."""
    start = time.perf_counter()
    total = 0
    for i in range(8_000):
        total += i * i % 7
    return time.perf_counter() - start


class SpeedSampler:
    """Times speed_probe every SAMPLE_INTERVAL_S of wall time while active.

    The probe runs in a SIGALRM handler, between the bytecodes of whatever
    the process is doing, so its samples follow the CPU speed through a pass.
    ``busy`` is the wall time spent in the handler.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.busy = 0.0

    def _handler(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(speed_probe())
        self.busy += time.perf_counter() - start

    @contextlib.contextmanager
    def active(self):
        previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def time_setup(workload: str, seed: int, workdir: Path, tiny: bool,
               sampler: SpeedSampler) -> list[tuple[float, float | None]]:
    """Time SETUP_REPEATS fresh set-ups; return each one's seconds and median probe time."""
    times = []
    for _ in range(SETUP_REPEATS):
        argv = [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE), workload, str(seed),
                str(ROOT), str(workdir / "setup"), "1" if tiny else "0"]
        first = len(sampler.samples)
        with sampler.active():
            start = time.perf_counter()
            subprocess.run(argv, check=True, stdin=subprocess.DEVNULL)
            elapsed = time.perf_counter() - start
        probes = sampler.samples[first:]
        times.append((elapsed, statistics.median(probes) if probes else None))
    return times


class Runner:
    """Runs passes over a workload's operations and keeps what they measured."""

    def __init__(self, cli, outdir: Path, sampler: SpeedSampler):
        self.cli = cli
        self.outdir = outdir
        self.sampler = sampler
        self.attempted = 0
        self.failed = 0
        self.facts: dict[str, dict] = {}

    def run_pass(self, ops, sample: bool = False) -> dict:
        """Run every operation once; return its wall seconds, events and output size.

        With ``sample`` the speed sampler runs through the pass, its handler's
        time is not counted, and "probe" is the median probe time of the pass.
        """
        result = {"wall": 0.0, "events": 0, "files": 0, "bytes": 0, "probe": None}
        first = len(self.sampler.samples)
        with self.sampler.active() if sample else contextlib.nullcontext():
            for op in ops:
                self._run_op(op, result)
        if len(self.sampler.samples) > first:
            result["probe"] = statistics.median(self.sampler.samples[first:])
        return result

    def _run_op(self, op, result: dict) -> None:
        out = self.outdir / op.name
        shutil.rmtree(out, ignore_errors=True)
        argv = op.argv(out)
        busy = self.sampler.busy
        start = time.perf_counter()
        try:
            status = self.cli.main(argv)
        except Exception as exc:  # a failed operation is counted, not fatal
            status = f"{type(exc).__name__}: {exc}"
        result["wall"] += time.perf_counter() - start - (self.sampler.busy - busy)
        self.attempted += 1
        if status != 0:
            problems = [f"exit status {status!r}"]
        else:
            events, facts, problems = workloads.check(op, out)
            files = [f for f in out.iterdir() if f.is_file()]
            result["events"] += events
            result["files"] += len(files)
            result["bytes"] += sum(f.stat().st_size for f in files)
            facts["events"] = events
            trajectory = out / "trajectory.csv"
            if trajectory.is_file():
                facts["rk4_steps"] = _data_rows(trajectory) - 1
            self.facts[op.name] = facts
        if problems:
            self.failed += 1
            print(f"FAILED {op.name}: " + "; ".join(problems), flush=True)


def _data_rows(path: Path) -> int:
    with path.open() as handle:
        return sum(1 for line in handle if not line.startswith("#")) - 1


def _stats(values: list[float]) -> str:
    return (f"median {statistics.median(values):.6g}, min {min(values):.6g}, "
            f"max {max(values):.6g}, n={len(values)}")


def layer_metrics(rec) -> dict[str, float]:
    """Per-layer metrics of one traced pass (names as in BENCHMARK.json)."""
    self_s = rec.self_times()
    total_s = rec.total_times()
    counts = rec.counts
    metrics = {f"{layer}.self.s": sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
               for layer in tracing.LAYERS}
    for _, _, span, _ in tracing.TRACED:
        if span != "cli.main":  # the command's own self time is cli.self.s
            metrics[f"{span}.s"] = self_s.get(span, 0.0)
    for name in ("dynamics.rk4_steps", "dynamics.clamp_events", "chain.build_generator.calls",
                 "chain.states", "chain.edges", "chain.events", "games.sample_states.states"):
        metrics[name] = counts.get(name, 0)

    def per_second(count: str, span: str) -> float:
        seconds = total_s.get(span, 0.0)
        return counts.get(count, 0) / seconds if seconds > 0 else 0.0

    metrics["dynamics.rk4_steps_per_s"] = per_second("dynamics.rk4_steps", "dynamics.integrate_mean_dynamic")
    metrics["chain.edges_per_s"] = per_second("chain.edges", "chain.build_generator")
    metrics["chain.events_per_s"] = per_second("chain.events", "chain.simulate_path")
    metrics["chain.exact_stationary.residual"] = rec.max_residual
    return metrics


def run_workload(args, per_layer_units: dict[str, str], end_to_end_units: dict[str, str]) -> int:
    if not (SRC / "symgame" / "__init__.py").is_file():
        print(f"no symgame sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    blas_threads = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".bench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    sampler = SpeedSampler()
    setup = time_setup(args.workload, args.seed, workdir, args.tiny, sampler)
    setup_times = [elapsed for elapsed, _ in setup]

    import numpy
    import scipy
    import symgame.cli

    ops = workloads.generate(args.workload, args.seed, ROOT, workdir / "configs", args.tiny)
    warmup = (workloads.generate("exact-dense", args.seed, ROOT, workdir / "warmup", True)
              + workloads.generate("paths", args.seed, ROOT, workdir / "warmup", True))
    runner = Runner(symgame.cli, workdir / "out", sampler)
    runner.run_pass(warmup)
    runner.facts = {}

    plain: list[dict] = []
    traced: list[tuple[dict, dict, object]] = []
    steal_start = cpu_steal_seconds()
    start = time.perf_counter()
    while True:
        if args.trace and len(traced) <= len(plain):
            with tracing.tracing() as rec:
                result = runner.run_pass(ops)
            metrics = layer_metrics(rec)
            metrics["cli.files_written"] = result["files"]
            metrics["cli.bytes_written"] = result["bytes"]
            traced.append((result, metrics, rec))
        else:
            plain.append(runner.run_pass(ops, sample=True))
        # stop where the run ends nearest to --seconds; a traced run needs an
        # untraced pass as well, for trace_overhead_s
        walls = [r["wall"] for r in plain] + [r["wall"] for r, _, _ in traced]
        if plain and time.perf_counter() - start + statistics.median(walls) / 2 > args.seconds:
            break
    run_probe = statistics.median(sampler.samples or [speed_probe() for _ in range(21)])
    scaled_setup = [elapsed * SPEED_REF_S / (probe or run_probe) for elapsed, probe in setup]
    scaled_walls = [r["wall"] * SPEED_REF_S / (r["probe"] or run_probe) for r in plain]

    facts = {
        "workload": args.workload, "seed": args.seed, "tiny": args.tiny, "nproc": NPROC,
        "blas_threads": blas_threads, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "pass_wall_s": [round(r["wall"], 4) for r in plain],
        "traced_pass_wall_s": [round(r["wall"], 4) for r, _, _ in traced],
        "pass_probe_ms": [round((r["probe"] or run_probe) * 1e3, 4) for r in plain],
        "setup_probe_ms": [round((probe or run_probe) * 1e3, 4) for _, probe in setup],
        "probe_samples": len(sampler.samples), "run_probe_ms": round(run_probe * 1e3, 4),
        "operations": runner.facts,
    }
    if steal_start is not None:
        facts["cpu_steal_s"] = round(cpu_steal_seconds() - steal_start, 2)
    if traced:
        rec = traced[-1][2]
        facts["solvers"] = sorted(rec.solvers)
        facts["edges"] = rec.counts.get("chain.edges", 0)
    print("facts: " + json.dumps(facts, sort_keys=True))
    print(f"raw setup_s: {_stats(setup_times)}")
    walls = [r["wall"] for r in plain]
    if walls:
        print(f"raw wall_s: {_stats(walls)}")
        print(f"speed probe s: {_stats(sampler.samples or [run_probe])}")
        print(f"scaled wall_s: {_stats(scaled_walls)}")

    if args.trace:
        traced_walls = [r["wall"] for r, _, _ in traced]
        print(f"raw traced wall_s: {_stats(traced_walls)}")
        gaps = [r["wall"] - sum(m[f"{layer}.self.s"] for layer in tracing.LAYERS)
                for r, m, _ in traced]
        print(f"traced wall_s minus the sum of all layers' self times: {_stats(gaps)}")
        values = {name: statistics.median(m[name] for _, m, _ in traced) for name in traced[0][1]}
        if walls:
            values["trace_overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        print("self time by layer:")
        for layer in sorted(tracing.LAYERS, key=lambda name: -values[f"{name}.self.s"]):
            print(f"  {layer}.self.s: {values[f'{layer}.self.s']:.6g} s")
        spans = [n for n in values if n.endswith(".s") and not n.endswith(".self.s")]
        print("largest span self time: " + max(spans, key=values.get))
        units = per_layer_units
    else:
        values = {
            "setup_s": statistics.median(scaled_setup),
            "wall_s": statistics.median(scaled_walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "events_per_s": statistics.median(r["events"] / w for r, w in zip(plain, scaled_walls)),
        }
        units = end_to_end_units
    print(f"error_rate: {runner.failed / runner.attempted:.6g} ratio "
          f"({runner.failed} failed of {runner.attempted} operations)")
    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name}: {values[name]!r} {unit}")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}), flush=True)
    return 0


def run_all(args) -> int:
    """Run every workload in its own process; print each one's lines, then a combined result."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            argv.append("--tiny")
        print(f"== {workload}", flush=True)
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, stdin=subprocess.DEVNULL)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        for line in lines[:-1]:
            print(f"{workload} {line}", flush=True)
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(total), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload of workloads.py, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every grid (self-test size)")
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS + ("all",):
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(args)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    return run_workload(args, per_layer, end_to_end)


if __name__ == "__main__":
    sys.exit(main())
