"""Benchmark workloads: generated configs, the CLI operations they run, output checks.

Every workload is a list of operations.  An operation is one ``symgame``
command on one config file written by :func:`generate`; the benchmark seed
only chooses the path seeds, which reach the program through
``--seed-override``.  The exact stationary law does not depend on the path
seeds, so each experiment's total-variation gap is checked against a value
recorded here.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

# Why each workload exists (BENCHMARK.json gates changes on all four).
#   examples     what a user runs first: experiment on the four docs/examples
#                configs.  RK4 and per-call overhead dominate
#                (dynamics.integrate_mean_dynamic.s moves wall_s); the
#                no-change control for solver and generator work.
#   exact-dense  experiment at N = 120 (7,381 states), under the dense-solver
#                limit: dense LU dominates wall time and peak memory
#                (chain.exact_stationary.s moves wall_s and peak_rss_mb).
#   exact-power  experiment at N = 300 (45,451 states): generator assembly,
#                state sampling and validation, the power-iteration solve,
#                detailed balance and CSV output all matter.  Catches a solver
#                change that wins on exact-dense but loses here.
#   paths        simulate at N = 1000 (a 501,501-state grid never enumerated),
#                four seeds: the on-the-fly Gillespie loop and path CSVs; the
#                no-change control for solver and generator work.
WORKLOADS = ("examples", "exact-dense", "exact-power", "paths")

# Cyclic rock-paper-scissors with sum_exponential rates, eta = 1: the game of
# docs/examples/rps_sum_exponential.cfg, kept here so that editing the example
# does not change the benchmark.
RPS_CONFIG = """\
[game]
type = linear
payoff_matrix =
    0 -1 1
    1 0 -1
    -1 1 0

[protocol]
kind = sum_exponential
eta = 1.0
support_floor = 0.1353352832366127

[run]
N = {n}
horizon = 10.0
dt = 0.01
x0 = 0.5, 0.3, 0.2
"""

# Recorded total-variation gaps: (tv, residual of the solve that produced
# it, states).  rps_constant is the paper's closed form 2/15.  The others were
# printed by `symgame experiment` at the parent commit of the benchmark.
REFERENCE_TV = {
    "coordination_table": (0.099206349206349215, 1.3877787807814457e-16, 10),
    "rps_constant": (2.0 / 15.0, 0.0, 6),
    "rps_sum_exponential": (0.13310491015351555, 2.6367796834847468e-16, 15),
    "two_populations": (0.13333333333333333, 1.6653345369377348e-16, 18),
    "rps_n4": (0.13310491015351555, 2.6367796834847468e-16, 15),
    "rps_n6": (0.13642616893654513, 6.3837823915946501e-16, 28),
    "rps_n120": (0.14743172747430328, 5.828670879282072e-16, 7381),
    "rps_n300": (0.14776954622301042, 7.1647543453678963e-10, 45451),
}

# Agents per population of each example, for the path checks.
EXAMPLE_AGENTS = {
    "coordination_table": (3,),
    "rps_constant": (2,),
    "rps_sum_exponential": (4,),
    "two_populations": (2, 2),
}


@dataclass(frozen=True)
class Operation:
    name: str
    command: str
    config: Path
    seeds: tuple[int, ...]
    horizon: float
    agents: tuple[int, ...]

    def argv(self, out: Path) -> list[str]:
        return [
            self.command,
            "--config", str(self.config),
            "--out", str(out),
            "--seed-override", ",".join(str(s) for s in self.seeds),
        ]


def _seeds(rng: random.Random, count: int) -> tuple[int, ...]:
    return tuple(rng.randrange(2**31) for _ in range(count))


def generate(workload: str, seed: int, root: Path, workdir: Path, tiny: bool) -> list[Operation]:
    """Write the workload's config files under ``workdir`` and return its operations.

    ``tiny`` shrinks every grid to a few states (the self-test size); the
    examples are already tiny and run unchanged.
    """
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)

    def rps(name: str, command: str, n: int, n_seeds: int) -> Operation:
        path = workdir / f"{name}.cfg"
        path.write_text(RPS_CONFIG.format(n=n))
        return Operation(name, command, path, _seeds(rng, n_seeds), 10.0, (n,))

    if workload == "examples":
        ops = []
        for name, agents in EXAMPLE_AGENTS.items():
            text = (root / "docs" / "examples" / f"{name}.cfg").read_text()
            path = workdir / f"{name}.cfg"
            path.write_text(text)
            n_seeds = len(re.search(r"^seeds = (.*)$", text, re.M).group(1).split(","))
            horizon = float(re.search(r"^horizon = (.*)$", text, re.M).group(1))
            ops.append(Operation(name, "experiment", path, _seeds(rng, n_seeds), horizon, agents))
        return ops
    if workload == "exact-dense":
        return [rps("rps_n4" if tiny else "rps_n120", "experiment", 4 if tiny else 120, 1)]
    if workload == "exact-power":
        return [rps("rps_n6" if tiny else "rps_n300", "experiment", 6 if tiny else 300, 1)]
    if workload == "paths":
        return [rps("rps_n4" if tiny else "rps_n1000", "simulate", 4 if tiny else 1000, 1 if tiny else 4)]
    raise ValueError(f"unknown workload '{workload}'")


def _report_fields(path: Path) -> dict[str, str]:
    fields = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.partition(": ")
        if sep and not line.startswith("#"):
            fields[key] = value
    return fields


def _check_path_csv(path: Path, horizon: float, agents: tuple[int, ...]) -> tuple[int, list[str]]:
    """Return (events, problems) for one path log."""
    problems: list[str] = []
    rows = 0
    last = 0.0
    with path.open() as handle:
        for line in handle:
            if line.startswith("#") or line.startswith("t,"):
                continue
            t_text, _, counts = line.rstrip("\n").partition(",")
            t = float(t_text)
            sums = tuple(sum(int(v) for v in part.split()) for part in counts.split("|"))
            if rows == 0 and t != 0.0:
                problems.append(f"{path.name}: path starts at t={t!r}")
            if not last <= t < horizon:
                problems.append(f"{path.name}: time {t!r} after {last!r} outside [0, {horizon})")
            if sums != agents:
                problems.append(f"{path.name}: counts sum to {sums}, expected {agents}")
            if problems:
                break
            last = t
            rows += 1
    if rows == 0 and not problems:
        problems.append(f"{path.name}: no rows")
    return max(rows - 1, 0), problems


# A printed TV gap may differ from its recorded value by at most TV_TOLERANCE.
# The recorded N = 300 gap comes from power iteration; a sparse LU solve of the
# same chain gives a gap 1.6e-8 away, so 1e-7 admits any solver that is as
# accurate as either, and rejects one that moves the gap in the seventh digit.
TV_TOLERANCE = 1e-7


def residual_ceiling(ref_residual: float) -> float:
    """Largest residual a solve may report: ten times the recorded solve's, at least 1e-12.

    The floor admits a sparse or iterative solve where the recorded one was
    exact to rounding; above the ceiling the operation fails, whatever TV it
    prints.
    """
    return max(10.0 * ref_residual, 1e-12)


def check(op: Operation, out: Path) -> tuple[int, dict, list[str]]:
    """Check one operation's artifacts; return (events, report facts, problems)."""
    problems: list[str] = []
    events = 0
    path_events = {}
    for seed in op.seeds:
        path = out / f"path_{seed}.csv"
        if not path.is_file():
            problems.append(f"missing {path.name}")
            continue
        n, bad = _check_path_csv(path, op.horizon, op.agents)
        path_events[seed] = n
        events += n
        problems.extend(bad)
    facts: dict = {}
    if op.command != "experiment":
        return events, facts, problems

    for name in ("trajectory.csv", "predicted.csv", "exact_stationary.csv", "transformed_game.cfg"):
        if not (out / name).is_file():
            problems.append(f"missing {name}")
    report = out / "experiment_report.txt"
    if not report.is_file():
        return events, facts, problems + ["missing experiment_report.txt"]
    fields = _report_fields(report)
    try:
        tv = float(fields["tv_predicted_vs_exact"])
        states = int(fields["states"])
        residual = float(fields["residual"])
        facts = {"tv": tv, "states": states, "solver": fields["solver"], "residual": residual}
    except (KeyError, ValueError) as exc:
        return events, facts, problems + [f"report lacks a field: {exc!r}"]
    ref_tv, ref_residual, ref_states = REFERENCE_TV[op.name]
    if states != ref_states:
        problems.append(f"{states} states, expected {ref_states}")
    if not abs(tv - ref_tv) <= TV_TOLERANCE:
        problems.append(f"TV gap {tv!r}, expected {ref_tv!r} within {TV_TOLERANCE:.3g}")
    if not residual <= residual_ceiling(ref_residual):
        problems.append(f"residual {residual!r} above {residual_ceiling(ref_residual):.3g}")
    for seed, n in path_events.items():
        if fields.get(f"seed_{seed}_events") != str(n):
            problems.append(f"seed {seed}: report says {fields.get(f'seed_{seed}_events')} events, path has {n}")
    return events, facts, problems
