"""Self-test of the benchmark: every workload at a tiny size, untraced and traced.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json gates exactly the workloads of workloads.py, runs
``run.py --workload all --tiny`` with tracing off and on, and checks that
every metric of BENCHMARK.json is printed with its unit for every workload,
and that no operation failed.  Exits 0 when all checks hold.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_all(trace: int) -> tuple[list[str], dict]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "1",
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          stdin=subprocess.DEVNULL, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run.py --trace {trace} exited {proc.returncode}:\n{proc.stdout}")
    return lines[:-1], json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    gated = tuple(w["name"] for w in spec["workloads"])
    if gated != WORKLOADS:
        problems.append(f"BENCHMARK.json gates {gated}, workloads.py defines {WORKLOADS}")
    for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        lines, result = run_all(trace)
        if not result["correct"] or result["failed"] != 0:
            problems.append(f"trace {trace}: {result['failed']} of {result['attempted']} operations failed")
        for workload in WORKLOADS:
            if f"{workload} error_rate: 0 ratio" not in "\n".join(lines):
                problems.append(f"trace {trace}: {workload} does not print error_rate 0")
            for metric in listed:
                name, unit = metric["name"], metric["unit"]
                got = result["metrics"].get(f"{workload}.{name}")
                if got is None or got["unit"] != unit or not isinstance(got["value"], (int, float)):
                    problems.append(f"trace {trace}: {workload} result lacks {name} [{unit}]: {got}")
                pattern = re.compile(rf"^{re.escape(workload)} {re.escape(name)}: \S+ {re.escape(unit)}$")
                if not any(pattern.match(line) for line in lines):
                    problems.append(f"trace {trace}: {workload} does not print {name} in {unit}")
    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
