"""Smoke test of the benchmark: every workload at tiny sizes.

    python3 perfbench/smoke.py

Runs ``run.py --tiny`` on each workload untraced and traced and checks
that the last stdout line holds exactly the contract's keys, that every
metric BENCHMARK.json names is present with its unit and a finite value,
that every correctness gate passed, and that the traced and untraced
runs simulated identical outputs (equal digests).  Exits 1 on the first
failure.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-grid", "sim-steady", "scenario-suite")


def run(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--tiny",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace {trace} exited {proc.returncode}:\n"
                             f"{proc.stdout}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.strip().startswith("digest "))
    return json.loads(lines[-1]), digest


def check(result: dict, expected: dict[str, str], what: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, (what, set(result))
    assert result["correct"] is True, (what, "not correct")
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, what
    assert result["failed"] == 0, (what, result["failed"])
    metrics = result["metrics"]
    assert set(metrics) == set(expected), (what, set(metrics) ^ set(expected))
    for name, unit in expected.items():
        m = metrics[name]
        assert m["unit"] == unit, (what, name, m["unit"], unit)
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (what, name)


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    groups = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    try:
        for workload in WORKLOADS:
            digests = {}
            for trace, expected in groups.items():
                result, digests[trace] = run(workload, trace)
                check(result, expected, f"{workload} trace {trace}")
            assert digests[0] == digests[1], (workload, "traced outputs differ", digests)
            print(f"ok {workload}: {len(groups[0])} end-to-end and {len(groups[1])} "
                  f"per-layer metrics, traced == untraced ({digests[0][:12]})", flush=True)
    except AssertionError as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
