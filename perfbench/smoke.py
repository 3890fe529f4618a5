#!/usr/bin/env python3
"""Smoke test of the benchmark itself: every workload at tiny size, both modes.

    python3 perfbench/smoke.py

For each workload it runs ``run.py --size tiny`` untraced and traced and
checks that the run exits 0, that every metric ``BENCHMARK.json`` names for
that mode is printed as a ``metric <name> <value> <unit>`` line and in the
final JSON with its unit, that the outputs are correct with no failed
operation (``fail_ratio`` 0), and that the untraced ``zipf-curriculum`` run
prints the BLAS-thread determinism check.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_run(workload: str, trace: int, spec: dict) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "2", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}\n{proc.stderr}"]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    printed = {}
    for line in lines[:-1]:
        if line.startswith("metric "):
            _, name, value, unit = line.split(" ")
            printed[name] = (float(value), unit)
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if sorted(result["metrics"]) != sorted(m["name"] for m in wanted):
        problems.append(f"{where}: metrics {sorted(result['metrics'])}")
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: {m['name']} reported as {got}")
        if printed.get(m["name"], (None, None))[1] != m["unit"]:
            problems.append(f"{where}: no metric line for {m['name']} in {m['unit']}")
    if printed.get("fail_ratio", (None,))[0] != 0.0:
        problems.append(f"{where}: fail_ratio line {printed.get('fail_ratio')}")
    if workload == "zipf-curriculum" and not trace:
        if not any(line.startswith("check blas_threads_determinism: ok") for line in lines):
            problems.append(f"{where}: BLAS-thread check missing or failed")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_run(workload, trace, spec)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
