#!/usr/bin/env python3
"""Run the benchmark over several seeds and write one results file.

    python3 perfbench/collect.py --seeds 1 2 3 4 5 6 7 8 9 10 --trace 0 \\
        --out perfbench/results/BENCH_1.json

Runs ``run.py`` once per (seed, workload, trace mode), seed-major so that
slow stretches of a shared host spread over all workloads, for the
``run_seconds`` that ``BENCHMARK.json`` fixes.  The file holds every run's
result and checks, the host facts, and per workload and metric the median,
the quartiles and the spread (quartile distance over median), computed as
``statistics.quantiles(values, n=4)`` gives them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, trace: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    lines = proc.stdout.splitlines()
    run = {"workload": workload, "seed": seed, "trace": trace, "exit_code": proc.returncode}
    if proc.returncode != 0:
        run["stderr"] = proc.stderr[-2000:]
        return run
    run.update(json.loads(lines[-1]))
    run["checks"] = [line[len("check "):] for line in lines if line.startswith("check ")]
    run["host"] = next(json.loads(line[len("host "):]) for line in lines if line.startswith("host "))
    return run


def summarize(runs: list[dict]) -> dict:
    by_workload: dict[str, dict[str, list[float]]] = {}
    for run in runs:
        if run["exit_code"] != 0:
            continue
        metrics = by_workload.setdefault(f"{run['workload']} --trace {run['trace']}", {})
        for name, value in run["metrics"].items():
            metrics.setdefault(name, []).append(value["value"])
    summary = {}
    for key, metrics in by_workload.items():
        summary[key] = {}
        for name, values in metrics.items():
            median = statistics.median(values)
            entry = {"n": len(values), "median": median}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                entry.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
            summary[key][name] = entry
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, nargs="+", choices=(0, 1), default=[0, 1])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    runs = []
    for seed in args.seeds:
        for workload in names:
            for trace in args.trace:
                run = run_once(workload, seed, trace, spec["run_seconds"])
                runs.append(run)
                print(f"seed {seed} {workload} --trace {trace}: exit {run['exit_code']} "
                      f"correct {run.get('correct')}", flush=True)
    result = {
        "command": spec["command"],
        "run_seconds": spec["run_seconds"],
        "host": next((r["host"] for r in runs if "host" in r), None),
        "summary": summarize(runs),
        "runs": runs,
    }
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0 if all(r["exit_code"] == 0 and r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
