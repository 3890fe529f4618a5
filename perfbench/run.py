#!/usr/bin/env python3
"""The spdcl benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload zipf-curriculum --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The run generates its inputs from
``--seed`` into ``.perfbench_work/``, runs the workload in a child process
(``worker.py``) for ``--seconds`` of passes, checks every output, and prints
one ``metric <name> <value> <unit>`` line per metric followed, as the last
line, by a JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` from an
untraced run.  ``--trace 1`` reports the per-layer metrics from a separate
run whose passes alternate untraced and traced.  Workloads, metrics and the
layer each metric belongs to are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import PROBE_REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The contract gives a run 180 s; keep a margin for start-up and clean-up.
RUN_DEADLINE_S = 170.0


def run_worker(argv: list[str], deadline: float, env=None) -> dict | None:
    """Run worker.py to completion; its last stdout line is its JSON report."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *argv],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        print("error: workload did not finish within the run deadline", file=sys.stderr)
        return None
    for line in proc.stdout.splitlines()[:-1]:
        print(line)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def _rounded(values: list[float]) -> str:
    return "[" + ", ".join(f"{v:.6f}" for v in values) + "]"


def end_to_end(child: dict) -> dict[str, float]:
    """End-to-end values, times scaled to the reference host speed (see probe.py).

    Each time is divided by the run's mean probe time over PROBE_REFERENCE_S:
    the probes sample the host's speed at many instants across the run.
    """
    attempted, failed = child["attempted"], child["failed"]
    slowdown = statistics.mean(child["probe_s"]) / PROBE_REFERENCE_S
    mean_pass = statistics.mean(child["untraced_pass_s"]) / slowdown
    return {
        "setup_s": statistics.median(child["setup_s"]) / slowdown,
        "sample_epochs_per_s": child["samples_per_pass"] / mean_pass,
        "peak_rss_mb": child["peak_rss_mb"],
        "final_macro_f1": child["final_macro_f1"] if child["final_macro_f1"] is not None else 0.0,
        "ok_ratio": (attempted - failed) / attempted,
        "fail_ratio": failed / attempted,
    }


def blas_thread_check(child: dict, work: Path, deadline: float) -> bool:
    """One more pass with OPENBLAS_NUM_THREADS=1 in that child only; artifacts must match."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    single = run_worker(
        ["--workload", "zipf-curriculum", "--work-dir", str(work), "--seconds", "0", "--single-pass"],
        deadline,
        env=env,
    )
    same = single is not None and single["digests"] == child["digests"]
    threads = (single or {}).get("host", {}).get("blas_threads")
    detail = (
        f"{len(child['digests'])} artifacts identical"
        if same
        else "DEFECT: artifacts differ between BLAS thread counts"
    )
    print(
        f"check blas_threads_determinism: {'ok' if same else 'FAILED'} "
        f"({detail}; blas_threads {threads} vs {child['host']['blas_threads']})"
    )
    return same


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "spdcl" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a spdcl checkout (needs src/spdcl and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for the smoke test")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    work = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    try:
        workloads.generate_inputs(args.workload, args.size, args.seed, work)
        child_argv = ["--workload", args.workload, "--work-dir", str(work), "--seconds", str(args.seconds)]
        if args.trace:
            out_dir.mkdir(exist_ok=True)
            trace_file = out_dir / f"spans-{args.workload}-s{args.seed}.jsonl"
            child_argv += ["--trace", "1", "--trace-out", str(trace_file)]
        child = run_worker(child_argv, deadline)
        if child is None:
            return 1
        sizes = workloads.SIZES[args.workload][args.size]
        print("host " + json.dumps(child["host"], sort_keys=True))
        print(
            f"workload {args.workload} seed {args.seed} size {args.size}: "
            f"N_train={sizes.n_train} N_valid={sizes.n_valid} V={child['vocab_size']} "
            f"d={sizes.hidden_d} T={sizes.epochs_T} k={sizes.bins_k} "
            f"passes={len(child['untraced_pass_s']) + len(child['traced_pass_s'])}"
        )
        print(f"raw setup_s {_rounded(child['setup_s'])}")
        print(f"raw probe_s {_rounded(child['probe_s'])} reference {PROBE_REFERENCE_S}")
        print(f"raw pass_s untraced {_rounded(child['untraced_pass_s'])} traced {_rounded(child['traced_pass_s'])}")
        checks_ok = child["setups_identical"]
        print(f"check artifacts_identical_across_passes: {child['attempted'] - child['failed']}/{child['attempted']} epochs ok")
        if args.workload == "rescore-cli":
            print(f"check source_run_identical_across_setups: {'ok' if child['setups_identical'] else 'FAILED'}")
        if args.workload == "zipf-curriculum" and not args.trace:
            checks_ok = blas_thread_check(child, work, deadline) and checks_ok

        values = end_to_end(child)
        if args.trace:
            values.update(child["layers"])
            wanted = spec["per_layer"]
        else:
            wanted = spec["end_to_end"]
            print(f"metric fail_ratio {values['fail_ratio']!r} ratio")
        metrics = {}
        for m in wanted:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"metric {m['name']} {values[m['name']]!r} {m['unit']}")
        if args.trace:
            print(f"spans written to {trace_file.relative_to(ROOT)}")
        result = {
            "correct": child["failed"] == 0 and checks_ok,
            "attempted": child["attempted"],
            "failed": child["failed"],
            "metrics": metrics,
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
