#!/usr/bin/env python3
"""Runs one workload in its own process and prints its raw measurements.

Started by ``run.py``; not meant to be called by hand.  It sets the workload
up (repeatedly, for a median), and runs passes back to back until the time
budget is spent: a closed loop with one client.  With ``--trace 1`` passes
alternate untraced / traced so the tracing overhead is measured on the same
host state.  Every pass's artifacts are hashed and compared with the first
pass's; an epoch whose artifacts differ counts as a failed operation.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from host import host_facts  # noqa: E402
from probe import probe  # noqa: E402
from tracer import Tracer, pass_breakdown, write_spans  # noqa: E402


# Probes run before every set-up and every pass; several per gap give the
# run's mean host speed from many instants.
PROBES_PER_GAP = 5


def _epoch_of(artifact: str, last_epoch: int) -> int:
    """Epoch an artifact belongs to; run-level files count toward the last epoch."""
    return int(artifact[5:8]) if artifact.startswith("epoch") else last_epoch


def count_failures(results, epochs_T: int) -> tuple[int, int]:
    """(attempted, failed) epochs over all passes, the first pass being the reference."""
    reference = results[0].digests
    attempted = failed = 0
    for result in results:
        ok = list(result.epoch_ok)
        for name in set(reference) | set(result.digests):
            if reference.get(name) != result.digests.get(name):
                ok[_epoch_of(name, epochs_T) - 1] = False
        attempted += len(ok)
        failed += ok.count(False)
    return attempted, failed


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least ten samples
    above it, but never below the median, so a short run reports its p50."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 2:
        return 50.0, ordered[0] if ordered else 0.0
    pct = max(50.0, 100.0 * (n - 11) / (n - 1))
    return pct, float(np.percentile(ordered, pct))


def layer_summary(tracer: Tracer, roots, traced_s, untraced_s) -> dict:
    """Medians over the traced passes; set-up's encode time comes from set-up spans."""
    encode_s = [s[2] - s[1] for s in tracer.spans if s[0] == "trainer.encode_datasets"]
    per_pass = []
    epochs: list[float] = []
    for root in roots:
        layers, epoch_s = pass_breakdown(tracer, root)
        per_pass.append(layers)
        epochs.extend(epoch_s)
    summary = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    summary["trainer.encode_s"] = statistics.median(encode_s) if encode_s else 0.0
    tail_pct, tail_s = tail(epochs)
    summary["epoch_s.p50"] = statistics.median(epochs) if epochs else 0.0
    summary["epoch_s.tail"] = tail_s
    summary["epoch_s.tail_pct"] = tail_pct
    summary["epoch_s.count"] = len(epochs)
    summary["trace.overhead"] = statistics.median(traced_s) / statistics.median(untraced_s)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SIZES))
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None, help="write the spans here (JSON lines)")
    parser.add_argument("--single-pass", action="store_true", help="set up once, run one pass")
    args = parser.parse_args(argv)

    work = Path(args.work_dir)
    wl = workloads.make_workload(args.workload, work)
    tracer = Tracer() if args.trace else None

    setup_s: list[float] = []
    probe_s: list[float] = []

    def timed_setup():
        probe_s.extend(probe() for _ in range(PROBES_PER_GAP))
        if tracer:
            tracer.install()
        setup_s.append(wl.setup_once())
        if tracer:
            tracer.uninstall()

    for _ in range(1 if args.single_pass else wl.setup_upfront):
        timed_setup()

    results = []
    untraced_s, traced_s, roots = [], [], []
    started = time.perf_counter()
    while True:
        out = work / "pass"
        if out.exists():
            shutil.rmtree(out)
        traced = tracer is not None and len(results) % 2 == 1
        probe_s.extend(probe() for _ in range(PROBES_PER_GAP))
        if traced:
            tracer.install()
            roots.append(len(tracer.spans))
            result = wl.run_pass(out, span=tracer.span)
            tracer.uninstall()
            traced_s.append(result.seconds)
        else:
            result = wl.run_pass(out)
            untraced_s.append(result.seconds)
        results.append(result)
        if args.single_pass:
            break
        if wl.setup_between_passes:
            timed_setup()
        elapsed = time.perf_counter() - started
        if len(results) >= (2 if tracer else 1) and elapsed * (1 + 1 / len(results)) > args.seconds:
            break

    attempted, failed = count_failures(results, wl.config.epochs_T)
    report = {
        "workload": args.workload,
        "vocab_size": wl.vocab_size,
        "samples_per_pass": wl.samples_per_pass,
        "setup_s": setup_s,
        "probe_s": probe_s,
        "untraced_pass_s": untraced_s,
        "traced_pass_s": traced_s,
        "attempted": attempted,
        "failed": failed,
        "final_macro_f1": results[0].final_macro_f1,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digests": results[0].digests,
        "setups_identical": wl.setups_identical(),
        "host": host_facts(),
    }
    if tracer:
        report["layers"] = layer_summary(tracer, roots, traced_s, untraced_s)
        if args.trace_out:
            write_spans(tracer, args.trace_out)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
