"""A fixed CPU probe that measures how fast the host runs right now.

On a shared host, other tenants' load slows everything in this process by
up to 1.9x, in bursts of about a second and for stretches that can outlast a
whole run.  The worker runs the probe several times before every set-up and
every pass; ``run.py`` divides the end-to-end times by the run's mean probe
time over ``PROBE_REFERENCE_S``.

The probe is the benchmark's own code and never touches spdcl, so a change
to the program cannot move it; only the host can.  It mixes what spdcl's
passes spend their time on: small-matrix numpy/LAPACK calls and Python
object and dict work.
"""

from __future__ import annotations

import time

import numpy as np

# The probe's time on this benchmark's reference host (2-vCPU Xeon, CPython
# 3.11, numpy 2.4 with OpenBLAS 0.3.31) when no other tenant is busy.  Time
# metrics are scaled to it: a metric reads what the reference host would show.
PROBE_REFERENCE_S = 0.0055

_RNG = np.random.default_rng(0)
_MATRICES = [_RNG.normal(size=(int(_RNG.integers(3, 21)), 16)) for _ in range(200)]


def probe() -> float:
    """Seconds one fixed unit of work takes now (about 10 ms on a quiet host)."""
    started = time.perf_counter()
    acc = 0.0
    table: dict = {}
    for i, m in enumerate(_MATRICES):
        gram = m @ m.T if m.shape[0] < m.shape[1] else m.T @ m
        acc += float(np.sqrt(np.clip(np.linalg.eigvalsh(gram), 0.0, None)).sum())
        table[f"k{i}"] = acc
    for j in range(20000):
        table[j % 500] = j * 2
    return time.perf_counter() - started
