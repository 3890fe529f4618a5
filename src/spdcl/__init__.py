"""Self-paced dynamic curriculum learning toolkit.

Difficulty scoring from nuclear norms of per-sample embedding matrices,
epoch-over-epoch difficulty re-estimation, progressive easy-to-hard training
schedules, a small deterministic text-classification trainer to exercise the
loop end to end, and imbalanced-classification metrics.  The package
re-exports nothing: import from its submodules (``spdcl.trainer``,
``spdcl.metrics``, ...).
"""

__version__ = "0.1.0"
