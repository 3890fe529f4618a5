"""Progressive easy-to-hard training schedules.

The easy-to-hard ordering is cut into ``bins_k`` contiguous bins, the earlier
ones one larger when they do not divide evenly.  Epoch t
trains on bins 1..min(t, k): the visible set widens by one bin per epoch and
saturates to the full dataset at epoch k.  Earlier bins are always
re-included (annealing), so easy samples keep being reviewed while new,
harder ones arrive.  Re-binning happens every epoch from a fresh score
table, which is what makes the curriculum dynamic rather than static.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # spdcl.difficulty and spdcl.io import this module
    from spdcl.difficulty import ScoreTable
    from spdcl.io import RunConfig

_SEED_MASK = (1 << 64) - 1


def epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    """Deterministic generator for one epoch's shuffle, keyed by (seed, epoch)."""
    return np.random.default_rng((seed & _SEED_MASK, epoch))


# Field checks shared by every config type (spdcl.io.RunConfig, TrainHyper),
# encode_datasets and delta_scores; each error names the field.


def check_int(name: str, value, minimum: int | None = None) -> None:
    # bool is an int subclass, so it is rejected by name.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def _finite_float(value) -> bool:
    """Whether a number converts to a finite float; an int may be too large for one."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def check_lr(lr) -> None:
    # json.load accepts NaN and Infinity, and an int too large for a float.
    if isinstance(lr, bool) or not isinstance(lr, (int, float)):
        raise ValueError(f"lr must be a number, got {lr!r}")
    if not _finite_float(lr):
        raise ValueError(f"lr must convert to a finite float, got {lr!r}")
    if lr < 0:
        raise ValueError(f"lr must be >= 0, got {lr!r}")


def check_bool(name: str, value) -> None:
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")


def check_choice(name: str, value, choices: tuple) -> None:
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")


@dataclass(frozen=True)
class EpochPlan:
    """Training order for one epoch plus the bin map behind it.

    ``ordered_ids`` is exactly the union of bins 1..w, w the widest bin
    among them; ``bin_of`` maps every sample (visible or not) to its
    1-based bin.
    """

    epoch: int
    ordered_ids: list[str]
    bin_of: dict[str, int] = field(repr=False)


def build_epoch_plan(table: ScoreTable, config: RunConfig, epoch: int) -> EpochPlan:
    """Bin, widen, shuffle: the full plan for one epoch from its score table.

    Bin b holds the next ``n // k`` ranks of the table's order, one more if
    ``b <= n % k``, and bins 1..min(epoch, k) are visible.  The within-epoch shuffle
    permutes the visible ids from a canonical (sorted) base order with a
    generator seeded by (seed, epoch), so the plan is a pure function of the
    visible id set and the seed; it does not depend on how the ranking
    happened to order equally-visible samples.  With
    ``shuffle_within_epoch=False`` the visible set is presented in rank
    order, easiest first.
    """
    if epoch < 1:
        raise ValueError("epoch must be >= 1")
    n, k = len(table.ids), config.bins_k
    if k > n:
        raise ValueError(f"k={k} exceeds dataset size {n}")
    sizes = n // k + (np.arange(k) < n % k)
    visible = table.order[: sizes[: min(epoch, k)].sum()]
    if config.shuffle_within_epoch:
        # The table's ids ascend, so sorted row indices are the sorted ids.
        canonical = np.sort(visible)
        visible = canonical[epoch_rng(config.seed, epoch).permutation(len(canonical))]
    bin_by_row = np.empty(n, dtype=np.int64)
    bin_by_row[table.order] = np.repeat(np.arange(1, k + 1), sizes)
    return EpochPlan(
        epoch=epoch,
        ordered_ids=list(map(table.ids.__getitem__, visible.tolist())),
        bin_of=dict(zip(table.ids, bin_by_row.tolist())),
    )
