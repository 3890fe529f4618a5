"""Progressive easy-to-hard training schedules.

The easy-to-hard ordering is cut into ``bins_k`` contiguous bins.  Epoch t
trains on bins 1..min(t, k): the visible set widens by one bin per epoch and
saturates to the full dataset at epoch k.  Earlier bins are always
re-included (annealing), so easy samples keep being reviewed while new,
harder ones arrive.  Re-binning happens every epoch from a fresh score
table, which is what makes the curriculum dynamic rather than static.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from spdcl.difficulty import ALIGNMENT_MODES, DELTA_ORDERINGS, ScoreTable

_SEED_MASK = (1 << 64) - 1


def epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    """Deterministic generator for one epoch's shuffle, keyed by (seed, epoch)."""
    return np.random.default_rng((seed & _SEED_MASK, epoch))


# Field checks shared by every config type (CurriculumConfig, TrainHyper,
# Vocabulary, spdcl.io.RunConfig); each error names the field.


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
class CurriculumConfig:
    bins_k: int = 5
    total_epochs_T: int = 10
    shuffle_seed: int = 2
    alignment_mode: str = "rank"
    delta_ordering: str = "magnitude"
    shuffle_within_epoch: bool = True

    def __post_init__(self):
        check_int("bins_k", self.bins_k, minimum=1)
        check_int("total_epochs_T", self.total_epochs_T, minimum=1)
        check_int("shuffle_seed", self.shuffle_seed)
        check_choice("alignment_mode", self.alignment_mode, ALIGNMENT_MODES)
        check_choice("delta_ordering", self.delta_ordering, DELTA_ORDERINGS)
        check_bool("shuffle_within_epoch", self.shuffle_within_epoch)
        if self.total_epochs_T < self.bins_k:
            warnings.warn(
                f"total_epochs_T={self.total_epochs_T} < bins_k={self.bins_k}: "
                "the hardest bins will never become visible",
                stacklevel=2,
            )


@dataclass(frozen=True)
class EpochPlan:
    """Training order for one epoch plus the bin map behind it.

    ``ordered_ids`` is exactly the union of bins 1..``visible_bins``;
    ``bin_of`` maps every sample (visible or not) to its 1-based bin.
    """

    epoch: int
    visible_bins: int
    ordered_ids: list[str]
    bin_of: dict[str, int] = field(repr=False)


def partition_bins(ordered_ids, k: int) -> list:
    """Cut an easy-to-hard ordering into k contiguous slices, easiest first.

    ``ordered_ids`` may be a list of ids or an array of row indices.  Sizes
    differ by at most one; when N mod k != 0 the earlier bins take the
    extra element.
    """
    n = len(ordered_ids)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise ValueError(f"k={k} exceeds dataset size {n}")
    base, extra = divmod(n, k)
    bins = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        bins.append(ordered_ids[start : start + size])
        start += size
    return bins


def build_epoch_plan(table: ScoreTable, config: CurriculumConfig, epoch: int) -> EpochPlan:
    """Bin, widen, shuffle: the full plan for one epoch from its score table.

    The bins are slices of the table's rank order.  The within-epoch shuffle
    permutes the visible ids from a canonical (sorted) base order with a
    generator seeded by (shuffle_seed, epoch), so the plan is a pure
    function of the visible id set and the seed; it does not depend on how
    the ranking happened to order equally-visible samples.  With
    ``shuffle_within_epoch=False`` the visible set is presented in rank
    order, easiest first.
    """
    if epoch < 1:
        raise ValueError("epoch must be >= 1")
    bins = partition_bins(table.order, config.bins_k)
    width = min(epoch, config.bins_k)
    visible = table.order[: sum(len(part) for part in bins[:width])]
    if config.shuffle_within_epoch:
        # The table's ids ascend, so sorted row indices are the sorted ids.
        canonical = np.sort(visible)
        visible = canonical[epoch_rng(config.shuffle_seed, epoch).permutation(len(canonical))]
    bin_by_row = np.empty(len(table.ids), dtype=np.int64)
    for number, part in enumerate(bins, start=1):
        bin_by_row[part] = number
    return EpochPlan(
        epoch=epoch,
        visible_bins=width,
        ordered_ids=list(map(table.ids.__getitem__, visible.tolist())),
        bin_of=dict(zip(table.ids, bin_by_row.tolist())),
    )
