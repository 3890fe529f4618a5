"""Plan oracles that share no code with ``spdcl.scheduler.build_epoch_plan``
but the (seed, epoch)-keyed generator.

``partition_bins`` cuts an id list into k bins, one list each, and
``visible_set`` concatenates bins 1..min(epoch, k); ``build_epoch_plan``
computes both as arrays over the rank order, with no list of bins.
``baseline_plan`` is the baseline's plan builder as it was before the
baseline became the one-bin curriculum, the oracle for
``spdcl.trainer.run_baseline``: every epoch permutes the sorted training ids
and puts every sample in bin 1, so a baseline run whose plans equal these
checks the one-bin curriculum against a second code.
"""

from spdcl.scheduler import EpochPlan, epoch_rng


def partition_bins(ordered_ids, k: int) -> list:
    """Cut an easy-to-hard ordering into k contiguous slices, easiest first.

    Sizes differ by at most one; when N mod k != 0 the earlier bins take
    the extra element.
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


def visible_set(epoch: int, bins: list[list[str]]) -> list[str]:
    """Bins 1..min(epoch, k) concatenated; the whole dataset once epoch >= k."""
    if epoch < 1:
        raise ValueError("epoch must be >= 1")
    width = min(epoch, len(bins))
    out: list[str] = []
    for part in bins[:width]:
        out.extend(part)
    return out


def baseline_plan(sample_ids, seed: int, epoch: int) -> EpochPlan:
    all_ids = sorted(sample_ids)
    perm = epoch_rng(seed, epoch).permutation(len(all_ids))
    return EpochPlan(
        epoch=epoch,
        ordered_ids=[all_ids[i] for i in perm],
        bin_of={sid: 1 for sid in all_ids},
    )
