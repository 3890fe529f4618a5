"""The baseline's plan builder as it was before the baseline became the
one-bin curriculum, the oracle for ``spdcl.trainer.run_baseline``.

Every epoch permutes the sorted training ids with the scheduler's
(seed, epoch)-keyed generator and puts every sample in bin 1.  It shares no
code with ``spdcl.scheduler.build_epoch_plan`` but the generator, so a
baseline run whose plans equal these checks the one-bin curriculum against
a second code.
"""

from spdcl.scheduler import EpochPlan, epoch_rng


def baseline_plan(sample_ids, shuffle_seed: int, epoch: int) -> EpochPlan:
    all_ids = sorted(sample_ids)
    perm = epoch_rng(shuffle_seed, epoch).permutation(len(all_ids))
    return EpochPlan(
        epoch=epoch,
        visible_bins=1,
        ordered_ids=[all_ids[i] for i in perm],
        bin_of={sid: 1 for sid in all_ids},
    )
