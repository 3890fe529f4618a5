"""Self-paced dynamic curriculum learning toolkit.

Difficulty scoring from nuclear norms of per-sample embedding matrices,
epoch-over-epoch difficulty re-estimation, progressive easy-to-hard training
schedules, a small deterministic text-classification trainer to exercise the
loop end to end, and imbalanced-classification metrics.
"""

from spdcl.nucnorm import (
    EmbeddingDump,
    nuclear_norm,
    singular_values,
)
from spdcl.difficulty import (
    ScoreTable,
    delta_scores,
    dump_norms,
    initial_scores,
)
from spdcl.scheduler import (
    CurriculumConfig,
    EpochPlan,
    build_epoch_plan,
    partition_bins,
)
from spdcl.metrics import (
    EvalReport,
    binary_f1,
    evaluate,
    hamming_loss,
    label_frequency_groups,
    macro_f1,
    macro_f1_per_group,
    matthews,
    micro_f1,
    subset_accuracy,
)
from spdcl.trainer import (
    Gradients,
    ModelParams,
    TrainHyper,
    TrainingDiverged,
    TrainStats,
    Vocabulary,
    embed_sample,
    forward,
    loss_and_grad,
    run_baseline,
    run_spdcl,
    train_epoch,
)

__version__ = "0.1.0"
