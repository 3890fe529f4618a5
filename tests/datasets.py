"""Build packed datasets from per-sample rows, and read them back, for tests."""

import numpy as np

from spdcl.trainer import EncodedDataset, Vocabulary


def pack_dataset(samples, vocab_size, n_labels, task_kind="multiclass") -> EncodedDataset:
    """An ``EncodedDataset`` of ``(sample_id, token_ids, target)`` rows, in the given order.

    A target is a class index (multiclass) or a 0/1 vector (multilabel).  The
    vocabulary has ``vocab_size`` entries, PAD and UNK included.
    """
    samples = list(samples)
    return EncodedDataset(
        sample_ids=[sid for sid, _, _ in samples],
        tokens=np.array([t for _, tokens, _ in samples for t in tokens], dtype=np.int64),
        offsets=np.cumsum([0] + [len(tokens) for _, tokens, _ in samples]),
        targets=np.array([target for _, _, target in samples], dtype=np.int64),
        vocab=Vocabulary(tuple(f"w{i}" for i in range(2, vocab_size))),
        label_names=[f"l{i}" for i in range(n_labels)],
        task_kind=task_kind,
    )


def sample_rows(data: EncodedDataset) -> dict:
    """Each sample's ``(token_ids, target)``, keyed by id: token ids as a list,
    the target as an int (multiclass) or a 0/1 array (multilabel)."""
    return {
        sid: (data.tokens[start:end].tolist(), target if target.ndim else int(target))
        for sid, start, end, target in zip(data.sample_ids, data.offsets[:-1], data.offsets[1:], data.targets)
    }
