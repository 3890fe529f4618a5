"""The set-up encoder as it was before each training text was split once,
the oracle for ``spdcl.trainer.encode_datasets``.

``build_vocabulary`` lowercases and splits every training text to count its
tokens; ``encode_datasets`` then sends every text of both splits through
``tokenize``, which lowercases and splits it again and looks each token up
in a word-to-index dict of its own, with an UNK fallback.  Slower, but each
step is plain to read, and it shares no tokenizing code with the library:
the library's packed datasets must equal these array for array.
"""

from collections import Counter
from itertools import chain

import numpy as np

from spdcl import io as spdcl_io
from spdcl.trainer import UNK_INDEX, EncodedDataset, Vocabulary


def build_vocabulary(texts) -> dict[str, int]:
    """Dense indices from 2 upward by descending frequency, ties alphabetical."""
    counts = Counter(chain.from_iterable(map(str.split, map(str.lower, texts))))
    ordered = sorted(counts)
    ordered.sort(key=counts.__getitem__, reverse=True)  # stable: ties stay alphabetical
    return {t: i for i, t in enumerate(ordered, start=2)}


def tokenize(text, index_of: dict[str, int], max_len: int) -> list[int]:
    """Lowercase, whitespace-split, map with UNK fallback, truncate; empty text is one UNK."""
    ids = [index_of.get(tok, UNK_INDEX) for tok in text.lower().split()]
    if not ids:
        return [UNK_INDEX]
    return ids[:max_len]


def encode_datasets(train, valid, task_kind, max_len=250):
    """Both splits packed, the training split in ascending id order."""
    if task_kind not in spdcl_io.TASK_KINDS:
        raise ValueError(f"task_kind must be one of {spdcl_io.TASK_KINDS}")
    index_of = build_vocabulary([s.text for s in train])
    vocab = Vocabulary(tuple(index_of))  # a dict keeps its words in index order
    label_names = sorted({lab for s in train for lab in s.labels})
    label_index = {lab: i for i, lab in enumerate(label_names)}

    def encode(samples):
        flat: list[int] = []
        lengths = [0]
        for s in samples:
            if task_kind == "multiclass" and len(s.labels) != 1:
                raise ValueError(f"multiclass sample {s.sample_id!r} must have exactly one label")
            ids = tokenize(s.text, index_of, max_len)
            flat += ids
            lengths.append(len(ids))
        if task_kind == "multiclass":
            targets = np.fromiter((label_index[s.labels[0]] for s in samples), dtype=np.int64, count=len(samples))
        else:
            targets = np.zeros((len(samples), len(label_names)), dtype=np.int64)
            for row, s in enumerate(samples):
                targets[row, [label_index[lab] for lab in s.labels]] = 1
        return EncodedDataset(
            sample_ids=[s.sample_id for s in samples],
            tokens=np.fromiter(flat, dtype=np.int64, count=len(flat)),
            offsets=np.cumsum(lengths),
            targets=targets,
            vocab=vocab,
            label_names=label_names,
            task_kind=task_kind,
        )

    encoded_train = encode(sorted(train, key=lambda s: s.sample_id))
    for s in valid:  # training labels are in label_index by construction
        unseen = [lab for lab in s.labels if lab not in label_index]
        if unseen:
            raise ValueError(f"valid sample {s.sample_id!r} has labels unseen in training: {unseen}")
    return encoded_train, encode(valid)
