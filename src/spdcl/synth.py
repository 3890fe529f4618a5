"""Synthetic text datasets for desk-scale experiments.

A Zipf-distributed multiclass set whose class frequencies form a long
tail.  Every class draws from its own disjoint token pool, mixed with shared
filler words at ``noise_rate``; with ``noise_rate=0.0`` the set is linearly
separable (a linear model can fit it perfectly).  Text lengths vary per
sample, which is what makes the length-vs-norm behaviour observable on
epoch-1 scores.
"""

from __future__ import annotations

import numpy as np

from spdcl.io import TextSample

_FILLER = ("the", "of", "and", "to", "in", "it", "is", "on", "for", "as")


def _zipf_probs(n_classes: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, n_classes + 1)
    return weights / weights.sum()


def _class_tokens(label: int, pool: int = 8) -> list[str]:
    return [f"w{label}_{j}" for j in range(pool)]


def _compose(rng, class_pool, length, noise_rate):
    toks = []
    for _ in range(length):
        if noise_rate > 0.0 and rng.random() < noise_rate:
            toks.append(_FILLER[rng.integers(len(_FILLER))])
        else:
            toks.append(class_pool[rng.integers(len(class_pool))])
    return " ".join(toks)


def _split(rng, prefix, count, n_classes, probs, noise_rate, min_len, max_len):
    samples = []
    for i in range(count):
        label = int(rng.choice(n_classes, p=probs))
        length = int(rng.integers(min_len, max_len + 1))
        text = _compose(rng, _class_tokens(label), length, noise_rate)
        samples.append(TextSample(f"{prefix}-{i:05d}", text, (f"c{label}",)))
    return samples


def make_zipfian_dataset(
    n_train: int = 1000,
    n_valid: int = 200,
    n_classes: int = 10,
    seed: int = 0,
    noise_rate: float = 0.3,
    min_len: int = 3,
    max_len: int = 20,
) -> tuple[list[TextSample], list[TextSample]]:
    """Imbalanced multiclass set: class c is drawn with probability ~ 1/(c+1)."""
    rng = np.random.default_rng(seed)
    probs = _zipf_probs(n_classes)
    train = _split(rng, "train", n_train, n_classes, probs, noise_rate, min_len, max_len)
    valid = _split(rng, "valid", n_valid, n_classes, probs, noise_rate, min_len, max_len)
    return train, valid

