"""Evaluation metrics for imbalanced classification.

``evaluate`` is the one entry: it checks the labels once and reports
Micro/Macro-F1, Hamming loss and subset accuracy, Matthews correlation and
binary F1 for a binary task, and a long-tail breakdown: labels are grouped
by training-set frequency (``label_frequency_groups``) and Macro-F1 is
reported per group so improvements on rare labels stay visible.

Zero-denominator convention throughout: any F1 or Mcc whose denominator
vanishes is reported as 0 rather than NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def as_indicator(labels, n_labels: int | None = None) -> np.ndarray:
    """Coerce a label argument to an (n_samples, n_labels) binary matrix.

    Accepts either a binary indicator matrix or a 1-D class-index vector
    (which is one-hot encoded).
    """
    arr = np.asarray(labels)
    if arr.ndim == 1:
        if arr.size == 0:
            raise ValueError("empty label vector")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError("class-index vector must be integer")
        if arr.min() < 0:
            raise ValueError("class indices must be >= 0")
        width = int(arr.max()) + 1 if n_labels is None else n_labels
        if arr.max() >= width:
            raise ValueError("class index out of range for n_labels")
        out = np.zeros((arr.size, width), dtype=np.int64)
        out[np.arange(arr.size), arr] = 1
        return out
    if arr.ndim == 2:
        if not np.isin(arr, (0, 1)).all():
            raise ValueError("indicator matrix entries must be 0 or 1")
        return arr.astype(np.int64)
    raise ValueError(f"labels must be 1-D or 2-D, got shape {arr.shape}")


def _f1_from_counts(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    if denom == 0:
        return 0.0
    return 2.0 * tp / denom


def label_frequency_groups(train_labels, n_groups: int = 4) -> np.ndarray:
    """Group labels by descending training-set frequency.

    Returns an array with one group index (0 = most frequent group) per
    label.  Groups are contiguous slices of the frequency-sorted label list
    with near-equal label counts; earlier groups take the remainder.  Ties
    break by ascending label index.
    """
    mat = as_indicator(train_labels)
    n_lab = mat.shape[1]
    if n_groups < 1:
        raise ValueError("n_groups must be >= 1")
    if n_groups > n_lab:
        raise ValueError(f"n_groups={n_groups} exceeds label count {n_lab}")
    freq = mat.sum(axis=0)
    order = sorted(range(n_lab), key=lambda j: (-freq[j], j))
    assignment = np.empty(n_lab, dtype=np.int64)
    for g, members in enumerate(np.array_split(order, n_groups)):
        assignment[members] = g
    return assignment


def _group_macro_f1(scores: list[float], groups) -> list[float]:
    assignment = np.asarray(groups)
    if assignment.ndim != 1 or assignment.shape[0] != len(scores):
        raise ValueError("groups must assign one group per label")
    n_groups = int(assignment.max()) + 1
    present = set(assignment.tolist())
    if present != set(range(n_groups)):
        raise ValueError("group ids must cover 0..G-1 with no gaps")
    out = []
    for g in range(n_groups):
        members = [scores[j] for j in range(len(scores)) if assignment[j] == g]
        out.append(sum(members) / len(members))
    return out


@dataclass(frozen=True)
class EvalReport:
    """Metric bundle for one evaluation pass.

    ``matthews_corr`` and ``binary_f1`` are only set for binary tasks;
    ``per_group_macro_f1`` only when a frequency grouping was supplied.
    """

    micro_f1: float
    macro_f1: float
    hamming_loss: float
    subset_accuracy: float
    matthews_corr: float | None = None
    binary_f1: float | None = None
    per_group_macro_f1: list[float] | None = None


def evaluate(truth, pred, n_labels: int | None = None, groups=None) -> EvalReport:
    """All metrics at once, from labels checked once.

    ``truth`` and ``pred`` are each a 1-D class-index vector or a 0/1
    indicator matrix.  Micro-F1 pools true/false positives and false
    negatives over all labels; Macro-F1 is the unweighted mean of per-label
    F1, a label absent everywhere counting as 0; Hamming loss is the share
    of label positions that disagree; subset accuracy the share of samples
    whose whole label vector matches.  A 2-class index vector ``truth`` is a
    binary task: Matthews correlation and binary F1 are then computed for
    class 1 (0 when undefined).  ``groups`` (one group id per label, ids
    covering 0..G-1) adds Macro-F1 restricted to each group's labels.
    """
    t = as_indicator(truth, n_labels)
    p = as_indicator(pred, n_labels if n_labels is not None else t.shape[1])
    if t.shape != p.shape:
        raise ValueError(f"shape mismatch: truth {t.shape} vs pred {p.shape}")
    tp = ((t == 1) & (p == 1)).sum(axis=0)
    fp = ((t == 0) & (p == 1)).sum(axis=0)
    fn = ((t == 1) & (p == 0)).sum(axis=0)
    scores = [_f1_from_counts(int(a), int(b), int(c)) for a, b, c in zip(tp, fp, fn)]
    mcc = None
    bf1 = None
    if np.ndim(truth) == 1 and t.shape[1] == 2:
        tp1, fp1, fn1 = int(tp[1]), int(fp[1]), int(fn[1])
        tn1 = t.shape[0] - tp1 - fp1 - fn1
        denom_sq = (tp1 + fp1) * (tp1 + fn1) * (tn1 + fp1) * (tn1 + fn1)
        mcc = 0.0 if denom_sq == 0 else (tp1 * tn1 - fp1 * fn1) / math.sqrt(denom_sq)
        bf1 = scores[1]
    return EvalReport(
        micro_f1=_f1_from_counts(int(tp.sum()), int(fp.sum()), int(fn.sum())),
        macro_f1=sum(scores) / len(scores),
        hamming_loss=int((t != p).sum()) / t.size,
        subset_accuracy=int((t == p).all(axis=1).sum()) / t.shape[0],
        matthews_corr=mcc,
        binary_f1=bf1,
        per_group_macro_f1=None if groups is None else _group_macro_f1(scores, groups),
    )
