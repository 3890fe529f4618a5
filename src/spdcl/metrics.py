"""Evaluation metrics for imbalanced classification.

Micro/Macro-F1, Hamming loss, subset accuracy, Matthews correlation and
binary F1, plus long-tail breakdowns: labels are grouped by training-set
frequency and Macro-F1 is reported per group so improvements on rare labels
stay visible.

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


def _pair(truth, pred, n_labels=None) -> tuple[np.ndarray, np.ndarray]:
    t = as_indicator(truth, n_labels)
    p = as_indicator(pred, n_labels if n_labels is not None else t.shape[1])
    if t.shape != p.shape:
        raise ValueError(f"shape mismatch: truth {t.shape} vs pred {p.shape}")
    return t, p


def _f1_from_counts(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    if denom == 0:
        return 0.0
    return 2.0 * tp / denom


def micro_f1(truth, pred, n_labels: int | None = None) -> float:
    """F1 over globally pooled true/false positives and false negatives."""
    return _micro_f1(*_pair(truth, pred, n_labels))


def _micro_f1(t: np.ndarray, p: np.ndarray) -> float:
    tp = int(((t == 1) & (p == 1)).sum())
    fp = int(((t == 0) & (p == 1)).sum())
    fn = int(((t == 1) & (p == 0)).sum())
    return _f1_from_counts(tp, fp, fn)


def _per_label_f1(t: np.ndarray, p: np.ndarray) -> list[float]:
    tp = ((t == 1) & (p == 1)).sum(axis=0)
    fp = ((t == 0) & (p == 1)).sum(axis=0)
    fn = ((t == 1) & (p == 0)).sum(axis=0)
    return [_f1_from_counts(int(a), int(b), int(c)) for a, b, c in zip(tp, fp, fn)]


def macro_f1(truth, pred, n_labels: int | None = None) -> float:
    """Unweighted mean of per-label F1; labels absent everywhere count as 0."""
    scores = _per_label_f1(*_pair(truth, pred, n_labels))
    return sum(scores) / len(scores)


def hamming_loss(truth, pred, n_labels: int | None = None) -> float:
    """Fraction of label positions where truth and prediction disagree."""
    return _hamming_loss(*_pair(truth, pred, n_labels))


def _hamming_loss(t: np.ndarray, p: np.ndarray) -> float:
    return int((t != p).sum()) / t.size


def subset_accuracy(truth, pred, n_labels: int | None = None) -> float:
    """Fraction of samples whose whole label vector matches exactly."""
    return _subset_accuracy(*_pair(truth, pred, n_labels))


def _subset_accuracy(t: np.ndarray, p: np.ndarray) -> float:
    return int((t == p).all(axis=1).sum()) / t.shape[0]


def _binary_counts(truth, pred) -> tuple[int, int, int, int]:
    t = np.asarray(truth)
    p = np.asarray(pred)
    if t.ndim != 1 or p.ndim != 1 or t.shape != p.shape:
        raise ValueError("binary metrics need two 1-D vectors of equal length")
    if not (np.isin(t, (0, 1)).all() and np.isin(p, (0, 1)).all()):
        raise ValueError("binary metrics need 0/1 labels")
    tp = int(((t == 1) & (p == 1)).sum())
    tn = int(((t == 0) & (p == 0)).sum())
    fp = int(((t == 0) & (p == 1)).sum())
    fn = int(((t == 1) & (p == 0)).sum())
    return tp, tn, fp, fn


def matthews(truth, pred) -> float:
    """Matthews correlation coefficient for a binary task; 0 when undefined."""
    tp, tn, fp, fn = _binary_counts(truth, pred)
    denom_sq = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom_sq == 0:
        return 0.0
    return (tp * tn - fp * fn) / math.sqrt(denom_sq)


def binary_f1(truth, pred) -> float:
    """F1 of the positive class for a binary task."""
    tp, _, fp, fn = _binary_counts(truth, pred)
    return _f1_from_counts(tp, fp, fn)


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


def macro_f1_per_group(truth, pred, groups, n_labels: int | None = None) -> list[float]:
    """Macro-F1 restricted to each frequency group's labels."""
    return _group_macro_f1(_per_label_f1(*_pair(truth, pred, n_labels)), groups)


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
    """All metrics at once, from labels checked once; binary extras appear for 2-class index vectors."""
    t, p = _pair(truth, pred, n_labels)
    mcc = None
    bf1 = None
    truth_arr = np.asarray(truth)
    if truth_arr.ndim == 1 and t.shape[1] == 2:
        mcc = matthews(truth_arr, np.asarray(pred))
        bf1 = binary_f1(truth_arr, np.asarray(pred))
    scores = _per_label_f1(t, p)
    return EvalReport(
        micro_f1=_micro_f1(t, p),
        macro_f1=sum(scores) / len(scores),
        hamming_loss=_hamming_loss(t, p),
        subset_accuracy=_subset_accuracy(t, p),
        matthews_corr=mcc,
        binary_f1=bf1,
        per_group_macro_f1=None if groups is None else _group_macro_f1(scores, groups),
    )
