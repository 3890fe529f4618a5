import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdcl.metrics import evaluate, label_frequency_groups

# --------------------------------------------------------- counting oracles
# Plain-Python loops, no numpy: the independent route every field of
# evaluate's report must agree with exactly.


def oracle_counts(truth, pred, label):
    tp = fp = fn = 0
    for t_row, p_row in zip(truth, pred):
        t, p = t_row[label], p_row[label]
        if t == 1 and p == 1:
            tp += 1
        elif t == 0 and p == 1:
            fp += 1
        elif t == 1 and p == 0:
            fn += 1
    return tp, fp, fn


def oracle_f1(tp, fp, fn):
    denom = 2 * tp + fp + fn
    return 0.0 if denom == 0 else 2.0 * tp / denom


def oracle_micro(truth, pred):
    tp = fp = fn = 0
    for lab in range(len(truth[0])):
        a, b, c = oracle_counts(truth, pred, lab)
        tp, fp, fn = tp + a, fp + b, fn + c
    return oracle_f1(tp, fp, fn)


def oracle_macro(truth, pred):
    scores = [oracle_f1(*oracle_counts(truth, pred, lab)) for lab in range(len(truth[0]))]
    return sum(scores) / len(scores)


def oracle_hamming(truth, pred):
    wrong = sum(
        1 for t_row, p_row in zip(truth, pred) for t, p in zip(t_row, p_row) if t != p
    )
    return wrong / (len(truth) * len(truth[0]))


def oracle_subset(truth, pred):
    exact = sum(1 for t_row, p_row in zip(truth, pred) if list(t_row) == list(p_row))
    return exact / len(truth)


def oracle_matthews(truth, pred):
    tp = sum(1 for t, p in zip(truth, pred) if t == 1 and p == 1)
    tn = sum(1 for t, p in zip(truth, pred) if t == 0 and p == 0)
    fp = sum(1 for t, p in zip(truth, pred) if t == 0 and p == 1)
    fn = sum(1 for t, p in zip(truth, pred) if t == 1 and p == 0)
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    return 0.0 if denom == 0 else (tp * tn - fp * fn) / math.sqrt(denom)


def random_pair(rng, n, labels):
    truth = rng.integers(0, 2, size=(n, labels))
    pred = rng.integers(0, 2, size=(n, labels))
    return truth, pred


# ------------------------------------------------------------- fixed cases


def test_micro_f1_endpoints_and_hand_case():
    truth = np.array([[1, 0, 1], [0, 1, 0], [1, 1, 0], [0, 0, 1]])
    assert evaluate(truth, truth).micro_f1 == 1.0
    assert evaluate(truth, np.zeros_like(truth)).micro_f1 == 0.0
    # hand count: pred flips one positive off and one negative on
    pred = np.array([[1, 0, 0], [0, 1, 1], [1, 1, 0], [0, 0, 1]])
    # tp=5, fn=1, fp=1 -> 2*5/(10+1+1)
    assert evaluate(truth, pred).micro_f1 == pytest.approx(10 / 12)


def test_macro_f1_zero_convention():
    # one label predicted perfectly, one label absent everywhere -> (1+0)/2
    truth = np.array([[1, 0], [1, 0], [0, 0]])
    pred = truth.copy()
    assert evaluate(truth, pred).macro_f1 == pytest.approx(0.5)
    full = np.array([[1, 1], [1, 1]])
    assert evaluate(full, full).macro_f1 == 1.0


def test_hamming_loss_cases():
    truth = np.array([[1, 0], [0, 1]])
    assert evaluate(truth, truth).hamming_loss == 0.0
    one_bit = np.array([[1, 1], [0, 1]])
    assert evaluate(truth, one_bit).hamming_loss == 0.25
    assert evaluate(truth, 1 - truth).hamming_loss == 1.0


def test_subset_accuracy_cases():
    truth = np.array([[1, 0], [0, 1], [1, 1], [0, 0]])
    assert evaluate(truth, truth).subset_accuracy == 1.0
    assert evaluate(truth, 1 - truth).subset_accuracy == 0.0
    half = truth.copy()
    half[2:] = 1 - half[2:]
    assert evaluate(truth, half).subset_accuracy == 0.5


def test_matthews_cases():
    truth = np.array([1, 0, 1, 0, 1])
    assert evaluate(truth, truth).matthews_corr == pytest.approx(1.0)
    assert evaluate(truth, 1 - truth).matthews_corr == pytest.approx(-1.0)
    ten_t = np.array([1, 1, 1, 0, 0, 0, 1, 0, 1, 0])
    ten_p = np.array([1, 0, 1, 0, 1, 0, 1, 0, 0, 0])
    # tp=3 tn=4 fp=1 fn=2 -> (12-2)/sqrt(4*5*5*6)
    assert evaluate(ten_t, ten_p).matthews_corr == pytest.approx(10 / math.sqrt(600))
    degenerate = evaluate(np.array([1, 1]), np.array([1, 1]), n_labels=2)  # no class-0 sample
    assert degenerate.matthews_corr == 0.0  # degenerate factor


def test_binary_f1_cases():
    truth = np.array([1, 0, 1, 1, 0])
    assert evaluate(truth, truth).binary_f1 == 1.0
    assert evaluate(truth, np.zeros(5, dtype=int)).binary_f1 == 0.0
    pred = np.array([1, 1, 0, 1, 0])
    # tp=2 fp=1 fn=1
    assert evaluate(truth, pred).binary_f1 == pytest.approx(4 / 6)


def test_shape_and_type_rejection():
    with pytest.raises(ValueError, match="shape mismatch"):
        evaluate(np.zeros((2, 3), dtype=int), np.zeros((3, 2), dtype=int))
    with pytest.raises(ValueError, match="out of range"):  # a binary task holds only classes 0 and 1
        evaluate(np.array([0, 2]), np.array([0, 1]), n_labels=2)
    with pytest.raises(ValueError, match="0 or 1"):
        as_bad = np.array([[0.5, 1.0]])
        evaluate(as_bad, as_bad)


# --------------------------------------------------------- frequency groups


def test_groups_by_descending_frequency():
    # 8 labels with frequencies 8,7,...,1 -> four groups of two
    rows = []
    for count, lab in zip(range(8, 0, -1), range(8)):
        for _ in range(count):
            rows.append([1 if j == lab else 0 for j in range(8)])
    groups = label_frequency_groups(np.array(rows), n_groups=4)
    assert groups.tolist() == [0, 0, 1, 1, 2, 2, 3, 3]


def test_single_group_contains_everything():
    labels = np.array([[1, 0, 1], [0, 1, 1]])
    assert label_frequency_groups(labels, n_groups=1).tolist() == [0, 0, 0]
    with pytest.raises(ValueError, match="exceeds"):
        label_frequency_groups(labels, n_groups=4)


def test_groups_match_sort_and_slice_oracle():
    rng = np.random.default_rng(19)
    freqs = rng.integers(0, 40, size=12)
    rows = np.zeros((int(freqs.sum()), 12), dtype=int)
    pos = 0
    for lab, count in enumerate(freqs):
        rows[pos : pos + count, lab] = 1
        pos += count
    got = label_frequency_groups(rows, n_groups=5)
    order = sorted(range(12), key=lambda j: (-freqs[j], j))
    sizes = [3, 3, 2, 2, 2]  # 12 labels over 5 groups, remainder first
    expected = np.zeros(12, dtype=int)
    pos = 0
    for g, size in enumerate(sizes):
        for j in order[pos : pos + size]:
            expected[j] = g
        pos += size
    assert got.tolist() == expected.tolist()


def test_per_group_macro_f1():
    truth = np.array([[1, 0, 1, 0], [0, 1, 0, 1], [1, 1, 0, 0]])
    groups = np.array([0, 0, 1, 1])
    perfect = evaluate(truth, truth, groups=groups).per_group_macro_f1
    assert perfect == [1.0, 1.0]
    whole = evaluate(truth, truth, groups=np.zeros(4, dtype=int))
    assert whole.per_group_macro_f1 == [whole.macro_f1]
    with pytest.raises(ValueError, match="cover"):
        evaluate(truth, truth, groups=np.array([0, 0, 2, 2]))


# -------------------------------------------------------- oracle equivalence


def test_all_metrics_match_oracles_exactly():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(1, 30))
        labels = int(rng.integers(1, 8))
        truth, pred = random_pair(rng, n, labels)
        t_list, p_list = truth.tolist(), pred.tolist()
        report = evaluate(truth, pred)
        assert report.micro_f1 == oracle_micro(t_list, p_list)
        assert report.macro_f1 == oracle_macro(t_list, p_list)
        assert report.hamming_loss == oracle_hamming(t_list, p_list)
        assert report.subset_accuracy == oracle_subset(t_list, p_list)
        assert report.matthews_corr is None and report.binary_f1 is None
        tv = rng.integers(0, 2, size=n)
        pv = rng.integers(0, 2, size=n)
        binary = evaluate(tv, pv, n_labels=2)
        assert binary.matthews_corr == oracle_matthews(tv.tolist(), pv.tolist())
        assert binary.binary_f1 == oracle_f1(
            *oracle_counts([[t] for t in tv.tolist()], [[p] for p in pv.tolist()], 0)
        )


# --------------------------------------------------------------- properties


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 20), st.integers(1, 6))
def test_perfect_prediction_is_perfect(seed, n, labels):
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, 2, size=(n, labels))
    truth[0] = 1  # every label represented at least once
    report = evaluate(truth, truth)
    assert report.micro_f1 == 1.0
    assert report.macro_f1 == 1.0
    assert report.subset_accuracy == 1.0
    assert report.hamming_loss == 0.0


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 20), st.integers(1, 6))
def test_hamming_complement_identity(seed, n, labels):
    rng = np.random.default_rng(seed)
    truth, pred = random_pair(rng, n, labels)
    assert evaluate(truth, pred).hamming_loss + evaluate(truth, 1 - pred).hamming_loss == pytest.approx(1.0)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 20), st.integers(2, 6))
def test_label_permutation_invariance(seed, n, labels):
    rng = np.random.default_rng(seed)
    truth, pred = random_pair(rng, n, labels)
    perm = rng.permutation(labels)
    permuted = evaluate(truth[:, perm], pred[:, perm])
    report = evaluate(truth, pred)
    assert permuted.micro_f1 == report.micro_f1
    assert permuted.macro_f1 == pytest.approx(report.macro_f1)
    assert permuted.hamming_loss == report.hamming_loss
    assert permuted.subset_accuracy == report.subset_accuracy


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 25), st.integers(2, 9), st.data())
def test_group_weighted_mean_equals_global_macro(seed, n, labels, data):
    n_groups = data.draw(st.integers(1, labels))
    rng = np.random.default_rng(seed)
    truth, pred = random_pair(rng, n, labels)
    train_labels = rng.integers(0, 2, size=(40, labels))
    groups = label_frequency_groups(train_labels, n_groups=n_groups)
    report = evaluate(truth, pred, groups=groups)
    sizes = [int((groups == g).sum()) for g in range(n_groups)]
    weighted = sum(f * s for f, s in zip(report.per_group_macro_f1, sizes)) / labels
    assert abs(weighted - report.macro_f1) <= 1e-12


# ------------------------------------------------------------- evaluate()


def test_evaluate_multiclass_binary_extras():
    truth = np.array([0, 1, 1, 0])
    pred = np.array([0, 1, 0, 0])
    report = evaluate(truth, pred, n_labels=2)
    # tp=1 tn=2 fp=0 fn=1 for class 1
    assert report.matthews_corr == oracle_matthews(truth.tolist(), pred.tolist()) == pytest.approx(2 / math.sqrt(12))
    assert report.binary_f1 == oracle_f1(1, 0, 1)
    assert report.subset_accuracy == 0.75


def test_evaluate_multilabel_has_no_binary_extras():
    truth = np.array([[1, 0, 1], [0, 1, 0]])
    report = evaluate(truth, truth, groups=np.array([0, 0, 1]))
    assert report.matthews_corr is None
    assert report.per_group_macro_f1 == [1.0, 1.0]
