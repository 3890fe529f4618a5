import math
import re
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdcl import io as spdcl_io
from spdcl import difficulty, nucnorm, trainer
from spdcl.difficulty import dump_norms
from spdcl.io import RunConfig, TextSample
from spdcl.nucnorm import DumpLayout, EmbeddingDump, nuclear_norm
from spdcl.scheduler import EpochPlan
from spdcl.trainer import (
    EncodedDataset,
    ModelParams,
    TrainingDiverged,
    TrainHyper,
    Vocabulary,
    embed_sample,
    encode_datasets,
    init_params,
    loss_and_grad,
    predict,
    run_baseline,
    run_spdcl,
    train_epoch,
)
from spdcl.synth import make_zipfian_dataset

import reference_encode
from datasets import pack_dataset, sample_rows
from reference_sgd import dense_train_epoch, list_packed_train_epoch, per_sample_predict


def tiny_params(vocab_size=6, hidden=3, n_labels=2, task_kind="multiclass", seed=0):
    return init_params(vocab_size, hidden, n_labels, task_kind, seed)


# ------------------------------------------------------------- tokenization


def token_lists(data):
    """Each sample's token ids, in the dataset's row order."""
    return [data.tokens[a:b].tolist() for a, b in zip(data.offsets[:-1].tolist(), data.offsets[1:].tolist())]


def test_tokenize_case_folding_and_unk():
    # Case folds in both splits; a word the training split never holds is
    # UNK (1), and so is an empty text, as one token.
    train = [TextSample("t0", "the THE The", ("x",)), TextSample("t1", "", ("x",)), TextSample("t2", "a", ("x",))]
    valid = [
        TextSample("v0", "The THE the", ("x",)),
        TextSample("v1", "", ("x",)),
        TextSample("v2", "the unknown UNKNOWN", ("x",)),
    ]
    train_enc, valid_enc = encode_datasets(train, valid, "multiclass", max_len=10)
    assert train_enc.vocab.words == ("the", "a")
    assert token_lists(train_enc) == [[2, 2, 2], [1], [3]]
    assert token_lists(valid_enc) == [[2, 2, 2], [1], [2, 1, 1]]


def test_tokenize_truncates():
    # Every text keeps its first max_len tokens; the vocabulary counts all
    # of them (a: 3, b: 3, c: 1), ties alphabetical.
    train = [TextSample("t0", "b b a a a", ("x",)), TextSample("t1", "b c", ("x",))]
    valid = [TextSample("v0", "a a a a a", ("x",)), TextSample("v1", "c zz b", ("x",))]
    train_enc, valid_enc = encode_datasets(train, valid, "multiclass", max_len=2)
    assert train_enc.vocab.words == ("a", "b", "c")
    assert token_lists(train_enc) == [[3, 3], [3, 4]]
    assert token_lists(valid_enc) == [[2, 2], [4, 1]]


@pytest.mark.parametrize("max_len", [2.5, True, 0])
def test_vocabulary_rejects_bad_max_len(max_len):
    with pytest.raises(ValueError, match="max_len"):
        encode_datasets([TextSample("t0", "a b", ("x",))], [], "multiclass", max_len=max_len)


def test_vocabulary_hand_enumeration():
    # 3-document corpus; indices by descending frequency, ties alphabetical.
    texts = ["red blue red", "green blue red", "blue zebra"]
    train = [TextSample(f"t{i}", text, ("x",)) for i, text in enumerate(texts)]
    vocab = encode_datasets(train, [TextSample("v0", "okapi", ("x",))], "multiclass", max_len=16)[0].vocab
    # counts: red=3, blue=3, green=1, zebra=1; a validation word is never counted
    assert vocab.words == ("blue", "red", "green", "zebra")
    assert vocab.size == 6


# Mixed case, a capital whose lowercase form is longer ("İ" -> "i̇"), and
# separators that str.split splits on beyond ASCII whitespace.
_WORDS = ("a", "A", "ab", "aB", "İ", "i̇", "ǅ", "zz")
_UNSEEN = ("new", "NEW", "ﬀ")
_SEPARATORS = (" ", "  ", "\t", "\n", "\u2028", "\u3000", "\x1c")


@st.composite
def _text(draw, words=_WORDS):
    lead = draw(st.sampled_from(("",) + _SEPARATORS))
    pairs = draw(st.lists(st.tuples(st.sampled_from(words), st.sampled_from(_SEPARATORS)), max_size=9))
    return lead + "".join(w + sep for w, sep in pairs)


@st.composite
def _splits(draw, task_kind):
    labels = ["c0", "c1", "c2"]
    label_sets = (
        st.sampled_from(labels).map(lambda lab: (lab,))
        if task_kind == "multiclass"
        else st.sets(st.sampled_from(labels), min_size=1).map(lambda s: tuple(sorted(s)))
    )
    ids = draw(st.lists(st.text("abc", min_size=1, max_size=3), max_size=12, unique=True))
    train = [TextSample(sid, draw(_text()), draw(label_sets)) for sid in ids]
    if not train:
        return train, []
    seen = sorted({lab for s in train for lab in s.labels})
    valid_labels = (
        st.sampled_from(seen).map(lambda lab: (lab,))
        if task_kind == "multiclass"
        else st.sets(st.sampled_from(seen), min_size=1).map(lambda s: tuple(sorted(s)))
    )
    n_valid = draw(st.integers(0, 6))
    valid = [TextSample(f"v{i}", draw(_text(_WORDS + _UNSEEN)), draw(valid_labels)) for i in range(n_valid)]
    return train, valid


@pytest.mark.parametrize("task_kind", ["multiclass", "multilabel"])
@settings(max_examples=150, deadline=None)
@given(data=st.data(), max_len=st.integers(1, 6))
def test_encode_matches_reference(task_kind, data, max_len):
    train_s, valid_s = data.draw(_splits(task_kind))
    got = encode_datasets(train_s, valid_s, task_kind, max_len=max_len)
    want = reference_encode.encode_datasets(train_s, valid_s, task_kind, max_len=max_len)
    for g, w in zip(got, want):
        assert g.sample_ids == w.sample_ids
        for name in ("tokens", "offsets", "targets"):
            a, b = getattr(g, name), getattr(w, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert g.vocab.words == w.vocab.words
        assert g.label_names == w.label_names


# ---------------------------------------------------------------- embedding


def test_embed_sample_repeats_rows():
    params = tiny_params()
    rows = embed_sample(params, [2, 2])
    assert rows.shape == (2, params.hidden)
    assert np.array_equal(rows[0], rows[1])
    assert np.array_equal(rows[0], params.embedding_table[2])


def test_zeroed_table_gives_zero_norm():
    params = tiny_params()
    zeroed = ModelParams(
        embedding_table=np.zeros_like(params.embedding_table),
        head_weights=params.head_weights,
        head_bias=params.head_bias,
        task_kind=params.task_kind,
    )
    assert nuclear_norm(embed_sample(zeroed, [1, 2, 3])) == 0.0


def test_embed_rejects_out_of_range_and_empty():
    params = tiny_params()
    with pytest.raises(ValueError, match="out of range"):
        embed_sample(params, [99])
    with pytest.raises(ValueError, match="empty"):
        embed_sample(params, [])


def test_norm_grows_weakly_with_appended_tokens():
    rng = np.random.default_rng(8)
    params = tiny_params(vocab_size=20, hidden=4)
    ids = list(rng.integers(0, 20, size=12))
    norms = [nuclear_norm(embed_sample(params, ids[: k + 1])) for k in range(len(ids))]
    assert all(b >= a - 1e-9 for a, b in zip(norms, norms[1:]))


# ------------------------------------------------------------ forward pass


def pooled_logits(params, ids):
    """One sample's logits: the pooling that predict and the batch kernel run, then the head."""
    pooled = trainer._pool(params.embedding_table, *trainer._pack([ids], params.embedding_table.shape[0]))
    return (pooled @ params.head_weights + params.head_bias)[0]


def test_forward_zero_params_returns_bias():
    bias = np.array([0.3, -0.7])
    params = ModelParams(
        embedding_table=np.zeros((4, 3)),
        head_weights=np.zeros((3, 2)),
        head_bias=bias,
        task_kind="multiclass",
    )
    assert np.allclose(pooled_logits(params, [1, 2]), bias)


def test_forward_identity_head_returns_embedding_row():
    table = np.arange(8.0).reshape(4, 2)
    params = ModelParams(
        embedding_table=table,
        head_weights=np.eye(2),
        head_bias=np.zeros(2),
        task_kind="multiclass",
    )
    assert np.allclose(pooled_logits(params, [3]), table[3])


def test_forward_hand_computed_two_tokens():
    table = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 4.0]])
    weights = np.array([[1.0, -1.0], [0.5, 2.0]])
    bias = np.array([0.1, 0.2])
    params = ModelParams(table, weights, bias, "multiclass")
    # pooled = mean(row1, row2) = [2, 3]; logits = pooled @ W + b
    expected = np.array([2 * 1.0 + 3 * 0.5 + 0.1, 2 * -1.0 + 3 * 2.0 + 0.2])
    assert np.allclose(pooled_logits(params, [1, 2]), expected)


# ------------------------------------------------------------------- losses


def test_uniform_logits_multiclass_loss_is_log_n():
    params = ModelParams(
        embedding_table=np.zeros((4, 3)),
        head_weights=np.zeros((3, 4)),
        head_bias=np.zeros(4),
        task_kind="multiclass",
    )
    loss, _ = loss_and_grad(params, [1, 2], 2)
    assert loss == pytest.approx(math.log(4))


def test_zero_logits_multilabel_all_zero_target_is_log_two():
    params = ModelParams(
        embedding_table=np.zeros((4, 3)),
        head_weights=np.zeros((3, 5)),
        head_bias=np.zeros(5),
        task_kind="multilabel",
    )
    loss, _ = loss_and_grad(params, [1], np.zeros(5, dtype=int))
    assert loss == pytest.approx(math.log(2))


def test_invalid_targets_rejected():
    params = tiny_params(task_kind="multiclass", n_labels=3)
    with pytest.raises(ValueError, match="out of range"):
        loss_and_grad(params, [1], 7)
    ml = tiny_params(task_kind="multilabel", n_labels=3)
    with pytest.raises(ValueError, match="0/1 vector"):
        loss_and_grad(ml, [1], np.array([0, 2, 1]))


def test_softmax_probabilities_sum_to_one():
    params = tiny_params(vocab_size=9, hidden=4, n_labels=5, seed=3)
    logits = pooled_logits(params, [1, 4, 7])
    shifted = logits - logits.max()
    probs = np.exp(shifted) / np.exp(shifted).sum()
    assert abs(probs.sum() - 1.0) <= 1e-12


def test_loss_is_never_negative():
    rng = np.random.default_rng(21)
    for task_kind in ("multiclass", "multilabel"):
        for seed in range(10):
            n_labels = int(rng.integers(2, 6))
            params = init_params(8, 3, n_labels, task_kind, seed)
            ids = list(rng.integers(0, 8, size=rng.integers(1, 5)))
            if task_kind == "multiclass":
                target = int(rng.integers(0, n_labels))
            else:
                target = rng.integers(0, 2, size=n_labels)
            loss, _ = loss_and_grad(params, ids, target)
            assert loss >= 0.0


# ------------------------------------------------- finite-difference oracle


def flatten_params(params):
    return np.concatenate(
        [params.embedding_table.ravel(), params.head_weights.ravel(), params.head_bias]
    )


def unflatten_params(flat, like):
    v, d = like.embedding_table.shape
    _, n = like.head_weights.shape
    emb = flat[: v * d].reshape(v, d)
    w = flat[v * d : v * d + d * n].reshape(d, n)
    b = flat[v * d + d * n :]
    return ModelParams(emb, w, b, like.task_kind)


def fd_gradient(params, ids, target, step=1e-5):
    flat = flatten_params(params)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] += step
        up, _ = loss_and_grad(unflatten_params(bumped, params), ids, target)
        bumped[i] -= 2 * step
        down, _ = loss_and_grad(unflatten_params(bumped, params), ids, target)
        grad[i] = (up - down) / (2 * step)
    return grad


@pytest.mark.parametrize("task_kind", ["multiclass", "multilabel"])
def test_gradients_match_central_differences(task_kind):
    rng = np.random.default_rng(17)
    for trial in range(5):
        v = int(rng.integers(4, 9))
        d = int(rng.integers(2, 5))
        n_labels = int(rng.integers(2, 5))
        params = init_params(v, d, n_labels, task_kind, seed=trial)
        ids = list(rng.integers(0, v, size=rng.integers(1, 6)))
        if task_kind == "multiclass":
            target = int(rng.integers(0, n_labels))
        else:
            target = rng.integers(0, 2, size=n_labels)
        _, grads = loss_and_grad(params, ids, target)
        analytic = np.concatenate(
            [grads.embedding_table.ravel(), grads.head_weights.ravel(), grads.head_bias]
        )
        numeric = fd_gradient(params, ids, target)
        assert np.max(np.abs(analytic - numeric)) <= 1e-6


# ------------------------------------------------------------- train_epoch


def make_encoded(task_kind="multiclass", n_train=24, n_valid=8, n_classes=3, seed=0):
    train, valid = make_zipfian_dataset(n_train, n_valid, n_classes, seed=seed)
    return encode_datasets(train, valid, task_kind, max_len=32)


def plan_over(ids, epoch=1):
    return EpochPlan(epoch=epoch, ordered_ids=list(ids), bin_of={s: 1 for s in ids})


def test_zero_lr_leaves_params_unchanged():
    train, _ = make_encoded()
    params = init_params(train.vocab.size, 4, len(train.label_names), "multiclass", 1)
    updated, stats = train_epoch(params, plan_over(train.sample_ids), train, lr=0.0, batch_size=5)
    assert np.array_equal(updated.embedding_table, params.embedding_table)
    assert np.array_equal(updated.head_weights, params.head_weights)
    assert stats.samples_seen == len(train.sample_ids)


def test_single_step_moves_against_gradient():
    train, _ = make_encoded()
    sid = train.sample_ids[0]
    params = init_params(train.vocab.size, 4, len(train.label_names), "multiclass", 1)
    _, grads = loss_and_grad(params, *sample_rows(train)[sid])
    updated, _ = train_epoch(params, plan_over([sid]), train, lr=0.5, batch_size=1)
    assert np.allclose(updated.head_bias, params.head_bias - 0.5 * grads.head_bias)
    assert np.allclose(updated.head_weights, params.head_weights - 0.5 * grads.head_weights)


def test_missing_sample_rejected():
    train, _ = make_encoded()
    params = init_params(train.vocab.size, 4, len(train.label_names), "multiclass", 1)
    with pytest.raises(ValueError, match="missing.*ghost"):
        train_epoch(params, plan_over(train.sample_ids[:3] + ("ghost",)), train, lr=0.1, batch_size=2)


def test_train_epoch_rejects_table_smaller_than_vocabulary():
    data = random_encoded("multiclass", vocab_size=10)
    params = init_params(6, 4, len(data.label_names), "multiclass", 1)
    with pytest.raises(ValueError, match="vocabulary of size 10 does not fit an embedding table of 6 rows"):
        train_epoch(params, plan_over(data.sample_ids), data, lr=0.1, batch_size=5)


def test_train_epoch_rejects_targets_the_head_cannot_fit():
    data = random_encoded("multiclass", n_labels=3)
    with pytest.raises(ValueError, match="3 labels do not fit a multiclass head of 2 outputs"):
        train_epoch(tiny_params(vocab_size=10, n_labels=2), plan_over(data.sample_ids), data, 0.1, 5)
    ml = random_encoded("multilabel", n_labels=3)
    with pytest.raises(ValueError, match="3 labels do not fit a multilabel head of 4 outputs"):
        train_epoch(tiny_params(10, 3, 4, "multilabel"), plan_over(ml.sample_ids), ml, 0.1, 5)
    with pytest.raises(ValueError, match="multilabel dataset cannot train multiclass"):
        train_epoch(tiny_params(10, 3, 3), plan_over(ml.sample_ids), ml, 0.1, 5)


def test_train_epoch_rejects_bad_batch_size():
    data = random_encoded("multiclass")
    params = tiny_params(vocab_size=10, n_labels=3)
    for size in (0, -1):
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            train_epoch(params, plan_over(data.sample_ids), data, 0.1, size)
    with pytest.raises(TypeError):
        train_epoch(params, plan_over(data.sample_ids), data, 0.1, 2.5)


def run_files(out_dir) -> dict[str, bytes]:
    """Every file a run wrote, by name: its dumps, scores, manifests and reports."""
    return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}


def test_two_runs_bit_identical(tmp_path):
    train, valid = make_encoded(n_train=30)
    config = RunConfig(bins_k=3, epochs_T=4, seed=2)
    hyper = TrainHyper(lr=0.2, batch_size=5, hidden=4, seed=2)
    a = run_spdcl(train, valid, config, hyper, tmp_path / "a")
    b = run_spdcl(train, valid, config, hyper, tmp_path / "b")
    assert [s.mean_loss for s in a.stats] == [s.mean_loss for s in b.stats]
    assert np.array_equal(a.params.embedding_table, b.params.embedding_table)
    files = run_files(tmp_path / "a")
    assert len(files) == 4 * 4 and files == run_files(tmp_path / "b")
    orders = [spdcl_io.read_manifest(tmp_path / "a" / f"epoch{e:03d}.manifest.jsonl").ordered_ids for e in range(1, 5)]
    assert [len(order) for order in orders] == [10, 20, 30, 30]


def random_encoded(task_kind, n=23, vocab_size=10, n_labels=3, seed=0):
    # A small vocabulary, so tokens repeat within samples and across the
    # samples of every batch.  The ids are stored in descending order, so
    # nothing may assume a dataset's rows are in id order.
    rng = np.random.default_rng(seed)
    sample_ids = [f"s{n - 1 - i:02d}" for i in range(n)]
    token_ids = [
        [int(t) for t in rng.integers(0, vocab_size, size=int(rng.integers(1, 9)))] for _ in sample_ids
    ]
    if task_kind == "multiclass":
        targets = [int(rng.integers(0, n_labels)) for _ in sample_ids]
    else:
        targets = [rng.integers(0, 2, size=n_labels) for _ in sample_ids]
    return pack_dataset(zip(sample_ids, token_ids, targets), vocab_size, n_labels, task_kind)


@pytest.mark.parametrize("task_kind", ["multiclass", "multilabel"])
@pytest.mark.parametrize("batch_size", [1, 5, 7, 23])
def test_train_epoch_matches_dense_reference(task_kind, batch_size):
    data = random_encoded(task_kind)
    tokens = {sid: ids for sid, (ids, _) in sample_rows(data).items()}
    assert any(len(set(ids)) < len(ids) for ids in tokens.values())
    params = ref = init_params(data.vocab.size, 4, len(data.label_names), task_kind, seed=3)
    rng = np.random.default_rng(batch_size)
    for epoch in range(1, 4):
        order = [data.sample_ids[i] for i in rng.permutation(len(data.sample_ids))]
        # some batch has two samples sharing a token
        pairs = [order[i : i + 2] for i in range(0, len(order) - 1, batch_size)]
        assert batch_size == 1 or any(set(tokens[a]) & set(tokens[b]) for a, b in pairs)
        plan = plan_over(order, epoch)
        params, stats = train_epoch(params, plan, data, lr=0.7, batch_size=batch_size)
        ref, ref_loss = dense_train_epoch(ref, plan, data, lr=0.7, batch_size=batch_size)
        assert abs(stats.mean_loss - ref_loss) <= 1e-12
        for name in ("embedding_table", "head_weights", "head_bias"):
            gap = np.max(np.abs(getattr(params, name) - getattr(ref, name)))
            assert gap <= 1e-12, (epoch, name, gap)


@pytest.mark.parametrize("task_kind", ["multiclass", "multilabel"])
@pytest.mark.parametrize(
    "vocab_size, batch_size, sizes",
    [
        # full permutations and shuffled subsets; 23, 17 and 9 leave a short
        # final batch for every batch size but 1 (and 23 on the full set)
        *(pytest.param(10, b, (23, 17, 23, 9), id=str(b)) for b in (1, 5, 7, 23)),
        # three rows: every batch touches the same rows, and some token id
        # ends one batch and starts the next
        pytest.param(3, 5, (23, 17, 23, 9), id="3rows-5"),
        pytest.param(3, 7, (23, 17, 23, 9), id="3rows-7"),
        # batch_size >= n: every epoch is one batch
        pytest.param(10, 40, (23, 17, 23, 9), id="one-batch"),
        # empty plans before, between and after full ones
        pytest.param(10, 5, (0, 23, 0, 17, 0), id="empty-plan"),
    ],
)
def test_train_epoch_bit_identical_to_list_packed_reference(task_kind, vocab_size, batch_size, sizes):
    # The packed trainer adds the same terms in the same order as the loop
    # that packed every batch from lists and scattered with np.add.at.
    data = random_encoded(task_kind, vocab_size=vocab_size)
    assert list(data.sample_ids) != sorted(data.sample_ids)
    rows = sample_rows(data)
    assert any(len(set(ids)) < len(ids) for ids, _ in rows.values())
    params = ref = init_params(data.vocab.size, 4, len(data.label_names), task_kind, seed=3)
    rng = np.random.default_rng(batch_size)
    n = len(data.sample_ids)
    crossings = 0
    for epoch, size in enumerate(sizes, start=1):
        order = [data.sample_ids[i] for i in rng.permutation(n)[:size]]
        batches = [sum((rows[sid][0] for sid in order[i : i + batch_size]), []) for i in range(0, size, batch_size)]
        if vocab_size == 3:
            assert all(set(tokens) == {0, 1, 2} for tokens in batches)
            crossings += sum(a[-1] == b[0] for a, b in zip(batches, batches[1:]))
        plan = plan_over(order, epoch)
        before = params
        params, stats = train_epoch(params, plan, data, lr=0.7, batch_size=batch_size)
        ref, ref_loss = list_packed_train_epoch(ref, plan, data, lr=0.7, batch_size=batch_size)
        assert stats.mean_loss == ref_loss
        assert stats.samples_seen == size
        for name in ("embedding_table", "head_weights", "head_bias"):
            assert np.array_equal(getattr(params, name), getattr(ref, name)), (epoch, name)
            assert size or np.array_equal(getattr(params, name), getattr(before, name)), (epoch, name)
        assert size or stats.mean_loss == 0.0
    assert vocab_size != 3 or crossings


def test_train_epoch_leaves_input_params_unchanged():
    data = random_encoded("multiclass")
    params = init_params(data.vocab.size, 4, len(data.label_names), "multiclass", seed=3)
    before = [a.copy() for a in (params.embedding_table, params.head_weights, params.head_bias)]
    updated, _ = train_epoch(params, plan_over(data.sample_ids), data, lr=0.5, batch_size=4)
    after = (params.embedding_table, params.head_weights, params.head_bias)
    assert all(np.array_equal(a, b) for a, b in zip(before, after))
    assert not np.array_equal(updated.embedding_table, params.embedding_table)


@pytest.mark.parametrize("task_kind", ["multiclass", "multilabel"])
def test_batched_predict_matches_per_sample(task_kind):
    data = random_encoded(task_kind, n=40, seed=5)
    params = init_params(data.vocab.size, 4, len(data.label_names), task_kind, seed=5)
    for epoch in range(1, 4):
        params, _ = train_epoch(params, plan_over(data.sample_ids, epoch), data, lr=0.5, batch_size=6)
        assert np.array_equal(predict(params, data), per_sample_predict(params, data))


def test_divergence_raises_named_error_without_warnings():
    train, _ = make_encoded()
    params = init_params(train.vocab.size, 4, len(train.label_names), "multiclass", 1)
    assert issubclass(TrainingDiverged, ValueError)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDiverged, match=r"epoch 1, batch [2-9]"):
            train_epoch(params, plan_over(train.sample_ids), train, lr=1e300, batch_size=5)


def test_sigmoid_overflow_emits_no_warning():
    # Logits of -3000: exp(-z) overflows, and the sigmoid is exactly 0.
    data = random_encoded("multilabel")
    params = ModelParams(
        embedding_table=np.ones((data.vocab.size, 3)),
        head_weights=np.full((3, 3), -1e3),
        head_bias=np.zeros(3),
        task_kind="multilabel",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not predict(params, data).any()
        loss, grads = loss_and_grad(params, [2, 3], [1, 0, 1])
    assert np.isfinite(loss) and np.array_equal(grads.head_bias, [-1 / 3, 0.0, -1 / 3])


def test_epoch_memory_follows_tokens_not_vocabulary():
    # One epoch copies the table once; no buffer may scale with V beyond that.
    train, _ = make_encoded(n_train=200)
    params = init_params(200_000, 16, len(train.label_names), "multiclass", 1)
    plan = plan_over(train.sample_ids)
    tracemalloc.start()
    try:
        train_epoch(params, plan, train, lr=0.1, batch_size=25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * params.embedding_table.nbytes


def test_epoch_plan_memory_follows_tokens_not_hidden_size():
    # The per-epoch batch plan holds a few int64 arrays per epoch token; an
    # epoch-wide (tokens, d) array, such as the gradient scatter index for
    # the whole epoch, would cost 8 * d = 256 bytes per token and fail.
    rng = np.random.default_rng(4)
    n, length, vocab_size, hidden = 2000, 40, 50, 32
    data = pack_dataset(
        ((f"s{i:04d}", rng.integers(0, vocab_size, size=length).tolist(), int(rng.integers(0, 3))) for i in range(n)),
        vocab_size, 3,
    )
    params = init_params(vocab_size, hidden, 3, "multiclass", 1)
    tracemalloc.start()
    try:
        train_epoch(params, plan_over(data.sample_ids), data, lr=0.1, batch_size=25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 96 * data.tokens.size + params.embedding_table.nbytes


def test_overflowing_parameter_sums_do_not_raise():
    # Every entry stays finite while the sums of the touched rows and of the
    # bias overflow: the scalar pre-check falls back to the exact checks,
    # which pass.  One label makes every gradient exactly zero.
    data = random_encoded("multiclass", n_labels=1)
    params = ModelParams(
        embedding_table=np.full((data.vocab.size, 4), 1e307),
        head_weights=np.zeros((4, 1)),
        head_bias=np.full(1, 1e308),
        task_kind="multiclass",
    )
    with np.errstate(over="ignore"):
        assert not math.isfinite(params.embedding_table[:2].sum() + params.head_bias.sum())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        updated, stats = train_epoch(params, plan_over(data.sample_ids), data, lr=0.5, batch_size=5)
    assert stats.mean_loss == 0.0
    for name in ("embedding_table", "head_weights", "head_bias"):
        assert np.array_equal(getattr(updated, name), getattr(params, name))


# ---------------------------------------------------------------- run loops


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"batch_size": 2.5}, "batch_size"),
        ({"lr": float("nan")}, "lr"),
        ({"hidden": 0}, "hidden"),
        pytest.param({"lr": 10**400}, "lr", id="lr-too-large-for-a-float"),
    ],
)
def test_train_hyper_rejects_bad_values(kwargs, field):
    with pytest.raises(ValueError, match=field):
        TrainHyper(**kwargs)


def test_dump_then_train_ordering(tmp_path):
    # Epoch t's stored norms reflect parameters before epoch t's update:
    # epoch 1 norms come from the untouched initialization.
    train, valid = make_encoded(n_train=20)
    config = RunConfig(bins_k=2, epochs_T=2, seed=4)
    hyper = TrainHyper(lr=0.3, batch_size=4, hidden=4, seed=4)
    run_spdcl(train, valid, config, hyper, tmp_path)
    params0 = init_params(train.vocab.size, 4, len(train.label_names), "multiclass", 4)
    from spdcl.io import f32_roundtrip

    table = spdcl_io.read_scores(tmp_path / "epoch001.scores.jsonl")
    easiest = table.order[0]
    sid, expected_norm = table.ids[easiest], table.norm[easiest]
    fresh = f32_roundtrip(embed_sample(params0, sample_rows(train)[sid][0]))
    assert nuclear_norm(fresh) == expected_norm


def test_k1_equals_baseline_exactly(tmp_path):
    train, valid = make_encoded(n_train=30, n_valid=10)
    config = RunConfig(bins_k=1, epochs_T=5, seed=2)
    hyper = TrainHyper(lr=0.2, batch_size=7, hidden=4, seed=2)
    spdcl_run = run_spdcl(train, valid, config, hyper, tmp_path / "spdcl")
    base_run = run_baseline(train, valid, config, hyper, tmp_path / "base")
    assert [s.mean_loss for s in spdcl_run.stats] == [s.mean_loss for s in base_run.stats]
    assert spdcl_run.reports[-1] == base_run.reports[-1]
    # Plans, scores, dumps and reports: every file of the two runs alike.
    assert len(run_files(tmp_path / "spdcl")) == 5 * 4
    assert run_files(tmp_path / "spdcl") == run_files(tmp_path / "base")
    assert np.array_equal(spdcl_run.params.embedding_table, base_run.params.embedding_table)


@pytest.mark.parametrize("runner", [run_spdcl, run_baseline])
def test_run_rejects_empty_validation_split(runner, tmp_path, monkeypatch):
    train_s, _ = make_zipfian_dataset(20, 4, 3, seed=0)
    train, valid = encode_datasets(train_s, [], "multiclass", max_len=32)

    def no_init(*args):
        raise AssertionError("init_params ran before the validation split was checked")

    monkeypatch.setattr(trainer, "init_params", no_init)
    config = RunConfig(bins_k=2, epochs_T=2, seed=2)
    with pytest.raises(ValueError, match="validation split is empty"):
        runner(train, valid, config, TrainHyper(hidden=4), out_dir=tmp_path / "run")
    assert not (tmp_path / "run").exists()


def test_run_warns_when_epochs_never_reach_the_hardest_bins():
    train, valid = make_encoded(n_train=20)
    config = RunConfig(bins_k=4, epochs_T=2, seed=2)
    with pytest.warns(UserWarning, match="never become visible"):
        run_spdcl(train, valid, config, TrainHyper(hidden=4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the baseline has one bin
        run_baseline(train, valid, config, TrainHyper(hidden=4))


def test_a_run_configs_curriculum_is_the_config_itself(tmp_path):
    train, valid = make_encoded(n_train=20)
    config = RunConfig(bins_k=2, epochs_T=3, seed=5, alignment_mode="identity", delta_ordering="signed")
    hyper = TrainHyper(lr=0.3, batch_size=4, hidden=4, seed=5)
    via = run_spdcl(train, valid, config.curriculum(), hyper, tmp_path / "via")
    direct = run_spdcl(train, valid, config, hyper, tmp_path / "direct")
    assert via.stats == direct.stats and via.reports == direct.reports
    assert len(run_files(tmp_path / "via")) == 3 * 4
    assert run_files(tmp_path / "via") == run_files(tmp_path / "direct")
    assert np.array_equal(via.params.embedding_table, direct.params.embedding_table)


def test_separable_data_reaches_high_train_accuracy():
    train_s, valid_s = make_zipfian_dataset(200, 40, n_classes=2, seed=5, noise_rate=0.0)
    train, valid = encode_datasets(train_s, valid_s, "multiclass", max_len=32)
    config = RunConfig(bins_k=4, epochs_T=30, seed=2)
    hyper = TrainHyper(lr=0.5, batch_size=25, hidden=8, seed=2)
    result = run_spdcl(train, valid, config, hyper)
    train_acc = float((predict(result.params, train) == train.targets).mean())
    assert train_acc >= 0.95


def test_multilabel_end_to_end_smoke():
    rng = np.random.default_rng(6)
    labels = ["tag0", "tag1", "tag2"]

    def multi_sample(prefix, i):
        chosen = [lab for lab in labels if rng.random() < 0.5] or [labels[0]]
        toks = " ".join(f"w_{lab}" for lab in chosen for _ in range(int(rng.integers(1, 4))))
        return TextSample(f"{prefix}-{i:03d}", toks, tuple(chosen))

    train_s = [multi_sample("train", i) for i in range(40)]
    valid_s = [multi_sample("valid", i) for i in range(10)]
    train, valid = encode_datasets(train_s, valid_s, "multilabel", max_len=16)
    config = RunConfig(bins_k=4, epochs_T=6, seed=1)
    hyper = TrainHyper(lr=0.5, batch_size=8, hidden=6, seed=1)
    result = run_spdcl(train, valid, config, hyper)
    assert len(result.reports) == 6
    assert all(0.0 <= r.hamming_loss <= 1.0 for r in result.reports)
    preds = predict(result.params, valid)
    assert preds.shape == (10, 3)


def test_encode_rejects_unseen_valid_labels_and_bad_multiclass():
    train_s = [TextSample("t0", "a b", ("x",))]
    valid_s = [TextSample("v0", "a", ("y",))]
    with pytest.raises(ValueError, match="unseen"):
        encode_datasets(train_s, valid_s, "multiclass")
    two_label = [TextSample("t0", "a", ("x", "y"))]
    with pytest.raises(ValueError, match="exactly one label"):
        encode_datasets(two_label, [], "multiclass")


# ------------------------------------------------------------ packed dataset


def test_encode_packs_train_split_in_id_order():
    train_s = [TextSample("t2", "b a", ("y",)), TextSample("t0", "a", ("x",)), TextSample("t1", "c c", ("y",))]
    valid_s = [TextSample("v1", "a", ("x",)), TextSample("v0", "b", ("y",))]
    train, valid = encode_datasets(train_s, valid_s, "multiclass")
    assert train.sample_ids == ("t0", "t1", "t2")
    assert valid.sample_ids == ("v1", "v0")
    a, b, c = (train.vocab.words.index(t) + 2 for t in "abc")
    assert train.tokens.tolist() == [a, c, c, b, a]
    assert train.offsets.tolist() == [0, 1, 3, 5]
    assert train.targets.tolist() == [0, 1, 1]
    assert valid.targets.tolist() == [0, 1]
    ml, _ = encode_datasets(train_s, [], "multilabel")
    assert ml.targets.tolist() == [[1, 0], [0, 1], [0, 1]]


@pytest.mark.parametrize(
    "rows, task_kind, match",
    [
        ([("a", [2], 0), ("b", [], 1)], "multiclass", "'b' has no rows"),
        ([("a", [2], 0), ("b", [3, -1], 1)], "multiclass", "'b': token id -1 out of range"),
        ([("a", [2, 10], 0), ("b", [3], 1)], "multiclass", "'a': token id 10 out of range for vocabulary of size 10"),
        ([("a", [2], 0), ("b", [3], 1), ("a", [4], 0)], "multiclass", "duplicate sample id 'a'"),
        ([("a", [2], 0), ("b", [3], 3)], "multiclass", "'b': class index 3 out of range for 3 labels"),
        ([("a", [2], -1), ("b", [3], 1)], "multiclass", "'a': class index -1 out of range"),
        ([("a", [2], [0, 1, 0]), ("b", [3], [1, 0, 0])], "multiclass", "multiclass targets must be"),
        ([("a", [2], [0, 1]), ("b", [3], [1, 0])], "multilabel", "rows of length 3"),
        ([("a", [2], [0, 1, 0, 1]), ("b", [3], [1, 0, 0, 0])], "multilabel", "rows of length 3"),
        ([("a", [2], [0, 1, 0]), ("b", [3], [1, 2, 0])], "multilabel", "'b': multilabel target must be a 0/1"),
        ([("a", [2], 1), ("b", [3], 0)], "multilabel", "rows of length 3"),
        ([("a", [2], 0), ("", [3], 1)], "multiclass", "sample 1 has an empty id"),
    ],
)
def test_dataset_rejects_bad_samples(rows, task_kind, match):
    with pytest.raises(ValueError, match=match):
        pack_dataset(rows, vocab_size=10, n_labels=3, task_kind=task_kind)


def test_dataset_arrays_are_read_only():
    data = random_encoded("multilabel")
    for arr in (data.tokens, data.offsets, data.targets):
        with pytest.raises(ValueError):
            arr[0] = 1


@pytest.mark.parametrize("task_kind", ["multiclass", "multilabel"])
def test_dataset_leaves_the_callers_arrays_writable(task_kind):
    tokens = np.array([2, 3, 4], dtype=np.int64)
    offsets = np.array([0, 1, 3], dtype=np.int64)
    targets = np.array([0, 1] if task_kind == "multiclass" else [[1, 0], [0, 1]], dtype=np.int64)
    data = EncodedDataset(
        sample_ids=["a", "b"], tokens=tokens, offsets=offsets, targets=targets,
        vocab=Vocabulary(("w2", "w3", "w4", "w5")),
        label_names=["x", "y"], task_kind=task_kind,
    )
    for arr in (tokens, offsets, targets):
        assert arr.flags.writeable
        arr[0] = 5
    assert data.tokens.tolist() == [2, 3, 4] and data.offsets.tolist() == [0, 1, 3]
    assert data.targets[0].tolist() == (0 if task_kind == "multiclass" else [1, 0])


def test_every_dump_of_a_run_shares_the_training_layout(monkeypatch, tmp_path):
    # Each epoch scores and writes one dump: the table over the training
    # split's own layout and token ids, neither of them copied.
    train, valid = make_encoded(n_train=20)
    scored, written = [], []
    norms_of, write = difficulty.dump_norms, spdcl_io.write_embedding_dump
    monkeypatch.setattr(difficulty, "dump_norms", lambda dump: scored.append(dump) or norms_of(dump))
    monkeypatch.setattr(spdcl_io, "write_embedding_dump", lambda path, dump: written.append(dump) or write(path, dump))
    run_spdcl(train, valid, RunConfig(bins_k=2, epochs_T=3, seed=2), TrainHyper(hidden=4), tmp_path)
    assert len(scored) == 3 and written == scored
    assert all(dump.layout is train.layout and dump.index is train.tokens for dump in scored)


def test_one_dump_alive_at_a_time(monkeypatch, tmp_path):
    # Each epoch's dump is released once persisted, before the next is scored.
    train, valid = make_encoded(n_train=20)
    dumps, alive = [], []
    norms_of = difficulty.dump_norms

    def scoring(dump):
        alive.append([ref() is not None for ref in dumps])
        dumps.append(weakref.ref(dump))
        return norms_of(dump)

    monkeypatch.setattr(difficulty, "dump_norms", scoring)
    config = RunConfig(bins_k=2, epochs_T=3, seed=2)
    run_spdcl(train, valid, config, TrainHyper(hidden=4), tmp_path)
    assert alive == [[], [False], [False, False]]
    assert len(list(tmp_path.glob("*.embeddings.bin"))) == 3


def test_a_run_keeps_no_layout_once_its_dataset_is_dropped(tmp_path):
    # The scoring plan and the packed dump headers live on the training
    # layout, so they go with the dataset; no module cache holds it.
    train, valid = make_encoded(n_train=20)
    run_spdcl(train, valid, RunConfig(bins_k=2, epochs_T=2, seed=2), TrainHyper(hidden=4), tmp_path)
    layout = weakref.ref(train.layout)
    assert {kind for kind, _ in train.layout._memo} == {"plan", "headers"}
    del train, valid
    assert layout() is None


def test_dump_gathered_in_slices_equals_one_cast(monkeypatch):
    # The run loop's dump holds the table and the token ids; its rows are
    # the table's rows at the tokens cast once to float32, and it scores as
    # its materialized twin does, bit for bit, however it is sliced.
    train, valid = make_encoded(n_train=20)
    dumps = []
    norms_of = difficulty.dump_norms
    monkeypatch.setattr(difficulty, "dump_norms", lambda dump: dumps.append(dump) or norms_of(dump))
    run_spdcl(train, valid, RunConfig(bins_k=1, epochs_T=1, seed=2), TrainHyper(hidden=4, seed=3))
    params = init_params(train.vocab.size, 4, len(train.label_names), train.task_kind, 3)
    expected = params.embedding_table[train.tokens].astype(np.float32)
    (dump,) = dumps
    assert dump.values.shape == (train.vocab.size, 4) and dump.values.dtype == np.float32
    assert np.array_equal(dump.rows(slice(None)), expected)
    twin = EmbeddingDump(train.layout, expected)
    assert dump.nuclear_norms().tobytes() == twin.nuclear_norms().tobytes()
    monkeypatch.setattr(nucnorm, "_SCORE_SLICE_VALUES", 9)  # two rows of d=4 per slice
    monkeypatch.delitem(dump.layout._memo, ("plan", 4))  # teardown restores the plan of the usual size
    assert dump.nuclear_norms().tobytes() == twin.nuclear_norms().tobytes()


def test_dump_scoring_and_writing_memory_does_not_follow_the_dump(tmp_path):
    # Scoring gathers the table's rows slice by slice and the writer chunk by
    # chunk, so once the slice plan and the headers are warm, doubling the
    # samples barely moves the peak.  A whole gathered dump, or a whole-file
    # join, would add at least the dump's size.
    length, vocab_size, hidden = 20, 50, 64
    rng = np.random.default_rng(5)
    table = rng.standard_normal((vocab_size, hidden)).astype(np.float32)
    table.setflags(write=False)
    peaks, sizes = [], []
    for n in (1000, 2000):
        layout = DumpLayout([f"s{i:05d}" for i in range(n)], np.arange(n + 1) * length)
        dump = EmbeddingDump(layout, table, rng.integers(0, vocab_size, size=n * length))
        path = tmp_path / "dump.bin"
        dump_norms(dump)  # warm the slice plan and the packed headers
        spdcl_io.write_embedding_dump(path, dump)
        tracemalloc.start()
        try:
            dump_norms(dump)
            spdcl_io.write_embedding_dump(path, dump)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        sizes.append(n * length * hidden * 4)
    assert peaks[1] - peaks[0] < sizes[0] / 10, (peaks, sizes)


def test_memory_held_after_a_run_does_not_grow_with_its_epochs():
    # A RunResult keeps each epoch's stats and report, a few hundred bytes,
    # and no plan or score table: those are N-sized (about 27 kB an epoch
    # at N=400), and six more epochs of them would pass the bound.
    train, valid = make_encoded(n_train=400)
    hyper = TrainHyper(lr=0.3, batch_size=8, hidden=4)
    run_spdcl(train, valid, RunConfig(bins_k=2, epochs_T=2, seed=2), hyper)  # warm the caches
    held = {}
    for epochs in (2, 8):
        tracemalloc.start()
        try:
            result = run_spdcl(train, valid, RunConfig(bins_k=2, epochs_T=epochs, seed=2), hyper)
            held[epochs] = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(result.stats) == len(result.reports) == epochs
        del result
    assert held[8] - held[2] < 16 * 1024, held


@pytest.mark.parametrize("n", [1000, 4000])
def test_dump_writer_holds_one_small_chunk(tmp_path, n):
    # Once the headers are packed, the writer's peak is about two chunks
    # (gathered rows and their joined bytes), whatever the dump's size.
    length, vocab_size, hidden = 20, 50, 64
    rng = np.random.default_rng(n)
    table = rng.standard_normal((vocab_size, hidden)).astype(np.float32)
    table.setflags(write=False)
    layout = DumpLayout([f"s{i:05d}" for i in range(n)], np.arange(n + 1) * length)
    dump = EmbeddingDump(layout, table, rng.integers(0, vocab_size, size=n * length))
    path = tmp_path / "dump.bin"
    spdcl_io.write_embedding_dump(path, dump)  # warm the packed headers
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        spdcl_io.write_embedding_dump(path, dump)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    chunk = 4 * max(nucnorm._DUMP_CHUNK_VALUES, length * hidden)
    assert peak < 4 * chunk, (peak, chunk)
    assert path.stat().st_size > 50 * chunk  # the file is many chunks long


@pytest.mark.parametrize("persist", [False, True])
def test_a_table_row_past_float32_range_names_the_first_sample_that_uses_it(monkeypatch, tmp_path, persist):
    # Finite in float64, inf in float32: the dump rejects the row and names
    # the first sample that uses it, before anything of the epoch is written.
    train, valid = make_encoded(n_train=20)
    # The token whose first use comes last, so that the named sample is not the first one.
    tokens, first_use = np.unique(train.tokens, return_index=True)
    token = int(tokens[np.argmax(first_use)])
    first = train.sample_ids[int(np.searchsorted(train.offsets, first_use.max(), side="right")) - 1]
    assert first != train.sample_ids[0]
    init = trainer.init_params

    def init_with_huge_row(*args):
        params = init(*args)
        table = params.embedding_table.copy()
        table[token] = 1e39
        return replace(params, embedding_table=table)

    monkeypatch.setattr(trainer, "init_params", init_with_huge_row)
    with pytest.raises(ValueError, match=re.escape(f"sample {first!r} contains non-finite values")):
        run_spdcl(train, valid, RunConfig(bins_k=2, epochs_T=2, seed=2), TrainHyper(hidden=4), tmp_path if persist else None)
    assert not list(tmp_path.iterdir())


def test_training_past_the_dump_range_is_diverged_naming_the_epoch(tmp_path):
    # At lr 1e5 the float64 table stays finite, at 2e24 after epoch 1 and
    # about 1e75 after epoch 2, but epoch 3's float32 dump cannot hold it.
    train_s, valid_s = make_zipfian_dataset(60, 20, 4, seed=1)
    train, valid = encode_datasets(train_s, valid_s, "multiclass", max_len=250)
    config = RunConfig(bins_k=2, epochs_T=6, batch=5, hidden_d=8, lr=1e5)
    hyper = TrainHyper(lr=config.lr, batch_size=config.batch, hidden=config.hidden_d, seed=config.seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDiverged, match=r"^training at epoch 2 .* epoch 3 dump \(lr=100000\.0\)"):
            run_spdcl(train, valid, config, hyper, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        path.name for epoch in (1, 2) for path in spdcl_io.epoch_paths(tmp_path, epoch).values()
    )


def test_a_runs_score_files_are_parsed_when_read(tmp_path, monkeypatch):
    # The run loop keeps nothing of what it writes: reading a run's score
    # file back parses it.
    train, valid = make_encoded(n_train=20)
    run_spdcl(train, valid, RunConfig(bins_k=2, epochs_T=2, seed=2), TrainHyper(hidden=4), tmp_path)
    parsed = []
    parse = spdcl_io._parse_scores
    monkeypatch.setattr(spdcl_io, "_parse_scores", lambda path, blob: parsed.append(path) or parse(path, blob))
    path = spdcl_io.epoch_paths(tmp_path, 2)["scores"]
    assert spdcl_io.read_scores(path).epoch == 2
    assert parsed == [path]
