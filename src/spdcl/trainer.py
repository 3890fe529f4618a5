"""Minimal deterministic text classifier driving the curriculum loop.

Learned embedding table -> mean pooling -> linear head, trained with plain
SGD.  Small enough to run desk-scale experiments in seconds, yet it exposes
exactly the surface the difficulty engine needs: after every epoch the
per-sample token-embedding matrices are dumped and re-scored, and the next
epoch trains on the widened visible set.

Everything is a pure function of (data, config, seeds): no optimizer state,
no global RNG, batches never cross the visible-set boundary, and the final
short batch is kept.
"""

from __future__ import annotations

import math
import operator
import warnings
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain, count
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from spdcl import io as spdcl_io
from spdcl.difficulty import epoch_scores
from spdcl.metrics import EvalReport, evaluate, label_frequency_groups
from spdcl.nucnorm import DumpLayout, EmbeddingDump, read_only
from spdcl.scheduler import EpochPlan, build_epoch_plan, check_choice, check_int, check_lr

PAD_INDEX = 0
UNK_INDEX = 1


@dataclass(frozen=True)
class Vocabulary:
    """Whitespace-token vocabulary with PAD=0 and UNK=1 reserved: ``words[i]`` has index ``i + 2``."""

    words: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.words) + 2


def _split_once(texts: Iterable[str]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Lowercase and split each text once on whitespace, numbering words by first appearance.

    Returns the distinct words in that order, every token's word number in
    text order, and each text's token count.  Only the numbers are kept,
    not a word list per text.
    """
    numbering = defaultdict(count().__next__)  # an unseen word gets the next number
    lengths = []

    def split(text):
        words = text.lower().split()
        lengths.append(len(words))
        return words

    numbers = np.fromiter(map(numbering.__getitem__, chain.from_iterable(map(split, texts))), dtype=np.int64)
    return list(numbering), numbers, np.array(lengths, dtype=np.int64)


def _vocabulary(words: list[str], numbers: np.ndarray) -> tuple[Vocabulary, np.ndarray]:
    """The words of ``numbers``, indexed from 2 upward by descending count, ties alphabetical.

    Words are numbered by first appearance, so ``numbers`` holds exactly the
    first ``numbers.max() + 1`` of them; every later word maps to UNK.
    Returns the vocabulary and, per word number, its index.
    """
    known = int(numbers.max(initial=-1)) + 1
    counts = np.bincount(numbers, minlength=known)
    alphabetical = np.array(sorted(range(known), key=words.__getitem__), dtype=np.int64)
    order = alphabetical[np.argsort(-counts[alphabetical], kind="stable")]  # stable: ties stay alphabetical
    index = np.full(len(words), UNK_INDEX, dtype=np.int64)
    index[order] = np.arange(2, known + 2)
    return Vocabulary(tuple(map(words.__getitem__, order.tolist()))), index


@dataclass(frozen=True)
class ModelParams:
    embedding_table: np.ndarray  # (V, d)
    head_weights: np.ndarray  # (d, L)
    head_bias: np.ndarray  # (L,)
    task_kind: str

    def __post_init__(self):
        check_choice("task_kind", self.task_kind, spdcl_io.TASK_KINDS)
        for name in ("embedding_table", "head_weights", "head_bias"):
            arr = getattr(self, name)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")
        v, d = self.embedding_table.shape
        d_w, n = self.head_weights.shape
        if d < 1 or n < 1:
            raise ValueError("hidden size and label count must be >= 1")
        if d_w != d or self.head_bias.shape != (n,):
            raise ValueError(
                f"inconsistent parameter shapes: table {v}x{d}, head {d_w}x{n}, "
                f"bias {self.head_bias.shape}"
            )

    @property
    def hidden(self) -> int:
        return self.embedding_table.shape[1]

    @property
    def n_labels(self) -> int:
        return self.head_bias.shape[0]


@dataclass(frozen=True)
class Gradients:
    embedding_table: np.ndarray
    head_weights: np.ndarray
    head_bias: np.ndarray


class TrainingDiverged(ValueError):
    """SGD produced a non-finite loss or parameter, or a table past float32's range; the message names the epoch."""


@dataclass(frozen=True)
class TrainStats:
    epoch: int
    mean_loss: float
    samples_seen: int


def init_params(
    vocab_size: int, hidden: int, n_labels: int, task_kind: str, seed: int
) -> ModelParams:
    if hidden < 1 or n_labels < 1:
        raise ValueError("hidden and n_labels must be >= 1")
    rng = np.random.default_rng((seed & (2**64 - 1), 0))
    scale = 1.0 / np.sqrt(hidden)
    return ModelParams(
        embedding_table=rng.normal(0.0, scale, size=(vocab_size, hidden)),
        head_weights=rng.normal(0.0, scale, size=(hidden, n_labels)),
        head_bias=np.zeros(n_labels),
        task_kind=task_kind,
    )


def embed_sample(params: ModelParams, ids: Sequence[int]) -> np.ndarray:
    """Token-embedding rows for one sample, (len(ids), d): the toy model's "last layer"."""
    flat, _, _ = _pack([ids], params.embedding_table.shape[0])
    return params.embedding_table[flat]


def _pack(seqs: Sequence[Sequence[int]], vocab_size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Token-id sequences as one flat id array, per-sample start offsets and lengths."""
    lengths = np.fromiter((len(s) for s in seqs), dtype=np.int64, count=len(seqs))
    if lengths.size and lengths.min() < 1:
        raise ValueError("token-id sequence is empty")
    flat = np.fromiter(chain.from_iterable(seqs), dtype=np.int64, count=int(lengths.sum()))
    if flat.size and (flat.min() < 0 or flat.max() >= vocab_size):
        raise ValueError(f"token id out of range for vocabulary of size {vocab_size}")
    starts = np.zeros_like(lengths)
    np.cumsum(lengths[:-1], out=starts[1:])
    return flat, starts, lengths


def _pool(table: np.ndarray, flat: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Mean-pooled token embeddings, one row per packed sample."""
    # ndarray.take gathers the same rows as table[flat], at a fraction of the call cost.
    return np.add.reduceat(table.take(flat, axis=0), starts, axis=0) / lengths[:, None]


def _target_array(params: ModelParams, targets: Sequence) -> np.ndarray:
    """Targets as one array: class indices (multiclass) or 0/1 rows (multilabel)."""
    if params.task_kind == "multiclass":
        arr = np.asarray(targets, dtype=np.int64)
        bad = arr[(arr < 0) | (arr >= params.n_labels)]
        if bad.size:
            raise ValueError(f"class index {bad[0]} out of range for {params.n_labels} labels")
        return arr
    arr = np.asarray(targets)
    if arr.shape != (len(targets), params.n_labels) or not np.isin(arr, (0, 1)).all():
        raise ValueError(f"multilabel target must be a 0/1 vector of length {params.n_labels}")
    return arr.astype(np.float64)


def _batch_loss_grad(table, weights, bias, multiclass, flat, starts, lengths, targets, touched, slot):
    """Per-sample losses and batch-summed gradients, on plain arrays.

    Multiclass: softmax cross-entropy on the class index.  Multilabel: mean
    sigmoid binary cross-entropy over the label vector.  ``touched`` holds
    the distinct table rows of ``flat`` in ascending order and ``slot`` each
    token's index into it, as ``np.unique(flat, return_inverse=True)``
    gives them.  Returns ``(losses, d_rows, d_weights, d_bias)``, where
    ``d_rows[i]`` is the gradient for ``table[touched[i]]``: the embedding
    gradient lives only on the rows the batch touched, never on the whole
    table.
    """
    pooled = _pool(table, flat, starts, lengths)
    logits = pooled @ weights + bias
    if multiclass:
        rows = np.arange(len(targets))
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        losses = log_z[:, 0] - shifted[rows, targets]
        dlogits = np.exp(shifted - log_z)
        dlogits[rows, targets] -= 1.0
    else:
        # per-label: y*softplus(-z) + (1-y)*softplus(z), averaged over labels
        losses = np.mean(
            targets * np.logaddexp(0.0, -logits) + (1.0 - targets) * np.logaddexp(0.0, logits), axis=1
        )
        dlogits = (1.0 / (1.0 + np.exp(-logits)) - targets) / logits.shape[1]
    d_tokens = np.repeat((dlogits @ weights.T) / lengths[:, None], lengths, axis=0)
    # One weighted bincount over (slot, column) cells adds each cell's terms
    # in token order starting from 0.0: bit for bit the sums of a per-token
    # scatter-add loop, in one call.
    d = table.shape[1]
    d_rows = np.bincount(
        (slot[:, None] * d + np.arange(d)).ravel(), weights=d_tokens.ravel(), minlength=touched.size * d
    ).reshape(touched.size, d)
    return losses, d_rows, pooled.T @ dlogits, dlogits.sum(axis=0)


def loss_and_grad(params: ModelParams, ids: Sequence[int], target) -> tuple[float, Gradients]:
    """Loss and exact analytic gradients for one sample.

    The batch kernel ``train_epoch`` runs, on a batch of one, with the
    embedding gradient scattered into a dense table-shaped array.
    """
    flat, starts, lengths = _pack([ids], params.embedding_table.shape[0])
    touched, slot = np.unique(flat, return_inverse=True)
    # exp(-z) overflows to inf for z below about -709; the sigmoid is then
    # exactly 0, its limit, so the overflow is no error.
    with np.errstate(over="ignore"):
        losses, d_rows, d_weights, d_bias = _batch_loss_grad(
            params.embedding_table, params.head_weights, params.head_bias,
            params.task_kind == "multiclass",
            flat, starts, lengths, _target_array(params, [target]), touched, slot,
        )
    dembed = np.zeros_like(params.embedding_table)
    dembed[touched] = d_rows
    return float(losses[0]), Gradients(embedding_table=dembed, head_weights=d_weights, head_bias=d_bias)


@dataclass(frozen=True)
class TrainHyper:
    """The trainer's settings; ``spdcl train`` builds them from its run config.

    ``batch_size`` is the config's ``batch`` and ``hidden`` its ``hidden_d``.
    ``max_len`` is checked but never read: ``encode_datasets`` takes its own.
    It is kept only because the benchmark's workloads pass it.
    """

    lr: float = 0.1
    batch_size: int = 25
    hidden: int = 16
    max_len: int = 250
    seed: int = 2

    def __post_init__(self):
        for name in ("batch_size", "hidden", "max_len"):
            check_int(name, getattr(self, name), minimum=1)
        check_int("seed", self.seed)
        check_lr(self.lr)


@dataclass(frozen=True, eq=False)
class EncodedDataset:
    """Tokenized samples with targets, packed into flat arrays.

    Sample ``sample_ids[i]`` owns tokens ``tokens[offsets[i]:offsets[i + 1]]``
    and target ``targets[i]``: a class index (multiclass) or a 0/1 row over
    ``label_names`` (multilabel).  The constructor builds the split's
    ``layout`` from ``sample_ids`` and ``offsets``, which checks them, and
    checks the rest once: token ids in ``[0, vocab.size)``, targets of the
    task's shape and in range.  Every dump of the split shares the layout.
    Training, dumps and prediction slice these arrays; nothing re-packs them.
    The arrays are held read-only, and arrays the caller can still write are
    copied first (see :func:`spdcl.nucnorm.read_only`).
    """

    sample_ids: tuple[str, ...]
    tokens: np.ndarray  # (sum of lengths,) int64 token ids
    offsets: np.ndarray  # (N + 1,) int64, offsets[0] == 0
    targets: np.ndarray  # (N,) int64 class indices, or (N, L) int64 0/1 rows
    vocab: Vocabulary
    label_names: tuple[str, ...]
    task_kind: str
    layout: DumpLayout = field(init=False, repr=False)

    def __post_init__(self):
        layout = DumpLayout(self.sample_ids, self.offsets)
        ids, offsets = layout.ids, layout.offsets
        check_choice("task_kind", self.task_kind, spdcl_io.TASK_KINDS)
        tokens = read_only(self.tokens, np.int64)
        if tokens.shape != (offsets[-1],):
            raise ValueError(f"tokens must be a 1-D array of the offsets' {offsets[-1]} ids, got shape {tokens.shape}")
        bad = np.flatnonzero((tokens < 0) | (tokens >= self.vocab.size))
        if bad.size:
            sample = ids[int(np.searchsorted(offsets, bad[0], side="right")) - 1]
            raise ValueError(
                f"sample {sample!r}: token id {tokens[bad[0]]} out of range for vocabulary of size {self.vocab.size}"
            )
        labels = tuple(self.label_names)
        targets = np.asarray(self.targets)
        if self.task_kind == "multiclass":
            if targets.shape != (len(ids),) or not np.issubdtype(targets.dtype, np.integer):
                raise ValueError(f"multiclass targets must be {len(ids)} class indices, got shape {targets.shape}")
            bad = np.flatnonzero((targets < 0) | (targets >= len(labels)))
            if bad.size:
                raise ValueError(
                    f"sample {ids[bad[0]]!r}: class index {targets[bad[0]]} out of range for {len(labels)} labels"
                )
        else:
            if targets.shape != (len(ids), len(labels)):
                raise ValueError(
                    f"multilabel targets must be {len(ids)} 0/1 rows of length {len(labels)}, got shape {targets.shape}"
                )
            bad = np.flatnonzero(~np.isin(targets, (0, 1)).all(axis=1))
            if bad.size:
                raise ValueError(f"sample {ids[bad[0]]!r}: multilabel target must be a 0/1 vector")
        targets = targets.astype(np.int64)
        targets.setflags(write=False)
        object.__setattr__(self, "sample_ids", ids)
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "label_names", labels)
        object.__setattr__(self, "layout", layout)

    def rows_of(self, ids: Sequence[str]) -> np.ndarray:
        """Row indices of ``ids``; a ValueError names the ids the dataset lacks."""
        row_of = self.layout.row_of
        try:
            return np.fromiter(map(row_of.__getitem__, ids), dtype=np.int64, count=len(ids))
        except KeyError:
            missing = [sid for sid in ids if sid not in row_of]
            raise ValueError(f"plan references samples missing from dataset: {missing[:5]}") from None

    def take(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The given rows, repacked in one gather: ``(tokens, starts, lengths, targets)``."""
        first = self.offsets[rows]
        lengths = self.offsets[rows + 1] - first
        starts = np.zeros_like(lengths)
        np.cumsum(lengths[:-1], out=starts[1:])
        gather = np.arange(int(lengths.sum()), dtype=np.int64) + np.repeat(first - starts, lengths)
        return self.tokens[gather], starts, lengths, self.targets[rows]


def encode_datasets(
    train: Sequence[spdcl_io.TextSample],
    valid: Sequence[spdcl_io.TextSample],
    task_kind: str,
    max_len: int = 250,
) -> tuple[EncodedDataset, EncodedDataset]:
    """Tokenize both splits with a vocabulary built from the training split.

    The label space also comes from the training split; a validation label
    never seen in training is rejected.  The training split is stored in
    ascending id order, the order of embedding dumps and score tables; the
    validation split keeps its given order.

    Every text of both splits, training split first, is lowercased and split
    once, and its words are numbered by first appearance.  The vocabulary
    holds the training split's words, indexed from 2 upward by descending
    count with ties alphabetical; a word the training split never holds is
    UNK (1).  One gather maps the numbers to indices.  Each text keeps its
    first ``max_len`` tokens, and an empty text is one UNK token.
    """
    check_choice("task_kind", task_kind, spdcl_io.TASK_KINDS)
    check_int("max_len", max_len, minimum=1)
    train = sorted(train, key=operator.attrgetter("sample_id"))
    words, numbers, lengths = _split_once(s.text for s in chain(train, valid))
    n_train = len(train)
    vocab, index = _vocabulary(words, numbers[: lengths[:n_train].sum()])
    tokens = index[numbers]
    # Keep each text's first max_len tokens (the vocabulary counted them
    # all), and give an empty text one UNK token.
    if lengths.max(initial=0) > max_len:
        starts = np.cumsum(lengths) - lengths
        tokens = tokens[np.arange(tokens.size) - np.repeat(starts, lengths) < max_len]
        lengths = np.minimum(lengths, max_len)
    empty = np.flatnonzero(lengths == 0)
    if empty.size:
        tokens = np.insert(tokens, (np.cumsum(lengths) - lengths)[empty], UNK_INDEX)
        lengths[empty] = 1
    tokens.setflags(write=False)  # fresh, so neither split's slice of it is copied
    train_tokens, valid_tokens = np.split(tokens, [lengths[:n_train].sum()])
    label_names = sorted({lab for s in train for lab in s.labels})
    label_index = {lab: i for i, lab in enumerate(label_names)}

    def encode(samples, tokens, lengths):
        if task_kind == "multiclass":
            for s in samples:
                if len(s.labels) != 1:
                    raise ValueError(f"multiclass sample {s.sample_id!r} must have exactly one label")
            targets = np.fromiter((label_index[s.labels[0]] for s in samples), dtype=np.int64, count=len(samples))
        else:
            targets = np.zeros((len(samples), len(label_names)), dtype=np.int64)
            for row, s in enumerate(samples):
                targets[row, [label_index[lab] for lab in s.labels]] = 1
        offsets = np.zeros(len(samples) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        offsets.setflags(write=False)  # fresh, handed over frozen and so not copied
        return EncodedDataset(
            sample_ids=[s.sample_id for s in samples],
            tokens=tokens,
            offsets=offsets,
            targets=targets,
            vocab=vocab,
            label_names=label_names,
            task_kind=task_kind,
        )

    encoded_train = encode(train, train_tokens, lengths[:n_train])
    for s in valid:  # training labels are in label_index by construction
        unseen = [lab for lab in s.labels if lab not in label_index]
        if unseen:
            raise ValueError(f"valid sample {s.sample_id!r} has labels unseen in training: {unseen}")
    return encoded_train, encode(valid, valid_tokens, lengths[n_train:])


def _check_fits(params: ModelParams, data: EncodedDataset) -> None:
    """``data`` must fit ``params``: the same task, a table row per vocabulary
    entry, and a head output per label (exactly one for multilabel).  O(1):
    ``EncodedDataset`` already holds token ids below ``vocab.size`` and
    targets below ``len(label_names)``.
    """
    if data.task_kind != params.task_kind:
        raise ValueError(f"{data.task_kind} dataset cannot train {params.task_kind} params")
    rows = params.embedding_table.shape[0]
    if data.vocab.size > rows:
        raise ValueError(f"vocabulary of size {data.vocab.size} does not fit an embedding table of {rows} rows")
    labels = len(data.label_names)
    if labels > params.n_labels or (params.task_kind == "multilabel" and labels != params.n_labels):
        raise ValueError(f"{labels} labels do not fit a {params.task_kind} head of {params.n_labels} outputs")


def train_epoch(
    params: ModelParams,
    plan: EpochPlan,
    data: EncodedDataset,
    lr: float,
    batch_size: int,
) -> tuple[ModelParams, TrainStats]:
    """One pass over the plan's ordered ids with mini-batch SGD.

    Deterministic given (params, plan, lr, batch_size); the input params are
    left untouched and a fresh ModelParams is returned.  The epoch's tokens
    and targets are gathered from the packed dataset once, in plan order,
    and the batches are planned once: one sort of the epoch's (batch,
    token id) keys gives every batch its touched rows and each token's
    slot among them.  A batch is then slices of these arrays, and the loop
    over batches runs only arithmetic.  Each batch updates only the
    embedding rows its tokens touch, so its cost follows the batch's
    tokens, not the vocabulary size.  Raises TrainingDiverged if a loss or
    an updated parameter turns non-finite.
    """
    if operator.index(batch_size) < 1:
        raise ValueError("batch_size must be >= 1")
    _check_fits(params, data)
    tokens, starts, lengths, targets = data.take(data.rows_of(plan.ordered_ids))
    vocab_size = params.embedding_table.shape[0]
    multiclass = params.task_kind == "multiclass"
    if not multiclass:
        targets = targets.astype(np.float64)
    n = lengths.size
    # The batch plan depends on no weight, so it is built once per epoch.
    # Batch b holds samples [b * batch_size, (b + 1) * batch_size).  One
    # sort of the keys b * V + token id gives each batch a contiguous run
    # of keys ordered by token id: its touched rows, exactly what
    # np.unique of its own tokens returns, and each token's slot in them.
    batch_of = np.arange(n) // batch_size
    keys = np.repeat(batch_of, lengths)
    keys *= vocab_size
    keys += tokens
    keys, slots = np.unique(keys, return_inverse=True)
    sample_bounds = np.append(np.arange(0, n, batch_size), n)
    token_bounds = np.append(starts, tokens.size)[sample_bounds]
    key_bounds = np.searchsorted(keys, np.arange(sample_bounds.size) * vocab_size)
    slots -= np.repeat(key_bounds[:-1], np.diff(token_bounds))
    touched_rows = np.remainder(keys, vocab_size, out=keys)
    starts -= token_bounds[batch_of]  # each sample's start within its batch
    sample_bounds, token_bounds, key_bounds = sample_bounds.tolist(), token_bounds.tolist(), key_bounds.tolist()
    table = params.embedding_table.copy()
    weights = params.head_weights.copy()
    bias = params.head_bias.copy()
    total_loss = 0.0
    # Overflow is caught by the finiteness check below, not reported as warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for batch, (first, last, begin, end, k0, k1) in enumerate(
            zip(sample_bounds, sample_bounds[1:], token_bounds, token_bounds[1:], key_bounds, key_bounds[1:]),
            start=1,
        ):
            touched = touched_rows[k0:k1]
            losses, d_rows, d_weights, d_bias = _batch_loss_grad(
                table, weights, bias, multiclass,
                tokens[begin:end], starts[first:last], lengths[first:last], targets[first:last],
                touched, slots[begin:end],
            )
            scale = lr / (last - first)
            rows = table.take(touched, axis=0)
            rows -= scale * d_rows
            table[touched] = rows
            weights -= scale * d_weights
            bias -= scale * d_bias
            # A sum holding an inf or a NaN is never finite, so a finite sum
            # clears every entry; only a non-finite one (which may be mere
            # overflow of finite entries) needs the exact checks.
            if not math.isfinite(losses.sum() + rows.sum() + weights.sum() + bias.sum()) and not (
                np.isfinite(losses).all()
                and np.isfinite(rows).all()
                and np.isfinite(weights).all()
                and np.isfinite(bias).all()
            ):
                raise TrainingDiverged(
                    f"non-finite loss or parameters at epoch {plan.epoch}, batch {batch} (lr={lr})"
                )
            for loss in losses.tolist():
                total_loss += loss
    out = ModelParams(table, weights, bias, params.task_kind)
    return out, TrainStats(epoch=plan.epoch, mean_loss=total_loss / n if n else 0.0, samples_seen=n)


def predict(params: ModelParams, data: EncodedDataset) -> np.ndarray:
    """Predicted class indices (multiclass) or a 0/1 matrix (multilabel), in ``data.sample_ids`` order."""
    _check_fits(params, data)
    pooled = _pool(params.embedding_table, data.tokens, data.offsets[:-1], np.diff(data.offsets))
    logits = pooled @ params.head_weights + params.head_bias
    if params.task_kind == "multiclass":
        return logits.argmax(axis=1)
    with np.errstate(over="ignore"):  # as in loss_and_grad: a sigmoid of exactly 0
        return (1.0 / (1.0 + np.exp(-logits)) >= 0.5).astype(np.int64)


@dataclass
class RunResult:
    """A run's final parameters and each epoch's training stats and evaluation.

    Epoch plans and score tables are not kept: the run directory's manifests
    and score files are the record of the curriculum.
    """

    params: ModelParams
    stats: list[TrainStats]
    reports: list[EvalReport]


def _persist_epoch(out_dir, epoch, dump, table, plan, stats, report):
    if out_dir is None:
        return
    paths = spdcl_io.epoch_paths(Path(out_dir), epoch)
    spdcl_io.write_embedding_dump(paths["embeddings"], dump)
    spdcl_io.write_scores(paths["scores"], table)
    spdcl_io.write_manifest(paths["manifest"], plan)
    spdcl_io.write_json_atomic(paths["report"], spdcl_io.epoch_report_payload(stats, report, table))


def run_spdcl(
    train: EncodedDataset,
    valid: EncodedDataset,
    config: spdcl_io.RunConfig,
    hyper: TrainHyper,
    out_dir: str | Path | None = None,
) -> RunResult:
    """The full self-paced dynamic curriculum loop.

    Epoch 1 scores the freshly initialized embedding dump by raw nuclear
    norm and trains on bin 1 only.  Every later epoch re-dumps embeddings
    (before training, so the dump reflects the previous epoch's parameters),
    re-scores by norm deltas, re-bins, and trains on the widened visible
    set.  Each epoch's dump is the embedding table, which the dump casts
    once to float32, with the training split's token ids as its row index:
    scoring and the dump file gather the rows from it slice by slice, so no
    whole dump is ever built.  Scoring is ``epoch_scores`` over what the
    dump files store, as ``spdcl score`` runs it, so rescoring a dump from
    disk reproduces the run's scores bit for bit.  A ``UserWarning`` says when
    ``epochs_T < bins_k`` leaves the hardest bins untrained.  Training that
    takes the table past the float32 range a dump stores raises
    ``TrainingDiverged`` naming that epoch, as a non-finite batch does.

    The loop holds one epoch at a time: the current score table, which the
    next epoch's deltas need, and the current plan and dump, both dropped
    once the epoch is persisted.  The returned ``RunResult`` keeps the final parameters
    and each epoch's stats and report; with ``out_dir``, each epoch's dump,
    scores, manifest and report are written there, named by ``spdcl.io.epoch_paths``;
    those files are the record of its plan and scores.
    """
    if not valid.sample_ids:
        raise ValueError("the validation split is empty: every epoch is evaluated on it")
    if config.epochs_T < config.bins_k:
        warnings.warn(
            f"epochs_T={config.epochs_T} < bins_k={config.bins_k}: "
            "the hardest bins will never become visible",
            stacklevel=2,
        )
    params = init_params(
        train.vocab.size, hyper.hidden, len(train.label_names), train.task_kind, hyper.seed
    )
    groups = label_frequency_groups(train.targets, n_groups=min(4, len(train.label_names)))
    stats_log: list[TrainStats] = []
    reports: list[EvalReport] = []
    table = None
    for epoch in range(1, config.epochs_T + 1):
        try:
            dump = EmbeddingDump(train.layout, params.embedding_table, train.tokens)
        except ValueError as exc:
            if epoch == 1:  # the initial table: not training's doing
                raise
            # The float64 table is finite, so only its cast to float32 overflowed.
            raise TrainingDiverged(
                f"training at epoch {epoch - 1} took the embedding table past the float32 range "
                f"of the epoch {epoch} dump (lr={hyper.lr}): {exc}"
            ) from None
        table = epoch_scores(dump, table, mode=config.alignment_mode, ordering=config.delta_ordering)
        plan = build_epoch_plan(table, config, epoch)
        params, stats = train_epoch(params, plan, train, hyper.lr, hyper.batch_size)
        report = evaluate(valid.targets, predict(params, valid), n_labels=len(valid.label_names), groups=groups)
        _persist_epoch(out_dir, epoch, dump, table, plan, stats, report)
        del dump, plan  # the next epoch needs only this epoch's table
        stats_log.append(stats)
        reports.append(report)
    return RunResult(params=params, stats=stats_log, reports=reports)


def run_baseline(
    train: EncodedDataset,
    valid: EncodedDataset,
    config: spdcl_io.RunConfig,
    hyper: TrainHyper,
    out_dir: str | Path | None = None,
) -> RunResult:
    """Plain full-data training, the no-curriculum comparison run.

    The baseline is the one-bin curriculum: ``run_spdcl`` on
    ``config.baseline()``, so every epoch trains on the whole training set,
    shuffled with the (seed, epoch)-keyed generator, whatever the config's
    ``bins_k`` and ``shuffle_within_epoch``.  Embeddings are still dumped
    and scored each epoch, purely so the nuclear-norm trajectory is
    observable; with one bin, the scores never influence the training order.
    ``spdcl train --baseline`` calls ``run_spdcl`` on that config itself.
    """
    return run_spdcl(train, valid, config.baseline(), hyper, out_dir)
