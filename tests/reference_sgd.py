"""Reference trainers for tests.

``dense_train_epoch`` is the original per-sample, dense-gradient SGD: every
sample builds a dense (V, d) embedding gradient, every batch sums those into
a dense accumulator before one SGD step, and prediction runs one sample at a
time.  Slow, but each step is plain to read, so the batched trainer in
``spdcl.trainer`` is checked against it to within rounding.

``list_packed_train_epoch`` is the batched trainer as it was before datasets
were packed: every batch packs its samples' token lists and targets anew and
scatters the embedding gradient with ``np.add.at``.  It adds the same terms
in the same order as ``spdcl.trainer.train_epoch``, so the two must agree
bit for bit.
"""

from itertools import chain

import numpy as np

from spdcl.trainer import ModelParams

from datasets import sample_rows


def dense_loss_and_grad(params, ids, target):
    """Loss and (table, weights, bias) gradients for one sample."""
    idx = np.asarray(ids, dtype=np.int64)
    pooled = params.embedding_table[idx].mean(axis=0)
    logits = pooled @ params.head_weights + params.head_bias
    if params.task_kind == "multiclass":
        shifted = logits - logits.max()
        log_z = np.log(np.exp(shifted).sum())
        loss = float(log_z - shifted[target])
        dlogits = np.exp(shifted - log_z)
        dlogits[target] -= 1.0
    else:
        target = np.asarray(target, dtype=np.float64)
        loss = float(
            np.mean(target * np.logaddexp(0.0, -logits) + (1.0 - target) * np.logaddexp(0.0, logits))
        )
        dlogits = (1.0 / (1.0 + np.exp(-logits)) - target) / params.n_labels
    dembed = np.zeros_like(params.embedding_table)
    np.add.at(dembed, idx, params.head_weights @ dlogits / len(idx))
    return loss, dembed, np.outer(pooled, dlogits), dlogits


def dense_train_epoch(params, plan, data, lr, batch_size):
    """One SGD epoch over the plan; returns (new params, mean loss)."""
    table, weights, bias = params.embedding_table, params.head_weights, params.head_bias
    total_loss = 0.0
    ids = plan.ordered_ids
    rows = sample_rows(data)
    for start in range(0, len(ids), batch_size):
        chunk = ids[start : start + batch_size]
        current = ModelParams(table, weights, bias, params.task_kind)
        acc_emb = np.zeros_like(table)
        acc_w = np.zeros_like(weights)
        acc_b = np.zeros_like(bias)
        for sid in chunk:
            loss, d_emb, d_w, d_b = dense_loss_and_grad(current, *rows[sid])
            total_loss += loss
            acc_emb += d_emb
            acc_w += d_w
            acc_b += d_b
        scale = lr / len(chunk)
        table = table - scale * acc_emb
        weights = weights - scale * acc_w
        bias = bias - scale * acc_b
    return ModelParams(table, weights, bias, params.task_kind), total_loss / len(ids)


def per_sample_predict(params, data):
    """Predictions computed one sample at a time."""
    logits = np.stack(
        [
            params.embedding_table[np.asarray(tokens)].mean(axis=0) @ params.head_weights + params.head_bias
            for tokens, _ in sample_rows(data).values()
        ]
    )
    if params.task_kind == "multiclass":
        return logits.argmax(axis=1)
    return (1.0 / (1.0 + np.exp(-logits)) >= 0.5).astype(np.int64)


def _pack(seqs):
    lengths = np.fromiter((len(s) for s in seqs), dtype=np.int64, count=len(seqs))
    flat = np.fromiter(chain.from_iterable(seqs), dtype=np.int64, count=int(lengths.sum()))
    starts = np.zeros_like(lengths)
    np.cumsum(lengths[:-1], out=starts[1:])
    return flat, starts, lengths


def _add_at_loss_grad(table, weights, bias, multiclass, flat, starts, lengths, targets):
    pooled = np.add.reduceat(table[flat], starts, axis=0) / lengths[:, None]
    logits = pooled @ weights + bias
    if multiclass:
        rows = np.arange(len(targets))
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        losses = log_z[:, 0] - shifted[rows, targets]
        dlogits = np.exp(shifted - log_z)
        dlogits[rows, targets] -= 1.0
    else:
        losses = np.mean(
            targets * np.logaddexp(0.0, -logits) + (1.0 - targets) * np.logaddexp(0.0, logits), axis=1
        )
        dlogits = (1.0 / (1.0 + np.exp(-logits)) - targets) / logits.shape[1]
    d_tokens = np.repeat((dlogits @ weights.T) / lengths[:, None], lengths, axis=0)
    touched, slot = np.unique(flat, return_inverse=True)
    d_rows = np.zeros((touched.size, table.shape[1]))
    np.add.at(d_rows, slot, d_tokens)
    return losses, touched, d_rows, pooled.T @ dlogits, dlogits.sum(axis=0)


def list_packed_train_epoch(params, plan, data, lr, batch_size):
    """One SGD epoch that packs every batch from per-sample lists; returns (new params, mean loss)."""
    rows = sample_rows(data)
    multiclass = params.task_kind == "multiclass"
    table = params.embedding_table.copy()
    weights = params.head_weights.copy()
    bias = params.head_bias.copy()
    ids = plan.ordered_ids
    total_loss = 0.0
    for first in range(0, len(ids), batch_size):
        chunk = ids[first : first + batch_size]
        targets = np.asarray([rows[sid][1] for sid in chunk])
        losses, touched, d_rows, d_weights, d_bias = _add_at_loss_grad(
            table, weights, bias, multiclass,
            *_pack([rows[sid][0] for sid in chunk]),
            targets.astype(np.int64 if multiclass else np.float64),
        )
        scale = lr / len(chunk)
        table[touched] -= scale * d_rows
        weights -= scale * d_weights
        bias -= scale * d_bias
        for loss in losses.tolist():
            total_loss += loss
    return ModelParams(table, weights, bias, params.task_kind), total_loss / len(ids) if ids else 0.0
