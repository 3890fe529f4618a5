"""Reference trainer for tests: the original per-sample, dense-gradient SGD.

Every sample builds a dense (V, d) embedding gradient, every batch sums
those into a dense accumulator before one SGD step, and prediction runs one
sample at a time.  Slow, but each step is plain to read, so the batched
trainer in ``spdcl.trainer`` is checked against it.
"""

import numpy as np

from spdcl.trainer import ModelParams


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
    for start in range(0, len(ids), batch_size):
        chunk = ids[start : start + batch_size]
        current = ModelParams(table, weights, bias, params.task_kind)
        acc_emb = np.zeros_like(table)
        acc_w = np.zeros_like(weights)
        acc_b = np.zeros_like(bias)
        for sid in chunk:
            loss, d_emb, d_w, d_b = dense_loss_and_grad(current, data.token_ids[sid], data.targets[sid])
            total_loss += loss
            acc_emb += d_emb
            acc_w += d_w
            acc_b += d_b
        scale = lr / len(chunk)
        table = table - scale * acc_emb
        weights = weights - scale * acc_w
        bias = bias - scale * acc_b
    return ModelParams(table, weights, bias, params.task_kind), total_loss / len(ids)


def per_sample_predict(params, data, threshold=0.5):
    """Predictions computed one sample at a time."""
    logits = np.stack(
        [
            params.embedding_table[np.asarray(data.token_ids[sid])].mean(axis=0) @ params.head_weights
            + params.head_bias
            for sid in data.sample_ids
        ]
    )
    if params.task_kind == "multiclass":
        return logits.argmax(axis=1)
    return (1.0 / (1.0 + np.exp(-logits)) >= threshold).astype(np.int64)
