"""The dict-and-sort difficulty layer, the oracle for ``spdcl.difficulty``.

Scores are id -> float dicts and every ranking is one ``sorted`` call keyed
by ``(key, sample_id)``: the definition of the id tie-break that the
library's score tables reproduce with stable argsorts over id-ordered
columns.  Rank alignment pairs the two epochs' norm-sorted tables position
by position; identity alignment pairs each sample with itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping


@dataclass(frozen=True)
class DifficultyRecord:
    """Score and curriculum rank for one sample in one epoch (rank 0 = easiest)."""

    sample_id: str
    epoch: int
    score: float
    rank: int


def _by_norm(norms: Mapping[str, float]) -> list[tuple[str, float]]:
    return sorted(norms.items(), key=lambda kv: (kv[1], kv[0]))


def _ranked(scores: Mapping[str, float], epoch: int, key) -> list[DifficultyRecord]:
    order = sorted(scores, key=lambda sid: (key(scores[sid]), sid))
    return [
        DifficultyRecord(sample_id=sid, epoch=epoch, score=scores[sid], rank=r)
        for r, sid in enumerate(order)
    ]


def initial_scores(norms: Mapping[str, float]) -> list[DifficultyRecord]:
    """Epoch 1: the raw norms, ranked ascending."""
    return _ranked(norms, epoch=1, key=lambda s: s)


def delta_scores(
    current: Mapping[str, float],
    previous: Mapping[str, float],
    epoch: int,
    mode: str = "rank",
    ordering: str = "magnitude",
) -> list[DifficultyRecord]:
    """Epoch ``epoch``: the norm change against the previous epoch's norms."""
    if frozenset(current) != frozenset(previous):
        raise ValueError("sample-id set differs from the previous epoch")
    if mode == "rank":
        deltas = {
            sid_now: norm_now - norm_then
            for (sid_now, norm_now), (_, norm_then) in zip(_by_norm(current), _by_norm(previous))
        }
    else:
        deltas = {sid: current[sid] - previous[sid] for sid in current}
    if ordering == "magnitude":
        return _ranked(deltas, epoch, key=lambda d: -abs(d))
    return _ranked(deltas, epoch, key=lambda d: -d)


def rank_samples(records: Iterable[DifficultyRecord]) -> list[str]:
    """Sample ids ordered easiest first (ascending rank) for one epoch."""
    recs = list(records)
    if not recs:
        raise ValueError("no difficulty records")
    epochs = {r.epoch for r in recs}
    if len(epochs) != 1:
        raise ValueError(f"records span multiple epochs: {sorted(epochs)}")
    if sorted(r.rank for r in recs) != list(range(len(recs))):
        raise ValueError("ranks are not a permutation of 0..N-1")
    return [r.sample_id for r in sorted(recs, key=lambda r: r.rank)]
