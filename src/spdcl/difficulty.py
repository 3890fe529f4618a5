"""Per-epoch sample difficulty scores and easy-to-hard orderings.

Epoch 1 scores each sample by the nuclear norm of its embedding matrix and
ranks ascending (small norm = easy).  Later epochs score by the change in
nuclear norm against the previous epoch and rank by descending magnitude
(big swing = easy): easy samples shift the most while the model digests
them, hard samples move slowly.

Two readings of "change against the previous epoch" are supported:

* ``rank`` (default): the delta at sorted position i is the norm of the
  sample *currently* at position i minus the norm of whichever sample held
  position i last epoch, i.e. easiest-now vs easiest-then.
* ``identity``: each sample is compared against its own previous norm.

All ties break by ascending sample id so ranking is fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from spdcl.nucnorm import EmbeddingDump

ALIGNMENT_MODES = ("rank", "identity")
DELTA_ORDERINGS = ("magnitude", "signed")


@dataclass(frozen=True)
class DifficultyRecord:
    """Score and curriculum rank for one sample in one epoch (rank 0 = easiest)."""

    sample_id: str
    epoch: int
    score: float
    rank: int


@dataclass
class DifficultyHistory:
    """Raw nuclear norms per epoch, each table sorted ascending by norm.

    ``tables[i]`` holds epoch ``first_epoch + i`` as a list of
    ``(sample_id, norm)`` pairs in ascending-norm order (id tie-break), which
    is exactly what the rank-aligned delta needs.
    """

    first_epoch: int = 1
    tables: list[list[tuple[str, float]]] = field(default_factory=list)

    def __post_init__(self):
        if self.first_epoch < 1:
            raise ValueError("first_epoch must be >= 1")

    @property
    def last_epoch(self) -> int:
        return self.first_epoch + len(self.tables) - 1

    def table(self, epoch: int) -> list[tuple[str, float]]:
        idx = epoch - self.first_epoch
        if idx < 0 or idx >= len(self.tables):
            raise ValueError(f"history has no epoch {epoch}")
        return self.tables[idx]

    def sample_ids(self) -> frozenset[str]:
        if not self.tables:
            return frozenset()
        return frozenset(sid for sid, _ in self.tables[0])

    def append(self, norms: Mapping[str, float]) -> None:
        if self.tables and frozenset(norms) != self.sample_ids():
            raise ValueError("sample-id set differs from earlier epochs")
        self.tables.append(_by_norm(norms))


def _by_norm(norms: Mapping[str, float]) -> list[tuple[str, float]]:
    """``(sample_id, norm)`` pairs ascending by norm, ties by id: one history table."""
    return sorted(norms.items(), key=lambda kv: (kv[1], kv[0]))


def dump_norms(dump: EmbeddingDump) -> dict[str, float]:
    """Nuclear norm per sample id."""
    return dict(zip(dump.ids, dump.nuclear_norms()))


def _ranked(scores: Mapping[str, float], epoch: int, key) -> list[DifficultyRecord]:
    order = sorted(scores, key=lambda sid: (key(scores[sid]), sid))
    return [
        DifficultyRecord(sample_id=sid, epoch=epoch, score=scores[sid], rank=r)
        for r, sid in enumerate(order)
    ]


def initial_scores(
    dump: EmbeddingDump,
    history: DifficultyHistory | None = None,
) -> list[DifficultyRecord]:
    """Epoch-1 scoring: raw nuclear norms, ranked ascending.

    When ``history`` is given, the raw norms are appended to it as the
    epoch-1 table.
    """
    norms = dump_norms(dump)
    if history is not None:
        if history.tables:
            raise ValueError("initial_scores needs an empty history")
        history.append(norms)
    return _ranked(norms, epoch=1, key=lambda s: s)


def delta_scores(
    current: Mapping[str, float],
    history: DifficultyHistory,
    mode: str = "rank",
    ordering: str = "magnitude",
) -> list[DifficultyRecord]:
    """Score epoch t >= 2 by the norm change against epoch t-1.

    ``current`` maps sample id to its raw nuclear norm at epoch t.  Ranks go
    to the largest change first (``magnitude``: descending absolute delta;
    ``signed``: descending signed delta).  The raw norms are appended to
    ``history`` as the epoch-t table.
    """
    if mode not in ALIGNMENT_MODES:
        raise ValueError(f"mode must be one of {ALIGNMENT_MODES}, got {mode!r}")
    if ordering not in DELTA_ORDERINGS:
        raise ValueError(f"ordering must be one of {DELTA_ORDERINGS}, got {ordering!r}")
    if not history.tables:
        raise ValueError("history is empty: no previous epoch to diff against")
    epoch = history.last_epoch + 1
    prev = history.table(epoch - 1)
    if frozenset(current) != history.sample_ids():
        raise ValueError("sample-id set differs from history")

    # Sorted once: the rank alignment reads it and it becomes the history's
    # epoch-t table; the id set was checked just above.
    cur_table = _by_norm(current)
    if mode == "rank":
        deltas = {
            sid_now: norm_now - prev_norm
            for (sid_now, norm_now), (_, prev_norm) in zip(cur_table, prev)
        }
    else:
        prev_by_id = dict(prev)
        deltas = {sid: current[sid] - prev_by_id[sid] for sid in current}

    if ordering == "magnitude":
        records = _ranked(deltas, epoch, key=lambda d: -abs(d))
    else:
        records = _ranked(deltas, epoch, key=lambda d: -d)
    history.tables.append(cur_table)
    return records


def rank_samples(records: Iterable[DifficultyRecord]) -> list[str]:
    """Sample ids ordered easiest first (ascending rank) for one epoch."""
    recs = list(records)
    if not recs:
        raise ValueError("no difficulty records")
    epochs = {r.epoch for r in recs}
    if len(epochs) != 1:
        raise ValueError(f"records span multiple epochs: {sorted(epochs)}")
    ranks = [r.rank for r in recs]
    if sorted(ranks) != list(range(len(recs))):
        raise ValueError("ranks are not a permutation of 0..N-1")
    return [r.sample_id for r in sorted(recs, key=lambda r: r.rank)]
