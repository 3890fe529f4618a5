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

One epoch's scores are one :class:`ScoreTable`: columns aligned to the
sample ids in ascending order.  Every ordering is a stable ``argsort`` over
those columns, so all ties break by ascending sample id and ranking is fully
deterministic.  The previous epoch's table is all the history a delta needs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from spdcl.nucnorm import EmbeddingDump, read_only
from spdcl.scheduler import check_choice, check_int

ALIGNMENT_MODES = ("rank", "identity")
DELTA_ORDERINGS = ("magnitude", "signed")


@dataclass(frozen=True, eq=False)
class ScoreTable:
    """One epoch's difficulty scores, one row per sample, ids ascending.

    ``norm`` (the raw nuclear norm) and ``score`` are float64 columns
    aligned to ``ids``.  ``order`` lists the row indices easiest first: the
    sample ``ids[order[r]]`` has rank ``r``.  The constructor checks that a
    score file reads back as the table: an ``int`` epoch of at least 1, ids
    that are non-empty strings, strictly ascending, one value per sample in
    each column, and an ``order`` that is a permutation.  The columns are
    held read-only without freezing the caller's arrays (see
    :func:`spdcl.nucnorm.read_only`).
    """

    epoch: int
    ids: tuple[str, ...]
    norm: np.ndarray
    score: np.ndarray
    order: np.ndarray

    def __post_init__(self):
        check_int("epoch", self.epoch, minimum=1)
        ids = tuple(self.ids)
        if not _ids_ascend(ids):
            raise ValueError("a table needs at least one id, and its ids must be non-empty strings, strictly ascending")
        object.__setattr__(self, "ids", ids)
        for name, dtype in (("norm", np.float64), ("score", np.float64), ("order", np.int64)):
            column = read_only(getattr(self, name), dtype)
            if column.shape != (len(ids),):
                raise ValueError(f"{name} must hold one value per sample, got shape {column.shape}")
            object.__setattr__(self, name, column)
        if not np.array_equal(np.sort(self.order), np.arange(len(ids))):
            raise ValueError("order must be a permutation of the rows")


@functools.lru_cache(maxsize=1)  # a run's tables share one id tuple
def _ids_ascend(ids: tuple) -> bool:
    """Whether there are ids, all non-empty strings, strictly ascending."""
    return bool(ids) and all(type(sid) is str and sid for sid in ids) and all(map(str.__lt__, ids, ids[1:]))


def _by_key(key: np.ndarray) -> np.ndarray:
    # Rows are in ascending id order, so a stable sort breaks ties by id.
    # The order is fresh, so it is frozen here and a table keeps it uncopied.
    order = np.argsort(key, kind="stable")
    order.setflags(write=False)
    return order


def dump_norms(dump: EmbeddingDump) -> tuple[tuple[str, ...], np.ndarray]:
    """Each sample's nuclear norm, with the ids ascending as score tables hold them.

    A dump whose ids are in another order is sorted here, once.
    """
    ids, norm = dump.ids, dump.nuclear_norms()
    if list(ids) != sorted(ids):
        by_id = sorted(range(len(ids)), key=ids.__getitem__)
        ids, norm = tuple(ids[i] for i in by_id), norm[by_id]
    return ids, norm


def initial_scores(ids: tuple[str, ...], norm: np.ndarray) -> ScoreTable:
    """Epoch-1 scoring: raw nuclear norms, ranked ascending.

    ``ids`` must ascend and ``norm`` align to them, as ``dump_norms`` gives them.
    """
    norm = read_only(norm, np.float64)
    return ScoreTable(1, ids, norm, norm, _by_key(norm))


def delta_scores(
    ids: tuple[str, ...],
    norm: np.ndarray,
    previous: ScoreTable,
    mode: str = "rank",
    ordering: str = "magnitude",
) -> ScoreTable:
    """Score epoch ``previous.epoch + 1`` by the norm change against ``previous``.

    ``ids`` and ``norm`` are the epoch's raw nuclear norms as ``dump_norms``
    gives them; the ids must be those of ``previous``.  Ranks go to the
    largest change first (``magnitude``: descending absolute delta;
    ``signed``: descending signed delta).
    """
    check_choice("mode", mode, ALIGNMENT_MODES)
    check_choice("ordering", ordering, DELTA_ORDERINGS)
    if tuple(ids) != previous.ids:
        raise ValueError("sample-id set differs from the previous epoch")
    norm = read_only(norm, np.float64)
    if mode == "rank":
        current = _by_key(norm)
        delta = np.empty_like(norm)
        delta[current] = norm[current] - previous.norm[_by_key(previous.norm)]
    else:
        delta = norm - previous.norm
    delta.setflags(write=False)
    key = -np.abs(delta) if ordering == "magnitude" else -delta
    return ScoreTable(previous.epoch + 1, previous.ids, norm, delta, _by_key(key))
