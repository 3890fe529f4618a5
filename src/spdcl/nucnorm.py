"""Nuclear norm (trace norm) of real embedding matrices, and the packed dump.

The nuclear norm is the sum of the singular values, equivalently
``tr(sqrt(E^T E))``.  It is computed from the smaller Gram matrix by a
symmetric eigendecomposition.  A matrix that repeats rows has the same E^T E
as its distinct rows, each scaled by the square root of its count; when
those are fewer than ``min(m, d)`` it is scored on them, from a smaller Gram.
:class:`DumpLayout` is the checked layout (ids, row offsets) that a training
set builds once and all its dumps share.  :class:`EmbeddingDump` has two row
sources, every sample's token-by-hidden rows in one float32 array (a dump
read from a file) or a float32 table with a row index (the run loop's
embedding table and token ids), and one scoring path over plain arrays: one
stacked call per group of samples scored on the same number of rows, each
gathering its rows through the index if there is one.  Rows are equal when
their bytes are, found in one exact pass (:func:`_byte_classes`).  The plan
of those calls is kept on the layout, per column count, and reused while
the classes of equal rows repeat; a dump read from a file checks the kept
classes, exactly, instead of finding them again.  The functions are
otherwise pure over immutable inputs; a kept plan is replaced whole, and
whichever plan a call finds gives the same norms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

# Float64 values scored per stacked kernel call: 2 MiB.  Slicing each
# row-count group to this size keeps scoring's memory constant, however many
# samples share a length (every text longer than max_len truncates to it).
_SCORE_SLICE_VALUES = 1 << 18

# Rows whose classes of equal rows are worked out at once, at most: 4,096.
# That pass holds about ten int64 values a row (320 KiB), and compares at
# most one scoring slice of values.
_CLASS_CHUNK_ROWS = 1 << 12

# Float32 values per chunk a dump file is written in: 64 KiB (or one sample,
# if a sample is larger).  The writer holds one chunk at a time, so its
# memory follows this constant, not the dump's size.
_DUMP_CHUNK_VALUES = 1 << 14


def _validated_values(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"embedding matrix must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"embedding matrix needs at least one row and one column, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("embedding matrix contains non-finite values (NaN or Inf)")
    return arr


def _spectrum(arr: np.ndarray) -> np.ndarray:
    # Singular values of each (m, n) matrix in a stack (..., m, n): eigenvalues
    # of the smaller Gram matrix, returned largest first along the last axis,
    # the order stored norms are summed in.  A rank-deficient matrix (a sample
    # that repeats a token) has zero eigenvalues that come out as rounding
    # noise of about eps * lambda_max, whose square roots would add up to ~1e-8
    # relative error; every eigenvalue at or below max(m, n) * eps * lambda_max,
    # negative roundoff included, is taken as exactly zero.
    m, n = arr.shape[-2:]
    arr_t = arr.swapaxes(-1, -2)
    gram = arr_t @ arr if n <= m else arr @ arr_t
    eig = np.linalg.eigvalsh(gram)
    cutoff = max(m, n) * np.finfo(np.float64).eps * eig[..., -1:]
    return np.sqrt(np.where(eig > cutoff, eig, 0.0))[..., ::-1]


def nuclear_norm(matrix) -> float:
    """Sum of singular values: tr(sqrt(E^T E)), summed largest first.

    A matrix whose ``u`` distinct rows (rows are equal when their bytes
    are) are fewer than ``min(rows, cols)`` is scored on them instead, in
    first-appearance order, each scaled by the square root of its count:
    the same E^T E, so the same singular values, from a u x u Gram.  Every
    other matrix is scored as given.  This is the rule :meth:`EmbeddingDump.nuclear_norms`
    follows, so a dump's norm equals this one of the sample's rows widened
    to float64, bit for bit.
    """
    arr = _validated_values(matrix)
    whole = np.array([0, len(arr)])
    weights = _weights(_byte_classes(arr, whole), whole, arr.shape[1])
    if not weights.all():
        kept = np.flatnonzero(weights)
        arr = arr[kept] * np.sqrt(weights[kept])[:, None]
    return float(_spectrum(arr).sum())


# Odd base of the row hash.  A row's float bits, read as 32-bit words w_j,
# hash to sum_j w_j * BASE**(j + 1) mod 2**32: byte-equal rows hash alike,
# and a single changed word always changes the hash.  Rows whose hashes
# collide are told apart by their bytes, so the hash only saves work.
_ROW_HASH_BASE = 0x9E3779B1


def _row_hashes(rows: np.ndarray) -> np.ndarray:
    """A hash of each row's bytes, an int64 below 2**32: (R, d) C-contiguous float rows -> (R,)."""
    bits = rows.view(np.uint32)
    powers = np.full(bits.shape[-1], _ROW_HASH_BASE, np.uint32).cumprod(dtype=np.uint32)
    # einsum's uint32 sum of products is exact mod 2**32, as ``bits @ powers`` is, and faster.
    return np.einsum("ij,j->i", bits, powers).astype(np.int64)


def _first_equal(keys: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """For each row, the index of the first row of its sample (rows
    ``offsets[i]:offsets[i + 1]``) with an equal key; keys are below 2**32."""
    lengths = np.diff(offsets)
    keys = np.repeat(np.arange(len(lengths)) << 32, lengths) | keys
    # A stable sort puts each sample's rows of one key together, in row
    # order, so each run of equal keys starts at the first of its rows.
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = ordered[1:] != ordered[:-1]
    first = np.empty(len(keys), dtype=np.int64)
    first[order] = order[np.maximum.accumulate(np.where(starts, np.arange(len(keys)), 0))]
    return first


def _byte_classes(rows: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """For each of (R, d) float rows, the first row of its sample (rows
    ``offsets[i]:offsets[i + 1]``) with equal bytes.

    Rows are grouped by hash, and every row that shares a hash with an
    earlier row of its sample is compared byte for byte with that row.  If a
    hash collided, its rows are regrouped by their bytes alone.
    """
    rows = np.ascontiguousarray(rows)
    first = _first_equal(_row_hashes(rows), offsets)
    bits = rows.view(np.uint32)
    repeats = np.flatnonzero(first != np.arange(len(first)))
    clashed = repeats[(bits[repeats] != bits[first[repeats]]).any(axis=1)]
    for head in set(first[clashed].tolist()):
        run = np.flatnonzero(first == head).tolist()
        seen: dict[bytes, int] = {}
        first[run] = [seen.setdefault(rows[r].tobytes(), r) for r in run]
    return first


def _table_classes(values: np.ndarray) -> np.ndarray | None:
    """None when no two rows of a (rows, d) float table have equal bytes;
    otherwise, for each row, the first row with equal bytes."""
    ordered = np.sort(_row_hashes(values))
    if (ordered[1:] != ordered[:-1]).all():  # distinct hashes, so distinct rows
        return None
    first = _byte_classes(values, np.array([0, len(values)]))
    return None if (first == np.arange(len(first))).all() else first


def _weights(first: np.ndarray, offsets: np.ndarray, cols: int) -> np.ndarray:
    """Each row's weight in the matrix its sample is scored on.

    Sample ``i`` owns rows ``offsets[i]:offsets[i + 1]``, and ``first[r]``
    is the first of them equal to row ``r``.  A sample whose ``u`` distinct
    rows are fewer than ``min(m, cols)`` is scored on those rows, each
    weighted by how many rows equal it, and its repeats weigh 0; every row
    of any other sample weighs 1.
    """
    lengths = np.diff(offsets)
    is_first = first == np.arange(len(first))
    shrinks = np.add.reduceat(is_first, offsets[:-1], dtype=np.int64) < np.minimum(lengths, cols)
    tally = np.bincount(first, minlength=len(first)) * is_first
    return np.where(np.repeat(shrinks, lengths), tally, 1)


def _views_writable_memory(arr: np.ndarray) -> bool:
    """Whether ``arr`` views memory that another object can still write."""
    base = arr.base
    while isinstance(base, np.ndarray):
        if base.flags.writeable:
            return True
        base = base.base
    if base is None:
        return False
    try:
        return not memoryview(base).readonly
    except TypeError:  # no buffer to ask: assume the worst
        return True


def read_only(given, dtype) -> np.ndarray:
    """``given`` as a read-only ``dtype`` array that no one else can write.

    Nothing of the caller's is frozen: an array the caller can still write,
    itself or through the memory it views, is copied first.  A fresh array
    from the conversion, and an array already read-only over memory no one
    can write (a frozen array, or a file's bytes), are kept as they are, so
    a producer that freezes its own fresh array hands it over uncopied.
    An integer ``dtype`` rejects non-empty input of floats or bools, not truncates it.
    """
    arr = np.asarray(given)
    if arr.size and arr.dtype.kind not in "iu" and np.dtype(dtype).kind in "iu":
        raise ValueError(f"expected integers, got an array of dtype {arr.dtype}")
    arr = np.asarray(arr, dtype=dtype)
    if (arr is given or arr.base is not None) and (arr.flags.writeable or _views_writable_memory(arr)):
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class DumpLayout:
    """A checked sample layout: sample ``ids[i]`` owns rows ``offsets[i]:offsets[i + 1]``.

    The constructor is the one place a layout is checked: ids unique and
    non-empty, ``offsets`` one per sample plus one, starting at 0, and every
    sample at least one row.  ``offsets`` is held read-only (see
    :func:`read_only`).  ``row_of`` maps each id to its row.  An
    ``EncodedDataset`` builds one per split at set-up; every dump of the
    training split shares it, and ``_memo`` keeps what they derive from it,
    by kind and column count: scoring's ``"plan"`` (with, after a dump read
    from a file, the classes of equal rows its pass found, as the chunk-local
    row indices that check them, in the smallest type that fits), and
    ``spdcl.io``'s packed dump ``"headers"`` and, once a read is handed the
    layout, the dump file's ``"spans"``.
    """

    ids: tuple[str, ...]
    offsets: np.ndarray  # (N + 1,) int64 row offsets, offsets[0] == 0
    row_of: dict[str, int] = field(init=False, repr=False)
    _memo: dict[tuple[str, int], tuple] = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        ids = tuple(self.ids)
        row_of = {sid: row for row, sid in enumerate(ids)}
        if len(row_of) != len(ids):
            dup = next(sid for row, sid in enumerate(ids) if row_of[sid] != row)
            raise ValueError(f"duplicate sample id {dup!r}")
        if "" in row_of:
            raise ValueError(f"sample {row_of['']} has an empty id")
        offsets = read_only(self.offsets, np.int64)
        if offsets.shape != (len(ids) + 1,) or offsets[0] != 0:
            raise ValueError(f"row offsets must start at 0, one per sample plus one, got shape {offsets.shape}")
        empty = np.flatnonzero(np.diff(offsets) < 1)
        if empty.size:
            raise ValueError(f"sample {ids[empty[0]]!r} has no rows")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "row_of", row_of)


def _chunk_bounds(offsets: np.ndarray, rows: int) -> Iterator[tuple[int, int]]:
    """``(first, stop)`` for runs of contiguous samples of ``rows`` rows at most (or one sample)."""
    first, n = 0, len(offsets) - 1
    while first < n:
        stop = max(first + 1, int(np.searchsorted(offsets, offsets[first] + rows, side="right")) - 1)
        yield first, stop
        first = stop


def _class_chunks(dump: EmbeddingDump) -> Iterator[tuple[int, int, np.ndarray]]:
    """``(lo, hi, local)`` for the chunks the classes of equal rows are worked
    out in: layout rows ``lo:hi`` of contiguous samples, ``_CLASS_CHUNK_ROWS``
    rows and ``_SCORE_SLICE_VALUES`` values at most (or one sample), and
    their row offsets from ``lo``."""
    offsets = dump.offsets
    rows = max(1, min(_CLASS_CHUNK_ROWS, _SCORE_SLICE_VALUES // dump.values.shape[1]))
    for first, stop in _chunk_bounds(offsets, rows):
        lo, hi = int(offsets[first]), int(offsets[stop])
        yield lo, hi, offsets[first : stop + 1] - lo


def _row_weights(dump: EmbeddingDump, keys: np.ndarray | None) -> tuple[np.ndarray, tuple | None]:
    """:func:`_weights` of every layout row, worked out one class chunk at a
    time (see :func:`_class_chunks`).  Rows are equal when their ``keys``
    (table rows) are, or without keys when their bytes are; then the classes
    found are also returned, as :func:`_kept_classes` of each chunk (None
    with keys)."""
    offsets = dump.offsets
    # A weight is at most its sample's row count: held in the smallest type that fits.
    weights = np.empty(offsets[-1], dtype=np.min_scalar_type(np.diff(offsets).max()))
    classes = []
    for lo, hi, local in _class_chunks(dump):
        if keys is None:
            equal = _byte_classes(dump.rows(slice(lo, hi)), local)
            classes.append(_kept_classes(equal, local))
        else:  # table rows, so fewer than 2**32
            equal = _first_equal(keys[lo:hi], local)
        weights[lo:hi] = _weights(equal, local, dump.values.shape[1])
    return weights, None if keys is not None else tuple(classes)


def _kept_classes(equal: np.ndarray, local: np.ndarray) -> tuple[np.ndarray, ...]:
    """A class chunk's classes of equal rows (``equal[r]``, the first row of
    its sample equal to row ``r``) as :func:`_classes_hold` checks them: the
    repeat rows, each one's head, the head rows and each one's sample, all
    chunk-local and in the smallest unsigned type that fits."""
    is_head = equal == np.arange(len(equal))
    repeats, heads = np.flatnonzero(~is_head), np.flatnonzero(is_head)
    sample = np.repeat(np.arange(len(local) - 1), np.diff(local))
    small = np.min_scalar_type(len(equal) - 1)
    return tuple(rows.astype(small) for rows in (repeats, equal[repeats], heads, sample[heads]))


def _classes_hold(dump: EmbeddingDump, classes: tuple) -> bool:
    """Whether the rows of an unindexed dump fall, exactly, into the classes
    of equal rows that ``classes`` (from :func:`_row_weights`) records.

    Checked one class chunk at a time: every repeat row must be byte-equal
    to its head, and the heads of each sample must have pairwise distinct
    :func:`_row_hashes`, so distinct bytes.  Then each row's first equal row
    in its sample is its head, as a fresh pass would find.  A hash tie is
    not looked into: the answer is False.
    """
    for (lo, hi, _), (repeats, repeat_heads, heads, samples) in zip(_class_chunks(dump), classes):
        rows = np.ascontiguousarray(dump.rows(slice(lo, hi)))
        bits = rows.view(np.uint32)
        if not (bits.take(repeats, axis=0) == bits.take(repeat_heads, axis=0)).all():
            return False
        hashed = (samples.astype(np.int64) << 32) | _row_hashes(rows.take(heads, axis=0))
        hashed.sort()
        if (hashed[1:] == hashed[:-1]).any():
            return False
    return True


def _plan(layout: DumpLayout, cols: int, weights: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(members, gather) per stacked kernel call: samples scored on the same
    number of rows, ``_SCORE_SLICE_VALUES`` float64 values (or one sample)
    at most, and the layout rows of non-zero weight (see :func:`_weights`)
    of each member, one member per row of ``gather``."""
    # Gather rows are layout rows: held in the smallest type that fits.
    kept = np.flatnonzero(weights).astype(np.min_scalar_type(len(weights)))
    lengths = np.add.reduceat(weights > 0, layout.offsets[:-1], dtype=np.int64)
    start = np.cumsum(lengths) - lengths
    by_length = np.argsort(lengths, kind="stable")
    slices = []
    for group in np.split(by_length, np.flatnonzero(np.diff(lengths[by_length])) + 1):
        rows = int(lengths[group[0]])
        step = max(1, _SCORE_SLICE_VALUES // (rows * cols))
        for begin in range(0, len(group), step):
            members = group[begin : begin + step]
            slices.append((members, kept[start[members, None] + np.arange(rows)]))
    return tuple(slices)


def _scoring_plan(dump: EmbeddingDump) -> tuple[np.ndarray, tuple]:
    """The dump's row weights and kernel slices, kept on its layout as
    ``(keys, weights, slices, classes)``.

    An indexed dump's rows are equal when their token ids map to the same
    table class: its keys are the token ids (read-only, so the same array
    reuses the kept plan), or their classes if two table rows have equal
    bytes.  Without an index the keys are None, and rows are equal when
    their bytes are; the pass that finds those classes also keeps them, as
    ``classes``, and a later unindexed dump whose rows still fall into them
    (:func:`_classes_hold`) has the kept weights and slices, with no pass.
    Otherwise the weights and slices are worked out again.
    """
    layout, cols, index = dump.layout, dump.values.shape[1], dump.index
    keys = None
    if index is not None:
        classes = _table_classes(dump.values)
        keys = index if classes is None else classes[index]
    kept = layout._memo.get(("plan", cols))
    if kept and keys is not None and kept[0] is keys:
        return kept[1], kept[2]
    if kept and keys is None and kept[3] is not None and _classes_hold(dump, kept[3]):
        return kept[1], kept[2]
    weights, classes = _row_weights(dump, keys)
    slices = _plan(layout, cols, weights)
    layout._memo[("plan", cols)] = (keys, weights, slices, classes)
    return weights, slices


@dataclass(frozen=True, eq=False)
class EmbeddingDump:
    """Every sample's token-by-hidden embedding rows, from one of two row sources.

    Sample ``ids[i]`` owns layout rows ``offsets[i]:offsets[i + 1]``, as
    ``layout`` says; ``ids`` and ``offsets`` are the layout's own.  Layout
    row ``r`` is ``values[r]`` (a dump read from a file), or
    ``values[index[r]]`` when there is an ``index``: the run loop's dump is
    its embedding table with the training split's token ids, and builds no
    (total rows, d) array.  ``values`` is cast to float32, the dump file's
    precision, so scoring an in-memory dump and scoring the same dump read
    from disk agree bit for bit; the run loop's float64 table is cast once,
    here.  The layout is checked when it is built; the constructor checks
    only the rest: at least one sample, values 2-D with at least one column,
    one values row (or one in-range index) per layout row, and every row a
    sample uses finite; an error names the first sample that uses a bad row.  ``values`` and ``index`` are held read-only
    (see :func:`read_only`): a fresh cast, the trainer's frozen token ids and
    a dump file's bytes are kept as they are; writable arrays are copied.
    """

    layout: DumpLayout
    values: np.ndarray  # (sum of rows, d) float32, or (table rows, d) with an index
    index: np.ndarray | None = None  # (sum of rows,) int64 rows of values, or None

    def __post_init__(self):
        layout = self.layout
        if not layout.ids:
            raise ValueError("embedding dump is empty")
        # A value past float32's range casts to inf, which the finiteness
        # check below reports by the first sample that uses its row.
        with np.errstate(over="ignore"):
            values = read_only(self.values, np.float32)
        if values.ndim != 2 or values.shape[1] < 1:
            raise ValueError(f"dump values must be 2-D with at least one column, got shape {values.shape}")
        index = self.index
        if index is not None:
            index = read_only(index, np.int64)
            if index.shape != (layout.offsets[-1],):
                raise ValueError(f"dump index must hold the layout's {layout.offsets[-1]} rows, got shape {index.shape}")
            if index.min() < 0 or index.max() >= len(values):
                raise ValueError(f"dump index out of range for {len(values)} rows")
        elif values.shape[0] != layout.offsets[-1]:
            raise ValueError(f"dump values must have the layout's {layout.offsets[-1]} rows, got {values.shape[0]}")
        if not np.isfinite(values).all():
            bad = ~np.isfinite(values).all(axis=1)
            if index is not None:
                bad = bad[index]
            if bad.any():
                sample = int(np.searchsorted(layout.offsets, np.argmax(bad), side="right")) - 1
                raise ValueError(f"sample {layout.ids[sample]!r} contains non-finite values")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "index", index)

    @property
    def ids(self) -> tuple[str, ...]:
        return self.layout.ids

    @property
    def offsets(self) -> np.ndarray:
        return self.layout.offsets

    def rows(self, which) -> np.ndarray:
        """The float32 rows at ``which``, a slice or an index array of layout rows."""
        if self.index is None:
            return self.values[which]
        return self.values.take(self.index[which], axis=0)

    def chunks(self) -> Iterator[tuple[int, int, np.ndarray]]:
        """``(first, stop, rows)`` for runs of contiguous samples, in ``ids`` order:
        samples ``first:stop`` and their float32 rows, ``_DUMP_CHUNK_VALUES``
        values at most (or one sample).  Each chunk's rows are gathered only
        when it is reached, so a consumer that drops one chunk before asking
        for the next holds one at a time."""
        offsets = self.offsets
        for first, stop in _chunk_bounds(offsets, max(1, _DUMP_CHUNK_VALUES // self.values.shape[1])):
            yield first, stop, self.rows(slice(offsets[first], offsets[stop]))

    def nuclear_norms(self) -> np.ndarray:
        """Each sample's nuclear norm in ``ids`` order, from its rows widened to float64.

        A sample whose ``u`` distinct rows are fewer than ``min(m, d)`` is
        scored on those rows, in first-appearance order, each scaled by the
        square root of its count: the same E^T E from a u x u Gram.  Every
        other sample is scored on its own rows by the plain kernel.  Either
        way each norm equals ``nuclear_norm`` of the sample's widened rows,
        bit for bit.  Rows are equal when their bytes are: with an index,
        when their token ids map to the same class of the table's rows (found
        on every call); without one, by the rows' own bytes, chunk by chunk.
        So a dump scores as the same dump read back from its file does.
        Without an index, the classes the last pass on the layout found are
        kept and checked first, chunk by chunk: if every repeat is
        byte-equal to its head and each sample's heads have distinct row
        hashes, they are this dump's classes and no pass runs; on any
        mismatch or hash tie the pass runs, and its classes are kept.

        Samples are scored in groups that share the number of rows they are
        scored on, one stacked kernel call per slice of a group, so an epoch
        costs one LAPACK batch per distinct count rather than one call per
        sample.  Each slice gathers its float32 rows (through the index, if
        there is one) and holds at most ``_SCORE_SLICE_VALUES`` float64
        values (or one sample), which bounds scoring's temporaries whatever
        the group size.  The plan, its slices and the row weights, is kept
        on the layout per column count and reused while the rows' classes
        repeat: for the same token ids, or for kept classes that hold.
        """
        norms = np.empty(len(self.ids))
        weights, slices = _scoring_plan(self)
        for members, gather in slices:
            # A row of weight 1 is scaled by 1.0, which keeps its bits.
            stack = self.rows(gather).astype(np.float64)
            stack *= np.sqrt(weights[gather], dtype=np.float64)[..., None]
            norms[members] = _spectrum(stack).sum(axis=-1)
        return norms
