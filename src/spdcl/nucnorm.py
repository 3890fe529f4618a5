"""Nuclear norm (trace norm) of real embedding matrices, and the packed dump.

The nuclear norm is the sum of the singular values, equivalently
``tr(sqrt(E^T E))``.  It is computed from the smaller Gram matrix by a
symmetric eigendecomposition.  :class:`DumpLayout` is the checked layout
(ids, row offsets) that a training set builds once and all its dumps share.
:class:`EmbeddingDump` holds every sample's token-by-hidden rows in one
float32 array and checks only those, so scoring a dump runs the kernel on
plain arrays: one stacked call per group of samples that share a row count,
planned once per layout and column count.  Everything here is a pure
function over immutable inputs and safe to call from many workers at once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

# Float64 values scored per stacked kernel call: 2 MiB.  Slicing each
# row-count group to this size keeps scoring's memory constant, however many
# samples share a length (every text longer than max_len truncates to it).
_SCORE_SLICE_VALUES = 1 << 18


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


def singular_values(matrix) -> np.ndarray:
    """Singular values, non-increasing and non-negative; length min(rows, cols).

    Uses E^T E when cols <= rows, else E E^T.  The matrix must be 2-D,
    non-empty and finite.
    """
    return _spectrum(_validated_values(matrix))


def nuclear_norm(matrix) -> float:
    """Sum of singular values: tr(sqrt(E^T E)), summed largest first."""
    return float(singular_values(matrix).sum())


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
    """
    arr = np.asarray(given, dtype=dtype)
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
    training split shares it.
    """

    ids: tuple[str, ...]
    offsets: np.ndarray  # (N + 1,) int64 row offsets, offsets[0] == 0
    row_of: dict[str, int] = field(init=False, repr=False)

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


@functools.lru_cache(maxsize=1)
def _score_slices(layout: DumpLayout, cols: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(members, rows_of) per stacked kernel call: samples of one row count,
    ``_SCORE_SLICE_VALUES`` float64 values (or one sample) at most, and their rows."""
    lengths = np.diff(layout.offsets)
    by_length = np.argsort(lengths, kind="stable")
    slices = []
    for group in np.split(by_length, np.flatnonzero(np.diff(lengths[by_length])) + 1):
        rows = int(lengths[group[0]])
        step = max(1, _SCORE_SLICE_VALUES // (rows * cols))
        for start in range(0, len(group), step):
            members = group[start : start + step]
            slices.append((members, layout.offsets[members, None] + np.arange(rows)))
    return tuple(slices)


@dataclass(frozen=True, eq=False)
class EmbeddingDump:
    """Every sample's token-by-hidden embedding rows, packed into one array.

    Sample ``ids[i]`` owns rows ``values[offsets[i]:offsets[i + 1]]``, as
    ``layout`` says; ``ids`` and ``offsets`` are the layout's own.
    ``values`` is stored as float32, the dump file's precision, so scoring
    an in-memory dump and scoring the same dump read from disk agree bit for
    bit.  The layout is checked when it is built; the constructor checks
    only the rest: at least one sample, and values 2-D, one row per layout
    row, at least one column, and finite.  The values are held read-only
    (see :func:`read_only`), so nothing can change a checked dump: the
    trainer's frozen gather and a dump file's bytes are kept as they are,
    and values the caller can still write are copied.
    """

    layout: DumpLayout
    values: np.ndarray  # (sum of rows, d) float32

    def __post_init__(self):
        layout = self.layout
        if not layout.ids:
            raise ValueError("embedding dump is empty")
        values = read_only(self.values, np.float32)
        if values.ndim != 2 or values.shape[1] < 1:
            raise ValueError(f"dump values must be 2-D with at least one column, got shape {values.shape}")
        if values.shape[0] != layout.offsets[-1]:
            raise ValueError(f"dump values must have the layout's {layout.offsets[-1]} rows, got {values.shape[0]}")
        if not np.isfinite(values).all():
            bad_row = np.argmin(np.isfinite(values).all(axis=1))
            sample = int(np.searchsorted(layout.offsets, bad_row, side="right")) - 1
            raise ValueError(f"sample {layout.ids[sample]!r} contains non-finite values")
        object.__setattr__(self, "values", values)

    @property
    def ids(self) -> tuple[str, ...]:
        return self.layout.ids

    @property
    def offsets(self) -> np.ndarray:
        return self.layout.offsets

    def nuclear_norms(self) -> np.ndarray:
        """Each sample's nuclear norm in ``ids`` order, from its rows widened to float64.

        Samples are scored in groups that share a row count, one stacked
        kernel call per slice of a group, so an epoch costs one LAPACK batch
        per distinct length rather than one call per sample.  Each slice
        holds at most ``_SCORE_SLICE_VALUES`` float64 values (or one
        sample), which bounds scoring's temporaries whatever the group size.
        Every sample's spectrum and sum are computed exactly as
        ``nuclear_norm`` computes them.  The slices are planned once per
        layout and column count.
        """
        norms = np.empty(len(self.ids))
        for members, rows_of in _score_slices(self.layout, self.values.shape[1]):
            norms[members] = _spectrum(self.values[rows_of].astype(np.float64)).sum(axis=-1)
        return norms
