"""Nuclear norm (trace norm) of real embedding matrices, and the packed dump.

The nuclear norm is the sum of the singular values, equivalently
``tr(sqrt(E^T E))``.  It is computed from the smaller Gram matrix by a
symmetric eigendecomposition.  :class:`EmbeddingDump` holds every sample's
token-by-hidden rows in one float32 array, checked once when it is built,
so scoring a dump runs the kernel on plain arrays: one stacked call per
group of samples that share a row count, planned once per
:class:`DumpLayout`.  Everything here is a pure function over immutable
inputs and safe to call from many workers at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
    # of the smaller Gram matrix, clamped to zero so roundoff can never produce
    # a negative singular value; returned largest first along the last axis,
    # the order stored norms are summed in.  The larger Gram of a matrix with
    # fewer rows than columns would add rounding-level zero eigenvalues whose
    # square roots cost up to ~2e-8 relative error.
    m, n = arr.shape[-2:]
    arr_t = arr.swapaxes(-1, -2)
    gram = arr_t @ arr if n <= m else arr @ arr_t
    return np.sqrt(np.clip(np.linalg.eigvalsh(gram), 0.0, None))[..., ::-1]


def singular_values(matrix) -> np.ndarray:
    """Singular values, non-increasing and non-negative; length min(rows, cols).

    Uses E^T E when cols <= rows, else E E^T.  The matrix must be 2-D,
    non-empty and finite.
    """
    return _spectrum(_validated_values(matrix))


def nuclear_norm(matrix) -> float:
    """Sum of singular values: tr(sqrt(E^T E)), summed largest first."""
    return float(singular_values(matrix).sum())


@dataclass(frozen=True, eq=False)
class DumpLayout:
    """What every dump of one training set shares: ids, row offsets, column
    count, and scoring's gather plan.  Built by ``EmbeddingDump``, once."""

    ids: tuple[str, ...]
    offsets: np.ndarray
    cols: int

    @cached_property
    def score_slices(self) -> list[tuple[np.ndarray, np.ndarray]]:
        # (members, rows_of) per stacked kernel call: samples of one row count,
        # _SCORE_SLICE_VALUES float64 values (or one sample) at most, and their rows.
        lengths = np.diff(self.offsets)
        by_length = np.argsort(lengths, kind="stable")
        slices = []
        for group in np.split(by_length, np.flatnonzero(np.diff(lengths[by_length])) + 1):
            rows = int(lengths[group[0]])
            step = max(1, _SCORE_SLICE_VALUES // (rows * self.cols))
            for start in range(0, len(group), step):
                members = group[start : start + step]
                slices.append((members, self.offsets[members, None] + np.arange(rows)))
        return slices


@dataclass(frozen=True, eq=False)
class EmbeddingDump:
    """Every sample's token-by-hidden embedding rows, packed into one array.

    Sample ``ids[i]`` owns rows ``values[offsets[i]:offsets[i + 1]]``.
    ``values`` is stored as float32, the dump file's precision, so scoring
    an in-memory dump and scoring the same dump read from disk agree bit for
    bit.  The constructor is the one place a dump is checked: at least one
    sample, ids unique, every sample at least one row, values 2-D with at
    least one column and finite.  It builds the dump's ``layout``, which
    ``with_values`` shares with a new dump, checking only the new values.
    """

    ids: tuple[str, ...]
    offsets: np.ndarray  # (N + 1,) int64 row offsets, offsets[0] == 0
    values: np.ndarray  # (sum of rows, d) float32
    layout: DumpLayout = field(init=False, repr=False)

    def __post_init__(self):
        ids = tuple(self.ids)
        if not ids:
            raise ValueError("embedding dump is empty")
        if len(set(ids)) != len(ids):
            seen = set()
            dup = next(sid for sid in ids if sid in seen or seen.add(sid))
            raise ValueError(f"duplicate sample id {dup!r} in dump")
        values = np.asarray(self.values, dtype=np.float32)
        if values.ndim != 2 or values.shape[1] < 1:
            raise ValueError(f"dump values must be 2-D with at least one column, got shape {values.shape}")
        offsets = np.asarray(self.offsets, dtype=np.int64)
        if offsets.shape != (len(ids) + 1,) or offsets[0] != 0 or offsets[-1] != values.shape[0]:
            raise ValueError(f"row offsets must run from 0 to {values.shape[0]}, one per sample plus one")
        empty = np.flatnonzero(np.diff(offsets) < 1)
        if empty.size:
            raise ValueError(f"sample {ids[empty[0]]!r} has no rows")
        self._fill(DumpLayout(ids, offsets, values.shape[1]), values)

    def with_values(self, values) -> EmbeddingDump:
        """A dump of the same samples in this dump's layout; only ``values`` is checked."""
        dump = object.__new__(type(self))
        dump._fill(self.layout, values)
        return dump

    def _fill(self, layout: DumpLayout, values) -> None:
        values = np.asarray(values, dtype=np.float32)
        shape = (int(layout.offsets[-1]), layout.cols)
        if values.shape != shape:
            raise ValueError(f"dump values must have shape {shape}, got {values.shape}")
        if not np.isfinite(values).all():
            bad_row = np.argmin(np.isfinite(values).all(axis=1))
            sample = int(np.searchsorted(layout.offsets, bad_row, side="right")) - 1
            raise ValueError(f"sample {layout.ids[sample]!r} contains non-finite values")
        for arr in (values, layout.offsets):
            arr.setflags(write=False)
        for name, value in (("ids", layout.ids), ("offsets", layout.offsets), ("values", values), ("layout", layout)):
            object.__setattr__(self, name, value)

    def nuclear_norms(self) -> np.ndarray:
        """Each sample's nuclear norm in ``ids`` order, from its rows widened to float64.

        Samples are scored in groups that share a row count, one stacked
        kernel call per slice of a group, so an epoch costs one LAPACK batch
        per distinct length rather than one call per sample.  Each slice
        holds at most ``_SCORE_SLICE_VALUES`` float64 values (or one
        sample), which bounds scoring's temporaries whatever the group size.
        Every sample's spectrum and sum are computed exactly as
        ``nuclear_norm`` computes them.  The layout plans the slices once.
        """
        norms = np.empty(len(self.ids))
        for members, rows_of in self.layout.score_slices:
            norms[members] = _spectrum(self.values[rows_of].astype(np.float64)).sum(axis=-1)
        return norms
