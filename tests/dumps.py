"""Build embedding dumps, and the bytes of their files, from per-sample matrices, for tests."""

import struct

import numpy as np

from spdcl.nucnorm import DumpLayout, EmbeddingDump

# Id pairs of 2..9 UTF-8 bytes between them: in a dump of two samples the
# ids end at byte 42..49, so the padding takes every length, 6, 5, 4, 3, 2,
# 1, 0 and 7.
PAD_IDS = [("x" * (length - 1), "y") for length in range(2, 10)]


def pack_dump(samples) -> EmbeddingDump:
    """An ``EmbeddingDump`` of ``(sample_id, rows)`` pairs, each ``rows`` a 2-D matrix."""
    samples = list(samples)
    blocks = [np.asarray(rows, dtype=np.float32) for _, rows in samples]
    return EmbeddingDump(
        DumpLayout([sid for sid, _ in samples], np.cumsum([0] + [len(b) for b in blocks])),
        np.concatenate(blocks) if blocks else np.empty((0, 0), np.float32),
    )


def dump_file(ids, blocks, *, cols=None, offsets=None, rows=None, version=3, pad=None) -> bytes:
    """A dump file packed field by field from the README layout.

    Magic, u32 version, u64 sample count, u32 cols, u64 total rows, each
    id's u32 byte length, the ids' UTF-8 bytes, zero bytes up to the next
    multiple of 8 in the file, the u64 row offsets, then the blocks' values
    as little-endian float32, row-major.  ``ids`` are strings or raw bytes.
    ``cols``, ``offsets`` and ``rows`` default to what the blocks hold, and
    ``pad`` to that run of zero bytes; give them to pack a file whose
    fields disagree.
    """
    ids = [sid if isinstance(sid, bytes) else sid.encode("utf-8") for sid in ids]
    blocks = [np.asarray(block, dtype=np.float64) for block in blocks]
    if cols is None:
        cols = blocks[0].shape[1] if blocks else 1
    if offsets is None:
        offsets = np.cumsum([0] + [len(block) for block in blocks]).tolist()
    if rows is None:
        rows = offsets[-1]
    out = b"SPDCLEMB" + struct.pack("<I", version) + struct.pack("<Q", len(ids))
    out += struct.pack("<I", cols) + struct.pack("<Q", rows)
    out += b"".join(struct.pack("<I", len(sid)) for sid in ids) + b"".join(ids)
    out += bytes(-len(out) % 8) if pad is None else pad
    out += b"".join(struct.pack("<Q", offset) for offset in offsets)
    return out + b"".join(struct.pack("<f", value) for block in blocks for value in block.ravel().tolist())
