"""Build packed embedding dumps from per-sample matrices, for tests."""

import numpy as np

from spdcl.nucnorm import DumpLayout, EmbeddingDump


def pack_dump(samples) -> EmbeddingDump:
    """An ``EmbeddingDump`` of ``(sample_id, rows)`` pairs, each ``rows`` a 2-D matrix."""
    samples = list(samples)
    blocks = [np.asarray(rows, dtype=np.float32) for _, rows in samples]
    return EmbeddingDump(
        DumpLayout([sid for sid, _ in samples], np.cumsum([0] + [len(b) for b in blocks])),
        np.concatenate(blocks) if blocks else np.empty((0, 0), np.float32),
    )
