"""Build and read score tables as per-sample rows, for tests."""

import numpy as np

from spdcl.difficulty import ScoreTable


def score_table(rows, epoch=1) -> ScoreTable:
    """A ``ScoreTable`` of ``(sample_id, score, norm)`` rows listed easiest first."""
    rows = list(rows)
    by_id = sorted(range(len(rows)), key=lambda r: rows[r][0])
    order = np.empty(len(rows), dtype=np.int64)
    order[by_id] = np.arange(len(rows))
    return ScoreTable(
        epoch=epoch,
        ids=[rows[r][0] for r in by_id],
        norm=[rows[r][2] for r in by_id],
        score=[rows[r][1] for r in by_id],
        order=order,
    )


def ranked_ids(table: ScoreTable) -> list[str]:
    """The table's sample ids, easiest first."""
    return [table.ids[row] for row in table.order]


def scores_by_id(table: ScoreTable) -> dict[str, float]:
    return dict(zip(table.ids, table.score.tolist()))


def table_bits(table: ScoreTable) -> tuple:
    """Everything a table holds, bit for bit: epoch type and value, ids, and each column's dtype and bytes."""
    columns = (table.norm, table.score, table.order)
    return (type(table.epoch), table.epoch, table.ids, *((c.dtype.str, c.tobytes()) for c in columns))
