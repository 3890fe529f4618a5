import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdcl import nucnorm
from spdcl.difficulty import ScoreTable
from spdcl.io import read_embedding_dump, write_embedding_dump
from spdcl.nucnorm import DumpLayout, EmbeddingDump, _spectrum, nuclear_norm
from spdcl.trainer import EncodedDataset, Vocabulary

from dumps import pack_dump
from jacobi_oracle import ORACLE_MAX_ELEMENTS, jacobi_singular_values, nuclear_norm_oracle


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


# ---------------------------------------------------------------- fixed cases


def test_identity_singular_values():
    spectrum = _spectrum(np.eye(3))
    assert np.allclose(spectrum, [1.0, 1.0, 1.0])
    assert nuclear_norm(np.eye(3)) == pytest.approx(3.0)


def test_diagonal_matrix():
    spectrum = _spectrum(np.diag([3.0, 4.0]))
    assert np.allclose(spectrum, [4.0, 3.0])
    assert nuclear_norm(np.diag([3.0, 4.0])) == pytest.approx(7.0)


def test_row_vector_is_euclidean_length():
    v = np.array([[3.0, 4.0, 12.0]])
    assert nuclear_norm(v) == pytest.approx(13.0)


def test_one_by_one_is_absolute_value():
    assert nuclear_norm(np.array([[-2.5]])) == pytest.approx(2.5)


def test_oracle_identity_and_permutation():
    assert nuclear_norm_oracle(np.eye(3)) == pytest.approx(3.0)
    assert nuclear_norm_oracle(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(2.0)


def test_dump_packs_samples_and_scores_each():
    rng = np.random.default_rng(5)
    mats = [rng.normal(size=(m, 4)) for m in (3, 1, 9)]
    dump = pack_dump(zip(("s1", "s2", "s3"), mats))
    assert dump.ids == ("s1", "s2", "s3")
    assert dump.offsets.tolist() == [0, 3, 4, 13]
    assert dump.values.dtype == np.float32 and dump.values.shape == (13, 4)
    assert not dump.values.flags.writeable
    # rows are stored as float32 and scored widened to float64
    want = [nuclear_norm(m.astype(np.float32).astype(np.float64)) for m in mats]
    norms = dump.nuclear_norms()
    assert norms.dtype == np.float64 and norms.tolist() == want


def _per_sample_norm(rows):
    # One sample scored on its own, written out: rows stored as float32 and
    # widened to float64, smaller-side Gram, eigvalsh, rounding-level
    # eigenvalues zeroed, sqrt, then the spectrum summed largest first.
    mat = np.asarray(rows, dtype=np.float32).astype(np.float64)
    return float(_written_out_spectrum(mat)[::-1].sum())


def _written_out_spectrum(mat):
    # Ascending: eigenvalues at or below max(m, n) * eps * lambda_max count as zero.
    gram = mat.T @ mat if mat.shape[1] <= mat.shape[0] else mat @ mat.T
    eig = np.linalg.eigvalsh(gram)
    return np.sqrt(np.where(eig > max(mat.shape) * np.finfo(np.float64).eps * eig[-1], eig, 0.0))


@pytest.mark.parametrize("d", [1, 3, 16, 33])
def test_grouped_scoring_equals_per_sample_scoring(d):
    # A dump is scored in stacks of samples that share a row count; every
    # norm must equal the one-sample computation bit for bit.  Row counts run
    # below, at and above d; 3d+5 and 3d+7 are groups of one sample; d+2 is a
    # group of 1000, which at d=33 spans several slices; ids are not in
    # length order.
    rng = np.random.default_rng(d)
    lengths = [max(1, d - 1), d, d + 1, 3 * d + 5, 3 * d + 7] + [d + 2] * 1000
    lengths += rng.integers(1, 2 * d + 4, size=200).tolist()
    rng.shuffle(lengths)
    mats = [rng.normal(scale=rng.uniform(0.01, 10.0), size=(rows, d)) for rows in lengths]
    dump = pack_dump((f"s{i}", m) for i, m in enumerate(mats))
    assert dump.nuclear_norms().tolist() == [_per_sample_norm(m) for m in mats]


def test_scoring_memory_is_bounded():
    # Every sample has the same row count, so they form one group.  Scored as
    # one float64 stack, it would need twice values.nbytes; sliced, scoring's
    # peak stays a small constant.
    n, rows, d = 1 << 14, 16, 16
    values = np.random.default_rng(0).standard_normal((n * rows, d), dtype=np.float32)
    dump = EmbeddingDump(DumpLayout(tuple(f"s{i}" for i in range(n)), np.arange(n + 1) * rows), values)
    tracemalloc.start()
    try:
        norms = dump.nuclear_norms()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(norms) == n
    assert peak < values.nbytes / 2, (peak, values.nbytes)


def test_indexed_scoring_memory_is_bounded():
    # The run loop's twin of the dump above: a 40-row table and token ids.
    # Nearly every sample repeats a token and scores on its distinct rows,
    # so the plan holds their gather rows and the row weights; scoring, plan
    # included, stays under the same bound as the materialized dump's.
    n, rows, d = 1 << 14, 16, 16
    rng = np.random.default_rng(0)
    table = rng.standard_normal((40, d), dtype=np.float32)
    tokens = rng.integers(0, 40, size=n * rows)
    by_sample = np.sort(tokens.reshape(n, rows), axis=1)
    assert (by_sample[:, 1:] == by_sample[:, :-1]).any(axis=1).mean() > 0.9
    dump = EmbeddingDump(DumpLayout(tuple(f"s{i}" for i in range(n)), np.arange(n + 1) * rows), table, tokens)
    tracemalloc.start()
    try:
        norms = dump.nuclear_norms()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(norms) == n
    assert peak < n * rows * d * 4 / 2, (peak, n * rows * d * 4)


def test_distinct_rows_rule_boundary():
    # d=4 and twelve rows each.  Six distinct rows, or four (u equal to
    # min(m, d)), do not shrink the Gram: those samples keep their own rows
    # and score as the plain kernel does.  Three distinct rows do: the sample
    # scores on them in first-appearance order, each scaled by the square
    # root of its count.  Twenty tables, so that no case holds by chance.
    rng = np.random.default_rng(4)
    for _ in range(20):
        table = rng.standard_normal((6, 4)).astype(np.float32).astype(np.float64)
        six = table[[0, 1, 2, 3, 4, 5, 5, 4, 3, 2, 1, 0]]
        four = table[[0, 1, 2, 3] * 3]
        three = table[[2, 0, 2, 1, 0, 2, 2, 1, 0, 2, 1, 2]]
        norms = pack_dump([("six", six), ("four", four), ("three", three)]).nuclear_norms()
        assert norms[0] == _per_sample_norm(six) == nuclear_norm(six)
        assert norms[1] == _per_sample_norm(four) == nuclear_norm(four)
        weighted = table[[2, 0, 1]] * np.sqrt([6.0, 3.0, 3.0])[:, None]
        assert norms[2] == float(_written_out_spectrum(weighted)[::-1].sum()) == nuclear_norm(three)
        assert rel_err(norms[2], nuclear_norm_oracle(three)) <= 1e-12


@pytest.mark.parametrize("case", ["as-is", "one-sample-chunks", "every-hash-collides"])
@pytest.mark.parametrize("table_rows", ["distinct", "two-equal"])
def test_indexed_and_read_back_dumps_score_alike(tmp_path, monkeypatch, case, table_rows):
    # The indexed dump takes the classes of equal rows from its token ids
    # while the table's rows are distinct.  With "two-equal", tokens 3 and 7
    # have bytewise-equal float32 rows, so token ids are not the classes:
    # the table check must see that and compare the rows' bytes.  The dump
    # read back from its file always compares bytes.  Every norm must equal
    # nuclear_norm of the sample's widened rows, also when the rows are
    # classed and written one sample at a time, or when every row hash
    # collides and the exact byte comparison alone tells rows apart.
    rng = np.random.default_rng(11)
    table = rng.standard_normal((10, 8)).astype(np.float32)
    if table_rows == "two-equal":
        table[7] = table[3]
    lengths = rng.integers(1, 14, size=300)
    lengths[0] = 4
    tokens = rng.integers(0, 10, size=int(lengths.sum()))
    tokens[:4] = [3, 7, 3, 7]
    offsets = np.cumsum([0, *lengths])
    want = [nuclear_norm(table[tokens[a:b]].astype(np.float64)) for a, b in zip(offsets[:-1], offsets[1:])]
    if case == "one-sample-chunks":
        monkeypatch.setattr(nucnorm, "_CLASS_CHUNK_ROWS", 1)
        monkeypatch.setattr(nucnorm, "_DUMP_CHUNK_VALUES", 1)
    if case == "every-hash-collides":
        monkeypatch.setattr(nucnorm, "_ROW_HASH_BASE", 0)
    assert (nucnorm._table_classes(table) is None) == (table_rows == "distinct")
    dump = EmbeddingDump(DumpLayout([f"s{i}" for i in range(len(lengths))], offsets), table, tokens)
    indexed = dump.nuclear_norms()
    write_embedding_dump(tmp_path / "dump.bin", dump)
    read_back = read_embedding_dump(tmp_path / "dump.bin").nuclear_norms()
    assert indexed.tobytes() == read_back.tobytes() == np.array(want).tobytes()


def _byte_classes_oracle(rows, offsets):
    """For each row, the first row of its sample whose bytes equal its own, one comparison at a time."""
    first = []
    for a, b in zip(offsets[:-1], offsets[1:]):
        for r in range(a, b):
            first.append(next(q for q in range(a, r + 1) if rows[q].tobytes() == rows[r].tobytes()))
    return first


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("hashes", ["as-is", "every-hash-collides"])
def test_byte_classes_equal_a_row_by_row_comparison(monkeypatch, dtype, hashes):
    # Samples drawn from a small pool of rows, so most repeat some; 0.0 and
    # -0.0 are equal values but not equal bytes.  The first sample (d=2,
    # m=5, u=3) repeats rows without shrinking, since u >= min(m, d).
    if hashes == "every-hash-collides":
        monkeypatch.setattr(nucnorm, "_ROW_HASH_BASE", 0)
    rng = np.random.default_rng(17)
    pool = rng.integers(-2, 3, size=(6, 2)).astype(dtype)
    pool[0], pool[1] = [0.0, 1.0], [-0.0, 1.0]
    lengths = [5, *rng.integers(1, 9, size=60)]
    picks = np.concatenate([[2, 3, 2, 4, 3], rng.integers(0, len(pool), size=sum(lengths) - 5)])
    rows, offsets = pool[picks], np.cumsum([0, *lengths])
    first = nucnorm._byte_classes(rows, offsets)
    assert first.tolist() == _byte_classes_oracle(rows, offsets.tolist())
    assert first[:5].tolist() == [0, 1, 0, 3, 1]
    assert nucnorm._weights(first, offsets, 2)[:5].tolist() == [1] * 5
    assert nucnorm._table_classes(pool) is None
    assert nucnorm._table_classes(pool[[0, 2, 1, 2]]).tolist() == [0, 1, 2, 1]


def test_each_layout_keeps_its_own_scoring_plan(monkeypatch):
    # Two run loops' dumps scored in turn: each layout plans once, and its
    # plan stays with it while the other layout is scored.
    plans = []
    plan = nucnorm._plan
    monkeypatch.setattr(nucnorm, "_plan", lambda *args: plans.append(args[0]) or plan(*args))
    rng = np.random.default_rng(23)
    table = rng.standard_normal((12, 4)).astype(np.float32)
    dumps = []
    for n in (30, 40):
        lengths = rng.integers(1, 9, size=n)
        layout = DumpLayout([f"s{i:02d}" for i in range(n)], np.cumsum([0, *lengths]))
        dumps.append(EmbeddingDump(layout, table, rng.integers(0, 12, size=int(lengths.sum()))))
    want = [dump.nuclear_norms().tobytes() for dump in dumps]
    for _ in range(2):
        assert [dump.nuclear_norms().tobytes() for dump in dumps] == want
    assert plans == [dumps[0].layout, dumps[1].layout]


def _count_class_passes(monkeypatch) -> list:
    """Patch ``_byte_classes`` to log each call; returns the log."""
    calls = []
    byte_classes = nucnorm._byte_classes
    monkeypatch.setattr(nucnorm, "_byte_classes", lambda *args: calls.append(1) or byte_classes(*args))
    return calls


def _per_sample_norms(values, offsets) -> bytes:
    return np.array([nuclear_norm(values[a:b].astype(np.float64)) for a, b in zip(offsets[:-1], offsets[1:])]).tobytes()


def _hash_twin(row: np.ndarray) -> np.ndarray:
    """A finite float32 row with other bytes than ``row`` and the same ``_row_hashes``.

    Adding ``b`` to word 1 and ``-b * BASE`` to word 0 leaves
    ``sum_j w_j * BASE**(j + 1)`` unchanged mod 2**32."""
    bits = row.view(np.uint32)
    for b in range(1, 1000):
        twin = bits.copy()
        twin[0] -= np.uint32(b * nucnorm._ROW_HASH_BASE % (1 << 32))
        twin[1] += np.uint32(b)
        if np.isfinite(twin.view(np.float32)).all():
            return twin.view(np.float32)
    raise AssertionError("no finite twin")


@pytest.mark.parametrize("change", ["rows-become-equal", "repeat-changes", "heads-hash-alike", "none"])
@pytest.mark.parametrize("hashes", ["as-is", "every-hash-collides"])
def test_a_later_read_dump_scores_as_a_cold_read(tmp_path, monkeypatch, change, hashes):
    # Two dumps of one layout read in one process, as spdcl score reads a
    # run's epochs: the second is scored on the classes of equal rows that
    # the first one's pass kept if its rows still fall into them, and by a
    # fresh pass otherwise.  Both dumps draw each sample's rows from a table
    # by the same token ids; the second, from a new table, is then changed
    # in one sample that shrinks.  Its norms must equal those of a cold read
    # (a fresh header walk, so a layout that keeps nothing) and
    # nuclear_norm of each sample, bit for bit.
    if hashes == "every-hash-collides":
        monkeypatch.setattr(nucnorm, "_ROW_HASH_BASE", 0)
    rng = np.random.default_rng(29)
    lengths = rng.integers(1, 14, size=300)
    offsets = np.cumsum([0, *lengths])
    tokens = rng.integers(0, 7, size=int(offsets[-1]))
    before = rng.standard_normal((7, 8)).astype(np.float32)[tokens]
    after = rng.standard_normal((7, 8)).astype(np.float32)[tokens]
    # A sample of eight rows or more, from a seven-row table, has fewer
    # distinct rows than min(m, d=8), so it shrinks.
    sample = next(i for i, m in enumerate(lengths) if m >= 8 and len(set(tokens[offsets[i] : offsets[i + 1]])) >= 2)
    rows = np.arange(offsets[sample], offsets[sample + 1])
    t1, t2 = list(dict.fromkeys(tokens[rows]))[:2]  # the sample's first two distinct tokens
    head1, head2 = rows[tokens[rows] == t1][0], rows[tokens[rows] == t2][0]
    if change == "rows-become-equal":  # the classes of t1 and t2 merge
        after[rows[tokens[rows] == t2]] = after[head1]
    elif change == "repeat-changes":
        repeat = next(r for r in rows if tokens[r] in tokens[offsets[sample] : r])
        after[repeat] += 0.5
    elif change == "heads-hash-alike":  # two heads of other bytes and one hash
        after[rows[tokens[rows] == t2]] = _hash_twin(after[head1])
        assert after[head2].tobytes() != after[head1].tobytes()
        assert nucnorm._row_hashes(after[[head1, head2]]).tolist() == [nucnorm._row_hashes(after[[head1]])[0]] * 2
    want = _per_sample_norms(after, offsets)
    layout = DumpLayout([f"s{i:03d}" for i in range(len(lengths))], offsets)
    for name, values in (("before.bin", before), ("after.bin", after)):
        write_embedding_dump(tmp_path / name, EmbeddingDump(layout, values))
    passes = _count_class_passes(monkeypatch)
    first = read_embedding_dump(tmp_path / "before.bin")
    first.nuclear_norms()
    assert passes == [1]
    like = first.layout, 8
    warm = read_embedding_dump(tmp_path / "after.bin", like=like)
    assert warm.layout is first.layout
    assert warm.nuclear_norms().tobytes() == want
    kept_classes_hold = change == "none" and hashes == "as-is"
    assert len(passes) == (1 if kept_classes_hold else 2)
    if change in ("rows-become-equal", "repeat-changes") and hashes == "as-is":
        # The fresh pass's classes are kept: the same dump read again has no pass.
        assert read_embedding_dump(tmp_path / "after.bin", like=like).nuclear_norms().tobytes() == want
        assert len(passes) == 2
    cold = read_embedding_dump(tmp_path / "after.bin")
    assert cold.layout is not first.layout and list(cold.layout._memo) == []
    assert cold.nuclear_norms().tobytes() == want


def test_read_dumps_whose_classes_hold_run_one_class_pass(tmp_path, monkeypatch):
    # Five epochs' dumps of one run: a new table each, the same token ids.
    # The first one's pass finds the classes of equal rows; the other four
    # are checked against them and need no pass, and every norm is still
    # nuclear_norm of its sample's rows.  Each read is handed the layout of
    # the one before, as spdcl score chains a run's epochs in one process.
    rng = np.random.default_rng(31)
    lengths = rng.integers(1, 14, size=200)
    offsets = np.cumsum([0, *lengths])
    assert offsets[-1] <= nucnorm._CLASS_CHUNK_ROWS  # one class chunk, so one call per pass
    tokens = rng.integers(0, 12, size=int(offsets[-1]))
    layout = DumpLayout([f"s{i:03d}" for i in range(len(lengths))], offsets)
    passes = _count_class_passes(monkeypatch)
    like = None
    for epoch in range(5):
        values = rng.standard_normal((12, 6)).astype(np.float32)[tokens]
        write_embedding_dump(tmp_path / f"epoch{epoch}.bin", EmbeddingDump(layout, values))
        read = read_embedding_dump(tmp_path / f"epoch{epoch}.bin", like=like)
        like = read.layout, 6
        assert read.nuclear_norms().tobytes() == _per_sample_norms(values, offsets)
    assert len(passes) == 1 + 5 * 200  # the one dump pass, and nuclear_norm's pass per sample


def test_checked_read_dump_scoring_memory_is_bounded(monkeypatch):
    # Two dumps on one layout, not indexed, whose samples repeat rows of a
    # 40-row table at the same token ids.  The first one's pass keeps the
    # classes of equal rows as chunk-local row indices, two per row in two
    # bytes each, since a class chunk has 4,096 rows; scoring the second
    # checks them and stays under the bound of test_scoring_memory_is_bounded.
    n, rows, d = 1 << 14, 16, 16
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, 40, size=n * rows)
    layout = DumpLayout(tuple(f"s{i}" for i in range(n)), np.arange(n + 1) * rows)
    first, second = (EmbeddingDump(layout, rng.standard_normal((40, d), dtype=np.float32)[tokens]) for _ in range(2))
    first.nuclear_norms()
    classes = layout._memo[("plan", d)][3]
    assert sum(part.nbytes for chunk in classes for part in chunk) <= 4 * n * rows
    passes = _count_class_passes(monkeypatch)
    tracemalloc.start()
    try:
        norms = second.nuclear_norms()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(norms) == n and not passes
    assert peak < second.values.nbytes / 2, (peak, second.values.nbytes)


def test_norm_sums_spectrum_largest_first():
    # Stored norms depend on the summation order of the singular values, so
    # it is pinned: largest first.  Summing smallest first changes the last
    # bit of some norms.
    rng = np.random.default_rng(9)
    reordered = 0
    for _ in range(200):
        mat = rng.normal(size=(int(rng.integers(1, 30)), 16))
        sv = _written_out_spectrum(mat)
        assert nuclear_norm(mat) == float(sv[::-1].sum())
        reordered += float(sv.sum()) != float(sv[::-1].sum())
    assert reordered > 0


# ------------------------------------------------------------------ rejection


def test_rejects_nan_and_inf():
    with pytest.raises(ValueError, match="non-finite"):
        nuclear_norm(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError, match="'bad' contains non-finite"):
        pack_dump([("ok", [[1.0]]), ("bad", [[np.inf]])])
    # finite in float64 but not in the dump's float32
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        pack_dump([("big", [[1e300]])])


def test_dump_rejects_bad_layout():
    # duplicate ids and empty dumps: test_difficulty.test_duplicate_and_empty_dumps_rejected
    with pytest.raises(ValueError, match="'b' has no rows"):
        DumpLayout(("a", "b"), [0, 1, 1])
    with pytest.raises(ValueError, match="offsets"):
        DumpLayout(("a",), [1, 2])
    with pytest.raises(ValueError, match="offsets"):
        DumpLayout(("a",), [0, 1, 2])
    with pytest.raises(ValueError, match="sample 1 has an empty id"):
        DumpLayout(("a", ""), [0, 1, 2])
    layout = DumpLayout(("a",), [0, 2])
    with pytest.raises(ValueError, match="layout's 2 rows, got 1"):
        EmbeddingDump(layout, np.ones((1, 2)))
    with pytest.raises(ValueError, match="2-D"):
        EmbeddingDump(layout, np.ones(2))
    with pytest.raises(ValueError, match="column"):
        EmbeddingDump(layout, np.ones((2, 0)))


# Per integer column, a constructor call and the float and bool columns that
# would truncate to a valid one: floats round toward 0, bools read as 0 and 1.
INTEGER_COLUMNS = {
    "layout-offsets": (lambda col: DumpLayout(("a",), col), [0.0, 1.5], [False, True]),
    "dump-index": (lambda col: EmbeddingDump(DumpLayout(("a",), [0, 2]), np.ones((3, 2)), col),
                   [0.9, 2.5], [True, False]),
    "table-order": (lambda col: ScoreTable(1, ("a", "b"), [1.0, 2.0], [1.0, 2.0], col), [1.2, 0.7], [True, False]),
    "dataset-tokens": (lambda col: EncodedDataset(("a",), col, [0, 2], [0], Vocabulary(("w2", "w3")), ("x",),
                                                  "multiclass"), [2.0, 3.5], [True, False]),
}


@pytest.mark.parametrize("kind", ["float", "bool"])
@pytest.mark.parametrize("column", INTEGER_COLUMNS)
def test_integer_columns_reject_floats_and_bools(column, kind):
    build, floats, bools = INTEGER_COLUMNS[column]
    with pytest.raises(ValueError, match="expected integers, got an array of dtype (float64|bool)"):
        build(floats if kind == "float" else bools)


def test_rejects_zero_dimension():
    with pytest.raises(ValueError):
        nuclear_norm(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        nuclear_norm(np.array([1.0, 2.0]))


def test_oracle_rejects_large_input():
    with pytest.raises(ValueError, match="oracle"):
        nuclear_norm_oracle(np.zeros((101, 101)))


# --------------------------------------------------- oracle cross-validation


def test_singular_values_match_oracle_4x3():
    rng = np.random.default_rng(42)
    for _ in range(100):
        mat = rng.uniform(-1.0, 1.0, size=(4, 3))
        got = _spectrum(mat)
        want = jacobi_singular_values(mat)
        assert np.all(np.abs(got - want) <= 1e-8 * np.abs(want))


def test_nuclear_norm_matches_oracle_wide_and_tall():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = int(rng.integers(1, 20))
        n = int(rng.integers(1, 20))
        mat = rng.uniform(-1.0, 1.0, size=(m, n))
        assert rel_err(nuclear_norm(mat), nuclear_norm_oracle(mat)) <= 1e-8


@pytest.mark.parametrize("d", [16, 64])
@pytest.mark.parametrize("shape", ["short", "long"])
def test_repeated_and_permuted_rows_match_oracle_exactly(d, shape):
    # A sample that repeats a token has repeated rows, so its matrix is
    # rank-deficient; the Gram's zero eigenvalues must not leak rounding
    # noise into the norm.  Rows are float32 table rows, as a dump holds them.
    rng = np.random.default_rng(d)
    rows, distinct = (12, 5) if shape == "short" else (ORACLE_MAX_ELEMENTS // d - 6, d // 2 + 3)
    table = rng.normal(0.0, 1.0 / np.sqrt(d), size=(distinct, d)).astype(np.float32).astype(np.float64)
    tokens = np.concatenate([np.arange(distinct), rng.integers(0, distinct, size=rows - distinct)])
    repeated = table[tokens]
    permuted = table[rng.permutation(tokens)]
    dump = pack_dump([("repeated", repeated), ("permuted", permuted)])
    for mat, dumped in zip((repeated, permuted), dump.nuclear_norms()):
        want = nuclear_norm_oracle(mat)
        assert rel_err(nuclear_norm(mat), want) <= 1e-12
        assert rel_err(dumped, want) <= 1e-12


def test_element_shuffle_can_change_the_norm():
    # Whole-row/column permutations never change the norm, but an arbitrary
    # element move can: [[1,0],[0,1]] -> [[0,1],[0,1]].
    before = nuclear_norm_oracle(np.array([[1.0, 0.0], [0.0, 1.0]]))
    after = nuclear_norm_oracle(np.array([[0.0, 1.0], [0.0, 1.0]]))
    assert abs(before - after) > 1e-6


# ----------------------------------------------------------------- properties

# Arbitrary (possibly degenerate) matrices, for properties that tolerate
# rank deficiency.
matrices = st.integers(1, 8).flatmap(
    lambda m: st.integers(1, 8).flatmap(
        lambda n: st.lists(
            st.floats(-10.0, 10.0, allow_nan=False, width=32),
            min_size=m * n,
            max_size=m * n,
        ).map(lambda xs: np.array(xs, dtype=np.float64).reshape(m, n))
    )
)

# Continuous-entry matrices (full rank almost surely).  The Gram route only
# resolves singular values to ~sqrt(eps) absolute, so the tight relative
# invariants are stated over non-degenerate random instances.
random_matrices = st.tuples(
    st.integers(1, 10), st.integers(1, 10), st.integers(0, 2**32 - 1)
).map(lambda t: np.random.default_rng(t[2]).uniform(-1.0, 1.0, size=(t[0], t[1])))


@settings(max_examples=60, deadline=None)
@given(random_matrices, st.floats(-100.0, 100.0, allow_nan=False))
def test_scale_homogeneity(mat, c):
    scaled = nuclear_norm(c * mat)
    assert rel_err(scaled, abs(c) * nuclear_norm(mat)) <= 1e-10 or scaled <= 1e-12


@settings(max_examples=60, deadline=None)
@given(random_matrices, st.integers(0, 2**32 - 1))
def test_row_and_column_permutation_invariance(mat, seed):
    rng = np.random.default_rng(seed)
    base = nuclear_norm(mat)
    rows = rng.permutation(mat.shape[0])
    cols = rng.permutation(mat.shape[1])
    assert rel_err(nuclear_norm(mat[rows][:, cols]), base) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(matrices, st.integers(0, 2**32 - 1))
def test_appending_a_row_never_decreases(mat, seed):
    rng = np.random.default_rng(seed)
    extra = rng.normal(size=(1, mat.shape[1]))
    grown = np.vstack([mat, extra])
    assert nuclear_norm(grown) >= nuclear_norm(mat) - 1e-9


@settings(max_examples=60, deadline=None)
@given(matrices, st.integers(0, 2**32 - 1))
def test_triangle_inequality(mat, seed):
    rng = np.random.default_rng(seed)
    other = rng.normal(size=mat.shape)
    lhs = nuclear_norm(mat + other)
    rhs = nuclear_norm(mat) + nuclear_norm(other)
    assert lhs <= rhs + 1e-9 * max(1.0, rhs)


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_norm_ordering(mat):
    spectrum = _spectrum(mat)
    spectral = spectrum[0]
    frob = float(np.linalg.norm(mat))
    nuc = float(spectrum.sum())
    slack = 1e-9 * max(1.0, nuc)
    assert spectral <= frob + slack
    assert frob <= nuc + slack
    assert nuc <= np.sqrt(min(mat.shape)) * frob + slack


@settings(max_examples=40, deadline=None)
@given(matrices)
def test_spectrum_sorted_and_nonnegative(mat):
    spectrum = _spectrum(mat)
    assert len(spectrum) == min(mat.shape)
    assert np.all(spectrum >= 0)
    assert np.all(spectrum[:-1] >= spectrum[1:])
