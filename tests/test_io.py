import json
import re
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spdcl import io as spdcl_io
from spdcl.difficulty import ALIGNMENT_MODES, DELTA_ORDERINGS, ScoreTable, delta_scores, initial_scores
from spdcl.io import (
    DUMP_MAGIC,
    FormatError,
    RunConfig,
    TextSample,
    f32_roundtrip,
    load_run_config,
    read_dataset,
    read_embedding_dump,
    read_manifest,
    read_scores,
    write_dataset,
    write_embedding_dump,
    write_json_atomic,
    write_manifest,
    write_run_config,
    write_scores,
)
from spdcl.scheduler import EpochPlan

from dumps import pack_dump
from tables import ranked_ids, score_table, table_bits


# ------------------------------------------------------------ dataset files


def test_dataset_round_trip(tmp_path):
    samples = [
        TextSample("a", "hello world", ("x",)),
        TextSample("b", "unicode tøkens", ("x", "y")),
    ]
    path = tmp_path / "data.jsonl"
    write_dataset(path, samples)
    assert read_dataset(path) == samples
    # single-label records serialize the label as a bare string
    first = json.loads(path.read_text().splitlines()[0])
    assert first["labels"] == "x"


def test_dataset_rejects_duplicates_and_empty_labels(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id":"a","text":"t","labels":"x"}\n{"id":"a","text":"t","labels":"y"}\n')
    with pytest.raises(FormatError, match="duplicate"):
        read_dataset(path)
    path.write_text('{"id":"a","text":"t","labels":[]}\n')
    with pytest.raises(FormatError, match="label"):
        read_dataset(path)
    path.write_text("not json\n")
    with pytest.raises(FormatError, match="not valid JSON"):
        read_dataset(path)
    path.write_text('{"id":"a","text":"t","labels":"x"} {"id":"b"}\n')
    with pytest.raises(FormatError, match="line 1 is not valid JSON: Extra data"):
        read_dataset(path)


_GOOD_RECORD = '{"id":"a","text":"t","labels":"x"}\n'


@pytest.mark.parametrize(
    "body, match",
    [
        (_GOOD_RECORD + '["b","t","x"]\n', r"line 2 must have id/text/labels fields"),
        (_GOOD_RECORD + '"b"\n', r"line 2 must have id/text/labels fields"),
        (_GOOD_RECORD + '{"id":"b","labels":"x"}\n', r"line 2 must have id/text/labels fields"),
        ('{"id":7,"text":"t","labels":"x"}\n', r"line 1 has a non-string or empty id"),
        ('{"id":"","text":"t","labels":"x"}\n', r"line 1 has a non-string or empty id"),
        ('{"id":"a","text":"t","labels":["x",3]}\n', r"line 1: record 'a' needs a non-empty label or label list"),
        ('{"id":"a","text":"t","labels":7}\n', r"line 1: record 'a' needs a non-empty label or label list"),
        ("", r"dataset is empty"),
        ("\n  \n", r"dataset is empty"),
        # Errors name the physical line, blank lines included.
        ("\n\n" + _GOOD_RECORD + "\n" + '{"id":7,"text":"t","labels":"x"}\n', r"line 5 has a non-string or empty id"),
        (_GOOD_RECORD + "\n" + _GOOD_RECORD, r"line 3 has a duplicate sample id 'a'"),
        # The first bad line wins: a field error before a later JSON error.
        (_GOOD_RECORD + '{"id":7,"text":"t","labels":"x"}\n\n\nnot json\n', r"line 2 has a non-string or empty id"),
        (_GOOD_RECORD + 'not json\n{"id":7,"text":"t","labels":"x"}\n', r"line 2 is not valid JSON"),
    ],
    ids=["list-record", "string-record", "missing-text", "int-id", "empty-id",
         "int-in-label-list", "int-labels", "empty-file", "blank-lines",
         "bad-id-after-blank-lines", "duplicate-after-blank-line",
         "field-error-before-json-error", "json-error-before-field-error"],
)
def test_dataset_rejects_malformed_records(tmp_path, body, match):
    path = tmp_path / "bad.jsonl"
    path.write_text(body)
    with pytest.raises(FormatError, match=match):
        read_dataset(path)


@pytest.mark.parametrize("text", ["null", "7", '["t"]', "true"])
def test_dataset_rejects_non_string_text(tmp_path, text):
    path = tmp_path / "bad.jsonl"
    path.write_text(f'{{"id":"a","text":{text},"labels":"x"}}\n')
    with pytest.raises(FormatError, match="'a' has a non-string text"):
        read_dataset(path)


# ---------------------------------------------------------- embedding dumps


def sample_dump():
    rng = np.random.default_rng(0)
    return pack_dump((f"s{i}", rng.normal(size=(i + 1, 3))) for i in range(4))


def test_dump_round_trip_byte_identical(tmp_path):
    dump = sample_dump()
    first = tmp_path / "a.bin"
    second = tmp_path / "b.bin"
    write_embedding_dump(first, dump)
    write_embedding_dump(second, read_embedding_dump(first))
    assert first.read_bytes() == second.read_bytes()


def test_dump_values_survive_exactly(tmp_path):
    dump = sample_dump()
    path = tmp_path / "dump.bin"
    write_embedding_dump(path, dump)
    loaded = read_embedding_dump(path)
    assert loaded.ids == dump.ids
    assert np.array_equal(loaded.offsets, dump.offsets)
    assert loaded.values.dtype == np.float32
    assert np.array_equal(loaded.values, dump.values)


def test_dump_header_layout(tmp_path):
    path = tmp_path / "dump.bin"
    write_embedding_dump(path, pack_dump([("ab", [[1.0, 2.0]])]))
    blob = path.read_bytes()
    assert blob[:8] == DUMP_MAGIC
    version, count = struct.unpack("<IQ", blob[8:20])
    assert (version, count) == (1, 1)
    (id_len,) = struct.unpack("<I", blob[20:24])
    assert blob[24 : 24 + id_len] == b"ab"
    rows, cols = struct.unpack("<II", blob[24 + id_len : 32 + id_len])
    assert (rows, cols) == (1, 2)
    floats = np.frombuffer(blob[32 + id_len :], dtype="<f4")
    assert floats.tolist() == [1.0, 2.0]


def test_dump_rejects_corruption(tmp_path):
    path = tmp_path / "dump.bin"
    write_embedding_dump(path, sample_dump())
    blob = path.read_bytes()
    bad_magic = tmp_path / "magic.bin"
    bad_magic.write_bytes(b"XXXXXXXX" + blob[8:])
    with pytest.raises(FormatError, match="magic"):
        read_embedding_dump(bad_magic)
    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(blob[:-5])
    with pytest.raises(FormatError, match="truncated"):
        read_embedding_dump(truncated)
    trailing = tmp_path / "trail.bin"
    trailing.write_bytes(blob + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        read_embedding_dump(trailing)


def dump_bytes(*samples):
    """A v1 dump written by hand: (id bytes, rows, cols, float values) per sample."""
    parts = [DUMP_MAGIC, struct.pack("<IQ", 1, len(samples))]
    for id_bytes, rows, cols, floats in samples:
        parts += [struct.pack("<I", len(id_bytes)), id_bytes, struct.pack("<II", rows, cols)]
        parts.append(np.asarray(floats, dtype="<f4").tobytes())
    return b"".join(parts)


def test_dump_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "dup.bin"
    path.write_bytes(dump_bytes((b"a", 1, 1, [1.0]), (b"a", 1, 1, [2.0])))
    with pytest.raises(FormatError, match="duplicate sample id 'a'"):
        read_embedding_dump(path)


@pytest.mark.parametrize(
    "samples, match",
    [
        ([(b"a", 0, 2, [])], "'a' has no rows"),
        ([(b"a", 2, 0, [])], "column"),
        ([(b"a", 1, 2, [1.0, 2.0]), (b"b", 1, 3, [1.0, 2.0, 3.0])], "'b' has 3 columns"),
        ([(b"a", 1, 2, [1.0, 2.0]), (b"b", 1, 2, [np.nan, 0.0])], "'b' contains non-finite"),
        ([(b"a", 1, 1, [np.inf])], "'a' contains non-finite"),
        ([(b"ok", 1, 1, [1.0]), (b"\xff\xfe", 1, 1, [1.0])], "sample 1 is not valid UTF-8"),
        ([], "empty"),
        ([(b"ok", 1, 1, [1.0]), (b"", 1, 1, [1.0])], "sample 1 has an empty id"),
    ],
)
def test_dump_rejects_bad_samples(tmp_path, samples, match):
    path = tmp_path / "bad.bin"
    path.write_bytes(dump_bytes(*samples))
    with pytest.raises(FormatError, match=match) as info:
        read_embedding_dump(path)
    assert str(path) in str(info.value)


# --------------------------------------------------------------- score files


def test_scores_round_trip(tmp_path):
    table = score_table([("b", -1.5, 1.25), ("a", 0.25, 3.5)], epoch=2)
    path = tmp_path / "scores.jsonl"
    write_scores(path, table)
    got = read_scores(path)
    assert got.epoch == 2
    assert got.ids == ("a", "b")
    assert got.score.tolist() == [0.25, -1.5]
    assert got.norm.tolist() == [3.5, 1.25]
    assert ranked_ids(got) == ["b", "a"]
    # parse-and-rewrite is byte-identical
    again = tmp_path / "again.jsonl"
    write_scores(again, got)
    assert path.read_bytes() == again.read_bytes()


def test_scores_read_in_any_line_order(tmp_path):
    # Lines out of rank order and ids out of order: the table's ids ascend
    # and its rank order comes from the rank fields.
    path = tmp_path / "scores.jsonl"
    path.write_text('{"id":"c","epoch":3,"score":1.0,"rank":1,"norm":4.0}\n'
                    '{"id":"a","epoch":3,"score":2.0,"rank":2,"norm":5.0}\n'
                    '{"id":"b","epoch":3,"score":3.0,"rank":0,"norm":6.0}\n')
    table = read_scores(path)
    assert table.ids == ("a", "b", "c")
    assert table.norm.tolist() == [5.0, 6.0, 4.0]
    assert ranked_ids(table) == ["b", "c", "a"]
    again = tmp_path / "again.jsonl"
    write_scores(again, table)
    assert again.read_text().splitlines()[0] == '{"epoch":3,"id":"b","norm":6.0,"rank":0,"score":3.0}'


@pytest.mark.parametrize("field", ["epoch", "rank"])
@pytest.mark.parametrize("value", ["1.7", "1.0", "0.9", "true", '"1"', "null"])
def test_scores_reject_non_integer_epoch_and_rank(tmp_path, field, value):
    fields = {"epoch": "1", "rank": "0", field: value}
    path = tmp_path / "scores.jsonl"
    path.write_text(f'{{"id":"a","epoch":{fields["epoch"]},"score":1.0,"rank":{fields["rank"]},"norm":1.0}}\n')
    with pytest.raises(FormatError, match=f"line 1 is not a valid score record: {field} .* is not an integer"):
        read_scores(path)


@pytest.mark.parametrize("field", ["score", "norm"])
@pytest.mark.parametrize("value", ["true", '"1.5"', "null", "[1.0]"])
def test_scores_reject_non_number_score_and_norm(tmp_path, field, value):
    fields = {"score": "1.0", "norm": "1.0", field: value}
    path = tmp_path / "scores.jsonl"
    path.write_text(f'{{"id":"a","epoch":1,"score":{fields["score"]},"rank":0,"norm":{fields["norm"]}}}\n')
    with pytest.raises(FormatError, match=f"line 1 is not a valid score record: {field} .* is not a number"):
        read_scores(path)


def test_scores_validation(tmp_path):
    path = tmp_path / "scores.jsonl"
    path.write_text('{"id":"a","epoch":1,"score":1.0,"rank":0,"norm":1.0}\n'
                    '{"id":"b","epoch":2,"score":1.0,"rank":1,"norm":1.0}\n')
    with pytest.raises(FormatError, match="mixes epochs"):
        read_scores(path)
    path.write_text('{"id":"a","epoch":1,"score":1.0,"rank":5,"norm":1.0}\n')
    with pytest.raises(FormatError, match="permutation"):
        read_scores(path)
    path.write_text('{"id":"a","epoch":1,"score":1.0}\n')
    with pytest.raises(FormatError, match="score record"):
        read_scores(path)
    # non-finite values, and an epoch too large for an int, are bad records
    # (each bad field is appended, and the later of two equal keys wins)
    for bad in ('"score":NaN', '"score":Infinity', '"norm":-Infinity', '"epoch":1e400'):
        path.write_text('{"id":"a","epoch":1,"score":1.0,"rank":0,"norm":1.0,' + bad + "}\n")
        with pytest.raises(FormatError, match="line 1 is not a valid score record"):
            read_scores(path)


def test_scores_and_manifests_reject_empty_ids(tmp_path):
    path = tmp_path / "scores.jsonl"
    path.write_text('{"id":"a","epoch":1,"score":1.0,"rank":0,"norm":1.0}\n\n'
                    '{"id":"","epoch":1,"score":2.0,"rank":1,"norm":2.0}\n')
    with pytest.raises(FormatError, match="line 3 is not a valid score record: id '' is not a non-empty string"):
        read_scores(path)
    path = tmp_path / "m.jsonl"
    for record, match in (
        ('{"epoch":1,"order":[""],"bin_of":{"":1}}', "keyed by non-empty ids"),
        ('{"epoch":1,"order":["a"],"bin_of":{"a":1,"":2}}', "keyed by non-empty ids"),
        ('{"epoch":1,"order":[""],"bin_of":{"a":1}}', r"ordered ids missing from bin_of: \[''\]"),
    ):
        path.write_text(record + "\n")
        with pytest.raises(FormatError, match=match):
            read_manifest(path)


def test_scores_reader_parses_each_line_alone(tmp_path):
    path = tmp_path / "scores.jsonl"
    # two half-lines that would join into a valid two-record JSON array
    path.write_text('{"epoch":1,"id":"a","norm":1.0,"rank":0,"score":1.0},{"epoch":1,"id":"b",\n'
                    '"norm":2.0,"rank":1,"score":2.0}\n')
    with pytest.raises(FormatError, match="line 1 is not valid JSON"):
        read_scores(path)
    # trailing data after a line's object
    path.write_text('{"epoch":1,"id":"a","norm":1.0,"rank":0,"score":1.0}\n'
                    '{"epoch":1,"id":"b","norm":2.0,"rank":1,"score":2.0} 7\n')
    with pytest.raises(FormatError, match="line 2 is not valid JSON: Extra data"):
        read_scores(path)


@pytest.mark.parametrize("score, norm", [(np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan), (1.0, -np.inf)])
def test_write_scores_rejects_non_finite(tmp_path, score, norm):
    out_dir = tmp_path / "out"
    with pytest.raises(FormatError, match="'b' has a non-finite"):
        write_scores(out_dir / "scores.jsonl", score_table([("c", 1.0, 1.0), ("b", score, norm)]))
    assert not out_dir.exists() or not list(out_dir.iterdir())


# Ids with every character class the JSON string encoder treats specially,
# and floats at the edges of float.__repr__.
_TRICKY_IDS = ['q"uote', "back\\slash", "\x00\x1f\x7f\t\n\r", "\u2028 \u2029 \x85", "\U0001f600", "naïve – 東京"]
_TRICKY_FLOATS = [-0.0, 5e-324, 1.7976931348623157e308, 0.1, np.float64(0.1), np.float64(-2.5e-300)]
_score_ids = st.one_of(st.sampled_from(_TRICKY_IDS), st.text(st.characters(codec="utf-8"), min_size=1))
_score_floats = st.one_of(
    st.sampled_from(_TRICKY_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
)


@st.composite
def _score_rows(draw):
    ids = draw(st.lists(_score_ids, min_size=1, max_size=6, unique=True))
    ranks = draw(st.permutations(range(len(ids))))
    epoch = draw(st.integers(1, 10**6))
    return [(sid, epoch, draw(_score_floats), rank, draw(_score_floats)) for sid, rank in zip(ids, ranks)]


@settings(max_examples=150, deadline=None)
@given(_score_rows())
@example([(sid, 3, x, i, _TRICKY_FLOATS[-1 - i]) for i, (sid, x) in enumerate(zip(_TRICKY_IDS, _TRICKY_FLOATS))])
def test_score_lines_are_canonical_json(rows):
    # The file lists the samples in rank order.
    rows = sorted(rows, key=lambda row: row[3])
    table = score_table([(sid, score, norm) for sid, _, score, _, norm in rows], epoch=rows[0][1])
    expected = "".join(
        json.dumps(
            {"id": sid, "epoch": epoch, "score": score, "rank": rank, "norm": norm},
            sort_keys=True, separators=(",", ":"), ensure_ascii=False,
        ) + "\n"
        for sid, epoch, score, rank, norm in rows
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scores.jsonl"
        write_scores(path, table)
        assert path.read_bytes() == expected.encode("utf-8")
        got = read_scores(path)
        write_scores(Path(tmp) / "again.jsonl", got)  # write, read, write: the same bytes
        assert (Path(tmp) / "again.jsonl").read_bytes() == expected.encode("utf-8")
    # repr() tells -0.0 from 0.0
    assert got.epoch == rows[0][1]
    assert ranked_ids(got) == [sid for sid, *_ in rows]
    assert sorted(zip(got.ids, map(repr, got.score.tolist()), map(repr, got.norm.tolist()))) == sorted(
        (sid, repr(float(score)), repr(float(norm))) for sid, _, score, _, norm in rows
    )


# ------------------------------------------------- the kept score file


def _read_outcome(path):
    """``read_scores`` of ``path`` as comparable bits, or the error it raised."""
    try:
        return table_bits(read_scores(path))
    except FormatError as exc:
        return str(exc)


def _warm_and_cold(path):
    """Read ``path`` with the kept entry as it is, then once more with it cleared."""
    warm = _read_outcome(path)
    spdcl_io._last_scores = ()
    return warm, _read_outcome(path)


_KEPT_IDS = ["naïve", "\u2028", "a\u2029b", 'q"uote', "back\\slash", "東京", "\U0001f600", "\x85"]
_kept_ids = st.one_of(st.sampled_from(_KEPT_IDS), st.text(st.characters(codec="utf-8"), min_size=1, max_size=6))
# Subnormals, both zeros, and magnitudes whose differences stay finite.
_kept_norms = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 1e-310, -2.5e-320]),
    st.floats(min_value=-1e300, max_value=1e300),
)


@st.composite
def _norm_epochs(draw):
    ids = tuple(sorted(draw(st.lists(_kept_ids, min_size=1, max_size=8, unique=True))))
    n_epochs = draw(st.integers(1, 3))
    norms = [draw(st.lists(_kept_norms, min_size=len(ids), max_size=len(ids))) for _ in range(n_epochs)]
    return ids, norms, draw(st.sampled_from(ALIGNMENT_MODES)), draw(st.sampled_from(DELTA_ORDERINGS))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_norm_epochs())
def test_a_kept_score_table_reads_as_its_file_does(norm_epochs):
    # Each epoch's table, as initial_scores and delta_scores build it, is
    # kept by the writer; reading it back from the entry must give exactly
    # what parsing the file gives.
    ids, norms, mode, ordering = norm_epochs
    with tempfile.TemporaryDirectory() as tmp:
        table = None
        for epoch, norm in enumerate(norms, start=1):
            norm = np.array(norm)
            table = initial_scores(ids, norm) if table is None else delta_scores(ids, norm, table, mode, ordering)
            path = Path(tmp) / f"epoch{epoch}.scores.jsonl"
            write_scores(path, table)
            assert spdcl_io._last_scores[1] is table
            assert read_scores(path) is table
            warm, cold = _warm_and_cold(path)
            assert warm == cold == table_bits(table)
            # The next epoch chains on a parsed table, as spdcl score does.
            table = read_scores(path)


@pytest.mark.parametrize(
    "ids, order, epoch",
    [
        (("b", "a"), [0, 1], 1),
        (("a", "a"), [0, 1], 1),
        (("", "a"), [0, 1], 1),
        (("a", "b"), [1, 1], 1),
        (("a", "b"), [0, -1], 1),
        (("a", "b"), [0, 1], np.int64(1)),
        (("a", "b"), [0, 1], True),
    ],
    ids=["ids-out-of-order", "duplicate-ids", "empty-id", "row-twice", "negative-row", "numpy-epoch", "bool-epoch"],
)
def test_a_table_that_would_not_read_back_is_not_kept(ids, order, epoch):
    # A table that no score file can hold is not built, so write_scores
    # keeps every table it writes.
    with pytest.raises(ValueError, match="epoch|ids|permutation"):
        ScoreTable(epoch, ids, [1.0, 2.0], [0.5, 0.25], order)


def test_a_same_size_change_after_the_write_is_parsed(tmp_path):
    table = score_table([("b", 0.5, 1.25), ("a", 0.25, 3.5)], epoch=2)
    path = tmp_path / "scores.jsonl"
    write_scores(path, table)
    written = path.read_bytes()
    assert read_scores(path) is table
    path.write_bytes(written.replace(b'"norm":1.25', b'"norm":1.75'))
    assert read_scores(path).norm.tolist() == [3.5, 1.75]
    write_scores(path, table)
    for changed, match in (
        (written.replace(b'"rank":1', b'"rank":7'), "permutation"),
        (written.replace(b'"epoch":2,"id":"a"', b'"epoch":3,"id":"a"'), "mixes epochs"),
        (written.replace(b'{"epoch":2,"id":"a"', b'["epoch":2,"id":"a"'), "line 2 is not valid JSON"),
    ):
        assert len(changed) == len(written) and changed != written
        path.write_bytes(changed)
        with pytest.raises(FormatError, match=match):
            read_scores(path)
    # A failed read keeps the entry it found.
    path.write_bytes(written)
    assert read_scores(path) is table


_A = '{"epoch":1,"id":"a\u2028z","norm":2.0,"rank":1,"score":2.0}'
_B = '{"epoch":1,"id":"b","norm":1.0,"rank":0,"score":1.0}'


@pytest.mark.parametrize(
    "body",
    [
        _B + "\r\n" + _A + "\r\n",
        "\n\n" + _B + "\n  \n" + _A + "\n\n",
        _B + "\n" + _A,
        _B + "\r" + _A + "\r\n",
        "\r\n" + _A + "\r\n\r\n" + _B,
    ],
    ids=["crlf", "blank-lines", "no-last-newline", "lone-cr", "crlf-blank-lines-no-last-newline"],
)
def test_score_file_lines_split_as_a_text_handle_splits_them(tmp_path, body):
    path = tmp_path / "scores.jsonl"
    path.write_bytes(body.encode("utf-8"))
    table = read_scores(path)
    assert table.ids == ("a\u2028z", "b")
    assert ranked_ids(table) == ["b", "a\u2028z"]
    assert table.norm.tolist() == [2.0, 1.0]


def test_score_file_errors_count_lines_as_a_text_handle_does(tmp_path):
    path = tmp_path / "scores.jsonl"
    # CRLF, a lone CR and a blank line each end one line: the bad record is line 5.
    path.write_bytes(("\r\n\r" + _B + "\r\n\n" + '{"id":""}').encode("utf-8"))
    with pytest.raises(FormatError, match="line 5 is not a valid score record"):
        read_scores(path)


# --------------------------------------------- what a reader must not accept


_INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(not _INT_DIGITS, reason="no int-string digit limit in this Python")


@needs_digit_limit
def test_readers_name_the_file_of_an_integer_past_the_digit_limit(tmp_path):
    huge = "1" * (_INT_DIGITS + 1)
    scores = tmp_path / "scores.jsonl"
    scores.write_text(_B + "\n" + _A.replace('"rank":1', f'"rank":{huge}') + "\n")
    with pytest.raises(FormatError, match=re.escape(f"{scores}: line 2 is not valid JSON: Exceeds the limit")):
        read_scores(scores)
    dataset = tmp_path / "data.jsonl"
    dataset.write_text(_GOOD_RECORD + f'{{"id":"b","text":"t","labels":{huge}}}\n')
    with pytest.raises(FormatError, match=re.escape(f"{dataset}: line 2 is not valid JSON: Exceeds the limit")):
        read_dataset(dataset)
    config = tmp_path / "config.json"
    config.write_text(f'{{"lr": {huge}}}')
    with pytest.raises(FormatError, match=re.escape(f"{config}: not valid JSON: Exceeds the limit")):
        load_run_config(config)


@pytest.mark.parametrize("field", ["id", "text", "labels"])
def test_dataset_rejects_a_lone_surrogate_escape(tmp_path, field):
    record = {"id": "b", "text": "t", "labels": "x", field: "\ud800x"}
    path = tmp_path / "data.jsonl"
    path.write_text(_GOOD_RECORD + json.dumps(record) + "\n")
    with pytest.raises(FormatError, match=re.escape(f"{path}: line 2 holds a string with a lone surrogate")):
        read_dataset(path)


def test_score_files_and_manifests_reject_a_lone_surrogate_escape(tmp_path):
    path = tmp_path / "scores.jsonl"
    path.write_text(_B + "\n" + _A.replace("a\u2028z", "\\udfffa") + "\n")
    with pytest.raises(FormatError, match="line 2 holds a string with a lone surrogate"):
        read_scores(path)
    path = tmp_path / "m.jsonl"
    path.write_text('{"epoch":1,"order":["\\ud800"],"bin_of":{"\\ud800":1}}\n')
    with pytest.raises(FormatError, match="line 1 holds a string with a lone surrogate"):
        read_manifest(path)


def test_readers_take_escaped_pairs_and_backslashes_as_they_are(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text('{"id":"\\ud83d\\ude00","text":"\\\\ud800","labels":"x"}\n')
    assert read_dataset(path) == [TextSample("\U0001f600", "\\ud800", ("x",))]


def test_readers_name_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "scores.jsonl"
    path.write_bytes(_B.encode() + b"\n\xff\n")
    with pytest.raises(FormatError, match=re.escape(f"{path}: not valid UTF-8")):
        read_scores(path)


# ------------------------------------------------------------ manifest files


def test_manifest_round_trip(tmp_path):
    plan = EpochPlan(
        epoch=3,
        visible_bins=2,
        ordered_ids=["c", "a", "b"],
        bin_of={"a": 1, "b": 2, "c": 1, "d": 3},
    )
    path = tmp_path / "manifest.jsonl"
    write_manifest(path, plan)
    loaded = read_manifest(path)
    assert loaded.ordered_ids == plan.ordered_ids
    assert loaded.bin_of == plan.bin_of
    assert loaded.epoch == 3
    again = tmp_path / "again.jsonl"
    write_manifest(again, loaded)
    assert path.read_bytes() == again.read_bytes()


def test_manifest_rejects_duplicates(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text('{"epoch":1,"order":["a","a"],"bin_of":{"a":1}}\n')
    with pytest.raises(FormatError, match="duplicates"):
        read_manifest(path)


def test_manifest_rejects_malformed_record(tmp_path):
    path = tmp_path / "m.jsonl"
    for record in (
        '{"epoch":1,"order":["a"]}',
        '{"epoch":1,"order":["a"],"bin_of":{"a":"x"}}',
        '{"epoch":1,"order":["a"],"bin_of":{"a":1e400}}',
        '{"epoch":1e400,"order":["a"],"bin_of":{"a":1}}',
        '{"epoch":1,"order":["a"],"bin_of":["a"]}',
    ):
        path.write_text(record + "\n")
        with pytest.raises(FormatError, match="malformed manifest record"):
            read_manifest(path)
    for order in ('"ab"', '{"a":0}', "[1]"):
        path.write_text(f'{{"epoch":1,"order":{order},"bin_of":{{"a":1,"b":1,"1":1}}}}\n')
        with pytest.raises(FormatError, match="malformed manifest record: order .* is not an array of strings"):
            read_manifest(path)


@pytest.mark.parametrize("value", ["1.7", "1.0", "true", '"1"'])
@pytest.mark.parametrize("field", ["epoch", "bin"])
def test_manifest_rejects_non_integer_epoch_and_bin(tmp_path, field, value):
    epoch, number = (value, "1") if field == "epoch" else ("1", value)
    path = tmp_path / "m.jsonl"
    path.write_text(f'{{"epoch":{epoch},"order":["a"],"bin_of":{{"a":{number}}}}}\n')
    with pytest.raises(FormatError, match=f"malformed manifest record: {field} .*is not an integer"):
        read_manifest(path)


@pytest.mark.parametrize(
    "record, field",
    [
        ('{"epoch":0,"order":["a"],"bin_of":{"a":0,"b":-3}}', "epoch"),
        ('{"epoch":-1,"order":["a"],"bin_of":{"a":1}}', "epoch"),
        ('{"epoch":1,"order":["a"],"bin_of":{"a":1,"b":-3}}', "bin of 'b'"),
        ('{"epoch":2,"order":["a"],"bin_of":{"a":0}}', "bin of 'a'"),
    ],
)
def test_manifest_rejects_epochs_and_bins_below_one(tmp_path, record, field):
    # build_epoch_plan numbers epochs and bins from 1; no writer makes a 0.
    path = tmp_path / "m.jsonl"
    path.write_text(record + "\n")
    with pytest.raises(FormatError, match=f"malformed manifest record: {field} .*is not an integer >= 1"):
        read_manifest(path)


@pytest.mark.parametrize(
    "record, message",
    [
        ('{"epoch":1,"order":[],"bin_of":{}}', "manifest order is empty"),
        ('{"epoch":1,"order":[],"bin_of":{"a":1}}', "manifest order is empty"),
        ('{"epoch":2,"order":["c"],"bin_of":{"a":1,"b":2,"c":3}}', "order reaches bin 3 at epoch 2"),
        ('{"epoch":1,"order":["a","b"],"bin_of":{"a":1,"b":2}}', "order reaches bin 2 at epoch 1"),
        ('{"epoch":3,"order":["c"],"bin_of":{"a":1,"b":2,"c":3}}', "order holds 1 of the 3 samples of bins 1..3"),
        ('{"epoch":2,"order":["a"],"bin_of":{"a":1,"b":1}}', "order holds 1 of the 2 samples of bins 1..1"),
        ('{"epoch":2,"order":["b","c"],"bin_of":{"a":1,"b":1,"c":2}}', "order holds 2 of the 3 samples of bins 1..2"),
    ],
)
def test_manifest_rejects_an_order_no_plan_can_have(tmp_path, record, message):
    # A plan trains on every sample of bins 1..w, w at most its epoch.
    path = tmp_path / "m.jsonl"
    path.write_text(record + "\n")
    with pytest.raises(FormatError, match=re.escape(f"{path}: {message}")):
        read_manifest(path)


# ----------------------------------------------------------------- run config


def test_run_config_round_trip(tmp_path):
    config = RunConfig(bins_k=3, epochs_T=7, seed=11, task_kind="multilabel")
    path = tmp_path / "config.json"
    write_run_config(path, config)
    assert load_run_config(path) == config


def test_run_config_validation(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"bins_k": 0}')
    with pytest.raises(FormatError, match="bins_k"):
        load_run_config(path)
    path.write_text('{"mystery_knob": 3}')
    with pytest.raises(FormatError, match="unknown config keys"):
        load_run_config(path)
    path.write_text('{"task_kind": "regression"}')
    with pytest.raises(FormatError, match="task_kind"):
        load_run_config(path)
    path.write_text("{")
    with pytest.raises(FormatError, match="not valid JSON"):
        load_run_config(path)
    # types are checked, not only ranges; bool is not an integer or a number
    for bad, field in (
        ('{"bins_k": 2.5}', "bins_k"),
        ('{"seed": 1.5}', "seed"),
        ('{"epochs_T": true}', "epochs_T"),
        ('{"batch": "25"}', "batch"),
        ('{"max_len": null}', "max_len"),
        ('{"lr": "0.1"}', "lr"),
        ('{"lr": false}', "lr"),
        ('{"shuffle_within_epoch": "no"}', "shuffle_within_epoch"),
        ('{"shuffle_within_epoch": 0}', "shuffle_within_epoch"),
        ('{"lr": NaN}', "lr"),
        ('{"lr": Infinity}', "lr"),
        ('{"lr": -Infinity}', "lr"),
    ):
        path.write_text(bad)
        with pytest.raises(FormatError, match=field):
            load_run_config(path)
    path.write_text('{"lr": 1, "shuffle_within_epoch": false}')
    config = load_run_config(path)
    assert config.lr == 1 and config.shuffle_within_epoch is False


def test_run_config_rejects_an_lr_too_large_for_a_float(tmp_path):
    with pytest.raises(FormatError, match="lr must convert to a finite float"):
        RunConfig(lr=10**400)
    path = tmp_path / "config.json"
    path.write_text('{"lr": 1' + "0" * 400 + "}")
    with pytest.raises(FormatError, match="lr must convert to a finite float"):
        load_run_config(path)
    assert RunConfig(lr=10**300).lr == 10**300


def test_run_config_defaults_follow_reference_settings():
    config = RunConfig()
    assert config.seed == 2
    assert config.batch == 25
    assert config.max_len == 250


# ------------------------------------------------------------ atomic writes


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "out.json"
    write_json_atomic(target, {"x": 1})
    write_json_atomic(target, {"x": 2})
    assert json.loads(target.read_text()) == {"x": 2}
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_f32_roundtrip_is_idempotent():
    rng = np.random.default_rng(1)
    once = f32_roundtrip(rng.normal(size=(3, 4)))
    twice = f32_roundtrip(once)
    assert once.dtype == np.float64
    assert np.array_equal(once, twice)


# ------------------------------------ write, read, write: the same bytes
#
# Each format's reader gives back what its writer wrote, so writing it again
# gives the file's bytes.  Score files are checked the same way in
# test_score_lines_are_canonical_json.

_texts = st.one_of(st.sampled_from(_TRICKY_IDS + [""]), st.text(st.characters(codec="utf-8"), max_size=12))


def _rewrites_identically(write, read, value, name):
    """Write ``value``, read it back, write that: the two files' bytes, and what was read."""
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / f"1.{name}", Path(tmp) / f"2.{name}"
        write(first, value)
        got = read(first)
        write(second, got)
        assert second.read_bytes() == first.read_bytes()
    return got


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.lists(
    st.tuples(_score_ids, _texts, st.lists(_score_ids, min_size=1, max_size=3)), min_size=1, max_size=6,
    unique_by=lambda row: row[0],
))
def test_dataset_rewrites_identically(rows):
    samples = [TextSample(sid, text, tuple(labels)) for sid, text, labels in rows]
    assert _rewrites_identically(write_dataset, read_dataset, samples, "jsonl") == samples


# An int past 2**64 and floats at the edges of float.__repr__, including
# subnormals and -0.0 (an lr of -0.0 is >= 0).
_big_ints = st.one_of(st.integers(1, 10**6), st.integers(1, 10**40))
_lrs = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 2.2e-308, 1e-310, 1.7976931348623157e308, 0.1, 10**300]),
    st.floats(min_value=0.0, allow_infinity=False),
    st.integers(0, 10**20),
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.builds(
    RunConfig,
    bins_k=_big_ints, epochs_T=_big_ints, seed=st.integers(0, 10**40), lr=_lrs,
    batch=_big_ints, hidden_d=_big_ints, max_len=_big_ints,
    task_kind=st.sampled_from(spdcl_io.TASK_KINDS), alignment_mode=st.sampled_from(ALIGNMENT_MODES),
    delta_ordering=st.sampled_from(DELTA_ORDERINGS), shuffle_within_epoch=st.booleans(),
))
def test_run_config_rewrites_identically(config):
    got = _rewrites_identically(write_run_config, load_run_config, config, "json")
    assert got == config and repr(got.lr) == repr(config.lr)


@st.composite
def _plans(draw):
    # Plans a writer can write: the order is every sample of bins 1..w, in
    # any order, and the epoch is at least w.
    ids = draw(st.lists(_score_ids, min_size=1, max_size=8, unique=True))
    bin_of = {sid: draw(st.integers(1, 10**20)) for sid in ids}
    widest = draw(st.sampled_from(sorted(set(bin_of.values()))))
    order = draw(st.permutations([sid for sid in ids if bin_of[sid] <= widest]))
    return EpochPlan(draw(st.integers(widest, widest + 10**20)), widest, order, bin_of)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_plans())
def test_manifest_rewrites_identically(plan):
    got = _rewrites_identically(write_manifest, read_manifest, plan, "jsonl")
    assert got == plan


# float32 values: both zeros, subnormals, the largest finite, and any finite.
_dump_values = st.one_of(
    st.sampled_from([-0.0, 0.0, 1e-45, -1e-45, 1.1754942e-38, 3.4028235e38]),
    st.floats(width=32, allow_nan=False, allow_infinity=False),
)


@st.composite
def _dumps(draw):
    ids = draw(st.lists(_score_ids, min_size=1, max_size=5, unique=True))
    cols = draw(st.integers(1, 4))
    blocks = [
        np.array(draw(st.lists(_dump_values, min_size=rows * cols, max_size=rows * cols)), dtype=np.float32)
        .reshape(rows, cols)
        for rows in draw(st.lists(st.integers(1, 4), min_size=len(ids), max_size=len(ids)))
    ]
    return pack_dump(zip(ids, blocks))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_dumps())
def test_embedding_dump_rewrites_identically(dump):
    got = _rewrites_identically(write_embedding_dump, read_embedding_dump, dump, "bin")
    assert got.ids == dump.ids and np.array_equal(got.offsets, dump.offsets)
    assert np.array_equal(got.values.view(np.uint32), dump.values.view(np.uint32))
