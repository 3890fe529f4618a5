"""Dumps of one training set share one layout, its ids and row offsets.
Scoring's gather plan and the dump headers are cached by layout and column
count, and score-file ids by id tuple.

Every test alternates between several layouts, column counts or id tuples,
so a cache that outlived its key (or was keyed by less than it) shows as a
wrong byte, a wrong norm or an oversized kernel call.  Layouts of equal
sample count are mixed on purpose: a cache keyed by the count alone would
mix them up.
"""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spdcl.cli import main
from spdcl.io import (
    FormatError,
    RunConfig,
    TextSample,
    read_embedding_dump,
    write_dataset,
    write_embedding_dump,
    write_run_config,
    write_scores,
)
from spdcl import io as spdcl_io
from spdcl import nucnorm
from spdcl.nucnorm import DumpLayout, EmbeddingDump
from spdcl.synth import make_zipfian_dataset
from spdcl.trainer import TrainHyper, encode_datasets, run_spdcl

from dumps import pack_dump
from tables import score_table


def reference_dump_bytes(ids, blocks) -> bytes:
    """A dump packed field by field from the README layout: magic, u32
    version, u64 count, then per sample u32 id length, UTF-8 id, u32 rows,
    u32 cols and the rows as little-endian float32, row-major."""
    out = b"SPDCLEMB" + struct.pack("<I", 1) + struct.pack("<Q", len(ids))
    for sid, block in zip(ids, blocks):
        id_bytes = sid.encode("utf-8")
        out += struct.pack("<I", len(id_bytes)) + id_bytes
        out += struct.pack("<I", block.shape[0]) + struct.pack("<I", block.shape[1])
        out += b"".join(struct.pack("<f", float(v)) for v in block.ravel())
    return out


def random_blocks(rng, lengths, cols):
    return [rng.normal(size=(rows, cols)).astype(np.float32) for rows in lengths]


# Three layouts of three samples each: multi-byte UTF-8 ids, one-row
# samples, d=1, and the same ids with other row counts.
LAYOUTS = [
    (("é", "日本語", "a🙂"), (1, 1, 1), 1),
    (("s0", "s1", "s2"), (2, 1, 3), 2),
    (("s0", "s1", "s2"), (1, 3, 2), 2),
]


def test_dump_bytes_match_the_documented_layout(tmp_path):
    rng = np.random.default_rng(0)
    firsts = []
    for ids, lengths, cols in LAYOUTS:
        blocks = random_blocks(rng, lengths, cols)
        firsts.append(pack_dump(zip(ids, blocks)))
        write_embedding_dump(tmp_path / "fresh.bin", firsts[-1])
        assert (tmp_path / "fresh.bin").read_bytes() == reference_dump_bytes(ids, blocks)
    # Later dumps share their layout with an earlier one, in turns.
    for _ in range(2):
        for first, (ids, lengths, cols) in zip(firsts, LAYOUTS):
            blocks = random_blocks(rng, lengths, cols)
            shared = EmbeddingDump(first.layout, np.concatenate(blocks))
            assert shared.layout is first.layout
            write_embedding_dump(tmp_path / "shared.bin", shared)
            assert (tmp_path / "shared.bin").read_bytes() == reference_dump_bytes(ids, blocks)


def test_shared_layout_scores_like_a_fresh_dump():
    rng = np.random.default_rng(1)
    # Equal sample counts, different row counts; the second layout puts
    # equal-length samples in other positions.
    specs = [(3, 1, 4, 1, 5, 9, 2, 6), (6, 2, 9, 5, 1, 4, 1, 3), (1,) * 8]
    firsts = [pack_dump((f"s{i}", b) for i, b in enumerate(random_blocks(rng, spec, 4))) for spec in specs]
    for _ in range(2):
        for first, spec in zip(firsts, specs):
            values = np.concatenate(random_blocks(rng, spec, 4))
            shared = EmbeddingDump(first.layout, values)
            fresh = EmbeddingDump(DumpLayout(first.ids, first.offsets), values)
            assert shared.nuclear_norms().tolist() == fresh.nuclear_norms().tolist()


def test_one_layout_with_two_column_counts(tmp_path, monkeypatch):
    # The headers hold each sample's column count, and scoring's slices are
    # sized by it: 12 float64 values per kernel call here, so five two-row
    # samples take one call at d=1 and three calls at d=3.
    monkeypatch.setattr(nucnorm, "_SCORE_SLICE_VALUES", 12)
    stacks = []
    spectrum = nucnorm._spectrum
    monkeypatch.setattr(nucnorm, "_spectrum", lambda arr: stacks.append(arr.shape) or spectrum(arr))
    rng = np.random.default_rng(3)
    ids, lengths = ("a", "b", "c", "dé", "e", "f", "g"), (2, 2, 1, 2, 3, 2, 2)
    layout = pack_dump(zip(ids, random_blocks(rng, lengths, 1))).layout
    for _ in range(2):
        for cols in (1, 3):
            blocks = random_blocks(rng, lengths, cols)
            dump = EmbeddingDump(layout, np.concatenate(blocks))
            write_embedding_dump(tmp_path / "dump.bin", dump)
            assert (tmp_path / "dump.bin").read_bytes() == reference_dump_bytes(ids, blocks)
            fresh = EmbeddingDump(DumpLayout(ids, layout.offsets), dump.values)
            stacks.clear()
            assert dump.nuclear_norms().tolist() == fresh.nuclear_norms().tolist()
            assert all(n == 1 or n * rows * d <= 12 for n, rows, d in stacks), (cols, stacks)


def test_dump_checks_only_the_values():
    layout = pack_dump([("a", [[1.0, 2.0]]), ("b", [[3.0, 4.0], [5.0, 6.0]])]).layout
    with pytest.raises(ValueError, match="the layout's 3 rows, got 4"):
        EmbeddingDump(layout, np.ones((4, 2)))
    with pytest.raises(ValueError, match="'b' contains non-finite"):
        EmbeddingDump(layout, [[1.0, 2.0], [np.nan, 0.0], [0.0, 0.0]])
    dump = EmbeddingDump(layout, np.zeros((3, 2)))
    assert dump.layout is layout and dump.ids is layout.ids and dump.offsets is layout.offsets
    assert not dump.values.flags.writeable


def test_an_indexed_dump_checks_its_index_and_the_rows_it_uses():
    layout = DumpLayout(["a", "b", "c"], [0, 1, 3, 4])
    table = np.arange(8, dtype=np.float32).reshape(4, 2)
    with pytest.raises(ValueError, match="the layout's 4 rows, got shape \\(3,\\)"):
        EmbeddingDump(layout, table, [0, 1, 2])
    with pytest.raises(ValueError, match="dump index out of range for 4 rows"):
        EmbeddingDump(layout, table, [0, 1, 4, 2])
    with pytest.raises(ValueError, match="dump index out of range"):
        EmbeddingDump(layout, table, [0, -1, 1, 2])
    # A non-finite table row is an error for the first sample that uses it,
    # and no error while no sample does.
    table[3, 1] = np.inf
    with pytest.raises(ValueError, match="'b' contains non-finite"):
        EmbeddingDump(layout, table, [0, 1, 3, 3])
    dump = EmbeddingDump(layout, table, [0, 1, 2, 0])
    assert dump.rows(slice(None)).tolist() == [[0, 1], [2, 3], [4, 5], [0, 1]]
    assert not dump.index.flags.writeable


# Two rows of d=4 per chunk.  Five one-row samples leave a short last chunk,
# a five-row sample is larger than the whole budget, and one-sample dumps
# are one chunk.
@pytest.mark.parametrize(
    "lengths, chunks",
    [
        ((1, 1, 1, 1, 1), [(0, 2), (2, 4), (4, 5)]),
        ((1, 1, 5, 1, 1, 1), [(0, 2), (2, 3), (3, 5), (5, 6)]),
        ((3,), [(0, 1)]),
        ((1,), [(0, 1)]),
    ],
)
def test_chunked_writer_writes_the_documented_layout(tmp_path, monkeypatch, lengths, chunks):
    monkeypatch.setattr(nucnorm, "_DUMP_CHUNK_VALUES", 9)
    rng = np.random.default_rng(len(lengths))
    table = rng.normal(size=(6, 4)).astype(np.float32)
    tokens = rng.integers(0, 6, size=sum(lengths))
    ids = [f"s{i}é" for i in range(len(lengths))]
    offsets = np.cumsum((0, *lengths))
    expected = reference_dump_bytes(ids, [table[tokens[a:b]] for a, b in zip(offsets[:-1], offsets[1:])])
    dump = EmbeddingDump(DumpLayout(ids, offsets), table, tokens)
    assert [(first, stop) for first, stop, _ in dump.chunks()] == chunks
    write_embedding_dump(tmp_path / "table.bin", dump)
    assert (tmp_path / "table.bin").read_bytes() == expected
    read = read_embedding_dump(tmp_path / "table.bin")
    assert [(first, stop) for first, stop, _ in read.chunks()] == chunks
    write_embedding_dump(tmp_path / "read.bin", read)
    assert (tmp_path / "read.bin").read_bytes() == expected


def test_layout_and_dump_leave_the_callers_arrays_writable():
    offsets = np.array([0, 1, 3], dtype=np.int64)
    layout = DumpLayout(["a", "b"], offsets)
    assert offsets.flags.writeable and not layout.offsets.flags.writeable
    offsets[1] = 2
    assert layout.offsets.tolist() == [0, 1, 3]

    base = np.ones((3, 2), dtype=np.float32)
    dump = EmbeddingDump(layout, base[:])
    base[0, 0] = np.nan
    assert base.flags.writeable
    assert np.isfinite(dump.values).all()
    assert dump.nuclear_norms().tolist() == EmbeddingDump(layout, np.ones((3, 2))).nuclear_norms().tolist()


def test_dump_copies_only_values_someone_else_can_write(tmp_path):
    layout = DumpLayout(["a", "b"], [0, 1, 3])
    writable = np.ones((3, 2), dtype=np.float32)
    copied = EmbeddingDump(layout, writable).values
    assert copied is not writable and writable.flags.writeable
    # A frozen array, a view of one, and an array over a file's bytes are
    # kept as they are: no one can write them.
    frozen = np.ones((3, 2), dtype=np.float32)
    frozen.setflags(write=False)
    assert EmbeddingDump(layout, frozen).values is frozen
    assert EmbeddingDump(layout, frozen[:]).values.base is frozen
    from_bytes = np.frombuffer(np.arange(6, dtype="<f4").tobytes(), dtype="<f4").reshape(3, 2)
    assert EmbeddingDump(layout, from_bytes).values is from_bytes
    write_embedding_dump(tmp_path / "dump.bin", EmbeddingDump(layout, frozen))
    read = read_embedding_dump(tmp_path / "dump.bin")
    assert isinstance(read.values.base.base, bytes)
    # A read-only view of writable memory is copied all the same.
    base = np.ones((3, 2), dtype=np.float32)
    view = base[:]
    view.setflags(write=False)
    assert not np.shares_memory(EmbeddingDump(layout, view).values, base)


def test_score_files_write_each_tables_own_ids(tmp_path):
    id_tuples = [("a", "b", "c"), ("ü", "\"q\"", "日本"), ("x", "y", "z\n")]
    path = tmp_path / "scores.jsonl"
    for _ in range(2):
        for ids in id_tuples:
            write_scores(path, score_table(zip(ids, [1.5, 0.25, 3.0], [2.0, 1.0, 0.5]), epoch=2))
            lines = path.read_text(encoding="utf-8").split("\n")[:-1]
            assert [json.loads(line)["id"] for line in lines] == list(ids)


def _write_training_set(directory: Path, seed: int, prefix: str) -> list[str]:
    train, valid = make_zipfian_dataset(30, 10, n_classes=3, seed=seed)
    train = [TextSample(prefix + s.sample_id, s.text, s.labels) for s in train]
    directory.mkdir()
    write_dataset(directory / "train.jsonl", train)
    write_dataset(directory / "valid.jsonl", valid)
    write_run_config(
        directory / "config.json",
        RunConfig(bins_k=2, epochs_T=3, seed=2, lr=0.3, batch=8, hidden_d=3, max_len=16),
    )
    return ["train", "--dataset", str(directory / "train.jsonl"), "--valid", str(directory / "valid.jsonl"),
            "--config", str(directory / "config.json")]


def _epoch_files(run_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(run_dir.glob("epoch*"))}


def test_runs_on_two_training_sets_in_one_process_match_runs_alone(tmp_path):
    # Same sample count, different ids and texts.
    commands = {
        "a": _write_training_set(tmp_path / "a", seed=1, prefix=""),
        "b": _write_training_set(tmp_path / "b", seed=2, prefix="é-"),
    }
    alone = {}
    for name, argv in commands.items():
        out = tmp_path / f"alone-{name}"
        subprocess.run([sys.executable, "-m", "spdcl", *argv, "--out-dir", str(out)], check=True)
        alone[name] = _epoch_files(out)
        assert len(alone[name]) == 12
    for turn, name in enumerate(["a", "b", "a", "b"]):
        out = tmp_path / f"together-{turn}-{name}"
        assert main([*commands[name], "--out-dir", str(out)]) == 0
        assert _epoch_files(out) == alone[name], (turn, name)


# ------------------------------------------------- the reader's kept layout
#
# A read given a layout (``like``) takes a file of that layout's size and
# packed header bytes without walking it, and shares the layout; a read
# without one walks the file and keeps nothing on its new layout.  Most
# tests below first read the file whose layout they hand on.

BASE_IDS, BASE_LENGTHS = ("a", "b", "c"), (2, 1, 3)


def _write(path: Path, ids, blocks) -> Path:
    path.write_bytes(reference_dump_bytes(ids, blocks))
    return path


def _like(dump: EmbeddingDump) -> tuple[DumpLayout, int]:
    return dump.layout, dump.values.shape[1]


def _read_fresh(path: Path) -> dict:
    """A read of ``path`` in a new process: ids, offsets, values and norms."""
    script = (
        "import json, sys; from spdcl.io import read_embedding_dump; d = read_embedding_dump(sys.argv[1]); "
        "print(json.dumps([list(d.ids), d.offsets.tolist(), d.values.tobytes().hex(), d.nuclear_norms().tolist()]))"
    )
    out = subprocess.run([sys.executable, "-c", script, str(path)], check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def _count_walks(monkeypatch) -> list:
    """The paths ``_walk_dump`` walks from now on, in call order."""
    walked, walk = [], spdcl_io._walk_dump
    monkeypatch.setattr(spdcl_io, "_walk_dump", lambda path, blob: walked.append(path) or walk(path, blob))
    return walked


def test_second_read_of_a_same_layout_dump_shares_the_layout(tmp_path):
    rng = np.random.default_rng(5)
    blocks = [random_blocks(rng, BASE_LENGTHS, 2) for _ in range(3)]
    paths = [_write(tmp_path / f"epoch{i}.bin", BASE_IDS, b) for i, b in enumerate(blocks)]
    first = read_embedding_dump(paths[0])
    for path, written in zip(paths, blocks):
        dump = read_embedding_dump(path, like=_like(first))
        assert dump.layout is first.layout
        assert np.array_equal(dump.values, np.concatenate(written))
        assert not dump.values.flags.writeable and not nucnorm._views_writable_memory(dump.values)


def test_alternated_reads_of_two_runs_match_fresh_process_reads(tmp_path):
    # Equal-length id prefixes and the same texts: every dump of either run
    # has the same size, and the two runs' headers differ only in id bytes.
    runs = []
    for name in ("x", "y"):
        argv = _write_training_set(tmp_path / name, seed=1, prefix=f"{name}-")
        assert main([*argv, "--out-dir", str(tmp_path / f"run-{name}")]) == 0
        runs.append(sorted((tmp_path / f"run-{name}").glob("epoch*.embeddings.bin")))
    alternated = [path for pair in zip(*runs) for path in pair] * 2
    assert len({path.stat().st_size for path in alternated}) == 1
    fresh = {path: _read_fresh(path) for run in runs for path in run}
    like = None
    for path in alternated:  # each read handed the layout of the one before
        dump = read_embedding_dump(path, like=like)
        like = _like(dump)
        got = [list(dump.ids), dump.offsets.tolist(), dump.values.tobytes().hex(), dump.nuclear_norms().tolist()]
        assert got == fresh[path], path


@pytest.mark.parametrize(
    "ids, lengths, cols",
    [
        (("a", "b", "d"), BASE_LENGTHS, 2),  # one id byte
        (BASE_IDS, (4, 2, 6), 1),  # every rows and cols field
        (BASE_IDS, (2, 2, 2), 2),  # one row moved from "c" to "b"
        (("z", "b", "c"), BASE_LENGTHS, 2),  # one id byte of the first header
        (BASE_IDS, (2, 1, 2), 2),  # one row of "c" fewer: 8 trailing bytes make up the size
    ],
)
def test_same_size_dumps_that_walk_differently_get_their_own_layout(tmp_path, ids, lengths, cols):
    rng = np.random.default_rng(6)
    base = _write(tmp_path / "base.bin", BASE_IDS, random_blocks(rng, BASE_LENGTHS, 2))
    blocks = random_blocks(rng, lengths, cols)
    content = reference_dump_bytes(ids, blocks)
    trailing = base.stat().st_size - len(content)
    other = tmp_path / "other.bin"
    other.write_bytes(content + rng.bytes(trailing))
    kept = read_embedding_dump(base)
    if trailing:  # walked, as a read without a layout walks it
        with pytest.raises(FormatError, match=f"{trailing} trailing bytes") as info:
            read_embedding_dump(other, like=_like(kept))
        assert str(other) in str(info.value)
        return
    dump = read_embedding_dump(other, like=_like(kept))
    assert dump.layout is not kept.layout
    assert dump.ids == ids and dump.offsets.tolist() == np.cumsum((0, *lengths)).tolist()
    assert np.array_equal(dump.values, np.concatenate(blocks))
    assert read_embedding_dump(other, like=_like(dump)).layout is dump.layout


@pytest.mark.parametrize("during", ["short-read", "file-shrinks", "file-grows"])
def test_a_file_that_does_not_read_as_its_walk_is_read_cold(tmp_path, monkeypatch, during):
    # A read handed a layout fills the values straight from the file, and
    # must see when the file does not give the walk's bytes: a call that
    # fills fewer buffers than it was given, or a file cut short or
    # appended to after its size was checked.  The read is then the one a
    # read without a layout makes: the file's dump, or its FormatError.
    rng = np.random.default_rng(10)
    base = _write(tmp_path / "base.bin", BASE_IDS, random_blocks(rng, BASE_LENGTHS, 2))
    path = _write(tmp_path / "epoch2.bin", BASE_IDS, random_blocks(rng, BASE_LENGTHS, 2))
    like = _like(read_embedding_dump(base))
    readv = os.readv

    def changing_readv(fd, buffers):
        if during == "short-read":
            return readv(fd, buffers[:-1])
        if during == "file-shrinks":
            os.truncate(path, path.stat().st_size - 4)
        else:
            with open(path, "ab") as fh:
                fh.write(bytes(4))
        return readv(fd, buffers)

    monkeypatch.setattr(os, "readv", changing_readv)
    if during == "short-read":
        dump, cold = read_embedding_dump(path, like=like), read_embedding_dump(path)
        assert dump.layout is not like[0]
        assert dump.ids == cold.ids and dump.values.tobytes() == cold.values.tobytes()
        return
    match = "truncated while reading values of 'c'" if during == "file-shrinks" else "4 trailing bytes"
    with pytest.raises(FormatError, match=match) as info:
        read_embedding_dump(path, like=like)
    assert str(path) in str(info.value)


def test_a_kept_layout_read_passes_at_most_iov_max_buffers_a_call(tmp_path, monkeypatch):
    rng = np.random.default_rng(11)
    paths = [_write(tmp_path / f"epoch{i}.bin", BASE_IDS, random_blocks(rng, BASE_LENGTHS, 2)) for i in range(2)]
    like = _like(read_embedding_dump(paths[0]))
    calls, readv, sysconf = [], os.readv, os.sysconf
    monkeypatch.setattr(os, "readv", lambda fd, buffers: calls.append(len(buffers)) or readv(fd, buffers))
    monkeypatch.setattr(os, "sysconf", lambda name: 4 if name == "SC_IOV_MAX" else sysconf(name))
    dump = read_embedding_dump(paths[1], like=like)
    assert calls == [4, 2]  # a header and a sample's values per sample
    assert dump.layout is like[0]
    assert dump.values.tobytes() == read_embedding_dump(paths[1]).values.tobytes()


def test_without_readv_a_like_read_is_a_cold_read(tmp_path, monkeypatch):
    # Where os has no readv, a read handed a layout reads, walks and checks
    # the file as a read without one does: the same ids and values, on a
    # layout of its own that keeps nothing.
    monkeypatch.delattr(os, "readv")
    rng = np.random.default_rng(12)
    paths = [_write(tmp_path / f"epoch{i}.bin", BASE_IDS, random_blocks(rng, BASE_LENGTHS, 2)) for i in range(3)]
    first = read_embedding_dump(paths[0])
    for path in paths:
        dump, cold = read_embedding_dump(path, like=_like(first)), read_embedding_dump(path)
        assert dump.layout is not first.layout and dump.layout._memo == {}
        assert dump.ids == cold.ids and dump.offsets.tolist() == cold.offsets.tolist()
        assert dump.values.tobytes() == cold.values.tobytes()
    assert first.layout._memo == {}


def test_kept_headers_do_not_excuse_a_bad_file(tmp_path):
    rng = np.random.default_rng(7)
    base = _write(tmp_path / "base.bin", BASE_IDS, random_blocks(rng, BASE_LENGTHS, 2))
    blob = base.read_bytes()
    cases = [
        (blob[:-4], "truncated while reading values of 'c'"),
        (blob + b"\0" * 4, "4 trailing bytes"),
        (b"XXXXXXXX" + blob[8:], "bad magic"),
    ]
    like = _like(read_embedding_dump(base))
    for content, match in cases:
        bad = tmp_path / "bad.bin"
        bad.write_bytes(content)
        with pytest.raises(FormatError, match=match) as info:
            read_embedding_dump(bad, like=like)
        assert str(bad) in str(info.value)


def test_non_finite_value_under_a_kept_layout_names_the_file(tmp_path):
    rng = np.random.default_rng(8)
    base = _write(tmp_path / "base.bin", BASE_IDS, random_blocks(rng, BASE_LENGTHS, 2))
    like = _like(read_embedding_dump(base))
    blocks = random_blocks(rng, BASE_LENGTHS, 2)
    blocks[1][0, 1] = np.nan
    bad = _write(tmp_path / "nan.bin", BASE_IDS, blocks)
    with pytest.raises(FormatError, match="'b' contains non-finite") as info:
        read_embedding_dump(bad, like=like)
    assert str(bad) in str(info.value)
    assert read_embedding_dump(base, like=like).layout is like[0]


def test_reads_without_a_layout_walk_every_time_and_share_nothing(tmp_path, monkeypatch):
    # A read depends only on its arguments and the file: without ``like``,
    # a file read twice is walked twice, whatever was read before.
    rng = np.random.default_rng(9)
    path = _write(tmp_path / "base.bin", BASE_IDS, random_blocks(rng, BASE_LENGTHS, 2))
    walked = _count_walks(monkeypatch)
    first, second = read_embedding_dump(path), read_embedding_dump(path)
    assert len(walked) == 2
    assert first.layout is not second.layout
    assert first.layout._memo == {} and second.layout._memo == {}
    assert first.ids == second.ids and np.array_equal(first.values, second.values)
    # Handed the first read's layout, a third read walks nothing and shares it.
    assert read_embedding_dump(path, like=_like(first)).layout is first.layout
    assert len(walked) == 2


def test_a_like_read_on_a_layout_never_read_shares_it(tmp_path, monkeypatch):
    # A layout built by hand, whose dump the writer wrote: a read handed it
    # checks the file against the headers the writer packed, walks nothing
    # and gives the values a read without it gives.
    rng = np.random.default_rng(13)
    layout = DumpLayout(("é", "日本", "𝄞x"), np.cumsum((0, *BASE_LENGTHS)))
    path = tmp_path / "written.bin"
    write_embedding_dump(path, EmbeddingDump(layout, np.concatenate(random_blocks(rng, BASE_LENGTHS, 3))))
    cold = read_embedding_dump(path)
    walked = _count_walks(monkeypatch)
    dump = read_embedding_dump(path, like=(layout, 3))
    assert walked == [] and dump.layout is layout
    assert dump.values.tobytes() == cold.values.tobytes()


def test_a_like_read_on_the_run_loops_layout_shares_it(tmp_path, monkeypatch):
    # The training layout encode_datasets builds, never read from a file,
    # takes every dump run_spdcl wrote on it.
    train, valid = encode_datasets(*make_zipfian_dataset(30, 10, 3, seed=4), "multiclass", max_len=32)
    run_spdcl(train, valid, RunConfig(bins_k=2, epochs_T=2, seed=2), TrainHyper(hidden=4), tmp_path)
    paths = sorted(tmp_path.glob("epoch*.embeddings.bin"))
    assert len(paths) == 2
    colds = [read_embedding_dump(path) for path in paths]
    walked = _count_walks(monkeypatch)
    for path, cold in zip(paths, colds):
        dump = read_embedding_dump(path, like=(train.layout, 4))
        assert dump.layout is train.layout
        assert dump.values.tobytes() == cold.values.tobytes()
    assert walked == []
