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
from spdcl import nucnorm
from spdcl.nucnorm import DumpLayout, EmbeddingDump
from spdcl.synth import make_zipfian_dataset

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
# read_embedding_dump keeps the layout of the last file it walked, and reads
# a file of the same size with the same header bytes without walking it.
# Each test below first reads the file it wants kept.

BASE_IDS, BASE_LENGTHS = ("a", "b", "c"), (2, 1, 3)


def _write(path: Path, ids, blocks) -> Path:
    path.write_bytes(reference_dump_bytes(ids, blocks))
    return path


def _read_fresh(path: Path) -> dict:
    """A read of ``path`` in a new process: ids, offsets, values and norms."""
    script = (
        "import json, sys; from spdcl.io import read_embedding_dump; d = read_embedding_dump(sys.argv[1]); "
        "print(json.dumps([list(d.ids), d.offsets.tolist(), d.values.tobytes().hex(), d.nuclear_norms().tolist()]))"
    )
    out = subprocess.run([sys.executable, "-c", script, str(path)], check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def test_second_read_of_a_same_layout_dump_shares_the_layout(tmp_path):
    rng = np.random.default_rng(5)
    blocks = [random_blocks(rng, BASE_LENGTHS, 2) for _ in range(3)]
    paths = [_write(tmp_path / f"epoch{i}.bin", BASE_IDS, b) for i, b in enumerate(blocks)]
    first = read_embedding_dump(paths[0])
    for path, written in zip(paths, blocks):
        dump = read_embedding_dump(path)
        assert dump.layout is first.layout
        assert np.array_equal(dump.values, np.concatenate(written))
        assert isinstance(dump.values.base.base, bytes)


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
    for path in alternated:
        dump = read_embedding_dump(path)
        got = [list(dump.ids), dump.offsets.tolist(), dump.values.tobytes().hex(), dump.nuclear_norms().tolist()]
        assert got == fresh[path], path


@pytest.mark.parametrize(
    "ids, lengths, cols",
    [
        (("a", "b", "d"), BASE_LENGTHS, 2),  # one id byte
        (BASE_IDS, (4, 2, 6), 1),  # every rows and cols field
        (BASE_IDS, (2, 2, 2), 2),  # one row moved from "c" to "b"
    ],
)
def test_same_size_dumps_that_walk_differently_get_their_own_layout(tmp_path, ids, lengths, cols):
    rng = np.random.default_rng(6)
    base = _write(tmp_path / "base.bin", BASE_IDS, random_blocks(rng, BASE_LENGTHS, 2))
    blocks = random_blocks(rng, lengths, cols)
    other = _write(tmp_path / "other.bin", ids, blocks)
    assert other.stat().st_size == base.stat().st_size
    kept = read_embedding_dump(base).layout
    dump = read_embedding_dump(other)
    assert dump.layout is not kept
    assert dump.ids == ids and dump.offsets.tolist() == np.cumsum((0, *lengths)).tolist()
    assert np.array_equal(dump.values, np.concatenate(blocks))
    assert read_embedding_dump(other).layout is dump.layout


def test_kept_headers_do_not_excuse_a_bad_file(tmp_path):
    rng = np.random.default_rng(7)
    base = _write(tmp_path / "base.bin", BASE_IDS, random_blocks(rng, BASE_LENGTHS, 2))
    blob = base.read_bytes()
    cases = [
        (blob[:-4], "truncated while reading values of 'c'"),
        (blob + b"\0" * 4, "4 trailing bytes"),
        (b"XXXXXXXX" + blob[8:], "bad magic"),
    ]
    for content, match in cases:
        read_embedding_dump(base)
        bad = tmp_path / "bad.bin"
        bad.write_bytes(content)
        with pytest.raises(FormatError, match=match) as info:
            read_embedding_dump(bad)
        assert str(bad) in str(info.value)


def test_non_finite_value_under_a_kept_layout_names_the_file(tmp_path):
    rng = np.random.default_rng(8)
    base = _write(tmp_path / "base.bin", BASE_IDS, random_blocks(rng, BASE_LENGTHS, 2))
    kept = read_embedding_dump(base).layout
    blocks = random_blocks(rng, BASE_LENGTHS, 2)
    blocks[1][0, 1] = np.nan
    bad = _write(tmp_path / "nan.bin", BASE_IDS, blocks)
    with pytest.raises(FormatError, match="'b' contains non-finite") as info:
        read_embedding_dump(bad)
    assert str(bad) in str(info.value)
    assert read_embedding_dump(base).layout is kept
