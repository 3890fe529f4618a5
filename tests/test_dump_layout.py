"""Dumps of one training set share one layout: ids, offsets, scoring's gather
plan, and the dump headers and score-file ids that ``spdcl.io`` caches by it.

Every test alternates between several layouts or id tuples, so a cache that
outlived its layout (or was keyed by less than it) shows as a wrong byte or
a wrong norm.  Layouts of equal sample count are mixed on purpose: a cache
keyed by the count alone would mix them up.
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
    RunConfig,
    TextSample,
    write_dataset,
    write_embedding_dump,
    write_run_config,
    write_scores,
)
from spdcl.nucnorm import EmbeddingDump
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
            shared = first.with_values(np.concatenate(blocks))
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
            shared = first.with_values(values)
            fresh = EmbeddingDump(first.ids, first.offsets, values)
            assert shared.nuclear_norms().tolist() == fresh.nuclear_norms().tolist()


def test_with_values_checks_only_the_values():
    first = pack_dump([("a", [[1.0, 2.0]]), ("b", [[3.0, 4.0], [5.0, 6.0]])])
    with pytest.raises(ValueError, match=r"shape \(3, 2\), got \(3, 3\)"):
        first.with_values(np.ones((3, 3)))
    with pytest.raises(ValueError, match="'b' contains non-finite"):
        first.with_values([[1.0, 2.0], [np.nan, 0.0], [0.0, 0.0]])
    shared = first.with_values(np.zeros((3, 2)))
    assert shared.ids is first.ids and shared.offsets is first.offsets
    assert not shared.values.flags.writeable


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
