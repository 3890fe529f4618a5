"""``scripts/artifact_hashes.py``: its hash list, and its re-derivation check.

The check must pass on a run as ``spdcl train`` wrote it, and must name the
file when one byte of a score file, a manifest or a dump changes afterwards.
"""

import importlib.util
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import spdcl
from spdcl import cli
from spdcl import io as spdcl_io
from spdcl import nucnorm
from spdcl.cli import main
from spdcl.io import RunConfig, write_dataset, write_run_config
from spdcl.nucnorm import EmbeddingDump
from spdcl.synth import make_zipfian_dataset

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "artifact_hashes.py"
_spec = importlib.util.spec_from_file_location("artifact_hashes", SCRIPT)
artifact_hashes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_hashes)


def test_script_prints_one_sorted_hash_line_per_artifact():
    # The script's own processes import this spdcl, wherever the test runs.
    env = dict(os.environ, PYTHONPATH=str(Path(spdcl.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines), lines
    paths = [line[66:] for line in lines]
    assert paths == sorted(set(paths))
    assert {"report.json", "report.csv"} <= set(paths)
    for name in artifact_hashes.RUNS:
        # Three epochs of four files, run_config.json, params_final.npz, model_meta.json.
        assert len([path for path in paths if path.startswith(f"{name}/")]) == 15, name


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    train, valid = make_zipfian_dataset(40, 10, n_classes=3, seed=1)
    write_dataset(root / "train.jsonl", train)
    write_dataset(root / "valid.jsonl", valid)
    write_run_config(root / "config.json", RunConfig(bins_k=2, epochs_T=3, lr=0.5, hidden_d=4, max_len=16))
    assert main([
        "train", "--dataset", str(root / "train.jsonl"), "--valid", str(root / "valid.jsonl"),
        "--config", str(root / "config.json"), "--out-dir", str(root / "run"),
    ]) == 0
    return root / "run"


def test_check_run_passes_an_untouched_run(trained_run, tmp_path):
    assert artifact_hashes.check_run(trained_run, tmp_path / "work") == []


@pytest.mark.parametrize("name", ["epoch002.scores.jsonl", "epoch002.manifest.jsonl", "epoch002.embeddings.bin"])
def test_check_run_names_a_file_changed_by_one_byte(trained_run, tmp_path, name):
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    data = bytearray((run / name).read_bytes())
    # A digit of the last score, a bracket of the manifest, a bit of the dump's last value.
    data[-3] ^= 1
    (run / name).write_bytes(bytes(data))
    bad = artifact_hashes.check_run(run, tmp_path / "work")
    assert any(name in line for line in bad), bad


def test_check_run_names_a_score_file_the_kept_entry_misreads(trained_run, tmp_path, monkeypatch):
    # A writer that hands the CLI a table its file does not read back as: other scores.
    write = spdcl_io.write_scores

    def hand_off_other_scores(path, table):
        payload, _ = write(path, table)
        return payload, replace(table, score=table.score + 1.0)

    monkeypatch.setattr(cli, "_handoff", {})
    monkeypatch.setattr(spdcl_io, "write_scores", hand_off_other_scores)
    bad = artifact_hashes.check_run(trained_run, tmp_path / "work")
    assert any("epoch001.scores.jsonl: reads to another table from the hand-off" in line for line in bad), bad


def test_check_run_scores_later_dumps_on_the_kept_classes(trained_run, tmp_path, monkeypatch):
    # The shared-layout reads score every dump after the first on the classes
    # of equal rows the first one's pass kept; a kept entry that misweighs
    # them must be named by the dump whose norms it changed.
    held = []
    classes_hold = nucnorm._classes_hold

    def counted(dump, heads):
        held.append(classes_hold(dump, heads))
        return held[-1]

    monkeypatch.setattr(nucnorm, "_classes_hold", counted)
    assert artifact_hashes.check_run(trained_run, tmp_path / "work") == []
    assert held.count(True) >= 2

    def hold_but_misweigh(dump, heads):
        if not classes_hold(dump, heads):
            return False
        key = ("plan", dump.values.shape[1])
        keys, weights, slices, heads = dump.layout._memo[key]
        dump.layout._memo[key] = (keys, np.ones_like(weights), slices, heads)
        return True

    monkeypatch.setattr(nucnorm, "_classes_hold", hold_but_misweigh)
    bad = artifact_hashes.check_run(trained_run, tmp_path / "misweighed")
    assert any("epoch003.embeddings.bin: scored on the first dump's layout" in line for line in bad), bad


def test_check_run_names_a_dump_whose_shared_layout_read_misplaces_values(trained_run, tmp_path, monkeypatch):
    # A read on a kept layout whose values come back with their first two
    # rows swapped must be named by the dump it misread, against a read
    # without the layout.
    read = spdcl_io.read_embedding_dump

    def misplace(path, like=None):
        dump = read(path, like=like)
        if like is None:
            return dump
        values = dump.values.copy()
        values[[0, 1]] = values[[1, 0]]
        return EmbeddingDump(dump.layout, values)

    monkeypatch.setattr(spdcl_io, "read_embedding_dump", misplace)
    bad = artifact_hashes.check_run(trained_run, tmp_path / "work")
    assert any("epoch002.embeddings.bin: read on the first dump's layout, holds other values" in line
               for line in bad), bad
