import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from spdcl import cli, io as spdcl_io
from spdcl.cli import main
from spdcl.io import (
    RunConfig,
    read_manifest,
    read_scores,
    write_dataset,
    write_embedding_dump,
    write_run_config,
)
from spdcl.nucnorm import DumpLayout
from spdcl.synth import make_zipfian_dataset
from spdcl.trainer import encode_datasets, init_params

from dumps import pack_dump
from reference_plans import baseline_plan
from tables import ranked_ids, score_table


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    return code


@pytest.fixture
def dump_path(tmp_path):
    rng = np.random.default_rng(3)
    dump = pack_dump((f"s{i}", rng.normal(size=(2 + i, 3))) for i in range(3))
    path = tmp_path / "epoch1.bin"
    write_embedding_dump(path, dump)
    return path


@pytest.fixture
def run_dirs(tmp_path):
    train, valid = make_zipfian_dataset(40, 12, n_classes=3, seed=1)
    train_path = tmp_path / "train.jsonl"
    valid_path = tmp_path / "valid.jsonl"
    write_dataset(train_path, train)
    write_dataset(valid_path, valid)
    config_path = tmp_path / "config.json"
    write_run_config(
        config_path,
        RunConfig(bins_k=4, epochs_T=5, seed=2, lr=0.3, batch=8, hidden_d=4, max_len=32),
    )
    return tmp_path, train_path, valid_path, config_path


# -------------------------------------------------------------------- score


def test_score_epoch1(dump_path, tmp_path):
    out = tmp_path / "scores.jsonl"
    assert run_cli("score", "--embeddings", str(dump_path), "--epoch", "1", "--out", str(out)) == 0
    table = read_scores(out)
    assert table.ids == ("s0", "s1", "s2")
    assert sorted(table.order.tolist()) == [0, 1, 2]
    assert table.epoch == 1
    assert table.norm.tolist() == table.score.tolist()


def test_score_epoch2_requires_prev(dump_path, tmp_path, capsys):
    out = tmp_path / "scores.jsonl"
    code = run_cli("score", "--embeddings", str(dump_path), "--epoch", "2", "--out", str(out))
    assert code != 0
    err = capsys.readouterr().err
    assert err.startswith("error:epoch-mismatch:")
    assert err.count("\n") == 1


def test_score_repeated_invocations_identical(dump_path, tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    run_cli("score", "--embeddings", str(dump_path), "--epoch", "1", "--out", str(a))
    run_cli("score", "--embeddings", str(dump_path), "--epoch", "1", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_score_epoch2_chains_on_prev(dump_path, tmp_path):
    first = tmp_path / "e1.jsonl"
    run_cli("score", "--embeddings", str(dump_path), "--epoch", "1", "--out", str(first))
    second = tmp_path / "e2.jsonl"
    code = run_cli(
        "score",
        "--embeddings",
        str(dump_path),
        "--prev-scores",
        str(first),
        "--epoch",
        "2",
        "--out",
        str(second),
    )
    assert code == 0
    table = read_scores(second)
    # same embeddings both epochs: all deltas zero, ranks fall back to id order
    assert table.score.tolist() == [0.0, 0.0, 0.0]
    assert ranked_ids(table) == ["s0", "s1", "s2"]


def test_score_dump_in_reverse_id_order_gives_same_bytes(tmp_path):
    # A dump is sorted by id where it is scored: a hand-written dump in
    # reverse id order scores to the bytes of the sorted one, in both epochs.
    rng = np.random.default_rng(8)
    samples = [(f"s{i}", rng.normal(size=(1 + i % 3, 4))) for i in range(6)]
    for name, order in (("sorted", samples), ("reversed", samples[::-1])):
        write_embedding_dump(tmp_path / f"{name}.bin", pack_dump(order))
        for epoch in (1, 2):
            argv = ["score", "--embeddings", str(tmp_path / f"{name}.bin"), "--epoch", str(epoch),
                    "--out", str(tmp_path / f"{name}{epoch}.jsonl")]
            if epoch == 2:
                argv += ["--prev-scores", str(tmp_path / "sorted1.jsonl"), "--alignment", "identity"]
            assert run_cli(*argv) == 0
    for epoch in (1, 2):
        sorted_bytes = (tmp_path / f"sorted{epoch}.jsonl").read_bytes()
        assert (tmp_path / f"reversed{epoch}.jsonl").read_bytes() == sorted_bytes


def test_score_rejects_malformed_dump(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"garbage")
    code = run_cli("score", "--embeddings", str(bad), "--epoch", "1", "--out", str(tmp_path / "o"))
    assert code != 0
    assert capsys.readouterr().err.startswith("error:malformed-dump:")


def test_score_rejects_non_utf8_dump_id(dump_path, tmp_path, capsys):
    bad = tmp_path / "bad_id.bin"
    blob = dump_path.read_bytes()
    # sample 0's id "s0" starts after the 20-byte header and its u32 length
    bad.write_bytes(blob[:24] + b"\xff" + blob[25:])
    code = run_cli("score", "--embeddings", str(bad), "--epoch", "1", "--out", str(tmp_path / "o"))
    assert code != 0
    err = capsys.readouterr().err
    assert err.startswith("error:malformed-dump:")
    assert str(bad) in err and "sample 0" in err


def test_score_wrong_prev_epoch(dump_path, tmp_path, capsys):
    first = tmp_path / "e1.jsonl"
    run_cli("score", "--embeddings", str(dump_path), "--epoch", "1", "--out", str(first))
    code = run_cli(
        "score", "--embeddings", str(dump_path), "--prev-scores", str(first),
        "--epoch", "3", "--out", str(tmp_path / "e3.jsonl"),
    )
    assert code != 0
    assert capsys.readouterr().err.startswith("error:epoch-mismatch:")


@pytest.mark.parametrize(
    "flags, category",
    [
        (["--epoch", "0"], "bad-arguments"),
        (["--epoch", "1", "--prev-scores", "e0.jsonl"], "epoch-mismatch"),
        (["--epoch", "2"], "epoch-mismatch"),
    ],
)
def test_score_checks_its_flags_before_it_reads_the_dump(tmp_path, capsys, flags, category):
    out = tmp_path / "scores.jsonl"
    assert run_cli("score", "--embeddings", str(tmp_path / "missing.bin"), "--out", str(out), *flags) == 1
    assert capsys.readouterr().err.startswith(f"error:{category}:")
    assert not out.exists()


# ----------------------------------------------------------------- schedule


def scores_file(tmp_path, n=10, epoch=1):
    if epoch == 1:
        rng = np.random.default_rng(5)
        dump = pack_dump((f"s{i}", rng.normal(size=(2, 3))) for i in range(n))
        dump_file = tmp_path / "d.bin"
        write_embedding_dump(dump_file, dump)
        out = tmp_path / "scores.jsonl"
        run_cli("score", "--embeddings", str(dump_file), "--epoch", "1", "--out", str(out))
        return out
    from spdcl.io import write_scores

    out = tmp_path / f"scores_e{epoch}.jsonl"
    write_scores(out, score_table([(f"s{i}", float(n - i), float(n - i)) for i in range(n)], epoch))
    return out


def test_schedule_epoch1_takes_first_bin(tmp_path):
    scores = scores_file(tmp_path, n=10)
    manifest = tmp_path / "m.jsonl"
    # Fewer epochs than bins is a run's warning; one plan does not warn.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(
            "schedule", "--scores", str(scores), "--bins", "5", "--epoch", "1",
            "--seed", "2", "--out", str(manifest),
        )
    assert code == 0
    rec = json.loads(manifest.read_text())
    assert len(rec["order"]) == 2
    assert len(rec["bin_of"]) == 10


def test_schedule_saturates_past_k(tmp_path):
    scores = scores_file(tmp_path, n=10, epoch=9)
    manifest = tmp_path / "m.jsonl"
    run_cli(
        "schedule", "--scores", str(scores), "--bins", "5", "--epoch", "9",
        "--seed", "2", "--out", str(manifest),
    )
    rec = json.loads(manifest.read_text())
    assert sorted(rec["order"]) == [f"s{i}" for i in range(10)]


def test_schedule_rejects_k_over_n(tmp_path, capsys):
    scores = scores_file(tmp_path, n=4)
    code = run_cli(
        "schedule", "--scores", str(scores), "--bins", "9", "--epoch", "1",
        "--seed", "2", "--out", str(tmp_path / "m.jsonl"),
    )
    assert code != 0
    assert capsys.readouterr().err.startswith("error:invalid-config:")


def test_schedule_seed_follows_the_run_config_rule(tmp_path, capsys):
    # The seed is an integer >= 0, as in a run config.  Seeds are masked to
    # 64 bits, so the plan a negative seed once gave is its two's complement's.
    scores = scores_file(tmp_path, n=10)
    manifest = tmp_path / "m.jsonl"
    common = ["schedule", "--scores", str(scores), "--bins", "1", "--epoch", "1", "--out", str(manifest)]
    assert run_cli(*common, "--seed", "-1") == 1
    assert capsys.readouterr().err == "error:invalid-config: seed must be >= 0, got -1\n"
    assert not manifest.exists()
    assert run_cli(*common, "--seed", str(2**64 - 1)) == 0
    assert read_manifest(manifest) == baseline_plan(read_scores(scores).ids, -1, 1)


def test_schedule_epoch_mismatch(tmp_path, capsys):
    scores = scores_file(tmp_path)
    code = run_cli(
        "schedule", "--scores", str(scores), "--bins", "2", "--epoch", "4",
        "--seed", "2", "--out", str(tmp_path / "m.jsonl"),
    )
    assert code != 0
    assert capsys.readouterr().err.startswith("error:epoch-mismatch:")


@pytest.mark.parametrize(
    "lines",
    [
        ['{"id":"a","epoch":1,"score":1.0,"rank":0,"norm":1.0}',
         '{"id":"b","epoch":1,"score":2.0,"rank":1,"norm":2.0}',
         '{"id":"a","epoch":1,"score":3.0,"rank":2,"norm":3.0}'],
        ['{"id":7,"epoch":1,"score":1.0,"rank":0,"norm":1.0}'],
        ['{"id":"a","epoch":1,"score":1.0,"rank":0,"norm":1.0}',
         '{"id":"","epoch":1,"score":2.0,"rank":1,"norm":2.0}'],
    ],
    ids=["duplicate-id", "integer-id", "empty-id"],
)
def test_schedule_rejects_bad_score_ids(tmp_path, capsys, lines):
    scores = tmp_path / "scores.jsonl"
    scores.write_text("\n".join(lines) + "\n")
    manifest = tmp_path / "m.jsonl"
    code = run_cli(
        "schedule", "--scores", str(scores), "--bins", "1", "--epoch", "1",
        "--seed", "2", "--out", str(manifest),
    )
    assert code != 0
    assert capsys.readouterr().err.startswith("error:malformed-scores:")
    assert not manifest.exists()


@pytest.mark.parametrize("command", ["schedule", "score"])
def test_a_score_file_epoch_below_one_is_malformed_scores(tmp_path, capsys, dump_path, command):
    # schedule reads a file of epoch 0, and score one of epoch -3 as --prev-scores.
    scores = tmp_path / "scores.jsonl"
    epoch = 0 if command == "schedule" else -3
    scores.write_text(f'{{"epoch":{epoch},"id":"a","norm":1.0,"rank":0,"score":1.0}}\n')
    out = tmp_path / "out.jsonl"
    if command == "schedule":
        argv = ["schedule", "--scores", scores, "--bins", "1", "--epoch", "1", "--seed", "2", "--out", out]
    else:
        argv = ["score", "--embeddings", dump_path, "--prev-scores", scores, "--epoch", "2", "--out", out]
    assert run_cli(*map(str, argv)) == 1
    assert capsys.readouterr().err == f"error:malformed-scores: {scores}: epoch must be >= 1, got {epoch}\n"
    assert not out.exists()


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int-string digit limit")
def test_schedule_names_the_line_of_an_integer_past_the_digit_limit(tmp_path, capsys):
    scores = tmp_path / "scores.jsonl"
    huge = "1" * (sys.get_int_max_str_digits() + 1)
    scores.write_text('{"id":"a","epoch":1,"score":1.0,"rank":0,"norm":1.0}\n'
                      f'{{"id":"b","epoch":1,"score":2.0,"rank":{huge},"norm":2.0}}\n')
    code = run_cli(
        "schedule", "--scores", str(scores), "--bins", "1", "--epoch", "1",
        "--seed", "2", "--out", str(tmp_path / "m.jsonl"),
    )
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error:malformed-scores: {scores}: line 2 is not valid JSON:")


# -------------------------------------------------------------------- train


def test_train_emits_all_artifacts(run_dirs):
    tmp_path, train_path, valid_path, config_path = run_dirs
    out_dir = tmp_path / "run"
    code = run_cli(
        "train", "--dataset", str(train_path), "--valid", str(valid_path),
        "--config", str(config_path), "--out-dir", str(out_dir),
    )
    assert code == 0
    for kind in ("embeddings.bin", "scores.jsonl", "manifest.jsonl", "report.json"):
        found = sorted(out_dir.glob(f"epoch*.{kind}"))
        assert len(found) == 5, f"expected 5 {kind} files, got {len(found)}"
    assert (out_dir / "params_final.npz").exists()
    assert (out_dir / "model_meta.json").exists()


def test_train_rerun_is_byte_identical(run_dirs):
    tmp_path, train_path, valid_path, config_path = run_dirs
    dirs = []
    for name in ("run_a", "run_b"):
        out_dir = tmp_path / name
        run_cli(
            "train", "--dataset", str(train_path), "--valid", str(valid_path),
            "--config", str(config_path), "--out-dir", str(out_dir),
        )
        dirs.append(out_dir)
    for left in sorted(dirs[0].glob("epoch*")):
        right = dirs[1] / left.name
        assert left.read_bytes() == right.read_bytes(), left.name


def test_train_baseline_matches_k1_curriculum(run_dirs):
    # The baseline ignores bins_k and shuffle_within_epoch: trained with
    # three unshuffled bins, it writes the one-bin curriculum's files, every
    # one of them, run_config.json included, since it records what it ran.
    tmp_path, train_path, valid_path, config_path = run_dirs
    k1_config = tmp_path / "k1.json"
    base_config = tmp_path / "base.json"
    write_run_config(
        k1_config, RunConfig(bins_k=1, epochs_T=5, seed=2, lr=0.3, batch=8, hidden_d=4, max_len=32)
    )
    write_run_config(
        base_config,
        RunConfig(
            bins_k=3, epochs_T=5, seed=2, lr=0.3, batch=8, hidden_d=4, max_len=32, shuffle_within_epoch=False
        ),
    )
    k1_dir = tmp_path / "k1"
    base_dir = tmp_path / "base"
    assert run_cli(
        "train", "--dataset", str(train_path), "--valid", str(valid_path),
        "--config", str(k1_config), "--out-dir", str(k1_dir),
    ) == 0
    assert run_cli(
        "train", "--dataset", str(train_path), "--valid", str(valid_path),
        "--config", str(base_config), "--out-dir", str(base_dir), "--baseline",
    ) == 0
    names = sorted(p.name for p in k1_dir.iterdir())
    assert len(names) == 5 * 4 + 3  # run_config.json, params_final.npz, model_meta.json
    assert sorted(p.name for p in base_dir.iterdir()) == names
    for name in names:
        assert (k1_dir / name).read_bytes() == (base_dir / name).read_bytes(), name


def test_train_baseline_takes_more_bins_than_samples(tmp_path, capsys):
    # The baseline trains one bin, so a config's bins_k past the training
    # set's size does not stop it.
    train, valid = make_zipfian_dataset(4, 3, n_classes=2, seed=1)
    write_dataset(tmp_path / "train.jsonl", train)
    write_dataset(tmp_path / "valid.jsonl", valid)
    write_run_config(tmp_path / "config.json", RunConfig(bins_k=5, epochs_T=2, batch=2, hidden_d=4, max_len=16))
    assert run_cli(
        "train", "--dataset", str(tmp_path / "train.jsonl"), "--valid", str(tmp_path / "valid.jsonl"),
        "--config", str(tmp_path / "config.json"), "--out-dir", str(tmp_path / "base"), "--baseline",
    ) == 0, capsys.readouterr().err
    assert spdcl_io.load_run_config(tmp_path / "base" / "run_config.json").bins_k == 1
    assert read_manifest(tmp_path / "base" / "epoch002.manifest.jsonl").bin_of == dict.fromkeys(
        (s.sample_id for s in train), 1
    )


def test_train_invalid_config_fails_before_training(run_dirs, capsys):
    tmp_path, train_path, valid_path, _ = run_dirs
    bad = tmp_path / "bad.json"
    bad.write_text('{"bins_k": 1000, "epochs_T": 2}')
    out_dir = tmp_path / "nope"
    code = run_cli(
        "train", "--dataset", str(train_path), "--valid", str(valid_path),
        "--config", str(bad), "--out-dir", str(out_dir),
    )
    assert code != 0
    assert capsys.readouterr().err.startswith("error:invalid-config:")
    assert not list(out_dir.glob("epoch*")) if out_dir.exists() else True


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int-string digit limit")
def test_train_names_a_config_with_an_integer_past_the_digit_limit(run_dirs, capsys):
    tmp_path, train_path, valid_path, _ = run_dirs
    bad = tmp_path / "bad.json"
    bad.write_text('{"lr": 1' + "0" * sys.get_int_max_str_digits() + "}")
    code = run_cli(
        "train", "--dataset", str(train_path), "--valid", str(valid_path),
        "--config", str(bad), "--out-dir", str(tmp_path / "nope"),
    )
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error:invalid-config: {bad}: not valid JSON:")


@pytest.mark.parametrize("field", ["id", "text", "labels"])
def test_train_rejects_a_lone_surrogate_before_training(run_dirs, capsys, field):
    tmp_path, train_path, valid_path, config_path = run_dirs
    lines = train_path.read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(lines[3])
    record[field] = "\ud800x"
    lines[3] = json.dumps(record) + "\n"
    train_path.write_text("".join(lines), encoding="utf-8")
    out_dir = tmp_path / "out"
    code = run_cli(
        "train", "--dataset", str(train_path), "--valid", str(valid_path),
        "--config", str(config_path), "--out-dir", str(out_dir),
    )
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error:malformed-dataset: {train_path}: line 4 holds a string")
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "config, field",
    [
        ('{"bins_k": 2.5}', "bins_k"),
        ('{"shuffle_within_epoch": "no"}', "shuffle_within_epoch"),
        ('{"lr": NaN}', "lr"),
        pytest.param('{"lr": 1' + "0" * 400 + "}", "lr", id="lr-too-large-for-a-float"),
    ],
)
def test_train_rejects_wrong_typed_config(run_dirs, capsys, config, field):
    tmp_path, train_path, valid_path, _ = run_dirs
    bad = tmp_path / "bad.json"
    bad.write_text(config)
    code = run_cli(
        "train", "--dataset", str(train_path), "--valid", str(valid_path),
        "--config", str(bad), "--out-dir", str(tmp_path / "nope"),
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:invalid-config:") and field in err
    assert "Traceback" not in err


def _final_params():
    train, _ = encode_datasets(*make_zipfian_dataset(10, 3, n_classes=2, seed=1), "multiclass")
    return init_params(train.vocab.size, 3, 2, "multiclass", seed=0), train


def test_final_params_are_what_savez_writes_to_a_file(tmp_path):
    params, train = _final_params()
    cli._save_final_params(tmp_path, params, train, 250)
    with open(tmp_path / "direct.npz", "wb") as fh:
        np.savez(fh, embedding_table=params.embedding_table, head_weights=params.head_weights,
                 head_bias=params.head_bias)
    assert (tmp_path / "params_final.npz").read_bytes() == (tmp_path / "direct.npz").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["direct.npz", "model_meta.json", "params_final.npz"]


def test_final_params_leave_no_temp_file_when_the_rename_fails(tmp_path, monkeypatch):
    params, train = _final_params()

    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename failed"):
        cli._save_final_params(tmp_path, params, train, 250)
    assert list(tmp_path.iterdir()) == []


def test_train_divergence_names_epoch(run_dirs, capsys):
    tmp_path, train_path, valid_path, _ = run_dirs
    config_path = tmp_path / "diverge.json"
    write_run_config(
        config_path,
        RunConfig(bins_k=1, epochs_T=2, seed=2, lr=1e300, batch=8, hidden_d=4, max_len=32),
    )
    code = run_cli(
        "train", "--dataset", str(train_path), "--valid", str(valid_path),
        "--config", str(config_path), "--out-dir", str(tmp_path / "diverged"),
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:diverged:")
    assert "epoch 1," in err


def test_train_past_the_dump_range_is_diverged_naming_the_epoch(tmp_path, capsys):
    # At lr 1e5 the float64 table stays finite but passes float32's range in
    # epoch 2's training, so epoch 3's dump cannot hold it.
    train, valid = make_zipfian_dataset(60, 20, 4, seed=1)
    write_dataset(tmp_path / "train.jsonl", train)
    write_dataset(tmp_path / "valid.jsonl", valid)
    write_run_config(tmp_path / "config.json", RunConfig(bins_k=2, epochs_T=6, batch=5, hidden_d=8, lr=1e5))
    code = run_cli(
        "train", "--dataset", str(tmp_path / "train.jsonl"), "--valid", str(tmp_path / "valid.jsonl"),
        "--config", str(tmp_path / "config.json"), "--out-dir", str(tmp_path / "run"),
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:diverged: training at epoch 2 ") and err.count("\n") == 1, err


# --------------------------------------------- CLI pipeline == in-process run


@pytest.mark.parametrize(
    "alignment, ordering, shuffle",
    [
        ("rank", "magnitude", True),
        ("identity", "magnitude", True),
        ("rank", "signed", True),
        ("rank", "magnitude", False),
        ("identity", "signed", False),
    ],
    ids=lambda value: {True: "shuffle", False: "no-shuffle"}.get(value, value),
)
def test_cli_score_schedule_reproduce_train_artifacts(run_dirs, monkeypatch, alignment, ordering, shuffle):
    # Re-deriving scores and manifests from the emitted dumps must give
    # byte-identical artifacts to the run.  The CLI's hand-off is emptied
    # before each call, as a new process per call starts without it, so
    # every score file read is parsed: the shell's path, not the in-process
    # chain's (test_an_in_process_rescoring_chain_parses_no_score_file).
    tmp_path, train_path, valid_path, _ = run_dirs
    config_path = tmp_path / "config_rederive.json"
    write_run_config(
        config_path,
        RunConfig(bins_k=4, epochs_T=5, seed=2, lr=0.3, batch=8, hidden_d=4, max_len=32,
                  alignment_mode=alignment, delta_ordering=ordering, shuffle_within_epoch=shuffle),
    )
    out_dir = tmp_path / "run"
    run_cli(
        "train", "--dataset", str(train_path), "--valid", str(valid_path),
        "--config", str(config_path), "--out-dir", str(out_dir),
    )
    parsed = []
    parse = spdcl_io._parse_scores
    monkeypatch.setattr(spdcl_io, "_parse_scores", lambda path, blob: parsed.append(path) or parse(path, blob))
    redo = tmp_path / "redo"
    redo.mkdir()
    for epoch in range(1, 6):
        score_out = redo / f"epoch{epoch:03d}.scores.jsonl"
        argv = [
            "score", "--embeddings", str(out_dir / f"epoch{epoch:03d}.embeddings.bin"),
            "--epoch", str(epoch), "--out", str(score_out),
        ]
        if epoch > 1:
            argv += ["--prev-scores", str(out_dir / f"epoch{epoch - 1:03d}.scores.jsonl"),
                     "--alignment", alignment, "--ordering", ordering]
        monkeypatch.setattr(cli, "_handoff", {})
        assert run_cli(*argv) == 0
        assert score_out.read_bytes() == (out_dir / score_out.name).read_bytes()

        manifest_out = redo / f"epoch{epoch:03d}.manifest.jsonl"
        no_shuffle = [] if shuffle else ["--no-shuffle"]
        monkeypatch.setattr(cli, "_handoff", {})
        assert run_cli(
            "schedule", "--scores", str(score_out), "--bins", "4",
            "--epoch", str(epoch), "--seed", "2", "--out", str(manifest_out), *no_shuffle,
        ) == 0
        assert manifest_out.read_bytes() == (out_dir / manifest_out.name).read_bytes()
    assert len(parsed) == 2 * 5 - 1  # each --prev-scores of epochs 2-5, and each schedule


# ------------------------------------------------------------------- report


def test_report_aggregates_run(run_dirs):
    tmp_path, train_path, valid_path, config_path = run_dirs
    out_dir = tmp_path / "run"
    run_cli(
        "train", "--dataset", str(train_path), "--valid", str(valid_path),
        "--config", str(config_path), "--out-dir", str(out_dir),
    )
    report_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    code = run_cli(
        "report", "--run-dir", str(out_dir), "--out", str(report_path), "--csv", str(csv_path)
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert len(report["epochs"]) == 5
    assert len(report["norm_trajectory"]) == 5
    for epoch in report["epochs"]:
        stats = epoch["norm_stats"]
        assert stats["min"] <= stats["q1"] <= stats["median"] <= stats["q3"] <= stats["max"]
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 6  # header + 5 epochs


def test_report_with_baseline_delta(run_dirs):
    tmp_path, train_path, valid_path, config_path = run_dirs
    run_dir = tmp_path / "run"
    base_dir = tmp_path / "base"
    run_cli(
        "train", "--dataset", str(train_path), "--valid", str(valid_path),
        "--config", str(config_path), "--out-dir", str(run_dir),
    )
    run_cli(
        "train", "--dataset", str(train_path), "--valid", str(valid_path),
        "--config", str(config_path), "--out-dir", str(base_dir), "--baseline",
    )
    report_path = tmp_path / "cmp.json"
    code = run_cli(
        "report", "--run-dir", str(run_dir), "--out", str(report_path),
        "--baseline-dir", str(base_dir),
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert "delta_vs_baseline" in report
    assert "micro_f1" in report["delta_vs_baseline"]


def test_report_incomplete_run_lists_missing(run_dirs, capsys):
    tmp_path, train_path, valid_path, config_path = run_dirs
    out_dir = tmp_path / "run"
    run_cli(
        "train", "--dataset", str(train_path), "--valid", str(valid_path),
        "--config", str(config_path), "--out-dir", str(out_dir),
    )
    (out_dir / "epoch003.manifest.jsonl").unlink()
    code = run_cli("report", "--run-dir", str(out_dir), "--out", str(tmp_path / "r.json"))
    assert code != 0
    err = capsys.readouterr().err
    assert err.startswith("error:missing-artifact:")
    assert "epoch003.manifest.jsonl" in err


# ------------------------------------------------------------ output errors


@pytest.mark.parametrize(
    "command, flag",
    [("score", "--out"), ("schedule", "--out"), ("report", "--out"), ("report", "--csv"), ("train", "--out-dir")],
)
def test_an_unwritable_output_is_one_error_line(run_dirs, dump_path, command, flag, capsys):
    tmp_path, train_path, valid_path, config_path = run_dirs
    train_args = ["--dataset", str(train_path), "--valid", str(valid_path), "--config", str(config_path)]
    target = tmp_path / "target"
    if command == "train":
        target.write_text("")  # a file where the run directory goes
        inputs = train_args
    else:
        target.mkdir()  # a directory where a file goes
    if command == "score":
        inputs = ["--embeddings", str(dump_path), "--epoch", "1"]
    elif command == "schedule":
        inputs = ["--scores", str(scores_file(tmp_path)), "--bins", "2", "--epoch", "1", "--seed", "0"]
    elif command == "report":
        assert run_cli("train", *train_args, "--out-dir", str(tmp_path / "run")) == 0
        inputs = ["--run-dir", str(tmp_path / "run")]
        if flag == "--csv":
            inputs += ["--out", str(tmp_path / "report.json")]
    argv = [command, *inputs, flag, str(target)]
    capsys.readouterr()
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:unwritable-output:") and err.count("\n") == 1, err
    assert list(tmp_path.glob(".target.*")) == []  # the atomic writer removed its temp file


# ------------------------------------------------------------ entry points


def test_module_entry_point_help():
    result = subprocess.run(
        [sys.executable, "-m", "spdcl", "--help"], capture_output=True, text=True
    )
    assert result.returncode == 0
    for sub in ("score", "schedule", "train", "report"):
        assert sub in result.stdout


def test_subcommand_help():
    for sub in ("score", "schedule", "train", "report"):
        result = subprocess.run(
            [sys.executable, "-m", "spdcl", sub, "--help"], capture_output=True, text=True
        )
        assert result.returncode == 0


def test_the_cli_loads_neither_the_trainer_nor_the_metrics():
    # Only train runs them, and imports them when it runs.
    script = "import sys, spdcl.cli; print(sorted({'spdcl.trainer', 'spdcl.metrics'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_an_unknown_spdcl_log_value_logs_at_warning(tmp_path):
    # logging.BASIC_FORMAT is a logging attribute, but a format, not a level.
    result = subprocess.run(
        [sys.executable, "-m", "spdcl", "report", "--run-dir", str(tmp_path / "missing"),
         "--out", str(tmp_path / "report.json")],
        capture_output=True, text=True, env=dict(os.environ, SPDCL_LOG="basic_format"),
    )
    assert result.returncode == 1
    assert result.stderr.startswith("error:missing-artifact:") and result.stderr.count("\n") == 1


def test_an_in_process_rescoring_chain_parses_no_score_file(run_dirs, monkeypatch):
    # schedule reads the score file that score has just written, and the
    # next score reads it again as --prev-scores: the kept entry serves both.
    tmp_path, train_path, valid_path, _ = run_dirs
    config_path = tmp_path / "config3.json"
    write_run_config(config_path, RunConfig(bins_k=2, epochs_T=3, seed=2, lr=0.3, batch=8, hidden_d=4, max_len=32))
    run = tmp_path / "run"
    assert main(["train", "--dataset", str(train_path), "--valid", str(valid_path),
                 "--config", str(config_path), "--out-dir", str(run)]) == 0
    parsed = []
    parse = spdcl_io._parse_scores
    monkeypatch.setattr(spdcl_io, "_parse_scores", lambda path, blob: parsed.append(path) or parse(path, blob))
    redo = tmp_path / "redo"
    redo.mkdir()
    for epoch in (1, 2, 3):
        scores = redo / f"epoch{epoch:03d}.scores.jsonl"
        argv = ["score", "--embeddings", str(run / f"epoch{epoch:03d}.embeddings.bin"),
                "--epoch", str(epoch), "--out", str(scores)]
        if epoch > 1:
            argv += ["--prev-scores", str(redo / f"epoch{epoch - 1:03d}.scores.jsonl")]
        assert main(argv) == 0
        manifest = redo / f"epoch{epoch:03d}.manifest.jsonl"
        assert main(["schedule", "--scores", str(scores), "--bins", "2", "--epoch", str(epoch),
                     "--seed", "2", "--out", str(manifest)]) == 0
        assert manifest.read_bytes() == (run / manifest.name).read_bytes()
    assert parsed == []
    read_scores(redo / "epoch001.scores.jsonl")  # not the last file written: parsed
    assert parsed == [redo / "epoch001.scores.jsonl"]


def test_an_in_process_chain_walks_one_dump_and_parses_no_score_file(run_dirs, monkeypatch):
    # Over a T-epoch run, each score call gets the last dump's layout and
    # each read the last score file written from the CLI's hand-off: the
    # first dump is walked, no other, and no score file is parsed.
    tmp_path, train_path, valid_path, config_path = run_dirs
    run = tmp_path / "run"
    assert main(["train", "--dataset", str(train_path), "--valid", str(valid_path),
                 "--config", str(config_path), "--out-dir", str(run)]) == 0
    monkeypatch.setattr(cli, "_handoff", {})
    walked, parsed = [], []
    walk, parse = spdcl_io._walk_dump, spdcl_io._parse_scores
    monkeypatch.setattr(spdcl_io, "_walk_dump", lambda path, blob: walked.append(path) or walk(path, blob))
    monkeypatch.setattr(spdcl_io, "_parse_scores", lambda path, blob: parsed.append(path) or parse(path, blob))
    redo = tmp_path / "redo"
    epochs = spdcl_io.load_run_config(config_path).epochs_T
    for epoch in range(1, epochs + 1):
        paths, out = spdcl_io.epoch_paths(run, epoch), spdcl_io.epoch_paths(redo, epoch)
        argv = ["score", "--embeddings", str(paths["embeddings"]), "--epoch", str(epoch), "--out", str(out["scores"])]
        if epoch > 1:
            argv += ["--prev-scores", str(spdcl_io.epoch_paths(redo, epoch - 1)["scores"])]
        assert main(argv) == 0
        assert main(["schedule", "--scores", str(out["scores"]), "--bins", "4", "--epoch", str(epoch),
                     "--seed", "2", "--out", str(out["manifest"])]) == 0
        for kind in ("scores", "manifest"):
            assert out[kind].read_bytes() == paths[kind].read_bytes()
    assert walked == [str(spdcl_io.epoch_paths(run, 1)["embeddings"])]
    assert parsed == []
    # The hand-off holds a layout and a score file's bytes, no dump values.
    (layout, cols), (payload, table) = cli._handoff["like"], cli._handoff["written"]
    assert isinstance(layout, DumpLayout) and cols == 4
    assert payload == spdcl_io.epoch_paths(redo, epochs)["scores"].read_bytes() and table.epoch == epochs


def test_commands_share_one_parser_in_one_process(run_dirs, capsys):
    # The parser is built once per process; every call still parses and
    # reports on its own, before and after a rejected one.
    tmp_path, train_path, valid_path, config_path = run_dirs
    run = tmp_path / "run"
    assert main(["train", "--dataset", str(train_path), "--valid", str(valid_path),
                 "--config", str(config_path), "--out-dir", str(run)]) == 0
    scores = tmp_path / "epoch001.scores.jsonl"
    manifest = tmp_path / "epoch001.manifest.jsonl"
    assert main(["score", "--embeddings", str(run / "epoch001.embeddings.bin"), "--epoch", "1",
                 "--out", str(scores)]) == 0
    assert scores.read_bytes() == (run / scores.name).read_bytes()
    assert main(["schedule", "--scores", str(scores), "--bins", "4", "--epoch", "1", "--seed", "2",
                 "--out", str(manifest)]) == 0
    assert manifest.read_bytes() == (run / manifest.name).read_bytes()
    capsys.readouterr()
    assert main(["score", "--embeddings", str(run / "epoch001.embeddings.bin"), "--epoch", "0",
                 "--out", str(tmp_path / "bad.jsonl")]) == 1
    assert capsys.readouterr().err == "error:bad-arguments: --epoch must be >= 1\n"
    with pytest.raises(SystemExit) as exc:
        main(["score", "--embeddings", "x.bin", "--epoch", "one", "--out", "y.jsonl"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("spdcl score: error: argument --epoch: invalid int value: 'one'\n")
    report = tmp_path / "report.json"
    assert main(["report", "--run-dir", str(run), "--out", str(report)]) == 0
    assert [e["epoch"] for e in json.loads(report.read_text())["epochs"]] == [1, 2, 3, 4, 5]
    assert capsys.readouterr() == ("", "")
    assert not (tmp_path / "bad.jsonl").exists()
