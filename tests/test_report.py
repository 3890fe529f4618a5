"""Each epoch report carries its epoch's norm statistics, computed at train
time from the epoch's scores; ``spdcl report`` reads them from there and
parses no score file.

The oracle for a report is the same document rebuilt from the score files:
every epoch's ``norm_stats`` recomputed from ``read_scores`` of its file.
"""

import json
import subprocess
import sys
import textwrap
from dataclasses import replace

import numpy as np
import pytest

from spdcl import io as spdcl_io
from spdcl.cli import main
from spdcl.io import (
    RunConfig,
    TextSample,
    _norm_stats,
    read_scores,
    report_csv_rows,
    write_dataset,
    write_json_atomic,
    write_run_config,
)
from spdcl.synth import make_zipfian_dataset
from spdcl.trainer import TrainHyper, encode_datasets, run_baseline, run_spdcl


# ------------------------------------------------------------ norm statistics


def _bits(value: float) -> str:
    return float(value).hex()


@pytest.mark.parametrize("n", [*range(1, 61), 1999, 2000, 2001])
def test_norm_stats_match_numpy_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for scale in (1e-6, 1.0, 3e5, 10.0 ** rng.uniform(-9, 9)):
        for xs in (rng.random(n) * scale, np.round(rng.random(n) * 4) * scale, rng.standard_normal(n) * scale):
            stats = _norm_stats(xs)
            q1, median, q3 = np.percentile(xs, [25.0, 50.0, 75.0], method="linear")
            want = {"mean": xs.mean(), "min": xs.min(), "q1": q1, "median": median, "q3": q3, "max": xs.max()}
            assert stats["count"] == n and type(stats["count"]) is int
            assert {key: _bits(stats[key]) for key in want} == {key: _bits(v) for key, v in want.items()}
            assert all(type(stats[key]) is float for key in want)


# ------------------------------------------------------------- epoch reports


def _datasets(task_kind):
    train, valid = make_zipfian_dataset(60, 15, n_classes=3, seed=4)
    if task_kind == "multilabel":
        train = [TextSample(s.sample_id, s.text, s.labels + (("extra",) if i % 3 == 0 else ())) for i, s in enumerate(train)]
        valid = [TextSample(s.sample_id, s.text, s.labels + (("extra",) if i % 4 == 0 else ())) for i, s in enumerate(valid)]
    return encode_datasets(train, valid, task_kind, max_len=24)


def recomputed_stats(run_dir, epoch) -> dict:
    table = read_scores(run_dir / f"epoch{epoch:03d}.scores.jsonl")
    return _norm_stats(table.norm[table.order])


@pytest.mark.parametrize("runner", [run_spdcl, run_baseline])
@pytest.mark.parametrize("task_kind", ["multiclass", "multilabel"])
def test_epoch_reports_hold_the_score_files_norm_stats(tmp_path, runner, task_kind):
    train, valid = _datasets(task_kind)
    config = RunConfig(bins_k=3, epochs_T=4, seed=2)
    runner(train, valid, config, TrainHyper(lr=0.3, batch_size=8, hidden=4), out_dir=tmp_path)
    assert len(list(tmp_path.glob("*.report.json"))) == config.epochs_T
    for epoch in range(1, config.epochs_T + 1):
        payload = json.loads((tmp_path / f"epoch{epoch:03d}.report.json").read_text())
        assert payload["norm_stats"] == recomputed_stats(tmp_path, epoch)
        assert payload["norm_stats"]["count"] == len(train.sample_ids)


# ------------------------------------------------------------------ report


@pytest.fixture
def trained_runs(tmp_path):
    train, valid = make_zipfian_dataset(40, 12, n_classes=3, seed=1)
    write_dataset(tmp_path / "train.jsonl", train)
    write_dataset(tmp_path / "valid.jsonl", valid)
    write_run_config(
        tmp_path / "config.json",
        RunConfig(bins_k=3, epochs_T=4, seed=2, lr=0.3, batch=8, hidden_d=4, max_len=32),
    )
    common = ["train", "--dataset", str(tmp_path / "train.jsonl"), "--valid", str(tmp_path / "valid.jsonl"),
              "--config", str(tmp_path / "config.json")]
    assert main([*common, "--out-dir", str(tmp_path / "run")]) == 0
    assert main([*common, "--out-dir", str(tmp_path / "base"), "--baseline"]) == 0
    return tmp_path / "run", tmp_path / "base"


def recomputed_run(run_dir) -> dict:
    config = spdcl_io.load_run_config(run_dir / "run_config.json")
    epochs = []
    for epoch in range(1, config.epochs_T + 1):
        payload = json.loads((run_dir / f"epoch{epoch:03d}.report.json").read_text())
        payload["norm_stats"] = recomputed_stats(run_dir, epoch)
        epochs.append(payload)
    return {"config": json.loads((run_dir / "run_config.json").read_text()), "epochs": epochs}


def recomputed_report(run_dir, baseline_dir) -> dict:
    report = recomputed_run(run_dir)
    report["norm_trajectory"] = [e["norm_stats"]["mean"] for e in report["epochs"]]
    base = recomputed_run(baseline_dir)
    report["baseline"] = base
    last, base_last = report["epochs"][-1], base["epochs"][-1]
    report["delta_vs_baseline"] = {
        key: last[key] - base_last[key]
        for key in ("mean_loss", "micro_f1", "macro_f1", "hamming_loss", "subset_accuracy", "matthews_corr", "binary_f1")
        if isinstance(last.get(key), (int, float)) and isinstance(base_last.get(key), (int, float))
    }
    return report


def test_report_reads_no_score_file(trained_runs, tmp_path, monkeypatch):
    run_dir, base_dir = trained_runs
    want = recomputed_report(run_dir, base_dir)
    write_json_atomic(tmp_path / "want.json", want)

    def no_score_file(path):
        raise AssertionError(f"report parsed {path}")

    monkeypatch.setattr(spdcl_io, "read_scores", no_score_file)
    assert main(["report", "--run-dir", str(run_dir), "--baseline-dir", str(base_dir),
                 "--out", str(tmp_path / "got.json"), "--csv", str(tmp_path / "got.csv")]) == 0
    assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()
    assert (tmp_path / "got.csv").read_text() == "\n".join(report_csv_rows(want)) + "\n"


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda p: p.pop("norm_stats"),
        lambda p: p.update(norm_stats=None),
        lambda p: p.update(norm_stats=[1, 2.0]),
        lambda p: p["norm_stats"].pop("q3"),
        lambda p: p["norm_stats"].update(extra=1.0),
        lambda p: p["norm_stats"].update(count=4.0),
        lambda p: p["norm_stats"].update(mean="1.5"),
        lambda p: p["norm_stats"].update(median=True),
        # The CSV converts every metric and quartile with float(): a list,
        # a string, a bool or an int past float's range is the report's fault.
        lambda p: p["norm_stats"].update(q1=-(10**400)),
        lambda p: p["norm_stats"].update(count=10**400),
        lambda p: p.update(micro_f1=[0.5]),
        lambda p: p.update(macro_f1={"f1": 0.5}),
        lambda p: p.update(hamming_loss="0.5"),
        lambda p: p.update(mean_loss=True),
        lambda p: p.update(subset_accuracy=10**400),
        # The CSV's first column is the report's epoch.
        lambda p: p.pop("epoch"),
        lambda p: p.update(epoch="2"),
    ],
)
def test_report_rejects_epoch_report_without_norm_stats(trained_runs, tmp_path, capsys, corrupt):
    run_dir, _ = trained_runs
    path = run_dir / "epoch002.report.json"
    payload = json.loads(path.read_text())
    corrupt(payload)
    write_json_atomic(path, payload)
    capsys.readouterr()
    assert main(["report", "--run-dir", str(run_dir), "--out", str(tmp_path / "r.json"),
                 "--csv", str(tmp_path / "r.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:missing-artifact:") and err.count("\n") == 1
    assert str(path) in err and "norm_stats" in err
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "r.csv").exists()


def test_report_names_an_epoch_report_that_is_not_json(trained_runs, tmp_path, capsys):
    run_dir, _ = trained_runs
    path = run_dir / "epoch004.report.json"
    path.write_text('{"epoch": 4,')
    assert main(["report", "--run-dir", str(run_dir), "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error:missing-artifact: {path}: not valid JSON:")


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int-string digit limit")
def test_report_names_an_epoch_report_with_an_integer_past_the_digit_limit(trained_runs, tmp_path, capsys):
    run_dir, _ = trained_runs
    path = run_dir / "epoch004.report.json"
    path.write_text('{"epoch": 1' + "0" * sys.get_int_max_str_digits() + "}")
    assert main(["report", "--run-dir", str(run_dir), "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error:missing-artifact: {path}: not valid JSON:")


def test_report_names_an_epoch_report_with_a_lone_surrogate_escape(trained_runs, tmp_path, capsys):
    run_dir, _ = trained_runs
    path = run_dir / "epoch002.report.json"
    payload = json.loads(path.read_text())
    payload["note"] = "\ud800"
    path.write_text(json.dumps(payload))
    assert main(["report", "--run-dir", str(run_dir), "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error:missing-artifact: {path}: holds a string with a lone surrogate escape")


def test_report_still_needs_every_score_file(trained_runs, tmp_path, capsys):
    run_dir, _ = trained_runs
    (run_dir / "epoch003.scores.jsonl").unlink()
    assert main(["report", "--run-dir", str(run_dir), "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:missing-artifact:") and "epoch003.scores.jsonl" in err


def test_report_stops_at_the_first_epoch_a_claimed_epoch_count_lacks(tmp_path, capsys):
    # A run config claiming 100,000 epochs over a 2-epoch run: the report
    # walks no further than epoch 3, and its one error line names that epoch.
    train, valid = make_zipfian_dataset(20, 6, n_classes=2, seed=1)
    write_dataset(tmp_path / "train.jsonl", train)
    write_dataset(tmp_path / "valid.jsonl", valid)
    config = RunConfig(bins_k=2, epochs_T=2, batch=8, hidden_d=4, max_len=16)
    write_run_config(tmp_path / "config.json", config)
    run_dir = tmp_path / "run"
    assert main(["train", "--dataset", str(tmp_path / "train.jsonl"), "--valid", str(tmp_path / "valid.jsonl"),
                 "--config", str(tmp_path / "config.json"), "--out-dir", str(run_dir)]) == 0
    write_run_config(run_dir / "run_config.json", replace(config, epochs_T=100_000))
    capsys.readouterr()
    assert main(["report", "--run-dir", str(run_dir), "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err.encode()) < 1024, len(err)
    assert err.startswith(f"error:missing-artifact: incomplete run in {run_dir}: epoch 3 of 100000 lacks ")
    assert str(run_dir / "epoch003.manifest.jsonl") in err


def test_run_and_report_leave_numpy_ma_unimported(tmp_path):
    # np.percentile imports numpy.ma, about 1-2 MB of resident memory.
    script = textwrap.dedent(
        """
        import sys
        from spdcl.io import RunConfig, build_report, write_run_config
        from spdcl.synth import make_zipfian_dataset
        from spdcl.trainer import TrainHyper, encode_datasets, run_spdcl

        out = sys.argv[1]
        train, valid = encode_datasets(*make_zipfian_dataset(40, 12, n_classes=3, seed=1), "multiclass")
        config = RunConfig(bins_k=2, epochs_T=3)
        write_run_config(out + "/run_config.json", config)
        run_spdcl(train, valid, config, TrainHyper(hidden=4), out_dir=out)
        assert len(build_report(out)["epochs"]) == 3
        print("numpy.ma" in sys.modules)
        """
    )
    result = subprocess.run([sys.executable, "-c", script, str(tmp_path)], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"
