"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
pins its tolerance inline.  Run with::

    pytest tests/test_acceptance.py -v -s
"""

import json
import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from spdcl.difficulty import dump_norms, initial_scores
from spdcl.io import RunConfig, build_report, read_manifest, write_manifest, write_run_config
from spdcl.metrics import evaluate, label_frequency_groups
from spdcl.nucnorm import _spectrum, nuclear_norm
from spdcl.scheduler import build_epoch_plan
from spdcl.synth import make_zipfian_dataset
from spdcl.trainer import (
    TrainHyper,
    encode_datasets,
    init_params,
    loss_and_grad,
    predict,
    run_baseline,
    run_spdcl,
)

from dumps import pack_dump
from tables import ranked_ids, score_table
from jacobi_oracle import stacked_singular_values
from reference_plans import baseline_plan, partition_bins, visible_set
from test_trainer import fd_gradient  # central-difference oracle
from test_metrics import (
    oracle_counts,
    oracle_f1,
    oracle_hamming,
    oracle_macro,
    oracle_matthews,
    oracle_micro,
    oracle_subset,
)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{name}]: FAIL")
        raise
    print(f"ACCEPTANCE {number} [{name}]: PASS")


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


# ---------------------------------------------------------------------- 1


def test_criterion_1_oracle_equivalence():
    with criterion(1, "nuclear-norm oracle equivalence"):
        rng = np.random.default_rng(1001)
        started = time.perf_counter()
        mats = [
            rng.uniform(-1.0, 1.0, size=(int(rng.integers(1, 65)), int(rng.integers(1, 33))))
            for _ in range(1000)
        ]
        # The oracle orthogonalizes all 1,000 matrices as one stack, once.
        for mat, spectrum in zip(mats, stacked_singular_values(mats)):
            assert rel_err(nuclear_norm(mat), float(spectrum.sum())) <= 1e-8
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"


# ---------------------------------------------------------------------- 2


def test_criterion_2_norm_invariant_suite():
    with criterion(2, "norm invariant suite"):
        rng = np.random.default_rng(1002)
        for _ in range(200):
            m = int(rng.integers(1, 30))
            n = int(rng.integers(1, 30))
            mat = rng.uniform(-1.0, 1.0, size=(m, n))
            base = nuclear_norm(mat)

            c = float(rng.uniform(-50.0, 50.0))
            assert rel_err(nuclear_norm(c * mat), abs(c) * base) <= 1e-10

            permuted = mat[rng.permutation(m)][:, rng.permutation(n)]
            assert rel_err(nuclear_norm(permuted), base) <= 1e-10

            grown = np.vstack([mat, rng.uniform(-1.0, 1.0, size=(1, n))])
            assert nuclear_norm(grown) >= base - 1e-9

            other = rng.uniform(-1.0, 1.0, size=(m, n))
            both = nuclear_norm(mat) + nuclear_norm(other)
            assert nuclear_norm(mat + other) <= both + 1e-9 * max(1.0, both)

            spectrum = _spectrum(mat)
            frob = float(np.linalg.norm(mat))
            slack = 1e-9 * max(1.0, base)
            assert spectrum[0] <= frob + slack
            assert frob <= base + slack
            assert base <= math.sqrt(min(m, n)) * frob + slack


# ---------------------------------------------------------------------- 3


def test_criterion_3_length_orders_initial_ranks():
    with criterion(3, "text-length vs norm ordering"):
        hits = 0
        for trial in range(50):
            rng = np.random.default_rng(3000 + trial)
            dump = pack_dump([
                ("len04", rng.normal(size=(4, 8))),
                ("len08", rng.normal(size=(8, 8))),
                ("len16", rng.normal(size=(16, 8))),
            ])
            order = ranked_ids(initial_scores(*dump_norms(dump)))
            hits += order == ["len04", "len08", "len16"]
        assert hits >= 48, f"length ordering held in only {hits}/50 trials"


# ---------------------------------------------------------------------- 4


def test_criterion_4_schedule_invariants(tmp_path):
    with criterion(4, "schedule invariants"):
        rng = np.random.default_rng(1004)
        combos = [(10, 1, 5), (10, 10, 12), (1000, 50, 100), (53, 7, 3)]
        combos += [
            (
                int(rng.integers(2, 1001)),
                0,  # filled below
                int(rng.integers(1, 101)),
            )
            for _ in range(10)
        ]
        combos = [
            (n, k if k else int(rng.integers(1, min(50, n) + 1)), t) for n, k, t in combos
        ]
        for n, k, t in combos:
            ids = [f"s{i:04d}" for i in range(n)]
            scores = rng.uniform(0, 100, size=n)
            order = sorted(range(n), key=lambda i: (scores[i], ids[i]))
            table = score_table((ids[i], float(scores[i]), float(scores[i])) for i in order)
            ranked_ids = [ids[i] for i in order]

            bins = partition_bins(ranked_ids, k)
            sizes = [len(b) for b in bins]
            assert max(sizes) - min(sizes) <= 1
            assert [sid for b in bins for sid in b] == ranked_ids  # contiguous

            config = RunConfig(bins_k=k, epochs_T=t, seed=11)
            prev: set[str] = set()
            full = set(ids)
            for epoch in range(1, t + 1):
                visible = set(visible_set(epoch, bins))
                assert prev <= visible
                if epoch >= k:
                    assert visible == full
                prev = visible

                plan = build_epoch_plan(table, config, epoch)
                assert len(plan.ordered_ids) == len(set(plan.ordered_ids))
                assert set(plan.ordered_ids) == visible
            assert plan.bin_of == {sid: b for b, part in enumerate(bins, start=1) for sid in part}

            # bit-identical manifests across reruns, spot-checked per combo
            for epoch in (1, min(t, k), t):
                plan_a = build_epoch_plan(table, config, epoch)
                plan_b = build_epoch_plan(table, config, epoch)
                file_a = tmp_path / "a.jsonl"
                file_b = tmp_path / "b.jsonl"
                write_manifest(file_a, plan_a)
                write_manifest(file_b, plan_b)
                assert file_a.read_bytes() == file_b.read_bytes()


# ---------------------------------------------------------------------- 5


def test_criterion_5_gradient_check():
    with criterion(5, "analytic vs finite-difference gradients"):
        rng = np.random.default_rng(1005)
        for config_idx in range(20):
            task_kind = "multiclass" if config_idx % 2 == 0 else "multilabel"
            v = int(rng.integers(4, 11))
            d = int(rng.integers(2, 7))
            n_labels = int(rng.integers(2, 6))
            params = init_params(v, d, n_labels, task_kind, seed=config_idx)
            ids = list(rng.integers(0, v, size=int(rng.integers(1, 8))))
            if task_kind == "multiclass":
                target = int(rng.integers(0, n_labels))
            else:
                target = rng.integers(0, 2, size=n_labels)
            _, grads = loss_and_grad(params, ids, target)
            analytic = np.concatenate(
                [grads.embedding_table.ravel(), grads.head_weights.ravel(), grads.head_bias]
            )
            numeric = fd_gradient(params, ids, target, step=1e-5)
            worst = float(np.max(np.abs(analytic - numeric)))
            assert worst <= 1e-6, f"config {config_idx}: worst abs gap {worst:.2e}"


# ---------------------------------------------------------------------- 6


def test_criterion_6_degenerate_curriculum_equivalence(tmp_path):
    with criterion(6, "k=1 curriculum equals no-curriculum baseline"):
        train_s, valid_s = make_zipfian_dataset(120, 30, n_classes=4, seed=6)
        train, valid = encode_datasets(train_s, valid_s, "multiclass", max_len=32)
        config = RunConfig(bins_k=1, epochs_T=8, seed=2)
        hyper = TrainHyper(lr=0.3, batch_size=25, hidden=8, seed=2)
        curriculum = run_spdcl(train, valid, config, hyper)
        # The baseline ignores bins_k and shuffle_within_epoch, and its plans
        # equal those of the reference builder, a code apart from the scheduler.
        baseline = run_baseline(
            train, valid, replace(config, bins_k=3, shuffle_within_epoch=False), hyper, out_dir=tmp_path
        )
        assert [read_manifest(tmp_path / f"epoch{epoch:03d}.manifest.jsonl") for epoch in range(1, 9)] == [
            baseline_plan(train.sample_ids, config.seed, epoch) for epoch in range(1, 9)
        ]
        assert [s.mean_loss for s in curriculum.stats] == [s.mean_loss for s in baseline.stats]
        assert curriculum.reports[-1] == baseline.reports[-1]
        assert np.array_equal(
            curriculum.params.embedding_table, baseline.params.embedding_table
        )
        assert np.array_equal(curriculum.params.head_weights, baseline.params.head_weights)


# ---------------------------------------------------------------------- 7


def test_criterion_7_metric_oracle_equivalence():
    with criterion(7, "metric oracles and group-weighted macro-F1"):
        rng = np.random.default_rng(1007)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            labels = int(rng.integers(1, 10))
            truth = rng.integers(0, 2, size=(n, labels))
            pred = rng.integers(0, 2, size=(n, labels))
            t_list, p_list = truth.tolist(), pred.tolist()
            tv = rng.integers(0, 2, size=n)
            pv = rng.integers(0, 2, size=n)
            n_groups = int(rng.integers(1, labels + 1))
            groups = label_frequency_groups(rng.integers(0, 2, size=(30, labels)), n_groups)
            report = evaluate(truth, pred, groups=groups)
            assert report.micro_f1 == oracle_micro(t_list, p_list)
            assert report.macro_f1 == oracle_macro(t_list, p_list)
            assert report.hamming_loss == oracle_hamming(t_list, p_list)
            assert report.subset_accuracy == oracle_subset(t_list, p_list)
            binary = evaluate(tv, pv, n_labels=2)
            assert binary.matthews_corr == oracle_matthews(tv.tolist(), pv.tolist())
            assert binary.binary_f1 == oracle_f1(
                *oracle_counts([[t] for t in tv.tolist()], [[p] for p in pv.tolist()], 0)
            )

            sizes = [int((groups == g).sum()) for g in range(n_groups)]
            weighted = sum(f * s for f, s in zip(report.per_group_macro_f1, sizes)) / labels
            assert abs(weighted - report.macro_f1) <= 1e-12


# ---------------------------------------------------------------------- 8


@pytest.fixture(scope="module")
def zipf_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("zipf") / "run"
    out_dir.mkdir()
    train_s, valid_s = make_zipfian_dataset(1000, 200, n_classes=10, seed=8)
    train, valid = encode_datasets(train_s, valid_s, "multiclass", max_len=32)
    run_config = RunConfig(bins_k=5, epochs_T=20, seed=2, lr=0.5, batch=25, hidden_d=16, max_len=32)
    write_run_config(out_dir / "run_config.json", run_config)
    hyper = TrainHyper(lr=0.5, batch_size=25, hidden=16, seed=2)
    started = time.perf_counter()
    result = run_spdcl(train, valid, run_config, hyper, out_dir=out_dir)
    elapsed = time.perf_counter() - started
    return out_dir, result, elapsed, run_config


def test_criterion_8_end_to_end_smoke(zipf_run):
    with criterion(8, "end-to-end smoke on imbalanced data"):
        out_dir, result, elapsed, config = zipf_run
        assert elapsed < 60.0, f"run took {elapsed:.1f}s"
        manifests = sorted(out_dir.glob("epoch*.manifest.jsonl"))
        reports = sorted(out_dir.glob("epoch*.report.json"))
        assert len(manifests) == config.epochs_T
        assert len(reports) == config.epochs_T
        assert len(result.reports) == config.epochs_T

        train_s, valid_s = make_zipfian_dataset(1000, 200, n_classes=10, seed=8, noise_rate=0.0)
        train, valid = encode_datasets(train_s, valid_s, "multiclass", max_len=32)
        sep = run_spdcl(
            train,
            valid,
            RunConfig(bins_k=5, epochs_T=20, seed=2),
            TrainHyper(lr=0.5, batch_size=25, hidden=16, seed=2),
        )
        train_acc = float((predict(sep.params, train) == train.targets).mean())
        assert train_acc >= 0.95, f"separable train accuracy {train_acc:.3f}"


# ---------------------------------------------------------------------- 9


def percentile_oracle(values, pct):
    # textbook linear interpolation on the sorted sample
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    h = (len(xs) - 1) * pct / 100.0
    lo = math.floor(h)
    hi = math.ceil(h)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


def test_criterion_9_norm_trajectory_report(zipf_run):
    with criterion(9, "per-epoch nuclear-norm trajectory in reports"):
        out_dir, _, _, config = zipf_run
        report = build_report(out_dir)
        assert len(report["norm_trajectory"]) == config.epochs_T
        for epoch_payload in report["epochs"]:
            stats = epoch_payload["norm_stats"]
            scores_path = out_dir / f"epoch{epoch_payload['epoch']:03d}.scores.jsonl"
            norms = [json.loads(line)["norm"] for line in scores_path.read_text().splitlines()]
            assert stats["count"] == len(norms)
            assert abs(stats["mean"] - sum(norms) / len(norms)) <= 1e-9 * max(
                1.0, abs(stats["mean"])
            )
            for key, pct in (("q1", 25.0), ("median", 50.0), ("q3", 75.0)):
                want = percentile_oracle(norms, pct)
                assert abs(stats[key] - want) <= 1e-12 * max(1.0, abs(want)) + 1e-12
            assert stats["min"] <= stats["q1"] <= stats["median"] <= stats["q3"] <= stats["max"]
