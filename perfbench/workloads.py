"""The benchmark's workloads: fixed input sizes, seeded generators, one pass each.

Every input is generated from the run's ``--seed`` into a work directory as
plain files (dataset JSONL plus a run config); the program under test only
ever sees those files.  A *pass* is one closed-loop unit of work driven
through the program's public entry points:

* ``zipf-curriculum``: ``spdcl.trainer.run_spdcl`` on the Zipfian synthetic
  set, persisting every epoch's artifacts to a run directory.
* ``bigvocab-baseline``: ``spdcl.trainer.run_baseline`` on a long-tail set
  with a ~12k-token vocabulary.
* ``rescore-cli``: ``spdcl score`` + ``spdcl schedule`` for every epoch of a
  ``zipf-curriculum`` run directory, then ``spdcl report``, all through
  ``spdcl.cli.main`` in-process.

One operation is one epoch of a pass; an epoch fails when the program raises
or when one of its artifacts is missing or differs from the reference.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Calls go through the module attributes (trainer.run_spdcl, not a name
# imported from it) so that the traced run's wrappers see them.
from spdcl import cli, io as spdcl_io, trainer
from spdcl.synth import make_zipfian_dataset

# Second seed for confirming a claim on inputs a change was not tuned on.
CONFIRM_SEED = 7919

_BIGVOCAB_FILLER = ("the", "of", "and", "to", "in", "it", "is", "on", "for", "as")

EPOCH_ARTIFACTS = ("embeddings.bin", "scores.jsonl", "manifest.jsonl", "report.json")


@dataclass(frozen=True)
class Sizes:
    n_train: int
    n_valid: int
    n_classes: int
    epochs_T: int
    bins_k: int
    hidden_d: int = 16
    lr: float = 0.5
    batch: int = 25
    max_len: int = 64


# Fixed input sizes per workload; "tiny" is the smoke test's size.
SIZES = {
    "zipf-curriculum": {
        "full": Sizes(n_train=2000, n_valid=400, n_classes=10, epochs_T=12, bins_k=5),
        "tiny": Sizes(n_train=120, n_valid=40, n_classes=4, epochs_T=3, bins_k=2),
    },
    "bigvocab-baseline": {
        "full": Sizes(n_train=2500, n_valid=500, n_classes=10, epochs_T=5, bins_k=5, lr=1.5),
        "tiny": Sizes(n_train=150, n_valid=40, n_classes=4, epochs_T=2, bins_k=2, lr=1.5),
    },
}
SIZES["rescore-cli"] = SIZES["zipf-curriculum"]

# Long-tail vocabulary: each class draws its tokens from its own pool with
# Zipf(BIGVOCAB_ALPHA) rank weights, which gives V ~ 10k at 2500 samples while
# frequent tokens still carry enough signal for the model to learn (macro-F1
# ~0.2 after epoch 1, ~0.75 after epoch 5, within ~7% across seeds).
BIGVOCAB_POOL = {"full": 40000, "tiny": 400}
BIGVOCAB_ALPHA = 1.0
BIGVOCAB_NOISE = 0.3


def make_bigvocab_dataset(n_train, n_valid, n_classes, seed, pool, alpha=BIGVOCAB_ALPHA):
    """Zipf-weighted classes, Zipf-weighted tokens from a large per-class pool."""
    rng = np.random.default_rng(seed)
    class_p = 1.0 / np.arange(1, n_classes + 1)
    class_p /= class_p.sum()
    token_p = 1.0 / np.arange(1, pool + 1) ** alpha
    token_p /= token_p.sum()

    def split(prefix, count):
        samples = []
        for i, label in enumerate(rng.choice(n_classes, size=count, p=class_p)):
            length = int(rng.integers(3, 21))
            ranks = rng.choice(pool, size=length, p=token_p)
            filler = rng.random(length) < BIGVOCAB_NOISE
            filler_word = rng.integers(len(_BIGVOCAB_FILLER), size=length)
            text = " ".join(
                _BIGVOCAB_FILLER[f] if is_filler else f"v{label}_{r}"
                for r, is_filler, f in zip(ranks, filler, filler_word)
            )
            samples.append(spdcl_io.TextSample(f"{prefix}-{i:05d}", text, (f"c{label}",)))
        return samples

    return split("train", n_train), split("valid", n_valid)


def generate_inputs(workload: str, size: str, seed: int, work: Path) -> None:
    """Write train.jsonl, valid.jsonl and config.json for one run into ``work``."""
    sz = SIZES[workload][size]
    if workload == "bigvocab-baseline":
        train, valid = make_bigvocab_dataset(
            sz.n_train, sz.n_valid, sz.n_classes, seed, BIGVOCAB_POOL[size]
        )
    else:
        train, valid = make_zipfian_dataset(sz.n_train, sz.n_valid, sz.n_classes, seed=seed)
    work.mkdir(parents=True, exist_ok=True)
    spdcl_io.write_dataset(work / "train.jsonl", train)
    spdcl_io.write_dataset(work / "valid.jsonl", valid)
    spdcl_io.write_run_config(
        work / "config.json",
        spdcl_io.RunConfig(
            bins_k=sz.bins_k,
            epochs_T=sz.epochs_T,
            seed=seed,
            lr=sz.lr,
            batch=sz.batch,
            hidden_d=sz.hidden_d,
            max_len=sz.max_len,
        ),
    )


def _no_span(name):
    return nullcontext()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def epoch_stem(epoch: int) -> str:
    return f"epoch{epoch:03d}"


@dataclass
class PassResult:
    seconds: float
    epoch_ok: list[bool]
    final_macro_f1: float | None
    digests: dict[str, str]


class TrainingWorkload:
    """``zipf-curriculum`` and ``bigvocab-baseline``: one training run per pass.

    Set-up reads the generated dataset files and encodes them, as a user of
    the library would before calling ``run_spdcl`` / ``run_baseline``.  It is
    cheap, so a run repeats it once before the first pass and once after each
    pass: its median then spans the same stretch of host load as the passes.
    """

    setup_upfront = 1
    setup_between_passes = True

    def __init__(self, name: str, work: Path):
        self.name = name
        self.work = work
        self.config = spdcl_io.load_run_config(work / "config.json")
        self.hyper = trainer.TrainHyper(
            lr=self.config.lr,
            batch_size=self.config.batch,
            hidden=self.config.hidden_d,
            max_len=self.config.max_len,
            seed=self.config.seed,
        )
        self.runner = "run_baseline" if name == "bigvocab-baseline" else "run_spdcl"
        self.train = self.valid = None

    @property
    def samples_per_pass(self) -> int:
        return len(self.train.sample_ids) * self.config.epochs_T

    @property
    def vocab_size(self) -> int:
        return self.train.vocab.size

    def setups_identical(self) -> bool:
        """Set-up persists nothing here; reruns are compared pass by pass."""
        return True

    def setup_once(self) -> float:
        started = time.perf_counter()
        train = spdcl_io.read_dataset(self.work / "train.jsonl")
        valid = spdcl_io.read_dataset(self.work / "valid.jsonl")
        self.train, self.valid = trainer.encode_datasets(
            train, valid, self.config.task_kind, max_len=self.config.max_len
        )
        return time.perf_counter() - started

    def run_pass(self, out: Path, span=_no_span) -> PassResult:
        T = self.config.epochs_T
        started = time.perf_counter()
        try:
            with span("bench.pass"):
                result = getattr(trainer, self.runner)(
                    self.train, self.valid, self.config.curriculum(), self.hyper, out_dir=out
                )
        except Exception as exc:  # a raising pass fails all of its epochs
            print(f"pass failed: {type(exc).__name__}: {exc}", flush=True)
            return PassResult(time.perf_counter() - started, [False] * T, None, {})
        seconds = time.perf_counter() - started
        digests = {}
        ok = []
        for epoch in range(1, T + 1):
            paths = [out / f"{epoch_stem(epoch)}.{suffix}" for suffix in EPOCH_ARTIFACTS]
            present = all(p.is_file() for p in paths)
            ok.append(present)
            for p in paths:
                if p.is_file():
                    digests[p.name] = file_digest(p)
        f1 = result.reports[-1].macro_f1 if len(result.reports) == T else None
        if f1 is None or not 0.0 <= f1 <= 1.0:
            ok[-1] = False
        return PassResult(seconds, ok, f1, digests)


class RescoreWorkload:
    """``rescore-cli``: re-derive every epoch's scores and manifest from a run dir.

    Set-up produces the source run directory with ``spdcl train`` (read,
    encode, train, persist), so a trainer change also shows in ``setup_s``.
    It takes seconds, so a run repeats it three times before the passes.
    """

    setup_upfront = 3
    setup_between_passes = False

    def __init__(self, work: Path):
        self.work = work
        self.config = spdcl_io.load_run_config(work / "config.json")
        self.source = None
        self.n_train = None
        self.source_digests = []

    @property
    def samples_per_pass(self) -> int:
        return self.n_train * self.config.epochs_T

    @property
    def vocab_size(self) -> int:
        meta = json.loads((self.source / "model_meta.json").read_text())
        return len(meta["vocab_tokens"]) + 2

    def setup_once(self) -> float:
        target = self.work / f"source{len(self.source_digests)}"
        argv = [
            "train",
            "--dataset", str(self.work / "train.jsonl"),
            "--valid", str(self.work / "valid.jsonl"),
            "--config", str(self.work / "config.json"),
            "--out-dir", str(target),
        ]
        started = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - started
        if code != 0:
            raise RuntimeError(f"spdcl train exited {code} while building the source run")
        if self.source is not None:
            shutil.rmtree(self.source)
        self.source = target
        self.source_digests.append(
            {p.name: file_digest(p) for p in sorted(target.iterdir()) if p.is_file()}
        )
        self.n_train = sum(1 for line in open(self.work / "train.jsonl", encoding="utf-8") if line.strip())
        return seconds

    def setups_identical(self) -> bool:
        return all(d == self.source_digests[0] for d in self.source_digests)

    def run_epoch(self, out: Path, epoch: int) -> bool:
        """``spdcl score`` then ``spdcl schedule`` for one epoch; both must exit 0."""
        stem = epoch_stem(epoch)
        score = [
            "score",
            "--embeddings", str(self.source / f"{stem}.embeddings.bin"),
            "--epoch", str(epoch),
            "--out", str(out / f"{stem}.scores.jsonl"),
        ]
        if epoch > 1:
            score += ["--prev-scores", str(out / f"{epoch_stem(epoch - 1)}.scores.jsonl")]
        schedule = [
            "schedule",
            "--scores", str(out / f"{stem}.scores.jsonl"),
            "--bins", str(self.config.bins_k),
            "--epoch", str(epoch),
            "--seed", str(self.config.seed),
            "--out", str(out / f"{stem}.manifest.jsonl"),
        ]
        return cli.main(score) == 0 and cli.main(schedule) == 0

    def run_report(self, out: Path) -> bool:
        return cli.main(["report", "--run-dir", str(self.source), "--out", str(out / "report.json")]) == 0

    def run_pass(self, out: Path, span=_no_span) -> PassResult:
        T = self.config.epochs_T
        out.mkdir(parents=True, exist_ok=True)
        ran = []
        started = time.perf_counter()
        try:
            with span("bench.pass"):
                for epoch in range(1, T + 1):
                    with span("bench.epoch"):
                        ran.append(self.run_epoch(out, epoch))
                ran.append(self.run_report(out))
        except Exception as exc:  # a raising pass fails the epochs it did not finish
            print(f"pass failed: {type(exc).__name__}: {exc}", flush=True)
        seconds = time.perf_counter() - started
        ran += [False] * (T + 1 - len(ran))
        report_ok = ran.pop()
        return self._check(out, seconds, ran, report_ok)

    def _check(self, out: Path, seconds: float, ran: list[bool], report_ok: bool) -> PassResult:
        """Derived score and manifest files must equal the run's own, byte for byte."""
        T = self.config.epochs_T
        ok = []
        digests = {}
        for epoch in range(1, T + 1):
            good = ran[epoch - 1]
            for suffix in ("scores.jsonl", "manifest.jsonl"):
                name = f"{epoch_stem(epoch)}.{suffix}"
                derived = out / name
                if not derived.is_file():
                    good = False
                    continue
                digests[name] = file_digest(derived)
                good = good and derived.read_bytes() == (self.source / name).read_bytes()
            ok.append(good)
        f1 = None
        report = out / "report.json"
        if report_ok and report.is_file():
            digests["report.json"] = file_digest(report)
            epochs = json.loads(report.read_text())["epochs"]
            own = json.loads((self.source / f"{epoch_stem(T)}.report.json").read_text())
            if len(epochs) == T and epochs[-1]["macro_f1"] == own["macro_f1"]:
                f1 = epochs[-1]["macro_f1"]
        if f1 is None:
            ok[-1] = False
        return PassResult(seconds, ok, f1, digests)


def make_workload(name: str, work: Path):
    if name == "rescore-cli":
        return RescoreWorkload(work)
    return TrainingWorkload(name, work)
