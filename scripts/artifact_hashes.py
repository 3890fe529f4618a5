#!/usr/bin/env python3
"""Train a fixed set of runs, check each one, and print the sha256 of every artifact.

Run as ``PYTHONPATH=src python scripts/artifact_hashes.py > hashes.txt``.  Prints one ``sha256  path``
line per file, sorted by path; exits 1 naming each file that failed a check on stderr.
"""

import hashlib
import json
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from spdcl import cli, difficulty, io
from spdcl.nucnorm import DumpLayout
from spdcl.synth import make_zipfian_dataset

# The demo's shape, and a long-text set whose samples repeat tokens (20-250 tokens, d=64).
DEMO = io.RunConfig(bins_k=2, epochs_T=3, seed=2, lr=0.5, batch=25, hidden_d=16, max_len=64)
DATA = {"demo": dict(n_train=200, n_valid=50, seed=2),
        "longtext": dict(n_train=40, n_valid=10, n_classes=3, seed=2, min_len=20, max_len=250)}
RUNS = {  # name: (data, config, --baseline)
    "curriculum": ("demo", DEMO, False),
    "baseline": ("demo", DEMO, True),
    "multilabel": ("demo", replace(DEMO, task_kind="multilabel"), False),
    "identity-signed": ("demo", replace(DEMO, alignment_mode="identity", delta_ordering="signed",
                                        shuffle_within_epoch=False), False),
    "longtext": ("longtext", replace(DEMO, hidden_d=64, max_len=250), False),
}
SEPARATE = ("curriculum", "identity-signed")  # checked once more with a new process per call
CHILD = [sys.executable, *(f"-W{option}" for option in sys.warnoptions)]  # this process's -W options
REWRITE = "import sys; from spdcl import io; io.write_embedding_dump(sys.argv[2], io.read_embedding_dump(sys.argv[1]))"


def spdcl_call(argv, separate=False) -> int:
    return subprocess.run([*CHILD, "-m", "spdcl", *map(str, argv)]).returncode if separate else cli.main([*map(str, argv)])


def stats_differ(stats, scores: Path) -> bool:
    """Whether ``stats`` are not ``io._norm_stats`` of the score file's norms in rank order."""
    table = io.read_scores(scores)
    return json.dumps(stats, sort_keys=True) != json.dumps(io._norm_stats(table.norm[table.order]), sort_keys=True)


def table_bits(table) -> tuple:
    return (type(table.epoch), table.epoch, table.ids, *(c.tobytes() for c in (table.norm, table.score, table.order)))


def reads_differ_warm_and_cold(scores: Path) -> bool:
    """Whether the score file reads to another table with the CLI's hand-off than when parsed."""
    warm = table_bits(io.read_scores(scores, written=cli._handoff.get("written")))
    return warm != table_bits(io.read_scores(scores))


def differ(paths, out_dir: Path, how: str) -> list[str]:
    return [f"{p}: differs {how}" for p in paths
            if not (copy := out_dir / p.name).is_file() or p.read_bytes() != copy.read_bytes()]


def check_run(run: Path, work: Path, separate=False) -> list[str]:
    """The files of ``run`` that re-deriving them into ``work`` does not reproduce, each with how.

    Per epoch, ``spdcl score`` on the dump (chained on the re-derived scores of the epoch before) and
    ``spdcl schedule`` (with the bins and shuffle the run's ``run_config.json`` records, a baseline's
    too) must write the run's score and manifest files, each re-derived score file must read to the
    same table from the CLI's hand-off (the last file ``score`` wrote) as when parsed, and the epoch
    report's ``norm_stats`` must be the score file's.  Each dump, read and written again after a fresh header walk, and in one
    process on a fresh copy of the first dump's layout (every read checked against the headers the
    writer packs for it, none walked), must give its own bytes; read on that shared layout, its
    values must be those a read without the layout gives; scored on it, where every dump after
    the first is scored on the classes of equal rows the first one's scoring kept while they
    hold, it must give its score file's norms bit for bit.
    """
    config = io.load_run_config(run / "run_config.json")
    bad, prev, dumps = [], [], []
    for epoch in range(1, config.epochs_T + 1):
        paths = io.epoch_paths(run, epoch)
        dump, scores, manifest, report = (paths[kind] for kind in ("embeddings", "scores", "manifest", "report"))
        dumps.append(dump)
        out = work / scores.name
        if any(spdcl_call(argv, separate) for argv in (
            ["score", "--embeddings", dump, *prev, "--epoch", epoch, "--out", out,
             "--alignment", config.alignment_mode, "--ordering", config.delta_ordering],
            ["schedule", "--scores", out, "--bins", config.bins_k, "--epoch", epoch, "--seed", config.seed,
             "--out", work / manifest.name, *["--no-shuffle"] * (not config.shuffle_within_epoch)],
        )):
            return bad + [f"{dump}: spdcl score or schedule failed on it"]
        prev = ["--prev-scores", out]
        bad += differ([scores, manifest], work, f"from what spdcl score and schedule derive from {dump.name}")
        if reads_differ_warm_and_cold(out):
            bad.append(f"{out}: reads to another table from the hand-off than when parsed")
        try:
            if stats_differ(json.loads(report.read_text())["norm_stats"], scores):
                bad.append(f"{report}: norm_stats differ from those of {scores.name}")
        except (ValueError, KeyError) as exc:  # FormatError and JSONDecodeError are ValueErrors
            bad.append(f"{report}: norm_stats not checked: {exc!r}")
        if separate:  # a new process walks the dump's headers
            subprocess.run([*CHILD, "-c", REWRITE, dump, work / dump.name])
        else:  # a read without a layout to share walks the headers
            io.write_embedding_dump(work / dump.name, io.read_embedding_dump(dump))
        bad += differ([dump], work, "when written back after a fresh header walk")
    if not separate:  # every dump, the first too, read against the headers the writer packs
        first = io.read_embedding_dump(dumps[0])
        like = DumpLayout(first.ids, first.offsets), first.values.shape[1]
        reads = [io.read_embedding_dump(dump, like=like) for dump in dumps]
        for epoch, (dump, read) in enumerate(zip(dumps, reads), start=1):
            if read.values.tobytes() != io.read_embedding_dump(dump).values.tobytes():
                bad.append(f"{dump}: read on the first dump's layout, holds other values than a read without it")
            io.write_embedding_dump(work / "kept" / dump.name, read)
            ids, norm = difficulty.dump_norms(read)
            table = io.read_scores(io.epoch_paths(run, epoch)["scores"])
            if ids != table.ids or norm.tobytes() != table.norm.tobytes():
                bad.append(f"{dump}: scored on the first dump's layout, gives other norms than its score file")
        if any(read.layout is not like[0] for read in reads):
            bad.append(f"{run}: its dumps were walked, though their headers are those of the first dump's layout")
        bad += differ(dumps, work / "kept", "when read in one process on the first dump's layout and written back")
    return bad


def main() -> int:
    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        root, work = Path(tmp, "artifacts"), Path(tmp, "rederived")
        for name, kwargs in DATA.items():
            for split, samples in zip(("train", "valid"), make_zipfian_dataset(**kwargs)):
                io.write_dataset(root / "data" / name / f"{split}.jsonl", samples)
        for name, (data, config, baseline) in RUNS.items():
            io.write_run_config(work / f"{name}.json", config)  # a --baseline run records config.baseline()
            if spdcl_call(["train", "--dataset", root / "data" / data / "train.jsonl", "--valid",
                           root / "data" / data / "valid.jsonl", "--config", work / f"{name}.json",
                           "--out-dir", root / name, *["--baseline"] * baseline]):
                sys.exit(f"spdcl train failed for the {name} run")
            bad += check_run(root / name, work / name)
            if name in SEPARATE:
                bad += check_run(root / name, work / f"{name}-separate", separate=True)
        if spdcl_call(["report", "--run-dir", root / "curriculum", "--baseline-dir", root / "baseline",
                       "--out", root / "report.json", "--csv", root / "report.csv"], separate=True):
            sys.exit("spdcl report failed")
        document = json.loads((root / "report.json").read_text())
        for name, epochs in (("curriculum", document["epochs"]), ("baseline", document["baseline"]["epochs"])):
            bad += [f"report.json: norm_stats of {name} epoch {e['epoch']} differ from its score file's" for e in epochs
                    if stats_differ(e["norm_stats"], io.epoch_paths(root / name, e["epoch"])["scores"])]
        for rel in sorted(path.relative_to(root).as_posix() for path in root.rglob("*") if path.is_file()):
            print(f"{hashlib.sha256((root / rel).read_bytes()).hexdigest()}  {rel}")
        for line in bad:
            print(line.replace(f"{tmp}/", ""), file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
