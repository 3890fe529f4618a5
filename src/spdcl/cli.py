"""Command-line surface: score, schedule, train, report.

Each subcommand is a step over the file formats in :mod:`spdcl.io`, run as
its own process from a shell or as one :func:`main` call among others in
one process.  The only state the calls share is what :mod:`spdcl.io` keeps:
the last dump layout walked, which carries its scoring plan and packed
headers, and the last score file written with its table, which a later
``schedule`` or ``--prev-scores`` read of the same bytes gets back without
parsing.  Neither changes an output.  Only ``train`` loads the trainer
(and with it :mod:`spdcl.metrics`): ``score``, ``schedule`` and ``report``
start without them.

Errors exit nonzero with a single machine-parsable line on stderr,
``error:<category>: <message>``.  The categories:

- ``bad-arguments``: a flag value out of range (``score --epoch``);
- ``malformed-dump``, ``malformed-scores``, ``malformed-dataset``: an input
  file that cannot be read or encoded (bad JSON or UTF-8, a lone surrogate
  escape, an integer past Python's int-string digit limit, a bad field);
- ``epoch-mismatch``: a score file from the wrong epoch, or ``--prev-scores``
  given or missing for the epoch, which, like ``bad-arguments``, is found
  before any file is read;
- ``sample-mismatch``: a dump and the previous scores cover different samples;
- ``invalid-config``: a run config or schedule setting is rejected;
- ``diverged``: training hit a non-finite loss or parameter; the message
  names the epoch and batch;
- ``missing-artifact``: ``report`` found an incomplete run directory, a
  run config or epoch report it cannot read, or an epoch report without
  its ``norm_stats`` or integer ``epoch``, or with a statistic or metric
  that is not a finite number;
- ``unwritable-output``: an output path cannot be written (a directory
  where a file goes, a file where a directory goes, no permission, a full
  disk); every input read maps its ``OSError`` to a category above, so an
  ``OSError`` left over comes from an output;
- ``invalid-input``: any other invalid value.

Set SPDCL_LOG=debug|info|warning to control verbosity; any other value
is warning.
"""

from __future__ import annotations

import argparse
import functools
import io
import logging
import os
import sys
from pathlib import Path

import numpy as np

from spdcl import io as spdcl_io
from spdcl.difficulty import ALIGNMENT_MODES, DELTA_ORDERINGS, epoch_scores
from spdcl.io import FormatError
from spdcl.scheduler import build_epoch_plan

log = logging.getLogger("spdcl")

_LOG_LEVELS = {"debug": logging.DEBUG, "info": logging.INFO, "warning": logging.WARNING}


class CliError(Exception):
    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category


# ------------------------------------------------------------------- score


def cmd_score(args) -> None:
    if args.epoch < 1:
        raise CliError("bad-arguments", "--epoch must be >= 1")
    if args.epoch == 1 and args.prev_scores is not None:
        raise CliError("epoch-mismatch", "--prev-scores is only valid for epoch >= 2")
    if args.epoch > 1 and args.prev_scores is None:
        raise CliError("epoch-mismatch", f"epoch {args.epoch} requires --prev-scores")
    try:
        dump = spdcl_io.read_embedding_dump(args.embeddings)
    except (FormatError, OSError) as exc:
        raise CliError("malformed-dump", str(exc))
    previous = None
    if args.epoch > 1:
        try:
            previous = spdcl_io.read_scores(args.prev_scores)
        except (FormatError, OSError) as exc:
            raise CliError("malformed-scores", str(exc))
        if previous.epoch != args.epoch - 1:
            raise CliError(
                "epoch-mismatch",
                f"--prev-scores holds epoch {previous.epoch}, expected {args.epoch - 1}",
            )
    try:
        table = epoch_scores(dump, previous, mode=args.alignment, ordering=args.ordering)
    except ValueError as exc:  # only a later epoch's ids can differ from --prev-scores'
        raise CliError("sample-mismatch", str(exc))
    spdcl_io.write_scores(args.out, table)
    log.info("scored %d samples for epoch %d -> %s", len(table.ids), args.epoch, args.out)


# ---------------------------------------------------------------- schedule


def cmd_schedule(args) -> None:
    try:
        table = spdcl_io.read_scores(args.scores)
    except (FormatError, OSError) as exc:
        raise CliError("malformed-scores", str(exc))
    if table.epoch != args.epoch:
        raise CliError(
            "epoch-mismatch",
            f"score file holds epoch {table.epoch}, expected {args.epoch}",
        )
    try:
        config = spdcl_io.RunConfig(bins_k=args.bins, seed=args.seed, shuffle_within_epoch=not args.no_shuffle)
        plan = build_epoch_plan(table, config, args.epoch)
    except ValueError as exc:
        raise CliError("invalid-config", str(exc))
    spdcl_io.write_manifest(args.out, plan)
    log.info(
        "epoch %d plan: %d visible of %d samples -> %s",
        args.epoch,
        len(plan.ordered_ids),
        len(plan.bin_of),
        args.out,
    )


# ------------------------------------------------------------------- train


def cmd_train(args) -> None:
    # Imported here, so that the other commands do not load the trainer.
    from spdcl.trainer import TrainHyper, TrainingDiverged, encode_datasets, run_spdcl

    try:
        config = spdcl_io.load_run_config(args.config)
    except (FormatError, OSError) as exc:
        raise CliError("invalid-config", str(exc))
    if args.baseline:  # checked, recorded and run as the one-bin config
        config = config.baseline()
    try:
        train_samples = spdcl_io.read_dataset(args.dataset)
        valid_samples = spdcl_io.read_dataset(args.valid)
    except (FormatError, OSError) as exc:
        raise CliError("malformed-dataset", str(exc))
    try:
        train_enc, valid_enc = encode_datasets(
            train_samples, valid_samples, config.task_kind, max_len=config.max_len
        )
    except ValueError as exc:
        raise CliError("malformed-dataset", str(exc))
    if config.bins_k > len(train_enc.sample_ids):
        raise CliError(
            "invalid-config",
            f"bins_k={config.bins_k} exceeds training-set size {len(train_enc.sample_ids)}",
        )
    out_dir = Path(args.out_dir)
    spdcl_io.write_run_config(out_dir / "run_config.json", config)
    hyper = TrainHyper(lr=config.lr, batch_size=config.batch, hidden=config.hidden_d, seed=config.seed)
    try:
        result = run_spdcl(train_enc, valid_enc, config, hyper, out_dir=out_dir)
    except TrainingDiverged as exc:
        raise CliError("diverged", str(exc))
    _save_final_params(out_dir, result.params, train_enc, config.max_len)
    for stats in result.stats:
        log.info(
            "epoch %d: mean_loss=%.6f over %d samples",
            stats.epoch,
            stats.mean_loss,
            stats.samples_seen,
        )
    log.info("run complete: %d epochs -> %s", len(result.stats), out_dir)


def _save_final_params(out_dir: Path, params, train_enc, max_len: int) -> None:
    archive = io.BytesIO()
    np.savez(
        archive,
        embedding_table=params.embedding_table,
        head_weights=params.head_weights,
        head_bias=params.head_bias,
    )
    spdcl_io._atomic_write_bytes(out_dir / "params_final.npz", archive.getvalue())
    spdcl_io.write_json_atomic(
        out_dir / "model_meta.json",
        {
            "task_kind": params.task_kind,
            "hidden": params.hidden,
            "label_names": train_enc.label_names,
            "vocab_tokens": list(train_enc.vocab.words),
            "max_len": max_len,
        },
    )


# ------------------------------------------------------------------ report


def cmd_report(args) -> None:
    try:
        report = spdcl_io.build_report(args.run_dir, baseline_dir=args.baseline_dir)
    except (FormatError, OSError) as exc:
        raise CliError("missing-artifact", str(exc))
    spdcl_io.write_json_atomic(args.out, report)
    if args.csv is not None:
        spdcl_io.write_text_atomic(args.csv, "\n".join(spdcl_io.report_csv_rows(report)) + "\n")
    log.info("report over %d epochs -> %s", len(report["epochs"]), args.out)


# -------------------------------------------------------------------- main


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="spdcl",
        description="Nuclear-norm curriculum learning: score, schedule, train, report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="difficulty scores and ranks from an embedding dump")
    p.add_argument("--embeddings", required=True, help="embedding dump file")
    p.add_argument("--prev-scores", default=None, help="previous epoch's score file (epoch >= 2)")
    p.add_argument("--epoch", type=int, required=True)
    p.add_argument("--out", required=True, help="output score file (JSONL)")
    p.add_argument("--alignment", choices=ALIGNMENT_MODES, default=ALIGNMENT_MODES[0])
    p.add_argument("--ordering", choices=DELTA_ORDERINGS, default=DELTA_ORDERINGS[0])

    p = sub.add_parser("schedule", help="epoch training manifest from a score file")
    p.add_argument("--scores", required=True)
    p.add_argument("--bins", type=int, required=True)
    p.add_argument("--epoch", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output manifest file (JSONL)")
    p.add_argument("--no-shuffle", action="store_true", help="present the visible set in rank order")

    p = sub.add_parser("train", help="run the full curriculum (or baseline) training loop")
    p.add_argument("--dataset", required=True, help="training split (JSONL)")
    p.add_argument("--valid", required=True, help="validation split (JSONL)")
    p.add_argument("--config", required=True, help="run config (JSON)")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--baseline", action="store_true", help="plain full-data training, no curriculum")

    p = sub.add_parser("report", help="aggregate a run directory into one JSON report")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--csv", default=None, help="also write plot-ready CSV here")
    p.add_argument("--baseline-dir", default=None, help="baseline run to diff against")
    return parser


def main(argv=None) -> int:
    level = _LOG_LEVELS.get(os.environ.get("SPDCL_LOG", "warning").lower(), logging.WARNING)
    logging.basicConfig(level=level, format="%(message)s")
    args = build_parser().parse_args(argv)
    try:
        # Looked up at each call, not bound into the cached parser.
        globals()[f"cmd_{args.command}"](args)
    except CliError as exc:
        print(f"error:{exc.category}: {exc}", file=sys.stderr)
        return 1
    except (FormatError, ValueError) as exc:
        print(f"error:invalid-input: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error:unwritable-output: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
