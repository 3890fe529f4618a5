"""In-memory span tracer that wraps spdcl's module-level functions from outside.

``Tracer.install()`` replaces every reference to a traced function in the
loaded ``spdcl`` modules (including names imported with ``from x import y``)
with a timing wrapper, and ``uninstall()`` puts the originals back.  Nothing
under ``src/`` changes.

Two kinds of wrapper:

* a *span* records ``[name, start, end, parent, amount]``; ``parent`` is the
  index of the enclosing span (-1 for none) and ``amount`` the size of the
  file a reader or writer touched, or the samples ``train_epoch`` trained.
* a *counted* call (the ~26k per-pass calls of ``embed_sample``,
  ``f32_roundtrip`` and ``nuclear_norm``) only adds to a count and a summed
  time keyed by (name, parent span), so tracing them stays cheap.

Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager

from spdcl import cli, difficulty, io as spdcl_io, metrics, nucnorm, scheduler, trainer

SPAN_FUNCTIONS = (
    trainer.encode_datasets,
    trainer.init_params,
    trainer.train_epoch,
    trainer.predict,
    trainer.run_spdcl,
    trainer.run_baseline,
    metrics.evaluate,
    metrics.label_frequency_groups,
    difficulty.initial_scores,
    difficulty.delta_scores,
    difficulty.dump_norms,
    scheduler.build_epoch_plan,
    scheduler.epoch_rng,
    spdcl_io.write_embedding_dump,
    spdcl_io.write_scores,
    spdcl_io.write_manifest,
    spdcl_io.write_json_atomic,
    spdcl_io.write_jsonl_atomic,
    spdcl_io.write_text_atomic,
    spdcl_io.write_run_config,
    spdcl_io.read_dataset,
    spdcl_io.read_embedding_dump,
    spdcl_io.read_scores,
    spdcl_io.read_manifest,
    spdcl_io.load_run_config,
    spdcl_io.build_report,
    spdcl_io.epoch_report_payload,
    cli.main,
    cli.cmd_score,
    cli.cmd_schedule,
    cli.cmd_train,
    cli.cmd_report,
)

COUNTED_FUNCTIONS = (
    trainer.embed_sample,
    spdcl_io.f32_roundtrip,
    nucnorm.nuclear_norm,
)

# Readers and writers take the file path as their first argument.
WRITERS = {
    "io.write_embedding_dump": "embedding_dump",
    "io.write_scores": "scores",
    "io.write_manifest": "manifest",
    "io.write_json_atomic": "json",
}
READERS = {
    "io.read_embedding_dump": "embedding_dump",
    "io.read_scores": "scores",
    "io.load_run_config": "run_config",
}
_FILE_SPANS = set(WRITERS) | set(READERS) | {
    "io.write_jsonl_atomic",
    "io.write_text_atomic",
    "io.write_run_config",
    "io.read_dataset",
    "io.read_manifest",
}


def layer_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _file_size(args) -> int:
    try:
        return os.stat(args[0]).st_size
    except (IndexError, TypeError, OSError):
        return 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counted: dict[tuple[str, int], list] = {}
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around calls into the program."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name):
        rec = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, 0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self.stack.pop()

    def _span_wrapper(self, fn):
        name = layer_name(fn)
        sized = name in _FILE_SPANS

        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
                if sized:
                    rec[4] = _file_size(args)
            if name == "trainer.train_epoch":
                rec[4] = result[1].samples_seen
            return result

        return wrapper

    def _counted_wrapper(self, fn):
        name = layer_name(fn)
        counted = self.counted
        stack = self.stack

        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                key = (name, stack[-1] if stack else -1)
                slot = counted.get(key)
                if slot is None:
                    counted[key] = [1, elapsed]
                else:
                    slot[0] += 1
                    slot[1] += elapsed

        return wrapper

    def install(self) -> None:
        if self._patched:
            return
        wrappers = {id(fn): self._span_wrapper(fn) for fn in SPAN_FUNCTIONS}
        wrappers.update({id(fn): self._counted_wrapper(fn) for fn in COUNTED_FUNCTIONS})
        originals = {id(fn): fn for fn in SPAN_FUNCTIONS + COUNTED_FUNCTIONS}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "spdcl" or mod_name.startswith("spdcl.")):
                continue
            for attr, value in list(vars(module).items()):
                if originals.get(id(value)) is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()


# Spans that only glue stages together; their self time is what the stage
# spans and counted calls leave uncovered.
ENTRY_SPANS = {"bench.pass", "bench.epoch", "trainer.run_spdcl", "trainer.run_baseline", "cli.main"}


def pass_breakdown(tracer: Tracer, root: int) -> tuple[dict[str, float], list[float]]:
    """Per-layer numbers for the pass whose ``bench.pass`` span is ``spans[root]``.

    Returns the layer metrics of that pass and its per-epoch durations.
    """
    spans = tracer.spans
    root_end = spans[root][2]
    members = range(root, next((i for i in range(root + 1, len(spans)) if spans[i][1] >= root_end), len(spans)))
    member_set = set(members)
    covered = {i: 0.0 for i in members}
    for i in members:
        parent = spans[i][3]
        if i != root and parent in covered:
            covered[parent] += spans[i][2] - spans[i][1]
    calls: dict[str, list] = {}
    entry_calls: dict[str, list] = {}
    for (name, parent), (count, seconds) in tracer.counted.items():
        if parent not in member_set:
            continue
        covered[parent] += seconds
        for table in (calls, entry_calls) if spans[parent][0] in ENTRY_SPANS else (calls,):
            slot = table.setdefault(name, [0, 0.0])
            slot[0] += count
            slot[1] += seconds

    def self_time(i):
        return spans[i][2] - spans[i][1] - covered[i]

    def total(names):
        return sum((spans[i][2] - spans[i][1] for i in members if spans[i][0] in names), 0.0)

    def self_of_module(prefix):
        return sum((self_time(i) for i in members if spans[i][0].startswith(prefix)), 0.0)

    wall = spans[root][2] - spans[root][1]
    out: dict[str, float] = {}
    out["trainer.train_s"] = total({"trainer.train_epoch"})
    out["trainer.samples_trained"] = sum(spans[i][4] for i in members if spans[i][0] == "trainer.train_epoch")
    out["trainer.us_per_sample"] = (
        out["trainer.train_s"] / out["trainer.samples_trained"] * 1e6 if out["trainer.samples_trained"] else 0.0
    )
    embed = entry_calls.get("trainer.embed_sample", [0, 0.0])
    roundtrip = entry_calls.get("io.f32_roundtrip", [0, 0.0])
    out["trainer.dump_s"] = embed[1] + roundtrip[1]
    out["trainer.embed_calls"] = embed[0]
    out["trainer.predict_s"] = total({"trainer.predict"})
    out["metrics.eval_s"] = self_of_module("metrics.")
    nn_count, nn_seconds = calls.get("nucnorm.nuclear_norm", [0, 0.0])
    out["nucnorm.calls"] = nn_count
    out["nucnorm.s"] = nn_seconds
    out["nucnorm.us_per_call"] = nn_seconds / nn_count * 1e6 if nn_count else 0.0
    out["difficulty.score_s"] = self_of_module("difficulty.")
    out["scheduler.plan_s"] = self_of_module("scheduler.")
    for direction, table in (("write", WRITERS), ("read", READERS)):
        grand_s = grand_b = 0.0
        for span_name, short in table.items():
            seconds = total({span_name})
            size = sum(spans[i][4] for i in members if spans[i][0] == span_name)
            out[f"io.{direction}_s.{short}"] = seconds
            out[f"io.{direction}_bytes.{short}"] = size
            out[f"io.{direction}_mb_per_s.{short}"] = size / seconds / 1e6 if seconds else 0.0
            grand_s += seconds
            grand_b += size
        out[f"io.{direction}_s"] = grand_s
        out[f"io.{direction}_bytes"] = grand_b
        out[f"io.{direction}_mb_per_s"] = grand_b / grand_s / 1e6 if grand_s else 0.0
    for command in ("score", "schedule", "report"):
        out[f"cli.{command}_s"] = total({f"cli.cmd_{command}"})
    out["trace.coverage"] = 1.0 - sum(self_time(i) for i in members if spans[i][0] in ENTRY_SPANS) / wall
    return out, _epoch_durations(spans, members)


def _epoch_durations(spans, members) -> list[float]:
    """Epochs are ``bench.epoch`` spans where the benchmark drives them; inside a
    training run, an epoch ends when its report is written (the last step of
    ``_run_loop``'s epoch body)."""
    marked = [spans[i][2] - spans[i][1] for i in members if spans[i][0] == "bench.epoch"]
    if marked:
        return marked
    runs = [i for i in members if spans[i][0] in ("trainer.run_spdcl", "trainer.run_baseline")]
    durations = []
    for run in runs:
        previous = spans[run][1]
        for i in members:
            if spans[i][0] == "io.write_json_atomic" and spans[i][3] == run:
                durations.append(spans[i][2] - previous)
                previous = spans[i][2]
    return durations


def write_spans(tracer: Tracer, path) -> None:
    """One JSON line per span and per counted-call total, for offline reading."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, start, end, parent, amount) in enumerate(tracer.spans):
            fh.write(json.dumps({"span": i, "name": name, "start": start, "end": end,
                                 "parent": parent, "amount": amount}) + "\n")
        for (name, parent), (count, seconds) in sorted(tracer.counted.items(), key=lambda kv: kv[0][1]):
            fh.write(json.dumps({"counted": name, "parent": parent, "calls": count,
                                 "seconds": seconds}) + "\n")
