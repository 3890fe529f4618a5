"""File formats and persistence for the curriculum pipeline.

Text artifacts are JSON lines written canonically (sorted keys, fixed
separators, shortest-repr floats) so every format round-trips byte for byte.
Score files, the one text artifact written every epoch for every sample,
have a fixed line layout that ``write_scores`` formats directly from a
:class:`spdcl.difficulty.ScoreTable`, one line per sample in rank order;
their scores and norms must be finite.  Readers decode each line on its own
with one shared ``json.JSONDecoder``: they accept any valid JSON object per
line, in any key order, and reject anything after a line's value.  Epochs,
ranks and bins must be JSON integers, scores and norms JSON numbers, and
dataset texts strings.  A string that cannot be encoded as UTF-8 (a lone
surrogate escape such as ``"\\ud800"``) is rejected on its line, and an
integer past Python's int-string digit limit is a bad line too; the JSON
files (run config, epoch reports) are held to the same rules.  Every
reading error is a :class:`FormatError` naming the file.  ``read_scores``
returns the table with its ids ascending, whatever the order of the file's
lines.

No read consults state left by an earlier call: every reader is a function
of its arguments and the file.  A caller that chains reads hands each one
what the last left.  ``write_scores`` returns the bytes it wrote with their
table, and ``read_scores(path, written=...)`` gives that table back, unparsed,
for a file of exactly those bytes, so an in-process chain (``score`` writes
epoch t, ``schedule`` reads it, ``score`` reads it again as
``--prev-scores``) parses no file it has just written.  Without ``written``
every file is parsed.

Embedding dumps are a small binary format, version 3:

    magic    8 bytes  b"SPDCLEMB"
    version  u32 LE   3
    count    u64 LE   number of samples N
    cols     u32 LE   column count, shared by every sample
    rows     u64 LE   total rows
    N u32 LE          id lengths
    the ids           UTF-8, concatenated
    padding           zero bytes up to the next multiple of 8 in the file
    N+1 u64 LE        row offsets: sample i owns rows offsets[i]:offsets[i + 1]
    rows*cols float32 LE values, row-major

Everything before the values, the *head block*, depends only on the
layout and the column count; it is packed once per pair and kept on the
layout.  The padding aligns the row offsets and the values.  Any other
version is rejected.  Values are single precision on disk and in memory
(:class:`spdcl.nucnorm.EmbeddingDump`); scoring widens them to double.
``write_embedding_dump`` writes the head block, then the values in chunks
of contiguous samples: 64 KiB of float32 values each
(``nucnorm._DUMP_CHUNK_VALUES``, or one sample if a sample is larger), one
chunk alive at a time, so its memory follows the chunk size, not the file's.
``read_embedding_dump`` reads every file whole with one ``read()``, and
parses none that starts with a handed layout's head block.
Score-file ids are JSON-escaped once per id tuple.  Every write goes
through a temp file in the target directory followed by an atomic rename.
"""

from __future__ import annotations

import functools
import json
import math
import os
import struct
import sys
import tempfile
from dataclasses import asdict, dataclass, replace
from io import BytesIO, TextIOWrapper
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from spdcl.difficulty import ALIGNMENT_MODES, DELTA_ORDERINGS, ScoreTable
from spdcl.nucnorm import DumpLayout, EmbeddingDump
from spdcl.scheduler import EpochPlan, check_bool, check_choice, check_int, check_lr

if TYPE_CHECKING:  # annotations only: score, schedule and report never load spdcl.metrics
    from spdcl.metrics import EvalReport

DUMP_MAGIC = b"SPDCLEMB"
DUMP_VERSION = 3
_DUMP_HEADER = struct.Struct("<IQIQ")  # version, sample count, cols, total rows
_DUMP_FIXED = len(DUMP_MAGIC) + _DUMP_HEADER.size

TASK_KINDS = ("multiclass", "multilabel")


class FormatError(ValueError):
    """A file failed structural validation."""


# ------------------------------------------------------------ atomic writing


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    _atomic_write_chunks(path, (payload,))


def _atomic_write_chunks(path: Path, chunks: Iterable) -> None:
    """Write ``chunks``, bytes-like objects, one after another to a temp file, then rename it to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            # writelines releases each chunk before it asks for the next, so
            # a generator's chunks are held one at a time.
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# The string encoder json.dumps(..., ensure_ascii=False) itself uses.
_encode_json_str = json.encoder.encode_basestring


def _canonical_json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False)


def write_jsonl_atomic(path, records: Iterable[dict]) -> None:
    body = "".join(_canonical_json_line(r) + "\n" for r in records)
    _atomic_write_bytes(Path(path), body.encode("utf-8"))


def write_json_atomic(path, obj) -> None:
    body = json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False) + "\n"
    _atomic_write_bytes(Path(path), body.encode("utf-8"))


def write_text_atomic(path, text: str) -> None:
    _atomic_write_bytes(Path(path), text.encode("utf-8"))


# One decoder for every JSON-lines file.  Each line is decoded on its own, so
# two invalid half-lines can never join into one valid record.
_raw_decode = json.JSONDecoder().raw_decode


def _read_jsonl(path, blob: bytes | None = None) -> Iterator[tuple[int, object]]:
    """Yield ``(physical line number, value)`` for each non-blank line, one at a time.

    The lines are those of the file at ``path``, or of ``blob`` when the
    caller has read the file's bytes already; ``path`` then only names the
    file in errors.  Every error is a :class:`FormatError` naming the file.
    """
    # Iterating a text handle splits on universal newlines only:
    # str.splitlines() would also split inside an id holding a raw U+2028.
    source = open(path, "rb") if blob is None else BytesIO(blob)
    with TextIOWrapper(source, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj, end = _raw_decode(line)
                    if end != len(line):
                        raise json.JSONDecodeError("Extra data", line, end)
                except ValueError as exc:  # bad JSON, or an integer past Python's int-string limit
                    raise FormatError(f"{path}: line {lineno} is not valid JSON: {exc}") from exc
                # Only a \u escape decodes to a lone surrogate, which no writer can encode.
                if "\\u" in line and not _encodable(obj):
                    raise FormatError(f"{path}: line {lineno} holds a string with a lone surrogate escape")
                yield lineno, obj
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not valid UTF-8: {exc}") from exc


def _encodable(obj) -> bool:
    """Whether every string of a decoded JSON value encodes as UTF-8."""
    try:
        json.dumps(obj, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _load_json(path):
    """The one JSON value of a file; any decoding error is a :class:`FormatError` naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        value = json.loads(text)
    except ValueError as exc:  # bad JSON or UTF-8, or an integer past Python's int-string limit
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    if "\\u" in text and not _encodable(value):
        raise FormatError(f"{path}: holds a string with a lone surrogate escape")
    return value


# -------------------------------------------------------------- dataset files


@dataclass(frozen=True)
class TextSample:
    """One dataset record: id, raw text, and one or more label strings."""

    sample_id: str
    text: str
    labels: tuple[str, ...]


def read_dataset(path) -> list[TextSample]:
    """Load a JSON-lines dataset: {"id", "text", "labels"} per line.

    ``labels`` may be a single string (multiclass) or an array of strings
    (multilabel); it must be non-empty either way, and ids must be unique.
    Lines are decoded and checked one at a time, so the first bad line wins,
    by its JSON or by a field; every error names the physical line.
    """
    samples = []
    seen = set()
    # A decoded JSON value is exactly a dict, list, str, int, float, bool or
    # None, so exact type tests decide what isinstance would.  No check
    # builds a set or runs a generator per record.
    for lineno, rec in _read_jsonl(path):
        if type(rec) is not dict or "id" not in rec or "text" not in rec or "labels" not in rec:
            raise FormatError(f"{path}: line {lineno} must have id/text/labels fields")
        sid = rec["id"]
        if type(sid) is not str or not sid:
            raise FormatError(f"{path}: line {lineno} has a non-string or empty id")
        if sid in seen:
            raise FormatError(f"{path}: line {lineno} has a duplicate sample id {sid!r}")
        seen.add(sid)
        labels = rec["labels"]
        if type(labels) is str:
            labels = (labels,)
        elif type(labels) is list and labels and all(map(str.__instancecheck__, labels)):
            labels = tuple(labels)
        else:
            raise FormatError(f"{path}: line {lineno}: record {sid!r} needs a non-empty label or label list")
        text = rec["text"]
        if type(text) is not str:
            raise FormatError(f"{path}: line {lineno}: record {sid!r} has a non-string text {text!r}")
        samples.append(TextSample(sid, text, labels))
    if not samples:
        raise FormatError(f"{path}: dataset is empty")
    return samples


def write_dataset(path, samples: Sequence[TextSample]) -> None:
    write_jsonl_atomic(
        path,
        (
            {
                "id": s.sample_id,
                "text": s.text,
                "labels": s.labels[0] if len(s.labels) == 1 else list(s.labels),
            }
            for s in samples
        ),
    )


# ------------------------------------------------------------ embedding dumps


def f32_roundtrip(values) -> np.ndarray:
    """Quantize to the dump's storage precision (float32) and back to float64.

    These are exactly the values a dump stores, so scoring them reproduces
    the score of the same rows read back from disk.
    """
    return np.asarray(values, dtype="<f4").astype(np.float64)


def _head_block(layout: DumpLayout, cols: int) -> bytes:
    """Every byte of a dump file of ``layout`` and ``cols`` before its values, packed once and kept on the layout.

    Raises ``UnicodeEncodeError`` for an id holding a lone surrogate and
    ``struct.error`` for ``cols`` past u32: no dump file has such a head.
    """
    head = layout._memo.get(("head", cols))
    if head is None:
        ids = [sid.encode("utf-8") for sid in layout.ids]
        head = b"".join((
            DUMP_MAGIC,
            _DUMP_HEADER.pack(DUMP_VERSION, len(ids), cols, int(layout.offsets[-1])),
            np.fromiter(map(len, ids), "<u4", len(ids)).tobytes(),
            *ids,
            bytes(-(_DUMP_FIXED + 4 * len(ids) + sum(map(len, ids))) % 8),  # the padding
            layout.offsets.astype("<u8").tobytes(),
        ))
        layout._memo[("head", cols)] = head
    return head


def write_embedding_dump(path, dump: EmbeddingDump) -> None:
    """Write a dump's head block, then each chunk's float32 rows (see
    :meth:`EmbeddingDump.chunks`) as one buffer: no join, never the whole file.

    ``map`` binds no chunk between calls, so a chunk's rows are dropped once
    written, before the next chunk's are gathered: the writer holds one
    chunk at a time.
    """
    head = _head_block(dump.layout, dump.values.shape[1])
    rows = map(lambda chunk: np.ascontiguousarray(chunk[2], dtype="<f4"), dump.chunks())
    _atomic_write_chunks(Path(path), chain((head,), rows))


def read_embedding_dump(path, like: tuple[DumpLayout, int] | None = None) -> EmbeddingDump:
    """Read a v3 dump whole, with one ``read()``: its values are a read-only array over the file's bytes.

    ``like`` is a layout and column count, such as those of a dump the
    caller read or wrote before.  A file of the size of ``like``'s head
    block (see :func:`_head_block`) and values that starts with that head
    block is not parsed, and its dump shares ``like``'s layout and what it
    keeps: scoring's plan, reused while the rows' classes repeat, and the
    head block.  Any other file, and every read without a ``like`` a dump
    file can have, is parsed and checked cold; its new layout keeps nothing.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        head = _head_block(*like) if like else None
    except (UnicodeEncodeError, struct.error):  # a layout no dump file has
        head = None
    if head and len(blob) == len(head) + 4 * int(like[0].offsets[-1]) * like[1] and blob.startswith(head):
        values = np.frombuffer(blob, "<f4", offset=len(head))
    else:
        like, values = _parse_dump(path, blob)
    layout, cols = like
    try:
        return EmbeddingDump(layout, values.reshape(layout.offsets[-1], cols))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _parse_dump(path, blob: bytes) -> tuple[tuple[DumpLayout, int], np.ndarray]:
    """Parse and check a dump file's head block: its layout and column count
    (a read's ``like``), and its values, a float32 array over ``blob``."""
    size = len(blob)

    def truncated(what):
        return FormatError(f"{path}: truncated while reading {what}")

    if size < len(DUMP_MAGIC):
        raise truncated("magic")
    if not blob.startswith(DUMP_MAGIC):
        raise FormatError(f"{path}: bad magic, not an embedding dump")
    if size < _DUMP_FIXED:
        raise truncated("header")
    version, count, cols, rows = _DUMP_HEADER.unpack_from(blob, len(DUMP_MAGIC))
    if version != DUMP_VERSION:
        raise FormatError(f"{path}: unsupported dump version {version}")
    # Each part must fit in the file before it is read: the count and the
    # id lengths come from the file.
    ids_at = _DUMP_FIXED + 4 * count
    if ids_at > size:
        raise truncated("id lengths")
    bounds = [ids_at, *(np.cumsum(np.frombuffer(blob, "<u4", count, _DUMP_FIXED), dtype=np.int64) + ids_at).tolist()]
    offsets_at = bounds[-1] + -bounds[-1] % 8
    values_at = offsets_at + 8 * (count + 1)
    if bounds[-1] > size:
        raise truncated("ids")
    if offsets_at > size:
        raise truncated("padding")
    if blob[bounds[-1]:offsets_at].strip(b"\0"):
        raise FormatError(f"{path}: non-zero padding after the ids")
    if values_at > size:
        raise truncated("row offsets")
    offsets = np.frombuffer(blob, "<u8", count + 1, offsets_at)
    if offsets[0] != 0:
        raise FormatError(f"{path}: row offsets start at {offsets[0]}, not 0")
    drops = np.flatnonzero(offsets[1:] < offsets[:-1])
    if drops.size:
        raise FormatError(f"{path}: row offsets decrease after sample {drops[0]}")
    if offsets[-1] != rows:
        raise FormatError(f"{path}: row offsets end at {offsets[-1]}, not at the header's {rows} rows")
    end = values_at + 4 * rows * cols
    if size < end:
        raise truncated(f"values: {size} bytes, {end} declared")
    if size > end:
        raise FormatError(f"{path}: {size - end} trailing bytes after the values")
    ids = []
    try:  # extend keeps the ids decoded before a bad one
        ids.extend(blob[first:stop].decode() for first, stop in zip(bounds, bounds[1:]))
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: id of sample {len(ids)} is not valid UTF-8: {exc}") from exc
    try:
        return (DumpLayout(ids, offsets), cols), np.frombuffer(blob, "<f4", rows * cols, values_at)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


# ------------------------------------------------------------- score files


# The ids as JSON strings, escaped once for all of a run's score files.
_json_ids = functools.lru_cache(maxsize=1)(lambda ids: tuple(map(_encode_json_str, ids)))


def write_scores(path, table: ScoreTable) -> tuple[bytes, ScoreTable]:
    """Score file: one line per sample in rank order, with the score and the raw norm.

    The raw nuclear norm rides along so the next epoch can diff against it;
    for epoch 1 the two values coincide.  Each line is formatted directly
    and is byte for byte what ``_canonical_json_line`` gives for the record
    with ``float`` score and norm (keys sorted, floats as ``float.__repr__``).
    Scores and norms must be finite.  Returns the file's bytes and
    ``table``, which ``read_scores`` takes as ``written``: a
    :class:`ScoreTable` is checked to be exactly what reading them back gives.
    """
    order = table.order
    norms, scores = table.norm[order], table.score[order]
    finite = np.isfinite(norms) & np.isfinite(scores)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise FormatError(
            f"sample {table.ids[order[bad]]!r} has a non-finite score {float(scores[bad])!r} "
            f"or norm {float(norms[bad])!r}"
        )
    head = f'{{"epoch":{int(table.epoch)},"id":'
    ids = _json_ids(table.ids)
    # .tolist() gives Python floats, whose repr() is json's float.__repr__.
    lines = [
        f'{head}{ids[row]},"norm":{norm!r},"rank":{rank},"score":{score!r}}}\n'
        for rank, (row, norm, score) in enumerate(zip(order.tolist(), norms.tolist(), scores.tolist()))
    ]
    payload = "".join(lines).encode("utf-8")
    _atomic_write_bytes(Path(path), payload)
    return payload, table


# Readers check the exact type a JSON decoder gives: true and false decode
# as bool, which int() and float() take as 1 and 0, and int() truncates 1.7.
_NUMBER = (int, float)


def _mistyped_score_field(rec: dict) -> str:
    """Name the first field of a score record that has the wrong type."""
    for name in ("epoch", "rank"):
        if type(rec[name]) is not int:
            return f"{name} {rec[name]!r} is not an integer"
    for name in ("score", "norm"):
        if type(rec[name]) not in _NUMBER:
            return f"{name} {rec[name]!r} is not a number"
    return ""


def read_scores(path, written: tuple[bytes, ScoreTable] | None = None) -> ScoreTable:
    """Read a score file, in any line order, as a table with the ids ascending.

    Each line is checked on its own; then the file must hold one epoch and
    its ranks must be a permutation of 0..N-1.

    The file is read once, as bytes.  ``written`` is what ``write_scores``
    returned for a file the caller wrote: bytes equal to its payload give
    its table back, the same frozen object, unparsed.  Any other bytes, and
    every file read without ``written``, are parsed and checked in full.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if written and written[0] == blob:
        return written[1]
    return _parse_scores(path, blob)


def _parse_scores(path, blob: bytes) -> ScoreTable:
    """Parse and check a score file's bytes; ``path`` names the file in errors."""
    ids, epochs, scores, ranks, norms = [], [], [], [], []
    seen = set()
    for lineno, rec in _read_jsonl(path, blob):
        try:
            sid = rec["id"]
            if type(sid) is not str or not sid:
                raise TypeError(f"id {sid!r} is not a non-empty string")
            if sid in seen:
                raise ValueError(f"duplicate sample id {sid!r}")
            epoch, rank, score, norm = rec["epoch"], rec["rank"], rec["score"], rec["norm"]
            # Inline: this runs once per line of every score file read.
            if (
                type(epoch) is not int
                or type(rank) is not int
                or type(score) not in _NUMBER
                or type(norm) not in _NUMBER
            ):
                raise TypeError(_mistyped_score_field(rec))
            score, norm = float(score), float(norm)
            if not (math.isfinite(score) and math.isfinite(norm)):
                raise ValueError(f"score {score!r} and norm {norm!r} must be finite")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"{path}: line {lineno} is not a valid score record: {exc}") from exc
        seen.add(sid)
        ids.append(sid)
        epochs.append(epoch)
        scores.append(score)
        ranks.append(rank)
        norms.append(norm)
    if not ids:
        raise FormatError(f"{path}: score file is empty")
    distinct_epochs = set(epochs)
    if len(distinct_epochs) != 1:
        raise FormatError(f"{path}: mixes epochs {sorted(distinct_epochs)}")
    if sorted(ranks) != list(range(len(ranks))):
        raise FormatError(f"{path}: ranks are not a permutation of 0..N-1")
    by_id = sorted(range(len(ids)), key=ids.__getitem__)
    order = np.empty(len(ids), dtype=np.int64)
    order[np.asarray(ranks)[by_id]] = np.arange(len(ids))
    columns = np.asarray(norms)[by_id], np.asarray(scores)[by_id], order
    for column in columns:
        column.setflags(write=False)  # fresh, so the table keeps it uncopied
    try:
        return ScoreTable(epochs[0], tuple(ids[i] for i in by_id), *columns)
    except ValueError as exc:  # an epoch below 1
        raise FormatError(f"{path}: {exc}") from exc


# ------------------------------------------------------------ manifest files


def write_manifest(path, plan: EpochPlan) -> None:
    write_jsonl_atomic(
        path,
        [{"epoch": plan.epoch, "order": plan.ordered_ids, "bin_of": plan.bin_of}],
    )


def read_manifest(path) -> EpochPlan:
    rows = [rec for _, rec in _read_jsonl(path)]
    if len(rows) != 1:
        raise FormatError(f"{path}: manifest must contain exactly one record, got {len(rows)}")
    rec = rows[0]
    try:
        order = rec["order"]
        if type(order) is not list or not all(type(sid) is str for sid in order):
            raise TypeError(f"order {order!r} is not an array of strings")
        bin_of = rec["bin_of"]
        if not isinstance(bin_of, dict) or "" in bin_of:
            raise TypeError(f"bin_of {bin_of!r} is not an object keyed by non-empty ids")
        # Plans number epochs and bins from 1.
        epoch = rec["epoch"]
        if type(epoch) is not int or epoch < 1:
            raise ValueError(f"epoch {epoch!r} is not an integer >= 1")
        for sid, number in bin_of.items():
            if type(number) is not int or number < 1:
                raise ValueError(f"bin of {sid!r} {number!r} is not an integer >= 1")
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed manifest record: {exc}") from exc
    if len(set(order)) != len(order):
        raise FormatError(f"{path}: manifest order contains duplicates")
    unknown = [sid for sid in order if sid not in bin_of]
    if unknown:
        raise FormatError(f"{path}: ordered ids missing from bin_of: {unknown[:5]}")
    # A written plan trains on bins 1..w, w at most its epoch, and holds
    # every sample of them: its unique order is exactly those samples when
    # it is as long as they are many.
    if not order:
        raise FormatError(f"{path}: manifest order is empty")
    widest = max(bin_of[sid] for sid in order)
    if widest > epoch:
        raise FormatError(f"{path}: order reaches bin {widest} at epoch {epoch}")
    held = sum(number <= widest for number in bin_of.values())
    if held != len(order):
        raise FormatError(f"{path}: order holds {len(order)} of the {held} samples of bins 1..{widest}")
    return EpochPlan(epoch=epoch, ordered_ids=order, bin_of=bin_of)


# ---------------------------------------------------------------- run config


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration, the curriculum's config; a run's ``run_config.json`` is the one it ran."""

    bins_k: int = 5
    epochs_T: int = 10
    seed: int = 2
    lr: float = 0.1
    batch: int = 25
    hidden_d: int = 16
    max_len: int = 250
    task_kind: str = "multiclass"
    alignment_mode: str = "rank"
    delta_ordering: str = "magnitude"
    shuffle_within_epoch: bool = True

    def __post_init__(self):
        try:
            for name in ("bins_k", "epochs_T", "batch", "hidden_d", "max_len"):
                check_int(name, getattr(self, name), minimum=1)
            check_int("seed", self.seed, minimum=0)
            check_lr(self.lr)
            check_bool("shuffle_within_epoch", self.shuffle_within_epoch)
            check_choice("task_kind", self.task_kind, TASK_KINDS)
            check_choice("alignment_mode", self.alignment_mode, ALIGNMENT_MODES)
            check_choice("delta_ordering", self.delta_ordering, DELTA_ORDERINGS)
        except ValueError as exc:
            raise FormatError(str(exc)) from None

    def curriculum(self) -> RunConfig:
        """The config itself; kept because the benchmark's workloads call it."""
        return self

    def baseline(self) -> RunConfig:
        """The no-curriculum comparison: one bin, shuffled each epoch; what ``spdcl train --baseline`` runs."""
        return replace(self, bins_k=1, shuffle_within_epoch=True)


def load_run_config(path) -> RunConfig:
    raw = _load_json(path)
    if not isinstance(raw, dict):
        raise FormatError(f"{path}: config must be a JSON object")
    known = {f for f in RunConfig.__dataclass_fields__}
    unknown = set(raw) - known
    if unknown:
        raise FormatError(f"{path}: unknown config keys {sorted(unknown)}")
    try:
        return RunConfig(**raw)
    except (TypeError, ValueError) as exc:  # FormatError is a ValueError
        raise FormatError(f"{path}: {exc}") from exc


def write_run_config(path, config: RunConfig) -> None:
    write_json_atomic(path, asdict(config))


# -------------------------------------------------------------- run reports


def epoch_report_payload(stats, report: EvalReport, table: ScoreTable) -> dict:
    """Merge TrainStats, EvalReport and the epoch's norm statistics into one JSON payload.

    ``norm_stats`` summarises the raw nuclear norms of ``table``, the
    epoch's scores.  Nothing time-dependent goes in: persisted reports must
    be byte-identical across reruns of the same seeded configuration.
    """
    payload = {
        "epoch": stats.epoch,
        "mean_loss": stats.mean_loss,
        "samples_seen": stats.samples_seen,
        # In rank order, the order of the score file's lines: the mean's
        # pairwise summation depends on it.
        "norm_stats": _norm_stats(table.norm[table.order]),
    }
    payload.update(asdict(report))
    return payload


def _norm_stats(xs: np.ndarray) -> dict:
    """Count, mean, min, quartiles and max of ``xs``, box-plot data.

    The quartiles are numpy's "linear" percentiles, computed here from one
    sort with numpy's own arithmetic, so every value equals
    ``np.percentile(xs, ..., method="linear")`` bit for bit.  (That call
    imports ``numpy.ma``, about 1-2 MB of resident memory.)
    """
    ranked = np.sort(xs)
    n = ranked.size

    def quantile(q):
        virtual = n * q + (1 - q) - 1
        i = math.floor(virtual)
        t = virtual - i
        a, b = float(ranked[i]), float(ranked[min(i + 1, n - 1)])
        return a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)

    return {
        "count": n,
        "mean": float(xs.mean()),
        "min": float(ranked[0]),
        "q1": quantile(0.25),
        "median": quantile(0.5),
        "q3": quantile(0.75),
        "max": float(ranked[-1]),
    }


_NORM_STAT_KEYS = frozenset(("count", "mean", "min", "q1", "median", "q3", "max"))


def _well_formed_report(payload) -> bool:
    """Whether an epoch report has an int epoch, norm_stats, and other figures as finite numbers.

    ``json`` decodes ``NaN`` and ``Infinity``, which no writer emits and
    strict JSON lacks, so a figure must be a finite float or an int that
    ``float()`` takes.
    """
    stats = payload.get("norm_stats") if type(payload) is dict else None
    if type(stats) is not dict or stats.keys() != _NORM_STAT_KEYS or type(stats["count"]) is not int:
        return False
    figures = [*stats.values(), *(payload[key] for key in _CSV_METRICS if payload.get(key) is not None)]
    real = all(math.isfinite(x) if type(x) is float else type(x) is int and abs(x) <= sys.float_info.max
               for x in figures)
    return real and type(payload.get("epoch")) is int


def epoch_paths(run_dir: Path, epoch: int) -> dict[str, Path]:
    """The files a run writes for one epoch, by kind."""
    stem = f"epoch{epoch:03d}"
    return {
        "embeddings": run_dir / f"{stem}.embeddings.bin",
        "scores": run_dir / f"{stem}.scores.jsonl",
        "manifest": run_dir / f"{stem}.manifest.jsonl",
        "report": run_dir / f"{stem}.report.json",
    }


def _collect_run(run_dir: Path) -> dict:
    """The run's config and epoch reports; every epoch's scores, manifest and report must exist.

    Only ``run_config.json`` and the epoch reports are read: each report
    carries its epoch's norm statistics, so no score file is parsed.  The
    first epoch that lacks a file stops the walk, and the error names its
    missing files: the cost follows the files present, not ``epochs_T``.
    """
    config_path = run_dir / "run_config.json"
    if not config_path.exists():
        raise FormatError(f"incomplete run in {run_dir}: missing {config_path}")
    config = load_run_config(config_path)
    total, epochs = config.epochs_T, []
    for epoch in range(1, total + 1):
        paths = epoch_paths(run_dir, epoch)
        absent = [str(paths[kind]) for kind in ("manifest", "report", "scores") if not paths[kind].exists()]
        if absent:
            raise FormatError(f"incomplete run in {run_dir}: epoch {epoch} of {total} lacks {', '.join(absent)}")
        payload = _load_json(paths["report"])
        if not _well_formed_report(payload):
            raise FormatError(f"{paths['report']}: no integer epoch, well-formed norm_stats or finite numeric metrics")
        epochs.append(payload)
    return {"config": asdict(config), "epochs": epochs}


_CSV_METRICS = (
    "mean_loss",
    "micro_f1",
    "macro_f1",
    "hamming_loss",
    "subset_accuracy",
    "matthews_corr",
    "binary_f1",
)


def build_report(run_dir, baseline_dir=None) -> dict:
    """Aggregate a run directory into one report document.

    Per epoch: the epoch report as written at train time, with its training
    stats, evaluation metrics and the distribution of raw nuclear norms
    (mean plus quartiles, i.e. box-plot data).  When a baseline directory
    is supplied its epochs are included and a final-epoch metric delta
    table is added.
    """
    report = _collect_run(Path(run_dir))
    report["norm_trajectory"] = [e["norm_stats"]["mean"] for e in report["epochs"]]
    if baseline_dir is not None:
        base = _collect_run(Path(baseline_dir))
        report["baseline"] = base
        last, base_last = report["epochs"][-1], base["epochs"][-1]
        report["delta_vs_baseline"] = {
            key: last[key] - base_last[key]
            for key in _CSV_METRICS
            if isinstance(last.get(key), (int, float)) and isinstance(base_last.get(key), (int, float))
        }
    return report


def report_csv_rows(report: dict) -> list[str]:
    """Plot-ready CSV: one row per epoch with metrics and norm stats."""
    header = ["epoch", *_CSV_METRICS, "norm_mean", "norm_q1", "norm_median", "norm_q3"]
    rows = [",".join(header)]
    for e in report["epochs"]:
        cells = [str(e["epoch"])]
        for key in _CSV_METRICS:
            value = e.get(key)
            cells.append("" if value is None else repr(float(value)))
        ns = e["norm_stats"]
        cells.extend(repr(float(ns[k])) for k in ("mean", "q1", "median", "q3"))
        rows.append(",".join(cells))
    return rows
