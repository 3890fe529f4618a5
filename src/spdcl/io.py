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

One score file is kept in memory per process: the bytes of the last one
``write_scores`` wrote, with its table.  A later read of the same bytes
returns that table without parsing, so an in-process chain (``score``
writes epoch t, ``schedule`` reads it, ``score`` reads it again as
``--prev-scores``) parses no file it has just written.  A file the process
did not write is parsed on every read and kept nowhere; with one process
per command, every file read is parsed.

Embedding dumps are a small binary format:

    magic   8 bytes  b"SPDCLEMB"
    version u32 LE   currently 1
    count   u64 LE   number of samples
    then per sample:
        id_len u32 LE, id bytes (UTF-8)
        rows   u32 LE, cols u32 LE
        rows*cols float32 LE, row-major

Every sample in a dump has the same column count.  Values are single
precision on disk and in memory (:class:`spdcl.nucnorm.EmbeddingDump`);
scoring widens them to double.  ``write_embedding_dump`` writes a dump in
chunks of contiguous samples, whichever row source it has: 64 KiB of
float32 values each (``nucnorm._DUMP_CHUNK_VALUES``, or one sample if a
sample is larger), one chunk alive at a time, so its memory follows the
chunk size, not the file's; the format is the same whatever the chunking.
Dump headers are packed once per layout and column count and kept on the
layout, and are walked again only when they differ from the last dump
read; score-file ids are JSON-escaped once per id tuple.  Every write goes
through a temp file in the target directory followed by an atomic rename.
"""

from __future__ import annotations

import functools
import json
import math
import mmap
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
DUMP_VERSION = 1
_DUMP_HEADER = struct.Struct("<IQ")  # version, sample count
_DUMP_ID_LEN = struct.Struct("<I")
_DUMP_SHAPE = struct.Struct("<II")  # rows, cols

TASK_KINDS = ("multiclass", "multilabel")


class FormatError(ValueError):
    """A file failed structural validation."""


# ------------------------------------------------------------ atomic writing


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    _atomic_write_chunks(path, (payload,))


def _atomic_write_chunks(path: Path, chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` one after another to a temp file, then rename it to ``path``."""
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


def _dump_headers(layout: DumpLayout, cols: int) -> tuple[bytes, tuple[bytes, ...]]:
    """A dump file's header, and each sample's (id length, UTF-8 id, rows, cols), kept on the layout."""
    kept = layout._memo.get(("headers", cols))
    if kept is None:
        headers = []
        for sid, rows in zip(layout.ids, np.diff(layout.offsets).tolist()):
            id_bytes = sid.encode("utf-8")
            headers.append(_DUMP_ID_LEN.pack(len(id_bytes)) + id_bytes + _DUMP_SHAPE.pack(rows, cols))
        kept = DUMP_MAGIC + _DUMP_HEADER.pack(DUMP_VERSION, len(headers)), tuple(headers)
        layout._memo[("headers", cols)] = kept
    return kept


def write_embedding_dump(path, dump: EmbeddingDump) -> None:
    """Write a dump one chunk of contiguous samples at a time (see :meth:`EmbeddingDump.chunks`):
    one join of their packed headers and float32 rows per chunk, never the whole file.

    A chunk's rows, parts and bytes are dropped before the next chunk's rows
    are gathered, so the writer holds one chunk at a time.
    """
    cols = dump.values.shape[1]
    head, headers = _dump_headers(dump.layout, cols)
    row_bytes = 4 * cols

    def pack(chunk) -> bytes:
        first, stop, rows = chunk
        raw = memoryview(np.ascontiguousarray(rows, dtype="<f4")).cast("B")
        bounds = ((dump.offsets[first : stop + 1] - dump.offsets[first]) * row_bytes).tolist()
        parts = [b""] * (2 * (stop - first))
        parts[0::2] = headers[first:stop]
        parts[1::2] = map(raw.__getitem__, map(slice, bounds, bounds[1:]))
        return b"".join(parts)

    # map binds no chunk between calls: each chunk's locals go when pack
    # returns, and its bytes once written.
    _atomic_write_chunks(Path(path), chain((head,), map(pack, dump.chunks())))


# The last layout read_embedding_dump walked: (file size, the spans of the
# file's headers, their bytes, layout, column count, the span of each
# sample's values).  Only slices are kept, never the file's bytes.  Empty,
# not None, before the first walk: perfbench's tracer takes a module global
# that is None for one of the functions it wraps.
_last_walk: tuple = ()


def read_embedding_dump(path) -> EmbeddingDump:
    """Read a v1 dump; every sample must share one column count.

    The layout of the last file walked is kept.  A file of the same size
    with the same bytes at that file's header spans would walk exactly as it
    did, so it is not walked again: its values are sliced at the kept spans
    and checked, and its dump shares the kept layout, and with it what the
    layout keeps: scoring's plan, reused while the rows' classes repeat,
    and the writer's packed headers.  Any other file is walked and checked
    in full, and its layout is kept instead if it reads.
    """
    global _last_walk
    with open(path, "rb") as fh:
        blob = fh.read()
    view = memoryview(blob)
    last = _last_walk
    if last and last[0] == len(blob) and b"".join(map(view.__getitem__, last[1])) == last[2]:
        layout, cols, spans = last[3:]
    else:
        layout, cols, spans = _walk_dump(path, blob)
        heads = list(map(slice, [0] + [span.stop for span in spans[:-1]], [span.start for span in spans]))
        last = (len(blob), heads, b"".join(map(view.__getitem__, heads)), layout, cols, spans)
    values = np.frombuffer(b"".join(map(view.__getitem__, spans)), dtype="<f4")
    try:
        dump = EmbeddingDump(layout, values.reshape(layout.offsets[-1], cols))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    _last_walk = last
    return dump


def _walk_dump(path, blob: bytes) -> tuple[DumpLayout, int, list[slice]]:
    """Walk and check a dump's headers: its layout, column count and the span of each sample's values."""
    size = len(blob)
    view = memoryview(blob)

    def truncated(what):
        return FormatError(f"{path}: truncated while reading {what}")

    if size < len(DUMP_MAGIC):
        raise truncated("magic")
    if blob[: len(DUMP_MAGIC)] != DUMP_MAGIC:
        raise FormatError(f"{path}: bad magic, not an embedding dump")
    offset = len(DUMP_MAGIC) + _DUMP_HEADER.size
    if offset > size:
        raise truncated("header")
    version, count = _DUMP_HEADER.unpack_from(blob, len(DUMP_MAGIC))
    if version != DUMP_VERSION:
        raise FormatError(f"{path}: unsupported dump version {version}")
    ids, row_offsets, spans = [], [0], []
    cols = 0
    for i in range(count):
        if offset + _DUMP_ID_LEN.size > size:
            raise truncated(f"id length of sample {i}")
        (id_len,) = _DUMP_ID_LEN.unpack_from(blob, offset)
        offset += _DUMP_ID_LEN.size
        if offset + id_len > size:
            raise truncated(f"id of sample {i}")
        try:
            sid = str(view[offset : offset + id_len], "utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: id of sample {i} is not valid UTF-8: {exc}") from exc
        offset += id_len
        if offset + _DUMP_SHAPE.size > size:
            raise truncated(f"shape of {sid!r}")
        rows, sample_cols = _DUMP_SHAPE.unpack_from(blob, offset)
        offset += _DUMP_SHAPE.size
        if i == 0:
            cols = sample_cols
        elif sample_cols != cols:
            raise FormatError(f"{path}: sample {sid!r} has {sample_cols} columns, sample 0 has {cols}")
        n_bytes = 4 * rows * cols
        if offset + n_bytes > size:
            raise truncated(f"values of {sid!r}")
        spans.append(slice(offset, offset + n_bytes))
        offset += n_bytes
        ids.append(sid)
        row_offsets.append(row_offsets[-1] + rows)
    if offset != size:
        raise FormatError(f"{path}: {size - offset} trailing bytes after declared samples")
    try:
        return DumpLayout(ids, row_offsets), cols, spans
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


# ------------------------------------------------------------- score files


# The ids as JSON strings, escaped once for all of a run's score files.
_json_ids = functools.lru_cache(maxsize=1)(lambda ids: tuple(map(_encode_json_str, ids)))


# The last score file written, and its table: (file bytes, ScoreTable).
# Empty, not None, before the first, as _last_walk is.  The bytes are copied
# into anonymous pages of their own: kept as one long-lived heap block (0.25
# MB at N=2,000), they fragmented the heap under the run loop's larger
# buffers and raised a training run's peak RSS by about 1 MB.
_last_scores: tuple = ()


def write_scores(path, table: ScoreTable) -> None:
    """Score file: one line per sample in rank order, with the score and the raw norm.

    The raw nuclear norm rides along so the next epoch can diff against it;
    for epoch 1 the two values coincide.  Each line is formatted directly
    and is byte for byte what ``_canonical_json_line`` gives for the record
    with ``float`` score and norm (keys sorted, floats as ``float.__repr__``).
    Scores and norms must be finite.  The file's bytes and ``table`` become
    the entry ``read_scores`` serves, the only place it is filled: a
    :class:`ScoreTable` is checked to be exactly what reading them back gives.
    """
    global _last_scores
    _last_scores = ()  # free the kept file's bytes before this file's are built
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
    pages = mmap.mmap(-1, len(payload))
    pages.write(payload)
    _last_scores = (pages, table)


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


def read_scores(path) -> ScoreTable:
    """Read a score file, in any line order, as a table with the ids ascending.

    Each line is checked on its own; then the file must hold one epoch and
    its ranks must be a permutation of 0..N-1.

    The file is read once, as bytes.  Bytes equal to those of the last score
    file this process wrote give that file's table back, the same frozen
    object, unparsed; any other bytes are parsed and checked in full, and
    the kept entry is left as it was.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    last = _last_scores
    # Of equal length, the bytes are found at 0 only if they are equal; find
    # compares them in place, where a slice would copy the pages to the heap.
    if last and len(last[0]) == len(blob) and last[0].find(blob, 0) == 0:
        return last[1]
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
