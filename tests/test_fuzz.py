"""Mutation fuzzing of every reader, and of the commands that read, over writer output.

The inputs are the files a small ``spdcl train`` run and ``write_dataset``
write: a dataset, an embedding dump, a score file, a manifest and a run
config.  Each example applies one to three mutations to one file: a byte
flip, a truncation, a duplicated span, shuffled lines, a float32 NaN or
infinity written over four bytes, or a token inserted at any byte or put in
place of a JSON value (``NaN``, ``1e999``, a 5,000-digit integer,
``\\ud800``, ``true``, a raw U+2028, CR or NEL).

A reader either rejects the file with a ``FormatError`` whose message
starts with the file's path, or returns a value that, written and read
back, is equal to it and writes the same bytes again.  Every read parses
or walks its file: no reader is handed a layout or a written score file.
``score``, ``schedule`` and ``report`` on a mutated input exit 0, or exit 1
with one stderr line in a category the ``spdcl.cli`` docstring gives that
command; they run as one in-process chain, with the CLI's hand-off between
calls.  ``train`` runs on a mutated run config, one field set to a value in
or out of its range and then maybe mutated as above, with the same rule;
``assume`` keeps out configs that load and ask for a long run.
"""

import contextlib
import io
import math
import re
import struct
import warnings

import pytest
from hypothesis import assume, given, settings, strategies as st

from spdcl import cli
from spdcl import io as spdcl_io
from spdcl.cli import main
from spdcl.io import FormatError, RunConfig
from spdcl.synth import make_zipfian_dataset

from tables import table_bits

TOKENS = (b"NaN", b"1e999", b"7" * 5000, b"\\ud800", b"true", "\u2028".encode(), b"\r", "\x85".encode())
STRING_TOKENS = {b"\\ud800", "\u2028".encode(), b"\r", "\x85".encode()}  # put inside quotes when substituted
FLOAT32_NONFINITE = (struct.pack("<f", math.nan), struct.pack("<f", math.inf))  # NaN and 1e999 in a dump
# A JSON scalar after a colon, bracket or comma and at most one space: the value a substitution replaces.
_SCALAR = re.compile(rb'[:\[,] ?("(?:[^"\\\n]|\\.)*"|-?[0-9][0-9.eE+-]*|true|false|null)')


@st.composite
def mutated(draw, blob: bytes) -> bytes:
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("substitute", "flip", "insert", "overwrite", "duplicate", "shuffle", "truncate")))
        at = draw(st.integers(0, len(blob)))
        if kind == "flip" and blob:
            at = min(at, len(blob) - 1)
            blob = blob[:at] + bytes([blob[at] ^ draw(st.integers(1, 255))]) + blob[at + 1 :]
        elif kind == "truncate":
            blob = blob[:at]
        elif kind == "duplicate":
            end, to = draw(st.integers(at, len(blob))), draw(st.integers(0, len(blob)))
            blob = blob[:to] + blob[at:end] + blob[to:]
        elif kind == "shuffle":
            blob = b"".join(draw(st.permutations(blob.splitlines(keepends=True))))
        elif kind == "insert":
            blob = blob[:at] + draw(st.sampled_from(TOKENS)) + blob[at:]
        elif kind == "overwrite":
            blob = blob[:at] + draw(st.sampled_from(FLOAT32_NONFINITE)) + blob[at + 4 :]
        elif kind == "substitute" and (spans := [m.span(1) for m in _SCALAR.finditer(blob)]):
            start, end = draw(st.sampled_from(spans))
            token = draw(st.sampled_from(TOKENS))
            if token in STRING_TOKENS:
                token = b'"a' + token + b'"'
            blob = blob[:start] + token + blob[end:]
    return blob


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """A 2-epoch run directory, with its training split at ``train.jsonl`` beside it."""
    root = tmp_path_factory.mktemp("fuzz")
    train, valid = make_zipfian_dataset(12, 6, n_classes=3, seed=5)
    spdcl_io.write_dataset(root / "train.jsonl", train)
    spdcl_io.write_dataset(root / "valid.jsonl", valid)
    spdcl_io.write_run_config(root / "config.json", RunConfig(bins_k=2, epochs_T=2, batch=4, hidden_d=3, max_len=8))
    assert main(["train", "--dataset", str(root / "train.jsonl"), "--valid", str(root / "valid.jsonl"),
                 "--config", str(root / "config.json"), "--out-dir", str(root / "run")]) == 0
    return root / "run"


def _dump_bits(dump):
    return dump.layout.ids, dump.layout.offsets.tobytes(), dump.values.shape, dump.values.tobytes()


def _plan_bits(plan):
    return plan.epoch, list(plan.ordered_ids), sorted(plan.bin_of.items())


# kind: (its file in the run directory, reader, writer, what equality compares)
READERS = {
    "dataset": ("../train.jsonl", spdcl_io.read_dataset, spdcl_io.write_dataset, list),
    "dump": ("epoch002.embeddings.bin", spdcl_io.read_embedding_dump, spdcl_io.write_embedding_dump, _dump_bits),
    "scores": ("epoch002.scores.jsonl", spdcl_io.read_scores, spdcl_io.write_scores, table_bits),
    "manifest": ("epoch002.manifest.jsonl", spdcl_io.read_manifest, spdcl_io.write_manifest, _plan_bits),
    "config": ("run_config.json", spdcl_io.load_run_config, spdcl_io.write_run_config, lambda c: c),
}


@pytest.mark.parametrize("kind", READERS)
def test_reader_rejects_by_path_or_reads_what_rewrites_canonically(run_dir, kind):
    name, read, write, bits = READERS[kind]
    source = (run_dir / name).read_bytes()
    work = run_dir.parent / f"reader-{kind}"
    work.mkdir(exist_ok=True)
    path, first, second = work / "mutated", work / "first", work / "second"

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(mutated(source))
    def check(blob):
        path.write_bytes(blob)
        try:
            value = read(path)
        except FormatError as exc:
            assert str(exc).startswith(f"{path}:"), str(exc)
            return
        write(first, value)
        again = read(first)
        assert bits(again) == bits(value)
        write(second, again)
        assert second.read_bytes() == first.read_bytes()

    check()


# The categories the spdcl.cli docstring gives each command, for inputs it reads.
CATEGORIES = {
    "score": {"malformed-dump", "malformed-scores", "epoch-mismatch", "sample-mismatch"},
    "schedule": {"malformed-scores", "epoch-mismatch", "invalid-config"},
    "report": {"missing-artifact"},
}


def _argv(command, run_dir, out, epoch, bins):
    if command == "score":
        prev = ["--prev-scores", str(run_dir / "epoch001.scores.jsonl")] if epoch == 2 else []
        return ["score", "--embeddings", str(run_dir / f"epoch00{epoch}.embeddings.bin"), *prev,
                "--epoch", str(epoch), "--out", str(out / "scores.jsonl")]
    if command == "schedule":
        return ["schedule", "--scores", str(run_dir / f"epoch00{epoch}.scores.jsonl"), "--bins", str(bins),
                "--epoch", str(epoch), "--seed", "2", "--out", str(out / "manifest.jsonl")]
    return ["report", "--run-dir", str(run_dir), "--out", str(out / "report.json"), "--csv", str(out / "report.csv")]


# command: the files of its input that a mutation may change
CLI_INPUTS = {
    "score": ("epoch001.embeddings.bin", "epoch002.embeddings.bin", "epoch001.scores.jsonl"),
    "schedule": ("epoch001.scores.jsonl", "epoch002.scores.jsonl"),
    "report": ("run_config.json", "epoch001.report.json", "epoch002.report.json"),
}


@pytest.mark.parametrize("command", CATEGORIES)
def test_command_on_a_mutated_input_exits_0_or_with_one_documented_line(run_dir, command, monkeypatch):
    monkeypatch.setattr(cli, "_handoff", {})  # the chain starts empty, whatever ran before
    out = run_dir.parent / f"cli-{command}"
    sources = {name: (run_dir / name).read_bytes() for name in CLI_INPUTS[command]}

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def check(data):
        name = data.draw(st.sampled_from(CLI_INPUTS[command]))
        epoch = data.draw(st.sampled_from([1, 2]))
        bins = data.draw(st.sampled_from([2, 12]))  # 12: one bin per training sample
        stderr = io.StringIO()
        try:
            (run_dir / name).write_bytes(data.draw(mutated(sources[name])))
            with contextlib.redirect_stderr(stderr):
                code = main(_argv(command, run_dir, out, epoch, bins))
        finally:
            (run_dir / name).write_bytes(sources[name])
        err = stderr.getvalue()
        if code == 0:
            assert err == ""
            return
        assert code == 1 and err.count("\n") == 1 and err.endswith("\n"), err
        category = err.split(":", 2)[1] if err.startswith("error:") else None
        assert category in CATEGORIES[command], err

    check()


# Values a mutated run config may give one field: in and out of each field's
# range, and learning rates that overflow float32, float64, or neither.
CONFIG_VALUES = (b"0", b"1", b"3", b"-1", b"40", b"2.5", b"1e5", b"1e12", b"1e40", b"1e300", b"1e999",
                 b'"rank"', b"true", b"null")
# The categories the spdcl.cli docstring gives train for a config it reads.
TRAIN_CATEGORIES = {"invalid-config", "diverged"}


@st.composite
def config_mutated(draw, blob: bytes) -> bytes:
    """``blob`` with one JSON value set to one of CONFIG_VALUES, then maybe ``mutated``."""
    start, end = draw(st.sampled_from([m.span(1) for m in _SCALAR.finditer(blob)]))
    blob = blob[:start] + draw(st.sampled_from(CONFIG_VALUES)) + blob[end:]
    return draw(mutated(blob)) if draw(st.booleans()) else blob


def test_train_on_a_mutated_config_exits_0_or_with_one_documented_line(run_dir):
    root = run_dir.parent
    config, out = root / "train-config.json", root / "train-run"
    source = (run_dir / "run_config.json").read_bytes()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(config_mutated(source))
    def check(blob):
        config.write_bytes(blob)
        try:
            loaded = spdcl_io.load_run_config(config)
        except FormatError:
            pass  # train must reject it
        else:
            assume(loaded.epochs_T <= 3 and loaded.hidden_d <= 32)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # epochs_T < bins_k
            code = main(["train", "--dataset", str(root / "train.jsonl"), "--valid", str(root / "valid.jsonl"),
                         "--config", str(config), "--out-dir", str(out)])
        err = stderr.getvalue()
        if code == 0:
            assert err == ""
            return
        assert code == 1 and err.count("\n") == 1 and err.endswith("\n"), err
        category = err.split(":", 2)[1] if err.startswith("error:") else None
        assert category in TRAIN_CATEGORIES, err

    check()
