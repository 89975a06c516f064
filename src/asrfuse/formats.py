"""Bit-exact file formats, all little-endian.

AFM1   feature matrix: magic, u32 rows, u32 cols, f32 frame_period_ms,
       row-major f32 data.
FSS1   frame-score stream: magic, u32 T, u32 |V|, f32 frame_period_ms,
       u32 inventory-blob length, UTF-8 JSON token array, T*|V| f32 scores.
NBEST  JSON Lines, one object per utterance.
TSV    transcripts with a header row: utt_id, text, then metadata columns.
MDL1   model file: magic, u32 header length, JSON header (architecture,
       hyperparameters, seed, parameter manifest), then f64 parameter blobs
       concatenated in manifest order.

All writers are atomic: data goes to a temp file in the target directory and
is renamed into place.  The AFM1, FSS1 and NBEST writers take a `stage`, so
that a command renames all its files into place only after the last is
written.  The records `FrameScoreStream`, `Hypothesis` and `NBestList` check
their own rules when they are built, so a record that is not changed after
it is built fits its file, a reader only builds them and puts the file and
line in front of a message, and a writer adds only the rules of its
encoding: AFM1 and FSS1 reject a value or frame period that float32 cannot
hold, JSON is RFC 8259 JSON, with no NaN or infinity, and the NBEST and TSV
writers call `_check_utt_id`, the one utt_id rule of every NBEST, manifest
and TSV reader and writer.  No reader returns, and no writer writes,
a string that holds a lone UTF-16 surrogate.  Each writer checks its whole
input before it creates its temp file.
"""

from __future__ import annotations

import json
import math
import os
import re
import struct
from contextlib import contextmanager, suppress
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .features import FeatureSequence

__all__ = [
    "FrameScoreStream",
    "Hypothesis",
    "NBestList",
    "atomic_write",
    "staged",
    "dump_json",
    "write_afm1",
    "read_afm1",
    "write_fss1",
    "read_fss1",
    "write_nbest",
    "jsonl_records",
    "read_nbest",
    "write_transcripts_tsv",
    "read_transcripts_tsv",
    "write_mdl1",
    "read_mdl1",
]


@contextmanager
def atomic_write(path, mode: str = "wb", stage: list | None = None):
    """Write to a temp file next to `path`, then rename it into place.  With
    a `stage` from `staged`, the temp file is only added to it, and the
    stage renames it at the end of its block.  The temp file is created the
    way `open` creates a file, so the kernel gives it the umask's mode; the
    umask is never read, since reading it means setting it, process-wide."""
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path) or ".", f".tmp-{os.urandom(8).hex()}~")
    fh = open(tmp, mode.replace("w", "x"))  # "x" fails where a file of that name exists
    try:
        with fh:
            yield fh
        if stage is None:
            os.replace(tmp, path)
        else:
            stage.append((tmp, path))
    except BaseException:
        os.unlink(tmp)
        raise


@contextmanager
def staged():
    """A stage for the `atomic_write`s of a block that writes several files:
    each stays a temp file until the block ends, and then all of them are
    renamed into place, in the order they were written.  If the block
    raises, every temp file is removed and no target is touched.  Threads
    may share one stage."""
    stage = []  # (temp file, target path)
    try:
        yield stage
        while stage:
            os.replace(*stage[0])
            del stage[0]
    finally:
        for tmp, _ in stage:
            with suppress(FileNotFoundError):
                os.unlink(tmp)


def dump_json(where, value, **options) -> str:
    """`json.dumps(value, **options)` kept to RFC 8259 JSON: where it would
    write `NaN` or `Infinity`, it raises naming `where`."""
    try:
        return json.dumps(value, allow_nan=False, **options)
    except ValueError as e:
        raise ValidationError(f"{where}: {e}") from None


def _to_float32(where, what: str, values: np.ndarray, period: float) -> np.ndarray:
    """`values` as the little-endian float32 that AFM1 and FSS1 store.  A finite
    value or frame `period` that the cast makes infinite (or a period it makes
    0), which the reader would reject, raises naming `where`, and a value its
    row.  The result is C-contiguous, so a writer writes its buffer as it is."""
    with np.errstate(over="ignore"):  # reported below, naming the value
        if not 0 < np.float32(period) < math.inf:
            raise ValidationError(f"{where}: frame_period_ms {float(period)!r} "
                                  "does not fit float32")
        cast = values.astype("<f4", order="C")
    if not np.isfinite(cast).all():
        row, col = np.argwhere(~np.isfinite(cast))[0]
        raise ValidationError(f"{where}: {what} {float(values[row, col])!r} in frame {row} "
                              "does not fit float32")
    return cast


def _read_exact(fh, n: int, what: str) -> bytes:
    """The next `n` bytes of a binary file.  A file shorter than its header
    says raises naming it, before a buffer of `n` bytes is allocated."""
    if n > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ValidationError(f"{fh.name}: truncated file while reading {what}")
    return fh.read(n)


def _unique_keys(pairs: list) -> dict:
    """A JSON object's dict; a key named twice raises ValueError naming it."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        repeated = next(k for i, k in enumerate(keys) if k in keys[:i])
        raise ValueError(f"key {repeated!r} repeated in one object")
    return obj


# a JSON escape of a UTF-16 surrogate, the one way a str that UTF-8 cannot
# encode gets past a strict UTF-8 decode; `parse_json` searches only a text
# that holds a backslash, as `in` rules one out 40x faster than the search
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def parse_json(where, what: str, data):
    """The JSON value in `data`, a str or UTF-8 bytes, read from `where`.
    Invalid UTF-8 or JSON, an object that names a key twice, nesting deeper
    than the decoder's recursion limit, or a key or string that holds a
    lone UTF-16 surrogate, raises naming `where` and `what`."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        value = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as e:  # ValueError: UnicodeDecodeError, JSONDecodeError
        raise ValidationError(f"{where}: invalid {what}: {e}") from None
    if "\\" in text and _SURROGATE_ESCAPE.search(text):  # else every string encodes
        pending = [value]
        while pending:
            item = pending.pop()
            if isinstance(item, str):
                _check_encodable(f"{where}: invalid {what}: string", item)
            elif isinstance(item, dict):
                pending += [*item, *item.values()]
            elif isinstance(item, list):
                pending += item
    return value


def _read_json(fh, n: int, what: str):
    """The UTF-8 JSON value in the next `n` bytes of a binary file."""
    return parse_json(fh.name, what, _read_exact(fh, n, what))


def _text_lines(path):
    """The lines of a UTF-8 text file; a byte that is not UTF-8 raises naming
    the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as e:
            raise ValidationError(f"{path}: invalid UTF-8: {e.reason}") from None


def _check_magic(fh, magic: bytes, path):
    got = fh.read(4)
    if got != magic:
        raise ValidationError(f"{path}: bad magic {got!r}, expected {magic!r}")


def is_finite_number(value) -> bool:
    """An int or float, as JSON writes and reads a number, that is finite as
    a float; no bool counts."""
    try:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an int too large for a float
        return False


def _is_string_list(value) -> bool:
    """A list of str; `str.join` checks every item's type in C."""
    try:
        return isinstance(value, list) and isinstance("".join(value), str)
    except TypeError:
        return False


def _check_encodable(what: str, text: str):
    """Raises on a lone UTF-16 surrogate in `text`, which no UTF-8 file can
    hold, naming it as `what`."""
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise ValidationError(f"{what} {text!r} holds a lone UTF-16 surrogate, "
                                  "which UTF-8 cannot encode") from None


def _reject_tsv_breaks(what: str, text: str):
    """Raises on a tab, CR or LF in `text`, which would split the transcript
    TSV cell it can reach, and on a string that `_check_encodable` rejects."""
    if "\t" in text or "\r" in text or "\n" in text:
        raise ValidationError(f"{what} {text!r} holds a tab, CR or LF, "
                              "which would break a transcript TSV")
    _check_encodable(what, text)


def _check_utt_id(where, utt_id, seen: set):
    """The one rule for an `utt_id`, which `jsonl_records`, `write_nbest`,
    `write_transcripts_tsv` and `read_transcripts_tsv` share: a string
    without a tab, CR or LF, not in `seen`; it is then added to `seen`."""
    if not isinstance(utt_id, str):
        raise ValidationError(f"{where}: utt_id must be a string, got {utt_id!r}")
    _reject_tsv_breaks(f"{where}: utt_id", utt_id)
    if utt_id in seen:
        raise ValidationError(f"{where}: duplicate utt_id {utt_id!r}")
    seen.add(utt_id)


@dataclass
class FrameScoreStream:
    """Per-frame log-likelihoods over a shared token inventory."""

    utt_id: str
    tokens: list
    scores: np.ndarray
    frame_period_ms: float = 10.0

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if not _is_string_list(self.tokens):
            raise ValidationError(f"{self.utt_id}: FSS1 inventory must be a list of strings")
        for token in self.tokens:
            _reject_tsv_breaks(f"{self.utt_id}: FSS1 inventory token", token)
        if not self.tokens:
            raise ValidationError(f"{self.utt_id}: empty token inventory")
        if self.scores.ndim != 2 or self.scores.shape[0] < 1:
            raise ValidationError(f"{self.utt_id}: scores must be (T, |V|) with T >= 1")
        if self.scores.shape[1] != len(self.tokens):
            raise ValidationError(f"{self.utt_id}: {self.scores.shape[1]} score columns for "
                                  f"{len(self.tokens)} tokens")
        if not np.isfinite(self.scores).all():
            raise ValidationError(f"{self.utt_id}: non-finite scores")
        if not 0 < self.frame_period_ms < math.inf:
            raise ValidationError(f"{self.utt_id}: frame_period_ms must be finite and > 0, "
                                  f"got {self.frame_period_ms}")

    @property
    def num_frames(self):
        return self.scores.shape[0]

    def argmax_tokens(self) -> list:
        """Greedy per-frame readout; ties go to the lowest token index."""
        return [self.tokens[i] for i in self.scores.argmax(axis=1)]


@dataclass
class Hypothesis:
    """An N-best entry: a text that fits a transcript TSV cell, string tokens
    and finite costs named by strings, none of which holds a lone surrogate.
    A message names the field, not the rank."""

    text: str
    tokens: list
    scores: dict

    def __post_init__(self):
        if not isinstance(self.text, str):
            raise ValidationError(f"text must be a string, got {self.text!r}")
        _reject_tsv_breaks("text", self.text)
        if not _is_string_list(self.tokens):
            raise ValidationError(f"tokens must be a list of strings, got {self.tokens!r}")
        if not isinstance(self.scores, dict):
            raise ValidationError(f"scores must be a JSON object, got {self.scores!r}")
        for name, value in self.scores.items():
            if not isinstance(name, str):
                raise ValidationError(f"score name {name!r} is not a string")
            if not is_finite_number(value):
                raise ValidationError(f"score {name!r} is not a finite number: {value!r}")
        if not "".join([*self.tokens, *self.scores]).isascii():  # else every one encodes
            for what, names in (("token", self.tokens), ("score name", self.scores)):
                for name in names:
                    _check_encodable(what, name)


@dataclass
class NBestList:
    """An utterance's hypotheses in rank order: one or more, one score-name set."""

    utt_id: str
    hyps: list

    def __post_init__(self):
        if len(self.hyps) < 1:
            raise ValidationError(f"{self.utt_id}: empty N-best list")
        names = set(self.hyps[0].scores)
        for i, h in enumerate(self.hyps[1:], start=1):
            if set(h.scores) != names:
                raise ValidationError(f"{self.utt_id}: hypothesis {i} score names "
                                      f"{sorted(h.scores)} differ from {sorted(names)}")


# -- AFM1 ----------------------------------------------------------------------

def write_afm1(path, seq: FeatureSequence, stage: list | None = None):
    rows, cols = seq.frames.shape
    data = _to_float32(path, "feature", seq.frames, seq.frame_period_ms)
    with atomic_write(path, stage=stage) as fh:
        fh.write(b"AFM1")
        fh.write(struct.pack("<IIf", rows, cols, float(seq.frame_period_ms)))
        fh.write(data)


def read_afm1(path, label: str = "FBK") -> FeatureSequence:
    with open(path, "rb") as fh:
        _check_magic(fh, b"AFM1", path)
        rows, cols, period = struct.unpack("<IIf", _read_exact(fh, 12, "AFM1 header"))
        data = np.frombuffer(
            _read_exact(fh, 4 * rows * cols, "AFM1 data"), dtype="<f4"
        ).reshape(rows, cols)
    try:
        return FeatureSequence(data.astype(np.float64), float(period), label=label)
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}") from None


# -- FSS1 ----------------------------------------------------------------------

def write_fss1(path, stream: FrameScoreStream, stage: list | None = None):
    t, v = stream.scores.shape
    scores = _to_float32(f"{path}: {stream.utt_id}", "score", stream.scores,
                         stream.frame_period_ms)
    blob = dump_json(path, stream.tokens, ensure_ascii=False).encode("utf-8")
    with atomic_write(path, stage=stage) as fh:
        fh.write(b"FSS1")
        fh.write(struct.pack("<IIfI", t, v, float(stream.frame_period_ms), len(blob)))
        fh.write(blob)
        fh.write(scores)


def read_fss1(path, utt_id: str | None = None) -> FrameScoreStream:
    with open(path, "rb") as fh:
        _check_magic(fh, b"FSS1", path)
        t, v, period, blob_len = struct.unpack(
            "<IIfI", _read_exact(fh, 16, "FSS1 header")
        )
        tokens = _read_json(fh, blob_len, "FSS1 inventory")
        scores = np.frombuffer(
            _read_exact(fh, 4 * t * v, "FSS1 scores"), dtype="<f4"
        ).reshape(t, v)
    utt_id = os.path.splitext(os.path.basename(path))[0] if utt_id is None else utt_id
    try:
        return FrameScoreStream(utt_id, tokens, scores.astype(np.float64), float(period))
    except ValidationError as e:
        raise ValidationError(f"{path}: {e}") from None


# -- NBEST ----------------------------------------------------------------------

def write_nbest(path, lists: list, stage: list | None = None):
    seen = set()
    for nb in lists:
        _check_utt_id(path, nb.utt_id, seen)
    with atomic_write(path, "w", stage=stage) as fh:
        for nb in lists:
            obj = {"utt_id": nb.utt_id,
                   "hyps": [{"text": h.text, "tokens": h.tokens, "scores": h.scores}
                            for h in nb.hyps]}
            fh.write(dump_json(path, obj, ensure_ascii=False, sort_keys=True) + "\n")


def jsonl_records(path):
    """The records of a JSON Lines file keyed by `utt_id`, as ("path:line",
    object) pairs; blank lines are skipped.  Raises on invalid UTF-8 or JSON,
    on a record that is not an object or lacks a `utt_id`, and on an
    `utt_id` that `_check_utt_id` rejects."""
    seen = set()
    for line_no, line in enumerate(_text_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        where = f"{path}:{line_no}"
        obj = parse_json(where, "JSON", line)
        if not isinstance(obj, dict):
            raise ValidationError(f"{where}: an entry must be a JSON object, got {obj!r}")
        if "utt_id" not in obj:
            raise ValidationError(f"{where}: missing key 'utt_id'")
        _check_utt_id(where, obj["utt_id"], seen)
        yield where, obj


def read_nbest(path) -> list:
    lists = []
    for where, obj in jsonl_records(path):
        try:
            hyps = []
            for i, h in enumerate(obj["hyps"]):
                try:
                    hyps.append(Hypothesis(h["text"], h["tokens"], h["scores"]))
                except ValidationError as e:
                    raise ValidationError(f"hypothesis {i} {e}") from None
            lists.append(NBestList(obj["utt_id"], hyps))
        except KeyError as e:
            raise ValidationError(f"{where}: missing key {e.args[0]!r}") from None
        except TypeError as e:
            raise ValidationError(f"{where}: malformed record: {e}") from None
        except ValidationError as e:
            raise ValidationError(f"{where}: {e}") from None
    return lists


# -- TSV transcripts --------------------------------------------------------------

def write_transcripts_tsv(path, rows: list):
    """rows: list of (utt_id, text, metadata dict); the metadata columns are
    the sorted union of the rows' keys.  A cell that holds a tab, CR or LF,
    header included, a column named twice and a repeated utt_id raise, as
    `read_transcripts_tsv` would."""
    keys = set()
    for _, _, meta in rows:
        keys.update(meta)
    header = ["utt_id", "text"] + sorted(keys)
    _check_header(path, header)
    for name in header:
        _reject_tsv_breaks(f"{path}: TSV column name", name)
    lines, seen = ["\t".join(header)], set()
    for utt_id, text, meta in rows:
        _check_utt_id(path, utt_id, seen)
        cells = [utt_id, text] + [str(meta.get(k, "")) for k in header[2:]]
        for name, cell in zip(header[1:], cells[1:]):
            _reject_tsv_breaks(f"{path}: {utt_id}: {name} cell", cell)
        lines.append("\t".join(cells))
    with atomic_write(path, "w") as fh:
        for line in lines:
            fh.write(line + "\n")


def _check_header(path, header: list):
    """The TSV rule for a header row, which the reader and the writer share:
    it starts with utt_id, text and names no column twice."""
    if header[:2] != ["utt_id", "text"]:
        raise ValidationError(f"{path}: TSV header must start with utt_id, text")
    repeated = next((name for i, name in enumerate(header) if name in header[:i]), None)
    if repeated is not None:
        raise ValidationError(f"{path}: TSV header names column {repeated!r} twice")


def read_transcripts_tsv(path):
    """Returns (texts: utt_id -> text, metadata: utt_id -> dict)."""
    texts, metadata, seen = {}, {}, set()
    lines = _text_lines(path)
    header = next(lines, "").rstrip("\n").split("\t")
    _check_header(path, header)
    meta_cols = header[2:]
    for line_no, line in enumerate(lines, start=2):
        line = line.rstrip("\n")
        if not line:
            continue
        cells = line.split("\t")
        if len(cells) != len(header):
            raise ValidationError(f"{path}:{line_no}: expected {len(header)} columns")
        utt_id = cells[0]
        _check_utt_id(f"{path}:{line_no}", utt_id, seen)
        texts[utt_id] = cells[1]
        metadata[utt_id] = dict(zip(meta_cols, cells[2:]))
    return texts, metadata


# -- MDL1 -------------------------------------------------------------------------

def write_mdl1(path, kind: str, hyperparameters: dict, seed: int, named_arrays: list):
    """named_arrays: ordered (name, float64 ndarray) pairs."""
    manifest = [{"name": n, "shape": list(np.asarray(a).shape)} for n, a in named_arrays]
    header = {
        "format": "MDL1",
        "kind": kind,
        "hyperparameters": hyperparameters,
        "seed": seed,
        "params": manifest,
    }
    blob = dump_json(path, header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_write(path) as fh:
        fh.write(b"MDL1")
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for _, a in named_arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def _check_manifest(path, header):
    """Checks an MDL1 header's layout: a JSON object whose `params` lists
    one object per blob, with a unique string `name` and a `shape` of
    non-negative integers."""
    if not isinstance(header, dict):
        raise ValidationError(f"{path}: the MDL1 header must be a JSON object")
    params = header.get("params")
    if not isinstance(params, list):
        raise ValidationError(f"{path}: params must be a list, got {params!r}")
    names = set()
    for i, entry in enumerate(params):
        if not isinstance(entry, dict):
            raise ValidationError(f"{path}: params[{i}] must be an object, got {entry!r}")
        name, shape = entry.get("name"), entry.get("shape")
        if not isinstance(name, str) or name in names:
            raise ValidationError(f"{path}: params[{i}].name must be a string not named "
                                  f"before, got {name!r}")
        if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
            raise ValidationError(f"{path}: params[{i}].shape must be a list of non-negative "
                                  f"integers, got {shape!r}")
        names.add(name)


def read_mdl1(path):
    """Returns (header dict, name -> float64 ndarray).  Only the header's
    layout is checked here; `models.load_checkpoint` checks its other keys."""
    with open(path, "rb") as fh:
        _check_magic(fh, b"MDL1", path)
        (blob_len,) = struct.unpack("<I", _read_exact(fh, 4, "MDL1 header length"))
        header = _read_json(fh, blob_len, "MDL1 header")
        _check_manifest(path, header)
        arrays = {}
        for entry in header["params"]:
            shape = tuple(entry["shape"])
            raw = _read_exact(fh, 8 * math.prod(shape), f"MDL1 blob {entry['name']}")
            array = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
            if not np.isfinite(array).all():
                raise ValidationError(f"{path}: MDL1 blob {entry['name']} holds non-finite values")
            arrays[entry["name"]] = array
    return header, arrays
