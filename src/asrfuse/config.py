"""Run configuration and utterance manifests for the command-line surface."""

from __future__ import annotations

import os
from dataclasses import MISSING, dataclass, field, fields
from types import UnionType
from typing import get_type_hints

from .a2a import A2aConfig
from .errors import ValidationError
from .formats import is_finite_number, jsonl_records, parse_json
from .ssl_objectives.trainers import OBJECTIVES, SslConfig

__all__ = ["ManifestEntry", "read_manifest", "RunConfig", "SslData", "A2aData",
           "read_model_config", "load_train_config", "TRAIN_OBJECTIVES"]

TRAIN_OBJECTIVES = (*OBJECTIVES, "a2a-mtl")


@dataclass
class ManifestEntry:
    utt_id: str
    paths: dict
    metadata: dict = field(default_factory=dict)


def read_manifest(path, keys=("default",), allow_empty: bool = False) -> list:
    """JSONL manifest: one {"utt_id", "path" or "paths", "metadata"?} per line.
    Each entry must name a file under each of `keys`; `default` is the key of
    an entry's single `path`."""
    entries = []
    base = os.path.dirname(os.path.abspath(path))
    for where, obj in jsonl_records(path):
        utt_id = obj["utt_id"]
        if "paths" in obj:
            paths = obj["paths"]
        elif "path" in obj:
            paths = {"default": obj["path"]}
        else:
            raise ValidationError(f"{where}: missing path/paths")
        metadata = obj.get("metadata", {})
        _check(where, "paths", paths, dict, {})
        _check(where, "metadata", metadata, dict, {})
        resolved = {}
        for k, p in paths.items():
            _check(where, f"{k} path", p, str, {})
            resolved[k] = p if os.path.isabs(p) else os.path.join(base, p)
            if not os.path.exists(resolved[k]):
                raise ValidationError(f"{where}: {k} file not found: {resolved[k]}")
        for key in keys:
            if key not in resolved:
                raise ValidationError(f"{path}: {utt_id} has no {key!r} path, "
                                      f"only paths {sorted(resolved)}")
        entries.append(ManifestEntry(utt_id, resolved, dict(metadata)))
    if not entries and not allow_empty:
        raise ValidationError(f"{path}: empty manifest")
    return entries


@dataclass
class DataSource:
    """Where a run's training data comes from: synthetic, or a JSONL manifest."""
    kind: str = field(default="synthetic", metadata={"range": ("synthetic", "manifest")})
    manifest: str = ""


@dataclass
class SslData(DataSource):
    """The `data` section of an SSL or CTC run config."""
    n_utts: int = field(default=2, metadata={"range": "[1, inf)"})
    frames_per_utt: int = field(default=50, metadata={"range": "[2, inf)"})


@dataclass
class A2aData(DataSource):
    """The `data` section of an a2a-mtl run config."""
    num_frames: int = field(default=2000, metadata={"range": "[16, inf)"})
    noise_sigma: float = field(default=0.05, metadata={"range": "[0, inf)"})
    n_utts: int = field(default=1, metadata={"range": "[1, inf)"})
    max_freq: float = field(default=0.05, metadata={"range": "[0.005, inf)"})


@dataclass
class RunConfig:
    """The top level of a `train` run config.  `model` and `data` are read as
    JSON objects; `load_train_config` parses them into the objective's
    `SslConfig` or `A2aConfig` and `SslData` or `A2aData`."""
    objective: str = field(metadata={"range": TRAIN_OBJECTIVES})
    seed: int = field(metadata={"range": "[0, inf)"})
    out_model: str
    epochs: int = field(default=10, metadata={"range": "[0, inf)"})
    lr: float = field(default=3e-3, metadata={"range": "[0, inf)"})
    log: str | None = None
    resume: str | None = None
    stop_after_epoch: int | None = field(default=None, metadata={"range": "[1, inf)"})
    model: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)


_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", list: "a list",
               dict: "an object", str | None: "a string or null",
               int | None: "an integer or null"}


def _is(value, kind) -> bool:
    """Whether a JSON value has a field's type: float takes any finite number,
    int no bool, and `X | None` null or an X."""
    if kind is int:
        return type(value) is int
    if kind is float:
        return is_finite_number(value)
    if isinstance(kind, UnionType):
        return value is None or _is(value, kind.__args__[0])
    return isinstance(value, kind)


def _allows(metadata, value) -> bool:
    """Whether a value of a field's type lies in the `range` of the field's
    metadata: a tuple of choices, or an interval such as "[0, 1)"; a list
    holds `length` numbers in the interval, not all 0."""
    allowed = metadata.get("range")
    if isinstance(value, list):
        return (len(value) == metadata["length"] and any(value)
                and all(_is(v, float) and _allows(metadata, v) for v in value))
    if allowed is None or value is None:
        return True
    if isinstance(allowed, tuple):
        return value in allowed
    low, high = (float(x) for x in allowed[1:-1].split(","))
    return ((low <= value if allowed[0] == "[" else low < value)
            and (value <= high if allowed[-1] == "]" else value < high))


def _check(path, key: str, value, kind, metadata):
    if not (_is(value, kind) and _allows(metadata, value)):
        allowed = f" in {metadata['range']}" if "range" in metadata else ""
        if "length" in metadata:
            allowed = f" of {metadata['length']} numbers{allowed}, not all 0"
        raise ValidationError(f"{path}: {key} must be {_TYPE_NAMES[kind]}{allowed}, "
                              f"got {value!r}")


def _section(path, name: str, section, cls, **fixed):
    """`section` parsed into the dataclass `cls`, whose fields not in `fixed`
    give each key's type, default and, in their metadata, its range; `name`
    is the section's key, "" for the top level."""
    _check(path, name or "config", section, dict, {})
    where, prefix = (f"{path}: {name}", f"{name}.") if name else (path, "")
    schema = {f.name: f for f in fields(cls) if f.name not in fixed}
    types = get_type_hints(cls)
    unknown = set(section) - set(schema)
    if unknown:
        raise ValidationError(f"{where}: unknown keys {sorted(unknown)}")
    for key, f in schema.items():
        if key in section:
            _check(path, prefix + key, section[key], types[key], f.metadata)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ValidationError(f"{path}: {prefix}{key} is required")
    return cls(**fixed, **section)


def read_model_config(path, name: str, section, cls, **fixed):
    """A run config's `model` or a checkpoint's `hyperparameters.config`,
    parsed by `_section` into `cls`, `SslConfig` or `A2aConfig`, then checked
    against the rules that tie one model key to another."""
    model = _section(path, name, section, cls, **fixed)
    if cls is SslConfig and model.d_model % model.n_heads:
        raise ValidationError(f"{path}: {name}.d_model must be a multiple of {name}.n_heads "
                              f"({model.n_heads}), got {model.d_model}")
    if cls is SslConfig and model.objective == "data2vec" and model.top_k > model.n_blocks:
        raise ValidationError(f"{path}: {name}.top_k must be at most {name}.n_blocks "
                              f"({model.n_blocks}) for data2vec, got {model.top_k}")
    return model


def _check_across(path, run: RunConfig):
    """The rules that tie one key's range to another's, checked once every
    section is parsed; each message names both keys."""
    model, data = run.model, run.data
    if run.stop_after_epoch is not None and run.stop_after_epoch > run.epochs:
        raise ValidationError(f"{path}: stop_after_epoch must be at most epochs "
                              f"({run.epochs}), got {run.stop_after_epoch}")
    if data.kind == "manifest" and not data.manifest:
        raise ValidationError(f"{path}: data.kind=manifest requires data.manifest")
    if run.objective == "a2a-mtl":
        if data.kind == "synthetic" and model.d_acoustic < model.d_articulatory:
            raise ValidationError(f"{path}: model.d_acoustic must be at least "
                                  f"model.d_articulatory ({model.d_articulatory}) for "
                                  f"synthetic data, got {model.d_acoustic}")
        return
    if run.objective != "ctc" and run.epochs > 0 and model.mask_probability == 0:
        raise ValidationError(f"{path}: model.mask_probability must be > 0 when objective "
                              f"is {run.objective} and epochs > 0, "
                              f"got {model.mask_probability!r}")
    frames = data.n_utts * data.frames_per_utt
    if run.objective == "hubert" and data.kind == "synthetic" and model.entries > frames:
        raise ValidationError(f"{path}: model.entries must be at most the {frames} frames of "
                              f"data.n_utts x data.frames_per_utt, got {model.entries}")


def load_train_config(path) -> RunConfig:
    """Parse and fully validate a training config before any side effects;
    each section becomes the dataclass that holds each key's default."""
    with open(path, "rb") as fh:
        raw = parse_json(path, "JSON", fh.read())
    run = _section(path, "", raw, RunConfig)
    model, data, fixed = ((A2aConfig, A2aData, {}) if run.objective == "a2a-mtl"
                          else (SslConfig, SslData, {"objective": run.objective}))
    run.model = read_model_config(path, "model", run.model, model, **fixed)
    run.data = _section(path, "data", run.data, data)
    _check_across(path, run)

    if run.resume is not None and not os.path.exists(run.resume):
        raise ValidationError(f"{path}: resume checkpoint not found: {run.resume}")
    env_seed = os.environ.get("ASRFUSE_SEED")
    if env_seed is not None:
        try:
            run.seed = int(env_seed)
        except ValueError:
            raise ValidationError(f"{path}: ASRFUSE_SEED must be an integer, "
                                  f"got {env_seed!r}") from None
        _check(path, "seed from ASRFUSE_SEED", run.seed, int, {"range": "[0, inf)"})
    return run
