"""Run configuration and utterance manifests for the command-line surface."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields
from typing import get_type_hints

from .a2a import A2aConfig
from .formats import is_finite_number
from .ssl_objectives.trainers import SslConfig

__all__ = ["ValidationError", "ManifestEntry", "read_manifest", "SslData", "A2aData",
           "load_train_config", "TRAIN_OBJECTIVES"]

TRAIN_OBJECTIVES = ("wav2vec2", "hubert", "data2vec", "ctc", "a2a-mtl")


class ValidationError(ValueError):
    """Bad config, manifest or arguments; maps to exit code 2."""


@dataclass
class ManifestEntry:
    utt_id: str
    paths: dict
    metadata: dict = field(default_factory=dict)


def read_manifest(path, allow_empty: bool = False) -> list:
    """JSONL manifest: one {"utt_id", "path" or "paths", "metadata"?} per line."""
    entries = []
    seen = set()
    base = os.path.dirname(os.path.abspath(path))
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValidationError(f"{path}:{line_no}: invalid JSON: {e}") from None
            if not isinstance(obj, dict):
                raise ValidationError(f"{path}:{line_no}: an entry must be a JSON object, "
                                      f"got {obj!r}")
            if "utt_id" not in obj:
                raise ValidationError(f"{path}:{line_no}: missing utt_id")
            utt_id = obj["utt_id"]
            if not isinstance(utt_id, str):
                raise ValidationError(f"{path}:{line_no}: utt_id must be a string, "
                                      f"got {utt_id!r}")
            if utt_id in seen:
                raise ValidationError(f"{path}:{line_no}: duplicate utt_id {utt_id!r}")
            seen.add(utt_id)
            if "paths" in obj:
                paths = obj["paths"]
            elif "path" in obj:
                paths = {"default": obj["path"]}
            else:
                raise ValidationError(f"{path}:{line_no}: missing path/paths")
            metadata = obj.get("metadata", {})
            for key, value in (("paths", paths), ("metadata", metadata)):
                if not isinstance(value, dict):
                    raise ValidationError(f"{path}:{line_no}: {key} must be an object, "
                                          f"got {value!r}")
            resolved = {}
            for k, p in paths.items():
                if not isinstance(p, str):
                    raise ValidationError(f"{path}:{line_no}: {k} path must be a string, "
                                          f"got {p!r}")
                resolved[k] = p if os.path.isabs(p) else os.path.join(base, p)
                if not os.path.exists(resolved[k]):
                    raise ValidationError(f"{path}:{line_no}: {k} file not found: "
                                          f"{resolved[k]}")
            entries.append(ManifestEntry(utt_id, resolved, dict(metadata)))
    if not entries and not allow_empty:
        raise ValidationError(f"{path}: empty manifest")
    return entries


def _check_keys(obj: dict, allowed: set, context: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ValidationError(f"{context}: unknown keys {sorted(unknown)}")


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


_TOP_KEYS = {"objective", "seed", "epochs", "lr", "out_model", "log", "resume",
             "stop_after_epoch", "model", "data"}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", list: "a list",
               str | None: "a string or null"}


def _is(value, kind) -> bool:
    """Whether a JSON value has a field's type: float takes any finite number
    and int no bool."""
    if kind is int:
        return type(value) is int
    if kind is float:
        return is_finite_number(value)
    return isinstance(value, kind)


def _allows(metadata, value) -> bool:
    """Whether a value of a field's type lies in the `range` of the field's
    metadata: a tuple of choices, or an interval such as "[0, 1)"; a list
    holds `length` numbers in the interval, not all 0."""
    allowed = metadata.get("range")
    if isinstance(value, list):
        return (len(value) == metadata["length"] and any(value)
                and all(_is(v, float) and _allows(metadata, v) for v in value))
    if allowed is None or isinstance(allowed, tuple):
        return allowed is None or value in allowed
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
    give each key's type and, in their metadata, its range."""
    if not isinstance(section, dict):
        raise ValidationError(f"{path}: {name} must be an object, got {section!r}")
    schema, types = {f.name: f for f in fields(cls)}, get_type_hints(cls)
    _check_keys(section, set(schema) - set(fixed), f"{path}: {name}")
    for key, value in section.items():
        _check(path, f"{name}.{key}", value, types[key], schema[key].metadata)
    return cls(**fixed, **section)


def load_train_config(path) -> dict:
    """Parse and fully validate a training config before any side effects;
    `model` and `data` become the dataclasses that hold each key's default."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path}: invalid JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    _check_keys(cfg, _TOP_KEYS, path)

    objective = cfg.get("objective")
    _check(path, "objective", objective, str, {"range": TRAIN_OBJECTIVES})
    if "seed" not in cfg:
        raise ValidationError(f"{path}: an integer seed is mandatory")
    if "out_model" not in cfg:
        raise ValidationError(f"{path}: out_model is required")
    cfg.setdefault("epochs", 10)
    cfg.setdefault("lr", 3e-3)
    cfg.setdefault("log", None)
    cfg.setdefault("resume", None)
    cfg.setdefault("stop_after_epoch", None)
    _check(path, "seed", cfg["seed"], int, {"range": "[0, inf)"})
    _check(path, "epochs", cfg["epochs"], int, {"range": "[0, inf)"})
    _check(path, "lr", cfg["lr"], float, {"range": "[0, inf)"})
    if cfg["stop_after_epoch"] is not None:
        _check(path, "stop_after_epoch", cfg["stop_after_epoch"], int,
               {"range": f"[1, {cfg['epochs']}]"})

    model, data, fixed = ((A2aConfig, A2aData, {}) if objective == "a2a-mtl"
                          else (SslConfig, SslData, {"objective": objective}))
    cfg["model"] = _section(path, "model", cfg.get("model", {}), model, **fixed)
    cfg["data"] = _section(path, "data", cfg.get("data", {}), data)
    if cfg["data"].kind == "manifest" and not cfg["data"].manifest:
        raise ValidationError(f"{path}: data.kind=manifest requires data.manifest")
    _check(path, "resume", cfg["resume"], str | None, {})
    if cfg["resume"] is not None and not os.path.exists(cfg["resume"]):
        raise ValidationError(f"{path}: resume checkpoint not found: {cfg['resume']}")

    for key in ("out_model", "log"):
        target = cfg[key]
        _check(path, key, target, str if key == "out_model" else str | None, {})
        if target is None:
            continue
        out_dir = os.path.dirname(os.path.abspath(target))
        if not os.path.isdir(out_dir):
            raise ValidationError(f"{path}: output directory of {key} {target} "
                                  f"does not exist: {out_dir}")
    env_seed = os.environ.get("ASRFUSE_SEED")
    if env_seed is not None:
        try:
            cfg["seed"] = int(env_seed)
        except ValueError:
            raise ValidationError(f"{path}: ASRFUSE_SEED must be an integer, "
                                  f"got {env_seed!r}") from None
        _check(path, "seed from ASRFUSE_SEED", cfg["seed"], int, {"range": "[0, inf)"})
    return cfg
