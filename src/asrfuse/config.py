"""Run configuration and utterance manifests for the command-line surface."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields

from .ssl_objectives.trainers import SslConfig

__all__ = ["ValidationError", "ManifestEntry", "read_manifest", "load_train_config",
           "TRAIN_OBJECTIVES"]

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


_TOP_KEYS = {"objective", "seed", "epochs", "lr", "out_model", "log", "resume",
             "stop_after_epoch", "model", "data"}
# the JSON type of each key: float takes any finite number and int no bool;
# None (the default of SslConfig.bottleneck_position) takes a string or null
_SSL_DATA_TYPES = {"kind": str, "n_utts": int, "frames_per_utt": int, "manifest": str}
_A2A_DATA_TYPES = {"kind": str, "num_frames": int, "noise_sigma": float, "n_utts": int,
                   "max_freq": float, "manifest": str}
_A2A_MODEL_TYPES = {"d_acoustic": int, "d_articulatory": int, "mixtures": int, "hidden": int,
                    "n_hidden": int, "sigma_floor": float, "mtl_weights": list,
                    "batch_frames": int}
_SSL_MODEL_TYPES = {f.name: type(f.default) for f in fields(SslConfig) if f.name != "objective"}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", list: "a list",
               type(None): "a string or null"}


def _is(value, kind: type) -> bool:
    if kind is int:
        return type(value) is int
    if kind is float:
        return type(value) in (int, float) and math.isfinite(value)
    if kind is type(None):
        return value is None or type(value) is str
    return isinstance(value, kind)


def _check(path, key: str, value, kind: type, minimum=None):
    if not _is(value, kind) or minimum is not None and value < minimum:
        at_least = "" if minimum is None else f" >= {minimum}"
        raise ValidationError(f"{path}: {key} must be {_TYPE_NAMES[kind]}{at_least}, "
                              f"got {value!r}")


def _check_section(path, name: str, section, types: dict):
    if not isinstance(section, dict):
        raise ValidationError(f"{path}: {name} must be an object, got {section!r}")
    _check_keys(section, set(types), f"{path}: {name}")
    for key, value in section.items():
        _check(path, f"{name}.{key}", value, types[key])


def load_train_config(path) -> dict:
    """Parse and fully validate a training config before any side effects."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path}: invalid JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    _check_keys(cfg, _TOP_KEYS, path)

    objective = cfg.get("objective")
    if objective not in TRAIN_OBJECTIVES:
        raise ValidationError(
            f"{path}: objective must be one of {TRAIN_OBJECTIVES}, got {objective!r}"
        )
    if "seed" not in cfg:
        raise ValidationError(f"{path}: an integer seed is mandatory")
    if "out_model" not in cfg:
        raise ValidationError(f"{path}: out_model is required")
    cfg.setdefault("epochs", 10)
    cfg.setdefault("lr", 3e-3)
    cfg.setdefault("log", None)
    cfg.setdefault("resume", None)
    cfg.setdefault("stop_after_epoch", None)
    cfg.setdefault("model", {})
    cfg.setdefault("data", {"kind": "synthetic"})
    _check(path, "seed", cfg["seed"], int, 0)
    _check(path, "epochs", cfg["epochs"], int, 0)
    _check(path, "lr", cfg["lr"], float, 0)
    stop = cfg["stop_after_epoch"]
    if stop is not None and (type(stop) is not int or not 0 < stop <= cfg["epochs"]):
        raise ValidationError(
            f"{path}: stop_after_epoch must be an integer in [1, epochs]"
        )

    a2a = objective == "a2a-mtl"
    _check_section(path, "model", cfg["model"], _A2A_MODEL_TYPES if a2a else _SSL_MODEL_TYPES)
    _check_section(path, "data", cfg["data"], _A2A_DATA_TYPES if a2a else _SSL_DATA_TYPES)
    if a2a:
        _check(path, "model.batch_frames", cfg["model"].get("batch_frames", 400), int, 1)
        weights = cfg["model"].get("mtl_weights", [1.0, 1.0, 1.0])
        numbers = all(_is(w, float) and w >= 0 for w in weights)
        if len(weights) != 3 or not numbers or not any(weights):
            raise ValidationError(f"{path}: model.mtl_weights must be 3 non-negative "
                                  f"numbers, not all 0, got {weights!r}")
    if cfg["data"].get("kind", "synthetic") not in ("synthetic", "manifest"):
        raise ValidationError(f"{path}: data.kind must be synthetic or manifest")
    if cfg["data"].get("kind") == "manifest" and "manifest" not in cfg["data"]:
        raise ValidationError(f"{path}: data.kind=manifest requires data.manifest")
    _check(path, "resume", cfg["resume"], type(None))
    if cfg["resume"] is not None and not os.path.exists(cfg["resume"]):
        raise ValidationError(f"{path}: resume checkpoint not found: {cfg['resume']}")

    for key in ("out_model", "log"):
        target = cfg[key]
        if key == "log" and target is None:
            continue
        if not isinstance(target, str):
            raise ValidationError(f"{path}: {key} must be a path, got {target!r}")
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
        _check(path, "seed from ASRFUSE_SEED", cfg["seed"], int, 0)
    return cfg
