"""Run configuration and utterance manifests for the command-line surface."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

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
            if "utt_id" not in obj:
                raise ValidationError(f"{path}:{line_no}: missing utt_id")
            utt_id = obj["utt_id"]
            if utt_id in seen:
                raise ValidationError(f"{path}:{line_no}: duplicate utt_id {utt_id!r}")
            seen.add(utt_id)
            if "paths" in obj:
                paths = dict(obj["paths"])
            elif "path" in obj:
                paths = {"default": obj["path"]}
            else:
                raise ValidationError(f"{path}:{line_no}: missing path/paths")
            paths = {
                k: v if os.path.isabs(v) else os.path.join(base, v)
                for k, v in paths.items()
            }
            for k, p in paths.items():
                if not os.path.exists(p):
                    raise ValidationError(f"{path}:{line_no}: {k} file not found: {p}")
            entries.append(ManifestEntry(utt_id, paths, dict(obj.get("metadata", {}))))
    if not entries and not allow_empty:
        raise ValidationError(f"{path}: empty manifest")
    return entries


def _check_keys(obj: dict, allowed: set, context: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ValidationError(f"{context}: unknown keys {sorted(unknown)}")


_TOP_KEYS = {"objective", "seed", "epochs", "lr", "out_model", "log", "resume",
             "stop_after_epoch", "model", "data"}
_SSL_DATA_KEYS = {"kind", "n_utts", "frames_per_utt", "manifest"}
_A2A_DATA_KEYS = {"kind", "num_frames", "noise_sigma", "n_utts", "max_freq", "manifest"}
_A2A_MODEL_KEYS = {"d_acoustic", "d_articulatory", "mixtures", "hidden", "n_hidden",
                   "sigma_floor", "mtl_weights", "batch_frames"}
_SSL_MODEL_KEYS = {
    "d_in", "n_blocks", "d_model", "n_heads", "d_ff", "dropout",
    "mask_probability", "mask_span", "num_distractors", "kappa", "alpha", "tau",
    "num_codebooks", "entries", "code_dim", "ema_decay", "top_k", "smooth_beta",
    "vocab", "bottleneck_position", "bottleneck_dim", "bottleneck_dropout",
}


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
    if "seed" not in cfg or not isinstance(cfg["seed"], int):
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
    if not isinstance(cfg["epochs"], int) or cfg["epochs"] < 0:
        raise ValidationError(f"{path}: epochs must be a non-negative integer")
    stop = cfg["stop_after_epoch"]
    if stop is not None and (not isinstance(stop, int) or not 0 < stop <= cfg["epochs"]):
        raise ValidationError(
            f"{path}: stop_after_epoch must be an integer in [1, epochs]"
        )

    model_keys = _A2A_MODEL_KEYS if objective == "a2a-mtl" else _SSL_MODEL_KEYS
    data_keys = _A2A_DATA_KEYS if objective == "a2a-mtl" else _SSL_DATA_KEYS
    _check_keys(cfg["model"], model_keys, f"{path}: model")
    _check_keys(cfg["data"], data_keys, f"{path}: data")
    if cfg["data"].get("kind", "synthetic") not in ("synthetic", "manifest"):
        raise ValidationError(f"{path}: data.kind must be synthetic or manifest")
    if cfg["data"].get("kind") == "manifest" and "manifest" not in cfg["data"]:
        raise ValidationError(f"{path}: data.kind=manifest requires data.manifest")
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
            raise ValidationError(f"ASRFUSE_SEED must be an integer, got {env_seed!r}")
    return cfg
