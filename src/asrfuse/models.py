"""MDL1-backed persistence for trainable models and optimizer state.

Checkpoints store, in declaration order: trainable parameters, persistent
state (EMA teacher, k-means codebooks) and Adam's step and moments, each
loaded in place into the array that uses it, so a run resumes bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from .a2a import A2aConfig, MdnHead, build_mdn_head
from .config import _check, read_model_config
from .errors import ValidationError
from .formats import read_mdl1, write_mdl1
from .numcore import Adam
from .ssl_objectives.trainers import SslConfig, SslModel, build_ssl_model

__all__ = [
    "Trainable",
    "CheckpointHeader",
    "save_checkpoint",
    "load_checkpoint",
    "save_ssl_checkpoint",
    "load_ssl_checkpoint",
    "save_mdn_checkpoint",
    "load_mdn_checkpoint",
]


class Trainable(Protocol):
    """What the checkpoint codec and `run_epochs` need from a model."""

    kind: str
    lr_end_ratio: float  # where the run's linear rate decay ends, as a fraction of lr

    def config_dict(self) -> dict: ...
    def named_parameters(self) -> list: ...
    def parameters(self) -> list: ...
    def named_state_arrays(self) -> list: ...


@dataclass
class CheckpointHeader:
    """What a resume reads from an MDL1 header, checked by `load_checkpoint`."""
    seed: int
    epochs_completed: int


# kind -> (name in messages, model config class, build(config, seed))
_KINDS = {
    "ssl": ("SSL", SslConfig, build_ssl_model),
    "a2a-mdn": ("A2A", A2aConfig, build_mdn_head),
}


def _blobs(model: Trainable, optimizer: Adam | None = None) -> list:
    """A checkpoint's (name, array) blobs in file order, as the model's live
    arrays: parameters, state arrays, then the optimizer's `opt.` arrays."""
    blobs = [(n, p.data) for n, p in model.named_parameters()] + model.named_state_arrays()
    if optimizer is not None:
        blobs += [(f"opt.{k}", v) for k, v in optimizer.state_arrays().items()]
    return blobs


def save_checkpoint(path, model: Trainable, seed: int, epochs_completed: int,
                    optimizer: Adam | None = None):
    hyper = {"config": model.config_dict(), "epochs_completed": epochs_completed}
    write_mdl1(path, model.kind, hyper, seed, _blobs(model, optimizer))


def load_checkpoint(path, kind: str):
    """Returns (model, CheckpointHeader, Adam over the model's parameters, or
    None if the file holds no `opt.` blob).  The header's
    `hyperparameters.config` is read like a run config's `model`, and the
    file must hold exactly the blobs `_blobs` lists for that model and
    optimizer, each at its shape; each is written into its array in place."""
    header, arrays = read_mdl1(path)
    label, config_cls, build = _KINDS[kind]
    if header.get("kind") != kind:
        raise ValidationError(f"{path}: not an {label} model (kind={header.get('kind')!r})")
    seed, hyper = header.get("seed"), header.get("hyperparameters")
    _check(path, "seed", seed, int, {"range": "[0, inf)"})
    _check(path, "hyperparameters", hyper, dict, {})
    epochs = hyper.get("epochs_completed")
    _check(path, "hyperparameters.epochs_completed", epochs, int, {"range": "[0, inf)"})
    model = build(read_model_config(path, "hyperparameters.config", hyper.get("config"),
                                    config_cls), seed)
    optimizer = (Adam(model.parameters()) if any(name.startswith("opt.") for name in arrays)
                 else None)
    blobs = _blobs(model, optimizer)
    for name, value in blobs:
        if name not in arrays or arrays[name].shape != value.shape:
            raise ValidationError(f"{path}: MDL1 blob {name} must be present with shape "
                                  f"{list(value.shape)}")
        value[...] = arrays[name]
    listed = {name for name, _ in blobs}
    stray = next((name for name in arrays if name not in listed), None)
    if stray is not None:
        raise ValidationError(f"{path}: MDL1 blob {stray} is not part of this {label} model")
    return model, CheckpointHeader(seed, epochs), optimizer


def save_ssl_checkpoint(path, model: SslModel, seed: int, epochs_completed: int,
                        optimizer=None):
    save_checkpoint(path, model, seed, epochs_completed, optimizer)


def load_ssl_checkpoint(path):
    """Returns (SslModel, header, Adam or None)."""
    return load_checkpoint(path, "ssl")


def save_mdn_checkpoint(path, head: MdnHead, seed: int, epochs_completed: int,
                        optimizer=None):
    save_checkpoint(path, head, seed, epochs_completed, optimizer)


def load_mdn_checkpoint(path):
    """Returns (MdnHead, header, Adam or None)."""
    return load_checkpoint(path, "a2a-mdn")
