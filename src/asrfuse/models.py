"""MDL1-backed persistence for trainable models and optimizer state.

Checkpoints store, in declaration order: trainable parameters, persistent
state (EMA teacher, k-means codebooks) and Adam moments, so an interrupted
run resumes bit-exactly.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from .a2a import MdnHead, build_mdn_head
from .formats import read_mdl1, write_mdl1
from .ssl_objectives.trainers import SslConfig, SslModel, build_ssl_model

__all__ = [
    "Trainable",
    "save_checkpoint",
    "load_checkpoint",
    "save_ssl_checkpoint",
    "load_ssl_checkpoint",
    "save_mdn_checkpoint",
    "load_mdn_checkpoint",
]


class Trainable(Protocol):
    """What the checkpoint codec and the epoch loop need from a model."""

    kind: str

    def config_dict(self) -> dict: ...
    def named_parameters(self) -> list: ...
    def parameters(self) -> list: ...
    def named_state_arrays(self) -> list: ...
    def load_state_arrays(self, arrays: dict) -> None: ...
    def make_optimizer(self, lr: float, total_steps: int): ...


# kind -> (name in messages, build(config dict, seed))
_KINDS = {
    "ssl": ("SSL", lambda config, seed: build_ssl_model(SslConfig.from_dict(config), seed)),
    "a2a-mdn": ("A2A", build_mdn_head),
}


def save_checkpoint(path, model: Trainable, seed: int, epochs_completed: int,
                    optimizer=None, extra: dict | None = None):
    hyper = {
        "config": model.config_dict(),
        "epochs_completed": epochs_completed,
        **(extra or {}),
    }
    named = [(n, p.data) for n, p in model.named_parameters()]
    named += model.named_state_arrays()
    if optimizer is not None:
        named += [(f"opt.{k}", v)
                  for k, v in optimizer.state_arrays(model.parameters()).items()]
    write_mdl1(path, model.kind, hyper, seed, named)


def load_checkpoint(path, kind: str):
    """Returns (model, header, optimizer-state arrays or {})."""
    header, arrays = read_mdl1(path)
    label, build = _KINDS[kind]
    if header["kind"] != kind:
        raise ValueError(f"{path}: not an {label} model (kind={header['kind']!r})")
    model = build(header["hyperparameters"]["config"], header["seed"])
    for name, p in model.named_parameters():
        p.data = np.array(arrays.pop(name), dtype=np.float64).reshape(p.data.shape)
    opt_state = {k[len("opt."):]: arrays.pop(k) for k in list(arrays) if k.startswith("opt.")}
    model.load_state_arrays(arrays)
    return model, header, opt_state


def save_ssl_checkpoint(path, model: SslModel, seed: int, epochs_completed: int,
                        optimizer=None, extra: dict | None = None):
    save_checkpoint(path, model, seed, epochs_completed, optimizer, extra)


def load_ssl_checkpoint(path):
    """Returns (SslModel, header, optimizer-state arrays or {})."""
    return load_checkpoint(path, "ssl")


def save_mdn_checkpoint(path, head: MdnHead, seed: int, epochs_completed: int,
                        optimizer=None, extra: dict | None = None):
    save_checkpoint(path, head, seed, epochs_completed, optimizer, extra)


def load_mdn_checkpoint(path):
    """Returns (MdnHead, header, optimizer-state arrays or {})."""
    return load_checkpoint(path, "a2a-mdn")
