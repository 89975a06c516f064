"""Minimal dense-array engine: tensors, reverse-mode gradients, optimizers."""

from .optim import Adam, ConstantLr, LinearDecayLr, Sgd, run_epochs
from .rng import derive_rng, make_rng
from .tensor import (
    NonFiniteError,
    ShapeMismatchError,
    Tensor,
    as_tensor,
    concat_cols,
    forward_backward,
    interleave_rows,
    no_grad,
)

__all__ = [
    "Adam",
    "ConstantLr",
    "LinearDecayLr",
    "NonFiniteError",
    "Sgd",
    "ShapeMismatchError",
    "Tensor",
    "as_tensor",
    "concat_cols",
    "derive_rng",
    "forward_backward",
    "interleave_rows",
    "make_rng",
    "no_grad",
    "run_epochs",
]
