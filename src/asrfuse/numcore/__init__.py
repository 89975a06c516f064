"""Minimal dense-array engine: tensors, reverse-mode gradients, optimizers."""

from .optim import Adam, LinearDecayLr, run_epochs
from .rng import derive_rng, make_rng
from .tensor import (
    NonFiniteError,
    ShapeMismatchError,
    Tensor,
    as_tensor,
    attention,
    concat_cols,
    forward_backward,
    layer_norm,
    linear,
    no_grad,
    strided_conv2,
    transposed_conv2,
)

__all__ = [
    "Adam",
    "LinearDecayLr",
    "NonFiniteError",
    "ShapeMismatchError",
    "Tensor",
    "as_tensor",
    "attention",
    "concat_cols",
    "derive_rng",
    "forward_backward",
    "layer_norm",
    "linear",
    "make_rng",
    "no_grad",
    "run_epochs",
    "strided_conv2",
    "transposed_conv2",
]
