"""Bottleneck module: stride-halving, dimension-reducing feature extractor.

Four interleaved layers: a transposed 1D convolution (kernel 2, stride 2)
doubles the frame rate, a fully connected block (linear + ReLU + dropout)
compresses to the inner dimension, then a strided convolution (kernel 2,
stride 2) and a second FC block restore the original rate and width so the
stream can continue through the host network.  Extracted representations are
the first FC block's output.
"""

from __future__ import annotations

import math

import numpy as np

from .numcore import Tensor, linear, strided_conv2, transposed_conv2

__all__ = ["POSITIONS", "BottleneckModule"]

POSITIONS = ("after-encoder", "after-middle-block", "after-last-block")


class BottleneckModule:
    """Trainable parameters of a bottleneck from `input_dim` to `inner_dim`
    features, with `dropout` on both of its FC blocks.

    For every input of T frames the extracted stream has 2T frames, at half
    the input's frame period (a 20 ms input gives 10 ms features), and the
    restored stream has T frames at the input's period.
    """

    def __init__(self, input_dim: int, inner_dim: int, dropout: float,
                 rng: np.random.Generator):
        self.input_dim = input_dim
        self.dropout = dropout
        d, inner = input_dim, inner_dim
        s = 1.0 / math.sqrt(d)
        # transposed conv taps: even and odd output rows
        self.up_even = Tensor(rng.normal(size=(d, d)) * s, requires_grad=True)
        self.up_odd = Tensor(rng.normal(size=(d, d)) * s, requires_grad=True)
        self.up_bias = Tensor(np.zeros(d), requires_grad=True)
        self.fc1_w = Tensor(rng.normal(size=(d, inner)) * s, requires_grad=True)
        self.fc1_b = Tensor(np.zeros(inner), requires_grad=True)
        si = 1.0 / math.sqrt(inner)
        self.down_even = Tensor(rng.normal(size=(inner, inner)) * si, requires_grad=True)
        self.down_odd = Tensor(rng.normal(size=(inner, inner)) * si, requires_grad=True)
        self.down_bias = Tensor(np.zeros(inner), requires_grad=True)
        self.fc2_w = Tensor(rng.normal(size=(inner, d)) * si, requires_grad=True)
        self.fc2_b = Tensor(np.zeros(d), requires_grad=True)

    def named_parameters(self):
        return [
            ("up_even", self.up_even),
            ("up_odd", self.up_odd),
            ("up_bias", self.up_bias),
            ("fc1_w", self.fc1_w),
            ("fc1_b", self.fc1_b),
            ("down_even", self.down_even),
            ("down_odd", self.down_odd),
            ("down_bias", self.down_bias),
            ("fc2_w", self.fc2_w),
            ("fc2_b", self.fc2_b),
        ]

    def extract(self, x: Tensor) -> Tensor:
        """(T, input_dim) -> extracted (2T, inner): the transposed conv and the
        first FC block, without dropout or the restoring half."""
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(f"bottleneck: expected (T, {self.input_dim}) input, got {x.shape}")
        up = transposed_conv2(x, self.up_even, self.up_odd, self.up_bias)
        return linear(up, self.fc1_w, self.fc1_b).relu()

    def forward(self, x: Tensor, rng: np.random.Generator | None = None):
        """(T, input_dim) -> (extracted (2T, inner), restored (T, input_dim));
        dropout runs only when a training step passes its rng."""
        extracted = self.extract(x).dropout(self.dropout, rng)
        down = strided_conv2(extracted, self.down_even, self.down_odd, self.down_bias)
        restored = linear(down, self.fc2_w, self.fc2_b).relu()
        return extracted, restored.dropout(self.dropout, rng)
