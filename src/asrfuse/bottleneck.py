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
from dataclasses import dataclass

import numpy as np

from .features import FeatureSequence
from .numcore import Tensor, interleave_rows

__all__ = ["POSITIONS", "BottleneckConfig", "BottleneckModule", "bottleneck_forward"]

POSITIONS = ("after-encoder", "after-middle-block", "after-last-block")


@dataclass(frozen=True)
class BottleneckConfig:
    inner_dim: int = 256
    position: str = "after-last-block"
    input_dim: int = 1024
    input_stride_ms: float = 20.0
    output_stride_ms: float = 10.0
    dropout: float = 0.1

    def __post_init__(self):
        if self.inner_dim <= 0:
            raise ValueError(f"inner_dim must be > 0, got {self.inner_dim}")
        if self.position not in POSITIONS:
            raise ValueError(f"position must be one of {POSITIONS}, got {self.position!r}")
        if self.input_stride_ms <= 0 or self.output_stride_ms <= 0:
            raise ValueError("strides must be > 0")
        ratio = self.input_stride_ms / self.output_stride_ms
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ValueError(
                f"output stride {self.output_stride_ms} must divide input stride "
                f"{self.input_stride_ms}"
            )


class BottleneckModule:
    """Trainable parameters realizing one BottleneckConfig.

    Only the 2:1 stride pair (20 ms -> 10 ms) is implemented, which the
    kernel-2/stride-2 convolution pair realizes exactly: the extracted stream
    has 2T frames and the restored stream T frames for every input length T.
    """

    def __init__(self, config: BottleneckConfig, rng: np.random.Generator):
        if round(config.input_stride_ms / config.output_stride_ms) != 2:
            raise ValueError("only the 2:1 stride change is supported")
        self.config = config
        d, inner = config.input_dim, config.inner_dim
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

    def forward(self, x: Tensor, rng: np.random.Generator | None = None,
                training: bool = False):
        """(T, input_dim) -> (extracted (2T, inner), restored (T, input_dim))."""
        if x.ndim != 2 or x.shape[1] != self.config.input_dim:
            raise ValueError(
                f"bottleneck: expected (T, {self.config.input_dim}) input, got {x.shape}"
            )
        up = interleave_rows(x @ self.up_even, x @ self.up_odd) + self.up_bias
        extracted = (up @ self.fc1_w + self.fc1_b).relu()
        if training and self.config.dropout > 0:
            extracted = extracted.dropout(self.config.dropout, rng, training=True)
        # strided conv consumes even/odd row pairs of the 2T stream
        n2 = extracted.shape[0]
        even = extracted.take_rows(np.arange(0, n2, 2))
        odd = extracted.take_rows(np.arange(1, n2, 2))
        down = even @ self.down_even + odd @ self.down_odd + self.down_bias
        restored = (down @ self.fc2_w + self.fc2_b).relu()
        if training and self.config.dropout > 0:
            restored = restored.dropout(self.config.dropout, rng, training=True)
        return extracted, restored


def bottleneck_forward(seq: FeatureSequence, module: BottleneckModule,
                       rng: np.random.Generator | None = None,
                       training: bool = False):
    """Apply the module to a feature sequence.

    Returns (extracted SSL features at the output stride, restored stream at
    the input stride).
    """
    cfg = module.config
    if seq.frame_period_ms != cfg.input_stride_ms:
        raise ValueError(
            f"bottleneck_forward: input at {seq.frame_period_ms} ms, "
            f"config expects {cfg.input_stride_ms} ms"
        )
    if seq.dim != cfg.input_dim:
        raise ValueError(
            f"bottleneck_forward: input dim {seq.dim}, config expects {cfg.input_dim}"
        )
    extracted, restored = module.forward(Tensor(seq.frames), rng=rng, training=training)
    return (
        FeatureSequence(extracted.data, cfg.output_stride_ms, label="SSL"),
        FeatureSequence(restored.data, cfg.input_stride_ms, label="SSL"),
    )
