"""Desk-scale transformer context network and its building blocks."""

from __future__ import annotations

import math

import numpy as np

from ..numcore import Tensor, attention, layer_norm, linear

__all__ = ["Linear", "LayerNorm", "TransformerBlock", "ContextNetwork"]


class Linear:
    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        scale = 1.0 / math.sqrt(d_in)
        self.w = Tensor(rng.normal(size=(d_in, d_out)) * scale, requires_grad=True)
        self.b = Tensor(np.zeros(d_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.w, self.b)

    def named_parameters(self):
        return [("w", self.w), ("b", self.b)]


class LayerNorm:
    def __init__(self, dim: int, eps: float = 1e-6):
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta, self.eps)

    def named_parameters(self):
        return [("gamma", self.gamma), ("beta", self.beta)]


class TransformerBlock:
    """Pre-norm self-attention + feed-forward block over (T, d) frames."""

    def __init__(self, d_model: int, n_heads: int, d_ff: int, rng: np.random.Generator,
                 dropout: float = 0.0):
        if d_model % n_heads != 0:
            raise ValueError(f"d_model={d_model} not divisible by n_heads={n_heads}")
        self.n_heads = n_heads
        self.dropout = dropout
        self.ln1 = LayerNorm(d_model)
        self.wq = Linear(d_model, d_model, rng)
        self.wk = Linear(d_model, d_model, rng)
        self.wv = Linear(d_model, d_model, rng)
        self.wo = Linear(d_model, d_model, rng)
        self.ln2 = LayerNorm(d_model)
        self.ff1 = Linear(d_model, d_ff, rng)
        self.ff2 = Linear(d_ff, d_model, rng)

    def __call__(self, x: Tensor, rng: np.random.Generator | None = None) -> Tensor:
        a = self.ln1(x)
        out = self.wo(attention(self.wq(a), self.wk(a), self.wv(a), self.n_heads))
        x = x + out.dropout(self.dropout, rng)
        ff = self.ff2(self.ff1(self.ln2(x)).relu())
        return x + ff.dropout(self.dropout, rng)

    def named_parameters(self):
        params = []
        for name, child in [("ln1", self.ln1), ("wq", self.wq), ("wk", self.wk),
                            ("wv", self.wv), ("wo", self.wo), ("ln2", self.ln2),
                            ("ff1", self.ff1), ("ff2", self.ff2)]:
            params += [(f"{name}.{p}", t) for p, t in child.named_parameters()]
        return params


class ContextNetwork:
    """Input projection followed by L transformer blocks.

    Desk-scale defaults (L=4, d=64, 4 heads, FF 128) train in seconds while
    exercising every code path.
    """

    def __init__(self, d_in: int, n_blocks: int = 4, d_model: int = 64, n_heads: int = 4,
                 d_ff: int = 128, dropout: float = 0.0, *, rng: np.random.Generator):
        if n_blocks < 1:
            raise ValueError("need at least one transformer block")
        self.embed = Linear(d_in, d_model, rng)
        self.blocks = [
            TransformerBlock(d_model, n_heads, d_ff, rng, dropout=dropout)
            for _ in range(n_blocks)
        ]

    @property
    def n_blocks(self):
        return len(self.blocks)

    def __call__(self, x: Tensor) -> list[Tensor]:
        """Run all blocks without dropout, as at inference; returns every
        block's output in order, so the last is the network's output."""
        h = self.embed(x)
        outputs = []
        for block in self.blocks:
            h = block(h)
            outputs.append(h)
        return outputs

    def named_parameters(self):
        params = [(f"embed.{p}", t) for p, t in self.embed.named_parameters()]
        for i, block in enumerate(self.blocks):
            params += [(f"block{i}.{p}", t) for p, t in block.named_parameters()]
        return params

    def parameters(self):
        return [t for _, t in self.named_parameters()]
