"""Discrete speech-unit quantizers: Gumbel-softmax and k-means codebooks."""

from __future__ import annotations

import numpy as np

from ..numcore import Tensor, as_tensor, concat_cols

__all__ = ["gumbel_noise", "gumbel_select", "GumbelQuantizer", "KMeansQuantizer", "kmeans_fit"]

# the Gumbel-softmax temperature of every `GumbelQuantizer`
GUMBEL_TEMPERATURE = 2.0


def gumbel_noise(shape, rng: np.random.Generator) -> np.ndarray:
    u = rng.random(shape)
    # guard against u == 0 from the half-open interval
    return -np.log(-np.log(np.clip(u, 1e-12, 1.0 - 1e-12)))


def gumbel_select(logits, temperature: float, rng: np.random.Generator):
    """Straight-through Gumbel-softmax over the last axis.

    Returns (hard, soft): `hard` is one-hot per codebook in the forward pass
    but routes gradients through `soft`; `soft` is the relaxed distribution.
    """
    if temperature <= 0:
        raise ValueError(f"gumbel temperature must be > 0, got {temperature}")
    logits = as_tensor(logits)
    if not np.isfinite(logits.data).all():
        raise ValueError("gumbel_select: logits contain non-finite values")
    noisy = logits + Tensor(gumbel_noise(logits.shape, rng))
    scaled = noisy / temperature
    soft = (scaled - scaled.logsumexp(axis=-1, keepdims=True)).exp()
    winners = np.argmax(soft.data, axis=-1)
    hard_data = np.zeros_like(soft.data)
    np.put_along_axis(hard_data, winners[..., None], 1.0, axis=-1)
    hard = soft + Tensor(hard_data - soft.data)
    return hard, soft


class GumbelQuantizer:
    """Maps encoder frames to codewords chosen by Gumbel-softmax.

    G codebooks with V entries each; the winning codewords are concatenated
    and linearly projected to the output dimension.
    """

    def __init__(self, d_in: int, num_codebooks: int, entries: int, code_dim: int,
                 d_out: int, rng: np.random.Generator):
        self.num_codebooks = num_codebooks
        self.entries = entries
        scale = 1.0 / np.sqrt(d_in)
        self.logit_w = Tensor(rng.normal(size=(d_in, num_codebooks * entries)) * scale,
                              requires_grad=True)
        self.codewords = [
            Tensor(rng.normal(size=(entries, code_dim)), requires_grad=True)
            for _ in range(num_codebooks)
        ]
        out_scale = 1.0 / np.sqrt(num_codebooks * code_dim)
        self.out_w = Tensor(rng.normal(size=(num_codebooks * code_dim, d_out)) * out_scale,
                            requires_grad=True)

    def named_parameters(self):
        params = [("logit_w", self.logit_w), ("out_w", self.out_w)]
        params += [(f"codewords{g}", t) for g, t in enumerate(self.codewords)]
        return params

    def quantize(self, z: Tensor, rng: np.random.Generator):
        """Returns (quantized (T, d_out), soft probabilities (T, G, V))."""
        t_len = z.shape[0]
        logits = (z @ self.logit_w).reshape(t_len, self.num_codebooks, self.entries)
        hard, soft = gumbel_select(logits, GUMBEL_TEMPERATURE, rng)
        picked = []
        for g in range(self.num_codebooks):
            onehot = hard.narrow(1, g, 1).reshape(t_len, self.entries)
            picked.append(onehot @ self.codewords[g])
        return concat_cols(picked) @ self.out_w, soft


def _squared_distances(frames: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(n, k) squared Euclidean distances from each frame to each centroid."""
    return ((frames[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)


def kmeans_fit(frames: np.ndarray, k: int, iterations: int = 25, seed: int = 0):
    """Lloyd's algorithm with k-means++ seeding.

    Returns (centroids (k, d), assignments (n,), inertia history).  The
    inertia sequence is non-increasing.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim == 1:
        frames = frames[:, None]
    if frames.size == 0:
        raise ValueError("kmeans_fit: empty input")
    n = frames.shape[0]
    if n < k:
        raise ValueError(f"kmeans_fit: need at least k={k} frames, got {n}")
    rng = np.random.Generator(np.random.PCG64(seed))

    # k-means++ seeding
    centroids = np.empty((k, frames.shape[1]))
    centroids[0] = frames[rng.integers(n)]
    closest = ((frames - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            centroids[j] = frames[rng.integers(n)]
        else:
            centroids[j] = frames[rng.choice(n, p=closest / total)]
        closest = np.minimum(closest, ((frames - centroids[j]) ** 2).sum(axis=1))

    inertia_history = []
    for _ in range(max(1, iterations)):
        d2 = _squared_distances(frames, centroids)
        assignments = d2.argmin(axis=1)
        inertia_history.append(float(d2[np.arange(n), assignments].sum()))
        for j in range(k):
            members = frames[assignments == j]
            if len(members):  # empty clusters keep their centroid
                centroids[j] = members.mean(axis=0)
    d2 = _squared_distances(frames, centroids)
    assignments = d2.argmin(axis=1)
    inertia_history.append(float(d2[np.arange(n), assignments].sum()))
    return centroids, assignments, inertia_history


class KMeansQuantizer:
    """G independent k-means codebooks assigning one unit per frame each.
    `fit` writes centroids into the book arrays it was built with, in place;
    `assign` rejects a non-finite book, so an unfitted labeler fails loudly."""

    def __init__(self, codebooks: list[np.ndarray]):
        self.codebooks = list(codebooks)

    @property
    def fitted(self) -> bool:
        return all(np.isfinite(c).all() for c in self.codebooks)

    def fit(self, frames: np.ndarray, seed: int = 0):
        """Fits book g, with as many centroids as it has rows, to `frames`
        by `kmeans_fit` seeded seed + g."""
        for g, book in enumerate(self.codebooks):
            book[...], _, _ = kmeans_fit(frames, len(book), seed=seed + g)

    def assign(self, frames: np.ndarray) -> np.ndarray:
        """(n, G) centroid indices, one column per codebook."""
        if not self.fitted:
            raise ValueError("KMeansQuantizer: non-finite centroid; fit the books first")
        frames = np.asarray(frames, dtype=np.float64)
        return np.stack([_squared_distances(frames, c).argmin(axis=1) for c in self.codebooks],
                        axis=1)
