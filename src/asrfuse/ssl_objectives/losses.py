"""Pre-training and fine-tuning loss functions over the context network."""

from __future__ import annotations

import numpy as np

from ..numcore import NonFiniteError, Tensor, as_tensor, concat_cols

__all__ = [
    "cosine_rows",
    "contrastive_loss",
    "diversity_loss",
    "contrastive_diversity_loss",
    "masked_prediction_loss",
    "smooth_l1",
    "data2vec_loss",
]

_NORM_EPS = 1e-12


def _row_norms(x: Tensor) -> Tensor:
    sq = (x * x).sum(axis=-1, keepdims=True)
    if np.any(sq.data <= _NORM_EPS):
        raise NonFiniteError("cosine similarity: zero-norm vector")
    return sq.sqrt()


def cosine_rows(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise cosine similarity of two (N, d) tensors -> (N, 1)."""
    dot = (a * b).sum(axis=-1, keepdims=True)
    return dot / (_row_norms(a) * _row_norms(b))


def contrastive_loss(context: Tensor, quantized: Tensor, mask_indices,
                     num_distractors: int, kappa: float,
                     rng: np.random.Generator) -> Tensor:
    """InfoNCE over masked frames, averaged per frame.

    For each masked frame the candidate set is its own quantized target plus
    `num_distractors` quantized vectors sampled from the other masked frames
    of the same utterance.  Similarities are cosine / kappa; the cross-entropy
    uses log-sum-exp stabilization.
    """
    if kappa <= 0:
        raise ValueError(f"kappa must be > 0, got {kappa}")
    if num_distractors < 1:
        raise ValueError("need at least one distractor per frame")
    mask_indices = np.asarray(mask_indices, dtype=np.intp)
    if mask_indices.size == 0:
        raise ValueError("contrastive_loss: empty mask")
    if mask_indices.size < 2:
        raise ValueError("contrastive_loss: need >= 2 masked frames to draw distractors")

    c = context.take_rows(mask_indices)
    cols = [cosine_rows(c, quantized.take_rows(mask_indices))]
    n = mask_indices.size
    for _ in range(num_distractors):
        # uniform over the other masked frames: offset in [1, n) modulo n
        offset = rng.integers(1, n, size=n)
        distractor_idx = mask_indices[(np.arange(n) + offset) % n]
        cols.append(cosine_rows(c, quantized.take_rows(distractor_idx)))
    sims = concat_cols(cols) / kappa
    per_frame = sims.narrow(1, 0, 1) - sims.logsumexp(axis=1, keepdims=True)
    return -per_frame.mean()


def diversity_loss(soft_probs: Tensor, alpha: float) -> Tensor:
    """Negative-entropy penalty on batch-averaged codebook usage.

    `soft_probs` is (T, G, V); the per-entry averages over the batch feed
    alpha/(G*V) * sum p*ln(p).  Uniform usage attains the minimum
    -alpha*ln(V)/V; the value is always <= 0.
    """
    soft_probs = as_tensor(soft_probs)
    if soft_probs.ndim != 3:
        raise ValueError(f"diversity_loss: expected (T, G, V), got {soft_probs.shape}")
    _, g, v = soft_probs.shape
    avg = soft_probs.mean(axis=0)
    ent = avg * avg.clamp_min(1e-300).log()
    return ent.sum() * (alpha / (g * v))


def contrastive_diversity_loss(context, quantized, soft_probs, mask_indices,
                               num_distractors: int, kappa: float, alpha: float,
                               rng: np.random.Generator) -> Tensor:
    """Contrastive term plus diversity term, as one pre-training objective."""
    return contrastive_loss(context, quantized, mask_indices, num_distractors,
                            kappa, rng) + diversity_loss(soft_probs, alpha)


def masked_prediction_loss(student_proj: Tensor, labels: np.ndarray,
                           codeword_embeddings, mask_indices,
                           tau: float = 0.1) -> Tensor:
    """Cross-entropy of masked frames against k-means pseudo-labels.

    The predictive distribution over the V entries of codebook g is the
    softmax of cosine(projection, embedding)/tau.  Summed over masked frames
    and codebooks; minimizing it maximizes the pseudo-label log-likelihood.
    """
    if tau <= 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    mask_indices = np.asarray(mask_indices, dtype=np.intp)
    if mask_indices.size == 0:
        raise ValueError("masked_prediction_loss: empty mask")
    labels = np.asarray(labels)
    s = student_proj.take_rows(mask_indices)
    s_hat = s / _row_norms(s)
    rows = np.arange(mask_indices.size)
    total = None
    for g, emb in enumerate(codeword_embeddings):
        emb = as_tensor(emb)
        e_hat = emb / _row_norms(emb)
        logits = (s_hat @ e_hat.T) / tau
        logp = logits - logits.logsumexp(axis=1, keepdims=True)
        picked = logp.take_at(rows, labels[mask_indices, g]).sum()
        total = picked if total is None else total + picked
    return -total


def smooth_l1(diff: Tensor, beta: float) -> Tensor:
    """Elementwise smooth L1: quadratic within beta of zero, linear outside."""
    if beta <= 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    diff = as_tensor(diff)
    small = np.abs(diff.data) <= beta
    quad = diff * diff * (0.5 / beta)
    lin = diff.abs() - 0.5 * beta
    return quad * small + lin * (~small)


def normalized_frames(x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Standardize each frame over its feature dimension (teacher targets)."""
    x = np.asarray(x, dtype=np.float64)
    mu = x.mean(axis=-1, keepdims=True)
    sd = x.std(axis=-1, keepdims=True)
    return (x - mu) / (sd + eps)


def data2vec_loss(student_out: Tensor, teacher_block_outputs, top_k: int,
                  beta: float, mask_indices) -> Tensor:
    """Smooth-L1 regression of masked student frames onto teacher targets.

    Targets are the mean of the per-frame normalized outputs of the top K
    teacher blocks (computed without gradient).  The per-element smooth L1 is
    averaged over the feature dimension and summed over masked frames.
    """
    n_blocks = len(teacher_block_outputs)
    if not (1 <= top_k <= n_blocks):
        raise ValueError(f"top_k must be in [1, {n_blocks}], got {top_k}")
    mask_indices = np.asarray(mask_indices, dtype=np.intp)
    if mask_indices.size == 0:
        raise ValueError("data2vec_loss: empty mask")
    stacked = np.stack(
        [normalized_frames(np.asarray(b)) for b in teacher_block_outputs[-top_k:]]
    )
    targets = stacked.mean(axis=0)[mask_indices]
    diff = student_out.take_rows(mask_indices) - Tensor(targets)
    return smooth_l1(diff, beta).mean(axis=1).sum()

