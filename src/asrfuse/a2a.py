"""Acoustic-to-articulatory inversion with a mixture density network.

The head emits, per frame, mixture logits, component means and log standard
deviations.  Training interpolates the mixture negative log-likelihood with an
MSE term and a negative Pearson correlation term, both computed against the
mixture-weighted mean prediction.  A sinusoid/tanh generator provides
synthetic parallel data with known ground truth.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ValidationError
from .features import FeatureSequence
from .numcore import Adam, Tensor, derive_rng, forward_backward, no_grad, run_epochs
from .ssl_objectives.context import Linear

__all__ = [
    "A2aConfig",
    "MdnHead",
    "MdnFrameParams",
    "build_mdn_head",
    "MtlWeights",
    "ParallelPair",
    "SyntheticParallel",
    "mdn_loss",
    "mse_loss",
    "pearson_corr",
    "mtl_loss",
    "invert",
    "generate_parallel",
    "steps_per_epoch",
    "train_a2a",
]

LOG_2PI = math.log(2.0 * math.pi)
MAX_BLOCK_ROWS = 2048  # row-block size bound of the graph-free evaluation


@dataclass
class MtlWeights:
    mdn: float = 1.0
    mse: float = 1.0
    pearson: float = 1.0

    def __post_init__(self):
        if self.mdn < 0 or self.mse < 0 or self.pearson < 0:
            raise ValueError("multi-task weights must be non-negative")
        if self.mdn == self.mse == self.pearson == 0:
            raise ValueError("at least one multi-task weight must be positive")


@dataclass
class A2aConfig:
    """An MDN head's configuration, the `model` section of an a2a-mtl run
    config: its shape, then the multi-task weights and minibatch size that
    `train_a2a` reads from it.
    Each field's metadata holds the range `asrfuse.config` checks it against."""
    d_acoustic: int = field(default=8, metadata={"range": "[1, inf)"})
    d_articulatory: int = field(default=4, metadata={"range": "[1, inf)"})
    mixtures: int = field(default=3, metadata={"range": "[1, inf)"})
    hidden: int = field(default=64, metadata={"range": "[1, inf)"})
    n_hidden: int = field(default=2, metadata={"range": "[0, inf)"})
    sigma_floor: float = field(default=1e-3, metadata={"range": "(0, inf)"})
    mtl_weights: list = field(default_factory=lambda: [1.0, 1.0, 1.0],
                              metadata={"length": 3, "range": "[0, inf)"})
    batch_frames: int = field(default=400, metadata={"range": "[2, inf)"})


@dataclass
class ParallelPair:
    acoustic: FeatureSequence
    articulatory: FeatureSequence

    def __post_init__(self):
        if self.acoustic.num_frames != self.articulatory.num_frames:
            raise ValidationError(f"{self.acoustic.num_frames} acoustic frames but "
                                  f"{self.articulatory.num_frames} articulatory frames")
        if self.acoustic.frame_period_ms != self.articulatory.frame_period_ms:
            raise ValidationError("parallel pair: frame periods differ")


@dataclass
class SyntheticParallel:
    pairs: list
    weight: np.ndarray
    bias: np.ndarray


class MdnFrameParams:
    """Per-frame mixture parameters: logits (T, M), means and log-sigmas (T, M, D)."""

    def __init__(self, mix_logits: Tensor, means: Tensor, log_sigmas: Tensor,
                 sigma_floor: float = 1e-3):
        t, m = mix_logits.shape
        if means.shape != log_sigmas.shape or means.shape[:2] != (t, m):
            raise ValueError(
                f"inconsistent MDN shapes: {mix_logits.shape}, {means.shape}, "
                f"{log_sigmas.shape}"
            )
        self.mix_logits = mix_logits
        self.means = means
        self.log_sigmas = log_sigmas
        self.sigma_floor = sigma_floor

    def log_weights(self) -> Tensor:
        return self.mix_logits - self.mix_logits.logsumexp(axis=1, keepdims=True)

    def sigmas(self) -> Tensor:
        return self.log_sigmas.exp().clamp_min(self.sigma_floor)

    def mixture_mean(self) -> Tensor:
        """Weighted sum of component means: the point prediction (T, D)."""
        t, m, d = self.means.shape
        w = self.log_weights().exp().reshape(t, m, 1)
        return (w * self.means).sum(axis=1)


class MdnHead:
    """MLP mapping acoustic frames to mixture density parameters."""

    kind = "a2a-mdn"
    lr_end_ratio = 0.1  # `run_epochs` decays the rate linearly to lr / 10 by the run's end

    def __init__(self, cfg: A2aConfig, rng: np.random.Generator):
        self.cfg = cfg
        dims = [cfg.d_acoustic] + [cfg.hidden] * cfg.n_hidden
        self.layers = [Linear(a, b, rng) for a, b in zip(dims, dims[1:])]
        self.out = Linear(dims[-1], cfg.mixtures * (1 + 2 * cfg.d_articulatory), rng)

    def named_parameters(self):
        params = []
        for i, layer in enumerate(self.layers):
            params += [(f"layer{i}.{n}", t) for n, t in layer.named_parameters()]
        params += [(f"out.{n}", t) for n, t in self.out.named_parameters()]
        return params

    def parameters(self):
        return [t for _, t in self.named_parameters()]

    def config_dict(self) -> dict:
        return asdict(self.cfg)

    def named_state_arrays(self):
        return []

    def forward(self, frames) -> MdnFrameParams:
        cfg = self.cfg
        x = frames if isinstance(frames, Tensor) else Tensor(frames)
        if x.shape[1] != cfg.d_acoustic:
            raise ValueError(
                f"MdnHead: expected {cfg.d_acoustic}-d acoustic frames, got {x.shape[1]}"
            )
        h = x
        for layer in self.layers:
            h = layer(h).tanh()
        raw = self.out(h)
        t = raw.shape[0]
        m, d = cfg.mixtures, cfg.d_articulatory
        logits = raw.narrow(1, 0, m)
        means = raw.narrow(1, m, m * d).reshape(t, m, d)
        log_sigmas = raw.narrow(1, m + m * d, m * d).reshape(t, m, d)
        return MdnFrameParams(logits, means, log_sigmas, cfg.sigma_floor)


def _frame_ll(params: MdnFrameParams, targets) -> Tensor:
    """Each frame's mixture log-likelihood of its target (T,), in log domain."""
    targets = np.asarray(targets, dtype=np.float64)
    if not np.isfinite(targets).all():
        raise ValueError("mdn_loss: non-finite target")
    t, m, d = params.means.shape
    if targets.shape != (t, d):
        raise ValueError(f"mdn_loss: targets shape {targets.shape}, expected {(t, d)}")
    a = Tensor(targets.reshape(t, 1, d))
    sig = params.sigmas()
    z = (a - params.means) / sig
    comp_ll = (z * z * -0.5 - sig.log() - 0.5 * LOG_2PI).sum(axis=2)
    return (params.log_weights() + comp_ll).logsumexp(axis=1)


def mdn_loss(params: MdnFrameParams, targets) -> Tensor:
    """Negative mixture log-likelihood summed over frames, all in log domain."""
    return -_frame_ll(params, targets).sum()


def mse_loss(predicted: Tensor, targets) -> Tensor:
    """Mean squared error over frames and dimensions."""
    targets = np.asarray(targets, dtype=np.float64)
    if predicted.shape != targets.shape:
        raise ValueError(
            f"mse_loss: shapes differ: {predicted.shape} vs {targets.shape}"
        )
    diff = predicted - Tensor(targets)
    return (diff * diff).mean()


def pearson_corr(predicted: Tensor, targets) -> Tensor:
    """Per-dimension Pearson correlation over time, averaged over dimensions.

    Dimensions with zero temporal variance on either side contribute 0 and
    trigger a warning.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if predicted.shape != targets.shape:
        raise ValueError(
            f"pearson_corr: shapes differ: {predicted.shape} vs {targets.shape}"
        )
    t, d = targets.shape
    if t < 2:
        raise ValueError("pearson_corr: need at least 2 frames")
    var_y = predicted.data.var(axis=0)
    var_a = targets.var(axis=0)
    good = (var_y > 1e-12) & (var_a > 1e-12)
    if not good.all():
        warnings.warn("pearson_corr: zero-variance dimension contributes 0",
                      stacklevel=2)
    if not good.any():
        return Tensor(0.0)
    idx = np.flatnonzero(good)
    yc = predicted.transpose().take_rows(idx).transpose()
    ac = targets[:, idx]
    yc = yc - yc.mean(axis=0, keepdims=True)
    ac = ac - ac.mean(axis=0, keepdims=True)
    num = (yc * Tensor(ac)).sum(axis=0)
    den = ((yc * yc).sum(axis=0)).sqrt() * np.sqrt((ac * ac).sum(axis=0))
    return (num / den).sum() / d


def _reduce(pred: Tensor, frame_ll: Tensor | None, targets, weights: MtlWeights) -> Tensor:
    """The reduction step of `mtl_loss` over all rows of the mixture means
    `pred` (T, D) and the frame log-likelihoods `frame_ll` (T,), None when
    weights.mdn is 0: -weights.mdn * sum(frame_ll) + weights.mse * L_MSE
    - weights.pearson * rho."""
    total = None

    def add(term):
        nonlocal total
        total = term if total is None else total + term

    if weights.mdn:
        add(-frame_ll.sum() * weights.mdn)
    if weights.mse:
        add(mse_loss(pred, targets) * weights.mse)
    if weights.pearson:
        add(pearson_corr(pred, targets) * -weights.pearson)
    return total


def mtl_loss(params: MdnFrameParams, targets, weights: MtlWeights) -> Tensor:
    """weights.mdn * L_MDN + weights.mse * L_MSE - weights.pearson * rho.

    Two steps: the per-frame rows (mixture means, frame log-likelihoods),
    each depending on its own frame only, then one `_reduce` over all rows.
    """
    pred = params.mixture_mean()
    frame_ll = _frame_ll(params, targets) if weights.mdn else None
    return _reduce(pred, frame_ll, targets, weights)


def _frame_terms_in_blocks(head: MdnHead, frames: np.ndarray, targets=None) -> tuple:
    """The per-frame rows of `mtl_loss(head.forward(frames), targets, ...)`,
    mixture means and (given targets) frame log-likelihoods, else None,
    computed without a graph over row blocks so that memory stays bounded.

    Up to `MAX_BLOCK_ROWS` frames run as one block, the unblocked call.  More
    split into the fewest near-equal blocks that fit, so each holds at
    least half of `MAX_BLOCK_ROWS` (1,024) rows.  With OpenBLAS, row blocks
    of 1,024 or more kept each matrix product on the whole product's kernel,
    so every row was bit-identical to the unblocked call's, while smaller
    blocks changed bits; `TestBlockEvaluation` checks this at the default
    and long-form head shapes.
    """
    n = len(frames)
    k = max(1, -(-n // MAX_BLOCK_ROWS))
    bounds = [i * n // k for i in range(k + 1)]
    preds, lls = [], []
    with no_grad():
        for lo, hi in zip(bounds, bounds[1:]):
            params = head.forward(frames[lo:hi])
            preds.append(params.mixture_mean().data)
            if targets is not None:
                lls.append(_frame_ll(params, targets[lo:hi]).data)
    return Tensor(np.concatenate(preds)), Tensor(np.concatenate(lls)) if lls else None


def _epoch_loss(head: MdnHead, acoustic: np.ndarray, articulatory: np.ndarray,
                weights: MtlWeights) -> float:
    """`mtl_loss(head.forward(acoustic), articulatory, weights).item()`, bit
    for bit, without a graph and in memory bounded by the row-block size."""
    terms = _frame_terms_in_blocks(head, acoustic, articulatory if weights.mdn else None)
    return _reduce(*terms, articulatory, weights).item()


def invert(head: MdnHead, acoustic: FeatureSequence) -> FeatureSequence:
    """Predict articulatory features as the mixture-weighted mean per frame."""
    if acoustic.dim != head.cfg.d_acoustic:
        raise ValueError(
            f"invert: acoustic dim {acoustic.dim}, head expects {head.cfg.d_acoustic}"
        )
    mean, _ = _frame_terms_in_blocks(head, acoustic.frames)
    return FeatureSequence(mean.data, acoustic.frame_period_ms, label="UTI")


def generate_parallel(seed: int, num_frames: int, d_articulatory: int,
                      d_acoustic: int, noise_sigma: float = 0.05,
                      frame_period_ms: float = 10.0, n_utts: int = 1,
                      max_freq: float = 0.05, weight: np.ndarray | None = None,
                      bias: np.ndarray | None = None) -> SyntheticParallel:
    """Synthetic parallel data: band-limited sinusoid trajectories mapped
    through a fixed full-rank tanh transform plus Gaussian noise.

    Each articulatory dimension is a sum of 3 random-phase sinusoids with
    frequencies below `max_freq` cycles/frame and total amplitude 1, so second
    differences stay below 2*(2*pi*max_freq)^2.  Returns the transform (W, b)
    for oracle use.
    """
    if d_acoustic < d_articulatory:
        raise ValueError(
            f"d_acoustic ({d_acoustic}) must be >= d_articulatory ({d_articulatory})"
        )
    if num_frames < 16:
        raise ValueError("need at least 16 frames per utterance")
    rng = derive_rng(seed, 0)
    if weight is None:
        for _ in range(10):
            weight = rng.normal(size=(d_acoustic, d_articulatory))
            if np.linalg.matrix_rank(weight) == d_articulatory:
                break
        else:
            raise RuntimeError("could not draw a full-rank transform")
    else:
        weight = np.asarray(weight, dtype=np.float64)
    bias = np.zeros(d_acoustic) if bias is None else np.asarray(bias, dtype=np.float64)

    pairs = []
    t_axis = np.arange(num_frames)[:, None, None]
    for _ in range(n_utts):
        freqs = rng.uniform(0.005, max_freq, size=(1, d_articulatory, 3))
        phases = rng.uniform(0, 2 * np.pi, size=(1, d_articulatory, 3))
        amps = rng.uniform(0.3, 1.0, size=(1, d_articulatory, 3))
        amps /= amps.sum(axis=2, keepdims=True)
        art = (amps * np.sin(2 * np.pi * freqs * t_axis + phases)).sum(axis=2)
        ac = np.tanh(art @ weight.T + bias)
        if noise_sigma > 0:
            ac = ac + noise_sigma * rng.normal(size=ac.shape)
        pairs.append(ParallelPair(
            FeatureSequence(ac, frame_period_ms, label="SSL"),
            FeatureSequence(art, frame_period_ms, label="UTI"),
        ))
    return SyntheticParallel(pairs, weight, bias)


def build_mdn_head(config: A2aConfig, seed: int) -> MdnHead:
    """The head a run or checkpoint model config describes."""
    return MdnHead(config, derive_rng(seed, 0))


def steps_per_epoch(num_frames: int, batch_frames: int) -> int:
    """`train_a2a`'s optimizer steps per epoch over `num_frames` pooled
    frames: one per whole batch, or one over them all if they fill none."""
    return max(1, num_frames // batch_frames)


def train_a2a(head: MdnHead, pairs: list, epochs: int, seed: int, lr: float = 5e-3,
              total_epochs: int | None = None, optimizer: Adam | None = None):
    """`run_epochs` with minibatch Adam over pooled frames, in batches of the
    head's `batch_frames` and with its `mtl_weights`; logs full-batch losses.

    The logged loss is `_epoch_loss`: its per-frame rows are evaluated
    without a graph in row blocks of at most `MAX_BLOCK_ROWS` frames, then
    reduced once over all rows, so its memory stays bounded as the corpus
    grows and its bits equal the one-call
    `mtl_loss(head.forward(all frames), ...)`.

    Step randomness depends only on (seed, epoch), so training is a pure
    function of its inputs and a run continued with its checkpoint's
    optimizer reproduces the straight run.  Every batch, like the
    Pearson term of `mtl_loss`, needs at least 2 frames: `batch_frames`
    and the pooled frame count must be at least 2.
    """
    weights, batch_frames = MtlWeights(*head.cfg.mtl_weights), head.cfg.batch_frames
    acoustic = np.concatenate([p.acoustic.frames for p in pairs])
    articulatory = np.concatenate([p.articulatory.frames for p in pairs])
    n = acoustic.shape[0]
    params = head.parameters()
    steps = steps_per_epoch(n, batch_frames)

    def epoch_loss(epoch, step):
        order = derive_rng(seed, 1, epoch).permutation(n)
        for s in range(steps):
            idx = order[s * batch_frames : (s + 1) * batch_frames]
            batch_x, batch_a = acoustic[idx], articulatory[idx]
            forward_backward(
                lambda: mtl_loss(head.forward(batch_x), batch_a, weights), params
            )
            step()
        return _epoch_loss(head, acoustic, articulatory, weights)

    return run_epochs(head, epoch_loss, epochs, steps, lr,
                      optimizer=optimizer, total_epochs=total_epochs)
