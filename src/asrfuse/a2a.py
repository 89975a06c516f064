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
from dataclasses import dataclass

import numpy as np

from .features import FeatureSequence
from .numcore import Adam, LinearDecayLr, Tensor, derive_rng, forward_backward, run_epochs
from .ssl_objectives.context import Linear

__all__ = [
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
    "train_a2a",
]

LOG_2PI = math.log(2.0 * math.pi)


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
class ParallelPair:
    acoustic: FeatureSequence
    articulatory: FeatureSequence

    def __post_init__(self):
        if self.acoustic.num_frames != self.articulatory.num_frames:
            raise ValueError("parallel pair: frame counts differ")
        if self.acoustic.frame_period_ms != self.articulatory.frame_period_ms:
            raise ValueError("parallel pair: frame periods differ")


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

    @property
    def num_components(self):
        return self.mix_logits.shape[1]

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

    def __init__(self, d_acoustic: int, d_articulatory: int, mixtures: int,
                 hidden: int = 64, n_hidden: int = 2,
                 rng: np.random.Generator | None = None, sigma_floor: float = 1e-3):
        if mixtures < 1:
            raise ValueError("need at least one mixture component")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.d_acoustic = d_acoustic
        self.d_articulatory = d_articulatory
        self.mixtures = mixtures
        self.sigma_floor = sigma_floor
        dims = [d_acoustic] + [hidden] * n_hidden
        self.layers = [Linear(a, b, rng) for a, b in zip(dims, dims[1:])]
        self.out = Linear(dims[-1], mixtures * (1 + 2 * d_articulatory), rng)

    def named_parameters(self):
        params = []
        for i, layer in enumerate(self.layers):
            params += [(f"layer{i}.{n}", t) for n, t in layer.named_parameters()]
        params += [(f"out.{n}", t) for n, t in self.out.named_parameters()]
        return params

    def parameters(self):
        return [t for _, t in self.named_parameters()]

    def config_dict(self) -> dict:
        """The constructor arguments; `hidden` is 0 when there is no hidden layer."""
        return {
            "d_acoustic": self.d_acoustic,
            "d_articulatory": self.d_articulatory,
            "mixtures": self.mixtures,
            "hidden": self.layers[0].w.shape[1] if self.layers else 0,
            "n_hidden": len(self.layers),
            "sigma_floor": self.sigma_floor,
        }

    def named_state_arrays(self):
        return []

    def load_state_arrays(self, arrays: dict):
        pass

    def make_optimizer(self, lr: float, total_steps: int) -> Adam:
        """Adam with the rate decaying linearly to 10% of lr over the run."""
        return Adam(LinearDecayLr(lr, total_steps, lr_end=lr * 0.1))

    def forward(self, frames) -> MdnFrameParams:
        x = frames if isinstance(frames, Tensor) else Tensor(frames)
        if x.shape[1] != self.d_acoustic:
            raise ValueError(
                f"MdnHead: expected {self.d_acoustic}-d acoustic frames, got {x.shape[1]}"
            )
        h = x
        for layer in self.layers:
            h = layer(h).tanh()
        raw = self.out(h)
        t = raw.shape[0]
        m, d = self.mixtures, self.d_articulatory
        logits = raw.narrow(1, 0, m)
        means = raw.narrow(1, m, m * d).reshape(t, m, d)
        log_sigmas = raw.narrow(1, m + m * d, m * d).reshape(t, m, d)
        return MdnFrameParams(logits, means, log_sigmas, self.sigma_floor)


def mdn_loss(params: MdnFrameParams, targets) -> Tensor:
    """Negative mixture log-likelihood summed over frames, all in log domain."""
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
    frame_ll = (params.log_weights() + comp_ll).logsumexp(axis=1)
    return -frame_ll.sum()


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


def mtl_loss(params: MdnFrameParams, targets, weights: MtlWeights) -> Tensor:
    """weights.mdn * L_MDN + weights.mse * L_MSE - weights.pearson * rho."""
    pred = params.mixture_mean()
    total = None

    def add(term):
        nonlocal total
        total = term if total is None else total + term

    if weights.mdn:
        add(mdn_loss(params, targets) * weights.mdn)
    if weights.mse:
        add(mse_loss(pred, targets) * weights.mse)
    if weights.pearson:
        add(pearson_corr(pred, targets) * -weights.pearson)
    return total


def invert(head: MdnHead, acoustic: FeatureSequence) -> FeatureSequence:
    """Predict articulatory features as the mixture-weighted mean per frame."""
    if acoustic.dim != head.d_acoustic:
        raise ValueError(
            f"invert: acoustic dim {acoustic.dim}, head expects {head.d_acoustic}"
        )
    params = head.forward(acoustic.frames)
    return FeatureSequence(params.mixture_mean().data, acoustic.frame_period_ms,
                           label="UTI")


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


def build_mdn_head(config: dict, seed: int) -> MdnHead:
    """The head a run or checkpoint model config describes; absent keys take
    their defaults and keys that are not constructor arguments are ignored."""
    return MdnHead(config.get("d_acoustic", 8), config.get("d_articulatory", 4),
                   config.get("mixtures", 3), hidden=config.get("hidden", 64),
                   n_hidden=config.get("n_hidden", 2), rng=derive_rng(seed, 0),
                   sigma_floor=config.get("sigma_floor", 1e-3))


def train_a2a(head: MdnHead, pairs: list, epochs: int, seed: int,
              weights: MtlWeights | None = None, lr: float = 5e-3,
              batch_frames: int = 400, optimizer: Adam | None = None,
              start_epoch: int = 0, total_epochs: int | None = None,
              optimizer_state: dict | None = None):
    """Minibatch Adam over pooled frames; logs the full-batch loss per epoch.

    Step randomness depends only on (seed, epoch), so training is a pure
    function of its inputs and can resume mid-run.
    """
    weights = weights if weights is not None else MtlWeights()
    acoustic = np.concatenate([p.acoustic.frames for p in pairs])
    articulatory = np.concatenate([p.articulatory.frames for p in pairs])
    n = acoustic.shape[0]
    params = head.parameters()
    steps_per_epoch = max(1, n // batch_frames)

    def epoch_loss(epoch, opt):
        order = derive_rng(seed, 1, epoch).permutation(n)
        for s in range(steps_per_epoch):
            idx = order[s * batch_frames : (s + 1) * batch_frames]
            if len(idx) < 2:
                continue
            batch_x, batch_a = acoustic[idx], articulatory[idx]
            forward_backward(
                lambda: mtl_loss(head.forward(batch_x), batch_a, weights), params
            )
            opt.step(params)
        return mtl_loss(head.forward(acoustic), articulatory, weights).item()

    return run_epochs(head, epoch_loss, epochs, steps_per_epoch, lr,
                      optimizer=optimizer, optimizer_state=optimizer_state,
                      start_epoch=start_epoch, total_epochs=total_epochs)
