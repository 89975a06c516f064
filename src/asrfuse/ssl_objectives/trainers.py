"""Desk-scale training loops for the four pre-training/fine-tuning objectives.

Every stochastic draw is derived from (seed, purpose, step), so a run is a
pure function of its config and interrupted runs can resume exactly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from ..bottleneck import BottleneckConfig, BottleneckModule
from ..numcore import (
    Adam,
    LinearDecayLr,
    Tensor,
    derive_rng,
    forward_backward,
    no_grad,
    run_epochs,
)
from .context import ContextNetwork, Linear
from .ctc import ctc_loss, min_frames_for
from .ema import EmaTeacher, ema_update
from .losses import (
    contrastive_loss,
    data2vec_loss,
    diversity_loss,
    masked_prediction_loss,
)
from .masking import MaskSpec
from .quantizers import GumbelQuantizer, KMeansQuantizer

__all__ = ["OBJECTIVES", "SslConfig", "SslModel", "build_ssl_model",
           "make_synthetic_utterances", "train_ssl"]

OBJECTIVES = ("wav2vec2", "hubert", "data2vec", "ctc")


@dataclass
class SslConfig:
    objective: str = "hubert"
    d_in: int = 8
    n_blocks: int = 4
    d_model: int = 64
    n_heads: int = 4
    d_ff: int = 128
    dropout: float = 0.0
    mask_probability: float = 0.065
    mask_span: int = 10
    num_distractors: int = 10
    kappa: float = 0.1
    alpha: float = 0.1
    tau: float = 0.1
    num_codebooks: int = 2
    entries: int = 8
    code_dim: int = 16
    ema_decay: float = 0.05
    top_k: int = 2
    smooth_beta: float = 0.25
    vocab: int = 4
    bottleneck_position: str | None = None
    bottleneck_dim: int = 256
    bottleneck_dropout: float = 0.1

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


class SslModel:
    """Context network plus the heads and tables one objective needs."""

    kind = "ssl"

    def __init__(self, cfg: SslConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.mask_spec = MaskSpec(cfg.mask_probability, cfg.mask_span)
        self.net = ContextNetwork(cfg.d_in, cfg.n_blocks, cfg.d_model, cfg.n_heads,
                                  cfg.d_ff, dropout=cfg.dropout, rng=rng)
        self.mask_emb = Tensor(rng.normal(size=cfg.d_in) * 0.1, requires_grad=True)
        self.bottleneck: BottleneckModule | None = None
        if cfg.bottleneck_position is not None:
            self.bottleneck = BottleneckModule(
                BottleneckConfig(inner_dim=cfg.bottleneck_dim,
                                 position=cfg.bottleneck_position,
                                 input_dim=cfg.d_model,
                                 dropout=cfg.bottleneck_dropout),
                rng,
            )
        self.quantizer: GumbelQuantizer | None = None
        self.proj: Linear | None = None
        self.codeword_embeddings: list[Tensor] = []
        self.head: Linear | None = None
        self.out: Linear | None = None
        self.teacher: EmaTeacher | None = None
        self._teacher_net: ContextNetwork | None = None
        self.pseudo_labeler: KMeansQuantizer | None = None

        obj = cfg.objective
        if obj == "wav2vec2":
            self.quantizer = GumbelQuantizer(cfg.d_in, cfg.num_codebooks, cfg.entries,
                                             cfg.code_dim, cfg.d_model,
                                             temperature=2.0, rng=rng)
        elif obj == "hubert":
            self.proj = Linear(cfg.d_model, cfg.code_dim, rng)
            self.codeword_embeddings = [
                Tensor(rng.normal(size=(cfg.entries, cfg.code_dim)), requires_grad=True)
                for _ in range(cfg.num_codebooks)
            ]
        elif obj == "data2vec":
            self.head = Linear(cfg.d_model, cfg.d_model, rng)
            self._teacher_net = ContextNetwork(cfg.d_in, cfg.n_blocks, cfg.d_model,
                                               cfg.n_heads, cfg.d_ff, rng=rng)
            self.teacher = EmaTeacher(self.net.parameters(), cfg.ema_decay,
                                      cfg.top_k, cfg.n_blocks)
        elif obj == "ctc":
            self.out = Linear(cfg.d_model, cfg.vocab + 1, rng)

    # -- parameter bookkeeping -------------------------------------------------

    def config_dict(self) -> dict:
        return self.cfg.to_dict()

    def make_optimizer(self, lr: float, total_steps: int) -> Adam:
        """Adam with the rate decaying linearly to 0 over the run."""
        return Adam(LinearDecayLr(lr, total_steps))

    def named_parameters(self):
        """Trainable parameters in a fixed declaration order."""
        params = [("mask_emb", self.mask_emb)]
        params += [(f"net.{n}", t) for n, t in self.net.named_parameters()]
        if self.bottleneck is not None:
            params += [(f"bottleneck.{n}", t) for n, t in self.bottleneck.named_parameters()]
        if self.quantizer is not None:
            params += [(f"quantizer.{n}", t) for n, t in self.quantizer.named_parameters()]
        if self.proj is not None:
            params += [(f"proj.{n}", t) for n, t in self.proj.named_parameters()]
        for g, emb in enumerate(self.codeword_embeddings):
            params.append((f"codeword_emb{g}", emb))
        if self.head is not None:
            params += [(f"head.{n}", t) for n, t in self.head.named_parameters()]
        if self.out is not None:
            params += [(f"out.{n}", t) for n, t in self.out.named_parameters()]
        return params

    def parameters(self):
        return [t for _, t in self.named_parameters()]

    def named_state_arrays(self):
        """Non-trained arrays that must persist: teacher params, k-means books."""
        arrays = []
        if self.teacher is not None:
            arrays += [(f"teacher.p{i}", a) for i, a in enumerate(self.teacher.params)]
        if self.pseudo_labeler is not None:
            arrays += [(f"kmeans.g{g}", c)
                       for g, c in enumerate(self.pseudo_labeler.codebooks)]
        return arrays

    def load_state_arrays(self, arrays: dict):
        if self.teacher is not None:
            for i in range(len(self.teacher.params)):
                self.teacher.params[i][...] = arrays[f"teacher.p{i}"].reshape(
                    self.teacher.params[i].shape
                )
        kmeans_keys = sorted(k for k in arrays if k.startswith("kmeans.g"))
        if kmeans_keys:
            self.pseudo_labeler = KMeansQuantizer(
                [arrays[k].reshape(-1, self.cfg.d_in) for k in kmeans_keys]
            )

    # -- forward ---------------------------------------------------------------

    def _apply_mask(self, frames: np.ndarray, mask_indices) -> Tensor:
        indicator = np.zeros((frames.shape[0], 1))
        indicator[np.asarray(mask_indices, dtype=np.intp)] = 1.0
        base = Tensor(frames * (1.0 - indicator))
        return base + Tensor(indicator) * self.mask_emb

    def encode(self, x: Tensor, rng: np.random.Generator | None = None,
               training: bool = False, collect_blocks: bool = False,
               teacher_params: bool = False):
        """Embed + blocks, inserting the bottleneck at its configured position.

        Returns (final output, per-block outputs, extracted bottleneck features
        or None).  The restored bottleneck stream replaces the running stream.
        """
        net = self.net
        if teacher_params:
            net = self._teacher_net
            for p, arr in zip(net.parameters(), self.teacher.params):
                p.data = arr
        pos = self.cfg.bottleneck_position
        middle = math.ceil(net.n_blocks / 2)
        h = net.embed(x)
        extracted = None
        if pos == "after-encoder" and not teacher_params:
            extracted, h = self.bottleneck.forward(h, rng=rng, training=training)
        blocks = []
        for i, block in enumerate(net.blocks, start=1):
            h = block(h, rng=rng, training=training)
            if not teacher_params:
                if pos == "after-middle-block" and i == middle:
                    extracted, h = self.bottleneck.forward(h, rng=rng, training=training)
                elif pos == "after-last-block" and i == net.n_blocks:
                    extracted, h = self.bottleneck.forward(h, rng=rng, training=training)
            blocks.append(h)
        if collect_blocks:
            return h, blocks, extracted
        return h, None, extracted

    # -- per-utterance losses ----------------------------------------------------

    def utterance_loss(self, utt, rng: np.random.Generator, training: bool = True) -> Tensor:
        cfg = self.cfg
        frames = utt["frames"]
        mask = self.mask_spec.sample(frames.shape[0], rng)
        obj = cfg.objective

        if obj == "ctc":
            h, _, _ = self.encode(Tensor(frames), rng=rng, training=training)
            logits = self.out(h)
            logp = logits - logits.logsumexp(axis=1, keepdims=True)
            return ctc_loss(logp, utt["labels"], blank=cfg.vocab)

        # masked-input objectives need a non-empty mask with >= 2 frames
        attempts = 0
        while len(mask.indices) < 2:
            attempts += 1
            if attempts > 1000:
                raise ValueError("could not sample a usable mask; raise mask_probability")
            mask = self.mask_spec.sample(frames.shape[0], rng)
        masked_x = self._apply_mask(frames, mask.indices)

        if obj == "wav2vec2":
            q, soft = self.quantizer.quantize(Tensor(frames), rng)
            c, _, _ = self.encode(masked_x, rng=rng, training=training)
            return contrastive_loss(c, q, mask.indices, cfg.num_distractors,
                                    cfg.kappa, rng) + diversity_loss(soft, cfg.alpha)

        if obj == "hubert":
            labels = utt.get("units")
            if labels is None:
                labels = self.pseudo_labeler.assign(frames)
            h, _, _ = self.encode(masked_x, rng=rng, training=training)
            return masked_prediction_loss(self.proj(h), labels,
                                          self.codeword_embeddings, mask.indices,
                                          tau=cfg.tau)

        # data2vec: teacher sees the unmasked input, no gradient
        with no_grad():
            _, teacher_blocks, _ = self.encode(Tensor(frames), teacher_params=True,
                                               collect_blocks=True)
        teacher_out = [b.data for b in teacher_blocks]
        student, _, _ = self.encode(masked_x, rng=rng, training=training)
        return data2vec_loss(self.head(student), teacher_out, cfg.top_k,
                             cfg.smooth_beta, mask.indices)


def build_ssl_model(cfg: SslConfig, seed: int) -> SslModel:
    return SslModel(cfg, derive_rng(seed, 0))


def make_synthetic_utterances(cfg: SslConfig, n_utts: int, frames_per_utt: int,
                              seed: int) -> list[dict]:
    """Smooth band-limited random features, plus CTC token labels."""
    rng = derive_rng(seed, 1)
    utts = []
    for _ in range(n_utts):
        t = np.arange(frames_per_utt)[:, None]
        freqs = rng.uniform(0.01, 0.1, size=(1, cfg.d_in))
        phases = rng.uniform(0, 2 * np.pi, size=(1, cfg.d_in))
        frames = np.sin(2 * np.pi * freqs * t + phases)
        frames += 0.1 * rng.normal(size=frames.shape)
        n_labels = max(1, frames_per_utt // 8)
        labels = rng.integers(0, cfg.vocab, size=n_labels).tolist()
        while min_frames_for(labels) > frames_per_utt:
            labels = labels[:-1]
        utts.append({"frames": frames, "labels": labels})
    return utts


def train_ssl(model: SslModel, utts: list[dict], epochs: int, seed: int,
              lr: float = 3e-3, optimizer: Adam | None = None,
              start_epoch: int = 0, total_epochs: int | None = None,
              optimizer_state: dict | None = None):
    """Adam with linear decay; returns per-epoch mean losses.

    Step randomness depends only on (seed, epoch, utterance index), so a run
    resumed at start_epoch with the saved optimizer state reproduces the
    original trajectory.  HuBERT's k-means labeler is fitted even for 0 epochs.
    """
    cfg = model.cfg
    if cfg.objective == "hubert" and model.pseudo_labeler is None:
        all_frames = np.concatenate([u["frames"] for u in utts])
        sizes = [cfg.entries] * cfg.num_codebooks
        model.pseudo_labeler = KMeansQuantizer.fit(all_frames, sizes, seed=seed)
    params = model.parameters()

    def epoch_loss(epoch, opt):
        losses = []
        for j, utt in enumerate(utts):
            step_rng = derive_rng(seed, 2, epoch, j)
            if cfg.objective == "data2vec":
                step = epoch * len(utts) + j
                ema_update(model.teacher, model.net.parameters(), step)
            value, _ = forward_backward(
                lambda: model.utterance_loss(utt, step_rng), params
            )
            opt.step(params)
            losses.append(value)
        return float(np.mean(losses))

    return run_epochs(model, epoch_loss, epochs, max(1, len(utts)), lr,
                      optimizer=optimizer, optimizer_state=optimizer_state,
                      start_epoch=start_epoch, total_epochs=total_epochs)
