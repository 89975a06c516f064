"""Desk-scale training loops for the four pre-training/fine-tuning objectives.

Every stochastic draw is derived from (seed, purpose, step), so a run is a
pure function of its config and interrupted runs can resume exactly.
"""

from __future__ import annotations

import copy
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from ..bottleneck import POSITIONS, BottleneckModule
from ..errors import ValidationError
from ..numcore import (
    Adam,
    Tensor,
    derive_rng,
    forward_backward,
    no_grad,
    run_epochs,
)
from .context import ContextNetwork, Linear
from .ctc import ctc_loss, min_frames_for
from .ema import ema_update
from .losses import contrastive_diversity_loss, data2vec_loss, masked_prediction_loss
from .masking import MaskSpec
from .quantizers import GumbelQuantizer, KMeansQuantizer

__all__ = ["OBJECTIVES", "SslConfig", "SslModel", "build_ssl_model",
           "make_synthetic_utterances", "train_ssl"]

OBJECTIVES = ("wav2vec2", "hubert", "data2vec", "ctc")


@dataclass
class SslConfig:
    """An SSL model's configuration; as the `model` section of a run config,
    each field's metadata holds the range `asrfuse.config` checks it against."""
    objective: str = field(default="hubert", metadata={"range": OBJECTIVES})
    d_in: int = field(default=8, metadata={"range": "[1, inf)"})
    n_blocks: int = field(default=4, metadata={"range": "[1, inf)"})
    d_model: int = field(default=64, metadata={"range": "[1, inf)"})
    n_heads: int = field(default=4, metadata={"range": "[1, inf)"})
    d_ff: int = field(default=128, metadata={"range": "[1, inf)"})
    dropout: float = field(default=0.0, metadata={"range": "[0, 1)"})
    mask_probability: float = field(default=0.065, metadata={"range": "[0, 1]"})
    mask_span: int = field(default=10, metadata={"range": "[1, inf)"})
    num_distractors: int = field(default=10, metadata={"range": "[1, inf)"})
    kappa: float = field(default=0.1, metadata={"range": "(0, inf)"})
    alpha: float = field(default=0.1, metadata={"range": "[0, inf)"})
    tau: float = field(default=0.1, metadata={"range": "(0, inf)"})
    num_codebooks: int = field(default=2, metadata={"range": "[1, inf)"})
    entries: int = field(default=8, metadata={"range": "[1, inf)"})
    code_dim: int = field(default=16, metadata={"range": "[1, inf)"})
    ema_decay: float = field(default=0.05, metadata={"range": "[0, 1]"})
    top_k: int = field(default=2, metadata={"range": "[1, inf)"})
    smooth_beta: float = field(default=0.25, metadata={"range": "(0, inf)"})
    vocab: int = field(default=4, metadata={"range": "[1, inf)"})
    bottleneck_position: str | None = field(default=None,
                                            metadata={"range": (None, *POSITIONS)})
    bottleneck_dim: int = field(default=256, metadata={"range": "[1, inf)"})
    bottleneck_dropout: float = field(default=0.1, metadata={"range": "[0, 1)"})


class SslModel:
    """Context network plus the heads and tables one objective needs."""

    kind = "ssl"
    lr_end_ratio = 0.0  # `run_epochs` decays the rate linearly to 0 by the run's end

    def __init__(self, cfg: SslConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.mask_spec = MaskSpec(cfg.mask_probability, cfg.mask_span)
        self.net = ContextNetwork(cfg.d_in, cfg.n_blocks, cfg.d_model, cfg.n_heads,
                                  cfg.d_ff, dropout=cfg.dropout, rng=rng)
        self.mask_emb = Tensor(rng.normal(size=cfg.d_in) * 0.1, requires_grad=True)
        self.bottleneck: BottleneckModule | None = None
        if cfg.bottleneck_position is not None:
            self.bottleneck = BottleneckModule(cfg.d_model, cfg.bottleneck_dim,
                                               cfg.bottleneck_dropout, rng)
        self.quantizer: GumbelQuantizer | None = None
        self.proj: Linear | None = None
        self.codeword_embeddings: list[Tensor] = []
        self.head: Linear | None = None
        self.out: Linear | None = None
        self.teacher: ContextNetwork | None = None
        self.pseudo_labeler: KMeansQuantizer | None = None

        obj = cfg.objective
        if obj == "wav2vec2":
            self.quantizer = GumbelQuantizer(cfg.d_in, cfg.num_codebooks, cfg.entries,
                                             cfg.code_dim, cfg.d_model, rng)
        elif obj == "hubert":
            self.proj = Linear(cfg.d_model, cfg.code_dim, rng)
            self.codeword_embeddings = [
                Tensor(rng.normal(size=(cfg.entries, cfg.code_dim)), requires_grad=True)
                for _ in range(cfg.num_codebooks)
            ]
            self.pseudo_labeler = KMeansQuantizer(
                [np.full((cfg.entries, cfg.d_in), np.nan) for _ in range(cfg.num_codebooks)])
        elif obj == "data2vec":
            self.head = Linear(cfg.d_model, cfg.d_model, rng)
            self.teacher = copy.deepcopy(self.net)
        elif obj == "ctc":
            self.out = Linear(cfg.d_model, cfg.vocab + 1, rng)

    # -- parameter bookkeeping -------------------------------------------------

    def config_dict(self) -> dict:
        return asdict(self.cfg)

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
        """Non-trained arrays that persist, loaded in place: the data2vec
        teacher's params and hubert's k-means books, NaN until `train_ssl`
        fits them, so a checkpoint saved before that does not load."""
        arrays = []
        if self.teacher is not None:
            arrays += [(f"teacher.p{i}", p.data)
                       for i, p in enumerate(self.teacher.parameters())]
        if self.pseudo_labeler is not None:
            arrays += [(f"kmeans.g{g}", c) for g, c in enumerate(self.pseudo_labeler.codebooks)]
        return arrays

    # -- forward ---------------------------------------------------------------

    def _apply_mask(self, frames: np.ndarray, mask_indices) -> Tensor:
        indicator = np.zeros((frames.shape[0], 1))
        indicator[np.asarray(mask_indices, dtype=np.intp)] = 1.0
        base = Tensor(frames * (1.0 - indicator))
        return base + Tensor(indicator) * self.mask_emb

    def _blocks_before_bottleneck(self) -> int | None:
        """How many blocks run before the bottleneck; None without one."""
        n = self.net.n_blocks
        return {None: None, "after-encoder": 0, "after-middle-block": math.ceil(n / 2),
                "after-last-block": n}[self.cfg.bottleneck_position]

    def encode(self, x: Tensor, rng: np.random.Generator | None = None):
        """Embed + blocks, inserting the bottleneck at its configured position.

        Returns (final output, extracted bottleneck features or None).  The
        restored bottleneck stream replaces the running stream.  Dropout runs
        only when a training step passes its rng.
        """
        at = self._blocks_before_bottleneck()
        h = self.net.embed(x)
        extracted = None
        for i, block in enumerate(self.net.blocks):
            if i == at:
                extracted, h = self.bottleneck.forward(h, rng=rng)
            h = block(h, rng=rng)
        if at == self.net.n_blocks:
            extracted, h = self.bottleneck.forward(h, rng=rng)
        return h, extracted

    def extract(self, x: Tensor) -> Tensor:
        """The bottleneck's extracted (2T, inner) stream, for inference.

        Runs only embed, the blocks before the bottleneck and its extracting
        half, so the result equals `encode(x)[1]` bit for bit while the
        restoring half and any later blocks are never computed.
        """
        at = self._blocks_before_bottleneck()
        if at is None:
            raise ValueError("extract: model has no bottleneck")
        h = self.net.embed(x)
        for block in self.net.blocks[:at]:
            h = block(h)
        return self.bottleneck.extract(h)

    # -- per-utterance losses ----------------------------------------------------

    def utterance_loss(self, utt, rng: np.random.Generator) -> Tensor:
        cfg = self.cfg
        frames = utt["frames"]
        mask = self.mask_spec.sample(frames.shape[0], rng)
        obj = cfg.objective

        if obj == "ctc":
            h, _ = self.encode(Tensor(frames), rng=rng)
            logits = self.out(h)
            logp = logits - logits.logsumexp(axis=1, keepdims=True)
            return ctc_loss(logp, utt["labels"], blank=cfg.vocab)

        # masked-input objectives need a non-empty mask with >= 2 frames
        attempts = 0
        while len(mask.indices) < 2:
            attempts += 1
            if attempts > 1000:
                raise ValidationError("could not sample a usable mask; raise mask_probability")
            mask = self.mask_spec.sample(frames.shape[0], rng)
        masked_x = self._apply_mask(frames, mask.indices)

        if obj == "wav2vec2":
            q, soft = self.quantizer.quantize(Tensor(frames), rng)
            c, _ = self.encode(masked_x, rng=rng)
            return contrastive_diversity_loss(c, q, soft, mask.indices,
                                              cfg.num_distractors, cfg.kappa,
                                              cfg.alpha, rng)

        if obj == "hubert":
            labels = self.pseudo_labeler.assign(frames)
            h, _ = self.encode(masked_x, rng=rng)
            return masked_prediction_loss(self.proj(h), labels,
                                          self.codeword_embeddings, mask.indices,
                                          tau=cfg.tau)

        # data2vec: teacher sees the unmasked input, no gradient
        with no_grad():
            teacher_out = [b.data for b in self.teacher(Tensor(frames))]
        student, _ = self.encode(masked_x, rng=rng)
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
              lr: float = 3e-3, total_epochs: int | None = None,
              optimizer: Adam | None = None):
    """`run_epochs` with an Adam step per utterance; returns (per-epoch mean losses, optimizer).

    Step randomness depends only on (seed, epoch, utterance index), so a run
    continued with its checkpoint's optimizer reproduces the straight run.
    HuBERT's k-means books are fitted in place, even for 0 epochs, unless
    they already are.
    """
    cfg = model.cfg
    if model.pseudo_labeler is not None and not model.pseudo_labeler.fitted:
        model.pseudo_labeler.fit(np.concatenate([u["frames"] for u in utts]), seed=seed)
    params = model.parameters()

    def epoch_loss(epoch, step):
        losses = []
        for j, utt in enumerate(utts):
            step_rng = derive_rng(seed, 2, epoch, j)
            if model.teacher is not None:
                ema_update(model.teacher.parameters(), model.net.parameters(),
                           cfg.ema_decay, epoch * len(utts) + j)
            value, _ = forward_backward(
                lambda: model.utterance_loss(utt, step_rng), params
            )
            step()
            losses.append(value)
        return float(np.mean(losses))

    return run_epochs(model, epoch_loss, epochs, max(1, len(utts)), lr,
                      optimizer=optimizer, total_epochs=total_epochs)
