"""Self-supervised objectives: contrastive, masked-prediction, regression, CTC."""

from .context import ContextNetwork, LayerNorm, Linear, TransformerBlock
from .ctc import ctc_loss, min_frames_for
from .ema import ema_update
from .losses import (
    contrastive_diversity_loss,
    contrastive_loss,
    cosine_rows,
    data2vec_loss,
    diversity_loss,
    masked_prediction_loss,
    normalized_frames,
    smooth_l1,
)
from .masking import MaskSample, MaskSpec
from .quantizers import (
    GumbelQuantizer,
    KMeansQuantizer,
    gumbel_noise,
    gumbel_select,
    kmeans_fit,
)

__all__ = [
    "ContextNetwork",
    "GumbelQuantizer",
    "KMeansQuantizer",
    "LayerNorm",
    "Linear",
    "MaskSample",
    "MaskSpec",
    "TransformerBlock",
    "contrastive_diversity_loss",
    "contrastive_loss",
    "cosine_rows",
    "ctc_loss",
    "data2vec_loss",
    "diversity_loss",
    "ema_update",
    "gumbel_noise",
    "gumbel_select",
    "kmeans_fit",
    "masked_prediction_loss",
    "min_frames_for",
    "normalized_frames",
    "smooth_l1",
]
