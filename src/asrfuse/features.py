"""Frame-synchronous feature sequences: validation and fusion."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = ["FeatureSequence", "check_synchronous", "fuse_features"]


@dataclass
class FeatureSequence:
    """A (T, D) feature matrix with its frame period in milliseconds.

    `label` names the feature kind: FBK, SSL, UTI or fused.
    """

    frames: np.ndarray
    frame_period_ms: float
    label: str = "FBK"

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2:
            raise ValidationError(f"frames must be (T, D), got shape {self.frames.shape}")
        if not np.isfinite(self.frames).all():
            raise ValidationError("frames contain non-finite values")
        if not 0 < self.frame_period_ms < math.inf:
            raise ValidationError(f"frame_period_ms must be finite and > 0, "
                                  f"got {self.frame_period_ms}")

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


def check_synchronous(a, b, a_name: str, b_name: str):
    """The rule for two streams (of features or frame scores) that are read
    frame by frame together: the same frame count and frame period."""
    if a.num_frames != b.num_frames:
        raise ValidationError(f"frame counts differ: {a_name} has {a.num_frames}, "
                              f"{b_name} has {b.num_frames}")
    if a.frame_period_ms != b.frame_period_ms:
        raise ValidationError(f"frame periods differ: {a_name} at {a.frame_period_ms} ms, "
                              f"{b_name} at {b.frame_period_ms} ms")


def fuse_features(a: FeatureSequence, b: FeatureSequence) -> FeatureSequence:
    """Frame-wise concatenation of two synchronized streams."""
    check_synchronous(a, b, a.label, b.label)
    return FeatureSequence(
        np.concatenate([a.frames, b.frames], axis=1), a.frame_period_ms, label="fused"
    )
