"""Frame-synchronous feature sequences: validation, fusion, resampling."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = ["FeatureSequence", "fuse_features", "resample_frames"]


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


def fuse_features(a: FeatureSequence, b: FeatureSequence) -> FeatureSequence:
    """Frame-wise concatenation of two synchronized streams."""
    if a.num_frames != b.num_frames:
        raise ValueError(
            f"fuse_features: frame counts differ: {a.label} has {a.num_frames}, "
            f"{b.label} has {b.num_frames}"
        )
    if a.frame_period_ms != b.frame_period_ms:
        raise ValueError(
            f"fuse_features: frame periods differ: {a.label} at {a.frame_period_ms} ms, "
            f"{b.label} at {b.frame_period_ms} ms"
        )
    return FeatureSequence(
        np.concatenate([a.frames, b.frames], axis=1), a.frame_period_ms, label="fused"
    )


def _period_ratio(source: float, target: float):
    """Integer ratio between two frame periods, or None if non-commensurate."""
    ratio = source / target
    if ratio >= 1.0:
        r = round(ratio)
        return ("up", r) if abs(ratio - r) < 1e-9 * max(1.0, r) else None
    inv = target / source
    r = round(inv)
    return ("down", r) if abs(inv - r) < 1e-9 * max(1.0, r) else None


def resample_frames(x: FeatureSequence, target_period_ms: float) -> FeatureSequence:
    """Change the frame period by frame repetition (up) or mean pooling (down).

    A final partial pooling window is averaged over the frames it covers.
    """
    if target_period_ms <= 0:
        raise ValueError("target period must be > 0")
    kind = _period_ratio(x.frame_period_ms, target_period_ms)
    if kind is None:
        raise ValueError(
            f"resample_frames: {x.frame_period_ms} ms and {target_period_ms} ms "
            "are not integer-commensurate"
        )
    direction, r = kind
    if r == 1:
        return FeatureSequence(x.frames.copy(), target_period_ms, label=x.label)
    if direction == "up":
        frames = np.repeat(x.frames, r, axis=0)
    else:
        pooled = [
            x.frames[i : i + r].mean(axis=0) for i in range(0, x.num_frames, r)
        ]
        frames = np.stack(pooled)
    return FeatureSequence(frames, target_period_ms, label=x.label)
