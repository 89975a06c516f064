"""Bottleneck extraction, frame-rate synchronization and feature fusion.

A 20 ms stream of T frames passes through the bottleneck: the extracted
representation has 2T frames of the configured inner width, so it runs at
half the input's frame period, 10 ms, while the restored stream of T frames
re-enters the host network at the original rate and width.  The extracted
features are then fused with a 40-d filter-bank front-end at 10 ms; streams
whose frame counts or periods differ are rejected, never resampled.
"""

from asrfuse.bottleneck import BottleneckModule
from asrfuse.errors import ValidationError
from asrfuse.features import FeatureSequence, fuse_features
from asrfuse.numcore import Tensor, make_rng

rng = make_rng(0)
ssl_stream = FeatureSequence(rng.normal(size=(7, 1024)), 20.0, label="SSL")
module = BottleneckModule(input_dim=1024, inner_dim=256, dropout=0.1, rng=rng)

extracted, restored = module.forward(Tensor(ssl_stream.frames))
extracted = FeatureSequence(extracted.data, ssl_stream.frame_period_ms / 2, label="SSL")
print(f"input:     {ssl_stream.frames.shape} @ {ssl_stream.frame_period_ms} ms")
print(f"extracted: {extracted.frames.shape} @ {extracted.frame_period_ms} ms")
print(f"restored:  {restored.shape} @ {ssl_stream.frame_period_ms} ms")

fbk = FeatureSequence(rng.normal(size=(14, 40)), 10.0, label="FBK")
fused = fuse_features(fbk, extracted)
print(f"fused FBK+SSL: {fused.frames.shape} ({fused.label})")

try:
    fuse_features(fbk, ssl_stream)
except ValidationError as e:
    print(f"20 ms stream not fused: {e}")
