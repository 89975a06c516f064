"""Bottleneck extraction, frame-rate synchronization and feature fusion.

A 20 ms stream passes through the bottleneck: the extracted representation
comes out at 10 ms with the configured inner width, while the restored stream
re-enters the host network at the original rate and width.  The extracted
features are then fused with a 40-d filter-bank front-end.
"""

from asrfuse.bottleneck import BottleneckModule, bottleneck_forward
from asrfuse.features import FeatureSequence, fuse_features, resample_frames
from asrfuse.numcore import make_rng

rng = make_rng(0)
ssl_stream = FeatureSequence(rng.normal(size=(7, 1024)), 20.0, label="SSL")
module = BottleneckModule(input_dim=1024, inner_dim=256, dropout=0.1, rng=rng)

extracted, restored = bottleneck_forward(ssl_stream, module)
print(f"input:     {ssl_stream.frames.shape} @ {ssl_stream.frame_period_ms} ms")
print(f"extracted: {extracted.frames.shape} @ {extracted.frame_period_ms} ms")
print(f"restored:  {restored.frames.shape} @ {restored.frame_period_ms} ms")

fbk = FeatureSequence(rng.normal(size=(14, 40)), 10.0, label="FBK")
fused = fuse_features(fbk, extracted)
print(f"fused FBK+SSL: {fused.frames.shape} ({fused.label})")

# resampling: repetition up, mean pooling down, and an exact round trip
up = resample_frames(ssl_stream, 10.0)
back = resample_frames(up, 20.0)
print(f"20ms -> 10ms -> 20ms round trip exact: {(back.frames == ssl_stream.frames).all()}")
