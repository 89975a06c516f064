"""Acoustic-to-articulatory inversion on synthetic parallel data.

A mixture density network is trained with the interpolated mixture-NLL + MSE
- Pearson objective, then inverts held-out acoustics; quality is the mean
per-dimension correlation against the known ground truth.
"""

from asrfuse.a2a import (
    A2aConfig,
    MdnHead,
    generate_parallel,
    invert,
    pearson_corr,
    train_a2a,
)
from asrfuse.numcore import Tensor, derive_rng

train = generate_parallel(seed=100, num_frames=2000, d_articulatory=4,
                          d_acoustic=8, noise_sigma=0.05)
held_out = generate_parallel(seed=101, num_frames=500, d_articulatory=4,
                             d_acoustic=8, noise_sigma=0.05,
                             weight=train.weight, bias=train.bias)

config = A2aConfig(d_acoustic=8, d_articulatory=4, mixtures=3, hidden=64,
                   mtl_weights=[1.0, 1.0, 1.0])
head = MdnHead(config, derive_rng(42, 0))
log, _ = train_a2a(head, train.pairs, epochs=20, seed=7)
print("epoch loss:", "  ".join(f"{e['loss']:.0f}" for e in log[::4]))

predicted = invert(head, held_out.pairs[0].acoustic)
rho = pearson_corr(Tensor(predicted.frames),
                   held_out.pairs[0].articulatory.frames).item()
print(f"held-out mean Pearson correlation: {rho:.3f} (label: {predicted.label})")
