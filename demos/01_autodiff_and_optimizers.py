"""The dense-array engine: reverse-mode gradients and seeded optimizers.

Builds a tiny regression problem, checks one gradient by hand, and fits it
with Adam under a linearly decayed learning rate.
"""

import numpy as np

from asrfuse.numcore import Adam, LinearDecayLr, Tensor, forward_backward, make_rng

# gradients of a hand-checkable expression: d/dx sum(x*x) = 2x
x = Tensor([1.0, 2.0], requires_grad=True)
(x * x).sum().backward()
print("grad of sum(x*x) at [1, 2]:", x.grad)

# fit y = tanh(x W1) W2 to a noisy linear target
rng = make_rng(0)
inputs = rng.normal(size=(64, 3))
targets = inputs @ np.array([[1.0], [-2.0], [0.5]]) + 0.01 * rng.normal(size=(64, 1))

w1 = Tensor(rng.normal(size=(3, 8)) * 0.5, requires_grad=True)
w2 = Tensor(rng.normal(size=(8, 1)) * 0.5, requires_grad=True)
params = [w1, w2]
opt = Adam(params)
schedule = LinearDecayLr(0.05, total_steps=200)

for k in range(200):
    loss, _ = forward_backward(
        lambda: (((Tensor(inputs) @ w1).tanh() @ w2 - Tensor(targets)) ** 2).mean(),
        params,
    )
    opt.step(schedule.at(k))
    if k % 50 == 0:
        print(f"step {k:3d}  mse {loss:.5f}")

print(f"final mse {loss:.5f}")
