"""Adam with a linearly decayed learning rate, and the epoch loop every
trainer runs."""

from __future__ import annotations

import numpy as np

from .tensor import NonFiniteError, Tensor

__all__ = ["LinearDecayLr", "Adam", "run_epochs"]


class LinearDecayLr:
    """Interpolates from lr0 at step 0 down to lr_end at total_steps."""

    def __init__(self, lr: float, total_steps: int, lr_end: float = 0.0):
        if lr < 0 or lr_end < 0:
            raise ValueError("learning rate must be >= 0")
        if total_steps < 1:
            raise ValueError("total_steps must be >= 1")
        self.lr0 = lr
        self.lr_end = lr_end
        self.total_steps = total_steps

    def at(self, step: int) -> float:
        frac = min(step, self.total_steps) / self.total_steps
        return self.lr0 + (self.lr_end - self.lr0) * frac


# Kingma & Ba's published constants, which every caller uses
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction over the parameter list it is built with.

    It holds only a checkpoint's `opt.` arrays: the step count (1 float),
    then each parameter's first and second moment in the list's order, so a
    checkpoint loads into them in place.  `step(lr)` applies each `.grad`,
    as the last backward left it, at the rate the run's schedule gives.
    """

    def __init__(self, params: list[Tensor]):
        self.params = list(params)
        self._step = np.zeros(1)
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    @property
    def step_count(self) -> int:
        return int(self._step[0])

    def step(self, lr: float):
        grads = [p.grad for p in self.params]
        for g in grads:
            if not np.isfinite(g).all():
                raise NonFiniteError("optimizer: gradient is not finite")
        t = self.step_count + 1
        bc1 = 1.0 - BETA1**t
        bc2 = 1.0 - BETA2**t
        for p, g, m, v in zip(self.params, grads, self._m, self._v):
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
        self._step[0] = t

    def state_arrays(self) -> dict:
        """Its own arrays, in the order of a checkpoint's optimizer blobs:
        `step, m0, v0, m1, v1, ...`."""
        out = {"step": self._step}
        for i, (m, v) in enumerate(zip(self._m, self._v)):
            out[f"m{i}"] = m
            out[f"v{i}"] = v
        return out


def run_epochs(model, epoch_loss, epochs: int, steps_per_epoch: int, lr: float,
               optimizer: Adam | None = None, total_epochs: int | None = None):
    """Run `epoch_loss(epoch, step) -> float` from the epoch `optimizer`
    stands at, `step_count // steps_per_epoch` (0 for a fresh Adam over
    model.parameters()), up to `epochs`; returns (per-epoch log, optimizer).
    An optimizer stopped mid-epoch or past `epochs` raises ValueError.

    `step()` steps at the rate of its step count on the run's one schedule,
    linear from `lr` to `lr * model.lr_end_ratio` over `total_epochs`
    (default `epochs`).  With no epoch to run, `optimizer` comes back as
    given and no schedule is built.  A non-finite failure names its epoch.
    """
    done = optimizer.step_count if optimizer is not None else 0
    start, partial = divmod(done, steps_per_epoch)
    if partial or start > epochs:
        raise ValueError(f"run_epochs: optimizer step {done} is mid-epoch or past epoch {epochs}")
    if start == epochs:
        return [], optimizer
    opt = optimizer if optimizer is not None else Adam(model.parameters())
    horizon = (total_epochs if total_epochs is not None else epochs) * steps_per_epoch
    schedule = LinearDecayLr(lr, horizon, lr_end=lr * model.lr_end_ratio)

    def step():
        opt.step(schedule.at(opt.step_count))

    log = []
    for epoch in range(start, epochs):
        try:
            loss = epoch_loss(epoch, step)
        except NonFiniteError as e:
            raise NonFiniteError(f"epoch {epoch}: {e}") from e
        log.append({"epoch": epoch, "loss": loss})
    return log, opt
