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

    It holds that list and one first and one second moment per parameter,
    in the list's order, from the start; `step` applies each parameter's
    `.grad` as the last backward left it.
    """

    def __init__(self, params: list[Tensor], schedule):
        self.params = list(params)
        self.schedule = schedule
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        grads = [p.grad for p in self.params]
        for g in grads:
            if not np.isfinite(g).all():
                raise NonFiniteError("optimizer: gradient is not finite")
        lr = self.schedule.at(self.step_count)
        t = self.step_count + 1
        bc1 = 1.0 - BETA1**t
        bc2 = 1.0 - BETA2**t
        for p, g, m, v in zip(self.params, grads, self._m, self._v):
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
        self.step_count = t

    def state_arrays(self) -> dict:
        """The step count, then each parameter's moments: `step, m0, v0, m1,
        v1, ...`, the order of a checkpoint's optimizer blobs."""
        out = {"step": np.array([float(self.step_count)])}
        for i, (m, v) in enumerate(zip(self._m, self._v)):
            out[f"m{i}"] = m
            out[f"v{i}"] = v
        return out

    def load_state_arrays(self, arrays):
        """Takes the arrays `state_arrays` lists, at their shapes, as its own."""
        self.step_count = int(arrays["step"][0])
        self._m = [arrays[f"m{i}"] for i in range(len(self.params))]
        self._v = [arrays[f"v{i}"] for i in range(len(self.params))]


def run_epochs(model, epoch_loss, epochs: int, steps_per_epoch: int, lr: float,
               optimizer_state: dict | None = None,
               start_epoch: int = 0, total_epochs: int | None = None):
    """Run epochs start_epoch.. of `epoch_loss(epoch, optimizer) -> float`;
    returns (per-epoch log, optimizer).

    The optimizer is model.make_optimizer(lr, (total_epochs or epochs)
    * steps_per_epoch) with `optimizer_state` loaded, so a resumed run keeps
    its schedule; with no epoch to run and no state, the optimizer is None.
    A non-finite failure is re-raised naming its epoch.
    """
    opt = None
    if epochs or optimizer_state:
        horizon = (total_epochs if total_epochs is not None else epochs) * steps_per_epoch
        opt = model.make_optimizer(lr, horizon)
        if optimizer_state:
            opt.load_state_arrays(optimizer_state)
    log = []
    for epoch in range(start_epoch, start_epoch + epochs):
        try:
            loss = epoch_loss(epoch, opt)
        except NonFiniteError as e:
            raise NonFiniteError(f"epoch {epoch}: {e}") from e
        log.append({"epoch": epoch, "loss": loss})
    return log, opt
