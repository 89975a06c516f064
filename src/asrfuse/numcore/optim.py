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


def _check_finite(grads):
    for g in grads:
        if not np.isfinite(g).all():
            raise NonFiniteError("optimizer: gradient is not finite")


class Adam:
    """Adam with bias correction; defaults beta1=0.9, beta2=0.999, eps=1e-8."""

    def __init__(self, schedule, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.schedule = schedule
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self._m: dict[int, np.ndarray] = {}
        self._v: dict[int, np.ndarray] = {}

    def step(self, params: list[Tensor], grads=None):
        if grads is None:
            grads = [p.grad for p in params]
        _check_finite(grads)
        lr = self.schedule.at(self.step_count)
        t = self.step_count + 1
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for p, g in zip(params, grads):
            key = id(p)
            m = self._m.get(key)
            if m is None:
                m = np.zeros_like(p.data)
                self._m[key] = m
                self._v[key] = np.zeros_like(p.data)
            v = self._v[key]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
        self.step_count = t
        return params

    def state_arrays(self, params):
        """Moment buffers in param order, for checkpoint serialization."""
        out = {"step": np.array([float(self.step_count)])}
        for i, p in enumerate(params):
            out[f"m{i}"] = self._m.get(id(p), np.zeros_like(p.data))
            out[f"v{i}"] = self._v.get(id(p), np.zeros_like(p.data))
        return out

    def load_state_arrays(self, params, arrays):
        """Takes the arrays `state_arrays` lists, at their shapes, as its own."""
        self.step_count = int(arrays["step"][0])
        for i, p in enumerate(params):
            self._m[id(p)] = arrays[f"m{i}"]
            self._v[id(p)] = arrays[f"v{i}"]


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
            opt.load_state_arrays(model.parameters(), optimizer_state)
    log = []
    for epoch in range(start_epoch, start_epoch + epochs):
        try:
            loss = epoch_loss(epoch, opt)
        except NonFiniteError as e:
            raise NonFiniteError(f"epoch {epoch}: {e}") from e
        log.append({"epoch": epoch, "loss": loss})
    return log, opt
