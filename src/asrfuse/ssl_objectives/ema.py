"""Exponentially averaged teacher parameters for regression targets."""

from __future__ import annotations

from ..numcore import ShapeMismatchError, Tensor

__all__ = ["ema_update"]


def ema_update(teacher_params: list[Tensor], student_params: list[Tensor], decay: float,
               step: int):
    """Apply one EMA step to the teacher network's own parameter arrays, in
    place, so the teacher reads every update.

    The decay rate multiplies the student: step 0 copies the student;
    afterwards teacher <- decay * student + (1 - decay) * teacher.  This is
    the reverse of the common EMA convention (where the decay multiplies the
    old teacher), so decay=1 tracks the student exactly and decay=0 freezes
    the teacher after initialization.
    """
    if not (0.0 <= decay <= 1.0):
        raise ValueError(f"decay must be in [0, 1], got {decay}")
    if len(teacher_params) != len(student_params):
        raise ShapeMismatchError(
            f"ema_update: {len(teacher_params)} teacher arrays vs "
            f"{len(student_params)} student params"
        )
    for i, (t, s) in enumerate(zip(teacher_params, student_params)):
        if t.data.shape != s.data.shape:
            raise ShapeMismatchError(
                f"ema_update: param {i} shape {t.data.shape} vs student {s.data.shape}"
            )
        if step == 0:
            t.data[...] = s.data
        else:
            t.data *= 1.0 - decay
            t.data += decay * s.data
