"""Exponentially averaged teacher parameters for regression targets."""

from __future__ import annotations

from ..numcore import ShapeMismatchError, Tensor

__all__ = ["EmaTeacher", "ema_update"]


class EmaTeacher:
    """Holds the teacher network's own parameter arrays, which `ema_update`
    writes in place, so the network reads every update.

    The decay rate multiplies the student: step 0 copies the student;
    afterwards teacher <- decay * student + (1 - decay) * teacher.  This is
    the reverse of the common EMA convention (where the decay multiplies the
    old teacher), so decay=1 tracks the student exactly and decay=0 freezes
    the teacher after initialization.
    """

    def __init__(self, teacher_params: list[Tensor], decay: float):
        if not (0.0 <= decay <= 1.0):
            raise ValueError(f"decay must be in [0, 1], got {decay}")
        self.decay = decay
        self.params = [p.data for p in teacher_params]


def ema_update(teacher: EmaTeacher, student_params: list[Tensor], step: int) -> EmaTeacher:
    """Apply one EMA step in place; step 0 is a straight copy."""
    if len(teacher.params) != len(student_params):
        raise ShapeMismatchError(
            f"ema_update: {len(teacher.params)} teacher arrays vs "
            f"{len(student_params)} student params"
        )
    for i, (t, s) in enumerate(zip(teacher.params, student_params)):
        if t.shape != s.data.shape:
            raise ShapeMismatchError(
                f"ema_update: param {i} shape {t.shape} vs student {s.data.shape}"
            )
        if step == 0:
            t[...] = s.data
        else:
            t *= 1.0 - teacher.decay
            t += teacher.decay * s.data
    return teacher
