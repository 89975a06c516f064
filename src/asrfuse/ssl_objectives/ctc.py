"""CTC loss via the forward-backward algorithm in log space."""

from __future__ import annotations

import numpy as np

from ..numcore import Tensor, as_tensor
from ..numcore.tensor import ShapeMismatchError

__all__ = ["ctc_loss", "min_frames_for"]

NEG_INF = -np.inf


def min_frames_for(labels) -> int:
    """Shortest frame count that can emit `labels` (repeats need a blank)."""
    labels = list(labels)
    repeats = sum(1 for a, b in zip(labels, labels[1:]) if a == b)
    return len(labels) + repeats


def _log_add(a, b):
    """Elementwise ln(e^a + e^b); where one side is -inf, the other exactly.

    The finite case is m + ln(e^(a-m) + e^(b-m)) with m = max(a, b), not
    `np.logaddexp`, whose low bits differ.  Callers silence the invalid-value
    warning from -inf - -inf, whose NaN `np.where` discards.
    """
    m = np.maximum(a, b)
    both = m + np.log(np.exp(a - m) + np.exp(b - m))
    return np.where(a == NEG_INF, b, np.where(b == NEG_INF, a, both))


def ctc_loss(log_probs, labels, blank: int) -> Tensor:
    """-ln of the total probability of all frame paths collapsing to `labels`.

    `log_probs` is (T, C) with one column per symbol including the blank.
    The gradient (the negated symbol posterior) is exact for arbitrary inputs,
    so the loss is finite-difference checkable.

    Cost: the alpha and beta recursions run together as O(T) numpy row
    updates over the 2L+1 extended states, one frame of each per step.  Each
    row performs the per-cell recursion's operations in its order, so loss and
    gradient are bit-identical to it.
    """
    log_probs = as_tensor(log_probs)
    if log_probs.ndim != 2:
        raise ShapeMismatchError(f"ctc_loss: expected (T, C) scores, got {log_probs.shape}")
    t_len, n_sym = log_probs.shape
    labels = [int(l) for l in labels]
    if not (0 <= blank < n_sym):
        raise ValueError(f"ctc_loss: blank index {blank} outside [0, {n_sym})")
    for l in labels:
        if not (0 <= l < n_sym) or l == blank:
            raise ValueError(f"ctc_loss: label {l} invalid for {n_sym} symbols with blank {blank}")
    if t_len < min_frames_for(labels):
        raise ValueError(
            f"ctc_loss: label of length {len(labels)} needs at least "
            f"{min_frames_for(labels)} frames, got {t_len}"
        )

    # extended label sequence: blank, l1, blank, l2, ..., blank
    ext = [blank]
    for l in labels:
        ext += [l, blank]
    s_len = len(ext)
    y = log_probs.data
    y_ext = y[:, ext]
    # a label state is also entered from two states back (alpha) and left two
    # states ahead (beta) when its label differs from the one it skips to
    ext_arr = np.array(ext)
    skip_a = 2 + np.flatnonzero((ext_arr[2:] != blank) & (ext_arr[2:] != ext_arr[:-2]))
    skip_b = np.flatnonzero((ext_arr[:-2] != blank) & (ext_arr[:-2] != ext_arr[2:]))

    # beta is alpha's recursion over the reversed states and frames, so both
    # run as the two rows of one (T, 2, S) array: row 1 at step t holds
    # beta[T-1-t, ::-1], whose skip targets are S-1-skip_b.  One frame of the
    # array, flattened, takes both rows' skips at once.
    y_both = np.stack([y_ext, y_ext[::-1, ::-1]], axis=1)
    ab = np.full((t_len, 2, s_len), NEG_INF)
    ab[0, :, :2] = y_both[0, :, :2]
    flat, y_flat = ab.reshape(t_len, 2 * s_len), y_both.reshape(t_len, 2 * s_len)
    skip = np.concatenate([skip_a, s_len + (s_len - 1 - skip_b[::-1])])
    with np.errstate(invalid="ignore"):
        for t in range(1, t_len):
            prev, row = ab[t - 1], ab[t]
            row[:, 0] = prev[:, 0]
            row[:, 1:] = _log_add(prev[:, 1:], prev[:, :-1])
            prev, row = flat[t - 1], flat[t]
            row[skip] = _log_add(row[skip], prev[skip - 2])
            row += y_flat[t]
        alpha, beta = ab[:, 0], ab[::-1, 1, ::-1]

        log_z = alpha[-1, -1]
        if s_len > 1:
            log_z = _log_add(log_z, alpha[-1, -2])

        # posterior over extended states; alpha and beta both include y[t, ext[s]]
        gamma = alpha + beta - y_ext - log_z
    gamma[~np.isfinite(gamma)] = NEG_INF

    grad_y = np.zeros_like(y)
    post = np.exp(gamma)
    for s, sym in enumerate(ext):
        grad_y[:, sym] -= post[:, s]

    def backward_fn(g):
        return (g * grad_y,)

    return Tensor._make(np.asarray(-log_z), (log_probs,), backward_fn, "ctc_loss")
