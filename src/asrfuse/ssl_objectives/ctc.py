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

    Cost: the alpha and beta recursions are O(T) numpy row updates over the
    2L+1 extended states, one row per frame each way.  Each row performs the
    per-cell recursion's operations in its order, so loss and gradient are
    bit-identical to it.
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

    alpha = np.full((t_len, s_len), NEG_INF)
    alpha[0, :2] = y_ext[0, :2]
    beta = np.full((t_len, s_len), NEG_INF)
    beta[-1, -2:] = y_ext[-1, -2:]
    with np.errstate(invalid="ignore"):
        for t in range(1, t_len):
            prev, row = alpha[t - 1], alpha[t]
            row[0] = prev[0]
            row[1:] = _log_add(prev[1:], prev[:-1])
            row[skip_a] = _log_add(row[skip_a], prev[skip_a - 2])
            row += y_ext[t]

        log_z = alpha[-1, -1]
        if s_len > 1:
            log_z = _log_add(log_z, alpha[-1, -2])

        for t in range(t_len - 2, -1, -1):
            nxt, row = beta[t + 1], beta[t]
            row[-1] = nxt[-1]
            row[:-1] = _log_add(nxt[:-1], nxt[1:])
            row[skip_b] = _log_add(row[skip_b], nxt[skip_b + 2])
            row += y_ext[t]

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
