"""Independent reference implementations used as test oracles.

Everything here is deliberately brute-force or closed-form and shares no code
with the package under test, except slow paths that a fast one must match
exactly: `align_and_count_dp`, the full-table edit distance and backtrace
behind `scoring.align_and_count`; `ctc_loss_two_loop`, the separate alpha and
beta loops behind `ctc_loss`; `mtl_loss_one_step`, the one-graph a2a loss
behind `a2a.mtl_loss` (it reuses the package's MSE and Pearson terms); and the
per-op graphs at the end, the transformer block's attention and LayerNorm as
separate numcore nodes, which `numcore.attention` and `numcore.layer_norm`
must match bit for bit.  `fss1_bytes` encodes an FSS1 file without
`asrfuse.formats`, so a test can build one that the writer refuses.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
from itertools import islice

import numpy as np

from asrfuse.a2a import mse_loss, pearson_corr
from asrfuse.numcore import Tensor, concat_cols
from asrfuse.scoring import AlignmentResult


def finite_difference_grads(fn, arrays, h: float = 1e-5):
    """Central-difference gradients of scalar fn(arrays) w.r.t. each array."""
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = fn(arrays)
            flat[i] = orig - h
            down = fn(arrays)
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def grad_rel_err(analytic, numeric) -> float:
    """Infinity-norm relative error between two gradient arrays."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0), 1e-8)
    return float(np.abs(analytic - numeric).max(initial=0.0) / scale)


def ctc_loss_brute_force(logp: np.ndarray, labels, blank: int) -> float:
    """-ln sum over all length-T paths that collapse to `labels`.

    Collapse rule: merge repeats, then drop blanks.  Exponential in T; only
    for small instances.
    """
    t_len, n_sym = logp.shape
    labels = list(labels)
    total = 0.0
    for path in itertools.product(range(n_sym), repeat=t_len):
        collapsed = []
        prev = None
        for s in path:
            if s != prev:
                collapsed.append(s)
            prev = s
        collapsed = [s for s in collapsed if s != blank]
        if collapsed == labels:
            total += math.exp(sum(logp[t, s] for t, s in enumerate(path)))
    if total == 0.0:
        return math.inf
    return -math.log(total)


def ctc_all_label_probs(logp: np.ndarray, blank: int) -> dict:
    """Total probability of every collapsed label, by enumerating all paths.

    Returns {label tuple: probability}.  One pass over the (C)^T paths covers
    every label at once.
    """
    t_len, n_sym = logp.shape
    probs: dict = {}
    for path in itertools.product(range(n_sym), repeat=t_len):
        collapsed = []
        prev = None
        for s in path:
            if s != prev:
                collapsed.append(s)
            prev = s
        key = tuple(s for s in collapsed if s != blank)
        p = math.exp(sum(logp[t, s] for t, s in enumerate(path)))
        probs[key] = probs.get(key, 0.0) + p
    return probs


def _log_add(a, b):
    if a == -np.inf:
        return b
    if b == -np.inf:
        return a
    m = max(a, b)
    return m + np.log(np.exp(a - m) + np.exp(b - m))


def ctc_loss_per_cell(y: np.ndarray, labels, blank: int):
    """CTC loss and gradient w.r.t. `y` by the per-cell alpha/beta recursion.

    The scalar slow path the package's row-vectorised `ctc_loss` replaces;
    its results must match this bit for bit.  Returns (loss, grad).
    """
    t_len = y.shape[0]
    ext = [blank]
    for l in labels:
        ext += [l, blank]
    s_len = len(ext)

    alpha = np.full((t_len, s_len), -np.inf)
    alpha[0, 0] = y[0, ext[0]]
    if s_len > 1:
        alpha[0, 1] = y[0, ext[1]]
    for t in range(1, t_len):
        for s in range(s_len):
            a = alpha[t - 1, s]
            if s >= 1:
                a = _log_add(a, alpha[t - 1, s - 1])
            if s >= 2 and ext[s] != blank and ext[s] != ext[s - 2]:
                a = _log_add(a, alpha[t - 1, s - 2])
            alpha[t, s] = a + y[t, ext[s]]

    log_z = alpha[t_len - 1, s_len - 1]
    if s_len > 1:
        log_z = _log_add(log_z, alpha[t_len - 1, s_len - 2])

    beta = np.full((t_len, s_len), -np.inf)
    beta[t_len - 1, s_len - 1] = y[t_len - 1, ext[s_len - 1]]
    if s_len > 1:
        beta[t_len - 1, s_len - 2] = y[t_len - 1, ext[s_len - 2]]
    for t in range(t_len - 2, -1, -1):
        for s in range(s_len):
            b = beta[t + 1, s]
            if s + 1 < s_len:
                b = _log_add(b, beta[t + 1, s + 1])
            if s + 2 < s_len and ext[s] != blank and ext[s] != ext[s + 2]:
                b = _log_add(b, beta[t + 1, s + 2])
            beta[t, s] = b + y[t, ext[s]]

    with np.errstate(invalid="ignore"):
        gamma = alpha + beta - y[:, ext] - log_z
    gamma[~np.isfinite(gamma)] = -np.inf

    grad_y = np.zeros_like(y)
    post = np.exp(gamma)
    for s, sym in enumerate(ext):
        grad_y[:, sym] -= post[:, s]
    return -log_z, grad_y


def _log_add_rows(a, b):
    m = np.maximum(a, b)
    both = m + np.log(np.exp(a - m) + np.exp(b - m))
    return np.where(a == -np.inf, b, np.where(b == -np.inf, a, both))


def ctc_loss_two_loop(y: np.ndarray, labels, blank: int):
    """CTC loss and gradient w.r.t. `y` by row-vectorised alpha and beta
    recursions run as two separate loops, one row per frame each way.

    The slow path that `ctc_loss`'s single loop over both recursions
    replaces; its results must match this bit for bit.  Returns (loss, grad).
    """
    t_len = y.shape[0]
    ext = [blank]
    for l in labels:
        ext += [l, blank]
    s_len = len(ext)
    y_ext = y[:, ext]
    ext_arr = np.array(ext)
    skip_a = 2 + np.flatnonzero((ext_arr[2:] != blank) & (ext_arr[2:] != ext_arr[:-2]))
    skip_b = np.flatnonzero((ext_arr[:-2] != blank) & (ext_arr[:-2] != ext_arr[2:]))

    alpha = np.full((t_len, s_len), -np.inf)
    alpha[0, :2] = y_ext[0, :2]
    beta = np.full((t_len, s_len), -np.inf)
    beta[-1, -2:] = y_ext[-1, -2:]
    with np.errstate(invalid="ignore"):
        for t in range(1, t_len):
            prev, row = alpha[t - 1], alpha[t]
            row[0] = prev[0]
            row[1:] = _log_add_rows(prev[1:], prev[:-1])
            row[skip_a] = _log_add_rows(row[skip_a], prev[skip_a - 2])
            row += y_ext[t]

        log_z = alpha[-1, -1]
        if s_len > 1:
            log_z = _log_add_rows(log_z, alpha[-1, -2])

        for t in range(t_len - 2, -1, -1):
            nxt, row = beta[t + 1], beta[t]
            row[-1] = nxt[-1]
            row[:-1] = _log_add_rows(nxt[:-1], nxt[1:])
            row[skip_b] = _log_add_rows(row[skip_b], nxt[skip_b + 2])
            row += y_ext[t]

        gamma = alpha + beta - y_ext - log_z
    gamma[~np.isfinite(gamma)] = -np.inf

    grad_y = np.zeros_like(y)
    post = np.exp(gamma)
    for s, sym in enumerate(ext):
        grad_y[:, sym] -= post[:, s]
    return -log_z, grad_y


def edit_distance_recursive(ref, hyp) -> int:
    """Plain recursive minimum edit distance with unit costs."""
    if not ref:
        return len(hyp)
    if not hyp:
        return len(ref)
    sub = edit_distance_recursive(ref[1:], hyp[1:]) + (ref[0] != hyp[0])
    ins = edit_distance_recursive(ref, hyp[1:]) + 1
    dele = edit_distance_recursive(ref[1:], hyp) + 1
    return min(sub, ins, dele)


def edit_distances_to_all(ref, alphabet, max_len: int) -> dict:
    """Distance from `ref` to every sequence up to `max_len`, via recursive
    depth-first enumeration that extends one DP row per appended symbol.

    Returns {hyp tuple: distance}.  Independent of any backtrace logic.
    """
    r = len(ref)
    out: dict = {}

    def visit(hyp, row):
        out[tuple(hyp)] = row[r]
        if len(hyp) == max_len:
            return
        for sym in alphabet:
            new = [row[0] + 1]
            for i in range(1, r + 1):
                new.append(min(
                    row[i - 1] + (ref[i - 1] != sym),  # substitute/match
                    row[i] + 1,                        # insert sym into hyp
                    new[i - 1] + 1,                    # delete ref token
                ))
            visit(hyp + [sym], new)

    visit([], list(range(0, r + 1)))
    return out


def align_and_count_dp(ref: list, hyp: list) -> AlignmentResult:
    """Minimum edit distance with unit costs and a deterministic backtrace.

    The full (r+1) x (h+1) table of Python ints, then a backtrace from (r, h).
    Cost ties prefer substitution/match over insertion over deletion.  The
    aligned pairs use None for the missing side of insertions and deletions.
    """
    if not ref:
        raise ValueError("align_and_count: empty reference")
    r, h = len(ref), len(hyp)
    dist = [list(range(h + 1))]
    for i, tok in enumerate(ref, start=1):
        prev = dist[-1]
        row = [i]
        left, diag = i, prev[0]
        # row[j] = min(diag + (tok != hyp[j-1]), left + 1, up + 1)
        for up, other in zip(islice(prev, 1, None), hyp):
            if other != tok:
                diag += 1
            if up < left:
                left = up
            left += 1
            if diag < left:
                left = diag
            row.append(left)
            diag = up
        dist.append(row)

    subs = dels = inss = 0
    pairs = []
    i, j = r, h
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dist[i][j] == dist[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]):
            if ref[i - 1] != hyp[j - 1]:
                subs += 1
            pairs.append((ref[i - 1], hyp[j - 1]))
            i, j = i - 1, j - 1
        elif j > 0 and dist[i][j] == dist[i][j - 1] + 1:
            inss += 1
            pairs.append((None, hyp[j - 1]))
            j -= 1
        else:
            dels += 1
            pairs.append((ref[i - 1], None))
            i -= 1
    pairs.reverse()
    return AlignmentResult(subs, dels, inss, r, pairs)


def normal_two_sided_p(z: float) -> float:
    """Two-sided tail probability of the standard normal."""
    return math.erfc(abs(z) / math.sqrt(2.0))


def mdn_nll_direct(weights, means, sigmas, targets) -> float:
    """Direct (non-log-domain) diagonal Gaussian mixture NLL, summed over frames.

    weights: (T, M); means, sigmas: (T, M, D); targets: (T, D).
    """
    weights = np.asarray(weights, dtype=np.float64)
    means = np.asarray(means, dtype=np.float64)
    sigmas = np.asarray(sigmas, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    t_len, m_comp, d_dim = means.shape
    total = 0.0
    for t in range(t_len):
        mix = 0.0
        for m in range(m_comp):
            dens = 1.0
            for d in range(d_dim):
                s = sigmas[t, m, d]
                dens *= math.exp(-0.5 * ((targets[t, d] - means[t, m, d]) / s) ** 2) / (
                    s * math.sqrt(2.0 * math.pi)
                )
            mix += weights[t, m] * dens
        total += math.log(mix)
    return -total


def mtl_loss_one_step(params, targets, weights) -> Tensor:
    """The a2a multi-task loss as one graph over all frames, the form that
    `asrfuse.a2a.mtl_loss` splits into a per-frame and a reduction step:
    weights.mdn * L_MDN + weights.mse * L_MSE - weights.pearson * rho.
    Its loss and gradients must match the split form's bit for bit."""
    pred = params.mixture_mean()
    total = None
    if weights.mdn:
        t, m, d = params.means.shape
        a = Tensor(np.asarray(targets, dtype=np.float64).reshape(t, 1, d))
        sig = params.sigmas()
        z = (a - params.means) / sig
        comp_ll = (z * z * -0.5 - sig.log() - 0.5 * math.log(2.0 * math.pi)).sum(axis=2)
        frame_ll = (params.log_weights() + comp_ll).logsumexp(axis=1)
        total = -frame_ll.sum() * weights.mdn
    for weight, term in ((weights.mse, mse_loss), (-weights.pearson, pearson_corr)):
        if weight:
            part = term(pred, targets) * weight
            total = part if total is None else total + part
    return total


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Independent row softmax for cross-entropy oracles."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


# -- per-op graphs of the transformer block and the bottleneck -----------------------

def graph_linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """`x @ w + b` as a matmul and an add node."""
    return x @ w + b


def graph_relu(x: Tensor) -> Tensor:
    """ReLU as a `clamp_min` node, which keeps its bool mask."""
    return x.clamp_min(0.0)


def graph_interleave_rows(a: Tensor, b: Tensor) -> Tensor:
    """Rows a0, b0, a1, b1, ... of two (T, D) tensors, as a `concat_cols` and
    a `reshape` node; the backward hands back the row views g[0::2] and
    g[1::2]."""
    return concat_cols([a, b]).reshape(2 * a.shape[0], a.shape[1])


def graph_transposed_conv2(x: Tensor, w_even: Tensor, w_odd: Tensor, b: Tensor) -> Tensor:
    return graph_interleave_rows(x @ w_even, x @ w_odd) + b


def graph_strided_conv2(x: Tensor, w_even: Tensor, w_odd: Tensor, b: Tensor) -> Tensor:
    n2 = x.shape[0]
    even = x.take_rows(np.arange(0, n2, 2))
    odd = x.take_rows(np.arange(1, n2, 2))
    return even @ w_even + odd @ w_odd + b


def graph_bottleneck(module, x: Tensor, rng=None):
    """`BottleneckModule.forward` as per-op nodes: (extracted, restored)."""
    m, rate = module, module.dropout
    up = graph_transposed_conv2(x, m.up_even, m.up_odd, m.up_bias)
    extracted = graph_relu(graph_linear(up, m.fc1_w, m.fc1_b)).dropout(rate, rng)
    down = graph_strided_conv2(extracted, m.down_even, m.down_odd, m.down_bias)
    restored = graph_relu(graph_linear(down, m.fc2_w, m.fc2_b))
    return extracted, restored.dropout(rate, rng)


def graph_layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """LayerNorm over the last axis as 9 numcore nodes."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / (var + eps).sqrt() * gamma + beta


def _graph_softmax_rows(x: Tensor) -> Tensor:
    return (x - x.logsumexp(axis=-1, keepdims=True)).exp()


def graph_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int) -> Tensor:
    """Multi-head attention as a per-head loop: 10 nodes per head plus a concat."""
    d_head = q.shape[1] // n_heads
    heads = []
    inv_sqrt = 1.0 / math.sqrt(d_head)
    for h in range(n_heads):
        lo = h * d_head
        qh = q.narrow(1, lo, d_head)
        kh = k.narrow(1, lo, d_head)
        vh = v.narrow(1, lo, d_head)
        att = _graph_softmax_rows((qh @ kh.T) * inv_sqrt)
        heads.append(att @ vh)
    return concat_cols(heads)


def graph_transformer_block(block, x: Tensor, rng=None) -> Tensor:
    """`TransformerBlock.__call__` as per-op nodes; dropout only when an rng
    is passed."""
    def lin(layer, h):
        return graph_linear(h, layer.w, layer.b)

    a = graph_layer_norm(x, block.ln1.gamma, block.ln1.beta, block.ln1.eps)
    heads = graph_attention(lin(block.wq, a), lin(block.wk, a), lin(block.wv, a), block.n_heads)
    out = lin(block.wo, heads)
    if rng is not None and block.dropout > 0:
        out = out.dropout(block.dropout, rng)
    x = x + out
    a = graph_layer_norm(x, block.ln2.gamma, block.ln2.beta, block.ln2.eps)
    ff = lin(block.ff2, graph_relu(lin(block.ff1, a)))
    if rng is not None and block.dropout > 0:
        ff = ff.dropout(block.dropout, rng)
    return x + ff


def fss1_bytes(tokens: list, scores, frame_period_ms: float = 10.0) -> bytes:
    """The bytes of an FSS1 file, by the layout in the `formats` docstring."""
    scores = np.asarray(scores, dtype="<f4")
    blob = json.dumps(tokens, ensure_ascii=False).encode("utf-8")
    return (b"FSS1" + struct.pack("<IIfI", *scores.shape, frame_period_ms, len(blob))
            + blob + scores.tobytes())
