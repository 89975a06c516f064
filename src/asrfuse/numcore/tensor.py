"""Dense float64 arrays with reverse-mode automatic differentiation.

Every value is a `Tensor` wrapping a row-major float64 ndarray.  Applying a
primitive records the operation and its parents on the result, so that
`backward()` on a scalar loss replays the graph in reverse topological order
and accumulates gradients into the `requires_grad` leaves.  Graphs are
define-by-run: each forward pass builds a fresh record, so independent passes
never share gradient state.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Tensor",
    "ShapeMismatchError",
    "NonFiniteError",
    "as_tensor",
    "no_grad",
    "forward_backward",
    "concat_cols",
    "linear",
    "transposed_conv2",
    "strided_conv2",
    "attention",
    "layer_norm",
]


class ShapeMismatchError(ValueError):
    """Operand shapes are incompatible for the named primitive."""


class NonFiniteError(FloatingPointError):
    """A loss or gradient contains NaN or infinity."""


_grad_enabled = True


class no_grad:
    """Context manager that disables graph recording (e.g. teacher passes).

    Its flag is one module global, so it holds for every thread of the
    process: enter it once, on the thread that starts any workers, and not
    in each worker, whose exits could restore it while another still runs."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` over broadcast axes so it matches the original `shape`."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _axis_tuple(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        return (axis % ndim,)
    return tuple(a % ndim for a in axis)


class Tensor:
    """A float64 array plus optional gradient bookkeeping."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward_fn = None
        self._op = "leaf"

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _make(data, parents, backward_fn, op):
        """Internal: build a recorded intermediate node."""
        out = Tensor(data)
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward_fn = backward_fn
            out._op = op
        return out

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeMismatchError(f"item: tensor has shape {self.shape}, not scalar")
        return float(self.data.reshape(()))

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- elementwise binary ops -----------------------------------------------

    def _binary(self, other, fwd, bwd, op):
        other = as_tensor(other)
        try:
            np.broadcast_shapes(self.shape, other.shape)
        except ValueError:
            raise ShapeMismatchError(
                f"{op}: cannot broadcast {self.shape} with {other.shape}"
            ) from None
        out_data = fwd(self.data, other.data)
        a_shape, b_shape = self.shape, other.shape

        def backward_fn(g):
            ga, gb = bwd(g, self.data, other.data, out_data)
            return (
                _unbroadcast(ga, a_shape) if ga is not None else None,
                _unbroadcast(gb, b_shape) if gb is not None else None,
            )

        return Tensor._make(out_data, (self, other), backward_fn, op)

    def __add__(self, other):
        return self._binary(other, np.add, lambda g, a, b, o: (g, g), "add")

    def __radd__(self, other):
        return as_tensor(other).__add__(self)

    def __sub__(self, other):
        return self._binary(other, np.subtract, lambda g, a, b, o: (g, -g), "sub")

    def __rsub__(self, other):
        return as_tensor(other).__sub__(self)

    def __mul__(self, other):
        return self._binary(other, np.multiply, lambda g, a, b, o: (g * b, g * a), "mul")

    def __rmul__(self, other):
        return as_tensor(other).__mul__(self)

    def __truediv__(self, other):
        return self._binary(
            other,
            np.divide,
            lambda g, a, b, o: (g / b, -g * a / (b * b)),
            "div",
        )

    def __rtruediv__(self, other):
        return as_tensor(other).__truediv__(self)

    def __neg__(self):
        return Tensor._make(-self.data, (self,), lambda g: (-g,), "neg")

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            raise TypeError("pow: exponent must be a Python scalar")
        data = self.data

        def backward_fn(g):
            return (g * p * data ** (p - 1),)

        return Tensor._make(data**p, (self,), backward_fn, "pow")

    # -- elementwise unary ops ------------------------------------------------

    def exp(self):
        out_data = np.exp(self.data)
        return Tensor._make(out_data, (self,), lambda g: (g * out_data,), "exp")

    def log(self):
        data = self.data
        return Tensor._make(np.log(data), (self,), lambda g: (g / data,), "log")

    def sqrt(self):
        out_data = np.sqrt(self.data)
        return Tensor._make(out_data, (self,), lambda g: (g / (2.0 * out_data),), "sqrt")

    def tanh(self):
        out_data = np.tanh(self.data)
        return Tensor._make(
            out_data, (self,), lambda g: (g * (1.0 - out_data * out_data),), "tanh"
        )

    def relu(self):
        # the backward's `out_data > 0` is the forward's mask, so none is kept
        out_data = np.where(self.data > 0, self.data, 0.0)
        return Tensor._make(out_data, (self,), lambda g: (g * (out_data > 0),), "relu")

    def clamp_min(self, floor: float):
        """max(x, floor); gradient is zero where the floor is active."""
        mask = self.data > floor
        return Tensor._make(
            np.where(mask, self.data, floor), (self,), lambda g: (g * mask,), "clamp_min"
        )

    def abs(self):
        sign = np.sign(self.data)
        return Tensor._make(np.abs(self.data), (self,), lambda g: (g * sign,), "abs")

    # -- matmul -----------------------------------------------------------------

    def __matmul__(self, other):
        other = as_tensor(other)
        if self.ndim != 2 or other.ndim != 2 or self.shape[1] != other.shape[0]:
            raise ShapeMismatchError(
                f"matmul: incompatible shapes {self.shape} @ {other.shape}"
            )
        a, b = self.data, other.data

        def backward_fn(g):
            return (g @ b.T, a.T @ g)

        return Tensor._make(a @ b, (self, other), backward_fn, "matmul")

    # -- reductions --------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        shape = self.shape

        def backward_fn(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, _axis_tuple(axis, len(shape)))
            return (np.broadcast_to(g, shape).copy(),)

        return Tensor._make(
            self.data.sum(axis=axis, keepdims=keepdims), (self,), backward_fn, "sum"
        )

    def mean(self, axis=None, keepdims: bool = False):
        shape = self.shape
        axes = _axis_tuple(axis, len(shape))
        count = 1
        for a in axes:
            count *= shape[a]

        def backward_fn(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axes)
            return (np.broadcast_to(g / count, shape).copy(),)

        return Tensor._make(
            self.data.mean(axis=axis, keepdims=keepdims), (self,), backward_fn, "mean"
        )

    def logsumexp(self, axis: int, keepdims: bool = False):
        """Numerically stable log-sum-exp along one axis."""
        ax = axis % self.ndim
        data = self.data
        m = np.max(data, axis=ax, keepdims=True)
        m = np.where(np.isfinite(m), m, 0.0)
        out_keep = m + np.log(np.exp(data - m).sum(axis=ax, keepdims=True))

        def backward_fn(g):
            if not keepdims:
                g = np.expand_dims(g, ax)
            return (g * np.exp(data - out_keep),)

        out_data = out_keep if keepdims else np.squeeze(out_keep, axis=ax)
        return Tensor._make(out_data, (self,), backward_fn, "logsumexp")

    # -- shape ops -----------------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.shape
        return Tensor._make(
            self.data.reshape(shape), (self,), lambda g: (g.reshape(old),), "reshape"
        )

    def transpose(self, axes=None):
        inv = None if axes is None else tuple(np.argsort(axes))

        def backward_fn(g):
            return (g.transpose(inv) if inv is not None else g.transpose(),)

        return Tensor._make(self.data.transpose(axes), (self,), backward_fn, "transpose")

    @property
    def T(self):
        return self.transpose()

    def narrow(self, axis: int, start: int, length: int):
        """Contiguous slice along one axis; backward zero-pads."""
        ax = axis % self.ndim
        if start < 0 or start + length > self.shape[ax]:
            raise ShapeMismatchError(
                f"narrow: [{start}:{start + length}] out of range for axis {ax} "
                f"of shape {self.shape}"
            )
        idx = tuple(
            slice(start, start + length) if i == ax else slice(None)
            for i in range(self.ndim)
        )
        shape = self.shape

        def backward_fn(g):
            full = np.zeros(shape)
            full[idx] = g
            return (full,)

        return Tensor._make(self.data[idx], (self,), backward_fn, "narrow")

    def take_rows(self, indices):
        """Gather rows (axis 0) by integer index; backward scatter-adds."""
        idx = np.asarray(indices, dtype=np.intp)
        shape = self.shape

        def backward_fn(g):
            full = np.zeros(shape)
            np.add.at(full, idx, g)
            return (full,)

        return Tensor._make(self.data[idx], (self,), backward_fn, "take_rows")

    def take_at(self, row_indices, col_indices):
        """Gather matrix elements at (row, col) pairs; backward scatter-adds."""
        if self.ndim != 2:
            raise ShapeMismatchError(f"take_at: expected 2D tensor, got {self.shape}")
        rows = np.asarray(row_indices, dtype=np.intp)
        cols = np.asarray(col_indices, dtype=np.intp)
        shape = self.shape

        def backward_fn(g):
            full = np.zeros(shape)
            np.add.at(full, (rows, cols), g)
            return (full,)

        return Tensor._make(self.data[rows, cols], (self,), backward_fn, "take_at")

    def dropout(self, rate: float, rng: np.random.Generator | None):
        """Inverted dropout with its mask drawn from `rng`.  Only a training
        step passes an rng: with `rng` None, or at rate 0, it returns `self`
        and draws nothing.

        The node keeps the bool mask, not a float64 array: forward and
        backward each multiply by `mask / (1 - rate)`, the same ufunc on the
        same operands, so both see the same bits.
        """
        if not (0.0 <= rate < 1.0):
            raise ValueError(f"dropout: rate must be in [0, 1), got {rate}")
        if rng is None or rate == 0.0:
            return self
        mask = rng.random(self.shape) >= rate
        scale = 1.0 - rate
        return Tensor._make(
            self.data * (mask / scale), (self,), lambda g: (g * (mask / scale),), "dropout"
        )

    # -- autodiff ---------------------------------------------------------------

    def backward(self):
        """Accumulate d(self)/d(leaf) into every reachable requires_grad leaf."""
        if self.data.size != 1:
            raise ShapeMismatchError(
                f"backward: loss must be scalar, got shape {self.shape}"
            )
        if not np.isfinite(self.data).all():
            raise NonFiniteError("backward: loss is not finite")

        order: list[Tensor] = []
        seen = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))

        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(order):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward_fn is None:
                if node.requires_grad:
                    node.grad = g if node.grad is None else node.grad + g
                continue
            for parent, pg in zip(node._parents, node._backward_fn(g)):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def concat_cols(tensors) -> Tensor:
    """Concatenate 2D tensors along columns; backward splits the gradient."""
    tensors = [as_tensor(t) for t in tensors]
    rows = tensors[0].shape[0]
    for t in tensors:
        if t.ndim != 2 or t.shape[0] != rows:
            raise ShapeMismatchError(
                f"concat_cols: row counts differ: {[t.shape for t in tensors]}"
            )
    widths = [t.shape[1] for t in tensors]
    edges = np.cumsum([0] + widths)

    def backward_fn(g):
        return tuple(g[:, edges[i] : edges[i + 1]] for i in range(len(tensors)))

    data = np.concatenate([t.data for t in tensors], axis=1)
    return Tensor._make(data, tuple(tensors), backward_fn, "concat_cols")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """`x @ w + b` for (T, d_in) x, (d_in, d_out) w and (d_out,) b, one node.

    Output and gradients are bit-identical to the matmul and add nodes it
    replaces: the backward is theirs, `(g @ w.T, x.T @ g)` and the bias's
    column sums.  The node keeps `x` and `w`, not the (T, d_out) product.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeMismatchError(
            f"linear: incompatible shapes {x.shape} @ {w.shape} + {b.shape}"
        )
    xd, wd = x.data, w.data
    out = xd @ wd
    np.add(out, b.data, out=out)

    def backward_fn(g):
        return g @ wd.T, xd.T @ g, _unbroadcast(g, b.shape)

    return Tensor._make(out, (x, w, b), backward_fn, "linear")


def _check_conv2(op: str, x: Tensor, w_even: Tensor, w_odd: Tensor, b: Tensor):
    if (x.ndim != 2 or w_even.ndim != 2 or w_even.shape != w_odd.shape
            or x.shape[1] != w_even.shape[0] or b.shape != (w_even.shape[1],)):
        raise ShapeMismatchError(
            f"{op}: incompatible shapes {x.shape} with taps {w_even.shape}, "
            f"{w_odd.shape} and bias {b.shape}"
        )


def transposed_conv2(x: Tensor, w_even: Tensor, w_odd: Tensor, b: Tensor) -> Tensor:
    """Kernel-2, stride-2 transposed convolution over the rows of a (T, d_in)
    `x`, one node: output row 2t is `x[t] @ w_even + b` and row 2t+1 is
    `x[t] @ w_odd + b`, so (T, d_in) becomes (2T, d_out).

    Bit-identical to `x @ w_even` and `x @ w_odd` interleaved row by row plus
    `b`.  `x` is listed twice as a parent: its even-row and odd-row gradients
    come back separately, so the engine adds them to x's other gradients in
    that graph's order.  The node keeps `x` and the taps, not the products.
    """
    x, w_even, w_odd, b = (as_tensor(t) for t in (x, w_even, w_odd, b))
    _check_conv2("transposed_conv2", x, w_even, w_odd, b)
    xd, we, wo = x.data, w_even.data, w_odd.data
    out = np.empty((2 * x.shape[0], we.shape[1]))
    out[0::2] = xd @ we
    out[1::2] = xd @ wo
    np.add(out, b.data, out=out)

    def backward_fn(g):
        g_even, g_odd = g[0::2], g[1::2]
        return (g_even @ we.T, g_odd @ wo.T, xd.T @ g_even, xd.T @ g_odd,
                _unbroadcast(g, b.shape))

    return Tensor._make(out, (x, x, w_even, w_odd, b), backward_fn, "transposed_conv2")


def strided_conv2(x: Tensor, w_even: Tensor, w_odd: Tensor, b: Tensor) -> Tensor:
    """Kernel-2, stride-2 convolution over the rows of a (2T, d_in) `x`, one
    node: output row t is `x[2t] @ w_even + x[2t+1] @ w_odd + b`, so
    (2T, d_in) becomes (T, d_out).

    Bit-identical to the graph that gathers the even and odd rows with
    `take_rows`, multiplies each by its tap and adds the bias.  The node keeps
    only `x` and the taps; the backward gathers the row copies again for the
    tap gradients.  x's gradient holds `g @ w_even.T + 0.0` in its even rows
    and `g @ w_odd.T + 0.0` in its odd rows: the value of each `take_rows`
    scatter-add into zeros, and of their sum, since each scatter leaves the
    other parity at 0.0.
    """
    x, w_even, w_odd, b = (as_tensor(t) for t in (x, w_even, w_odd, b))
    _check_conv2("strided_conv2", x, w_even, w_odd, b)
    if x.shape[0] % 2:
        raise ShapeMismatchError(f"strided_conv2: odd row count {x.shape[0]}")
    xd, we, wo = x.data, w_even.data, w_odd.data
    out = xd[0::2].copy() @ we
    np.add(out, xd[1::2].copy() @ wo, out=out)
    np.add(out, b.data, out=out)

    def backward_fn(g):
        gx = np.empty(xd.shape)
        np.add(g @ we.T, 0.0, out=gx[0::2])
        np.add(g @ wo.T, 0.0, out=gx[1::2])
        return (gx, xd[0::2].copy().T @ g, xd[1::2].copy().T @ g,
                _unbroadcast(g, b.shape))

    return Tensor._make(out, (x, w_even, w_odd, b), backward_fn, "strided_conv2")


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention over (T, d) projections, one node.

    Head h reads columns [h*d/H, (h+1)*d/H) of q, k and v and writes the same
    columns of the output.  Each score row is normalised in
    `Tensor.logsumexp`'s op order, and the backward reuses the softmax for the
    logsumexp term.  Output and gradients are bit-identical to the graph of
    per-head `narrow`, matmul, `logsumexp`, `exp` and `concat_cols` nodes.
    The heads run one after another on (T, d/H) column views: (H, T, T)
    batches of temporaries were slower at T=100 and T=400.

    The node keeps no (T, T) array.  Per head it keeps the (T, 1) row offset
    `m + log(sum(exp(scaled - m)))`, FlashAttention's log-sum-exp statistic
    (arXiv:2205.14135), so a recorded call holds O(H*T) beyond its output
    instead of H softmaxes.  The forward allocates two (T, T) buffers shared
    by all heads, one for the scores and then the softmax and one for
    `exp(scaled - m)`.  The backward allocates three: one into which it
    replays each head's softmax, `exp(q_h @ k_h.T * inv_sqrt - offset)`, and
    two for the gradient of the scores.  Every (T, T) step writes with `out=`
    in the ufuncs and order of fresh arrays, and the replay runs the
    forward's own ufuncs on the same operands and shapes, so it gives the
    forward's softmax bit for bit as long as BLAS runs the matmul the same
    way, that is, at a fixed BLAS thread count.  The buffers live only as
    long as the call.
    Tiling the query rows was rejected: BLAS results depend on the operand
    shape, and blocks of 8 to 128 rows changed low bits of `att @ v` at T=400.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.ndim != 2 or q.shape != k.shape or q.shape != v.shape:
        raise ShapeMismatchError(
            f"attention: q, k, v must share one 2D shape, got {q.shape}, {k.shape}, {v.shape}"
        )
    t, d = q.shape
    if n_heads < 1 or d % n_heads != 0:
        raise ShapeMismatchError(f"attention: width {d} not divisible by n_heads={n_heads}")
    d_head = d // n_heads
    inv_sqrt = 1.0 / math.sqrt(d_head)
    heads = [slice(lo, lo + d_head) for lo in range(0, d, d_head)]
    qd, kd, vd = q.data, k.data, v.data

    def scaled_scores(h, buf):
        return np.multiply(np.matmul(qd[:, h], kd[:, h].T, out=buf), inv_sqrt, out=buf)

    out = np.empty((t, d))
    att, exp_shifted = np.empty((t, t)), np.empty((t, t))
    offsets = []
    for h in heads:
        scaled_scores(h, att)
        m = np.max(att, axis=-1, keepdims=True)
        m = np.where(np.isfinite(m), m, 0.0)
        np.exp(np.subtract(att, m, out=exp_shifted), out=exp_shifted)
        offset = m + np.log(exp_shifted.sum(axis=-1, keepdims=True))
        np.exp(np.subtract(att, offset, out=att), out=att)
        out[:, h] = att @ vd[:, h]
        offsets.append(offset)

    def backward_fn(g):
        # C-contiguous like the graph's zero-padded sum over heads: a strided
        # gradient changes the summation order of the bias gradient.  + 0.0
        # turns -0.0 into 0.0 the way that sum does.
        dq, dk, dv = np.empty((t, d)), np.empty((t, d)), np.empty((t, d))
        att, g_diff, g_s = np.empty((t, t)), np.empty((t, t)), np.empty((t, t))
        for h, offset in zip(heads, offsets):
            np.exp(np.subtract(scaled_scores(h, att), offset, out=att), out=att)
            np.multiply(np.matmul(g[:, h], vd[:, h].T, out=g_diff), att, out=g_diff)
            row = np.negative(g_diff, out=g_s).sum(axis=-1, keepdims=True)
            np.add(g_diff, np.multiply(row, att, out=g_s), out=g_s)
            np.multiply(g_s, inv_sqrt, out=g_s)
            np.add(g_s @ kd[:, h], 0.0, out=dq[:, h])
            np.add((qd[:, h].T @ g_s).T, 0.0, out=dk[:, h])
            np.add(att.T @ g[:, h], 0.0, out=dv[:, h])
        return dq, dk, dv

    return Tensor._make(out, (q, k, v), backward_fn, "attention")


def _center_and_scale(xd: np.ndarray, eps: float):
    """LayerNorm's `x - mean` and `sqrt(var + eps)` over the last axis."""
    centered = xd - xd.mean(axis=-1, keepdims=True)
    return centered, np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + eps)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """(x - mean) / sqrt(var + eps) * gamma + beta over the last axis, one node.

    Bit-identical to the graph of `mean`, `sub`, `mul`, `div`, `sqrt` and
    `add` nodes.  `x` is listed twice as a parent: the centred term and the
    mean term of its gradient come back separately, so the engine adds them
    to x's other gradients in the graph's order.  The node keeps only its
    inputs: the backward recomputes `centered` and `sd` from `x` with the
    forward's own ufuncs, so it sees the forward's bits.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    count = x.shape[-1]
    if gamma.shape != (count,) or beta.shape != (count,):
        raise ShapeMismatchError(
            f"layer_norm: gamma {gamma.shape} and beta {beta.shape} must be ({count},)"
        )
    xd, shape = x.data, x.shape

    def backward_fn(g):
        centered, sd = _center_and_scale(xd, eps)
        g_normed = g * gamma.data
        g_sd = _unbroadcast(-g_normed * centered / (sd * sd), sd.shape)
        g_sq = g_sd / (2.0 * sd) / count
        g_centered = g_normed / sd + g_sq * centered + g_sq * centered
        g_mu = _unbroadcast(-g_centered, sd.shape)
        return (
            g_centered,
            np.broadcast_to(g_mu / count, shape).copy(),
            _unbroadcast(g * (centered / sd), gamma.shape),
            _unbroadcast(g, beta.shape),
        )

    centered, sd = _center_and_scale(xd, eps)
    out = centered / sd * gamma.data + beta.data
    return Tensor._make(out, (x, x, gamma, beta), backward_fn, "layer_norm")


def forward_backward(loss_fn, params):
    """Zero param grads, evaluate `loss_fn()` and backpropagate.

    Returns (loss value, list of gradients aligned with `params`).  Raises
    NonFiniteError if the loss is NaN/inf; gradients are not scanned here,
    because the optimizer's `step` checks them before it applies them.
    """
    for p in params:
        p.grad = None
    loss = loss_fn()
    if not isinstance(loss, Tensor):
        raise TypeError("forward_backward: loss_fn must return a Tensor")
    loss.backward()
    grads = []
    for p in params:
        if p.grad is None:
            p.grad = np.zeros_like(p.data)
        grads.append(p.grad)
    return loss.item(), grads
