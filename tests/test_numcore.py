"""Engine tests: gradient correctness, determinism, optimizers."""

import tracemalloc

import numpy as np
import pytest

from asrfuse.numcore import (
    Adam,
    LinearDecayLr,
    NonFiniteError,
    ShapeMismatchError,
    Tensor,
    attention,
    concat_cols,
    forward_backward,
    layer_norm,
    linear,
    make_rng,
    no_grad,
    run_epochs,
    strided_conv2,
    transposed_conv2,
)
from asrfuse.numcore import optim
from asrfuse.ssl_objectives.context import TransformerBlock
from asrfuse.ssl_objectives.trainers import SslConfig, build_ssl_model

from oracles import (
    finite_difference_grads,
    grad_rel_err,
    graph_interleave_rows,
    graph_linear,
    graph_strided_conv2,
    graph_transposed_conv2,
)

GRAD_TOL = 1e-4


def check_grads(build_loss, arrays, h=1e-5):
    """Compare autodiff gradients against central finite differences."""
    params = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    _, grads = forward_backward(lambda: build_loss(params), params)

    def numeric_fn(arrs):
        consts = [Tensor(a) for a in arrs]
        return build_loss(consts).item()

    numeric = finite_difference_grads(numeric_fn, [a.copy() for a in arrays], h=h)
    for g_ana, g_num in zip(grads, numeric):
        assert grad_rel_err(g_ana, g_num) < GRAD_TOL


class TestBasicsAndExamples:
    def test_sum_of_squares_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = (x * x).sum()
        loss.backward()
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_constant_loss_zero_grads(self):
        x = Tensor([3.0, -1.0], requires_grad=True)
        _, grads = forward_backward(lambda: Tensor(5.0) * Tensor(1.0), [x])
        np.testing.assert_array_equal(grads[0], np.zeros(2))

    def test_mlp_matches_finite_differences(self):
        rng = make_rng(7)
        x = rng.normal(size=(5, 3))
        ws = [rng.normal(size=(3, 4)), rng.normal(size=(4, 4)), rng.normal(size=(4, 1))]
        bs = [rng.normal(size=(1, 4)), rng.normal(size=(1, 4)), rng.normal(size=(1, 1))]

        def loss(params):
            w1, w2, w3, b1, b2, b3 = params
            h1 = (Tensor(x) @ w1 + b1).tanh()
            h2 = (h1 @ w2 + b2).tanh()
            return ((h2 @ w3 + b3) ** 2).sum()

        check_grads(loss, ws + bs)


class TestPrimitiveGradients:
    """Finite-difference check for every exported differentiable primitive."""

    @pytest.mark.parametrize("seed", range(3))
    def test_elementwise_binary(self, seed):
        rng = make_rng(seed)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4)) + 3.0  # keep divisor away from zero
        check_grads(lambda p: ((p[0] + p[1]) * p[0] - p[0] / p[1]).sum(), [a, b])

    @pytest.mark.parametrize("seed", range(3))
    def test_broadcasting(self, seed):
        rng = make_rng(seed)
        a = rng.normal(size=(4, 3))
        row = rng.normal(size=(1, 3))
        col = rng.normal(size=(4, 1))
        check_grads(lambda p: ((p[0] + p[1]) * p[2]).sum(), [a, row, col])

    @pytest.mark.parametrize("seed", range(3))
    def test_unary(self, seed):
        rng = make_rng(seed)
        x = rng.uniform(0.5, 2.0, size=(3, 3))

        def loss(p):
            (t,) = p
            return (t.exp() + t.log() + t.sqrt() + t.tanh() + (-t) + t**3).sum()

        check_grads(loss, [x])

    def test_relu_clamp_abs_away_from_kinks(self):
        rng = make_rng(11)
        x = rng.choice([-1.0, 1.0], size=(4, 4)) * rng.uniform(0.5, 2.0, size=(4, 4))
        check_grads(lambda p: (p[0].relu() + p[0].clamp_min(0.1) + p[0].abs()).sum(), [x])

    @pytest.mark.parametrize("seed", range(3))
    def test_matmul(self, seed):
        rng = make_rng(seed)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        check_grads(lambda p: ((p[0] @ p[1]) ** 2).sum(), [a, b])

    @pytest.mark.parametrize("axis,keepdims", [(0, False), (1, True), (None, False)])
    def test_reductions(self, axis, keepdims):
        rng = make_rng(5)
        x = rng.normal(size=(3, 4))

        def loss(p):
            s = p[0].sum(axis=axis, keepdims=keepdims)
            m = p[0].mean(axis=axis, keepdims=keepdims)
            return (s * s).sum() + (m * m).sum()

        check_grads(loss, [x])

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_logsumexp(self, axis):
        rng = make_rng(6)
        x = rng.normal(size=(2, 3, 4)) * 3.0
        check_grads(lambda p: p[0].logsumexp(axis=axis).sum(), [x])
        check_grads(lambda p: p[0].logsumexp(axis=axis, keepdims=True).sum(), [x])

    @pytest.mark.parametrize("keepdims", [False, True])
    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_logsumexp_gradient_is_upstream_times_softmax(self, axis, keepdims):
        rng = make_rng(7)
        x = rng.normal(size=(3, 4, 5)) * 3.0
        x[1, 2, 3] = -np.inf
        t = Tensor(x.copy(), requires_grad=True)
        out = t.logsumexp(axis=axis, keepdims=keepdims)
        upstream = rng.normal(size=out.shape)
        (out * upstream).sum().backward()
        out_keep = Tensor(x).logsumexp(axis=axis, keepdims=True).data
        g = upstream if keepdims else np.expand_dims(upstream, axis)
        assert np.array_equal(t.grad, g * np.exp(x - out_keep))
        with no_grad():
            plain = t.logsumexp(axis=axis, keepdims=keepdims)
        assert plain.data.tobytes() == out.data.tobytes()

    def test_shape_ops(self):
        rng = make_rng(8)
        x = rng.normal(size=(4, 6))

        def loss(p):
            (t,) = p
            r = t.reshape(2, 12).transpose().narrow(0, 3, 5)
            return (r * r).sum()

        check_grads(loss, [x])

    def test_gather_ops(self):
        rng = make_rng(9)
        x = rng.normal(size=(5, 4))
        rows = np.array([0, 2, 2, 4])
        cols = np.array([1, 3, 0, 2])

        def loss(p):
            (t,) = p
            return (t.take_rows(rows) ** 2).sum() + t.take_at(rows, cols).sum()

        check_grads(loss, [x])

    def test_structural_ops(self):
        rng = make_rng(10)
        a = rng.normal(size=(3, 2))
        b = rng.normal(size=(3, 2))

        def loss(p):
            inter = graph_interleave_rows(p[0], p[1])
            cat = concat_cols([p[0], p[1] * 2.0])
            return (inter**2).sum() + (cat**2).sum()

        check_grads(loss, [a, b])

    def test_dropout_grad_with_fixed_mask(self):
        rng = make_rng(12)
        x = rng.normal(size=(6, 5))

        def loss(p):
            return (p[0].dropout(0.4, make_rng(99)) ** 2).sum()

        check_grads(loss, [x])

    def test_dropout_eval_mode_identity(self):
        # the no-op returns its input and draws nothing, so callers need no
        # guard of their own to leave the generator's stream unchanged
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert x.dropout(0.5, None) is x
        rng = make_rng(0)
        state = rng.bit_generator.state
        assert x.dropout(0.0, rng) is x
        assert rng.bit_generator.state == state

    def test_dropout_preserves_expectation(self):
        x = Tensor(np.ones((200, 200)))
        out = x.dropout(0.3, make_rng(1))
        assert abs(out.data.mean() - 1.0) < 0.01


class TestEngineContracts:
    def test_determinism_bit_identical(self):
        def run():
            rng = make_rng(1234)
            w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
            x = Tensor(rng.normal(size=(5, 3)))
            loss, grads = forward_backward(lambda: ((x @ w).tanh() ** 2).sum(), [w])
            Adam([w]).step(0.01)
            return loss, grads[0].copy(), w.data.copy()

        l1, g1, p1 = run()
        l2, g2, p2 = run()
        assert l1 == l2
        np.testing.assert_array_equal(g1, g2)
        np.testing.assert_array_equal(p1, p2)

    def test_tape_isolation(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        loss_a = (w * w).sum()
        loss_b = (w * 3.0).sum()
        loss_a.backward()
        np.testing.assert_array_equal(w.grad, [2.0, 4.0])
        w.grad = None
        loss_b.backward()
        np.testing.assert_array_equal(w.grad, [3.0, 3.0])

    def test_grad_accumulates_across_backward_calls(self):
        w = Tensor([1.0], requires_grad=True)
        (w * 2.0).sum().backward()
        (w * 3.0).sum().backward()
        np.testing.assert_array_equal(w.grad, [5.0])

    def test_shared_subexpression_gradient(self):
        w = Tensor([2.0], requires_grad=True)
        y = w * w  # used twice below
        (y + y).sum().backward()
        np.testing.assert_allclose(w.grad, [8.0])

    def test_no_grad_blocks_recording(self):
        w = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = w * 5.0
        assert not y.requires_grad

    def test_shape_mismatch_names_primitive(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((4, 2)))
        with pytest.raises(ShapeMismatchError, match="matmul"):
            a @ b
        with pytest.raises(ShapeMismatchError, match="add"):
            a + Tensor(np.ones((3, 2)))

    def test_nonfinite_loss_raises(self):
        w = Tensor([1.0], requires_grad=True)
        with pytest.raises(NonFiniteError):
            forward_backward(lambda: (w * np.inf).sum(), [w])

    def test_backward_requires_scalar(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeMismatchError, match="backward"):
            (w * 2.0).backward()


class TestOptimizers:
    def test_zero_lr_identity(self):
        p = Tensor([1.0, -2.0], requires_grad=True)
        before = p.data.copy()
        p.grad = np.array([5.0, 5.0])
        Adam([p]).step(0.0)
        np.testing.assert_array_equal(p.data, before)

    def test_adam_first_step_hand_computed(self):
        lr, eps = 0.01, 1e-8
        p = Tensor(np.full(3, 7.0), requires_grad=True)
        p.grad = np.ones(3)
        Adam([p]).step(lr)
        # m = 0.1, v = 0.001; bias-corrected mhat = 1, vhat = 1
        expected = 7.0 - lr * 1.0 / (np.sqrt(1.0) + eps)
        np.testing.assert_allclose(p.data, np.full(3, expected), atol=1e-12, rtol=0)

    def test_adam_two_steps_hand_computed(self):
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        p = Tensor([0.0], requires_grad=True)
        opt = Adam([p])
        g1, g2 = 1.0, -0.5
        m = v = 0.0
        x = 0.0
        for t, g in enumerate([g1, g2], start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        for g in [g1, g2]:
            p.grad = np.array([g])
            opt.step(lr)
        np.testing.assert_allclose(p.data, [x], atol=1e-12, rtol=0)

    def test_nonfinite_gradient_rejected(self):
        p = Tensor([1.0], requires_grad=True)
        with pytest.raises(NonFiniteError):
            p.grad = np.array([np.nan])
            Adam([p]).step(0.1)

    def test_state_arrays_in_checkpoint_order_round_trip(self):
        # the order is the MDL1 order of a checkpoint's optimizer blobs, and
        # the arrays are the optimizer's own: a checkpoint loads into them
        params = [Tensor(np.ones(shape), requires_grad=True) for shape in [(2,), (3, 2)]]
        opt = Adam(params)
        assert list(opt.state_arrays()) == ["step", "m0", "v0", "m1", "v1"]
        assert opt.step_count == 0
        rng = make_rng(7)
        arrays = {"step": np.array([3.0])}
        for i, p in enumerate(params):  # a second moment is never negative
            arrays.update({f"m{i}": rng.normal(size=p.data.shape),
                           f"v{i}": rng.random(size=p.data.shape)})
        for name, value in opt.state_arrays().items():
            value[...] = arrays[name]
        assert opt.step_count == 3
        for name, value in opt.state_arrays().items():
            np.testing.assert_array_equal(value, arrays[name])
        # the next step is step 4, from the written moments
        m, v = arrays["m0"] * 0.9 + 0.1, arrays["v0"] * 0.999 + 0.001
        expected = 1.0 - 0.1 * (m / (1 - 0.9**4)) / (np.sqrt(v / (1 - 0.999**4)) + 1e-8)
        for p in params:
            p.grad = np.ones_like(p.data)
        opt.step(0.1)
        assert opt.step_count == 4
        np.testing.assert_allclose(params[0].data, expected, atol=1e-12, rtol=0)

    def test_run_epochs_starts_where_the_optimizer_stands(self, monkeypatch):
        class Model:
            lr_end_ratio = 0.0
            p = Tensor([1.0], requires_grad=True)

            def parameters(self):
                return [self.p]

        model = Model()

        def epoch_loss(epoch, step):
            for _ in range(3):  # 3 steps per epoch
                model.p.grad = np.ones(1)
                step()
            return float(epoch)

        log, opt = run_epochs(model, epoch_loss, 2, 3, 0.1)
        assert [e["epoch"] for e in log] == [0, 1] and opt.step_count == 6
        log, again = run_epochs(model, epoch_loss, 4, 3, 0.1, optimizer=opt)
        assert [e["epoch"] for e in log] == [2, 3]
        assert again is opt and opt.step_count == 12

        def unbuilt(*args, **kwargs):
            raise AssertionError("a run with no epoch to run built a schedule")

        monkeypatch.setattr(optim, "LinearDecayLr", unbuilt)
        assert run_epochs(model, epoch_loss, 4, 3, 0.1, optimizer=opt) == ([], opt)
        assert run_epochs(model, epoch_loss, 0, 3, 0.1) == ([], None)
        # 12 steps are mid-epoch at 5 per epoch, and past epoch 3 at 3 per
        # epoch: either run would silently fork the one that made them
        for epochs, steps_per_epoch in [(4, 5), (3, 3)]:
            with pytest.raises(ValueError, match="optimizer step 12 is mid-epoch or past"):
                run_epochs(model, epoch_loss, epochs, steps_per_epoch, 0.1, optimizer=opt)
        assert opt.step_count == 12

    def test_linear_decay_schedule(self):
        sched = LinearDecayLr(1.0, total_steps=10, lr_end=0.0)
        assert sched.at(0) == 1.0
        assert sched.at(5) == pytest.approx(0.5)
        assert sched.at(10) == 0.0
        assert sched.at(25) == 0.0  # clamped past the horizon

    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError):
            LinearDecayLr(-0.1, 1)


class TestFusedPrimitives:
    """Finite differences for the one-node linear, attention, LayerNorm and
    bottleneck convolutions."""

    @pytest.mark.parametrize("t", [1, 4])
    def test_linear(self, t):
        rng = make_rng(50 + t)
        arrays = [rng.normal(size=(t, 3)), rng.normal(size=(3, 5)), rng.normal(size=5)]
        weight = Tensor(rng.normal(size=(t, 5)))
        check_grads(lambda p: (linear(*p) * weight).sum(), arrays)

    @pytest.mark.parametrize("conv, rows", [(transposed_conv2, 3), (strided_conv2, 6)])
    def test_bottleneck_convolutions(self, conv, rows):
        rng = make_rng(52 + rows)
        arrays = [rng.normal(size=(rows, 3)), rng.normal(size=(3, 4)),
                  rng.normal(size=(3, 4)), rng.normal(size=4)]
        weight = Tensor(rng.normal(size=conv(*map(Tensor, arrays)).shape))
        check_grads(lambda p: (conv(*p) * weight).sum(), arrays)

    @pytest.mark.parametrize("t, d, heads", [(5, 6, 2), (1, 4, 4), (4, 3, 1)])
    def test_attention(self, t, d, heads):
        rng = make_rng(30 + t)
        arrays = [rng.normal(size=(t, d)) for _ in range(3)]
        weight = Tensor(rng.normal(size=(t, d)))
        check_grads(lambda p: (attention(*p, heads) * weight).sum(), arrays)

    def test_attention_with_shared_input(self):
        # q, k and v from one tensor: the three gradients add up in one parent
        rng = make_rng(33)
        x, w = rng.normal(size=(6, 4)), rng.normal(size=(4, 4))
        weight = Tensor(rng.normal(size=(6, 4)))

        def loss(p):
            h = p[0] @ p[1]
            return (attention(h, h * 0.5, h.tanh(), 2) * weight).sum()

        check_grads(loss, [x, w])

    @pytest.mark.parametrize("scale", [1.0, 30.0])
    def test_layer_norm(self, scale):
        rng = make_rng(34)
        arrays = [rng.normal(size=(4, 5)) * scale, rng.normal(size=5), rng.normal(size=5)]
        weight = Tensor(rng.normal(size=(4, 5)))
        check_grads(lambda p: (layer_norm(*p, 1e-6) * weight).sum(), arrays)

    def test_layer_norm_input_used_twice(self):
        rng = make_rng(35)
        arrays = [rng.normal(size=(3, 4)), rng.normal(size=4), rng.normal(size=4)]
        weight = Tensor(rng.normal(size=(3, 4)))
        check_grads(lambda p: ((p[0] + layer_norm(*p, 1e-6)) * weight).sum(), arrays)

    def test_shape_errors_name_the_primitive(self):
        x = Tensor(np.ones((3, 4)))
        with pytest.raises(ShapeMismatchError, match="attention"):
            attention(x, x, Tensor(np.ones((3, 2))), 2)
        with pytest.raises(ShapeMismatchError, match="attention"):
            attention(x, x, x, 3)
        with pytest.raises(ShapeMismatchError, match="layer_norm"):
            layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(4)), 1e-6)
        w, b = Tensor(np.ones((4, 2))), Tensor(np.zeros(2))
        with pytest.raises(ShapeMismatchError, match="linear"):
            linear(x, w, Tensor(np.zeros(4)))
        with pytest.raises(ShapeMismatchError, match="linear"):
            linear(Tensor(np.ones(4)), w, b)
        with pytest.raises(ShapeMismatchError, match="transposed_conv2"):
            transposed_conv2(x, w, Tensor(np.ones((4, 3))), b)
        with pytest.raises(ShapeMismatchError, match="strided_conv2"):
            strided_conv2(x, w, w, Tensor(np.zeros(4)))
        with pytest.raises(ShapeMismatchError, match="strided_conv2: odd row count 3"):
            strided_conv2(x, w, w, b)

    def test_transformer_block_node_count(self, monkeypatch):
        # LayerNorm, q/k/v, attention, out, residual, LayerNorm, ff1, ReLU, ff2,
        # residual: each Linear is one node
        block = TransformerBlock(8, 2, 16, make_rng(36))
        x = Tensor(make_rng(37).normal(size=(5, 8)), requires_grad=True)
        original, made = Tensor._make, []

        def make(data, parents, backward_fn, op):
            out = original(data, parents, backward_fn, op)
            made.append(out._backward_fn is not None)
            return out

        monkeypatch.setattr(Tensor, "_make", staticmethod(make))
        block(x)
        assert sum(made) == len(made) == 12
        made.clear()
        with no_grad():
            block(x)
        assert made and not any(made)


class TestFusedNodesMatchPerOpGraph:
    """`linear` and the bottleneck convolutions against their per-op graphs in
    tests/oracles.py, bit for bit, where the input they read has other
    consumers whose gradients reach it before or after theirs."""

    T_LENS = [1, 2, 7, 400]

    @staticmethod
    def outputs_and_grads(forward, arrays, seed):
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        outs = forward(*leaves)
        rng = make_rng(seed)
        loss = sum((o * Tensor(rng.normal(size=o.shape))).sum() for o in outs)
        loss.backward()
        return [o.data for o in outs], [p.grad for p in leaves]

    def assert_bit_equal(self, forward, oracle, arrays, seed):
        outs, grads = self.outputs_and_grads(forward, arrays, seed)
        ref_outs, ref_grads = self.outputs_and_grads(oracle, arrays, seed)
        for out, ref in zip(outs, ref_outs):
            assert (out == ref).all()
        for g, ref in zip(grads, ref_grads):
            # bytes, so that a -0.0 where the graph gives 0.0 counts too
            assert np.array_equal(g, ref) and g.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("t_len", T_LENS)
    def test_linear_on_an_input_shared_by_q_k_v(self, t_len):
        rng = make_rng(700 + t_len)
        arrays = [rng.normal(size=(t_len, 8))] + [
            a for _ in range(3) for a in (rng.normal(size=(8, 8)), rng.normal(size=8))]

        def block(lin):
            def forward(x, wq, bq, wk, bk, wv, bv):
                h = x.tanh()
                q, k, v = lin(h, wq, bq), lin(h, wk, bk), lin(h, wv, bv)
                return [attention(q, k, v, 2), h]
            return forward

        self.assert_bit_equal(block(linear), block(graph_linear), arrays, 710 + t_len)

    @pytest.mark.parametrize("other_first", [True, False])
    @pytest.mark.parametrize("t_len", T_LENS)
    def test_transposed_conv2_on_a_shared_input(self, t_len, other_first):
        rng = make_rng(720 + t_len)
        arrays = [rng.normal(size=(t_len, 6)), rng.normal(size=(6, 5)),
                  rng.normal(size=(6, 5)), rng.normal(size=5)]

        def net(conv):
            def forward(x, we, wo, b):
                h = x.tanh()
                outs = [conv(h, we, wo, b), h * h]
                return outs[::-1] if other_first else outs
            return forward

        self.assert_bit_equal(net(transposed_conv2), net(graph_transposed_conv2), arrays,
                              730 + t_len)

    @pytest.mark.parametrize("other_first", [True, False])
    @pytest.mark.parametrize("t_len", T_LENS)
    def test_strided_conv2_on_an_extracted_stream_with_a_second_consumer(self, t_len,
                                                                         other_first):
        rng = make_rng(740 + t_len)
        arrays = [rng.normal(size=(2 * t_len, 6)), rng.normal(size=(6, 5)),
                  rng.normal(size=(6, 5)), rng.normal(size=5)]

        def net(conv):
            def forward(x, we, wo, b):
                extracted = x.relu()  # zeros, so -0.0 gradients arise
                outs = [conv(extracted, we, wo, b), extracted]
                return outs[::-1] if other_first else outs
            return forward

        self.assert_bit_equal(net(strided_conv2), net(graph_strided_conv2), arrays,
                              750 + t_len)


def retained_bytes(build):
    """`build()`'s node and the bytes it holds beyond its own output array."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        node = build()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return node, retained - node.data.nbytes


class TestRetainedMemory:
    """What a recorded node keeps for its backward, measured with tracemalloc."""

    def test_attention_keeps_no_score_matrix(self):
        t, d, heads = 400, 64, 4
        rng = make_rng(40)
        q, k, v = (Tensor(rng.normal(size=(t, d)), requires_grad=True) for _ in range(3))
        node, retained = retained_bytes(lambda: attention(q, k, v, heads))
        assert node.requires_grad
        assert retained < t * t * 8

    def test_dropout_keeps_a_bool_mask(self):
        x = Tensor(make_rng(41).normal(size=(400, 64)), requires_grad=True)
        rng = make_rng(42)
        node, retained = retained_bytes(lambda: x.dropout(0.3, rng))
        assert node.requires_grad
        # a bool mask is an eighth of a float64 array of the same shape
        assert x.size <= retained < x.data.nbytes // 4

    T, D = 400, 64

    def leaf(self, seed, shape=None):
        return Tensor(make_rng(seed).normal(size=shape or (self.T, self.D)), requires_grad=True)

    def test_linear_keeps_no_product(self):
        x, w, b = self.leaf(43), self.leaf(44, (self.D, self.D)), self.leaf(45, (self.D,))
        node, retained = retained_bytes(lambda: linear(x, w, b))
        assert node.requires_grad
        assert retained < x.data.nbytes

    def test_layer_norm_keeps_no_centered_copy(self):
        x, gamma, beta = self.leaf(46), self.leaf(47, (self.D,)), self.leaf(48, (self.D,))
        node, retained = retained_bytes(lambda: layer_norm(x, gamma, beta, 1e-6))
        assert node.requires_grad
        assert retained < x.data.nbytes

    def test_relu_keeps_no_mask(self):
        x = self.leaf(49)
        node, retained = retained_bytes(x.relu)
        assert node.requires_grad
        # a bool mask would take one byte per element
        assert retained < x.size

    @pytest.mark.parametrize("conv, rows", [(transposed_conv2, T), (strided_conv2, 2 * T)])
    def test_bottleneck_convolutions_keep_only_their_inputs(self, conv, rows):
        x = self.leaf(50, (rows, self.D))
        taps = [self.leaf(51 + i, (self.D, self.D)) for i in range(2)]
        b = self.leaf(53, (self.D,))
        node, retained = retained_bytes(lambda: conv(x, *taps, b))
        assert node.requires_grad
        assert retained < self.T * self.D * 8

    def test_ctc_utterance_forward_at_long_form_length(self):
        # the long-form benchmark's CTC model on one T=400 utterance: its
        # recorded graph held 32.3 MiB while Linear, LayerNorm, ReLU and the
        # bottleneck kept intermediates, and holds 18.1 MiB with inputs only
        cfg = SslConfig(objective="ctc", vocab=20, bottleneck_position="after-last-block")
        model = build_ssl_model(cfg, seed=5)
        rng = make_rng(54)
        utt = {"frames": rng.normal(size=(400, cfg.d_in)),
               "labels": rng.integers(0, cfg.vocab, size=50).tolist()}
        loss, retained = retained_bytes(lambda: model.utterance_loss(utt, make_rng(55)))
        assert loss.requires_grad
        assert retained < 24 * 2**20


class TestAttentionRecomputeIsStateless:
    """The backward replays the softmax into a fresh buffer: no call's state
    reaches another call's gradients."""

    @staticmethod
    def leaves(arrays):
        return [Tensor(a.copy(), requires_grad=True) for a in arrays]

    # the shapes of test_ssl_objectives.TestBlockMatchesPerOpGraph.test_block
    @pytest.mark.parametrize("scale", [1.0, 30.0])
    @pytest.mark.parametrize("d_model, n_heads", [(64, 4), (8, 8), (12, 3)])
    @pytest.mark.parametrize("t_len", [1, 2, 7, 100, 400])
    def test_backward_twice_around_a_no_grad_call(self, t_len, d_model, n_heads, scale):
        rng = make_rng(650 + t_len)
        arrays = [rng.normal(size=(t_len, d_model)) * scale for _ in range(3)]
        weight = Tensor(rng.normal(size=(t_len, d_model)))

        fresh = self.leaves(arrays)
        (attention(*fresh, n_heads) * weight).sum().backward()

        params = self.leaves(arrays)
        loss = (attention(*params, n_heads) * weight).sum()
        with no_grad():
            attention(*self.leaves([rng.normal(size=(t_len, d_model)) for _ in range(3)]),
                      n_heads)
        for _ in range(2):
            for p in params:
                p.grad = None
            loss.backward()
            for p, ref in zip(params, fresh):
                assert np.array_equal(p.grad, ref.grad)
