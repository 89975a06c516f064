"""Engine tests: gradient correctness, determinism, optimizers."""

import numpy as np
import pytest

from asrfuse.numcore import (
    Adam,
    ConstantLr,
    LinearDecayLr,
    NonFiniteError,
    Sgd,
    ShapeMismatchError,
    Tensor,
    concat_cols,
    forward_backward,
    interleave_rows,
    make_rng,
    no_grad,
)

from oracles import finite_difference_grads, grad_rel_err

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
            inter = interleave_rows(p[0], p[1])
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
        x = Tensor(np.arange(6.0).reshape(2, 3))
        out = x.dropout(0.5, make_rng(0), training=False)
        np.testing.assert_array_equal(out.data, x.data)

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
            opt = Adam(ConstantLr(0.01))
            opt.step([w])
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
        w.zero_grad()
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
    def test_sgd_definition(self):
        p = Tensor([1.0], requires_grad=True)
        Sgd(ConstantLr(0.1)).step([p], [np.array([2.0])])
        np.testing.assert_allclose(p.data, [0.8])

    def test_zero_lr_identity(self):
        p = Tensor([1.0, -2.0], requires_grad=True)
        before = p.data.copy()
        Sgd(ConstantLr(0.0)).step([p], [np.array([5.0, 5.0])])
        np.testing.assert_array_equal(p.data, before)
        Adam(ConstantLr(0.0)).step([p], [np.array([5.0, 5.0])])
        np.testing.assert_array_equal(p.data, before)

    def test_adam_first_step_hand_computed(self):
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        p = Tensor(np.full(3, 7.0), requires_grad=True)
        Adam(ConstantLr(lr), beta1=b1, beta2=b2, eps=eps).step([p], [np.ones(3)])
        # m = 0.1, v = 0.001; bias-corrected mhat = 1, vhat = 1
        expected = 7.0 - lr * 1.0 / (np.sqrt(1.0) + eps)
        np.testing.assert_allclose(p.data, np.full(3, expected), atol=1e-12, rtol=0)

    def test_adam_two_steps_hand_computed(self):
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        opt = Adam(ConstantLr(lr), beta1=b1, beta2=b2, eps=eps)
        p = Tensor([0.0], requires_grad=True)
        g1, g2 = 1.0, -0.5
        m = v = 0.0
        x = 0.0
        for t, g in enumerate([g1, g2], start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        opt.step([p], [np.array([g1])])
        opt.step([p], [np.array([g2])])
        np.testing.assert_allclose(p.data, [x], atol=1e-12, rtol=0)

    def test_nonfinite_gradient_rejected(self):
        p = Tensor([1.0], requires_grad=True)
        with pytest.raises(NonFiniteError):
            Sgd(ConstantLr(0.1)).step([p], [np.array([np.nan])])

    def test_linear_decay_schedule(self):
        sched = LinearDecayLr(1.0, total_steps=10, lr_end=0.0)
        assert sched.at(0) == 1.0
        assert sched.at(5) == pytest.approx(0.5)
        assert sched.at(10) == 0.0
        assert sched.at(25) == 0.0  # clamped past the horizon

    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError):
            ConstantLr(-0.1)
