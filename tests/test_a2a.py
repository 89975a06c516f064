"""A2A inversion tests: MDN/MSE/Pearson losses, generator, training benchmark."""

import math
import tracemalloc

import numpy as np
import pytest

from asrfuse import a2a
from asrfuse.a2a import (
    A2aConfig,
    MdnFrameParams,
    MdnHead,
    MtlWeights,
    generate_parallel,
    invert,
    mdn_loss,
    mse_loss,
    mtl_loss,
    pearson_corr,
    train_a2a,
)
from asrfuse.numcore import Tensor, derive_rng, forward_backward, make_rng, no_grad

from oracles import finite_difference_grads, grad_rel_err, mdn_nll_direct, mtl_loss_one_step

GRAD_TOL = 1e-4


def random_params(rng, t, m, d, sigma_scale=0.3):
    logits = Tensor(rng.normal(size=(t, m)), requires_grad=True)
    means = Tensor(rng.normal(size=(t, m, d)), requires_grad=True)
    log_sigmas = Tensor(rng.normal(size=(t, m, d)) * sigma_scale, requires_grad=True)
    return MdnFrameParams(logits, means, log_sigmas)


class TestMdnLoss:
    def test_single_gaussian_at_mode(self):
        t, d = 6, 1
        a = make_rng(0).normal(size=(t, d))
        params = MdnFrameParams(
            Tensor(np.zeros((t, 1))), Tensor(a.reshape(t, 1, d)),
            Tensor(np.zeros((t, 1, d)))
        )
        loss = mdn_loss(params, a)
        assert loss.item() == pytest.approx(t * 0.5 * math.log(2 * math.pi), abs=1e-9)

    def test_identical_components_collapse(self):
        rng = make_rng(1)
        t, d = 4, 2
        a = rng.normal(size=(t, d))
        mu = rng.normal(size=(t, 1, d))
        ls = rng.normal(size=(t, 1, d)) * 0.2
        single = MdnFrameParams(Tensor(np.zeros((t, 1))), Tensor(mu), Tensor(ls))
        double = MdnFrameParams(
            Tensor(rng.normal(size=(t, 2))),  # weights sum to 1 regardless
            Tensor(np.tile(mu, (1, 2, 1))),
            Tensor(np.tile(ls, (1, 2, 1))),
        )
        assert mdn_loss(double, a).item() == pytest.approx(
            mdn_loss(single, a).item(), abs=1e-10
        )

    def test_matches_direct_evaluation(self):
        rng = make_rng(2)
        t, m, d = 4, 3, 2
        params = random_params(rng, t, m, d)
        a = rng.normal(size=(t, d))
        weights = np.exp(params.log_weights().data)
        sigmas = params.sigmas().data
        expected = mdn_nll_direct(weights, params.means.data, sigmas, a)
        assert mdn_loss(params, a).item() == pytest.approx(expected, abs=1e-9)

    def test_reduces_to_mse_plus_constant(self):
        rng = make_rng(3)
        t, d = 5, 3
        mu = rng.normal(size=(t, 1, d))
        a = rng.normal(size=(t, d))
        params = MdnFrameParams(Tensor(np.zeros((t, 1))), Tensor(mu),
                                Tensor(np.zeros((t, 1, d))))
        expected = 0.5 * ((mu[:, 0, :] - a) ** 2).sum() + t * d / 2 * math.log(2 * math.pi)
        assert mdn_loss(params, a).item() == pytest.approx(expected, abs=1e-10)

    def test_nonfinite_target_rejected(self):
        params = random_params(make_rng(4), 2, 1, 1)
        with pytest.raises(ValueError, match="non-finite"):
            mdn_loss(params, np.array([[np.nan], [0.0]]))

    @pytest.mark.parametrize("seed", range(3))
    def test_gradient_check(self, seed):
        rng = make_rng(seed + 10)
        t, m, d = 3, 2, 2
        a = rng.normal(size=(t, d))
        arrays = [rng.normal(size=(t, m)), rng.normal(size=(t, m, d)),
                  rng.normal(size=(t, m, d)) * 0.3]

        def build(tensors):
            return mdn_loss(MdnFrameParams(*tensors), a)

        tensors = [Tensor(x.copy(), requires_grad=True) for x in arrays]
        _, grads = forward_backward(lambda: build(tensors), tensors)
        numeric = finite_difference_grads(
            lambda arrs: build([Tensor(x) for x in arrs]).item(),
            [x.copy() for x in arrays],
        )
        for ga, gn in zip(grads, numeric):
            assert grad_rel_err(ga, gn) < GRAD_TOL


class TestMseLoss:
    def test_zero_case(self):
        a = make_rng(5).normal(size=(4, 3))
        assert mse_loss(Tensor(a), a).item() == 0.0

    def test_constant_offset(self):
        a = np.zeros((5, 2))
        assert mse_loss(Tensor(a + 2.0), a).item() == pytest.approx(4.0)

    def test_single_frame_arithmetic(self):
        a = np.zeros((1, 2))
        y = np.array([[1.0, 3.0]])
        assert mse_loss(Tensor(y), a).item() == pytest.approx(5.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes"):
            mse_loss(Tensor(np.ones((2, 2))), np.ones((3, 2)))

    def test_gradient_check(self):
        rng = make_rng(6)
        y0 = rng.normal(size=(4, 3))
        a = rng.normal(size=(4, 3))
        t = Tensor(y0.copy(), requires_grad=True)
        _, grads = forward_backward(lambda: mse_loss(t, a), [t])
        numeric = finite_difference_grads(
            lambda arrs: mse_loss(Tensor(arrs[0]), a).item(), [y0.copy()]
        )
        assert grad_rel_err(grads[0], numeric[0]) < GRAD_TOL


class TestPearson:
    def test_perfect_correlation(self):
        a = make_rng(7).normal(size=(10, 3))
        assert pearson_corr(Tensor(a), a).item() == pytest.approx(1.0, abs=1e-12)

    def test_anti_correlation(self):
        a = make_rng(8).normal(size=(10, 2))
        assert pearson_corr(Tensor(-a), a).item() == pytest.approx(-1.0, abs=1e-12)

    def test_affine_invariance(self):
        a = make_rng(9).normal(size=(12, 4))
        assert pearson_corr(Tensor(3.0 * a + 7.0), a).item() == pytest.approx(1.0, abs=1e-12)

    def test_zero_variance_dimension_guarded(self):
        a = make_rng(10).normal(size=(8, 2))
        y = a.copy()
        y[:, 1] = 5.0  # constant prediction on dim 1
        with pytest.warns(UserWarning, match="zero-variance"):
            val = pearson_corr(Tensor(y), a).item()
        assert val == pytest.approx(0.5, abs=1e-12)  # (1 + 0) / 2

    def test_bounded(self):
        rng = make_rng(11)
        for _ in range(10):
            y, a = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
            assert -1.0 - 1e-12 <= pearson_corr(Tensor(y), a).item() <= 1.0 + 1e-12

    def test_needs_two_frames(self):
        with pytest.raises(ValueError, match="2 frames"):
            pearson_corr(Tensor(np.ones((1, 2))), np.ones((1, 2)))

    def test_gradient_check(self):
        rng = make_rng(12)
        y0 = rng.normal(size=(6, 2))
        a = rng.normal(size=(6, 2))
        t = Tensor(y0.copy(), requires_grad=True)
        _, grads = forward_backward(lambda: pearson_corr(t, a), [t])
        numeric = finite_difference_grads(
            lambda arrs: pearson_corr(Tensor(arrs[0]), a).item(), [y0.copy()]
        )
        assert grad_rel_err(grads[0], numeric[0]) < GRAD_TOL


class TestMtlLoss:
    def test_projection_to_mdn(self):
        rng = make_rng(13)
        params = random_params(rng, 4, 2, 3)
        a = rng.normal(size=(4, 3))
        combo = mtl_loss(params, a, MtlWeights(1.0, 0.0, 0.0))
        assert combo.item() == pytest.approx(mdn_loss(params, a).item(), abs=1e-12)

    def test_mse_zero_when_prediction_exact(self):
        t, d = 5, 2
        a = make_rng(14).normal(size=(t, d))
        params = MdnFrameParams(Tensor(np.zeros((t, 1))), Tensor(a.reshape(t, 1, d)),
                                Tensor(np.zeros((t, 1, d))))
        combo = mtl_loss(params, a, MtlWeights(0.0, 1.0, 0.0))
        assert combo.item() == pytest.approx(0.0, abs=1e-12)

    def test_componentwise_oracle(self):
        rng = make_rng(15)
        params = random_params(rng, 6, 3, 2)
        a = rng.normal(size=(6, 2))
        pred = params.mixture_mean()
        expected = (mdn_loss(params, a).item() + mse_loss(pred, a).item()
                    - pearson_corr(pred, a).item())
        combo = mtl_loss(params, a, MtlWeights(1.0, 1.0, 1.0))
        assert combo.item() == pytest.approx(expected, abs=1e-12)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            MtlWeights(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            MtlWeights(-1.0, 1.0, 1.0)

    def test_gradient_check_full_objective(self):
        rng = make_rng(16)
        t, m, d = 4, 2, 2
        a = rng.normal(size=(t, d))
        arrays = [rng.normal(size=(t, m)), rng.normal(size=(t, m, d)),
                  rng.normal(size=(t, m, d)) * 0.3]

        def build(tensors):
            return mtl_loss(MdnFrameParams(*tensors), a, MtlWeights(1.0, 1.0, 1.0))

        tensors = [Tensor(x.copy(), requires_grad=True) for x in arrays]
        _, grads = forward_backward(lambda: build(tensors), tensors)
        numeric = finite_difference_grads(
            lambda arrs: build([Tensor(x) for x in arrs]).item(),
            [x.copy() for x in arrays],
        )
        for ga, gn in zip(grads, numeric):
            assert grad_rel_err(ga, gn) < GRAD_TOL


class TestInvert:
    def test_single_component_returns_mean(self):
        rng = make_rng(17)
        head = MdnHead(A2aConfig(3, 2, mixtures=1, hidden=8), rng)
        frames = rng.normal(size=(5, 3))
        params = head.forward(frames)
        out = invert(head, _seq(frames))
        np.testing.assert_allclose(out.frames, params.means.data[:, 0, :], atol=1e-12)
        assert out.label == "UTI"

    def test_equal_weight_mixture_mean(self):
        t = 3
        params = MdnFrameParams(
            Tensor(np.zeros((t, 2))),
            Tensor(np.stack([np.zeros((t, 1)), np.full((t, 1), 2.0)], axis=1)),
            Tensor(np.zeros((t, 2, 1))),
        )
        np.testing.assert_allclose(params.mixture_mean().data, 1.0, atol=1e-12)

    def test_frame_local_permutation(self):
        rng = make_rng(18)
        head = MdnHead(A2aConfig(4, 2, mixtures=2, hidden=8), rng)
        frames = rng.normal(size=(6, 4))
        perm = make_rng(19).permutation(6)
        out = invert(head, _seq(frames))
        out_perm = invert(head, _seq(frames[perm]))
        np.testing.assert_allclose(out_perm.frames, out.frames[perm], atol=1e-12)

    def test_dim_mismatch_rejected(self):
        head = MdnHead(A2aConfig(4, 2, mixtures=1, hidden=8), make_rng(20))
        with pytest.raises(ValueError, match="dim"):
            invert(head, _seq(np.ones((3, 5))))

    def test_records_no_graph_and_matches_grad_mode(self, monkeypatch):
        rng = make_rng(21)
        head = MdnHead(A2aConfig(4, 2, mixtures=3, hidden=8), rng)
        frames = rng.normal(size=(50, 4))
        expected = head.forward(frames).mixture_mean()
        assert expected.requires_grad  # the reference forward records a graph
        original, made = Tensor._make, []

        def make(data, parents, backward_fn, op):
            out = original(data, parents, backward_fn, op)
            made.append(out._backward_fn is not None)
            return out

        monkeypatch.setattr(Tensor, "_make", staticmethod(make))
        out = invert(head, _seq(frames))
        assert made and not any(made)
        assert out.frames.tobytes() == expected.data.tobytes()


# (d_acoustic, d_articulatory, mixtures, hidden): the default head, 8->64->64->27,
# and the long-form benchmark's, 64->128->128->100
HEAD_SHAPES = [(8, 4, 3, 64), (64, 12, 4, 128)]
# all three terms, then each term set to 0 in turn
WEIGHT_SETS = [MtlWeights(), MtlWeights(0.0, 1.0, 1.0), MtlWeights(1.0, 0.0, 1.0),
               MtlWeights(1.0, 1.0, 0.0)]


def _head_and_frames(shape, n, seed=0):
    d_acoustic, d_articulatory, mixtures, hidden = shape
    head = MdnHead(A2aConfig(d_acoustic, d_articulatory, mixtures, hidden),
                   derive_rng(seed, 0))
    rng = make_rng(seed + n)
    return head, rng.normal(size=(n, d_acoustic)), rng.normal(size=(n, d_articulatory))


def _unblocked_loss(head, x, a, weights):
    with no_grad():
        return mtl_loss(head.forward(x), a, weights).item()


class TestBlockEvaluation:
    """The graph-free row-block evaluation behind the logged epoch loss and
    `invert` gives the bits of one whole-batch call, in bounded memory."""

    # block edges: one block up to 2048 rows, then near-equal blocks of >= 1024
    @pytest.mark.parametrize("n", [2, 1023, 1024, 2048, 2049, 4097, 16000, 16001])
    @pytest.mark.parametrize("shape", HEAD_SHAPES)
    def test_epoch_loss_equals_one_call(self, shape, n):
        head, x, a = _head_and_frames(shape, n)
        for weights in WEIGHT_SETS:
            assert a2a._epoch_loss(head, x, a, weights) == _unblocked_loss(head, x, a, weights)
        # the sum can absorb a changed low bit, so compare the rows it sums too
        with no_grad():
            params = head.forward(x)
            expected = (params.mixture_mean(), a2a._frame_ll(params, a))
        rows = a2a._frame_terms_in_blocks(head, x, a)
        assert all(np.array_equal(r.data, e.data) for r, e in zip(rows, expected))

    @pytest.mark.parametrize("n", [2049, 16001])
    def test_invert_equals_unblocked_mixture_mean(self, n):
        head, x, _ = _head_and_frames(HEAD_SHAPES[1], n)
        with no_grad():
            expected = head.forward(x).mixture_mean().data
        assert np.array_equal(invert(head, _seq(x)).frames, expected)

    @pytest.mark.parametrize("shape", HEAD_SHAPES)
    def test_training_gradients_equal_one_graph_loss(self, shape):
        head, x, a = _head_and_frames(shape, 512)
        params = head.parameters()
        for weights in WEIGHT_SETS:
            loss, grads = forward_backward(
                lambda: mtl_loss(head.forward(x), a, weights), params)
            expected_loss, expected = forward_backward(
                lambda: mtl_loss_one_step(head.forward(x), a, weights), params)
            assert loss == expected_loss
            assert all(np.array_equal(g, e) for g, e in zip(grads, expected))

    def test_peak_memory_at_most_half_of_unblocked(self):
        head, x, a = _head_and_frames(HEAD_SHAPES[1], 16000)
        peaks = []
        tracemalloc.start()
        try:
            for evaluate in (_unblocked_loss, a2a._epoch_loss):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                evaluate(head, x, a, MtlWeights())
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        unblocked, blocked = peaks
        assert blocked <= unblocked / 2, peaks


class TestGenerator:
    def test_identity_map(self):
        data = generate_parallel(seed=1, num_frames=20, d_articulatory=3, d_acoustic=3,
                                 noise_sigma=0.0, weight=np.eye(3), bias=np.zeros(3))
        pair = data.pairs[0]
        np.testing.assert_allclose(pair.acoustic.frames,
                                   np.tanh(pair.articulatory.frames), atol=1e-12)

    def test_same_seed_identical(self):
        a = generate_parallel(seed=2, num_frames=30, d_articulatory=2, d_acoustic=4)
        b = generate_parallel(seed=2, num_frames=30, d_articulatory=2, d_acoustic=4)
        np.testing.assert_array_equal(a.pairs[0].acoustic.frames,
                                      b.pairs[0].acoustic.frames)
        np.testing.assert_array_equal(a.weight, b.weight)

    def test_second_difference_bound(self):
        max_freq = 0.05
        data = generate_parallel(seed=3, num_frames=200, d_articulatory=4,
                                 d_acoustic=6, max_freq=max_freq)
        art = data.pairs[0].articulatory.frames
        second = np.abs(art[2:] - 2 * art[1:-1] + art[:-2])
        bound = 2.0 * (2 * np.pi * max_freq) ** 2  # total amplitude is 1
        assert second.max() < bound

    def test_rank_deficient_request_rejected(self):
        with pytest.raises(ValueError, match="d_acoustic"):
            generate_parallel(seed=4, num_frames=20, d_articulatory=5, d_acoustic=3)

    def test_too_few_frames_rejected(self):
        with pytest.raises(ValueError, match="16"):
            generate_parallel(seed=5, num_frames=8, d_articulatory=2, d_acoustic=3)

    def test_transform_full_rank(self):
        data = generate_parallel(seed=6, num_frames=20, d_articulatory=4, d_acoustic=8)
        assert np.linalg.matrix_rank(data.weight) == 4


# a small head trained in 2 batches an epoch over 64 frames
SMALL = A2aConfig(4, 2, mixtures=2, hidden=8, batch_frames=32)


class TestTrainingBenchmark:
    def test_synthetic_benchmark(self):
        train = generate_parallel(seed=100, num_frames=2000, d_articulatory=4,
                                  d_acoustic=8, noise_sigma=0.05)
        held_out = generate_parallel(seed=101, num_frames=500, d_articulatory=4,
                                     d_acoustic=8, noise_sigma=0.05,
                                     weight=train.weight, bias=train.bias)
        head = MdnHead(A2aConfig(), derive_rng(42, 0))
        log, _ = train_a2a(head, train.pairs, epochs=20, seed=7)
        losses = [e["loss"] for e in log]
        assert all(a > b for a, b in zip(losses, losses[1:])), losses
        pred = invert(head, held_out.pairs[0].acoustic)
        rho = pearson_corr(Tensor(pred.frames),
                           held_out.pairs[0].articulatory.frames).item()
        assert rho >= 0.8

    def test_training_deterministic(self):
        def run():
            data = generate_parallel(seed=8, num_frames=64, d_articulatory=2,
                                     d_acoustic=4)
            head = MdnHead(SMALL, derive_rng(9, 0))
            log, _ = train_a2a(head, data.pairs, epochs=3, seed=10)
            return [e["loss"] for e in log]

        assert run() == run()

    def test_continued_run_equals_the_straight_run(self):
        # stopped at epoch 2 of a 4-epoch schedule, a run continued with its
        # optimizer starts where that optimizer stands, at the same rates
        data = generate_parallel(seed=8, num_frames=64, d_articulatory=2, d_acoustic=4)
        straight, halted = (MdnHead(SMALL, derive_rng(9, 0)) for _ in range(2))
        log, _ = train_a2a(straight, data.pairs, epochs=4, seed=10)
        _, optimizer = train_a2a(halted, data.pairs, epochs=2, seed=10, total_epochs=4)
        rest, _ = train_a2a(halted, data.pairs, epochs=4, seed=10, optimizer=optimizer)
        assert rest == log[2:]
        for (name, a), (_, b) in zip(straight.named_parameters(), halted.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data, name)

    def test_epoch_loss_records_no_graph(self, monkeypatch):
        original, recorded = a2a._frame_ll, []

        def frame_ll(*args):
            out = original(*args)
            recorded.append(out.requires_grad)
            return out

        monkeypatch.setattr(a2a, "_frame_ll", frame_ll)
        data = generate_parallel(seed=8, num_frames=64, d_articulatory=2, d_acoustic=4)
        head = MdnHead(SMALL, derive_rng(9, 0))
        log, _ = train_a2a(head, data.pairs, epochs=3, seed=10)
        # two minibatch steps, then the one row block of the logged loss
        assert recorded == [True, True, False] * 3
        pair = data.pairs[0]
        with_graph = mtl_loss(head.forward(pair.acoustic.frames),
                              pair.articulatory.frames, MtlWeights())
        assert with_graph.requires_grad
        assert log[-1]["loss"] == with_graph.item()


def _seq(frames):
    from asrfuse.features import FeatureSequence

    return FeatureSequence(frames, 10.0, label="SSL")
