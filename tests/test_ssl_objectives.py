"""SSL objective tests: analytic values, oracles, gradients, smoke training."""

import math
from contextlib import nullcontext

import numpy as np
import pytest

from asrfuse.bottleneck import BottleneckModule
from asrfuse.numcore import (
    NonFiniteError,
    Tensor,
    attention,
    forward_backward,
    make_rng,
    no_grad,
)
from asrfuse.ssl_objectives import (
    ContextNetwork,
    KMeansQuantizer,
    MaskSpec,
    contrastive_diversity_loss,
    contrastive_loss,
    ctc_loss,
    data2vec_loss,
    diversity_loss,
    ema_update,
    gumbel_select,
    kmeans_fit,
    masked_prediction_loss,
    min_frames_for,
    smooth_l1,
)
from asrfuse.ssl_objectives.context import TransformerBlock
from asrfuse.ssl_objectives.trainers import (
    SslConfig,
    build_ssl_model,
    make_synthetic_utterances,
    train_ssl,
)

from oracles import (
    ctc_loss_brute_force,
    ctc_loss_per_cell,
    ctc_loss_two_loop,
    finite_difference_grads,
    grad_rel_err,
    graph_attention,
    graph_transformer_block,
    softmax_rows,
)

GRAD_TOL = 1e-4


class TestContrastiveDiversity:
    def test_uniform_candidates_ln10(self):
        # identical quantized vectors, so every candidate scores the same
        q = Tensor(np.tile([0.6, 0.8], (5, 1)))
        c = Tensor(make_rng(0).normal(size=(5, 2)))
        loss = contrastive_loss(c, q, np.arange(5), num_distractors=9,
                                kappa=0.1, rng=make_rng(1))
        assert loss.item() == pytest.approx(math.log(10.0), abs=1e-9)

    def test_orthogonal_distractor_closed_form(self):
        # two masked frames, orthogonal unit targets; the only distractor is
        # the other frame, so sim(target)=1turn and sim(distractor)=0
        q = Tensor(np.eye(2))
        c = Tensor(np.eye(2))
        loss = contrastive_loss(c, q, np.arange(2), num_distractors=1,
                                kappa=0.1, rng=make_rng(3))
        assert loss.item() == pytest.approx(math.log(1.0 + math.exp(-10.0)), abs=1e-9)

    def test_uniform_diversity_value(self):
        soft = Tensor(np.full((6, 2, 4), 0.25))
        loss = diversity_loss(soft, alpha=1.0)
        assert loss.item() == pytest.approx(-math.log(4.0) / 4.0, abs=1e-12)

    def test_diversity_bounds(self):
        rng = make_rng(4)
        for _ in range(20):
            raw = rng.random((7, 2, 5))
            soft = raw / raw.sum(axis=-1, keepdims=True)
            val = diversity_loss(Tensor(soft), alpha=0.7).item()
            assert -0.7 * math.log(5.0) / 5.0 - 1e-12 <= val <= 0.0

    def test_zero_norm_vector_rejected(self):
        q = Tensor(np.zeros((3, 2)))
        c = Tensor(np.ones((3, 2)))
        with pytest.raises(NonFiniteError, match="zero-norm"):
            contrastive_loss(c, q, np.arange(3), 1, 0.1, make_rng(0))

    def test_invalid_kappa_rejected(self):
        c = Tensor(np.ones((3, 2)))
        with pytest.raises(ValueError, match="kappa"):
            contrastive_loss(c, c, np.arange(3), 1, 0.0, make_rng(0))

    @pytest.mark.parametrize("seed", range(3))
    def test_gradient_check(self, seed):
        rng = make_rng(seed)
        c0 = rng.normal(size=(6, 4))
        q0 = rng.normal(size=(6, 4))
        soft_raw = rng.random((6, 2, 3))
        soft0 = soft_raw / soft_raw.sum(axis=-1, keepdims=True)
        mask = np.arange(6)

        def build(params):
            c, q, soft = params
            return contrastive_diversity_loss(c, q, soft, mask, num_distractors=3,
                                              kappa=0.2, alpha=0.5, rng=make_rng(42))

        tensors = [Tensor(a.copy(), requires_grad=True) for a in (c0, q0, soft0)]
        _, grads = forward_backward(lambda: build(tensors), tensors)
        numeric = finite_difference_grads(
            lambda arrs: build([Tensor(a) for a in arrs]).item(),
            [c0.copy(), q0.copy(), soft0.copy()],
        )
        for ga, gn in zip(grads, numeric):
            assert grad_rel_err(ga, gn) < GRAD_TOL


class TestGumbelSelect:
    def test_dominant_logit_wins_at_low_temperature(self):
        logits = Tensor(np.array([[10.0, 0.0, 0.0, 0.0]]))
        for seed in range(20):
            hard, _ = gumbel_select(logits, temperature=0.01, rng=make_rng(seed))
            # noise is effectively bounded well inside +-5 for these draws
            assert hard.data[0].argmax() == 0

    def test_high_temperature_uniform(self):
        logits = Tensor(np.array([[3.0, -1.0, 0.5, 2.0]]))

        class _ZeroNoise:
            @staticmethod
            def random(shape):
                return np.full(shape, np.exp(-1.0))  # gumbel(-ln(-ln u)) == 0

        _, soft = gumbel_select(logits, temperature=1e6, rng=_ZeroNoise())
        np.testing.assert_allclose(soft.data, 0.25, atol=1e-6)

    def test_temperature_to_zero_approaches_hard(self):
        logits = Tensor(np.array([[1.0, 0.2, -0.5]]))
        rng_draws = make_rng(5).random((1, 3))

        class _Fixed:
            @staticmethod
            def random(shape):
                return rng_draws

        _, soft_small = gumbel_select(logits, 1e-3, _Fixed())
        hard, _ = gumbel_select(logits, 1e-3, _Fixed())
        np.testing.assert_allclose(soft_small.data, hard.data, atol=1e-9)

    def test_straight_through_gradient_matches_soft_path(self):
        rng = make_rng(6)
        logits0 = rng.normal(size=(2, 5))
        weights = rng.normal(size=(2, 5))

        def hard_loss(params):
            hard, _ = gumbel_select(params[0], 0.7, make_rng(11))
            return (hard * Tensor(weights)).sum()

        def soft_loss(arrs):
            _, soft = gumbel_select(Tensor(arrs[0]), 0.7, make_rng(11))
            return (soft * Tensor(weights)).sum().item()

        t = Tensor(logits0.copy(), requires_grad=True)
        _, grads = forward_backward(lambda: hard_loss([t]), [t])
        numeric = finite_difference_grads(soft_loss, [logits0.copy()])
        assert grad_rel_err(grads[0], numeric[0]) < GRAD_TOL

    def test_nonfinite_logits_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            gumbel_select(Tensor(np.array([[np.nan, 0.0]])), 1.0, make_rng(0))

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ValueError, match="temperature"):
            gumbel_select(Tensor(np.zeros((1, 2))), 0.0, make_rng(0))


class TestKMeans:
    def test_two_separable_points(self):
        centroids, assign, history = kmeans_fit(np.array([0.0, 10.0]), k=2, seed=0)
        assert sorted(centroids.ravel().tolist()) == [0.0, 10.0]
        assert history[-1] == 0.0
        assert assign[0] != assign[1]

    def test_k1_is_mean(self):
        pts = np.array([[1.0, 2.0], [3.0, 6.0], [5.0, 1.0]])
        centroids, _, _ = kmeans_fit(pts, k=1, seed=0)
        np.testing.assert_allclose(centroids[0], pts.mean(axis=0))

    def test_inertia_non_increasing(self):
        rng = make_rng(7)
        pts = rng.normal(size=(80, 3))
        _, _, history = kmeans_fit(pts, k=5, iterations=15, seed=1)
        assert all(a >= b - 1e-9 for a, b in zip(history, history[1:]))

    def test_recovers_separated_gaussians(self):
        rng = make_rng(8)
        true_centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 7.0]])
        pts = np.concatenate([
            c + 0.1 * rng.normal(size=(20, 2)) for c in true_centers
        ])
        centroids, _, _ = kmeans_fit(pts, k=3, iterations=25, seed=2)
        for c in true_centers:
            nearest = np.abs(centroids - c).sum(axis=1).min()
            d = np.sqrt(((centroids - c) ** 2).sum(axis=1)).min()
            assert d < 0.2, (nearest, d)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            kmeans_fit(np.empty((0, 2)), k=1)

    def test_too_few_frames_rejected(self):
        with pytest.raises(ValueError, match="at least"):
            kmeans_fit(np.ones((2, 2)), k=3)

    def test_quantizer_assigns_one_unit_per_codebook(self):
        rng = make_rng(9)
        frames = rng.normal(size=(40, 3))
        books = [np.full((4, 3), np.nan), np.full((6, 3), np.nan)]
        quant = KMeansQuantizer(books)
        with pytest.raises(ValueError, match="non-finite centroid"):
            quant.assign(frames)
        quant.fit(frames, seed=3)
        # fitted in place, book g seeded seed + g
        assert all(c is book for c, book in zip(quant.codebooks, books, strict=True))
        np.testing.assert_array_equal(books[1], kmeans_fit(frames, 6, seed=4)[0])
        units = quant.assign(frames)
        assert units.shape == (40, 2)
        assert units[:, 0].max() < 4 and units[:, 1].max() < 6

    def test_unfitted_hubert_model_raises_when_it_assigns(self):
        cfg = SslConfig(objective="hubert", d_in=4, n_blocks=1, d_model=8, n_heads=2,
                        d_ff=16, num_codebooks=2, entries=3, code_dim=4)
        model = build_ssl_model(cfg, seed=0)
        assert [c.shape for c in model.pseudo_labeler.codebooks] == [(3, 4), (3, 4)]
        utt = make_synthetic_utterances(cfg, n_utts=1, frames_per_utt=20, seed=1)[0]
        with pytest.raises(ValueError, match="non-finite centroid"):
            model.utterance_loss(utt, make_rng(2))

    def test_checkpoint_keeps_codebook_order_past_ten(self, tmp_path):
        # kmeans.g10 must load after kmeans.g9, not between g1 and g2
        from asrfuse.models import load_ssl_checkpoint, save_ssl_checkpoint

        cfg = SslConfig(objective="hubert", d_in=2, n_blocks=1, d_model=4, n_heads=1,
                        d_ff=8, num_codebooks=11, entries=2, code_dim=2)
        model = build_ssl_model(cfg, seed=0)
        model.pseudo_labeler = KMeansQuantizer(
            [np.full((2, 2), float(g)) for g in range(11)])
        save_ssl_checkpoint(tmp_path / "m.mdl1", model, seed=0, epochs_completed=1)
        loaded, _, _ = load_ssl_checkpoint(tmp_path / "m.mdl1")
        assert [c[0, 0] for c in loaded.pseudo_labeler.codebooks] == list(range(11))


class TestMaskedPrediction:
    def test_uniform_distribution_ln_v(self):
        # student orthogonal to every codeword: all cosines zero, softmax uniform
        d = 4
        student = Tensor(np.tile([1.0, 0, 0, 0], (3, 1)))
        emb = np.zeros((8, d))
        emb[:, 1] = 1.0  # all entries identical, so the softmax is uniform
        labels = np.zeros((3, 2), dtype=int)
        loss = masked_prediction_loss(student, labels, [Tensor(emb), Tensor(emb)],
                                      mask_indices=[1], tau=0.1)
        # one masked frame, two codebooks
        assert loss.item() == pytest.approx(2 * math.log(8.0), abs=1e-9)

    def test_one_hot_limit_as_tau_to_zero(self):
        student = Tensor(np.array([[1.0, 0.0]]))
        emb = np.array([[1.0, 0.0], [0.0, 1.0]])  # cosine gap 1 vs 0
        labels = np.array([[0]])
        values = [
            masked_prediction_loss(student, labels, [Tensor(emb)], [0], tau=tau).item()
            for tau in (0.5, 0.1, 0.02)
        ]
        assert values[0] > values[1] > values[2]
        assert values[-1] < 1e-8

    def test_matches_independent_softmax_oracle(self):
        rng = make_rng(10)
        t_len, d, e, g_books, v = 3, 5, 4, 2, 6
        student = rng.normal(size=(t_len, d))
        proj = rng.normal(size=(d, e))
        embs = [rng.normal(size=(v, e)) for _ in range(g_books)]
        labels = rng.integers(0, v, size=(t_len, g_books))
        mask = np.array([1])
        tau = 0.3

        proj_out = student @ proj
        expected = 0.0
        for g in range(g_books):
            s = proj_out[mask][0]
            s = s / np.linalg.norm(s)
            e_hat = embs[g] / np.linalg.norm(embs[g], axis=1, keepdims=True)
            p = softmax_rows((e_hat @ s) / tau)
            expected -= math.log(p[labels[mask[0], g]])

        loss = masked_prediction_loss(Tensor(student) @ Tensor(proj), labels,
                                      [Tensor(e) for e in embs], mask, tau=tau)
        assert loss.item() == pytest.approx(expected, abs=1e-12)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="empty mask"):
            masked_prediction_loss(Tensor(np.ones((2, 2))), np.zeros((2, 1), dtype=int),
                                   [Tensor(np.ones((3, 2)))], [], tau=0.1)

    def test_nonpositive_tau_rejected(self):
        with pytest.raises(ValueError, match="tau"):
            masked_prediction_loss(Tensor(np.ones((2, 2))), np.zeros((2, 1), dtype=int),
                                   [Tensor(np.ones((3, 2)))], [0], tau=-1.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_gradient_check(self, seed):
        rng = make_rng(seed + 20)
        student0 = rng.normal(size=(4, 3))
        emb0 = rng.normal(size=(5, 3))
        labels = rng.integers(0, 5, size=(4, 1))
        mask = np.array([0, 2, 3])

        def build(params):
            return masked_prediction_loss(params[0], labels, [params[1]], mask, tau=0.4)

        tensors = [Tensor(a.copy(), requires_grad=True) for a in (student0, emb0)]
        _, grads = forward_backward(lambda: build(tensors), tensors)
        numeric = finite_difference_grads(
            lambda arrs: build([Tensor(a) for a in arrs]).item(),
            [student0.copy(), emb0.copy()],
        )
        for ga, gn in zip(grads, numeric):
            assert grad_rel_err(ga, gn) < GRAD_TOL


class TestEmaUpdate:
    def test_decay_one_tracks_student(self):
        t = Tensor(np.zeros(3))
        ema_update([t], [Tensor(np.array([4.0, 5.0, 6.0]))], 1.0, step=3)
        np.testing.assert_array_equal(t.data, [4.0, 5.0, 6.0])

    def test_decay_zero_freezes_teacher(self):
        t = Tensor(np.array([1.0, 2.0]))
        ema_update([t], [Tensor(np.array([9.0, 9.0]))], 0.0, step=5)
        np.testing.assert_array_equal(t.data, [1.0, 2.0])

    def test_halfway_arithmetic(self):
        t = Tensor(np.zeros(1))
        ema_update([t], [Tensor(np.array([2.0]))], 0.5, step=1)
        np.testing.assert_array_equal(t.data, [1.0])

    def test_step_zero_copies_student(self):
        t = Tensor(np.array([7.0]))
        ema_update([t], [Tensor(np.array([-3.0]))], 0.1, step=0)
        np.testing.assert_array_equal(t.data, [-3.0])

    def test_affine_in_student(self):
        rng = make_rng(12)
        base = rng.normal(size=4)
        student = rng.normal(size=4)
        gamma, a = 0.3, 2.5
        t1, t2, t0 = (Tensor(base.copy()) for _ in range(3))
        ema_update([t1], [Tensor(student)], gamma, 1)
        ema_update([t2], [Tensor(a * student)], gamma, 1)
        ema_update([t0], [Tensor(np.zeros(4))], gamma, 1)
        lhs = t2.data - t0.data
        rhs = a * (t1.data - t0.data)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        from asrfuse.numcore import ShapeMismatchError

        with pytest.raises(ShapeMismatchError):
            ema_update([Tensor(np.zeros(2))], [Tensor(np.zeros(3))], 0.5, 1)

    def test_invalid_decay_rejected(self):
        with pytest.raises(ValueError):
            ema_update([Tensor(np.zeros(1))], [Tensor(np.zeros(1))], 1.5, 1)


class TestData2vecLoss:
    def test_zero_difference(self):
        teacher = [np.tile([1.0, -1.0], (3, 1))]
        # student equals the normalized teacher target
        from asrfuse.ssl_objectives import normalized_frames

        target = normalized_frames(teacher[0])
        loss = data2vec_loss(Tensor(target), teacher, top_k=1, beta=0.25,
                             mask_indices=[0, 1, 2])
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_knee_continuity(self):
        diff = Tensor(np.full((1, 4), 0.25))
        quad = smooth_l1(diff, 0.25)
        np.testing.assert_allclose(quad.data, 0.125, atol=1e-12)
        just_above = smooth_l1(Tensor(np.full((1, 4), 0.25 + 1e-9)), 0.25)
        np.testing.assert_allclose(just_above.data, 0.125, atol=1e-8)

    def test_l1_branch_value(self):
        out = smooth_l1(Tensor(np.array([1.0])), 0.25)
        assert out.data[0] == pytest.approx(0.875, abs=1e-12)

    def test_top_k_out_of_range_rejected(self):
        teacher = [np.ones((2, 2))] * 3
        with pytest.raises(ValueError, match="top_k"):
            data2vec_loss(Tensor(np.ones((2, 2))), teacher, top_k=4, beta=0.25,
                          mask_indices=[0])

    @pytest.mark.parametrize("seed", range(3))
    def test_gradient_check(self, seed):
        rng = make_rng(seed + 30)
        student0 = rng.normal(size=(5, 3))
        teacher = [rng.normal(size=(5, 3)) for _ in range(2)]
        mask = np.array([0, 2, 4])

        def build(params):
            return data2vec_loss(params[0], teacher, top_k=2, beta=0.25,
                                 mask_indices=mask)

        t = Tensor(student0.copy(), requires_grad=True)
        _, grads = forward_backward(lambda: build([t]), [t])
        numeric = finite_difference_grads(
            lambda arrs: build([Tensor(arrs[0])]).item(), [student0.copy()]
        )
        assert grad_rel_err(grads[0], numeric[0]) < GRAD_TOL

    def test_teacher_is_an_independent_copy_of_the_student(self):
        # a teacher sharing the student's arrays would make every EMA step a no-op
        cfg = SslConfig(objective="data2vec", d_in=4, n_blocks=2, d_model=8,
                        n_heads=2, d_ff=16)
        model = build_ssl_model(cfg, seed=5)
        teacher = model.teacher.parameters()
        student = model.net.parameters()
        assert len(teacher) == len(student)
        for t, s in zip(teacher, student):
            np.testing.assert_array_equal(t.data, s.data)
            assert not np.shares_memory(t.data, s.data)

    def test_targets_read_the_ema_teacher_arrays(self):
        # the teacher pass must see in-place writes to the teacher's arrays,
        # which is how ema_update and checkpoint loading change them
        cfg = SslConfig(objective="data2vec", d_in=4, n_blocks=2, d_model=8,
                        n_heads=2, d_ff=16, mask_probability=0.3, mask_span=2)
        model = build_ssl_model(cfg, seed=5)
        utt = make_synthetic_utterances(cfg, n_utts=1, frames_per_utt=20, seed=6)[0]
        before = model.utterance_loss(utt, make_rng(1)).item()
        arrays = [p.data for p in model.teacher.parameters()]
        saved = [a.copy() for a in arrays]
        for a in arrays:
            a *= 0.5
        assert model.utterance_loss(utt, make_rng(1)).item() != before
        for a, old in zip(arrays, saved):
            a[...] = old
        assert model.utterance_loss(utt, make_rng(1)).item() == before


class TestCtcLoss:
    def test_single_frame_single_path(self):
        logp = np.log(np.array([[0.4, 0.6]]))  # cols: blank, A
        loss = ctc_loss(Tensor(logp), [1], blank=0)
        assert loss.item() == pytest.approx(-math.log(0.6), abs=1e-10)

    def test_two_frame_enumeration(self):
        rng = make_rng(13)
        raw = rng.random((2, 2))
        logp = np.log(raw / raw.sum(axis=1, keepdims=True))
        loss = ctc_loss(Tensor(logp), [1], blank=0)
        # paths AA, A-, -A
        p = (np.exp(logp[0, 1]) * np.exp(logp[1, 1])
             + np.exp(logp[0, 1]) * np.exp(logp[1, 0])
             + np.exp(logp[0, 0]) * np.exp(logp[1, 1]))
        assert loss.item() == pytest.approx(-math.log(p), abs=1e-10)

    def test_empty_target_all_blank(self):
        rng = make_rng(14)
        raw = rng.random((4, 3))
        logp = np.log(raw / raw.sum(axis=1, keepdims=True))
        loss = ctc_loss(Tensor(logp), [], blank=2)
        assert loss.item() == pytest.approx(-logp[:, 2].sum(), abs=1e-10)

    def test_matches_brute_force_sampled(self):
        rng = make_rng(15)
        for _ in range(25):
            t_len = int(rng.integers(1, 7))
            n_sym = int(rng.integers(2, 5))
            max_label = min(3, t_len)
            lab_len = int(rng.integers(0, max_label + 1))
            labels = rng.integers(0, n_sym - 1, size=lab_len).tolist()
            if min_frames_for(labels) > t_len:
                continue
            raw = rng.random((t_len, n_sym)) + 0.05
            logp = np.log(raw / raw.sum(axis=1, keepdims=True))
            expected = ctc_loss_brute_force(logp, labels, blank=n_sym - 1)
            got = ctc_loss(Tensor(logp), labels, blank=n_sym - 1).item()
            assert got == pytest.approx(expected, abs=1e-10)

    def test_infeasible_label_rejected(self):
        logp = np.log(np.full((2, 3), 1 / 3))
        with pytest.raises(ValueError, match="at least"):
            ctc_loss(Tensor(logp), [0, 0], blank=2)  # repeat needs 3 frames

    def test_blank_label_rejected(self):
        logp = np.log(np.full((2, 3), 1 / 3))
        with pytest.raises(ValueError, match="label"):
            ctc_loss(Tensor(logp), [2], blank=2)

    @pytest.mark.parametrize("t_len,n_sym,labels,blank", [
        (6, 4, [], 3),                       # empty label: one all-blank path
        (12, 3, [1, 1, 1, 1], 0),            # all repeats: no skip transitions
        (9, 5, [1, 2, 2, 3, 4, 4], 0),       # T == min_frames_for, blank at 0
        (9, 5, [0, 1, 1, 2, 3, 3], 4),       # T == min_frames_for, blank at C-1
        (30, 6, [0, 2, 2, 4, 1, 3, 0], 5),
        (400, 31, None, 30),                 # long-form shape, L = 50
    ])
    # a 0.2 share of -inf scores blocks every path in some cases (loss inf)
    @pytest.mark.parametrize("neg_inf_share", [0.0, 0.05, 0.2])
    def test_bit_equal_to_per_cell_recursion(self, t_len, n_sym, labels, blank, neg_inf_share):
        rng = make_rng(t_len + n_sym)
        if labels is None:
            labels = rng.integers(0, n_sym - 1, size=50).tolist()
        raw = rng.normal(size=(t_len, n_sym)) * 2.0
        logp = raw - np.log(np.exp(raw).sum(axis=1, keepdims=True))
        logp[rng.random(logp.shape) < neg_inf_share] = -np.inf
        expected_loss, expected_grad = ctc_loss_per_cell(logp, labels, blank)
        t = Tensor(logp.copy(), requires_grad=True)
        loss = ctc_loss(t, labels, blank=blank)
        assert loss.item() == expected_loss
        # called directly, because backward() rejects an infinite loss
        assert np.array_equal(loss._backward_fn(np.array(1.0))[0], expected_grad)

    @pytest.mark.parametrize("labels,blank,extra_frames", [
        ([2, 2, 1, 1, 1, 3], 0, 5),     # repeated labels, blank first
        ([2, 2, 1, 1, 1, 3], 0, 0),     # ... at T == min_frames_for
        ([0, 0, 3, 2, 2], 4, 7),        # repeated labels, blank last
        ([0, 0, 3, 2, 2], 4, 0),
        ([3], 0, 4),                    # one label
        ([3], 4, 0),
        ([], 0, 6),                     # no labels
        ([], 4, 1),
    ])
    @pytest.mark.parametrize("seed", range(3))
    def test_bit_equal_to_two_loop_recursion(self, labels, blank, extra_frames, seed):
        rng = make_rng(seed + 60)
        t_len = max(1, min_frames_for(labels) + extra_frames)
        raw = rng.normal(size=(t_len, 5)) * 2.0
        logp = raw - np.log(np.exp(raw).sum(axis=1, keepdims=True))
        expected_loss, expected_grad = ctc_loss_two_loop(logp, labels, blank)
        t = Tensor(logp.copy(), requires_grad=True)
        loss = ctc_loss(t, labels, blank=blank)
        assert loss.item() == expected_loss
        _, grads = forward_backward(lambda: ctc_loss(t, labels, blank=blank), [t])
        assert np.array_equal(grads[0], expected_grad)

    @pytest.mark.parametrize("seed", range(3))
    def test_gradient_check(self, seed):
        rng = make_rng(seed + 40)
        t_len, n_sym = 5, 4
        raw = rng.random((t_len, n_sym)) + 0.1
        logp0 = np.log(raw / raw.sum(axis=1, keepdims=True))
        labels = [0, 2]

        t = Tensor(logp0.copy(), requires_grad=True)
        _, grads = forward_backward(lambda: ctc_loss(t, labels, blank=n_sym - 1), [t])
        numeric = finite_difference_grads(
            lambda arrs: ctc_loss(Tensor(arrs[0]), labels, blank=n_sym - 1).item(),
            [logp0.copy()],
        )
        assert grad_rel_err(grads[0], numeric[0]) < GRAD_TOL


class TestMasking:
    def test_reproducible_given_seed(self):
        spec = MaskSpec(0.2, 3)
        a = spec.sample(50, make_rng(77))
        b = spec.sample(50, make_rng(77))
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.starts, b.starts)

    def test_indices_within_range_and_spans_clip(self):
        spec = MaskSpec(0.5, 10)
        s = spec.sample(12, make_rng(1))
        assert s.indices.max(initial=0) < 12

    def test_start_count_expectation(self):
        t_len, p = 100, 0.065
        spec = MaskSpec(p, 10)
        counts = [len(spec.sample(t_len, make_rng(seed)).starts) for seed in range(1000)]
        sigma = math.sqrt(t_len * p * (1 - p))
        assert abs(np.mean(counts) - p * t_len) < 3 * sigma / math.sqrt(1000)


class TestBatchProperties:
    def _batch_losses(self, objective, order):
        cfg = SslConfig(objective=objective, d_in=4, n_blocks=2, d_model=8,
                        n_heads=2, d_ff=16, num_codebooks=1, entries=3, code_dim=4,
                        mask_probability=0.3, mask_span=2, num_distractors=2,
                        vocab=3, top_k=1)
        model = build_ssl_model(cfg, seed=5)
        utts = make_synthetic_utterances(cfg, n_utts=3, frames_per_utt=20, seed=6)
        if objective == "hubert":
            model.pseudo_labeler.fit(np.concatenate([u["frames"] for u in utts]), seed=7)
        if objective == "data2vec":
            from asrfuse.ssl_objectives import ema_update

            ema_update(model.teacher.parameters(), model.net.parameters(), cfg.ema_decay, 0)
        total = 0.0
        for i in order:
            loss = model.utterance_loss(utts[i], make_rng(100 + i))
            total += loss.item()
        return total

    @pytest.mark.parametrize("objective", ["wav2vec2", "hubert", "data2vec", "ctc"])
    def test_permutation_invariance(self, objective):
        assert self._batch_losses(objective, [0, 1, 2]) == pytest.approx(
            self._batch_losses(objective, [2, 0, 1]), abs=1e-12
        )


class TestSmokeTraining:
    """Each objective's loss decreases over >= 50 steps on a tiny fixed batch."""

    @pytest.mark.parametrize("objective", ["wav2vec2", "hubert", "data2vec", "ctc"])
    def test_loss_decreases(self, objective):
        cfg = SslConfig(objective=objective, d_in=4, n_blocks=2, d_model=16,
                        n_heads=2, d_ff=32, num_codebooks=2, entries=4, code_dim=8,
                        mask_probability=0.2, mask_span=3, num_distractors=4,
                        vocab=3, top_k=2)
        model = build_ssl_model(cfg, seed=1)
        utts = make_synthetic_utterances(cfg, n_utts=1, frames_per_utt=30, seed=2)
        log, _ = train_ssl(model, utts, epochs=50, seed=3, lr=3e-3)
        assert len(log) == 50
        assert log[-1]["loss"] < log[0]["loss"]

    @pytest.mark.parametrize("objective", ["wav2vec2", "hubert", "data2vec", "ctc"])
    def test_continued_run_equals_the_straight_run(self, objective):
        # stopped at epoch 2 of a 4-epoch schedule, a run continued with its
        # optimizer starts where that optimizer stands, at the same rates
        cfg = SslConfig(objective=objective, d_in=4, n_blocks=1, d_model=8, n_heads=2,
                        d_ff=16, num_codebooks=1, entries=3, code_dim=4,
                        mask_probability=0.3, mask_span=2, num_distractors=2, vocab=3,
                        top_k=1)
        utts = make_synthetic_utterances(cfg, n_utts=2, frames_per_utt=20, seed=2)
        straight, halted = build_ssl_model(cfg, seed=1), build_ssl_model(cfg, seed=1)
        log, _ = train_ssl(straight, utts, epochs=4, seed=3)
        _, optimizer = train_ssl(halted, utts, epochs=2, seed=3, total_epochs=4)
        rest, _ = train_ssl(halted, utts, epochs=4, seed=3, optimizer=optimizer)
        assert rest == log[2:]
        for (name, a), (_, b) in zip(straight.named_parameters(), halted.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data, name)
        for (name, a), (_, b) in zip(straight.named_state_arrays(), halted.named_state_arrays()):
            np.testing.assert_array_equal(a, b, name)

    def test_losses_nonnegative_except_diversity(self):
        cfg = SslConfig(objective="hubert", d_in=4, n_blocks=2, d_model=16,
                        n_heads=2, d_ff=32, mask_probability=0.3, mask_span=2,
                        num_codebooks=1, entries=4, code_dim=8)
        model = build_ssl_model(cfg, seed=8)
        utts = make_synthetic_utterances(cfg, n_utts=2, frames_per_utt=25, seed=9)
        log, _ = train_ssl(model, utts, epochs=3, seed=10)
        assert all(entry["loss"] >= 0.0 for entry in log)

    def test_training_deterministic(self):
        def run():
            cfg = SslConfig(objective="ctc", d_in=4, n_blocks=1, d_model=8,
                            n_heads=2, d_ff=16, vocab=3)
            model = build_ssl_model(cfg, seed=11)
            utts = make_synthetic_utterances(cfg, 1, 20, seed=12)
            log, _ = train_ssl(model, utts, epochs=5, seed=13)
            return [e["loss"] for e in log], [p.data.copy() for p in model.parameters()]

        log1, params1 = run()
        log2, params2 = run()
        assert log1 == log2
        for a, b in zip(params1, params2):
            np.testing.assert_array_equal(a, b)


class TestContextNetwork:
    def test_block_output_shapes(self):
        rng = make_rng(50)
        net = ContextNetwork(d_in=6, n_blocks=3, d_model=12, n_heads=3, d_ff=24, rng=rng)
        blocks = net(Tensor(rng.normal(size=(9, 6))))
        assert len(blocks) == 3 and all(b.shape == (9, 12) for b in blocks)

    def test_requires_at_least_one_block(self):
        with pytest.raises(ValueError):
            ContextNetwork(d_in=4, n_blocks=0, rng=make_rng(0))

    def test_gradients_flow_to_all_parameters(self):
        rng = make_rng(51)
        net = ContextNetwork(d_in=3, n_blocks=2, d_model=8, n_heads=2, d_ff=16, rng=rng)
        params = net.parameters()
        _, grads = forward_backward(
            lambda: (net(Tensor(rng.normal(size=(5, 3))))[-1] ** 2).sum(), params
        )
        nonzero = sum(1 for g in grads if np.abs(g).max() > 0)
        assert nonzero == len(grads)


def _output_and_grads(forward, x0, weight, params):
    """Output, input gradient and parameter gradients of sum(forward(x) * weight)."""
    for p in params:
        p.grad = None
    x = Tensor(x0.copy(), requires_grad=True)
    out = forward(x)
    (out * Tensor(weight)).sum().backward()
    return out.data, x.grad, [p.grad for p in params]


class TestBlockMatchesPerOpGraph:
    """One-node attention and LayerNorm against the per-op graphs, bit for bit,
    with and without a recorded graph."""

    def assert_bit_equal(self, forward, oracle, x0, weight, params, names):
        out, x_grad, grads = _output_and_grads(forward, x0, weight, params)
        ref_out, ref_x_grad, ref_grads = _output_and_grads(oracle, x0, weight, params)
        assert (out == ref_out).all()
        assert np.array_equal(x_grad, ref_x_grad)
        for name, g, ref in zip(names, grads, ref_grads):
            assert np.array_equal(g, ref), name

    @pytest.mark.parametrize("scale", [1.0, 30.0])
    @pytest.mark.parametrize("d_model, n_heads", [(64, 4), (8, 8), (12, 3)])
    @pytest.mark.parametrize("t_len", [1, 2, 7, 100, 400])
    def test_block(self, t_len, d_model, n_heads, scale):
        for seed in range(3):
            rng = make_rng(600 + seed)
            block = TransformerBlock(d_model, n_heads, 2 * d_model, rng)
            names, params = zip(*block.named_parameters())
            x0 = rng.normal(size=(t_len, d_model)) * scale
            weight = rng.normal(size=(t_len, d_model))
            self.assert_bit_equal(block, lambda x: graph_transformer_block(block, x),
                                  x0, weight, params, names)
            with no_grad():
                out = block(Tensor(x0)).data
                assert out.tobytes() == graph_transformer_block(block, Tensor(x0)).data.tobytes()
            # grad and no_grad calls alternate on one shape: no state carries over
            q, k, v = (Tensor(rng.normal(size=(t_len, d_model)) * scale, requires_grad=True)
                       for _ in range(3))
            ref = graph_attention(q, k, v, n_heads).data.tobytes()
            for record in (False, True, False, True):
                with nullcontext() if record else no_grad():
                    att = attention(q, k, v, n_heads)
                assert att.requires_grad == record
                assert att.data.tobytes() == ref

    @pytest.mark.parametrize("seeded", [True, False])
    def test_block_with_dropout(self, monkeypatch, seeded):
        # dropout runs only when a step passes its rng; without one the block
        # is its inference self and makes no dropout node, so draws nothing
        block = TransformerBlock(12, 3, 24, make_rng(610), dropout=0.3)
        names, params = zip(*block.named_parameters())
        x0, weight = make_rng(611).normal(size=(2, 9, 12))
        rng = (lambda: make_rng(612)) if seeded else (lambda: None)
        self.assert_bit_equal(lambda x: block(x, rng=rng()),
                              lambda x: graph_transformer_block(block, x, rng=rng()),
                              x0, weight, params, names)
        ops, make = [], Tensor._make

        def recorded(data, parents, backward_fn, op):
            ops.append(op)
            return make(data, parents, backward_fn, op)

        monkeypatch.setattr(Tensor, "_make", staticmethod(recorded))
        out = block(Tensor(x0, requires_grad=True), rng=rng()).data
        with no_grad():
            inference = block(Tensor(x0)).data
        assert ("dropout" in ops) == seeded
        assert (out.tobytes() == inference.tobytes()) != seeded

    @pytest.mark.parametrize("t_len", [7, 100])
    def test_stacked_blocks(self, t_len):
        # each block's input gradient reaches the previous block's parameters
        rng = make_rng(620)
        net = ContextNetwork(d_in=5, n_blocks=3, d_model=12, n_heads=3, d_ff=24, rng=rng)
        names, params = zip(*net.named_parameters())

        def oracle(x):
            h = net.embed(x)
            for block in net.blocks:
                h = graph_transformer_block(block, h)
            return h

        self.assert_bit_equal(lambda x: net(x)[-1], oracle, rng.normal(size=(t_len, 5)),
                              rng.normal(size=(t_len, 12)), params, names)

    @pytest.mark.parametrize("position", ["after-middle-block", "after-last-block"])
    def test_bench_shaped_encode_grad_mode_equals_no_grad(self, position):
        cfg = SslConfig(objective="hubert", bottleneck_position=position)
        model = build_ssl_model(cfg, seed=3)
        x = Tensor(make_rng(630).normal(size=(100, cfg.d_in)))
        h, extracted = model.encode(x)
        assert h.requires_grad and extracted.requires_grad
        with no_grad():
            h_ng, extracted_ng = model.encode(x)
        assert h.data.tobytes() == h_ng.data.tobytes()
        assert extracted.data.tobytes() == extracted_ng.data.tobytes()


class TestExtractPath:
    """`SslModel.extract` computes only what `encode` would extract."""

    @pytest.mark.parametrize("n_blocks", [1, 3, 4])
    @pytest.mark.parametrize("position, blocks_run", [
        ("after-encoder", lambda n: 0),
        ("after-middle-block", lambda n: math.ceil(n / 2)),
        ("after-last-block", lambda n: n),
    ])
    def test_equals_encode_and_stops_at_the_bottleneck(self, monkeypatch, position,
                                                       blocks_run, n_blocks):
        cfg = SslConfig(objective="hubert", d_in=5, n_blocks=n_blocks, d_model=12,
                        n_heads=3, d_ff=24, bottleneck_position=position,
                        bottleneck_dim=7)
        model = build_ssl_model(cfg, seed=n_blocks)
        x = Tensor(make_rng(640 + n_blocks).normal(size=(9, cfg.d_in)))
        expected = model.encode(x)[1].data

        calls = []
        block_call = TransformerBlock.__call__

        def counted(self, *args, **kwargs):
            calls.append(self)
            return block_call(self, *args, **kwargs)

        def restoring_half(*args, **kwargs):
            raise AssertionError("extract ran the bottleneck's restoring half")

        monkeypatch.setattr(TransformerBlock, "__call__", counted)
        monkeypatch.setattr(BottleneckModule, "forward", restoring_half)
        with no_grad():
            extracted = model.extract(x)
        assert extracted.shape == (18, 7)
        assert extracted.data.tobytes() == expected.tobytes()
        assert calls == model.net.blocks[:blocks_run(n_blocks)]

    def test_model_without_bottleneck_rejected(self):
        model = build_ssl_model(SslConfig(objective="hubert", d_in=5), seed=0)
        with pytest.raises(ValueError, match="no bottleneck"):
            model.extract(Tensor(np.ones((3, 5))))
