"""Bottleneck module and feature fusion tests."""

import numpy as np
import pytest

from asrfuse.a2a import ParallelPair
from asrfuse.bottleneck import BottleneckModule
from asrfuse.cli import build_parser
from asrfuse.errors import ValidationError
from asrfuse.features import FeatureSequence, check_synchronous, fuse_features
from asrfuse.numcore import Tensor, forward_backward, make_rng
from asrfuse.ssl_objectives.trainers import SslConfig, build_ssl_model

from oracles import finite_difference_grads, grad_rel_err, graph_bottleneck


class TestBottleneckShapes:
    def test_full_size_shape_arithmetic(self):
        module = BottleneckModule(1024, 256, 0.1, make_rng(0))
        extracted, restored = module.forward(Tensor(make_rng(1).normal(size=(7, 1024))))
        assert extracted.shape == (14, 256)
        assert restored.shape == (7, 1024)

    @pytest.mark.parametrize("inner", [128, 256, 512])
    @pytest.mark.parametrize("position", ["after-encoder", "after-middle-block",
                                          "after-last-block"])
    def test_contract_over_lengths(self, inner, position):
        # the SSL model places the bottleneck; 3 blocks keep the positions apart
        model = build_ssl_model(SslConfig(d_in=3, n_blocks=3, d_model=12, n_heads=2, d_ff=8,
                                          bottleneck_position=position,
                                          bottleneck_dim=inner), seed=2)
        for t_in in [1, 2, 5, 17]:
            x = Tensor(make_rng(t_in).normal(size=(t_in, 3)))
            output, extracted = model.encode(x)
            assert extracted.shape == (2 * t_in, inner)
            assert output.shape == (t_in, 12)
            assert model.extract(x).data.tobytes() == extracted.data.tobytes()

    def test_identity_fc_passes_through_upsampled_stream(self):
        module = BottleneckModule(6, 6, 0.0, make_rng(3))
        eye = np.eye(6)
        module.up_even.data = eye.copy()
        module.up_odd.data = eye.copy()
        module.up_bias.data = np.zeros(6)
        module.fc1_w.data = eye.copy()
        module.fc1_b.data = np.zeros(6)
        x = np.abs(make_rng(4).normal(size=(5, 6)))  # non-negative input
        extracted, _ = module.forward(Tensor(x))
        np.testing.assert_array_equal(extracted.data, np.repeat(x, 2, axis=0))

    def test_default_config_follows_best_ablation(self):
        assert SslConfig().bottleneck_dim == 256
        args = build_parser().parse_args(["extract", "--model", "m.mdl1", "--manifest",
                                          "m.jsonl", "--out-dir", "out"])
        assert args.dim is None  # the model's bottleneck_dim is the one width

    def test_dim_mismatch_rejected(self):
        module = BottleneckModule(8, 4, 0.1, make_rng(5))
        with pytest.raises(ValueError, match=r"expected \(T, 8\) input, got \(3, 7\)"):
            module.extract(Tensor(np.ones((3, 7))))

    def test_gradients_through_module(self):
        module = BottleneckModule(4, 3, 0.0, make_rng(7))
        x = make_rng(8).normal(size=(3, 4))
        params = [t for _, t in module.named_parameters()]

        def build():
            extracted, restored = module.forward(Tensor(x))
            return (extracted**2).sum() + (restored**2).sum()

        _, grads = forward_backward(build, params)
        arrays = [p.data.copy() for p in params]

        def numeric_fn(arrs):
            for p, a in zip(params, arrs):
                p.data = a
            return build().item()

        numeric = finite_difference_grads(numeric_fn, arrays)
        for p, a in zip(params, arrays):
            p.data = a
        for ga, gn in zip(grads, numeric):
            assert grad_rel_err(ga, gn) < 1e-4

    @pytest.mark.parametrize("seeded", [True, False])
    def test_training_forward_unchanged_by_the_extract_split(self, monkeypatch, seeded):
        # the per-op forward, which predates the split of `extract`, is the
        # oracle; dropout runs only when a step passes its rng, so without one
        # the forward draws nothing and extracts what inference does
        module = BottleneckModule(6, 5, 0.3, make_rng(13))
        x = make_rng(14).normal(size=(7, 6))
        params = [t for _, t in module.named_parameters()]

        def run(forward):
            outputs = []

            def loss():
                outputs[:] = forward(Tensor(x), make_rng(15) if seeded else None)
                return (outputs[0] ** 2).sum() + (outputs[1] ** 2).sum()

            _, grads = forward_backward(loss, params)
            return [o.data for o in outputs] + [g.copy() for g in grads]

        ops, make = [], Tensor._make

        def recorded(data, parents, backward_fn, op):
            ops.append(op)
            return make(data, parents, backward_fn, op)

        monkeypatch.setattr(Tensor, "_make", staticmethod(recorded))
        got = run(lambda x, rng: module.forward(x, rng=rng))
        assert ("dropout" in ops) == seeded
        want = run(lambda x, rng: graph_bottleneck(module, x, rng))
        inference = module.extract(Tensor(x)).data
        assert (got[0].tobytes() == inference.tobytes()) != seeded
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()


class TestFuseFeatures:
    def test_concatenation_dims(self):
        fbk = FeatureSequence(np.ones((10, 40)), 10.0, label="FBK")
        ssl = FeatureSequence(np.zeros((10, 256)), 10.0, label="SSL")
        fused = fuse_features(fbk, ssl)
        assert fused.frames.shape == (10, 296)
        assert fused.label == "fused"

    def test_identity_with_empty_stream(self):
        x = FeatureSequence(make_rng(9).normal(size=(4, 5)), 10.0)
        empty = FeatureSequence(np.zeros((4, 0)), 10.0)
        fused = fuse_features(x, empty)
        np.testing.assert_array_equal(fused.frames, x.frames)

    def test_three_way_associativity(self):
        fbk = FeatureSequence(np.ones((6, 40)), 10.0, label="FBK")
        ssl = FeatureSequence(np.full((6, 256), 2.0), 10.0, label="SSL")
        uti = FeatureSequence(np.full((6, 144), 3.0), 10.0, label="UTI")
        fused = fuse_features(fuse_features(fbk, ssl), uti)
        assert fused.frames.shape == (6, 440)

    def test_slice_invertibility(self):
        a = FeatureSequence(make_rng(10).normal(size=(8, 3)), 10.0, label="FBK")
        b = FeatureSequence(make_rng(11).normal(size=(8, 5)), 10.0, label="SSL")
        fused = fuse_features(a, b)
        np.testing.assert_array_equal(fused.frames[:, :3], a.frames)
        np.testing.assert_array_equal(fused.frames[:, 3:], b.frames)

    def test_mismatches_name_both_streams(self):
        a = FeatureSequence(np.ones((4, 2)), 10.0, label="FBK")
        b = FeatureSequence(np.ones((5, 2)), 10.0, label="SSL")
        with pytest.raises(ValidationError) as counts:
            fuse_features(a, b)
        assert str(counts.value) == "frame counts differ: FBK has 4, SSL has 5"
        c = FeatureSequence(np.ones((4, 2)), 20.0, label="UTI")
        with pytest.raises(ValidationError) as periods:
            fuse_features(a, c)
        assert str(periods.value) == "frame periods differ: FBK at 10.0 ms, UTI at 20.0 ms"

    def test_parallel_pairs_share_the_rule(self):
        """`ParallelPair` raises what `check_synchronous` raises, naming its
        two halves by role, not by label."""
        a = FeatureSequence(np.ones((4, 2)), 10.0, label="SSL")
        for b in (FeatureSequence(np.ones((5, 2)), 10.0, label="UTI"),
                  FeatureSequence(np.ones((4, 2)), 20.0, label="UTI")):
            with pytest.raises(ValidationError) as direct:
                check_synchronous(a, b, "acoustic", "articulatory")
            with pytest.raises(ValidationError) as pair:
                ParallelPair(a, b)
            assert str(pair.value) == str(direct.value)
            assert "acoustic" in str(pair.value) and "articulatory" in str(pair.value)
        ParallelPair(a, FeatureSequence(np.ones((4, 7)), 10.0, label="UTI"))


class TestFeatureSequenceValidation:
    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            FeatureSequence(np.array([[np.nan]]), 10.0)

    def test_bad_period_rejected(self):
        with pytest.raises(ValueError, match="period"):
            FeatureSequence(np.ones((2, 2)), 0.0)

    def test_requires_2d(self):
        with pytest.raises(ValueError, match="T, D"):
            FeatureSequence(np.ones(5), 10.0)
