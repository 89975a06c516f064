"""Combination tests: joint decoding, rescoring, grid search, truncation."""

import itertools
import math
import warnings

import numpy as np
import pytest

from asrfuse import combine
from asrfuse.combine import (
    JOINT_PRESETS,
    RESCORE_PRESETS,
    CombinationWeights,
    FrameScoreStream,
    Hypothesis,
    NBestList,
    grid_search_weights,
    joint_decode,
    rescore_nbest,
    simplex_grid,
    truncate_nbest,
    tune_joint_weights,
    tune_rescore_weights,
)
from asrfuse.numcore import make_rng
from asrfuse.scoring import align_and_count, error_counts, tokenize

TOKENS = ["a", "b", "c"]


def stream(utt, scores, period=10.0, tokens=None):
    return FrameScoreStream(utt, tokens or list(TOKENS), np.asarray(scores, float), period)


def random_stream(utt, t, rng, tokens=None):
    toks = tokens or list(TOKENS)
    return stream(utt, -rng.random((t, len(toks))) * 5.0, tokens=toks)


class TestJointDecode:
    def test_fused_overflow_rejected_without_warning(self):
        streams = [FrameScoreStream("u", ["a", "b"], np.array([[-1e308, 0.0]]))] * 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning would raise here
            with pytest.raises(ValueError, match="u: non-finite scores"):
                joint_decode(streams, (1.0, 1.0))

    def test_projection_weight_reproduces_stream(self):
        rng = make_rng(0)
        s1 = random_stream("u1", 6, rng)
        s2 = random_stream("u1", 6, rng)
        fused, tokens = joint_decode([s1, s2], (1.0, 0.0))
        np.testing.assert_array_equal(fused.scores, s1.scores)
        assert tokens == s1.argmax_tokens()

    def test_halfway_arithmetic(self):
        s1 = stream("u", [[-1.0, -1.0, -1.0]])
        s2 = stream("u", [[-3.0, -3.0, -3.0]])
        fused, _ = joint_decode([s1, s2], (0.5, 0.5))
        np.testing.assert_allclose(fused.scores, -2.0)

    def test_documented_presets_accepted(self):
        assert JOINT_PRESETS["uaspeech-2way-a"].values == (9.0, 8.0)
        assert JOINT_PRESETS["uaspeech-2way-b"].values == (7.0, 9.0)
        assert JOINT_PRESETS["uaspeech-3way"].values == (8.0, 5.0, 5.0)
        assert JOINT_PRESETS["pitt-3way"].values == (5.0, 2.0, 8.0)
        rng = make_rng(1)
        streams = [random_stream("u", 4, rng) for _ in range(3)]
        fused, _ = joint_decode(streams, JOINT_PRESETS["uaspeech-3way"])
        expected = 8 * streams[0].scores + 5 * streams[1].scores + 5 * streams[2].scores
        np.testing.assert_allclose(fused.scores, expected)

    def test_argmax_scale_invariance(self):
        rng = make_rng(2)
        for _ in range(100):
            streams = [random_stream("u", 5, rng) for _ in range(2)]
            w = tuple(rng.random(2) + 0.1)
            _, tokens1 = joint_decode(streams, w)
            _, tokens2 = joint_decode(streams, tuple(7.3 * x for x in w))
            assert tokens1 == tokens2

    def test_self_fusion_preserves_argmax(self):
        rng = make_rng(3)
        s = random_stream("u", 8, rng)
        for w in [(0.5, 0.5), (0.2, 0.8), (1.0, 0.0)]:
            _, tokens = joint_decode([s, s], w)
            assert tokens == s.argmax_tokens()

    def test_tie_breaks_to_lowest_token_index(self):
        s = stream("u", [[-1.0, -1.0, -2.0]])
        _, tokens = joint_decode([s], (1.0,))
        assert tokens == ["a"]

    def test_mismatches_rejected(self):
        s1 = stream("u1", [[-1.0, -1.0, -1.0]])
        with pytest.raises(ValueError, match="empty stream list"):
            joint_decode([], ())
        with pytest.raises(ValueError, match="utt ids"):
            joint_decode([s1, stream("u2", [[-1.0, -1.0, -1.0]])], (1, 1))
        with pytest.raises(ValueError, match="inventories"):
            joint_decode([s1, stream("u1", [[-1.0, -1.0]], tokens=["a", "b"])], (1, 1))
        with pytest.raises(ValueError, match="^frame counts differ: stream 0 has 1, "
                                             "stream 2 has 2$"):
            joint_decode([s1, s1, stream("u1", [[-1.0, -1.0, -1.0]] * 2)], (1, 1, 1))
        with pytest.raises(ValueError, match="^frame periods differ: stream 0 at 10.0 ms, "
                                             "stream 1 at 20.0 ms$"):
            joint_decode([s1, stream("u1", [[-1.0, -1.0, -1.0]], period=20.0)], (1, 1))
        with pytest.raises(ValueError, match="weights"):
            joint_decode([s1], (1.0, 1.0))


class TestRescoreNbest:
    def _nbest(self):
        return NBestList("u", [
            Hypothesis("one", ["one"], {"ctc": 2.0, "attention": 9.0, "tdnn": 1.0}),
            Hypothesis("two", ["two"], {"ctc": 1.0, "attention": 8.0, "tdnn": 4.0}),
            Hypothesis("three", ["three"], {"ctc": 3.0, "attention": 1.0, "tdnn": 2.0}),
        ])

    def test_single_score_unit_weight(self):
        best, reranked = rescore_nbest(self._nbest(), {"ctc": 1.0})
        assert best.text == "two"
        assert [h.text for h in reranked.hyps] == ["two", "one", "three"]

    def test_unit_vectors_reproduce_single_system_ranking(self):
        nbest = self._nbest()
        for name in ("ctc", "attention", "tdnn"):
            _, reranked = rescore_nbest(nbest, {name: 1.0})
            expected = sorted(nbest.hyps, key=lambda h: h.scores[name])
            assert [h.text for h in reranked.hyps] == [h.text for h in expected]

    def test_documented_preset(self):
        w = RESCORE_PRESETS["uaspeech-rescore"]
        assert w.as_dict() == {"ctc": 0.9, "attention": 0.001, "tdnn": 0.1}
        best, _ = rescore_nbest(self._nbest(), w)
        combos = [0.9 * h.scores["ctc"] + 0.001 * h.scores["attention"]
                  + 0.1 * h.scores["tdnn"] for h in self._nbest().hyps]
        assert best.text == self._nbest().hyps[int(np.argmin(combos))].text

    def test_tie_keeps_original_rank(self):
        nbest = NBestList("u", [
            Hypothesis("first", [], {"a": 1.0, "b": 2.0}),
            Hypothesis("second", [], {"a": 2.0, "b": 1.0}),
        ])
        best, _ = rescore_nbest(nbest, {"a": 1.0, "b": 1.0})
        assert best.text == "first"

    def test_missing_score_names_hypothesis(self):
        nbest = NBestList("u", [Hypothesis("x", [], {"ctc": 1.0})])
        with pytest.raises(ValueError, match="hypothesis 0 is missing score 'lm'"):
            rescore_nbest(nbest, {"lm": 1.0})

    @pytest.mark.parametrize("scores", [(-1e308, -1e308), (1e308, -1e308)],
                             ids=["overflow", "inf-minus-inf"])
    def test_non_finite_combined_score_names_hypothesis(self, scores):
        nbest = NBestList("u", [Hypothesis("x", [], {"ctc": 1.0, "lm": 1.0}),
                                Hypothesis("y", [], dict(zip(("ctc", "lm"), scores)))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning would raise here
            with pytest.raises(ValueError, match="u: hypothesis 1 has a non-finite combined"):
                rescore_nbest(nbest, {"ctc": 2.0, "lm": 2.0})

    def test_combined_score_attached(self):
        _, reranked = rescore_nbest(self._nbest(), {"ctc": 1.0})
        assert [h.scores["combined"] for h in reranked.hyps] == [1.0, 2.0, 3.0]

    def test_reranked_copies_are_not_checked_again(self, monkeypatch):
        nbest = self._nbest()
        checks = []
        monkeypatch.setattr(Hypothesis, "__post_init__", lambda h: checks.append(h))
        _, reranked = rescore_nbest(nbest, {"ctc": 1.0})
        assert checks == []  # each hypothesis was checked once, when it was built
        assert reranked.hyps[0] == Hypothesis("two", ["two"], {
            "ctc": 1.0, "attention": 8.0, "tdnn": 4.0, "combined": 1.0})
        assert reranked.hyps[0].tokens is not nbest.hyps[1].tokens
        assert "combined" not in nbest.hyps[1].scores

    def test_inconsistent_score_names_rejected(self):
        with pytest.raises(ValueError, match="score names"):
            NBestList("u", [Hypothesis("x", [], {"a": 1.0}),
                            Hypothesis("y", [], {"b": 1.0})])


class TestTruncate:
    def _nbest(self, n):
        return NBestList("u", [Hypothesis(str(i), [], {"s": float(i)}) for i in range(n)])

    def test_noop_when_n_exceeds_length(self):
        nb = self._nbest(5)
        assert [h.text for h in truncate_nbest(nb, 10).hyps] == [h.text for h in nb.hyps]

    def test_head(self):
        assert [h.text for h in truncate_nbest(self._nbest(5), 1).hyps] == ["0"]

    def test_default_is_30(self):
        nb = self._nbest(50)
        assert len(truncate_nbest(nb).hyps) == 30

    def test_invalid_n_rejected(self):
        with pytest.raises(ValueError):
            truncate_nbest(self._nbest(2), 0)


def complementary_fixture():
    """Two systems with complementary frame errors.

    Frame 0 is fixed only when w1 < 5/9 and frame 1 only when w1 > 4/9, so on
    the 0.1 grid exactly (0.5, 0.5) repairs both while each pure system errs.
    """
    refs = {"u1": ["a", "b"]}
    x1 = [[-2.0, 0.0], [-2.5, 0.0]]   # system 1: wrong on frame 0, right on 1
    x2 = [[0.0, -2.5], [0.0, -2.0]]   # system 2: right on frame 0, wrong on 1
    s1 = FrameScoreStream("u1", ["a", "b"], np.array(x1))
    s2 = FrameScoreStream("u1", ["a", "b"], np.array(x2))
    return refs, [s1], [s2]


def fixture_scorer(weights, dev_data):
    refs, sys1, sys2 = dev_data
    errors = total = 0
    for a, b in zip(sys1, sys2):
        _, tokens = joint_decode([a, b], weights)
        ref = refs[a.utt_id]
        errors += sum(1 for r, h in zip(ref, tokens) if r != h)
        total += len(ref)
    return 100.0 * errors / total


class TestGridSearch:
    def test_identical_systems_tie_break(self):
        rng = make_rng(4)
        s = random_stream("u", 4, rng)
        data = ({"u": s.argmax_tokens()}, [s], [s])

        def scorer(weights, dev):
            refs, sys1, sys2 = dev
            _, tokens = joint_decode([sys1[0], sys2[0]], weights)
            return sum(1 for r, h in zip(refs["u"], tokens) if r != h)

        weights, _ = grid_search_weights(data, 2, scorer, step=0.5)
        assert weights.values == (0.0, 1.0)

    def test_dominant_system_gets_full_weight(self):
        # per-utterance costs: system 1 strictly beats system 2 everywhere, so
        # the interpolated dev cost is uniquely minimized at the pure corner
        costs = ([1.0, 2.0, 0.5], [4.0, 3.0, 2.5])

        def scorer(weights, dev):
            return sum(weights[0] * a + weights[1] * b for a, b in zip(*dev))

        weights, _ = grid_search_weights(costs, 2, scorer, step=0.1)
        assert weights.values == (1.0, 0.0)

    def test_complementary_fixture_solved_only_by_even_mixture(self):
        data = complementary_fixture()
        # both pure systems err
        assert fixture_scorer((1.0, 0.0), data) > 0
        assert fixture_scorer((0.0, 1.0), data) > 0
        weights, score = grid_search_weights(data, 2, fixture_scorer, step=0.1)
        assert weights.values == (0.5, 0.5)
        assert score == 0.0

    def test_grid_result_never_worse_than_corners(self):
        rng = make_rng(5)
        refs = {"u": ["a", "b", "c", "a"]}
        streams = ([random_stream("u", 4, rng)], [random_stream("u", 4, rng)])
        data = (refs, streams[0], streams[1])
        weights, best = grid_search_weights(data, 2, fixture_scorer_generic, step=0.2)
        for corner in [(1.0, 0.0), (0.0, 1.0)]:
            assert best <= fixture_scorer_generic(corner, data)

    def test_nonfinite_scorer_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            grid_search_weights(None, 2, lambda w, d: float("nan"), step=0.5)

    def test_simplex_grid_ordering(self):
        pts = simplex_grid(2, 0.5)
        assert pts == [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]
        # the grid comes out ascending, with no point twice, as it is built
        for systems in (1, 2, 3, 4):
            for step in (1.0, 0.5, 0.34, 0.25, 0.1, 0.05):
                pts = simplex_grid(systems, step)
                assert all(a < b for a, b in zip(pts, pts[1:])), (systems, step)
                n = round(1.0 / step)
                assert len(pts) == math.comb(n + systems - 1, systems - 1), (systems, step)

    def test_invalid_step_rejected(self):
        with pytest.raises(ValueError, match="step"):
            simplex_grid(2, 0.0)

    def test_no_systems_rejected(self):
        # the grid's recursion once ran until RecursionError
        with pytest.raises(ValueError, match="^need at least one system$"):
            simplex_grid(0, 0.5)
        lists = [NBestList("u", [Hypothesis("a", ["a"], {}), Hypothesis("b", ["b"], {})])]
        with pytest.raises(ValueError, match="^need at least one system$"):
            tune_rescore_weights(lists, {"u": "a"}, "dev.tsv")


def fixture_scorer_generic(weights, dev_data):
    refs, sys1, sys2 = dev_data
    errors = total = 0
    for a, b in zip(sys1, sys2):
        _, tokens = joint_decode([a, b], weights)
        ref = refs[a.utt_id]
        errors += sum(1 for r, h in zip(ref, tokens) if r != h)
        total += len(ref)
    return 100.0 * errors / total


class TestTuneWeights:
    def test_tuning_at_the_float_maximum_warns_nothing(self):
        # at the grid point (0.1, 0.5, 0.4), 0.1 m + 0.5 m + 0.4 m rounds past m
        m = np.finfo(np.float64).max
        lists = [NBestList("u", [Hypothesis("a", ["a"], dict.fromkeys("xyz", m)),
                                 Hypothesis("b", ["b"], dict.fromkeys("xyz", 0.0))])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning would raise here
            _, dev_wer = tune_rescore_weights(lists, {"u": "b"}, "ref.tsv")
        assert dev_wer == 0.0

    def test_one_count_pass_per_dev_utterance_one_lane_per_grid_point(self, monkeypatch):
        # two copies of one system: every grid point decodes the same path
        rng = make_rng(6)
        dev = []
        for u in ("u1", "u2", "u3"):
            first = random_stream(u, 5, rng)
            dev.append([first, stream(u, first.scores)])
        calls, blocks, original = [], [], combine.weighted_sum

        def counted(ref, rows, words):
            calls.append(rows.shape)
            return error_counts(ref, rows, words)

        def summed(values, scores):
            fused = original(values, scores)
            blocks.append(fused.shape)
            return fused

        monkeypatch.setattr(combine, "error_counts", counted)
        monkeypatch.setattr(combine, "weighted_sum", summed)
        refs = {u: "a b" for u in ("u1", "u2", "u3")}
        weights, dev_wer = tune_joint_weights(dev, refs, "dev.tsv", step=0.1)
        # 11 grid points, 5 frames; each fused block holds at most 2 points
        assert calls == [(11, 5)] * 3
        assert all(len(shape) == 3 and shape[0] <= 2 for shape in blocks)
        assert sum(shape[0] for shape in blocks) == 3 * 11
        assert weights.values == (0.0, 1.0)
        errors = sum(align_and_count(["a", "b"], s[0].argmax_tokens()).errors for s in dev)
        assert dev_wer == 100.0 * errors / 6

    def test_token_words_join_into_the_words_of_the_decoded_text(self):
        # the joint tuner counts each path as its tokens' words, where
        # `joint_decode`'s text is the tokens joined by spaces: a final
        # sigma, a capital I with a dot, blanks and a token of two words
        odd = ["ΑΣ", "Σ", "İ", "  ", "", "X Y", "a\u00a0b", "ǅ", "ß"]
        for path in itertools.product(odd, repeat=3):
            assert [w for t in path for w in tokenize(t)] == tokenize(" ".join(path)), path

    def test_empty_reference_names_the_source(self):
        lists = [NBestList("u1", [Hypothesis("a", ["a"], {"ctc": 1.0})])]
        with pytest.raises(ValueError, match="dev.tsv: u1: empty reference"):
            tune_rescore_weights(lists, {"u1": "  "}, "dev.tsv")


class TestCombinationWeights:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CombinationWeights((-1.0, 2.0))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match="must be finite"):
            CombinationWeights((value, 1.0))

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            CombinationWeights((0.0, 0.0))

    def test_named_access(self):
        w = CombinationWeights((1.0, 2.0), names=("x", "y"))
        assert w.as_dict() == {"x": 1.0, "y": 2.0}
