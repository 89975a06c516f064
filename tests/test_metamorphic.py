"""Metamorphic relations of the two combination modes, their tuner and
the scoring kernels.

Each relation is exact in float64: it scales weights by a power of two,
splits a weight in halves, adds a score at weight 0, permutes utterances,
compares against a grid vertex, or relabels, swaps or reverses token
sequences, which integer edit counts see exactly.  So every check is `==`,
never a tolerance.
"""

import numpy as np
import pytest

from asrfuse.combine import (
    CombinationWeights,
    FrameScoreStream,
    Hypothesis,
    NBestList,
    joint_decode,
    rescore_nbest,
    tune_joint_weights,
    tune_rescore_weights,
)
from asrfuse.scoring import ScoredTranscriptSet, align_and_count, mapsswe, wer

TOKENS = ["a", "b", "c", "d"]
NAMES = ["attention", "ctc", "tdnn"]


def draw_streams(rng, n_utts=8, systems=3):
    """Per utterance, one stream per system over `TOKENS`."""
    out = []
    for i in range(n_utts):
        frames = int(rng.integers(2, 7))
        out.append(tuple(FrameScoreStream(f"u{i}", list(TOKENS),
                                          rng.normal(size=(frames, len(TOKENS))))
                         for _ in range(systems)))
    return out


def draw_lists(rng, n_utts=8):
    out = []
    for i in range(n_utts):
        hyps = []
        for _ in range(int(rng.integers(1, 7))):
            words = [TOKENS[k] for k in rng.integers(0, len(TOKENS), size=rng.integers(1, 4))]
            hyps.append(Hypothesis(" ".join(words), words,
                                   {n: float(rng.normal()) for n in NAMES}))
        out.append(NBestList(f"u{i}", hyps))
    return out


def draw_refs(rng, ids):
    return {u: " ".join(TOKENS[k] for k in rng.integers(0, len(TOKENS), size=rng.integers(1, 5)))
            for u in ids}


def dev_wer(refs: dict, hyps: dict) -> float:
    return wer(ScoredTranscriptSet.from_texts(refs, hyps))[0]


@pytest.mark.parametrize("seed", [0, 1, 2])
class TestTuning:
    def test_joint_tuned_dev_wer_at_most_each_single_system(self, seed):
        rng = np.random.default_rng(seed)
        dev = draw_streams(rng)
        refs = draw_refs(rng, [s[0].utt_id for s in dev])
        _, tuned = tune_joint_weights(dev, refs, "dev.tsv")
        for k in range(len(dev[0])):
            alone = {s[k].utt_id: " ".join(s[k].argmax_tokens()) for s in dev}
            assert tuned <= dev_wer(refs, alone)

    def test_rescore_tuned_dev_wer_at_most_each_single_system(self, seed):
        rng = np.random.default_rng(seed)
        lists = draw_lists(rng)
        refs = draw_refs(rng, [nb.utt_id for nb in lists])
        _, tuned = tune_rescore_weights(lists, refs, "dev.tsv")
        for name in NAMES:
            # costs: the first hypothesis of least cost, as rescore_nbest's stable sort
            alone = {nb.utt_id: min(nb.hyps, key=lambda h: h.scores[name]).text for nb in lists}
            assert tuned <= dev_wer(refs, alone)

    def test_permuting_the_dev_utterances_keeps_the_tuned_weights(self, seed):
        rng = np.random.default_rng(seed)
        dev, lists = draw_streams(rng), draw_lists(rng)
        refs = draw_refs(rng, [f"u{i}" for i in range(len(dev))])
        order = rng.permutation(len(dev))
        shuffled_refs = {f"u{i}": refs[f"u{i}"] for i in order}
        assert tune_joint_weights([dev[i] for i in order], shuffled_refs, "dev.tsv") == \
            tune_joint_weights(dev, refs, "dev.tsv")
        assert tune_rescore_weights([lists[i] for i in order], shuffled_refs, "dev.tsv") == \
            tune_rescore_weights(lists, refs, "dev.tsv")


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("k", [-8, -3, -1, 1, 4, 8])
class TestWeightScale:
    def test_joint_decode_scales_the_fused_scores(self, seed, k):
        rng = np.random.default_rng(seed)
        weights = rng.random(3) + 0.01
        for streams in draw_streams(rng):
            fused, tokens = joint_decode(streams, CombinationWeights(weights))
            scaled, scaled_tokens = joint_decode(streams, CombinationWeights(weights * 2.0 ** k))
            assert scaled_tokens == tokens
            assert np.array_equal(scaled.scores, fused.scores * 2.0 ** k)

    def test_rescore_nbest_keeps_the_order_and_scales_combined(self, seed, k):
        rng = np.random.default_rng(seed)
        values = rng.random(3) + 0.01
        for nb in draw_lists(rng):
            _, ranked = rescore_nbest(nb, CombinationWeights(values, names=tuple(NAMES)))
            _, scaled = rescore_nbest(nb, CombinationWeights(values * 2.0 ** k,
                                                             names=tuple(NAMES)))
            # random costs tell the hypotheses apart, so equal scores mean the same order
            assert [h.scores for h in scaled.hyps] == \
                [{**h.scores, "combined": h.scores["combined"] * 2.0 ** k} for h in ranked.hyps]


@pytest.mark.parametrize("seed", [0, 1, 2])
class TestWeightShape:
    def test_one_hot_weights_give_that_system(self, seed):
        rng = np.random.default_rng(seed)
        for streams in draw_streams(rng):
            for k, alone in enumerate(streams):
                weights = np.zeros(len(streams))
                weights[k] = 1.0
                fused, tokens = joint_decode(streams, CombinationWeights(weights))
                assert np.array_equal(fused.scores, alone.scores)
                assert tokens == alone.argmax_tokens()

    def test_splitting_a_system_in_halves_keeps_the_fused_bits(self, seed):
        rng = np.random.default_rng(seed)
        weights = rng.random(3) + 0.01
        halves = np.concatenate([[weights[0] / 2, weights[0] / 2], weights[1:]])
        for streams in draw_streams(rng):
            fused, tokens = joint_decode(streams, CombinationWeights(weights))
            split, split_tokens = joint_decode((streams[0],) + streams,
                                               CombinationWeights(halves))
            assert split.scores.tobytes() == fused.scores.tobytes()
            assert split_tokens == tokens

    def test_a_score_at_weight_zero_keeps_the_order(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.random(3) + 0.01
        for nb in draw_lists(rng):
            extra = NBestList(nb.utt_id, [Hypothesis(h.text, h.tokens,
                                                     {**h.scores, "extra": float(rng.normal())})
                                          for h in nb.hyps])
            _, ranked = rescore_nbest(nb, CombinationWeights(values, names=tuple(NAMES)))
            _, with_extra = rescore_nbest(extra, CombinationWeights(
                np.append(values, 0.0), names=(*NAMES, "extra")))
            assert [h.text for h in with_extra.hyps] == [h.text for h in ranked.hyps]
            assert [h.scores["combined"] for h in with_extra.hyps] == \
                [h.scores["combined"] for h in ranked.hyps]
            assert [{k: v for k, v in h.scores.items() if k != "extra"}
                    for h in with_extra.hyps] == [h.scores for h in ranked.hyps]


def draw_pairs(rng, n=200, vocab=4):
    """(reference, hypothesis) token lists, both non-empty, over a small
    vocabulary so that matches, substitutions and ties are common."""
    return [tuple([f"t{k}" for k in rng.integers(0, vocab, size=rng.integers(1, 13))]
                  for _ in range(2)) for _ in range(n)]


def counts(result):
    return result.substitutions, result.deletions, result.insertions


@pytest.mark.parametrize("seed", [0, 1, 2])
class TestScoringRelations:
    def test_a_bijective_relabelling_keeps_the_alignment(self, seed):
        rng = np.random.default_rng(seed)
        new = {f"t{k}": f"w{j}" for k, j in enumerate(rng.permutation(4))}
        for ref, hyp in draw_pairs(rng):
            before = align_and_count(ref, hyp)
            after = align_and_count([new[t] for t in ref], [new[t] for t in hyp])
            assert counts(after) == counts(before)
            assert after.pairs == [(new.get(a), new.get(b)) for a, b in before.pairs]

    def test_swapping_reference_and_hypothesis(self, seed):
        rng = np.random.default_rng(seed)
        for ref, hyp in draw_pairs(rng):
            forward, backward = align_and_count(ref, hyp), align_and_count(hyp, ref)
            assert backward.errors == forward.errors
            assert backward.deletions - backward.insertions == \
                -(forward.deletions - forward.insertions)

    def test_reversing_both_keeps_the_errors(self, seed):
        rng = np.random.default_rng(seed)
        for ref, hyp in draw_pairs(rng):
            assert align_and_count(ref[::-1], hyp[::-1]).errors == \
                align_and_count(ref, hyp).errors

    def test_mapsswe_is_antisymmetric(self, seed):
        rng = np.random.default_rng(seed)
        pairs = draw_pairs(rng, n=20)
        refs = {f"u{i}": " ".join(ref) for i, (ref, _) in enumerate(pairs)}
        set_a = ScoredTranscriptSet.from_texts(
            refs, {f"u{i}": " ".join(hyp) for i, (_, hyp) in enumerate(pairs)})
        set_b = ScoredTranscriptSet.from_texts(
            refs, {u: " ".join(t for t in text.split() if rng.random() < 0.8) or "t0"
                   for u, text in refs.items()})
        ab, ba = mapsswe(set_a, set_b), mapsswe(set_b, set_a)
        assert not ab.degenerate
        assert ba.differences == [-d for d in ab.differences]
        assert (ba.z, ba.p, ba.significant) == (-ab.z, ab.p, ab.significant)
