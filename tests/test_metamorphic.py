"""Metamorphic relations of the two combination modes and their tuner.

Each relation is exact in float64: it scales weights by a power of two,
permutes utterances, or compares against a grid vertex.  So every check is
`==`, never a tolerance.
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
from asrfuse.scoring import ScoredTranscriptSet, wer

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
