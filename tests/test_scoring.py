"""Scoring tests: edit distance, WER grouping, MAPSSWE, classification."""

import itertools
import math

import numpy as np
import pytest

from asrfuse.scoring import (
    ScoredTranscriptSet,
    TranscriptRecord,
    align_and_count,
    classification_metrics,
    error_counts,
    majority_vote,
    mapsswe,
    tokenize,
    wer,
)

from oracles import (
    align_and_count_dp,
    edit_distance_recursive,
    edit_distances_to_all,
    normal_two_sided_p,
)


class TestAlignment:
    def test_single_substitution(self):
        res = align_and_count("a b c".split(), "a x c".split())
        assert (res.substitutions, res.deletions, res.insertions) == (1, 0, 0)
        assert 100 * res.errors / res.ref_length == pytest.approx(100.0 / 3)

    def test_identity(self):
        res = align_and_count(["a", "b"], ["a", "b"])
        assert res.errors == 0

    def test_single_deletion(self):
        res = align_and_count(["a", "b"], ["b"])
        assert (res.substitutions, res.deletions, res.insertions) == (0, 1, 0)
        assert 100 * res.errors / res.ref_length == pytest.approx(50.0)

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError, match="empty reference"):
            align_and_count([], ["a"])

    def test_matches_recursive_oracle_exhaustively(self):
        # all ref/hyp pairs up to length 3 over a 3-symbol alphabet
        symbols = "abc"
        seqs = [
            list(s)
            for n in range(4)
            for s in itertools.product(symbols, repeat=n)
        ]
        for ref in seqs:
            if not ref:
                continue
            for hyp in seqs:
                got = align_and_count(ref, hyp).errors
                assert got == edit_distance_recursive(ref, hyp), (ref, hyp)

    def test_matches_recursive_oracle_sampled_len6(self):
        rng = np.random.default_rng(0)
        symbols = list("abc")
        for _ in range(60):
            ref = [symbols[i] for i in rng.integers(0, 3, size=6)]
            hyp = [symbols[i] for i in rng.integers(0, 3, size=rng.integers(0, 7))]
            assert align_and_count(ref, hyp).errors == edit_distance_recursive(ref, hyp)

    def test_counts_reproduce_distance(self):
        res = align_and_count("the quick brown fox".split(), "the brown box fox on".split())
        assert res.errors == edit_distance_recursive(
            "the quick brown fox".split(), "the brown box fox on".split()
        )
        assert res.substitutions + res.deletions <= res.ref_length

    def test_aligned_pairs_cover_both_sides(self):
        res = align_and_count(["a", "b", "c"], ["b", "c", "d"])
        ref_side = [p[0] for p in res.pairs if p[0] is not None]
        hyp_side = [p[1] for p in res.pairs if p[1] is not None]
        assert ref_side == ["a", "b", "c"]
        assert hyp_side == ["b", "c", "d"]


def assert_same_alignment(ref, hyp):
    got, want = align_and_count(ref, hyp), align_and_count_dp(ref, hyp)
    assert got.substitutions == want.substitutions, (ref, hyp)
    assert got.deletions == want.deletions, (ref, hyp)
    assert got.insertions == want.insertions, (ref, hyp)
    assert got.ref_length == want.ref_length, (ref, hyp)
    assert got.pairs == want.pairs, (ref, hyp)


class TestAlignMatchesDp:
    """The bit-parallel kernel against the full-table DP it replaced: counts
    and every aligned pair, so the tie rule is checked as well as the cost."""

    def test_exhaustive(self):
        # every ref of length 1-4 against every hyp of length 0-5, 3 symbols
        alphabet = "abc"
        hyps = [list(s) for n in range(6) for s in itertools.product(alphabet, repeat=n)]
        for n in range(1, 5):
            for ref in itertools.product(alphabet, repeat=n):
                for hyp in hyps:
                    assert_same_alignment(list(ref), hyp)

    @pytest.mark.parametrize("lo, hi", [(1, 20), (60, 70), (100, 140)])
    def test_seeded_pairs(self, lo, hi):
        # lengths on both sides of the 64-token word size, 2 to 26 symbols
        rng = np.random.default_rng(100 + lo)
        for _ in range(40):
            symbols = [chr(97 + k) for k in range(int(rng.integers(2, 27)))]
            ref = [symbols[i] for i in rng.integers(0, len(symbols), size=rng.integers(lo, hi))]
            hyp = [symbols[i] for i in rng.integers(0, len(symbols), size=rng.integers(0, hi))]
            if rng.random() < 0.5:  # a noisy copy: long runs of matches
                hyp = [t if rng.random() < 0.8 else symbols[0] for t in ref][:len(hyp) or None]
            assert_same_alignment(ref, hyp)

    @pytest.mark.parametrize("n", [1, 2, 5, 63, 64, 65, 130])
    def test_tie_heavy(self, n):
        # equal tokens, periodic refs and reversed hyps leave many optimal paths
        periodic = [c for _ in range(n) for c in "aab"][:n]
        cases = [
            (["a"] * n, ["a"] * (n // 2)),
            (["a"] * n, ["a"] * (2 * n)),
            (["a"] * n, ["b"] * n),
            (periodic, periodic[::-1]),
            (periodic, periodic[1:] + ["b", "a"]),
            (list(range(n)), list(range(n))[::-1]),
        ]
        for ref, hyp in cases:
            assert_same_alignment(ref, hyp)

    def test_empty_hypothesis(self):
        assert_same_alignment(["a", "b", "a"], [])
        assert align_and_count(["a", "b", "a"], []).pairs == [("a", None), ("b", None),
                                                             ("a", None)]

    def test_empty_reference_raises_like_the_dp(self):
        for kernel in (align_and_count, align_and_count_dp):
            with pytest.raises(ValueError, match="^align_and_count: empty reference$"):
                kernel([], ["a"])

    def test_long_transcript(self):
        # 5,000 tokens: the full table would hold 25 M Python ints
        ref = [f"w{k}" for k in range(5000)]
        hyp = ref[:1000] + ["sub"] + ref[1001:2500] + ref[2501:4000] + ["ins"] + ref[4000:]
        res = align_and_count(ref, hyp)
        assert (res.substitutions, res.deletions, res.insertions) == (1, 1, 1)
        assert res.ref_length == 5000
        want = ([(t, t) for t in ref[:1000]] + [("w1000", "sub")]
                + [(t, t) for t in ref[1001:2500]] + [("w2500", None)]
                + [(t, t) for t in ref[2501:4000]] + [(None, "ins")]
                + [(t, t) for t in ref[4000:]])
        assert res.pairs == want


def padded_rows(hyps: list, symbols: list):
    """(rows, words) for `error_counts`: one row per hypothesis, one word per
    token, and rows of shorter hypotheses padded with the empty word 0."""
    words = [[]] + [[t] for t in symbols]
    index = {t: k for k, t in enumerate(symbols, start=1)}
    width = max((len(h) for h in hyps), default=0)
    rows = np.zeros((len(hyps), width), dtype=np.intp)
    for n, hyp in enumerate(hyps):
        rows[n, :len(hyp)] = [index[t] for t in hyp]
    return rows, words


def assert_counts_match_dp(ref: list, hyps: list):
    """Each hypothesis alone, as one word of one row, and all of them in one
    batch of rows of different lengths, against the full-table DP."""
    want = [align_and_count_dp(ref, hyp).errors for hyp in hyps]
    for hyp, count in zip(hyps, want):
        assert error_counts(ref, [[0]], [hyp]).tolist() == [count], (ref, hyp)
    symbols = sorted({t for hyp in hyps for t in hyp})
    assert error_counts(ref, *padded_rows(hyps, symbols)).tolist() == want, ref


class TestErrorCounts:
    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError, match="^error_counts: empty reference$"):
            error_counts([], [[0]], [["a"]])

    def test_rows_must_be_two_dimensional(self):
        with pytest.raises(ValueError, match="rows must be 2-D"):
            error_counts(["a"], [0, 1], [["a"], ["b"]])

    def test_empty_hypothesis_deletes_every_token(self):
        ref = ["a", "b", "a"]
        assert align_and_count(ref, []).errors == 3
        # no column, an all-empty row, and an empty word beside a longer one
        assert error_counts(ref, np.zeros((2, 0), dtype=int), []).tolist() == [3, 3]
        assert error_counts(ref, [[0, 0, 0]], [[]]).tolist() == [3]
        assert error_counts(ref, [[0], [1]], [[], ["a", "b", "a"]]).tolist() == [3, 0]

    def test_no_rows(self):
        assert error_counts(["a"], np.zeros((0, 3), dtype=int), [["a"]]).tolist() == []

    def test_matches_alignment_exhaustively(self):
        # every ref up to length 4 against every hyp up to length 5, 3 symbols
        alphabet = ["a", "b", "c"]
        pairs = 0
        for n in range(1, 5):
            for ref in itertools.product(alphabet, repeat=n):
                ref = list(ref)
                hyps, want = zip(*edit_distances_to_all(ref, alphabet, 5).items())
                hyps = [list(h) for h in hyps]
                assert error_counts(ref, *padded_rows(hyps, alphabet)).tolist() == list(want)
                for hyp, count in zip(hyps, want):
                    assert error_counts(ref, [[0]], [hyp]).tolist() == [count], (ref, hyp)
                    assert count == align_and_count(ref, hyp).errors
                    assert count == align_and_count_dp(ref, hyp).errors
                    pairs += 1
        assert pairs == 120 * 364

    @pytest.mark.parametrize("lo, hi", [(1, 20), (60, 70), (100, 140)])
    def test_matches_alignment_on_seeded_pairs(self, lo, hi):
        # lengths on both sides of the 64-token word size, 2 to 26 symbols
        rng = np.random.default_rng(lo)
        for _ in range(40):
            symbols = [chr(97 + k) for k in range(int(rng.integers(2, 27)))]
            ref = [symbols[i] for i in rng.integers(0, len(symbols), size=rng.integers(lo, hi))]
            hyp = [symbols[i] for i in rng.integers(0, len(symbols), size=rng.integers(0, hi))]
            if rng.random() < 0.5:  # a noisy copy: long runs of matches
                hyp = [t if rng.random() < 0.8 else symbols[0] for t in ref][:len(hyp) or None]
            # in a batch beside shorter and longer variants of itself
            assert_counts_match_dp(ref, [hyp, hyp[: len(hyp) // 2], hyp + ref[:3], []])

    @pytest.mark.parametrize("r", [7, 8, 63, 64, 65, 130])
    def test_words_of_zero_one_and_two_tokens(self, r):
        # lanes of r + 1 bits and more, in whole bytes: 7 tokens fill one
        # byte with the guard bit, 8 need two; 63-65 and 130 cross words
        rng = np.random.default_rng(r)
        symbols = ["a", "b", "c", "d"]
        ref = [symbols[i] for i in rng.integers(0, 4, size=r)]
        words = [[], ["a"], ["b"], ["e"], ["a", "b"], ["c", "d"], ["d", "e"], []]
        rows = rng.integers(0, len(words), size=(12, int(rng.integers(r // 2, 2 * r))))
        rows[3] = 0  # an all-empty row
        rows[5] = rows[4]  # a duplicate row
        rows[6, ::2] = 7  # every other column empty
        hyps = [[t for w in row for t in words[w]] for row in rows]
        got = error_counts(ref, rows, words).tolist()
        assert got == [align_and_count_dp(ref, hyp).errors for hyp in hyps]
        assert got[3] == r and got[4] == got[5]
        assert_counts_match_dp(ref, hyps[:4])

    def test_duplicate_rows_count_alike(self):
        ref = ["a", "b", "c"]
        rows = np.array([[1, 2], [1, 2], [2, 1], [1, 2]])
        words = [[], ["a"], ["b", "c"]]
        hyps = [["a", "b", "c"], ["a", "b", "c"], ["b", "c", "a"], ["a", "b", "c"]]
        got = error_counts(ref, rows, words).tolist()
        assert got == [align_and_count(ref, hyp).errors for hyp in hyps] == [0, 0, 2, 0]


def make_set(entries, mode="word"):
    refs = {u: r for u, r, _, _ in entries}
    hyps = {u: h for u, _, h, _ in entries}
    meta = {u: m for u, _, _, m in entries}
    return ScoredTranscriptSet.from_texts(refs, hyps, meta, mode=mode)


class TestWer:
    def test_pooled_counts(self):
        tset = make_set([
            ("u1", "a b c d", "a x c d", {}),   # 1 error / 4
            ("u2", "a b c d e f", "a b c d e f", {}),  # 0 / 6
        ])
        overall, _ = wer(tset)
        assert overall == pytest.approx(10.0)

    def test_degenerate_grouping_equals_overall(self):
        tset = make_set([
            ("u1", "a b", "a x", {"g": "all"}),
            ("u2", "c d", "c d", {"g": "all"}),
        ])
        overall, groups = wer(tset, group_by="g")
        assert groups == {"all": pytest.approx(overall)}

    def test_seen_unseen_split(self):
        tset = make_set([
            ("u1", "a b", "a b", {"seen": "seen"}),
            ("u2", "c d", "x d", {"seen": "unseen"}),
        ])
        overall, groups = wer(tset, group_by="seen")
        assert groups["seen"] == 0.0
        assert groups["unseen"] == pytest.approx(50.0)
        assert overall == pytest.approx(25.0)

    def test_reorder_invariance_and_pooling_identity(self):
        entries = [
            ("u1", "a b c", "a b x", {"g": "p"}),
            ("u2", "d e", "d e", {"g": "q"}),
            ("u3", "f g h i", "f x x i", {"g": "p"}),
        ]
        overall1, groups1 = wer(make_set(entries), group_by="g")
        overall2, groups2 = wer(make_set(entries[::-1]), group_by="g")
        assert overall1 == overall2 and groups1 == groups2
        # pooled = error-weighted combination of group rates
        ref_lens = {"p": 7, "q": 2}
        recon = sum(groups1[g] * ref_lens[g] for g in groups1) / sum(ref_lens.values())
        assert overall1 == pytest.approx(recon)

    def test_cer_mode(self):
        tset = make_set([("u1", "abc", "abd", {})], mode="char")
        overall, _ = wer(tset)
        assert overall == pytest.approx(100.0 / 3)

    def test_cer_ignores_spaces(self):
        assert tokenize("a b c", "char") == ["a", "b", "c"]

    def test_nested_grouping_labels_without_changing_records(self):
        tset = make_set([
            ("u1", "a b", "a x", {"a": "x", "b": "y"}),
            ("u2", "c d", "c d", {"a": "x", "b": "z"}),
            ("u3", "e f", "e e", {"a": "w", "b": "y"}),
        ])
        before = [dict(rec.metadata) for rec in tset.records]
        overall, groups = wer(tset, group_by=("a", "b"))
        assert groups == {"w/y": 50.0, "x/y": 50.0, "x/z": 0.0}
        assert overall == wer(tset)[0]
        assert [rec.metadata for rec in tset.records] == before

    def test_unknown_group_key_rejected(self):
        tset = make_set([("u1", "a", "a", {})])
        with pytest.raises(KeyError, match="missing"):
            wer(tset, group_by="missing")

    def test_missing_hyp_listed(self):
        with pytest.raises(ValueError, match="u2"):
            ScoredTranscriptSet.from_texts({"u1": "a", "u2": "b"}, {"u1": "a"})

    def test_duplicate_utt_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ScoredTranscriptSet([
                TranscriptRecord("u", ["a"], ["a"]),
                TranscriptRecord("u", ["b"], ["b"]),
            ])


def sets_with_errors(errors_a, errors_b):
    """Build two hypothesis sets whose per-utterance error counts are given."""
    records_a, records_b = [], []
    for i, (ea, eb) in enumerate(zip(errors_a, errors_b)):
        ref = ["w"] * 5
        hyp_a = ["x"] * ea + ["w"] * (5 - ea)
        hyp_b = ["x"] * eb + ["w"] * (5 - eb)
        records_a.append(TranscriptRecord(f"u{i}", ref, hyp_a))
        records_b.append(TranscriptRecord(f"u{i}", ref, hyp_b))
    return ScoredTranscriptSet(records_a), ScoredTranscriptSet(records_b)


class TestMapsswe:
    def test_identical_sets_degenerate_not_significant(self):
        a, b = sets_with_errors([1, 2, 0], [1, 2, 0])
        report = mapsswe(a, b)
        assert report.degenerate and not report.significant
        assert report.z is None and report.p is None

    def test_fixture_2020(self):
        a, b = sets_with_errors([2, 0, 2, 0], [0, 0, 0, 0])
        report = mapsswe(a, b, alpha=0.05)
        assert report.z == pytest.approx(math.sqrt(3.0), abs=1e-3)  # 1.732
        assert report.p == pytest.approx(0.0833, abs=1e-3)
        assert not report.significant

    def test_p_matches_normal_cdf_oracle(self):
        a, b = sets_with_errors([3, 1, 2, 0, 4], [1, 1, 0, 0, 1])
        report = mapsswe(a, b)
        assert report.p == pytest.approx(normal_two_sided_p(report.z), abs=1e-12)

    def test_antisymmetry(self):
        a, b = sets_with_errors([2, 0, 3, 1], [1, 1, 0, 0])
        fwd = mapsswe(a, b)
        rev = mapsswe(b, a)
        assert fwd.z == pytest.approx(-rev.z, abs=1e-12)
        assert fwd.p == pytest.approx(rev.p, abs=1e-12)

    def test_significant_case(self):
        a, b = sets_with_errors([3] * 30, [1] * 29 + [2])
        report = mapsswe(a, b)
        assert report.significant and report.marker == "†"

    def test_default_alpha(self):
        a, b = sets_with_errors([2, 0, 2, 0], [0, 0, 0, 0])
        assert mapsswe(a, b).alpha == 0.05

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -1.0, math.nan])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        a, b = sets_with_errors([2, 0], [0, 0])
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            mapsswe(a, b, alpha=alpha)

    def test_mismatched_sets_rejected(self):
        a, _ = sets_with_errors([1], [1])
        c, _ = sets_with_errors([1, 2], [1, 2])
        with pytest.raises(ValueError, match="utterance sets"):
            mapsswe(a, c)

    def test_differing_references_rejected(self):
        a = ScoredTranscriptSet([TranscriptRecord("u", ["x"], ["x"])])
        b = ScoredTranscriptSet([TranscriptRecord("u", ["y"], ["y"])])
        with pytest.raises(ValueError, match="references"):
            mapsswe(a, b)


class TestClassificationMetrics:
    def test_perfect(self):
        out = classification_metrics(["AD", "HC"], ["AD", "HC"], positive="AD")
        assert (out["accuracy"], out["sensitivity"], out["specificity"]) == (100, 100, 100)

    def test_inverse_predictions(self):
        out = classification_metrics(["HC", "AD"], ["AD", "HC"], positive="AD")
        assert out["accuracy"] == 0.0

    def test_hand_confusion_matrix(self):
        # 3 TP, 1 FN, 2 TN, 0 FP
        labels = ["AD"] * 4 + ["HC"] * 2
        preds = ["AD", "AD", "AD", "HC", "HC", "HC"]
        out = classification_metrics(preds, labels, positive="AD")
        assert out["accuracy"] == pytest.approx(83.33, abs=0.01)
        assert out["sensitivity"] == pytest.approx(75.0)
        assert out["specificity"] == pytest.approx(100.0)

    def test_absent_class_reported_as_none(self):
        out = classification_metrics(["AD"], ["AD"], positive="AD")
        assert out["specificity"] is None
        out = classification_metrics(["HC"], ["HC"], positive="AD")
        assert out["sensitivity"] is None

    def test_accuracy_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n_pos = int(rng.integers(1, 10))
            n_neg = int(rng.integers(1, 10))
            labels = ["AD"] * n_pos + ["HC"] * n_neg
            preds = [rng.choice(["AD", "HC"]) for _ in labels]
            out = classification_metrics(preds, labels, positive="AD")
            expected = (out["sensitivity"] * n_pos + out["specificity"] * n_neg) / (
                n_pos + n_neg
            )
            assert out["accuracy"] == pytest.approx(expected, abs=1e-9)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            classification_metrics(["AD"], ["AD", "HC"], positive="AD")


class TestMajorityVote:
    def test_simple_majority(self):
        assert majority_vote([["AD"], ["AD"], ["HC"]], positive="AD") == ["AD"]

    def test_single_voter_identity(self):
        assert majority_vote([["HC", "AD"]], positive="AD") == ["HC", "AD"]

    def test_tie_goes_to_positive(self):
        assert majority_vote([["AD"], ["HC"]], positive="AD") == ["AD"]

    def test_inconsistent_subjects_rejected(self):
        with pytest.raises(ValueError, match="subjects"):
            majority_vote([["AD", "HC"], ["AD"]], positive="AD")

    def test_multiple_subjects(self):
        votes = [["AD", "HC", "HC"], ["AD", "AD", "HC"], ["HC", "AD", "HC"]]
        assert majority_vote(votes, positive="AD") == ["AD", "AD", "HC"]
