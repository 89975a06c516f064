"""System combination: frame-level joint decoding and N-best rescoring.

Frame-level fusion linearly interpolates per-frame token log-likelihood
matrices across systems and reads out the greedy per-frame argmax.  Rescoring
combines named per-hypothesis costs (lower is better) and re-ranks.  Weight
presets follow the published system-combination recipes; weights are stored as
the reported ratios since the argmax is invariant to their overall scale.
`tune_joint_weights` and `tune_rescore_weights` grid-search either mode's
weights for the lowest dev WER with one tuner.  The records it fuses live
in `asrfuse.formats` and check themselves when they are built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .features import check_synchronous
from .formats import FrameScoreStream, Hypothesis, NBestList
from .scoring import error_counts, tokenize

__all__ = [
    "CombinationWeights",
    "JOINT_PRESETS",
    "RESCORE_PRESETS",
    "weighted_sum",
    "check_streams",
    "joint_decode",
    "score_columns",
    "rescore_nbest",
    "grid_search_weights",
    "tune_joint_weights",
    "tune_rescore_weights",
    "truncate_nbest",
]


@dataclass
class CombinationWeights:
    """Finite non-negative weights per stream (positional) or per score name."""

    values: tuple
    names: tuple | None = None

    def __post_init__(self):
        self.values = tuple(float(v) for v in self.values)
        if not all(math.isfinite(v) for v in self.values):
            raise ValidationError(f"combination weights must be finite, got {list(self.values)}")
        if any(v < 0 for v in self.values):
            raise ValidationError("combination weights must be non-negative")
        if not any(v > 0 for v in self.values):
            raise ValidationError("at least one combination weight must be positive")
        if self.names is not None and len(self.names) != len(self.values):
            raise ValueError("names and values length mismatch")

    def as_dict(self) -> dict:
        if self.names is None:
            raise ValueError("these weights are positional, not named")
        return dict(zip(self.names, self.values))


# published presets: ratios for 2-way/3-way frame-level joint decoding and
# the CTC:attention:TDNN rescoring interpolations
JOINT_PRESETS = {
    "uaspeech-2way-a": CombinationWeights((9.0, 8.0)),
    "uaspeech-2way-b": CombinationWeights((7.0, 9.0)),
    "uaspeech-3way": CombinationWeights((8.0, 5.0, 5.0)),
    "pitt-3way": CombinationWeights((5.0, 2.0, 8.0)),
}
RESCORE_PRESETS = {
    "uaspeech-rescore": CombinationWeights((0.9, 0.001, 0.1),
                                           names=("ctc", "attention", "tdnn")),
    "pitt-rescore": CombinationWeights((1.0, 0.05, 0.0075),
                                       names=("ctc", "attention", "tdnn")),
}


def _weight_values(weights, expected: int) -> tuple:
    values = weights.values if isinstance(weights, CombinationWeights) else tuple(weights)
    if len(values) != expected:
        raise ValidationError(f"{len(values)} weights for {expected} systems")
    return CombinationWeights(values).values


# numpy's warning on an overflowed sum, which the callers reject themselves
_NO_OVERFLOW_WARNING = {"over": "ignore", "invalid": "ignore"}


def weighted_sum(values, scores):
    """0 + w0*s0 + w1*s1 + ... in the given order: the one weighted sum of
    `joint_decode`, `rescore_nbest` and weight tuning, so all round alike.
    A sum past the float64 range is inf or NaN.  Each caller enters
    `_NO_OVERFLOW_WARNING` around its sums, not per sum (entering costs
    about 3 us, and tuning sums thousands of times), and rejects a
    non-finite sum in what it outputs."""
    return sum(w * s for w, s in zip(values, scores))


def check_streams(streams: list):
    """Raise unless the streams share utt_id and token inventory and pass
    `check_synchronous`, named by their places, as `joint_decode` requires."""
    if not streams:
        raise ValueError("joint_decode: empty stream list")
    first = streams[0]
    for i, s in enumerate(streams[1:], start=1):
        if s.utt_id != first.utt_id:
            raise ValidationError(f"joint_decode: utt ids differ: {first.utt_id} vs {s.utt_id}")
        if s.tokens != first.tokens:
            raise ValidationError("token inventories differ across streams")
        check_synchronous(first, s, "stream 0", f"stream {i}")


def joint_decode(streams: list, weights):
    """Fuse streams by weighted sums of per-frame log-likelihoods.

    Returns (fused stream, greedy argmax token sequence).  All streams must
    share utt_id, frame count, frame period and token inventory.
    """
    check_streams(streams)
    first = streams[0]
    values = _weight_values(weights, len(streams))
    with np.errstate(**_NO_OVERFLOW_WARNING):  # FrameScoreStream rejects inf and NaN
        fused_scores = weighted_sum(values, [s.scores for s in streams])
    fused = FrameScoreStream(first.utt_id, list(first.tokens), fused_scores,
                             first.frame_period_ms)
    return fused, fused.argmax_tokens()


def _check_score_names(where, nbest: NBestList, names):
    """Raises naming `where` and the first of `names` that hypothesis 0 lacks,
    which speaks for every hypothesis, as `NBestList` gives them one name set."""
    for name in names:
        if name not in nbest.hyps[0].scores:
            raise ValidationError(f"{where}: hypothesis 0 is missing score {name!r}")


def score_columns(nbest: NBestList, names) -> list:
    """One float64 array per score name over the hypotheses in rank order."""
    _check_score_names(nbest.utt_id, nbest, names)
    return [np.array([h.scores[n] for h in nbest.hyps], dtype=np.float64) for n in names]


def rescore_nbest(nbest: NBestList, weights):
    """Combine named costs per hypothesis and re-rank ascending.

    Returns (best hypothesis, re-ranked NBestList).  Ties keep the original
    rank order; each output hypothesis gains a "combined" score entry.  A
    combined score that overflows raises naming its hypothesis.
    """
    named = weights.as_dict() if isinstance(weights, CombinationWeights) else dict(weights)
    CombinationWeights(tuple(named.values()))  # validate
    with np.errstate(**_NO_OVERFLOW_WARNING):
        combined = weighted_sum(named.values(), score_columns(nbest, named))
    overflowed = np.flatnonzero(~np.isfinite(combined))
    if overflowed.size:
        i = overflowed[0]
        raise ValidationError(f"{nbest.utt_id}: hypothesis {i} has a non-finite combined "
                              f"score {combined[i]}")
    reranked = NBestList(nbest.utt_id, [_with_combined(nbest.hyps[i], float(combined[i]))
                                        for i in np.argsort(combined, kind="stable")])
    return reranked.hyps[0], reranked


def _with_combined(hyp: Hypothesis, combined: float) -> Hypothesis:
    """A copy of `hyp` with a finite "combined" score, made without running
    again the checks that `hyp` passed when it was built."""
    copy = object.__new__(Hypothesis)
    copy.text, copy.tokens = hyp.text, list(hyp.tokens)
    copy.scores = {**hyp.scores, "combined": combined}
    return copy


def truncate_nbest(nbest: NBestList, n: int = 30) -> NBestList:
    """Keep the top-n hypotheses by original rank (N=30 by default)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return NBestList(nbest.utt_id, list(nbest.hyps[:n]))


def simplex_grid(num_systems: int, step: float):
    """All weight vectors on the simplex at the given resolution, ascending
    lexicographically.  The grid spacing is 1/round(1/step)."""
    if num_systems < 1:
        raise ValueError("need at least one system")
    if not (0.0 < step <= 1.0):
        raise ValidationError(f"grid step must be in (0, 1], got {step}")
    n = max(1, round(1.0 / step))
    points = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            points.append(prefix + (remaining,))
            return
        for i in range(remaining + 1):
            rec(prefix + (i,), remaining - i, slots - 1)

    rec((), n, num_systems)  # each coordinate counts up, so the points come out sorted
    return [tuple(p / n for p in pt) for pt in points]


def grid_search_weights(dev_data, num_systems: int, scorer, step: float = 0.1):
    """Exhaustive search over the normalized weight simplex.

    `scorer(weights, dev_data)` returns the value to minimize (e.g. dev WER).
    Ties resolve to the lexicographically smallest weight vector.
    """
    best_weights, best_score = None, None
    for weights in simplex_grid(num_systems, step):
        score = float(scorer(weights, dev_data))
        if not np.isfinite(score):
            raise ValueError(f"scorer returned non-finite value for weights {weights}")
        if best_score is None or score < best_score:
            best_weights, best_score = weights, score
    return CombinationWeights(best_weights), best_score


def _tune(utts: list, refs: dict, source: str, num_systems: int, readout, step: float):
    """`grid_search_weights` for the lowest dev WER of one decode.

    `utts` holds (utt_id, score arrays, texts) per dev utterance, and
    `readout(fused)` turns the weighted sums of a block of grid points, one
    point per row, into each point's picks: indices into `texts`, whose
    words the picks read out.  `refs` maps utt_id to reference text;
    `source` names it in errors.  A block holds at most `num_systems`
    points, so it is no larger than the utterance's own score arrays.  One
    `error_counts` pass per utterance counts every point's errors, one lane
    per point, and the search looks each point's dev WER up.
    """
    missing = [u for u, _, _ in utts if u not in refs]
    if missing:
        raise ValidationError(f"{source}: dev reference missing utts, first 10: {missing[:10]}")
    ref_tokens = {u: tokenize(refs[u]) for u, _, _ in utts}
    empty = sorted(u for u, ref in ref_tokens.items() if not ref)
    if empty:
        raise ValidationError(f"{source}: {empty[0]}: empty reference")
    ref_total = sum(len(ref) for ref in ref_tokens.values())
    points = simplex_grid(num_systems, step)
    values = np.array(points)
    errors = np.zeros(len(points), dtype=np.int64)
    for utt_id, scores, texts in utts:
        # per-point weight columns, broadcast over each score array
        columns = values.reshape(values.shape + (1,) * scores[0].ndim)
        with np.errstate(**_NO_OVERFLOW_WARNING):  # the final decode rejects the winner's
            picks = [readout(weighted_sum(columns[lo:lo + num_systems].swapaxes(0, 1), scores))
                     for lo in range(0, len(points), num_systems)]
        errors += error_counts(ref_tokens[utt_id], np.concatenate(picks),
                               [tokenize(t) for t in texts])
    dev_wer = {p: 100.0 * int(e) / ref_total for p, e in zip(points, errors)}
    return grid_search_weights(utts, num_systems, lambda weights, _: dev_wer[weights],
                               step=step)


def tune_joint_weights(dev_streams: list, refs: dict, source: str, step: float = 0.1):
    """(weights, dev WER) of `joint_decode` at the best point of the simplex
    grid; `dev_streams` holds each dev utterance's streams, which must pass
    `check_streams`.  A point's path is its per-frame argmax, and its tokens'
    words are the words of the text `joint_decode` reads out: the tokens
    joined by spaces."""
    utts = [(s[0].utt_id, [x.scores for x in s], s[0].tokens) for s in dev_streams]
    return _tune(utts, refs, source, len(dev_streams[0]),
                 lambda fused: fused.argmax(axis=-1), step)


def tune_rescore_weights(lists: list, refs: dict, source: str, step: float = 0.1):
    """(weights, dev WER) of `rescore_nbest`, as `tune_joint_weights`; the
    weights are named by the first hypothesis's score names, sorted.  A
    point picks the hypothesis `rescore_nbest` ranks first: `argmin` returns
    the first minimum, the head of the stable ascending argsort."""
    names = sorted(lists[0].hyps[0].scores)
    utts = [(nb.utt_id, score_columns(nb, names), [h.text for h in nb.hyps]) for nb in lists]
    weights, dev_wer = _tune(utts, refs, source, len(names),
                             lambda fused: fused.argmin(axis=-1)[:, None], step)
    return CombinationWeights(weights.values, names=tuple(names)), dev_wer
