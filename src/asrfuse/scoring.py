"""WER/CER scoring, MAPSSWE significance testing, classification metrics."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

__all__ = [
    "AlignmentResult",
    "TranscriptRecord",
    "ScoredTranscriptSet",
    "SignificanceReport",
    "tokenize",
    "align_and_count",
    "error_counts",
    "wer",
    "mapsswe",
    "classification_metrics",
    "majority_vote",
]


def tokenize(text: str, mode: str = "word") -> list:
    """Case-folded tokens: whitespace words, or characters excluding spaces."""
    text = text.strip().lower()
    if mode == "word":
        return text.split()
    if mode == "char":
        return [c for c in text if not c.isspace()]
    raise ValueError(f"unknown tokenization mode {mode!r}")


@dataclass
class AlignmentResult:
    substitutions: int
    deletions: int
    insertions: int
    ref_length: int
    pairs: list = field(default_factory=list)

    @property
    def errors(self) -> int:
        return self.substitutions + self.deletions + self.insertions


def _match_masks(ref: list) -> dict:
    """Token -> bitmask of its positions in `ref`: bit i is set for ref[i]."""
    peq: dict = {}
    bit = 1
    for tok in ref:
        peq[tok] = peq.get(tok, 0) | bit
        bit <<= 1
    return peq


def _myers(eqs, mask, full, low):
    """Myers' bit-parallel edit distance (Myers 1999) in Hyyro's Levenshtein
    form (Hyyro 2003), one column per match mask of `eqs`.

    Bit i of a vector holds the delta of DP row i+1; `mask` has a 1 for every
    row bit, `low` for bit 0 of every lane and `full` for every bit of every
    lane, so x ^ full is ~x on the lanes (CPython is faster on ints >= 0).
    Yields, per column, the horizontal deltas (ph, mh) before the shift and
    the vertical deltas (pv, mv) after it.
    """
    pv, mv = mask, 0
    for eq in eqs:
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ((xh | pv) ^ full)
        mh = pv & xh
        # row 0 grows by one per token; the bit shifted into bit 0 of a lane
        # is the guard bit of the lane below, so the | sets it right
        shifted_ph = (ph << 1) | low
        pv = ((mh << 1) | ((xv | shifted_ph) ^ full)) & mask
        mv = shifted_ph & xv
        yield ph, mh, pv, mv


def align_and_count(ref: list, hyp: list) -> AlignmentResult:
    """Minimum edit distance with unit costs and a deterministic backtrace.

    Cost ties prefer substitution/match over insertion over deletion.  The
    aligned pairs use None for the missing side of insertions and deletions.
    Tokens must be hashable, as for `error_counts`.

    One lane of `_myers` keeps, for every hypothesis column j, the vertical
    deltas D[i][j] - D[i-1][j] (`pvs`/`mvs`) and the horizontal deltas
    D[i][j] - D[i][j-1] (`phs`/`mhs`), bit i-1 for row i.  The backtrace
    from (r, h) (Hyyro 2004) takes at most r + h steps and needs only
    differences of D, so each step tests at most three bits: a match always
    lies on the diagonal; on a mismatch the diagonal holds when
    D[i][j] - D[i-1][j-1], the horizontal plus the left column's vertical
    delta, is 1, and otherwise an insertion holds when the horizontal delta
    is +1.
    """
    if not ref:
        raise ValueError("align_and_count: empty reference")
    peq = _match_masks(ref)
    r, h = len(ref), len(hyp)
    mask = (1 << r) - 1
    steps = _myers((peq.get(tok, 0) for tok in hyp), mask, mask, 1)
    phs, mhs, pvs, mvs = zip((0, 0, mask, 0), *steps)

    subs = dels = inss = 0
    pairs = []
    i, j, bit = r, h, 1 << (r - 1)
    while i and j:
        a, b = ref[i - 1], hyp[j - 1]
        if a != b:
            if phs[j] & bit:  # D[i][j] = D[i][j-1] + 1
                if mvs[j - 1] & bit:  # and D[i][j-1] = D[i-1][j-1] - 1
                    inss += 1
                    pairs.append((None, b))
                    j -= 1
                    continue
            elif mhs[j] & bit or not pvs[j - 1] & bit:  # D[i][j] <= D[i-1][j-1]
                dels += 1
                pairs.append((a, None))
                i -= 1
                bit >>= 1
                continue
            subs += 1
        pairs.append((a, b))
        i, j = i - 1, j - 1
        bit >>= 1
    if j:  # row 0: only insertions are left
        inss += j
        pairs += [(None, b) for b in reversed(hyp[:j])]
    elif i:  # column 0: only deletions
        dels += i
        pairs += [(a, None) for a in reversed(ref[:i])]
    pairs.reverse()
    return AlignmentResult(subs, dels, inss, r, pairs)


def error_counts(ref: list, rows, words: list) -> np.ndarray:
    """S + D + I of `align_and_count(ref, hyp)` for every row of `rows`.

    Row n of the 2-D index array `rows` reads out the hypothesis
    words[rows[n, 0]] + words[rows[n, 1]] + ..., where each `words` entry is
    a token list, possibly empty.  All rows run in one pass of `_myers`, each
    in its own lane of one Python int: the lane holds len(ref) bits and,
    above them, at least one guard bit that takes the carry of the addition,
    so no carry crosses into the next lane.  Step k feeds every row its k-th
    token, so a row keeps its state over its empty words; a row of h tokens
    is read out after step h, as D[r][h] = h + popcount(pv) - popcount(mv) of
    its lane.  The per-step match masks take rows x steps x lane bytes, a
    lane byte per 8 reference tokens, where steps is the longest row's token
    count.
    """
    if not ref:
        raise ValueError("error_counts: empty reference")
    rows = np.asarray(rows, dtype=np.intp)
    if rows.ndim != 2:
        raise ValueError(f"error_counts: rows must be 2-D, got shape {rows.shape}")
    n, r = rows.shape[0], len(ref)
    width = r // 8 + 1  # bytes per lane: r bits and at least one guard bit
    stride = n * width
    peq = _match_masks(ref)
    ids = {tok: k for k, tok in enumerate(peq, start=1)}
    # one lane-wide item per table row: row 0 matches no reference token,
    # row k the k-th distinct one
    table = np.frombuffer(bytes(width) + b"".join(bits.to_bytes(width, "little")
                                                  for bits in peq.values()),
                          dtype=f"V{width}")
    used = np.zeros(len(words), dtype=bool)
    used[rows] = True  # only the words some row reads are looked up
    looked_up = [[ids.get(tok, 0) for tok in w] if u else []
                 for w, u in zip(words, used.tolist())]
    longest = max(map(len, words), default=0)
    padded = np.array([w + [-1] * (longest - len(w)) for w in looked_up],
                      dtype=np.intp).reshape(len(words), longest)
    tokens = padded[rows].reshape(n, rows.shape[1] * longest)  # table rows; -1: none
    valid = tokens >= 0
    h = valid.sum(axis=1)
    steps = int(h.max(initial=0))
    # step k feeds every row its k-th token; a row that has run out matches nothing
    fed = np.zeros((n, steps), dtype=np.intp)
    fed[np.arange(steps) < h[:, None]] = tokens[valid]
    eqs = table[fed.T].tobytes()
    ends = h == np.arange(steps + 1)[:, None]  # ends[k]: the rows read out after step k
    ending = ends.any(axis=1).tolist()
    lanes = np.repeat(ends, width, axis=1).astype(np.uint8) * np.uint8(255)

    def lanes_ending(s):
        return int.from_bytes(lanes[s].tobytes(), "little")

    full = (1 << 8 * stride) - 1
    mask = int.from_bytes(((1 << r) - 1).to_bytes(width, "little") * n, "little")
    low = int.from_bytes((1).to_bytes(width, "little") * n, "little")
    columns = (int.from_bytes(eqs[s * stride:(s + 1) * stride], "little")
               for s in range(steps))
    done_pv, done_mv = mask & lanes_ending(0), 0
    for s, (_, _, pv, mv) in enumerate(_myers(columns, mask, full, low), start=1):
        if ending[s]:
            done = lanes_ending(s)
            done_pv |= pv & done
            done_mv |= mv & done

    def popcounts(vector):
        per_lane = np.frombuffer(vector.to_bytes(stride, "little"), dtype=np.uint8)
        return np.unpackbits(per_lane.reshape(n, width), axis=1).sum(axis=1, dtype=np.int64)

    return h + popcounts(done_pv) - popcounts(done_mv)


@dataclass
class TranscriptRecord:
    utt_id: str
    ref: list
    hyp: list
    metadata: dict = field(default_factory=dict)


class ScoredTranscriptSet:
    """Aligned reference/hypothesis records with per-utterance metadata."""

    def __init__(self, records: list):
        seen = set()
        for rec in records:
            if rec.utt_id in seen:
                raise ValueError(f"duplicate utt_id {rec.utt_id!r}")
            seen.add(rec.utt_id)
            if not rec.ref:
                raise ValidationError(f"{rec.utt_id}: empty reference")
        self.records = list(records)

    def __len__(self):
        return len(self.records)

    @classmethod
    def from_texts(cls, refs: dict, hyps: dict, metadata: dict | None = None,
                   mode: str = "word"):
        """Build from utt_id -> text maps; `mode` selects WER or CER tokens."""
        missing = sorted(set(refs) - set(hyps))
        if missing:
            raise ValidationError(f"hypotheses missing for {len(missing)} utts, "
                                  f"first 10: {missing[:10]}")
        metadata = metadata or {}
        records = [
            TranscriptRecord(utt_id, tokenize(refs[utt_id], mode),
                             tokenize(hyps[utt_id], mode),
                             dict(metadata.get(utt_id, {})))
            for utt_id in sorted(refs)
        ]
        return cls(records)


def wer(tset: ScoredTranscriptSet, group_by: str | tuple | None = None):
    """Pooled error rate in percent: 100 * (S + D + I) / total ref length.

    With `group_by`, also returns per-group rates keyed by that metadata
    value, or for a tuple of keys by their values joined with "/" (a group
    "VL/seen" for `("severity", "seen")`).  Unknown metadata keys raise.  No
    record is changed.
    """
    totals = Counter()
    group_totals: dict = {}
    for rec in tset.records:
        result = align_and_count(rec.ref, rec.hyp)
        totals["errors"] += result.errors
        totals["ref"] += result.ref_length
        if group_by is not None:
            bucket = group_totals.setdefault(_group_label(rec, group_by), Counter())
            bucket["errors"] += result.errors
            bucket["ref"] += result.ref_length
    overall = 100.0 * totals["errors"] / totals["ref"]
    if group_by is None:
        return overall, None
    groups = {k: 100.0 * v["errors"] / v["ref"] for k, v in sorted(group_totals.items())}
    return overall, groups


def _group_label(rec: TranscriptRecord, group_by: str | tuple):
    keys = (group_by,) if isinstance(group_by, str) else group_by
    for key in keys:
        if key not in rec.metadata:
            raise KeyError(f"{rec.utt_id}: no metadata key {key!r}")
    if isinstance(group_by, str):
        return rec.metadata[group_by]
    return "/".join(str(rec.metadata[key]) for key in group_by)


@dataclass
class SignificanceReport:
    differences: list
    z: float | None
    p: float | None
    significant: bool
    degenerate: bool
    alpha: float

    @property
    def marker(self) -> str:
        """Table marker: dagger when significant, blank otherwise."""
        return "†" if self.significant else ""


def mapsswe(set_a: ScoredTranscriptSet, set_b: ScoredTranscriptSet,
            alpha: float = 0.05) -> SignificanceReport:
    """Matched-pairs test on per-utterance error-count differences.

    Segments are utterances; Z = mean(d) / (sample std(d) / sqrt(n)) with the
    two-sided normal p-value.  Zero-variance or n < 2 cases are reported as
    degenerate instead of producing a Z score.  `alpha` lies in (0, 1).
    """
    if not 0 < alpha < 1:
        raise ValidationError(f"mapsswe: alpha must lie in (0, 1), got {alpha}")
    ids_a = [r.utt_id for r in set_a.records]
    ids_b = [r.utt_id for r in set_b.records]
    if ids_a != ids_b:
        raise ValueError("mapsswe: utterance sets differ")
    for ra, rb in zip(set_a.records, set_b.records):
        if ra.ref != rb.ref:
            raise ValueError(f"mapsswe: references differ at {ra.utt_id}")
    diffs = [
        align_and_count(ra.ref, ra.hyp).errors - align_and_count(rb.ref, rb.hyp).errors
        for ra, rb in zip(set_a.records, set_b.records)
    ]
    n = len(diffs)
    mean = float(np.mean(diffs))
    if n < 2:
        return SignificanceReport(diffs, None, None, False, True, alpha)
    std = float(np.std(diffs, ddof=1))
    if std == 0.0:
        return SignificanceReport(diffs, None, None, False, True, alpha)
    z = mean / (std / math.sqrt(n))
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return SignificanceReport(diffs, z, p, p < alpha, False, alpha)


def classification_metrics(predictions: list, labels: list, positive) -> dict:
    """Accuracy, sensitivity, specificity in percent.

    Metrics whose denominator class is absent are reported as None.
    """
    if len(predictions) != len(labels):
        raise ValueError("predictions and labels must have equal length")
    if not labels:
        raise ValueError("empty inputs")
    tp = fn = tn = fp = 0
    for pred, lab in zip(predictions, labels):
        if lab == positive:
            if pred == positive:
                tp += 1
            else:
                fn += 1
        else:
            if pred == positive:
                fp += 1
            else:
                tn += 1
    total = tp + fn + tn + fp
    return {
        "accuracy": 100.0 * (tp + tn) / total,
        "sensitivity": 100.0 * tp / (tp + fn) if tp + fn else None,
        "specificity": 100.0 * tn / (tn + fp) if tn + fp else None,
    }


def majority_vote(prediction_sets: list, positive) -> list:
    """Per-subject modal label across voters; ties go to the positive class."""
    if not prediction_sets:
        raise ValueError("no voters")
    n = len(prediction_sets[0])
    for i, votes in enumerate(prediction_sets):
        if len(votes) != n:
            raise ValueError(
                f"voter {i} covers {len(votes)} subjects, expected {n}"
            )
    fused = []
    for j in range(n):
        counts = Counter(votes[j] for votes in prediction_sets)
        top = max(counts.values())
        winners = [lab for lab, c in counts.items() if c == top]
        if len(winners) == 1:
            fused.append(winners[0])
        else:
            fused.append(positive if positive in winners else sorted(winners, key=str)[0])
    return fused
