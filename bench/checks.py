"""Independent reference computations for the output-correctness gate.

Nothing here calls into `asrfuse`: edit distances come from a plain dynamic
programme, frame-joint argmax and rescore argmin from numpy on the fixture's
own arrays, and output files are parsed with `struct`/`json` directly.  Each
check returns a list of problems; an empty list means the op's output is
correct.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

FINAL_LOSS_RTOL = 1e-6
GRID_STEP = 0.1


def edit_distance(ref: list, hyp: list) -> int:
    """Levenshtein distance with unit costs (two-row dynamic programme)."""
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, start=1):
        row = [i] + [0] * len(hyp)
        for j, h in enumerate(hyp, start=1):
            row[j] = min(prev[j - 1] + (r != h), row[j - 1] + 1, prev[j] + 1)
        prev = row
    return prev[-1]


def tokens_of(text: str, mode: str) -> list:
    text = text.strip().lower()
    return text.split() if mode == "word" else [c for c in text if not c.isspace()]


def read_tsv(path: str) -> dict:
    """utt_id -> text from a transcript TSV (header row first)."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return {cells[0]: cells[1] for cells in (line.split("\t") for line in lines[1:] if line)}


def read_fss1_scores(path: str):
    """(token list, float32 (T, V) scores) parsed from an FSS1 file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"FSS1":
        raise ValueError(f"{path}: not an FSS1 file")
    t, v, _, n = struct.unpack("<IIfI", blob[4:20])
    tokens = json.loads(blob[20:20 + n].decode("utf-8"))
    scores = np.frombuffer(blob[20 + n:], dtype="<f4")
    if scores.size != t * v:
        raise ValueError(f"{path}: {scores.size} scores for a {t}x{v} stream")
    return tokens, scores.reshape(t, v)


def read_afm1_shape(path: str):
    """(rows, cols, frame period, all values finite) of an AFM1 file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"AFM1":
        raise ValueError(f"{path}: not an AFM1 file")
    rows, cols, period = struct.unpack("<IIf", blob[4:16])
    data = np.frombuffer(blob[16:], dtype="<f4")
    return rows, cols, period, data.size == rows * cols and bool(np.isfinite(data).all())


def simplex_grid(num_systems: int, step: float = GRID_STEP) -> list:
    """Weight vectors on the simplex in ascending lexicographic order."""
    n = round(1.0 / step)

    def rec(prefix, remaining, slots):
        if slots == 1:
            yield prefix + (remaining,)
            return
        for i in range(remaining + 1):
            yield from rec(prefix + (i,), remaining - i, slots - 1)

    return [tuple(p / n for p in pt) for pt in sorted(rec((), n, num_systems))]


def error_rate(errors: int, ref_len: int) -> float:
    return 100.0 * errors / ref_len


class EvalReference:
    """Expected eval-fusion outputs, computed lazily and cached per fixture.

    Edit distances are memoised per (reference, hypothesis) text pair, so the
    grid checks cost one DP per distinct hypothesis.
    """

    def __init__(self, data: dict):
        self.data = data
        self.ids = data["ids"]
        self.streams = data["streams"].astype(np.float64)
        self._dist: dict = {}
        self._tuned: dict = {}

    def errors(self, utt: str, hyp_text: str, mode: str = "word") -> int:
        key = (utt, hyp_text, mode)
        if key not in self._dist:
            self._dist[key] = edit_distance(tokens_of(self.data["refs"][utt], mode),
                                            tokens_of(hyp_text, mode))
        return self._dist[key]

    def ref_len(self, utt: str, mode: str = "word") -> int:
        return len(tokens_of(self.data["refs"][utt], mode))

    def corpus_rate(self, hyps: dict, mode: str = "word", utts=None) -> float:
        utts = self.ids if utts is None else utts
        return error_rate(sum(self.errors(u, hyps[u], mode) for u in utts),
                          sum(self.ref_len(u, mode) for u in utts))

    # -- frame-joint decoding -------------------------------------------------

    def joint_fused(self, weights: tuple) -> np.ndarray:
        """(utts, T, V) weighted sums, accumulated in the program's order."""
        fused = 0
        for w, s in zip(weights, self.streams):
            fused = fused + w * s
        return fused

    def joint_hyps(self, weights: tuple) -> dict:
        best = self.joint_fused(weights).argmax(axis=2)
        tokens = self.data["tokens"]
        return {u: " ".join(tokens[k] for k in row) for u, row in zip(self.ids, best)}

    # -- N-best rescoring -------------------------------------------------------

    def rescore_costs(self, named: dict, truncate: int) -> np.ndarray:
        """(utts, truncate) combined costs, summed in the weights' name order."""
        total = 0.0
        for name, w in named.items():
            scores = np.array([[s[name] for _, s in hyps[:truncate]]
                               for hyps in self.data["nbest"]])
            total = total + w * scores
        return total

    def rescore_hyps(self, named: dict, truncate: int) -> dict:
        best = self.rescore_costs(named, truncate).argmin(axis=1)
        return {u: self.data["nbest"][i][j][0] for i, (u, j) in enumerate(zip(self.ids, best))}

    # -- weight tuning ------------------------------------------------------------

    def tuned(self, key: str, hyps_at) -> tuple:
        """First grid point with the lowest dev WER: (weights, WER)."""
        if key not in self._tuned:
            best = None
            for weights in simplex_grid(3):
                rate = self.corpus_rate(hyps_at(weights))
                if best is None or rate < best[1]:
                    best = (weights, rate)
            self._tuned[key] = best
        return self._tuned[key]


def compare_hyps(path: str, expected: dict) -> list:
    try:
        got = read_tsv(path)
    except (OSError, IndexError) as e:
        return [f"cannot read {path}: {e}"]
    if set(got) != set(expected):
        return [f"{path}: utterance set differs from the expected one"]
    wrong = [u for u in expected if got[u] != expected[u]]
    return [f"{path}: {len(wrong)} hypotheses differ, first {wrong[0]}"] if wrong else []


def check_close(name: str, got, want, rtol: float = 1e-12) -> list:
    if got is None or not math.isclose(got, want, rel_tol=rtol, abs_tol=1e-12):
        return [f"{name}: got {got}, expected {want}"]
    return []


def check_joint(ref: EvalReference, report: dict, out_dir: str, hyp_path: str,
                weights) -> list:
    """Fixed or tuned frame-joint decoding against the numpy re-derivation."""
    problems = []
    if weights is None:  # tuned: must be the first grid point with the lowest dev WER
        best, rate = ref.tuned("joint", ref.joint_hyps)
        got = tuple(report.get("weights", ()))
        if got != best:
            problems.append(f"tuned weights {got}, expected {best}")
        problems += check_close("dev_wer", report.get("dev_wer"), rate)
        weights = best
    problems += compare_hyps(hyp_path, ref.joint_hyps(weights))
    fused = ref.joint_fused(weights).astype(np.float32)
    for i, u in enumerate(ref.ids):
        try:
            tokens, scores = read_fss1_scores(os.path.join(out_dir, f"{u}.fss1"))
        except (OSError, ValueError, struct.error) as e:
            return problems + [f"fused stream {u}: {e}"]
        if tokens != ref.data["tokens"] or not np.array_equal(scores, fused[i]):
            return problems + [f"fused stream {u} differs from the weighted sum"]
    return problems


def check_rescore(ref: EvalReference, report: dict, nbest_path: str, hyp_path: str,
                  named, truncate: int) -> list:
    """Fixed or tuned N-best rescoring against the numpy argmin."""
    problems = []
    if named is None:
        names = sorted(ref.data["nbest"][0][0][1])
        best, rate = ref.tuned(
            "rescore", lambda w: ref.rescore_hyps(dict(zip(names, w)), truncate))
        got = report.get("weights", {})
        if tuple(got.get(n) for n in names) != best:
            problems.append(f"tuned weights {got}, expected {dict(zip(names, best))}")
        problems += check_close("dev_wer", report.get("dev_wer"), rate)
        named = dict(zip(names, best))
    problems += compare_hyps(hyp_path, ref.rescore_hyps(named, truncate))
    costs = ref.rescore_costs(named, truncate)
    try:
        with open(nbest_path, encoding="utf-8") as fh:
            lists = [json.loads(line) for line in fh if line.strip()]
    except (OSError, ValueError) as e:
        return problems + [f"cannot read {nbest_path}: {e}"]
    if [nb["utt_id"] for nb in lists] != ref.ids:
        return problems + [f"{nbest_path}: utterance order differs"]
    for i, nb in enumerate(lists):
        order = np.argsort(costs[i], kind="stable")
        texts = [ref.data["nbest"][i][j][0] for j in order]
        if ([h["text"] for h in nb["hyps"]] != texts
                or [h["scores"]["combined"] for h in nb["hyps"]] != costs[i][order].tolist()):
            return problems + [f"{nbest_path}: list {nb['utt_id']} is ranked differently"]
    return problems


def check_score(ref: EvalReference, report_path: str, hyp_path: str, mode: str,
                groups: list) -> list:
    """Pooled and grouped WER/CER against the plain edit distance."""
    try:
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        hyps = read_tsv(hyp_path)
    except (OSError, ValueError) as e:
        return [f"cannot read the score report: {e}"]
    tok_mode = "char" if mode == "cer" else "word"
    problems = check_close("overall", report.get("overall"), ref.corpus_rate(hyps, tok_mode))
    meta = ref.data["metadata"]
    keys = list(groups) + ([",".join(groups)] if len(groups) > 1 else [])
    if sorted(report.get("groups", {})) != sorted(keys):
        return problems + [f"group keys {sorted(report.get('groups', {}))}, expected {keys}"]
    for key in keys:
        label = {u: "/".join(meta[u][k] for k in key.split(",")) for u in ref.ids}
        want = {}
        for value in sorted(set(label.values())):
            utts = [u for u in ref.ids if label[u] == value]
            want[value] = ref.corpus_rate(hyps, tok_mode, utts)
        got = report["groups"][key]
        if sorted(got) != sorted(want):
            problems.append(f"groups of {key}: {sorted(got)}, expected {sorted(want)}")
            continue
        for value in want:
            problems += check_close(f"{key}={value}", got[value], want[value])
    return problems


def check_significance(ref: EvalReference, report: dict, path_a: str, path_b: str) -> list:
    """MAPSSWE Z and p from per-utterance error differences."""
    try:
        hyp_a, hyp_b = read_tsv(path_a), read_tsv(path_b)
    except OSError as e:
        return [f"cannot read hypotheses: {e}"]
    ids = sorted(ref.ids)
    diffs = [ref.errors(u, hyp_a[u]) - ref.errors(u, hyp_b[u]) for u in ids]
    mean = sum(diffs) / len(diffs)
    std = math.sqrt(sum((d - mean) ** 2 for d in diffs) / (len(diffs) - 1))
    if std == 0.0:
        return [] if report.get("degenerate") else ["expected a degenerate test"]
    z = mean / (std / math.sqrt(len(diffs)))
    p = math.erfc(abs(z) / math.sqrt(2.0))
    problems = check_close("z", report.get("z"), z, 1e-9) + check_close("p", report.get("p"), p, 1e-9)
    if report.get("significant") != (p < report.get("alpha", 0.05)):
        problems.append(f"significant={report.get('significant')} with p={p}")
    return problems


def check_train(report: dict, expected_loss) -> list:
    """A finite final loss, within FINAL_LOSS_RTOL of the recorded one if any."""
    loss = report.get("final_loss")
    if not isinstance(loss, float) or not math.isfinite(loss):
        return [f"final_loss is {loss!r}"]
    if expected_loss is not None and not math.isclose(loss, expected_loss,
                                                      rel_tol=FINAL_LOSS_RTOL):
        return [f"final_loss {loss!r}, recorded {expected_loss!r}"]
    return []


def check_extract(report: dict, out_dir: str, utt_ids: list, frames: int, dim: int) -> list:
    """One finite (2T, dim) AFM1 file at 10 ms per input utterance."""
    if report.get("extracted") != len(utt_ids):
        return [f"extracted {report.get('extracted')}, expected {len(utt_ids)}"]
    for u in utt_ids:
        try:
            shape = read_afm1_shape(os.path.join(out_dir, f"{u}.afm1"))
        except (OSError, ValueError, struct.error) as e:
            return [f"{u}: {e}"]
        if shape != (2 * frames, dim, 10.0, True):
            return [f"{u}: rows, cols, period, finite = {shape}"]
    return []
