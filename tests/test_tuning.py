"""`combine --weights tune` against the straightforward per-grid-point scorers.

The reference scorers below rebuild every fused stream or re-ranked list and
re-align every utterance at each grid point.  The CLI must choose the same
weights and report the same dev WER, to the last bit, including on fixtures
built to tie: identical systems, coarsely quantised scores, and N-best lists
with duplicate texts and equal costs.
"""

import json

import numpy as np
import pytest

from asrfuse.cli import main
from asrfuse.combine import (
    FrameScoreStream,
    Hypothesis,
    NBestList,
    grid_search_weights,
    joint_decode,
)
from asrfuse.formats import write_fss1, write_nbest, write_transcripts_tsv
from asrfuse.scoring import ScoredTranscriptSet, wer

TOKENS = ["", "a", "b", "cd", "E", "f g"]  # a blank, a capital and a space


def reference_joint_wer(weights, data):
    ids, streams, refs = data
    hyps = {u: " ".join(joint_decode(streams[u], weights)[1]) for u in ids}
    return wer(ScoredTranscriptSet.from_texts({u: refs[u] for u in ids}, hyps))[0]


def reference_rescore_wer(weights, data):
    lists, names, refs = data
    hyps = {}
    for nb in lists:
        combined = []
        for hyp in nb.hyps:
            total = 0.0
            for name, w in zip(names, weights):
                total += w * hyp.scores[name]
            combined.append(total)
        best = sorted(range(len(combined)), key=lambda i: (combined[i], i))[0]
        hyps[nb.utt_id] = nb.hyps[best].text
    return wer(ScoredTranscriptSet.from_texts({u: refs[u] for u in hyps}, hyps))[0]


def random_text(rng, lo=1, hi=6):
    return " ".join(TOKENS[k] for k in rng.integers(1, len(TOKENS), size=rng.integers(lo, hi)))


def make_streams(seed, systems, ties):
    """utt -> list of FrameScoreStream; `ties` copies system 0 and rounds."""
    rng = np.random.default_rng(seed)
    out = {}
    for i in range(10):
        frames = int(rng.integers(3, 9))
        per_system = [rng.normal(size=(frames, len(TOKENS))) for _ in range(systems)]
        if ties:
            per_system = [np.round(per_system[0] * 2.0) / 2.0] * (systems - 1) + \
                [np.round(per_system[-1])]
        out[f"u{i}"] = [FrameScoreStream(f"u{i}", list(TOKENS), s) for s in per_system]
    return out


def run_frame_joint(tmp_path, streams, refs):
    manifests = []
    for k in range(len(next(iter(streams.values())))):
        lines = []
        for utt_id, per_system in streams.items():
            path = tmp_path / f"s{k}_{utt_id}.fss1"
            write_fss1(path, per_system[k])
            lines.append(json.dumps({"utt_id": utt_id, "path": str(path)}))
        manifest = tmp_path / f"s{k}.jsonl"
        manifest.write_text("\n".join(lines) + "\n")
        manifests.append(str(manifest))
    ref = tmp_path / "ref.tsv"
    write_transcripts_tsv(ref, [(u, t, {}) for u, t in refs.items()])
    out_dir = tmp_path / "fused"
    out_dir.mkdir()
    return manifests, str(ref), str(out_dir)


@pytest.mark.parametrize("seed, systems, ties", [(0, 2, False), (1, 3, False),
                                                 (2, 3, True), (3, 2, True)])
def test_frame_joint_tune_matches_reference(tmp_path, capsys, seed, systems, ties):
    streams = make_streams(seed, systems, ties)
    rng = np.random.default_rng(100 + seed)
    refs = {u: random_text(rng) for u in streams}
    manifests, ref, out_dir = run_frame_joint(tmp_path, streams, refs)
    assert main(["combine", "--mode", "frame-joint", "--streams", *manifests,
                 "--weights", "tune", "--dev-ref", ref, "--out-dir", out_dir,
                 "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    # FSS1 stores float32, so the reference reads the same rounded scores
    stored = {u: [FrameScoreStream(u, s.tokens, s.scores.astype(np.float32)) for s in ss]
              for u, ss in streams.items()}
    weights, dev_wer = grid_search_weights((list(streams), stored, refs), systems,
                                           reference_joint_wer)
    assert report["weights"] == list(weights.values)
    assert report["dev_wer"] == dev_wer


def make_lists(seed, ties):
    rng = np.random.default_rng(seed)
    lists = []
    for i in range(12):
        texts = [random_text(rng, 0) for _ in range(int(rng.integers(1, 8)))]
        hyps = []
        for text in texts:
            scores = {name: float(rng.normal()) for name in ("tdnn", "ctc", "attention")}
            if ties:
                scores = {name: float(round(v)) for name, v in scores.items()}
            hyps.append(Hypothesis(text, text.split(), scores))
            if ties:  # the same text and costs twice
                hyps.append(Hypothesis(text, text.split(), dict(scores)))
        if ties and i % 4 == 0:  # every hypothesis costs the same
            hyps = [Hypothesis(h.text, h.tokens, {"tdnn": 1, "ctc": 1, "attention": 1})
                    for h in hyps]
        lists.append(NBestList(f"u{i}", hyps))
    return lists


@pytest.mark.parametrize("seed, ties, step", [(0, False, 0.1), (1, True, 0.1),
                                              (2, True, 0.25), (3, False, 0.05)])
def test_rescore_tune_matches_reference(tmp_path, capsys, seed, ties, step):
    lists = make_lists(seed, ties)
    rng = np.random.default_rng(200 + seed)
    refs = {nb.utt_id: random_text(rng) for nb in lists}
    nbest, ref = tmp_path / "nbest.jsonl", tmp_path / "ref.tsv"
    write_nbest(nbest, lists)
    write_transcripts_tsv(ref, [(u, t, {}) for u, t in refs.items()])
    assert main(["combine", "--mode", "rescore", "--nbest", str(nbest), "--weights", "tune",
                 "--dev-ref", str(ref), "--grid-step", str(step), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    names = sorted(lists[0].hyps[0].scores)
    weights, dev_wer = grid_search_weights((lists, names, refs), len(names),
                                           reference_rescore_wer, step=step)
    assert report["weights"] == dict(zip(names, weights.values))
    assert report["dev_wer"] == dev_wer
