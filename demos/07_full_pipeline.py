"""The whole pipeline through the command-line surface.

Trains a small masked-prediction model with a bottleneck, extracts and fuses
features, joint-decodes three score streams, rescores truncated N-best lists,
scores WER with subgroup breakdowns and runs the significance test.  Every
step shells into asrfuse.cli.main, so this mirrors what the `asrfuse`
executable does.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from asrfuse.cli import main
from asrfuse.combine import FrameScoreStream, Hypothesis, NBestList
from asrfuse.features import FeatureSequence, fuse_features
from asrfuse.formats import read_afm1, write_afm1, write_fss1, write_nbest, \
    write_transcripts_tsv
from asrfuse.numcore import make_rng

root = Path(tempfile.mkdtemp(prefix="asrfuse_demo_"))
print(f"working in {root}")
rng = make_rng(777)

# 1) train: masked-prediction objective, 256-d bottleneck after the last block
config = {
    "objective": "hubert",
    "seed": 31,
    "epochs": 50,
    "out_model": str(root / "model.mdl1"),
    "log": str(root / "train_log.jsonl"),
    "model": {"d_in": 8, "n_blocks": 4, "d_model": 64, "n_heads": 4, "d_ff": 128,
              "num_codebooks": 2, "entries": 4, "code_dim": 16,
              "mask_probability": 0.2, "mask_span": 3,
              "bottleneck_position": "after-last-block", "bottleneck_dim": 256},
    "data": {"kind": "synthetic", "n_utts": 1, "frames_per_utt": 24},
}
(root / "train.json").write_text(json.dumps(config))
assert main(["train", "--config", str(root / "train.json")]) == 0

# 2) extract bottleneck features for two utterances
(root / "feats").mkdir()
(root / "extracted").mkdir()
with open(root / "feats.jsonl", "w") as fh:
    for i, utt in enumerate(["u1", "u2"]):
        seq = FeatureSequence(make_rng(200 + i).normal(size=(10, 8)), 20.0, "SSL")
        write_afm1(root / "feats" / f"{utt}.afm1", seq)
        fh.write(json.dumps({"utt_id": utt,
                             "path": str(root / "feats" / f"{utt}.afm1")}) + "\n")
assert main(["extract", "--model", str(root / "model.mdl1"),
             "--manifest", str(root / "feats.jsonl"),
             "--out-dir", str(root / "extracted")]) == 0

# 3) fuse with a 40-d filter-bank front-end at 10 ms
ssl = read_afm1(root / "extracted" / "u1.afm1", label="SSL")
fbk = FeatureSequence(rng.normal(size=(ssl.num_frames, 40)), 10.0, label="FBK")
print(f"fused feature dim: {fuse_features(fbk, ssl).dim} (40 FBK + 256 SSL)")

# 4) three toy score streams and 3-way joint decoding at 8:5:5
tokens = ["a", "b", "c", "d"]
refs = {"u1": ["a", "b", "c", "a", "d"], "u2": ["d", "c", "b", "b", "a"]}
manifests = []
for k in range(3):
    (root / f"sys{k}").mkdir()
    with open(root / f"sys{k}.jsonl", "w") as fh:
        for utt, ref in refs.items():
            scores = -2.0 - rng.random((len(ref), len(tokens)))
            for t, sym in enumerate(ref):
                scores[t, tokens.index(sym)] = -0.2 - 0.3 * rng.random()
            if k > 0:
                scores[k % len(ref)] = np.log(np.full(len(tokens), 0.25))
            write_fss1(root / f"sys{k}" / f"{utt}.fss1",
                       FrameScoreStream(utt, tokens, scores))
            fh.write(json.dumps({"utt_id": utt,
                                 "path": str(root / f"sys{k}" / f"{utt}.fss1")}) + "\n")
    manifests.append(str(root / f"sys{k}.jsonl"))
(root / "fused").mkdir()
assert main(["combine", "--mode", "frame-joint", "--streams", *manifests,
             "--weights", "uaspeech-3way", "--out-dir", str(root / "fused"),
             "--hyp-out", str(root / "joint_hyp.tsv")]) == 0

# 5) rescore 30-truncated N-best lists at 0.9:0.001:0.1
lists = []
for utt, ref in refs.items():
    hyps = []
    for i in range(40):
        tok = list(ref)
        if i > 0:
            tok[i % len(tok)] = tokens[i % len(tokens)]
        hyps.append(Hypothesis(" ".join(tok), tok,
                               {"ctc": 0.1 * i, "attention": float(40 - i),
                                "tdnn": rng.random()}))
    lists.append(NBestList(utt, hyps))
write_nbest(root / "nbest.jsonl", lists)
assert main(["combine", "--mode", "rescore", "--nbest", str(root / "nbest.jsonl"),
             "--weights", "uaspeech-rescore", "--truncate", "30",
             "--out", str(root / "rescored.jsonl"),
             "--hyp-out", str(root / "rescore_hyp.tsv")]) == 0

# 6) score and test significance
write_transcripts_tsv(root / "ref.tsv", [
    ("u1", " ".join(refs["u1"]), {"intelligibility": "VL", "seen": "seen"}),
    ("u2", " ".join(refs["u2"]), {"intelligibility": "H", "seen": "unseen"}),
])
assert main(["score", "--hyp", str(root / "rescore_hyp.tsv"),
             "--ref", str(root / "ref.tsv"),
             "--groups", "intelligibility,seen"]) == 0
assert main(["significance", "--hyp-a", str(root / "joint_hyp.tsv"),
             "--hyp-b", str(root / "rescore_hyp.tsv"),
             "--ref", str(root / "ref.tsv")]) == 0
print(f"artifacts left in {root}")
