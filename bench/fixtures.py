"""Seeded fixtures for the three benchmark workloads.

Each `make_*` function draws every input from the seed, writes it to disk
through the public `asrfuse.formats` writers (manifests and JSON configs are
plain JSON Lines / JSON, as the CLI reads them) and returns a `Fixture`: the
file paths the ops use plus the in-memory values the correctness gate checks
the program's outputs against.  The program only ever sees the files.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from asrfuse.combine import FrameScoreStream, Hypothesis, NBestList
from asrfuse.features import FeatureSequence
from asrfuse.formats import write_afm1, write_fss1, write_nbest, write_transcripts_tsv

# Fixture parameters per workload.  They are printed with every result so a
# reader can tell what a number was measured on.
PARAMS = {
    "eval-fusion": {
        "utterances": 100,
        "systems": 3,
        "frames": 40,
        "vocab": 30,
        "blank_rate": 0.40,
        "token_chars": [1, 3],
        "disagreement_rate": 0.30,
        "nbest": 40,
        "truncate": 30,
        "nbest_max_edits": 6,
        "severity_levels": ["VL", "L", "M", "H"],
        "seen_levels": ["seen", "unseen"],
    },
    "ssl-train": {
        "train_utterances": 8,
        "train_frames": 100,
        "d_in": 8,
        "frame_period_ms": 20.0,
        "ctc_vocab": 4,
        "ctc_label_length": 12,
        "epochs": 2,
        "model": {"n_blocks": 4, "d_model": 64, "n_heads": 4, "d_ff": 128},
        "hubert_bottleneck": {"position": "after-last-block", "dim": 256},
        "extract_files": 100,
        "extract_frames": 100,
    },
    "long-form": {
        "ctc_utterances": 2,
        "ctc_frames": 400,
        "d_in": 8,
        "frame_period_ms": 20.0,
        "ctc_vocab": 20,
        "ctc_label_length": 50,
        "ctc_epochs": 2,
        "model": {"n_blocks": 4, "d_model": 64, "n_heads": 4, "d_ff": 128},
        "ctc_bottleneck": {"position": "after-last-block", "dim": 256},
        "extract_files": 20,
        "extract_frames": 400,
        "a2a_utterances": 8,
        "a2a_frames": 2000,
        "d_acoustic": 64,
        "d_articulatory": 12,
        "mixtures": 4,
        "hidden": 128,
        "batch_frames": 512,
        "a2a_epochs": 2,
    },
}

WORKLOAD_STREAMS = {"eval-fusion": 1, "ssl-train": 2, "long-form": 3}


@dataclass
class Fixture:
    """Paths (relative to `root`) and reference values for one workload."""

    root: str
    params: dict
    paths: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)

    def path(self, key: str) -> str:
        return os.path.join(self.root, self.paths[key])


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOAD_STREAMS[workload]])


def _write_manifest(path: str, entries: list):
    with open(path, "w", encoding="utf-8") as fh:
        for entry in entries:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")


def _log_softmax(x: np.ndarray) -> np.ndarray:
    m = x.max(axis=-1, keepdims=True)
    return x - m - np.log(np.exp(x - m).sum(axis=-1, keepdims=True))


def _token_inventory(rng: np.random.Generator, size: int, lo: int, hi: int) -> list:
    """Distinct random words whose lengths cycle through lo..hi, so every seed
    gives the same mean word length and hence the same CER alignment cost."""
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    tokens: list = []
    while len(tokens) < size:
        length = lo + len(tokens) % (hi - lo + 1)
        word = "".join(rng.choice(letters, size=length))
        if word not in tokens:
            tokens.append(word)
    return tokens


def _smooth_frames(rng: np.random.Generator, frames: int, dim: int) -> np.ndarray:
    """Band-limited sinusoids plus noise, like short speech feature tracks."""
    t = np.arange(frames)[:, None]
    freqs = rng.uniform(0.01, 0.1, size=(1, dim))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(1, dim))
    return np.sin(2.0 * np.pi * freqs * t + phases) + 0.1 * rng.normal(size=(frames, dim))


def _ctc_labels(rng: np.random.Generator, vocab: int, length: int, frames: int) -> list:
    labels = rng.integers(0, vocab, size=length).tolist()
    repeats = sum(1 for a, b in zip(labels, labels[1:]) if a == b)
    if length + repeats > frames:
        raise ValueError("CTC labels do not fit the frame count")
    return labels


def _edit(rng: np.random.Generator, words: list, tokens: list, edits: int) -> list:
    out = list(words)
    for _ in range(edits):
        kind = int(rng.integers(3))
        pos = int(rng.integers(len(out) + (kind == 2)))
        if kind == 0 and out:
            out[pos] = tokens[int(rng.integers(len(tokens)))]
        elif kind == 1 and len(out) > 1:
            del out[pos]
        else:
            out.insert(min(pos, len(out)), tokens[int(rng.integers(len(tokens)))])
    return out


def make_eval_fusion(root: str, seed: int) -> Fixture:
    """Score streams, N-best lists and a grouped reference for 100 utterances."""
    p = PARAMS["eval-fusion"]
    rng = _rng(seed, "eval-fusion")
    fx = Fixture(root, p)
    n_utt, n_sys, t_len, v = p["utterances"], p["systems"], p["frames"], p["vocab"]
    # token 0 is the CTC blank "": frames that emit it add no word to a text
    tokens = [""] + _token_inventory(rng, v - 1, *p["token_chars"])
    ids = [f"u{i:03d}" for i in range(n_utt)]
    # the same number of blank frames in every utterance keeps the words per
    # reference, and so the alignment cost, the same for every seed
    truth = rng.integers(1, v, size=(n_utt, t_len))
    blanks = round(p["blank_rate"] * t_len)
    for row in truth:
        row[rng.permutation(t_len)[:blanks]] = 0
    refs = {u: " ".join(tokens[k] for k in row if k) for u, row in zip(ids, truth)}
    severity = rng.choice(p["severity_levels"], size=n_utt)
    seen = rng.choice(p["seen_levels"], size=n_utt)
    fx.paths["ref"] = "ref.tsv"
    write_transcripts_tsv(fx.path("ref"), [
        (u, refs[u], {"severity": str(sv), "seen": str(sn)})
        for u, sv, sn in zip(ids, severity, seen)
    ])

    # each system prefers a wrong token on an independent share of frames
    streams = np.empty((n_sys, n_utt, t_len, v), dtype=np.float32)
    for k in range(n_sys):
        wrong = rng.random((n_utt, t_len)) < p["disagreement_rate"]
        target = np.where(wrong, (truth + rng.integers(1, v, size=truth.shape)) % v, truth)
        logits = rng.normal(size=(n_utt, t_len, v))
        np.put_along_axis(logits, target[..., None],
                          np.take_along_axis(logits, target[..., None], axis=2)
                          + rng.uniform(2.0, 4.0, size=(n_utt, t_len, 1)), axis=2)
        streams[k] = _log_softmax(logits)
        os.makedirs(os.path.join(root, f"sys{k}"))
        entries = []
        for i, u in enumerate(ids):
            rel = os.path.join(f"sys{k}", f"{u}.fss1")
            write_fss1(os.path.join(root, rel), FrameScoreStream(u, tokens, streams[k, i]))
            entries.append({"utt_id": u, "path": rel})
        fx.paths[f"streams{k}"] = f"sys{k}.jsonl"
        _write_manifest(fx.path(f"streams{k}"), entries)

    # N-best lists ranked by a first-pass CTC cost; every cost grows with the
    # number of edits away from the reference, plus per-system noise
    lists = []
    for u in ids:
        ref_words = refs[u].split()
        edits = rng.integers(0, p["nbest_max_edits"] + 1, size=p["nbest"])
        named = {
            "ctc": edits + rng.normal(0.0, 1.2, size=p["nbest"]),
            "attention": 0.5 * edits + rng.normal(0.0, 2.0, size=p["nbest"]),
            "tdnn": 0.8 * edits + rng.normal(0.0, 1.0, size=p["nbest"]),
        }
        named = {k: np.round(c, 6) for k, c in named.items()}
        order = np.argsort(named["ctc"], kind="stable")
        hyps = []
        for j in order:
            words = _edit(rng, ref_words, tokens[1:], int(edits[j]))
            hyps.append(Hypothesis(" ".join(words), words,
                                   {k: float(c[j]) for k, c in named.items()}))
        lists.append(NBestList(u, hyps))
    fx.paths["nbest"] = "nbest.jsonl"
    write_nbest(fx.path("nbest"), lists)

    fx.data.update(ids=ids, tokens=tokens, refs=refs, streams=streams,
                   nbest=[[(h.text, h.scores) for h in nb.hyps] for nb in lists],
                   metadata={u: {"severity": str(sv), "seen": str(sn)}
                             for u, sv, sn in zip(ids, severity, seen)})
    return fx


def _afm1_manifest(root: str, name: str, rng: np.random.Generator, count: int,
                   frames: int, dim: int, period: float, labels=None) -> str:
    """Write `count` AFM1 feature files and a manifest naming them."""
    os.makedirs(os.path.join(root, name))
    entries = []
    for i in range(count):
        rel = os.path.join(name, f"{name}{i:03d}.afm1")
        write_afm1(os.path.join(root, rel),
                   FeatureSequence(_smooth_frames(rng, frames, dim), period, label="SSL"))
        entry = {"utt_id": f"{name}{i:03d}", "path": rel}
        if labels is not None:
            entry["metadata"] = {"labels": labels[i]}
        entries.append(entry)
    _write_manifest(os.path.join(root, f"{name}.jsonl"), entries)
    return f"{name}.jsonl"


def _ssl_config(objective: str, seed: int, epochs: int, model: dict, manifest: str,
                out_model: str, log: str) -> dict:
    return {"objective": objective, "seed": seed, "epochs": epochs,
            "out_model": out_model, "log": log, "model": model,
            "data": {"kind": "manifest", "manifest": manifest}}


def make_ssl_train(root: str, seed: int) -> Fixture:
    """Eight short training utterances and a 100-file extraction manifest."""
    p = PARAMS["ssl-train"]
    rng = _rng(seed, "ssl-train")
    fx = Fixture(root, p)
    labels = [_ctc_labels(rng, p["ctc_vocab"], p["ctc_label_length"], p["train_frames"])
              for _ in range(p["train_utterances"])]
    fx.paths["train"] = _afm1_manifest(root, "train", rng, p["train_utterances"],
                                       p["train_frames"], p["d_in"],
                                       p["frame_period_ms"], labels)
    fx.paths["extract"] = _afm1_manifest(root, "feats", rng, p["extract_files"],
                                         p["extract_frames"], p["d_in"],
                                         p["frame_period_ms"])
    fx.data["label_lengths"] = [len(l) for l in labels]
    fx.data["configs"] = {}
    for objective in ("hubert", "wav2vec2", "data2vec", "ctc"):
        model = {"d_in": p["d_in"], **p["model"]}
        if objective == "hubert":
            model.update(bottleneck_position=p["hubert_bottleneck"]["position"],
                         bottleneck_dim=p["hubert_bottleneck"]["dim"])
        if objective == "ctc":
            model["vocab"] = p["ctc_vocab"]
        fx.data["configs"][objective] = _ssl_config(
            objective, seed, p["epochs"], model, os.path.join(root, fx.paths["train"]),
            f"{objective}.mdl1", f"{objective}.log.jsonl")
    return fx


def make_long_form(root: str, seed: int) -> Fixture:
    """Long CTC utterances, a long extraction manifest and parallel A2A data."""
    p = PARAMS["long-form"]
    rng = _rng(seed, "long-form")
    fx = Fixture(root, p)
    labels = [_ctc_labels(rng, p["ctc_vocab"], p["ctc_label_length"], p["ctc_frames"])
              for _ in range(p["ctc_utterances"])]
    fx.paths["train"] = _afm1_manifest(root, "train", rng, p["ctc_utterances"],
                                       p["ctc_frames"], p["d_in"], p["frame_period_ms"],
                                       labels)
    fx.paths["extract"] = _afm1_manifest(root, "feats", rng, p["extract_files"],
                                         p["extract_frames"], p["d_in"],
                                         p["frame_period_ms"])
    fx.data["label_lengths"] = [len(l) for l in labels]
    model = {"d_in": p["d_in"], **p["model"], "vocab": p["ctc_vocab"],
             "bottleneck_position": p["ctc_bottleneck"]["position"],
             "bottleneck_dim": p["ctc_bottleneck"]["dim"]}
    fx.data["configs"] = {"ctc": _ssl_config(
        "ctc", seed, p["ctc_epochs"], model, os.path.join(root, fx.paths["train"]),
        "ctc.mdl1", "ctc.log.jsonl")}

    # articulatory tracks mapped to acoustics through a fixed tanh transform
    d_art, d_ac, n = p["d_articulatory"], p["d_acoustic"], p["a2a_frames"]
    weight = rng.normal(size=(d_ac, d_art))
    os.makedirs(os.path.join(root, "a2a"))
    entries = []
    t_axis = np.arange(n)[:, None, None]
    for i in range(p["a2a_utterances"]):
        freqs = rng.uniform(0.005, 0.05, size=(1, d_art, 3))
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(1, d_art, 3))
        amps = rng.uniform(0.3, 1.0, size=(1, d_art, 3))
        art = (amps / amps.sum(axis=2, keepdims=True)
               * np.sin(2.0 * np.pi * freqs * t_axis + phases)).sum(axis=2)
        ac = np.tanh(art @ weight.T) + 0.05 * rng.normal(size=(n, d_ac))
        paths = {}
        for kind, frames, label in (("acoustic", ac, "SSL"), ("articulatory", art, "UTI")):
            rel = os.path.join("a2a", f"{kind}{i:03d}.afm1")
            write_afm1(os.path.join(root, rel), FeatureSequence(frames, 10.0, label=label))
            paths[kind] = rel
        entries.append({"utt_id": f"a2a{i:03d}", "paths": paths})
    fx.paths["a2a"] = "a2a.jsonl"
    _write_manifest(fx.path("a2a"), entries)
    fx.data["configs"]["a2a-mtl"] = {
        "objective": "a2a-mtl", "seed": seed, "epochs": p["a2a_epochs"],
        "out_model": "a2a.mdl1", "log": "a2a.log.jsonl",
        "model": {"d_acoustic": d_ac, "d_articulatory": d_art, "mixtures": p["mixtures"],
                  "hidden": p["hidden"], "batch_frames": p["batch_frames"]},
        "data": {"kind": "manifest", "manifest": fx.path("a2a")},
    }
    return fx


MAKERS = {"eval-fusion": make_eval_fusion, "ssl-train": make_ssl_train,
          "long-form": make_long_form}


def make_fixture(workload: str, root: str, seed: int) -> Fixture:
    """Generate the workload's inputs under `root`, which must not exist yet."""
    root = os.path.abspath(root)
    os.makedirs(root)
    return MAKERS[workload](root, seed)
