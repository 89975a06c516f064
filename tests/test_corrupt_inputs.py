"""Corrupt input files through `asrfuse.cli.main`.

Each command starts from small valid inputs that exit 0.  Then one input
file is corrupted: truncated at byte offsets, given a wrong magic, a NaN
payload, a non-finite frame period or a 0xff byte, given an MDL1 header
that breaks its layout or its model config or blobs that the model does
not list, or replaced by a directory.
Every case must exit 2 with no traceback, leave the output directory as it
was, and name the file, or the manifest and the utterance when a manifest
lists the file; a header fault must also name its key or blob.  Offsets
are seeded; stdlib and numpy only.
"""

import json
import math
import random
import struct

import pytest

from asrfuse.cli import main
from asrfuse.combine import FrameScoreStream, Hypothesis, NBestList
from asrfuse.features import FeatureSequence
from asrfuse.formats import write_afm1, write_fss1, write_nbest, write_transcripts_tsv
from asrfuse.models import save_ssl_checkpoint
from asrfuse.numcore import make_rng
from asrfuse.ssl_objectives.trainers import SslConfig, build_ssl_model

SEED = 13
NAN_F32 = struct.pack("<f", float("nan"))
INF_F32 = struct.pack("<f", float("inf"))


def write_lines(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def afm1_manifest(root, d):
    """A two-utterance AFM1 manifest; returns (manifest, utt1's file)."""
    feats = root / "feats"
    feats.mkdir()
    for i in range(2):
        write_afm1(feats / f"utt{i}.afm1",
                   FeatureSequence(make_rng(i).normal(size=(4, d)), 20.0, label="SSL"))
    manifest = root / "feats.jsonl"
    write_lines(manifest, [{"utt_id": f"utt{i}", "path": str(feats / f"utt{i}.afm1")}
                           for i in range(2)])
    return manifest, feats / "utt1.afm1"


def bottleneck_model(path):
    cfg = SslConfig(objective="wav2vec2", d_in=2, n_blocks=1, d_model=4, n_heads=1, d_ff=4,
                    num_codebooks=1, entries=2, code_dim=2,
                    bottleneck_position="after-last-block", bottleneck_dim=2)
    save_ssl_checkpoint(path, build_ssl_model(cfg, seed=3), 3, 0)
    return path


def extract_argv(root, model, manifest):
    return ["extract", "--model", str(model), "--manifest", str(manifest),
            "--dim", "2", "--out-dir", str(root / "out")]


def train_inputs(root):
    manifest, target = afm1_manifest(root, d=4)
    config = root / "cfg.json"
    config.write_text(json.dumps({
        "objective": "hubert", "seed": 11, "epochs": 1, "out_model": str(root / "m.mdl1"),
        "log": str(root / "log.jsonl"),
        "model": {"d_in": 4, "n_blocks": 1, "d_model": 4, "n_heads": 1, "d_ff": 4,
                  "num_codebooks": 1, "entries": 2, "code_dim": 2, "mask_span": 2},
        "data": {"kind": "manifest", "manifest": str(manifest)},
    }))
    return ["train", "--config", str(config)], target, f"{manifest}: utt1: "


def extract_inputs(root):
    manifest, target = afm1_manifest(root, d=2)
    argv = extract_argv(root, bottleneck_model(root / "m.mdl1"), manifest)
    return argv, target, f"{manifest}: utt1: "


def model_inputs(root):
    manifest, _ = afm1_manifest(root, d=2)
    model = bottleneck_model(root / "m.mdl1")
    return extract_argv(root, model, manifest), model, str(model)


def stream_inputs(root):
    manifests = []
    for k in range(2):
        (root / f"sys{k}").mkdir()
        for i in range(2):
            scores = make_rng(10 * k + i).normal(size=(2, 2))
            write_fss1(root / f"sys{k}" / f"u{i}.fss1", FrameScoreStream(f"u{i}", ["a", "b"],
                                                                         scores))
        manifests.append(root / f"sys{k}.jsonl")
        write_lines(manifests[-1], [{"utt_id": f"u{i}", "path": f"sys{k}/u{i}.fss1"}
                                    for i in range(2)])
    argv = ["combine", "--mode", "frame-joint", "--streams", *map(str, manifests),
            "--weights", "1:1", "--out-dir", str(root / "out"),
            "--hyp-out", str(root / "out" / "hyp.tsv")]
    return argv, root / "sys1" / "u1.fss1", f"{manifests[1]}: u1: "


def nbest_inputs(root):
    nbest = root / "nbest.jsonl"
    write_nbest(nbest, [NBestList(u, [Hypothesis("a b", ["a", "b"], {"ctc": 1.0}),
                                      Hypothesis("a", ["a"], {"ctc": 2.0})])
                        for u in ("u0", "u1")])
    argv = ["combine", "--mode", "rescore", "--nbest", str(nbest), "--weights", "ctc:1",
            "--out", str(root / "out" / "rescored.jsonl"),
            "--hyp-out", str(root / "out" / "hyp.tsv")]
    return argv, nbest, str(nbest)


def tsv_inputs(root):
    hyp, ref = root / "hyp.tsv", root / "ref.tsv"
    write_transcripts_tsv(hyp, [("u0", "a b", {}), ("u1", "b", {})])
    write_transcripts_tsv(ref, [("u0", "a b", {"spk": "s1"}), ("u1", "a", {"spk": "s2"})])
    argv = ["score", "--hyp", str(hyp), "--ref", str(ref), "--groups", "spk",
            "--out", str(root / "out" / "report.json")]
    return argv, hyp, str(hyp)


def truncations(data):
    return [(f"truncated at {n}", data[:n]) for n in range(len(data))]


def mdl1_truncations(data):
    """A seeded sample of offsets, plus each boundary of the magic, the
    header length and the JSON header."""
    (header_len,) = struct.unpack("<I", data[4:8])
    offsets = set(random.Random(SEED).sample(range(len(data)), 24))
    offsets |= {0, 4, 8, 8 + header_len, len(data) - 1}
    return [(f"truncated at {n}", data[:n]) for n in sorted(offsets)]


def replaced(data, offset, new):
    return data[:offset] + new + data[offset + len(new):]


def binary_cases(data, truncate, nan, ff_offset):
    """Truncations, a wrong magic, a NaN in the last value of the payload,
    and 0xff at `ff_offset`."""
    return truncate(data) + [
        ("wrong magic", replaced(data, 0, b"XXXX")),
        ("NaN payload", replaced(data, len(data) - len(nan), nan)),
        (f"0xff at {ff_offset}", replaced(data, ff_offset, b"\xff")),
    ]


def period_cases(data):
    """A NaN and an infinite frame period; AFM1 and FSS1 store it at byte 12."""
    return [(f"{name} period", replaced(data, 12, value), "frame_period_ms")
            for name, value in (("NaN", NAN_F32), ("inf", INF_F32))]


def with_header(data, edit):
    """MDL1 bytes whose JSON header is `edit(header)`, blobs unchanged."""
    (header_len,) = struct.unpack("<I", data[4:8])
    blob = json.dumps(edit(json.loads(data[8:8 + header_len]))).encode()
    return data[:4] + struct.pack("<I", len(blob)) + blob + data[8 + header_len:]


def with_blob(data, name, shape):
    """MDL1 bytes with one more blob, of zeros, named `name` at `shape`."""
    def edit(header):
        header["params"].append({"name": name, "shape": list(shape)})
        return header
    return with_header(data, edit) + bytes(8 * math.prod(shape))


def changed(keys, value):
    """An edit that sets, or with `value` None deletes, the header item at `keys`."""
    def edit(header):
        *parents, last = keys
        node = header
        for key in parents:
            node = node[key]
        if value is None:
            del node[last]
        else:
            node[last] = value
        return header
    return edit


def header_cases(data):
    """(case, MDL1 bytes, the key or blob its error must name) for each header
    or layout fault: a model config outside its schema or rules, a missing
    header key, a `params` manifest that is not a list of objects with unique
    string names and non-negative integer shapes, and blobs that do not fit
    the model: missing, of another shape, or not part of it."""
    config = ("hyperparameters", "config")
    faults = [
        ("d_model 0", changed((*config, "d_model"), 0), "hyperparameters.config.d_model"),
        ("n_heads 0", changed((*config, "n_heads"), 0), "hyperparameters.config.n_heads"),
        ("dropout 2.0", changed((*config, "dropout"), 2.0), "hyperparameters.config.dropout"),
        ("d_model not a multiple of n_heads", changed((*config, "n_heads"), 3),
         "hyperparameters.config.d_model must be a multiple of hyperparameters.config.n_heads"),
        ("header an array", lambda h: [h], "MDL1 header"),
        ("header a string", lambda h: "MDL1", "MDL1 header"),
        ("params an object", changed(("params",), {}), "params"),
        ("params a number", changed(("params",), 1), "params"),
        ("params entry a number", changed(("params", 0), 1), "params[0]"),
        ("shape a string", changed(("params", 0, "shape"), "ab"), "params[0].shape"),
        ("negative shape", changed(("params", 0, "shape"), [-1]), "params[0].shape"),
        ("name a number", changed(("params", 0, "name"), 1), "params[0].name"),
        ("repeated name", changed(("params", 1, "name"), "mask_emb"), "params[1].name"),
        ("renamed blob", changed(("params", 0, "name"), "mask"), "MDL1 blob mask_emb"),
        ("d_model off the blobs", changed((*config, "d_model"), 8), "MDL1 blob net."),
        ("seed a string", changed(("seed",), "x"), "seed"),
    ] + [(f"no {key[-1]}", changed(key, None), ".".join(key))
         for key in [("params",), ("kind",), ("seed",), ("hyperparameters",), config,
                     ("hyperparameters", "epochs_completed")]]
    blobs = [
        ("stray blob", with_blob(data, "foo", (1,)), "MDL1 blob foo is not part of this SSL model"),
        ("k-means book in a wav2vec2 file", with_blob(data, "kmeans.g0", (2, 2)),
         "MDL1 blob kmeans.g0 is not part of this SSL model"),
        ("optimizer step without moments", with_blob(data, "opt.step", (1,)),
         "MDL1 blob opt.m0 must be present with shape [2]"),
    ]
    return [(case, with_header(data, edit), key) for case, edit, key in faults] + blobs


# the 0xff byte lands on the high byte of AFM1's row count, on the first byte
# of the FSS1 token inventory and of the MDL1 JSON header, and inside text
CASES = {
    "train-afm1": (train_inputs, lambda d: binary_cases(d, truncations, NAN_F32, 7)
                   + period_cases(d)),
    "extract-afm1": (extract_inputs, lambda d: binary_cases(d, truncations, NAN_F32, 7)
                     + period_cases(d)),
    "combine-fss1": (stream_inputs, lambda d: binary_cases(d, truncations, NAN_F32, 20) + [
        ("numbers for tokens", d.replace(b'["a", "b"]', b"[1, 2]    ")),
    ] + period_cases(d)),
    "extract-mdl1": (model_inputs, lambda d: binary_cases(
        d, mdl1_truncations, struct.pack("<d", float("nan")), 8) + header_cases(d)),
    "rescore-nbest": (nbest_inputs, lambda d: [
        ("NaN score", d.replace(b"2.0", b"NaN")),
        ("0xff at 2", replaced(d, 2, b"\xff")),
    ]),
    "score-tsv": (tsv_inputs, lambda d: [
        ("wrong header", d.replace(b"utt_id", b"utt-id")),
        ("0xff at 0", replaced(d, 0, b"\xff")),
    ]),
}


def snapshot(root):
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in sorted(root.rglob("*"))}


@pytest.mark.parametrize("command", sorted(CASES))
def test_corrupt_input_exits_2_naming_it(tmp_path, capsys, command):
    make_inputs, make_cases = CASES[command]
    (tmp_path / "out").mkdir()
    argv, target, name = make_inputs(tmp_path)
    assert main(argv) == 0, f"{command}: the valid inputs must pass"
    data = target.read_bytes()
    cases = make_cases(data) + [("a directory", None)]
    for case, corrupt, *key in cases:
        if corrupt is None:
            target.unlink()
            target.mkdir()
        else:
            assert corrupt != data, f"{command}, {case}: the input did not change"
            target.write_bytes(corrupt)
        before = snapshot(tmp_path)
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2, f"{command}, {case}: exit {code}, stderr {err!r}"
        assert "Traceback" not in err, f"{command}, {case}"
        for named in [name, *key]:
            assert named in err, f"{command}, {case}: {err!r} does not name {named!r}"
        assert snapshot(tmp_path) == before, f"{command}, {case}: outputs changed"
    assert target.is_dir()


def test_config_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys):
    argv, _, _ = train_inputs(tmp_path)
    config = tmp_path / "cfg.json"
    config.write_bytes(replaced(config.read_bytes(), 1, b"\xff"))
    before = snapshot(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {config}: invalid JSON: ")
    assert snapshot(tmp_path) == before


def with_line(path, line_no, edit):
    """Rewrite line `line_no` of a JSON Lines file as `edit` of its object."""
    lines = path.read_text().splitlines()
    obj = json.loads(lines[line_no - 1])
    edit(obj)
    lines[line_no - 1] = json.dumps(obj)  # escapes a lone surrogate as \udXXX
    path.write_text("\n".join(lines) + "\n")


def lone_surrogate_in_nbest(root):
    argv, nbest, _ = nbest_inputs(root)
    with_line(nbest, 2, lambda obj: obj["hyps"][0].update(text="a\ud800"))
    return argv, f"{nbest}:2", "a\ud800"


def lone_surrogate_in_manifest(root):
    argv, _, _ = extract_inputs(root)
    manifest = root / "feats.jsonl"
    with_line(manifest, 2, lambda obj: obj.update(utt_id="utt\ud800"))
    return argv, f"{manifest}:2", "utt\ud800"


def lone_surrogate_in_config(root):
    argv, _, _ = train_inputs(root)
    config = root / "cfg.json"
    out_model = str(root / "m\udfff.mdl1")
    config.write_text(json.dumps({**json.loads(config.read_text()), "out_model": out_model}))
    return argv, str(config), out_model


@pytest.mark.parametrize("make_inputs", [lone_surrogate_in_nbest, lone_surrogate_in_manifest,
                                         lone_surrogate_in_config],
                         ids=["nbest-text", "manifest-utt-id", "config-out-model"])
def test_lone_surrogate_exits_2_naming_it(tmp_path, capsys, make_inputs):
    # no writer, file name or path can encode the string that the escape spells
    (tmp_path / "out").mkdir()
    argv, where, value = make_inputs(tmp_path)
    before = snapshot(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == (f"error: {where}: invalid JSON: string {value!r} holds "
                                       "a lone UTF-16 surrogate, which UTF-8 cannot encode\n")
    assert snapshot(tmp_path) == before
