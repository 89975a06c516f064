"""Outputs that do not depend on threads: the BLAS thread count that each
command pins, and the utterance workers of `extract`."""

import json
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

import asrfuse
from asrfuse import cli
from asrfuse.cli import POOL_MIN_FRAMES, main
from asrfuse.features import FeatureSequence
from asrfuse.formats import write_afm1
from asrfuse.models import save_ssl_checkpoint
from asrfuse.numcore import make_rng
from asrfuse.ssl_objectives.trainers import SslConfig, build_ssl_model

SRC = os.path.dirname(os.path.dirname(os.path.abspath(asrfuse.__file__)))


def write_inputs(root, frames, d_in=6, huge=(), labels=None):
    """One AFM1 of `frames[i]` frames per utterance u<i> under root/feats and
    a manifest naming them.  The utterances in `huge` hold values of ±3.3e38,
    whose features overflow float32."""
    (root / "feats").mkdir(exist_ok=True)
    manifest = root / "feats.jsonl"
    with open(manifest, "w") as fh:
        for i, t in enumerate(frames):
            x = make_rng(100 + i).normal(size=(t, d_in))
            if i in huge:
                x = np.where(x > 0, 3.3e38, -3.3e38)
            path = root / "feats" / f"u{i}.afm1"
            write_afm1(path, FeatureSequence(x, 20.0, label="SSL"))
            entry = {"utt_id": f"u{i}", "path": str(path)}
            if labels is not None:
                entry["metadata"] = {"labels": labels[i]}
            fh.write(json.dumps(entry) + "\n")
    return manifest


def save_model(root, **model):
    """An untrained wav2vec2 model with a bottleneck, whose checkpoint loads."""
    cfg = SslConfig(**{"objective": "wav2vec2", "d_in": 6, "n_blocks": 2, "d_model": 16,
                       "n_heads": 2, "d_ff": 16, "bottleneck_position": "after-last-block",
                       "bottleneck_dim": 8, **model})
    path = root / "model.mdl1"
    save_ssl_checkpoint(path, build_ssl_model(cfg, seed=3), 3, 0)
    return path


def extract(model, manifest, out_dir, dim=8):
    out_dir.mkdir(exist_ok=True)
    return main(["extract", "--model", str(model), "--manifest", str(manifest),
                 "--dim", str(dim), "--out-dir", str(out_dir)])


def afm1_bytes(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


@pytest.fixture
def workers(monkeypatch):
    """Two CPUs with BLAS at one thread, whatever the host; the list records
    how many workers each `extract` ran its utterances on."""
    ran, run_each = [], cli._run_each

    def spy(fn, items, n):
        ran.append(n)
        return run_each(fn, items, n)

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "_blas_at_one_thread", lambda: True)
    monkeypatch.setattr(cli, "_run_each", spy)
    return ran


class TestExtractWorkers:
    @pytest.mark.parametrize("frames, expected", [
        ([POOL_MIN_FRAMES] * 3, 2),
        ([POOL_MIN_FRAMES - 30, POOL_MIN_FRAMES + 32], 2),
        ([POOL_MIN_FRAMES - 1] * 3, 1),
        ([POOL_MIN_FRAMES + 40], 1),  # one utterance needs one worker
    ], ids=["at-threshold", "mean-at-threshold", "below", "one-utterance"])
    def test_utterances_of_128_frames_spread_over_the_cpus(self, tmp_path, workers,
                                                           frames, expected):
        assert extract(save_model(tmp_path), write_inputs(tmp_path, frames),
                       tmp_path / "out") == 0
        assert workers == [expected]

    def test_pooled_and_one_worker_outputs_byte_identical(self, tmp_path, workers,
                                                          monkeypatch):
        model = save_model(tmp_path)
        manifest = write_inputs(tmp_path, [POOL_MIN_FRAMES, 200, 150, 131, 170])
        assert extract(model, manifest, tmp_path / "pooled") == 0
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        assert extract(model, manifest, tmp_path / "serial") == 0
        assert workers == [2, 1]
        pooled = afm1_bytes(tmp_path / "pooled")
        assert list(pooled) == [f"u{i}.afm1" for i in range(5)]
        assert pooled == afm1_bytes(tmp_path / "serial")

    def test_many_workers_switching_often_commit_every_file(self, tmp_path, workers,
                                                             monkeypatch):
        # more workers than cores, and a thread switch every microsecond: a
        # lost append to the shared stage would lose that utterance's file
        model = save_model(tmp_path)
        manifest = write_inputs(tmp_path, [POOL_MIN_FRAMES] * 24)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert extract(model, manifest, tmp_path / "pooled") == 0
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        assert extract(model, manifest, tmp_path / "serial") == 0
        assert workers == [8, 1]
        assert afm1_bytes(tmp_path / "pooled") == afm1_bytes(tmp_path / "serial")
        assert len(afm1_bytes(tmp_path / "pooled")) == 24

    @pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "pooled"])
    def test_unwritable_utterance_leaves_out_dir_unchanged(self, tmp_path, capsys, workers,
                                                           monkeypatch, cpus):
        # the second utterance's features do not fit float32: no AFM1 may stay behind
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        model = save_model(tmp_path, bottleneck_position="after-encoder")
        manifest = write_inputs(tmp_path, [POOL_MIN_FRAMES] * 2, huge={1})
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        (out_dir / "kept.txt").write_text("old")
        assert extract(model, manifest, out_dir) == 2
        assert workers == [cpus]
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out_dir / 'u1.afm1'}: feature ")
        assert err.rstrip().endswith("does not fit float32")
        assert afm1_bytes(out_dir) == {"kept.txt": b"old"}

    def test_first_failure_in_manifest_order_is_reported(self, tmp_path, capsys, workers):
        # u3 is the shorter, so it is likely to fail first
        model = save_model(tmp_path, bottleneck_position="after-encoder")
        manifest = write_inputs(tmp_path, [POOL_MIN_FRAMES, POOL_MIN_FRAMES,
                                           4 * POOL_MIN_FRAMES, POOL_MIN_FRAMES], huge={2, 3})
        assert extract(model, manifest, tmp_path / "out") == 2
        assert workers == [2]
        assert f"{tmp_path / 'out' / 'u2.afm1'}: feature " in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    def test_pooled_files_follow_the_umask_and_keep_it(self, tmp_path, workers):
        model = save_model(tmp_path)
        manifest = write_inputs(tmp_path, [POOL_MIN_FRAMES] * 4)
        old = os.umask(0o022)
        try:
            assert extract(model, manifest, tmp_path / "out") == 0
            after = os.umask(0o022)
        finally:
            os.umask(old)
        assert workers == [2] and after == 0o022
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in (tmp_path / "out").iterdir()}
        assert modes == {f"u{i}.afm1": 0o644 for i in range(4)}


@pytest.mark.skipif(cli._blas_threads() is None, reason="numpy links another BLAS")
def test_main_pins_blas_to_one_thread_and_restores_it(tmp_path, monkeypatch):
    get, set_ = cli._blas_threads()
    during, run_each = [], cli._run_each

    def spy(*args):
        during.append(get())
        return run_each(*args)

    monkeypatch.setattr(cli, "_run_each", spy)
    before = get()
    set_(2)
    try:
        assert extract(save_model(tmp_path), write_inputs(tmp_path, [10]),
                       tmp_path / "out") == 0
        assert during == [1] and get() == 2
    finally:
        set_(before)


# A long-form run as the benchmark's: T=400 utterances through a d_model 64,
# 4-block model, where BLAS splits products over two threads.
LONG_FORM = {"d_in": 8, "n_blocks": 4, "d_model": 64, "n_heads": 4, "d_ff": 128,
             "vocab": 20, "bottleneck_position": "after-last-block", "bottleneck_dim": 256}

RUN = """
import sys
from asrfuse.cli import main
root, manifest = sys.argv[1:]
sys.exit(main(["train", "--config", root + "/cfg.json"])
         or main(["extract", "--model", root + "/ctc.mdl1", "--manifest", manifest,
                  "--out-dir", root + "/out"]))
"""


def test_train_and_extract_bytes_do_not_depend_on_blas_threads(tmp_path):
    rng = make_rng(5)
    labels = [[int(x) for x in rng.integers(1, 20, size=50)] for _ in range(2)]
    manifest = write_inputs(tmp_path, [400, 400], d_in=8, labels=labels)
    outputs = {}
    for threads in ("1", "2"):
        root = tmp_path / f"threads{threads}"
        (root / "out").mkdir(parents=True)
        (root / "cfg.json").write_text(json.dumps({
            "objective": "ctc", "seed": 5, "epochs": 1, "model": LONG_FORM,
            "out_model": str(root / "ctc.mdl1"), "log": str(root / "log.jsonl"),
            "data": {"kind": "manifest", "manifest": str(manifest)}}))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
        subprocess.run([sys.executable, "-c", RUN, str(root), str(manifest)], env=env,
                       check=True, timeout=300)
        outputs[threads] = {str(p.relative_to(root)): p.read_bytes()
                            for p in sorted(root.rglob("*")) if p.is_file()}
    assert sorted(outputs["1"]) == ["cfg.json", "ctc.mdl1", "log.jsonl",
                                    "out/u0.afm1", "out/u1.afm1"]
    differ = [name for name in outputs["1"] if name != "cfg.json"
              and outputs["1"][name] != outputs["2"][name]]
    assert differ == []

