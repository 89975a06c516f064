"""Command-line surface tests: exit codes, file outputs, determinism."""

import json

import numpy as np
import pytest

from asrfuse.cli import main
from asrfuse.features import FeatureSequence
from asrfuse.combine import FrameScoreStream, Hypothesis, NBestList
from asrfuse.formats import (
    read_afm1,
    read_fss1,
    read_nbest,
    write_afm1,
    write_fss1,
    write_nbest,
    write_transcripts_tsv,
)
from asrfuse.numcore import make_rng


def write_config(path, **overrides):
    cfg = {
        "objective": "hubert",
        "seed": 11,
        "epochs": 2,
        "lr": 3e-3,
        "out_model": str(path.parent / "model.mdl1"),
        "log": str(path.parent / "log.jsonl"),
        "model": {"d_in": 4, "n_blocks": 2, "d_model": 8, "n_heads": 2, "d_ff": 16,
                  "num_codebooks": 1, "entries": 3, "code_dim": 4,
                  "mask_probability": 0.3, "mask_span": 2},
        "data": {"kind": "synthetic", "n_utts": 2, "frames_per_utt": 24},
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return cfg


def write_a2a_config(path, **overrides):
    cfg = {
        "objective": "a2a-mtl", "seed": 5, "epochs": 4, "lr": 5e-3,
        "out_model": str(path.parent / "out.mdl1"),
        "model": {"d_acoustic": 4, "d_articulatory": 2, "mixtures": 2,
                  "hidden": 8, "batch_frames": 32},
        "data": {"kind": "synthetic", "num_frames": 64},
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return cfg


def write_manifest(path, entries):
    with open(path, "w") as fh:
        for e in entries:
            fh.write(json.dumps(e) + "\n")


class TestTrainCommand:
    def test_train_writes_model_and_log(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "model.mdl1").exists()
        log = [json.loads(l) for l in (tmp_path / "log.jsonl").read_text().splitlines()]
        assert [e["epoch"] for e in log] == [0, 1]

    def test_same_config_seed_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, out_model=str(tmp_path / "m1.mdl1"))
        main(["train", "--config", str(cfg_path)])
        first = (tmp_path / "m1.mdl1").read_bytes()
        write_config(cfg_path, out_model=str(tmp_path / "m2.mdl1"))
        main(["train", "--config", str(cfg_path)])
        assert first == (tmp_path / "m2.mdl1").read_bytes()

    def test_zero_epochs_keeps_initialization(self, tmp_path):
        from asrfuse.models import load_ssl_checkpoint
        from asrfuse.ssl_objectives.trainers import SslConfig, build_ssl_model

        cfg_path = tmp_path / "cfg.json"
        raw = write_config(cfg_path, epochs=0)
        assert main(["train", "--config", str(cfg_path)]) == 0
        loaded, _, _ = load_ssl_checkpoint(tmp_path / "model.mdl1")
        fresh = build_ssl_model(SslConfig(objective="hubert", **raw["model"]), seed=11)
        for (_, a), (_, b) in zip(loaded.named_parameters(), fresh.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_resume_reproduces_trajectory(self, tmp_path):
        # an interrupted 4-epoch run (stopped at 2) resumed to completion must
        # match the uninterrupted run byte for byte
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, epochs=4, out_model=str(tmp_path / "straight.mdl1"))
        main(["train", "--config", str(cfg_path)])
        write_config(cfg_path, epochs=4, stop_after_epoch=2,
                     out_model=str(tmp_path / "half.mdl1"))
        main(["train", "--config", str(cfg_path)])
        write_config(cfg_path, epochs=4, out_model=str(tmp_path / "resumed.mdl1"),
                     resume=str(tmp_path / "half.mdl1"))
        main(["train", "--config", str(cfg_path)])
        assert (tmp_path / "straight.mdl1").read_bytes() == \
            (tmp_path / "resumed.mdl1").read_bytes()

    def test_a2a_resume_reproduces_trajectory(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_a2a_config(cfg_path, out_model=str(tmp_path / "straight.mdl1"))
        main(["train", "--config", str(cfg_path)])
        write_a2a_config(cfg_path, out_model=str(tmp_path / "half.mdl1"),
                         stop_after_epoch=2)
        main(["train", "--config", str(cfg_path)])
        write_a2a_config(cfg_path, out_model=str(tmp_path / "resumed.mdl1"),
                         resume=str(tmp_path / "half.mdl1"))
        main(["train", "--config", str(cfg_path)])
        assert (tmp_path / "straight.mdl1").read_bytes() == \
            (tmp_path / "resumed.mdl1").read_bytes()

    def test_resume_with_other_seed_rejected(self, tmp_path, monkeypatch, capsys):
        cfg_path = tmp_path / "cfg.json"
        half = tmp_path / "half.mdl1"
        write_config(cfg_path, epochs=4, stop_after_epoch=2, out_model=str(half))
        assert main(["train", "--config", str(cfg_path)]) == 0
        monkeypatch.setenv("ASRFUSE_SEED", "99")
        out = tmp_path / "resumed.mdl1"
        write_config(cfg_path, epochs=4, out_model=str(out), resume=str(half))
        assert main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert str(half) in err and "11" in err and "99" in err
        assert not out.exists()

    @pytest.mark.parametrize("change", [{"mixtures": 3}, {"hidden": 16}])
    def test_a2a_resume_with_other_model_rejected(self, tmp_path, capsys, change):
        cfg_path = tmp_path / "cfg.json"
        half = tmp_path / "half.mdl1"
        base = write_a2a_config(cfg_path, out_model=str(half), stop_after_epoch=2)
        assert main(["train", "--config", str(cfg_path)]) == 0
        out = tmp_path / "resumed.mdl1"
        write_a2a_config(cfg_path, out_model=str(out), resume=str(half),
                         model={**base["model"], **change})
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert str(half) in capsys.readouterr().err
        assert not out.exists()

    def test_a2a_resume_without_hidden_layers(self, tmp_path):
        # the checkpoint stores hidden=0 for n_hidden=0, the run config keeps
        # the default hidden=64: the two describe the same head
        model = {"d_acoustic": 4, "d_articulatory": 2, "mixtures": 2,
                 "n_hidden": 0, "batch_frames": 32}
        cfg_path = tmp_path / "cfg.json"
        write_a2a_config(cfg_path, model=model, out_model=str(tmp_path / "straight.mdl1"))
        main(["train", "--config", str(cfg_path)])
        write_a2a_config(cfg_path, model=model, out_model=str(tmp_path / "half.mdl1"),
                         stop_after_epoch=2)
        main(["train", "--config", str(cfg_path)])
        write_a2a_config(cfg_path, model=model, out_model=str(tmp_path / "resumed.mdl1"),
                         resume=str(tmp_path / "half.mdl1"))
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "straight.mdl1").read_bytes() == \
            (tmp_path / "resumed.mdl1").read_bytes()

    def test_non_finite_gradient_names_its_epoch(self, tmp_path, monkeypatch, capsys):
        from asrfuse.numcore import Adam

        original, calls = Adam.step, []

        def step(self, params, grads=None):
            calls.append(None)
            if len(calls) == 5:  # 2 utterances per epoch: the first step of epoch 2
                grads = [np.full_like(p.data, np.nan) for p in params]
            return original(self, params, grads)

        monkeypatch.setattr(Adam, "step", step)
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, epochs=4)
        assert main(["train", "--config", str(cfg_path)]) == 3
        assert "epoch 2:" in capsys.readouterr().err
        assert not (tmp_path / "model.mdl1").exists()

    def test_a2a_mtl_objective_monotone_log(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg = {
            "objective": "a2a-mtl",
            "seed": 3,
            "epochs": 6,
            "lr": 5e-3,
            "out_model": str(tmp_path / "a2a.mdl1"),
            "log": str(tmp_path / "a2a_log.jsonl"),
            "model": {"d_acoustic": 4, "d_articulatory": 2, "mixtures": 2,
                      "hidden": 32, "batch_frames": 128},
            "data": {"kind": "synthetic", "num_frames": 512},
        }
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path)]) == 0
        log = [json.loads(l) for l in (tmp_path / "a2a_log.jsonl").read_text().splitlines()]
        losses = [e["loss"] for e in log]
        assert all(a > b for a, b in zip(losses, losses[1:])), losses

    def test_invalid_objective_exit_2(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, objective="rover")
        assert main(["train", "--config", str(cfg_path)]) == 2

    def test_unknown_key_exit_2(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, extra_knob=1)
        assert main(["train", "--config", str(cfg_path)]) == 2

    def test_missing_seed_exit_2(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path)
        del cfg["seed"]
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path)]) == 2

    def test_env_seed_override(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, out_model=str(tmp_path / "s11.mdl1"))
        main(["train", "--config", str(cfg_path)])
        monkeypatch.setenv("ASRFUSE_SEED", "99")
        write_config(cfg_path, out_model=str(tmp_path / "s99.mdl1"))
        main(["train", "--config", str(cfg_path)])
        assert (tmp_path / "s11.mdl1").read_bytes() != (tmp_path / "s99.mdl1").read_bytes()


def train_bottleneck_model(tmp_path, dim=8, position="after-last-block"):
    cfg_path = tmp_path / "bn_cfg.json"
    cfg = {
        "objective": "hubert",
        "seed": 21,
        "epochs": 1,
        "lr": 3e-3,
        "out_model": str(tmp_path / "bn_model.mdl1"),
        "model": {"d_in": 6, "n_blocks": 2, "d_model": 8, "n_heads": 2, "d_ff": 16,
                  "num_codebooks": 1, "entries": 3, "code_dim": 4,
                  "mask_probability": 0.3, "mask_span": 2,
                  "bottleneck_position": position, "bottleneck_dim": dim},
        "data": {"kind": "synthetic", "n_utts": 1, "frames_per_utt": 24},
    }
    cfg_path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(cfg_path)]) == 0
    return tmp_path / "bn_model.mdl1"


def make_feature_inputs(tmp_path, n=2, t=10, d=6):
    feat_dir = tmp_path / "feats"
    feat_dir.mkdir(exist_ok=True)
    entries = []
    for i in range(n):
        seq = FeatureSequence(make_rng(100 + i).normal(size=(t, d)), 20.0, label="SSL")
        path = feat_dir / f"utt{i}.afm1"
        write_afm1(path, seq)
        entries.append({"utt_id": f"utt{i}", "path": str(path)})
    manifest = tmp_path / "feats.jsonl"
    write_manifest(manifest, entries)
    return manifest


class TestExtractCommand:
    def test_extract_writes_afm1_at_10ms(self, tmp_path):
        model = train_bottleneck_model(tmp_path)
        manifest = make_feature_inputs(tmp_path)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(["extract", "--model", str(model), "--manifest", str(manifest),
                     "--position", "after-last-block", "--dim", "8",
                     "--out-dir", str(out_dir)]) == 0
        seq = read_afm1(out_dir / "utt0.afm1")
        assert seq.frames.shape == (20, 8)
        assert seq.frame_period_ms == 10.0

    def test_re_extraction_byte_identical(self, tmp_path):
        model = train_bottleneck_model(tmp_path)
        manifest = make_feature_inputs(tmp_path, n=1)
        d1, d2 = tmp_path / "o1", tmp_path / "o2"
        d1.mkdir(), d2.mkdir()
        for d in (d1, d2):
            main(["extract", "--model", str(model), "--manifest", str(manifest),
                  "--position", "after-last-block", "--dim", "8", "--out-dir", str(d)])
        assert (d1 / "utt0.afm1").read_bytes() == (d2 / "utt0.afm1").read_bytes()

    def test_worker_pool_output_matches_sequential(self, tmp_path):
        model = train_bottleneck_model(tmp_path)
        manifest = make_feature_inputs(tmp_path, n=4)
        seq_dir, par_dir = tmp_path / "seq", tmp_path / "par"
        seq_dir.mkdir(), par_dir.mkdir()
        main(["extract", "--model", str(model), "--manifest", str(manifest),
              "--position", "after-last-block", "--dim", "8",
              "--out-dir", str(seq_dir)])
        main(["extract", "--model", str(model), "--manifest", str(manifest),
              "--position", "after-last-block", "--dim", "8",
              "--out-dir", str(par_dir), "--workers", "3"])
        for i in range(4):
            assert (seq_dir / f"utt{i}.afm1").read_bytes() == \
                (par_dir / f"utt{i}.afm1").read_bytes()

    def test_missing_bottleneck_lists_available(self, tmp_path, capsys):
        model = train_bottleneck_model(tmp_path, position="after-last-block")
        manifest = make_feature_inputs(tmp_path, n=1)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code = main(["extract", "--model", str(model), "--manifest", str(manifest),
                     "--position", "after-encoder", "--dim", "8",
                     "--out-dir", str(out_dir)])
        assert code == 2
        assert "after-last-block" in capsys.readouterr().err

    def test_empty_manifest_success_with_warning(self, tmp_path, capsys):
        model = train_bottleneck_model(tmp_path)
        manifest = tmp_path / "empty.jsonl"
        manifest.write_text("")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(["extract", "--model", str(model), "--manifest", str(manifest),
                     "--position", "after-last-block", "--dim", "8",
                     "--out-dir", str(out_dir)]) == 0
        assert "warning" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []


def make_stream_manifests(tmp_path, scores_by_system, tokens=("a", "b")):
    manifests = []
    for k, per_utt in enumerate(scores_by_system):
        d = tmp_path / f"sys{k}"
        d.mkdir(exist_ok=True)
        entries = []
        for utt_id, scores in per_utt.items():
            stream = FrameScoreStream(utt_id, list(tokens), np.asarray(scores, float))
            path = d / f"{utt_id}.fss1"
            write_fss1(path, stream)
            entries.append({"utt_id": utt_id, "path": str(path)})
        manifest = tmp_path / f"sys{k}.jsonl"
        write_manifest(manifest, entries)
        manifests.append(str(manifest))
    return manifests


class TestCombineCommand:
    def test_frame_joint_with_preset(self, tmp_path):
        scores = [
            {"u1": [[-1.0, -2.0], [-3.0, -1.0]]},
            {"u1": [[-2.0, -1.0], [-1.0, -2.0]]},
            {"u1": [[-1.5, -1.5], [-2.0, -1.0]]},
        ]
        manifests = make_stream_manifests(tmp_path, scores)
        out_dir = tmp_path / "fused"
        out_dir.mkdir()
        hyp_out = tmp_path / "hyp.tsv"
        assert main(["combine", "--mode", "frame-joint", "--streams", *manifests,
                     "--weights", "uaspeech-3way", "--out-dir", str(out_dir),
                     "--hyp-out", str(hyp_out)]) == 0
        fused = read_fss1(out_dir / "u1.fss1")
        expected = (8 * np.array(scores[0]["u1"]) + 5 * np.array(scores[1]["u1"])
                    + 5 * np.array(scores[2]["u1"]))
        np.testing.assert_allclose(fused.scores, expected.astype(np.float32))

    def test_frame_joint_tune_recovers_even_mixture(self, tmp_path):
        # frame 0 needs w1 < 5/9, frame 1 needs w1 > 4/9: only (0.5, 0.5) works
        scores = [
            {"u1": [[-2.0, 0.0], [-2.5, 0.0]]},
            {"u1": [[0.0, -2.5], [0.0, -2.0]]},
        ]
        manifests = make_stream_manifests(tmp_path, scores)
        ref = tmp_path / "dev_ref.tsv"
        write_transcripts_tsv(ref, [("u1", "a b", {})])
        out_dir = tmp_path / "fused"
        out_dir.mkdir()
        code = main(["combine", "--mode", "frame-joint", "--streams", *manifests,
                     "--weights", "tune", "--dev-ref", str(ref),
                     "--out-dir", str(out_dir), "--json"])
        assert code == 0

    def test_frame_joint_tune_reports_weights(self, tmp_path, capsys):
        scores = [
            {"u1": [[-2.0, 0.0], [-2.5, 0.0]]},
            {"u1": [[0.0, -2.5], [0.0, -2.0]]},
        ]
        manifests = make_stream_manifests(tmp_path, scores)
        ref = tmp_path / "dev_ref.tsv"
        write_transcripts_tsv(ref, [("u1", "a b", {})])
        out_dir = tmp_path / "fused2"
        out_dir.mkdir()
        main(["combine", "--mode", "frame-joint", "--streams", *manifests,
              "--weights", "tune", "--dev-ref", str(ref), "--out-dir", str(out_dir),
              "--json"])
        report = json.loads(capsys.readouterr().out)
        assert report["weights"] == [0.5, 0.5]
        assert report["dev_wer"] == 0.0

    def test_rescore_single_system_identity(self, tmp_path):
        lists = [NBestList("u1", [
            Hypothesis("first", ["first"], {"ctc": 1.0}),
            Hypothesis("second", ["second"], {"ctc": 2.0}),
        ])]
        nbest_path = tmp_path / "nbest.jsonl"
        write_nbest(nbest_path, lists)
        out = tmp_path / "rescored.jsonl"
        assert main(["combine", "--mode", "rescore", "--nbest", str(nbest_path),
                     "--weights", "ctc:1.0", "--out", str(out)]) == 0
        reranked = read_nbest(out)
        assert [h.text for h in reranked[0].hyps] == ["first", "second"]

    def test_rescore_with_preset_and_truncate(self, tmp_path):
        hyps = [Hypothesis(f"h{i}", [f"h{i}"],
                           {"ctc": float(40 - i), "attention": float(i), "tdnn": 1.0})
                for i in range(40)]
        nbest_path = tmp_path / "nbest.jsonl"
        write_nbest(nbest_path, [NBestList("u1", hyps)])
        out = tmp_path / "rescored.jsonl"
        assert main(["combine", "--mode", "rescore", "--nbest", str(nbest_path),
                     "--weights", "uaspeech-rescore", "--truncate", "30",
                     "--out", str(out)]) == 0
        reranked = read_nbest(out)
        assert len(reranked[0].hyps) == 30
        # ctc dominates 0.9:0.001:0.1, so the lowest-ctc hypothesis wins
        assert reranked[0].hyps[0].text == "h29"

    def test_missing_inputs_exit_2(self, tmp_path):
        assert main(["combine", "--mode", "frame-joint", "--weights", "1:1"]) == 2
        assert main(["combine", "--mode", "rescore", "--weights", "ctc:1"]) == 2


def score_fixture(tmp_path, hyp_rows, ref_rows):
    hyp = tmp_path / "hyp.tsv"
    ref = tmp_path / "ref.tsv"
    write_transcripts_tsv(hyp, hyp_rows)
    write_transcripts_tsv(ref, ref_rows)
    return str(hyp), str(ref)


class TestScoreCommand:
    def test_identity_zero_table(self, tmp_path, capsys):
        hyp, ref = score_fixture(
            tmp_path,
            [("u1", "hello world", {}), ("u2", "good day", {})],
            [("u1", "hello world", {"seen": "seen"}), ("u2", "good day", {"seen": "unseen"})],
        )
        assert main(["score", "--hyp", hyp, "--ref", ref, "--groups", "seen",
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["overall"] == 0.0
        assert report["groups"]["seen"] == {"seen": 0.0, "unseen": 0.0}

    def test_cer_mode_single_substitution(self, tmp_path, capsys):
        hyp, ref = score_fixture(tmp_path, [("u1", "abd", {})], [("u1", "abc", {})])
        main(["score", "--hyp", hyp, "--ref", ref, "--mode", "cer", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert report["overall"] == pytest.approx(100.0 / 3)

    def test_nested_grouping(self, tmp_path, capsys):
        hyp, ref = score_fixture(
            tmp_path,
            [("u1", "a x", {}), ("u2", "c d", {})],
            [("u1", "a b", {"intelligibility": "VL", "seen": "seen"}),
             ("u2", "c d", {"intelligibility": "H", "seen": "unseen"})],
        )
        main(["score", "--hyp", hyp, "--ref", ref,
              "--groups", "intelligibility,seen", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert report["groups"]["intelligibility"] == {"VL": 50.0, "H": 0.0}
        assert report["groups"]["intelligibility,seen"] == {"VL/seen": 50.0,
                                                            "unseen": 0.0} or \
            report["groups"]["intelligibility,seen"] == {"VL/seen": 50.0,
                                                         "H/unseen": 0.0}

    def test_missing_utt_exit_2_lists_ids(self, tmp_path, capsys):
        hyp, ref = score_fixture(tmp_path, [("u1", "a", {})],
                                 [("u1", "a", {}), ("u2", "b", {})])
        assert main(["score", "--hyp", hyp, "--ref", ref]) == 2
        assert "u2" in capsys.readouterr().err

    def test_report_file_written(self, tmp_path):
        hyp, ref = score_fixture(tmp_path, [("u1", "a", {})], [("u1", "a", {})])
        out = tmp_path / "report.json"
        main(["score", "--hyp", hyp, "--ref", ref, "--out", str(out)])
        assert json.loads(out.read_text())["overall"] == 0.0


class TestSignificanceCommand:
    def test_identical_not_significant(self, tmp_path, capsys):
        rows = [("u1", "a b", {}), ("u2", "c", {})]
        hyp, ref = score_fixture(tmp_path, rows, rows)
        assert main(["significance", "--hyp-a", hyp, "--hyp-b", hyp,
                     "--ref", ref, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["degenerate"] is True
        assert report["significant"] is False

    def test_constructed_fixture_p_value(self, tmp_path, capsys):
        # error differences per utterance: 2, 0, 2, 0
        ref_rows = [(f"u{i}", "w w w w w", {}) for i in range(4)]
        a_rows = [("u0", "x x w w w", {}), ("u1", "w w w w w", {}),
                  ("u2", "x x w w w", {}), ("u3", "w w w w w", {})]
        b_rows = [(u, t, {}) for u, t, _ in ref_rows]
        hyp_a = tmp_path / "a.tsv"
        hyp_b = tmp_path / "b.tsv"
        ref = tmp_path / "r.tsv"
        write_transcripts_tsv(hyp_a, a_rows)
        write_transcripts_tsv(hyp_b, b_rows)
        write_transcripts_tsv(ref, ref_rows)
        main(["significance", "--hyp-a", str(hyp_a), "--hyp-b", str(hyp_b),
              "--ref", str(ref), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert report["z"] == pytest.approx(1.732, abs=1e-3)
        assert report["p"] == pytest.approx(0.0833, abs=1e-3)
        assert report["alpha"] == 0.05
        assert report["significant"] is False
