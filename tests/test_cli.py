"""Command-line surface tests: exit codes, file outputs, determinism."""

import builtins
import json
import os
import shutil
import struct
import warnings
from dataclasses import MISSING, asdict, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

from asrfuse.a2a import A2aConfig
from asrfuse.bottleneck import POSITIONS
from asrfuse.cli import main, one_blas_thread
from asrfuse.config import _TYPE_NAMES, A2aData, RunConfig, SslData
from asrfuse.features import FeatureSequence
from asrfuse.combine import FrameScoreStream, Hypothesis, NBestList
from asrfuse.formats import (
    read_afm1,
    read_fss1,
    read_mdl1,
    read_nbest,
    write_afm1,
    write_fss1,
    write_nbest,
    write_transcripts_tsv,
)
from asrfuse.models import load_ssl_checkpoint, save_ssl_checkpoint
from asrfuse.numcore import Tensor, make_rng
from asrfuse.ssl_objectives.trainers import SslConfig, build_ssl_model
from oracles import fss1_bytes


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


def wrong_typed_schema_values():
    """(objective, section.key, a value of the wrong JSON type) for every
    field of the top level and of every run config section, so no field
    escapes validation; `SslConfig.objective` is the top level's."""
    for objective, prefix, schema in [("hubert", "", RunConfig),
                                      ("hubert", "model.", SslConfig),
                                      ("hubert", "data.", SslData),
                                      ("a2a-mtl", "model.", A2aConfig),
                                      ("a2a-mtl", "data.", A2aData)]:
        types = get_type_hints(schema)
        for f in fields(schema):
            if schema is not SslConfig or f.name != "objective":
                yield objective, prefix + f.name, [] if isinstance("", types[f.name]) else "x"


def readme_config_tables():
    """README's run-config tables, in order, as {key: (type, default, range)}."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    tables = []
    for block in readme.split("| key | type | default | range |\n| --- | --- | --- | --- |\n")[1:]:
        table = {}
        for row in block.split("\n\n")[0].splitlines():
            keys, kind, default, allowed = (cell.strip() for cell in row.strip("|").split("|"))
            for key in keys.split(","):
                table[key.strip(" `")] = (kind, default, allowed)
        tables.append(table)
    return tables


def readme_value(cell: str):
    """A README default: JSON, or between backticks a string or JSON."""
    try:
        return json.loads(cell.strip("`"))
    except json.JSONDecodeError:
        return cell.strip("`")


def test_readme_config_tables_match_the_dataclasses():
    """Each README table row is one field: its key, JSON type, default and range."""
    tables = readme_config_tables()
    assert len(tables) == 5
    for table, schema in zip(tables, [RunConfig, SslConfig, A2aConfig, SslData, A2aData]):
        types = get_type_hints(schema)
        schema_fields = [f for f in fields(schema) if (schema, f.name) != (SslConfig, "objective")]
        assert list(table) == [f.name for f in schema_fields], schema.__name__
        for f in schema_fields:
            kind, default, allowed = table[f.name]
            assert kind == _TYPE_NAMES[types[f.name]].split(" ", 1)[1], f.name
            if f.default is not MISSING:
                assert readme_value(default) == f.default, f.name
            elif f.default_factory is not MISSING:
                assert readme_value(default) == f.default_factory(), f.name
            else:
                assert default == "required", f.name
            choices = f.metadata.get("range")
            if isinstance(choices, tuple):
                choices = ", ".join("null" if c is None else f"`{c}`" for c in choices)
            assert choices is None or choices in allowed, f.name


def write_manifest(path, entries):
    with open(path, "w") as fh:
        for e in entries:
            fh.write(json.dumps(e) + "\n")


def snapshot(root):
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in sorted(root.rglob("*"))}


def resume_from_edited_checkpoint(tmp_path, objective, edit):
    """Trains one epoch of `objective`, applies `edit(header, blobs)` to the
    checkpoint's header and its name -> array dict and resumes from it,
    which must exit 2 and leave `tmp_path` as it was; returns the
    checkpoint's path."""
    from asrfuse.formats import write_mdl1

    cfg_path, half = tmp_path / "cfg.json", tmp_path / "half.mdl1"
    write = write_a2a_config if objective == "a2a-mtl" else write_config
    write(cfg_path, objective=objective, out_model=str(half), stop_after_epoch=1)
    assert main(["train", "--config", str(cfg_path)]) == 0
    header, arrays = read_mdl1(half)
    edit(header, arrays)
    write_mdl1(half, header["kind"], header["hyperparameters"], header["seed"],
               list(arrays.items()))
    write(cfg_path, objective=objective, out_model=str(tmp_path / "resumed.mdl1"),
          resume=str(half))
    before = snapshot(tmp_path)
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert snapshot(tmp_path) == before
    return half


def set_config(key, value):
    """An edit that sets `key` of a checkpoint's model config to `value`."""
    def edit(header, arrays):
        header["hyperparameters"]["config"][key] = value
    return edit


def without(*prefixes):
    """An edit that deletes every blob whose name starts with one of `prefixes`."""
    def edit(header, arrays):
        for name in [n for n in arrays if n.startswith(prefixes)]:
            del arrays[name]
    return edit


def set_blob(name, make):
    """An edit that adds, or replaces, the blob `name` with `make(blobs)`."""
    def edit(header, arrays):
        arrays[name] = make(arrays)
    return edit


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

    @pytest.mark.parametrize("objective", ["hubert", "a2a-mtl"])
    def test_empty_sections_train_the_schema_defaults(self, tmp_path, objective):
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "model.mdl1"
        cfg_path.write_text(json.dumps({"objective": objective, "seed": 3, "epochs": 0,
                                        "out_model": str(out), "model": {}, "data": {}}))
        assert main(["train", "--config", str(cfg_path)]) == 0
        config = read_mdl1(out)[0]["hyperparameters"]["config"]
        assert config == asdict(SslConfig() if objective == "hubert" else A2aConfig())

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

    @pytest.mark.parametrize("objective, extra_model", [
        ("hubert", {}), ("wav2vec2", {}), ("data2vec", {}), ("ctc", {}),
        ("hubert", {"dropout": 0.1, "bottleneck_position": "after-middle-block",
                    "bottleneck_dim": 3}),
    ], ids=["hubert", "wav2vec2", "data2vec", "ctc", "hubert-dropout"])
    def test_resume_reproduces_trajectory(self, tmp_path, objective, extra_model):
        # a 4-epoch run interrupted after any epoch and resumed to completion
        # must match the uninterrupted run byte for byte; for data2vec this
        # needs the loaded EMA teacher arrays to reach the teacher network, and
        # with dropout in the blocks and the bottleneck (bottleneck_dropout 0.1
        # by default) every mask must be drawn from the step's own generator
        cfg_path = tmp_path / "cfg.json"
        model = {**write_config(cfg_path)["model"], **extra_model}
        write_config(cfg_path, objective=objective, epochs=4, model=model,
                     out_model=str(tmp_path / "straight.mdl1"))
        assert main(["train", "--config", str(cfg_path)]) == 0
        for stop in (1, 2, 3):
            half, resumed = tmp_path / f"half{stop}.mdl1", tmp_path / f"resumed{stop}.mdl1"
            write_config(cfg_path, objective=objective, epochs=4, stop_after_epoch=stop,
                         model=model, out_model=str(half))
            assert main(["train", "--config", str(cfg_path)]) == 0
            write_config(cfg_path, objective=objective, epochs=4, model=model,
                         out_model=str(resumed), resume=str(half))
            assert main(["train", "--config", str(cfg_path)]) == 0
            assert (tmp_path / "straight.mdl1").read_bytes() == resumed.read_bytes(), stop

    def test_a2a_resume_reproduces_trajectory(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_a2a_config(cfg_path, out_model=str(tmp_path / "straight.mdl1"))
        assert main(["train", "--config", str(cfg_path)]) == 0
        for stop in (1, 2, 3):
            half, resumed = tmp_path / f"half{stop}.mdl1", tmp_path / f"resumed{stop}.mdl1"
            write_a2a_config(cfg_path, out_model=str(half), stop_after_epoch=stop)
            assert main(["train", "--config", str(cfg_path)]) == 0
            write_a2a_config(cfg_path, out_model=str(resumed), resume=str(half))
            assert main(["train", "--config", str(cfg_path)]) == 0
            assert (tmp_path / "straight.mdl1").read_bytes() == resumed.read_bytes(), stop

    @pytest.mark.parametrize("key, value", [("log", "missing/log.jsonl"),
                                            ("log", 5), ("out_model", None)])
    def test_bad_output_path_rejected_before_training(self, tmp_path, capsys, key, value):
        cfg_path = tmp_path / "cfg.json"
        if isinstance(value, str):
            value = str(tmp_path / value)
        write_config(cfg_path, **{key: value})
        assert main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert key in err and str(value) in err
        assert not (tmp_path / "model.mdl1").exists()

    @pytest.mark.parametrize("log", ["out_model", "resume", "directory"])
    def test_log_that_would_replace_a_model_or_directory_exit_2(self, tmp_path, capsys, log):
        cfg_path, half = tmp_path / "cfg.json", tmp_path / "half.mdl1"
        write_config(cfg_path, epochs=4, stop_after_epoch=2, out_model=str(half))
        assert main(["train", "--config", str(cfg_path)]) == 0
        (tmp_path / "logs").mkdir()
        out = tmp_path / "resumed.mdl1"
        target = {"out_model": out, "resume": half, "directory": tmp_path / "logs"}[log]
        write_config(cfg_path, epochs=4, out_model=str(out), resume=str(half),
                     log=str(target))
        before = snapshot(tmp_path)
        assert main(["train", "--config", str(cfg_path)]) == 2
        message = {"directory": f"log {target} is a directory"}.get(
            log, f"log and {log} name the same file {target}")
        assert capsys.readouterr().err == f"error: {cfg_path}: {message}\n"
        assert snapshot(tmp_path) == before

    @pytest.mark.parametrize("kind", ["synthetic", "manifest"])
    def test_resume_with_other_seed_rejected(self, tmp_path, monkeypatch, capsys, kind):
        # the checkpoint header is checked before any training input is read
        cfg_path = tmp_path / "cfg.json"
        half = tmp_path / "half.mdl1"
        data = write_config(cfg_path)["data"]
        if kind == "manifest":
            data = {"kind": "manifest",
                    "manifest": str(make_feature_inputs(tmp_path, n=2, t=10, d=4))}
        write_config(cfg_path, epochs=4, stop_after_epoch=2, out_model=str(half), data=data)
        assert main(["train", "--config", str(cfg_path)]) == 0

        def unread(path, **kwargs):
            raise AssertionError(f"{path} read before the checkpoint was checked")

        monkeypatch.setattr("asrfuse.cli.read_afm1", unread)
        monkeypatch.setenv("ASRFUSE_SEED", "99")
        out = tmp_path / "resumed.mdl1"
        write_config(cfg_path, epochs=4, out_model=str(out), resume=str(half), data=data)
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

    @pytest.mark.parametrize("change", [{"batch_frames": 30}, {"mtl_weights": [1, 0, 1]}],
                             ids=["batch_frames", "mtl_weights"])
    def test_a2a_resume_with_other_training_keys_rejected(self, tmp_path, capsys, change):
        # 30 frames a batch keep the 2 steps an epoch that 32 take of 64
        # frames, so only the checkpoint's model config tells the runs apart
        cfg_path, half = tmp_path / "cfg.json", tmp_path / "half.mdl1"
        base = write_a2a_config(cfg_path, out_model=str(half), stop_after_epoch=2)
        assert main(["train", "--config", str(cfg_path)]) == 0
        write_a2a_config(cfg_path, out_model=str(tmp_path / "resumed.mdl1"),
                         resume=str(half), model={**base["model"], **change})
        before = snapshot(tmp_path)
        capsys.readouterr()
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (f"error: {half}: checkpoint model config "
                                           "differs from the run config\n")
        assert snapshot(tmp_path) == before

    def test_a2a_checkpoint_without_training_keys_resumes_with_defaults(self, tmp_path):
        # a header of the six head keys, as written before `batch_frames` and
        # `mtl_weights` joined it, reads both at their defaults
        from asrfuse.formats import write_mdl1

        model = {"d_acoustic": 4, "d_articulatory": 2, "mixtures": 2, "hidden": 8}
        cfg_path, half = tmp_path / "cfg.json", tmp_path / "half.mdl1"
        write_a2a_config(cfg_path, model=model, out_model=str(tmp_path / "straight.mdl1"))
        assert main(["train", "--config", str(cfg_path)]) == 0
        write_a2a_config(cfg_path, model=model, out_model=str(half), stop_after_epoch=2)
        assert main(["train", "--config", str(cfg_path)]) == 0
        header, arrays = read_mdl1(half)
        config = header["hyperparameters"]["config"]
        del config["batch_frames"], config["mtl_weights"]
        write_mdl1(half, header["kind"], header["hyperparameters"], header["seed"],
                   list(arrays.items()))
        write_a2a_config(cfg_path, model=model, out_model=str(tmp_path / "resumed.mdl1"),
                         resume=str(half))
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "straight.mdl1").read_bytes() == \
            (tmp_path / "resumed.mdl1").read_bytes()

    def test_a2a_resume_without_hidden_layers(self, tmp_path):
        # with n_hidden=0 the head has no hidden layer, but the checkpoint
        # stores the configured hidden=64 as the run config does
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

    @pytest.mark.parametrize("objective", ["hubert", "a2a-mtl"])
    def test_resume_checkpoint_with_unknown_config_key_exit_2(self, tmp_path, capsys,
                                                              objective):
        half = resume_from_edited_checkpoint(tmp_path, objective, set_config("extra", 1))
        err = capsys.readouterr().err
        assert f"{half}: hyperparameters.config: unknown keys ['extra']" in err

    @pytest.mark.parametrize("objective, key, value", [
        *((objective, key, value) for objective, key, value in wrong_typed_schema_values()
          if key.startswith("model.")),
        ("hubert", "model.objective", "rover"),
        ("hubert", "model.dropout", 2.0),
        ("data2vec", "model.top_k", 5),  # a cross-field rule: top_k > n_blocks (2)
    ], ids=str)
    def test_resume_checkpoint_with_malformed_config_value_exit_2(self, tmp_path, capsys,
                                                                  objective, key, value):
        # a checkpoint's model config is checked exactly like a run config's
        name = key.removeprefix("model.")
        half = resume_from_edited_checkpoint(tmp_path, objective, set_config(name, value))
        err = capsys.readouterr().err
        assert f"{half}: hyperparameters.config.{name}" in err and "Traceback" not in err

    @pytest.mark.parametrize("objective, edit, message", [
        ("hubert", without("kmeans."), "MDL1 blob kmeans.g0 must be present with shape [3, 4]"),
        ("hubert", without("opt.m3"), "MDL1 blob opt.m3 must be present with shape [8]"),
        ("hubert", without("opt.step"), "MDL1 blob opt.step must be present with shape [1]"),
        ("hubert", set_blob("opt.m1", lambda blobs: blobs["opt.m1"].T),
         "MDL1 blob opt.m1 must be present with shape [4, 8]"),
        ("hubert", set_blob("foo", lambda blobs: np.zeros(1)),
         "MDL1 blob foo is not part of this SSL model"),
        ("wav2vec2", set_blob("kmeans.g0", lambda blobs: np.zeros((3, 4))),
         "MDL1 blob kmeans.g0 is not part of this SSL model"),
        ("a2a-mtl", set_blob("foo", lambda blobs: np.zeros(1)),
         "MDL1 blob foo is not part of this A2A model"),
        ("hubert", without("opt."), "checkpoint has 1 epochs completed but no optimizer state"),
        ("a2a-mtl", without("opt."), "checkpoint has 1 epochs completed but no optimizer state"),
    ], ids=["no-kmeans", "no-opt-m3", "no-opt-step", "opt-m1-transposed", "stray-blob",
            "wav2vec2-kmeans", "a2a-stray-blob", "no-optimizer", "a2a-no-optimizer"])
    def test_resume_checkpoint_with_other_blobs_exit_2(self, tmp_path, capsys, objective,
                                                       edit, message):
        # a resume needs exactly the blobs the model lists, optimizer moments included
        half = resume_from_edited_checkpoint(tmp_path, objective, edit)
        err = capsys.readouterr().err
        assert f"{half}: {message}" in err and "Traceback" not in err

    @pytest.mark.parametrize("objective, step, message", [
        ("hubert", 3.0, "opt.step must be 2 (1 epochs of 2 steps), got 3.0"),
        ("hubert", 2.5, "opt.step must be 2 (1 epochs of 2 steps), got 2.5"),
        ("hubert", 1e30, "opt.step must be 2 (1 epochs of 2 steps), got 1e+30"),
        ("hubert", -1.0, "opt.step must be 2 (1 epochs of 2 steps), got -1.0"),
        ("a2a-mtl", 1.0, "opt.step must be 2 (1 epochs of 2 steps), got 1.0"),
    ], ids=["ahead", "fraction", "huge", "negative", "a2a-behind"])
    def test_resume_checkpoint_with_other_step_count_exit_2(self, tmp_path, capsys, objective,
                                                            step, message):
        # 2 utterances, or 64 frames in batches of 32: 2 steps per epoch
        half = resume_from_edited_checkpoint(tmp_path, objective,
                                             set_blob("opt.step", lambda _: np.array([step])))
        err = capsys.readouterr().err
        assert f"{half}: {message}" in err and "Traceback" not in err

    @pytest.mark.parametrize("objective", ["hubert", "a2a-mtl"])
    def test_resume_zero_epochs_into_zero_epochs(self, tmp_path, objective):
        # a 0-epoch checkpoint holds no optimizer state, and needs none
        cfg_path = tmp_path / "cfg.json"
        write = write_a2a_config if objective == "a2a-mtl" else write_config
        write(cfg_path, epochs=0, out_model=str(tmp_path / "straight.mdl1"))
        assert main(["train", "--config", str(cfg_path)]) == 0
        write(cfg_path, epochs=0, out_model=str(tmp_path / "resumed.mdl1"),
              resume=str(tmp_path / "straight.mdl1"))
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "straight.mdl1").read_bytes() == \
            (tmp_path / "resumed.mdl1").read_bytes()

    def test_non_finite_gradient_names_its_epoch(self, tmp_path, monkeypatch, capsys):
        from asrfuse.numcore import Adam

        original, calls = Adam.step, []

        def step(self, lr):
            calls.append(None)
            if len(calls) == 5:  # 2 utterances per epoch: the first step of epoch 2
                for p in self.params:
                    p.grad = np.full_like(p.data, np.nan)
            return original(self, lr)

        monkeypatch.setattr(Adam, "step", step)
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, epochs=4)
        assert main(["train", "--config", str(cfg_path)]) == 3
        assert "epoch 2:" in capsys.readouterr().err
        assert not (tmp_path / "model.mdl1").exists()

    def test_zero_norm_vector_names_its_epoch(self, tmp_path, capsys):
        # the restored stream of a bottleneck after the last block ends in a
        # ReLU, so a masked frame can reach hubert's cosine loss as all zeros
        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path)
        write_config(cfg_path, model={**cfg["model"], "bottleneck_position": "after-last-block",
                                      "bottleneck_dim": 1})
        assert main(["train", "--config", str(cfg_path)]) == 3
        assert "epoch 0: cosine similarity: zero-norm vector" in capsys.readouterr().err
        assert not (tmp_path / "model.mdl1").exists()

    def test_mask_that_cannot_be_sampled_exit_2(self, tmp_path, capsys):
        # the masked objectives need 2 masked frames: mask_probability 0 masks
        # none, and a 1-frame utterance has only one; both are rejected before
        # training, while a 0-epoch run draws no mask and ctc masks nothing
        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path)
        write_config(cfg_path, model={**cfg["model"], "mask_probability": 0.0})
        assert main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {cfg_path}: model.mask_probability must be > 0 when "
                       "objective is hubert and epochs > 0, got 0.0\n")
        assert not (tmp_path / "model.mdl1").exists()

        manifest = make_feature_inputs(tmp_path, n=2, t=10, d=4)
        write_afm1(tmp_path / "feats" / "utt1.afm1",
                   FeatureSequence(np.zeros((1, 4)), 20.0, label="SSL"))
        write_config(cfg_path, data={"kind": "manifest", "manifest": str(manifest)})
        assert main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {manifest}: utt1: hubert masks at least 2 frames of each "
                       "utterance, got 1\n")
        assert not (tmp_path / "model.mdl1").exists()

        for overrides in ({"epochs": 0}, {"objective": "ctc", "epochs": 0},
                          {"objective": "ctc"}):
            write_config(cfg_path, model={**cfg["model"], "mask_probability": 0.0},
                         **overrides)
            assert main(["train", "--config", str(cfg_path)]) == 0
        write_config(cfg_path, epochs=0,
                     data={"kind": "manifest", "manifest": str(manifest)})
        assert main(["train", "--config", str(cfg_path)]) == 0

    def test_resume_past_stop_after_epoch_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        three = tmp_path / "three.mdl1"
        write_config(cfg_path, epochs=4, stop_after_epoch=3, out_model=str(three))
        assert main(["train", "--config", str(cfg_path)]) == 0
        out = tmp_path / "resumed.mdl1"
        write_config(cfg_path, epochs=4, stop_after_epoch=2, out_model=str(out),
                     resume=str(three))
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert str(three) in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("key", ["objective", "seed", "out_model"])
    def test_missing_required_key_exit_2(self, tmp_path, capsys, key):
        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path)
        del cfg[key]
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"error: {cfg_path}: {key} is required\n"
        assert list(tmp_path.iterdir()) == [cfg_path]

    @pytest.mark.parametrize("objective, section, change, keys", [
        ("hubert", "model", {"d_model": 6, "n_heads": 4}, ["model.d_model", "model.n_heads"]),
        ("data2vec", "model", {"top_k": 5}, ["model.top_k", "model.n_blocks"]),
        ("hubert", "model", {"entries": 100}, ["model.entries", "data.frames_per_utt"]),
        ("a2a-mtl", "model", {"d_acoustic": 1}, ["model.d_acoustic", "model.d_articulatory"]),
        ("hubert", "", {"stop_after_epoch": 3}, ["stop_after_epoch", "epochs"]),
        ("a2a-mtl", "data", {"kind": "manifest"}, ["data.kind", "data.manifest"]),
        ("wav2vec2", "model", {"mask_probability": 0.0},
         ["objective is wav2vec2", "model.mask_probability"]),
        ("data2vec", "model", {"mask_probability": 0.0},
         ["objective is data2vec", "model.mask_probability"]),
    ], ids=["heads", "top-k", "entries", "a2a-widths", "stop-after", "manifest",
            "mask-wav2vec2", "mask-data2vec"])
    def test_cross_field_rule_exit_2(self, tmp_path, capsys, objective, section, change,
                                     keys):
        cfg_path = tmp_path / "cfg.json"
        cfg = (write_a2a_config(cfg_path) if objective == "a2a-mtl"
               else write_config(cfg_path, objective=objective))
        cfg["log"] = str(tmp_path / "log.jsonl")
        (cfg[section] if section else cfg).update(change)
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg_path}: ") and all(key in err for key in keys)
        assert list(tmp_path.iterdir()) == [cfg_path]

    def test_hubert_with_fewer_blocks_than_top_k_trains(self, tmp_path):
        # top_k serves data2vec alone, so its default 2 > n_blocks 1 is no error
        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path)
        write_config(cfg_path, model={**cfg["model"], "n_blocks": 1})
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "model.mdl1").exists()

    def test_env_seed_override(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, out_model=str(tmp_path / "s11.mdl1"))
        main(["train", "--config", str(cfg_path)])
        monkeypatch.setenv("ASRFUSE_SEED", "99")
        write_config(cfg_path, out_model=str(tmp_path / "s99.mdl1"))
        main(["train", "--config", str(cfg_path)])
        assert (tmp_path / "s11.mdl1").read_bytes() != (tmp_path / "s99.mdl1").read_bytes()

    @pytest.mark.parametrize("shape, message", [((10, 3), "feature dim 3, model expects 4"),
                                                ((0, 4), "has no frames")],
                             ids=["wrong-dim", "zero-frames"])
    def test_manifest_input_errors_name_the_utterance(self, tmp_path, capsys, shape,
                                                      message):
        manifest = make_feature_inputs(tmp_path, n=2, t=10, d=4)
        write_afm1(tmp_path / "feats" / "utt1.afm1",
                   FeatureSequence(np.zeros(shape), 20.0, label="SSL"))
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, data={"kind": "manifest", "manifest": str(manifest)})
        assert main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert str(manifest) in err and "utt1" in err and message in err
        assert not (tmp_path / "model.mdl1").exists()

    @pytest.mark.parametrize("objective", ["wav2vec2", "data2vec"])
    def test_one_frame_utterance_rejected_for_masked_objective(self, tmp_path, capsys,
                                                               objective):
        manifest = make_feature_inputs(tmp_path, n=2, t=10, d=4)
        write_afm1(tmp_path / "feats" / "utt0.afm1",
                   FeatureSequence(np.zeros((1, 4)), 20.0, label="SSL"))
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, objective=objective,
                     data={"kind": "manifest", "manifest": str(manifest)})
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (f"error: {manifest}: utt0: {objective} masks at "
                                           "least 2 frames of each utterance, got 1\n")
        assert not (tmp_path / "model.mdl1").exists()

    def test_hubert_entries_above_manifest_frames_exit_2(self, tmp_path, capsys):
        manifest = make_feature_inputs(tmp_path, n=2, t=10, d=4)
        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path, data={"kind": "manifest", "manifest": str(manifest)})
        write_config(cfg_path, data=cfg["data"], model={**cfg["model"], "entries": 100})
        assert main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {cfg_path}: model.entries must be at most the 20 frames of "
                       f"data.manifest {manifest}, got 100\n")
        assert not (tmp_path / "model.mdl1").exists()
        assert not (tmp_path / "log.jsonl").exists()

    def test_manifest_entry_without_default_path_exit_2(self, tmp_path, capsys):
        manifest = without_default_path(make_feature_inputs(tmp_path, n=2, t=10, d=4))
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, data={"kind": "manifest", "manifest": str(manifest)})
        assert main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert str(manifest) in err and "utt0" in err and "['feats']" in err
        assert not (tmp_path / "model.mdl1").exists()
        assert not (tmp_path / "log.jsonl").exists()

    def test_a2a_manifest_entry_without_articulatory_path_exit_2(self, tmp_path, capsys):
        manifest = without_default_path(make_feature_inputs(tmp_path, n=1, t=20, d=4),
                                        key="acoustic")
        cfg_path = tmp_path / "cfg.json"
        write_a2a_config(cfg_path, log=str(tmp_path / "log.jsonl"),
                         data={"kind": "manifest", "manifest": str(manifest)})
        assert main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"{manifest}: utt0 has no 'articulatory' path, only paths ['acoustic']" in err
        assert not (tmp_path / "out.mdl1").exists()
        assert not (tmp_path / "log.jsonl").exists()

    def test_a2a_manifest_of_one_frame_exit_2(self, tmp_path, capsys):
        # a2a batches need 2 frames each, so a 1-frame manifest cannot train
        paths = {}
        for key, width, label in (("acoustic", 4, "SSL"), ("articulatory", 2, "UTI")):
            paths[key] = str(tmp_path / f"utt0_{key}.afm1")
            write_afm1(paths[key], FeatureSequence(np.zeros((1, width)), 10.0, label=label))
        manifest = tmp_path / "pairs.jsonl"
        write_manifest(manifest, [{"utt_id": "utt0", "paths": paths}])
        cfg_path, log = tmp_path / "cfg.json", tmp_path / "log.jsonl"
        write_a2a_config(cfg_path, log=str(log),
                         data={"kind": "manifest", "manifest": str(manifest)})
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert (f"error: {cfg_path}: data.manifest {manifest} must hold at least 2 frames "
                "for a2a-mtl, got 1") in capsys.readouterr().err
        assert not (tmp_path / "out.mdl1").exists() and not log.exists()

    @pytest.mark.parametrize("acoustic, articulatory, message", [
        ((30, 4), (30, 2), None),
        ((30, 6), (30, 2), "{acoustic}: feature dim 6, model expects 4"),
        ((30, 4), (30, 3), "{articulatory}: feature dim 3, model expects 2"),
        ((30, 4), (29, 2), "30 acoustic frames but 29 articulatory frames"),
        ((0, 4), (0, 2), "{acoustic} has no frames"),
    ], ids=["valid", "acoustic-width", "articulatory-width", "frame-counts", "no-frames"])
    def test_a2a_manifest_pairs_checked_before_training(self, tmp_path, capsys, acoustic,
                                                        articulatory, message):
        entries = []
        for i, shapes in enumerate([((30, 4), (30, 2)), (acoustic, articulatory)]):
            paths = {}
            for key, shape, label in zip(("acoustic", "articulatory"), shapes, ("SSL", "UTI")):
                paths[key] = str(tmp_path / f"utt{i}_{key}.afm1")
                write_afm1(paths[key], FeatureSequence(make_rng(i).normal(size=shape), 10.0,
                                                       label=label))
            entries.append({"utt_id": f"utt{i}", "paths": paths})
        manifest = tmp_path / "pairs.jsonl"
        write_manifest(manifest, entries)
        cfg_path, log = tmp_path / "cfg.json", tmp_path / "log.jsonl"
        write_a2a_config(cfg_path, log=str(log),
                         data={"kind": "manifest", "manifest": str(manifest)})
        code = main(["train", "--config", str(cfg_path)])
        if message is None:
            assert code == 0 and (tmp_path / "out.mdl1").exists()
            return
        assert code == 2
        message = message.format(**entries[1]["paths"])
        assert f"{manifest}: utt1: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out.mdl1").exists() and not log.exists()

    @pytest.mark.parametrize("objective, key, value", [
        ("hubert", "lr", "0.1"),
        ("hubert", "lr", None),
        ("hubert", "lr", -0.1),
        ("hubert", "lr", 10 ** 400),
        ("hubert", "model", 5),
        ("hubert", "data", []),
        ("hubert", "data.n_utts", "2"),
        ("hubert", "model.d_in", "4"),
        ("hubert", "model.dropout", True),
        ("hubert", "model.bottleneck_position", 5),
        ("hubert", "epochs", True),
        ("hubert", "seed", -1),
        ("hubert", "seed", True),
        ("hubert", "ASRFUSE_SEED", "-1"),
        ("hubert", "resume", 5),
        ("a2a-mtl", "model.mtl_weights", 5),
        ("a2a-mtl", "model.mtl_weights", [1, 2]),
        ("a2a-mtl", "model.mtl_weights", [1, -1, 1]),
        ("a2a-mtl", "model.batch_frames", 0),
        ("a2a-mtl", "model.batch_frames", 1),
        ("a2a-mtl", "data.noise_sigma", "0.05"),
        ("hubert", "model.d_in", 0),
        ("hubert", "model.d_model", 0),
        ("hubert", "model.n_heads", 0),
        ("hubert", "model.d_ff", 0),
        ("hubert", "model.entries", 0),
        ("wav2vec2", "model.num_codebooks", 0),
        ("wav2vec2", "model.kappa", 0),
        ("hubert", "model.dropout", 1),
        ("hubert", "model.bottleneck_position", "nowhere"),
        ("hubert", "model.bottleneck_dim", 0),
        ("hubert", "data.n_utts", 0),
        ("hubert", "data.frames_per_utt", 0),
        ("hubert", "data.frames_per_utt", 1),
        ("hubert", "data.kind", "files"),
        ("hubert", "stop_after_epoch", 3),
        ("hubert", "stop_after_epoch", True),
        ("a2a-mtl", "model.mixtures", 0),
        ("a2a-mtl", "model.hidden", 0),
        ("a2a-mtl", "model.n_hidden", -1),
        ("a2a-mtl", "model.sigma_floor", 0),
        ("a2a-mtl", "data.n_utts", 0),
        ("a2a-mtl", "data.num_frames", 8),
        ("a2a-mtl", "data.max_freq", 0),
        ("a2a-mtl", "data.noise_sigma", -1),
        *wrong_typed_schema_values(),
    ], ids=str)
    def test_malformed_config_value_exit_2(self, tmp_path, monkeypatch, capsys, objective,
                                           key, value):
        cfg_path = tmp_path / "cfg.json"
        cfg = (write_a2a_config(cfg_path) if objective == "a2a-mtl"
               else write_config(cfg_path, objective=objective))
        cfg["log"] = str(tmp_path / "log.jsonl")
        section, _, name = key.rpartition(".")
        if key == "ASRFUSE_SEED":
            monkeypatch.setenv(key, value)
        else:
            (cfg[section] if section else cfg)[name] = value
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg_path}: ") and key in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == [cfg_path]

    @pytest.mark.parametrize("labels, message", [
        (["x"], "metadata.labels must be a list of integers"),
        ([1.5], "metadata.labels must be a list of integers"),
        ([True], "metadata.labels must be a list of integers"),
        ("01", "metadata.labels must be a list of integers"),
        ([4], "label 4 outside [0, 4)"),
        ([-1], "label -1 outside [0, 4)"),
        ([0, 0, 0, 0, 0, 0], "6 labels need at least 11 frames, got 10"),
        (None, "ctc training from a manifest needs metadata.labels"),
    ], ids=["string", "float", "bool", "not-a-list", "vocab", "negative", "too-long",
            "missing"])
    def test_bad_ctc_labels_rejected_before_training(self, tmp_path, capsys, labels,
                                                     message):
        manifest = make_feature_inputs(tmp_path, n=2, t=10, d=4)
        entries = [json.loads(line) for line in manifest.read_text().splitlines()]
        entries[0]["metadata"] = {"labels": [0, 1]}
        if labels is not None:
            entries[1]["metadata"] = {"labels": labels}
        write_manifest(manifest, entries)
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, objective="ctc",
                     data={"kind": "manifest", "manifest": str(manifest)})
        assert main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"{manifest}: utt1: {message}" in err
        assert not (tmp_path / "model.mdl1").exists()
        assert not (tmp_path / "log.jsonl").exists()

    def test_ctc_labels_from_manifest_train(self, tmp_path):
        manifest = make_feature_inputs(tmp_path, n=2, t=10, d=4)
        entries = [json.loads(line) for line in manifest.read_text().splitlines()]
        for entry, labels in zip(entries, ([0, 1, 2], [3, 3, 0, 1, 1])):  # 7 frames
            entry["metadata"] = {"labels": labels}
        write_manifest(manifest, entries)
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, objective="ctc",
                     data={"kind": "manifest", "manifest": str(manifest)})
        assert main(["train", "--config", str(cfg_path)]) == 0


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


def without_default_path(manifest, key="feats"):
    """Rewrite a manifest in place so each entry names its file under `paths.<key>`."""
    with open(manifest) as fh:
        entries = [json.loads(line) for line in fh]
    write_manifest(manifest, [{"utt_id": e["utt_id"], "paths": {key: e["path"]}}
                              for e in entries])
    return manifest


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
    def test_manifest_entry_without_default_path_exit_2(self, tmp_path, capsys):
        model = train_bottleneck_model(tmp_path)
        manifest = without_default_path(make_feature_inputs(tmp_path))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(["extract", "--model", str(model), "--manifest", str(manifest),
                     "--dim", "8", "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert str(manifest) in err and "utt0" in err and "['feats']" in err
        assert list(out_dir.iterdir()) == []

    def test_extract_writes_afm1_at_10ms(self, tmp_path):
        model = train_bottleneck_model(tmp_path)
        manifest = make_feature_inputs(tmp_path)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(["extract", "--model", str(model), "--manifest", str(manifest),
                     "--dim", "8", "--out-dir", str(out_dir)]) == 0
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
                  "--dim", "8", "--out-dir", str(d)])
        assert (d1 / "utt0.afm1").read_bytes() == (d2 / "utt0.afm1").read_bytes()

    def test_output_equals_grad_mode_encode(self, tmp_path):
        model_path = train_bottleneck_model(tmp_path)
        manifest = make_feature_inputs(tmp_path, n=1, t=16)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(["extract", "--model", str(model_path), "--manifest", str(manifest),
                     "--dim", "8", "--out-dir", str(out_dir)]) == 0
        model, _, _ = load_ssl_checkpoint(model_path)
        seq = read_afm1(tmp_path / "feats" / "utt0.afm1")
        with one_blas_thread():  # as `main` runs the command
            extracted = model.encode(Tensor(seq.frames))[1]
        assert extracted.requires_grad  # the reference run records a graph
        expected = tmp_path / "expected.afm1"
        write_afm1(expected, FeatureSequence(extracted.data, 10.0, label="SSL"))
        assert (out_dir / "utt0.afm1").read_bytes() == expected.read_bytes()

    def test_records_no_autograd_graph(self, tmp_path, monkeypatch):
        model = train_bottleneck_model(tmp_path)
        manifest = make_feature_inputs(tmp_path)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        original, made = Tensor._make, []

        def make(data, parents, backward_fn, op):
            out = original(data, parents, backward_fn, op)
            made.append(out._backward_fn is not None)
            return out

        monkeypatch.setattr(Tensor, "_make", staticmethod(make))
        assert main(["extract", "--model", str(model), "--manifest", str(manifest),
                     "--dim", "8", "--out-dir", str(out_dir)]) == 0
        assert made and not any(made)

    def test_wrong_input_dim_writes_nothing(self, tmp_path, capsys):
        # every input is checked before the first utterance is encoded
        model = train_bottleneck_model(tmp_path)
        manifest = make_feature_inputs(tmp_path, n=4)
        write_afm1(tmp_path / "feats" / "utt2.afm1",
                   FeatureSequence(make_rng(7).normal(size=(10, 7)), 20.0, label="SSL"))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(["extract", "--model", str(model), "--manifest", str(manifest),
                     "--dim", "8", "--out-dir", str(out_dir)]) == 2
        assert "utt2" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("utt_id", ["../escaped", "a/b", "..", "", "a\0b"])
    def test_utt_id_that_is_not_a_file_name_writes_nothing(self, tmp_path, capsys, utt_id):
        model = train_bottleneck_model(tmp_path)
        manifest = make_feature_inputs(tmp_path, n=2)
        entries = [json.loads(line) for line in manifest.read_text().splitlines()]
        entries[1]["utt_id"] = utt_id
        write_manifest(manifest, entries)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        before = snapshot(tmp_path)
        assert main(["extract", "--model", str(model), "--manifest", str(manifest),
                     "--dim", "8", "--out-dir", str(out_dir)]) == 2
        assert f"error: {manifest}: {utt_id}: " in capsys.readouterr().err
        assert snapshot(tmp_path) == before

    def test_zero_frame_input_writes_nothing(self, tmp_path, capsys):
        model = train_bottleneck_model(tmp_path)
        feat_dir = tmp_path / "feats"
        feat_dir.mkdir()
        for utt_id, frames in [("a", 5), ("z", 0)]:
            write_afm1(feat_dir / f"{utt_id}.afm1",
                       FeatureSequence(np.ones((frames, 6)), 20.0, label="SSL"))
        manifest = tmp_path / "feats.jsonl"
        write_manifest(manifest, [{"utt_id": u, "path": str(feat_dir / f"{u}.afm1")}
                                  for u in ("a", "z")])
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(["extract", "--model", str(model), "--manifest", str(manifest),
                     "--dim", "8", "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert "z:" in err and "z.afm1" in err and "no frames" in err
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["extract", "--model", "m.mdl1", "--manifest", "feats.jsonl", "--out-dir", "out"],
        ["combine", "--mode", "rescore", "--nbest", "nbest.jsonl", "--weights", "ctc:1"],
    ], ids=["extract", "combine"])
    def test_workers_flag_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("position, flags, message", [
        (None, [], "bottleneck_position is null: the model has no bottleneck to extract"),
        ("after-last-block", ["--dim", "4"], "bottleneck_dim is 8, --dim gives 4"),
    ], ids=["no-bottleneck", "dim-mismatch"])
    def test_model_it_cannot_extract_with_names_the_model(self, tmp_path, capsys, position,
                                                         flags, message):
        model = train_bottleneck_model(tmp_path, position=position)
        manifest = make_feature_inputs(tmp_path, n=1)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        capsys.readouterr()
        assert main(["extract", "--model", str(model), "--manifest", str(manifest), *flags,
                     "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == f"error: {model}: {message}\n"
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("position", POSITIONS)
    def test_dim_flag_only_checks_the_models_own(self, tmp_path, capsys, position):
        # the model's config places the bottleneck and gives its width
        model = train_bottleneck_model(tmp_path, position=position)
        manifest = make_feature_inputs(tmp_path, n=2)
        runs = []
        for name, flags in [("bare", []), ("dim", ["--dim", "8"])]:
            out_dir = tmp_path / name
            out_dir.mkdir()
            capsys.readouterr()
            assert main(["extract", "--model", str(model), "--manifest", str(manifest),
                         *flags, "--out-dir", str(out_dir), "--json"]) == 0
            runs.append((capsys.readouterr().out,
                         {p.name: p.read_bytes() for p in out_dir.iterdir()}))
        assert runs[0] == runs[1]
        assert json.loads(runs[0][0]) == {"extracted": 2, "dim": 8, "position": position}
        assert sorted(runs[0][1]) == ["utt0.afm1", "utt1.afm1"]

    def test_empty_manifest_success_with_warning(self, tmp_path, capsys):
        model = train_bottleneck_model(tmp_path)
        manifest = tmp_path / "empty.jsonl"
        manifest.write_text("")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        argv = ["extract", "--model", str(model), "--manifest", str(manifest),
                "--dim", "8", "--json"]
        capsys.readouterr()
        assert main(argv + ["--out-dir", str(out_dir)]) == 0
        out, err = capsys.readouterr()
        assert "warning" in err
        assert json.loads(out)["extracted"] == 0
        assert list(out_dir.iterdir()) == []
        # an empty manifest still checks --out-dir
        assert main(argv + ["--out-dir", str(tmp_path / "missing")]) == 2
        assert "output directory does not exist" in capsys.readouterr().err


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
    def test_stream_entry_without_default_path_exit_2(self, tmp_path, capsys):
        scores = [{"u1": [[-1.0, -2.0]]}, {"u1": [[-2.0, -1.0]]}]
        manifests = make_stream_manifests(tmp_path, scores)
        without_default_path(manifests[1], key="scores")
        out_dir = tmp_path / "fused"
        out_dir.mkdir()
        hyp_out = tmp_path / "hyp.tsv"
        assert main(["combine", "--mode", "frame-joint", "--streams", *manifests,
                     "--weights", "1:1", "--out-dir", str(out_dir),
                     "--hyp-out", str(hyp_out)]) == 2
        err = capsys.readouterr().err
        assert manifests[1] in err and "u1" in err and "['scores']" in err
        assert list(out_dir.iterdir()) == [] and not hyp_out.exists()

    @pytest.mark.parametrize("utt_id", ["../escaped", "a/b", "..", "", "a\0b"])
    def test_utt_id_that_is_not_a_file_name_writes_nothing(self, tmp_path, capsys, utt_id):
        scores = [{"u1": [[-1.0, -2.0]], "u2": [[-2.0, -1.0]]}] * 2
        manifests = make_stream_manifests(tmp_path, scores)
        for manifest in manifests:
            entries = [json.loads(line) for line in Path(manifest).read_text().splitlines()]
            entries[1]["utt_id"] = utt_id
            write_manifest(manifest, entries)
        out_dir = tmp_path / "fused"
        out_dir.mkdir()
        before = snapshot(tmp_path)
        assert main(["combine", "--mode", "frame-joint", "--streams", *manifests,
                     "--weights", "1:1", "--out-dir", str(out_dir),
                     "--hyp-out", str(tmp_path / "hyp.tsv")]) == 2
        assert f"error: {manifests[0]}: {utt_id}: " in capsys.readouterr().err
        assert snapshot(tmp_path) == before

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

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_truncate_below_one_names_the_flag_before_reading(self, tmp_path, capsys,
                                                              value):
        out = tmp_path / "rescored.jsonl"
        # the N-best file does not exist: the flag is rejected before it is read
        assert main(["combine", "--mode", "rescore", "--nbest", str(tmp_path / "none.jsonl"),
                     "--weights", "ctc:1.0", "--truncate", value, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --truncate must be >= 1, got {value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["frame-joint", "rescore"])
    @pytest.mark.parametrize("value", ["0", "1.5", "nan"])
    def test_grid_step_outside_unit_interval_names_the_flag_before_reading(
            self, tmp_path, capsys, mode, value):
        # no input exists: the flag is rejected before any is read
        if mode == "frame-joint":
            inputs = ["--streams", str(tmp_path / "sys0.jsonl"), str(tmp_path / "sys1.jsonl"),
                      "--out-dir", str(tmp_path)]
        else:
            inputs = ["--nbest", str(tmp_path / "none.jsonl")]
        before = snapshot(tmp_path)
        assert main(["combine", "--mode", mode, *inputs, "--weights", "tune",
                     "--dev-ref", str(tmp_path / "ref.tsv"), "--grid-step", value,
                     "--hyp-out", str(tmp_path / "hyp.tsv")]) == 2
        assert capsys.readouterr().err == \
            f"error: --grid-step must be in (0, 1], got {float(value)}\n"
        assert snapshot(tmp_path) == before

    def test_rescore_overflow_without_out_exit_2(self, tmp_path, capsys):
        # the overflowed hypothesis would be the 1-best of `--hyp-out`
        nbest = tmp_path / "nbest.jsonl"
        write_nbest(nbest, [NBestList("u1", [
            Hypothesis("fine", ["fine"], {"ctc": 1.0, "lm": 2.0}),
            Hypothesis("huge", ["huge"], {"ctc": -1e308, "lm": -1e308})])])
        before = snapshot(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning would raise here
            assert main(["combine", "--mode", "rescore", "--nbest", str(nbest),
                         "--weights", "ctc:1,lm:1", "--hyp-out", str(tmp_path / "h.tsv")]) == 2
        assert capsys.readouterr().err == \
            f"error: {nbest}: u1: hypothesis 1 has a non-finite combined score -inf\n"
        assert snapshot(tmp_path) == before

    @pytest.mark.parametrize("mode, flag, value", [
        ("frame-joint", "--truncate", "0"),
        ("frame-joint", "--nbest", "nbest.jsonl"),
        ("frame-joint", "--out", "out.jsonl"),
        ("rescore", "--streams", "sys0.jsonl"),
        ("rescore", "--out-dir", "fused"),
    ])
    def test_flag_of_the_other_mode_rejected_before_reading(self, tmp_path, capsys, mode,
                                                            flag, value):
        # the mode's own input does not exist: the flag is rejected before it is read
        if mode == "frame-joint":
            inputs = ["--streams", str(tmp_path / "none.jsonl"), "--out-dir", str(tmp_path),
                      "--weights", "1:1"]
        else:
            inputs = ["--nbest", str(tmp_path / "none.jsonl"), "--weights", "ctc:1"]
        before = snapshot(tmp_path)
        if flag != "--truncate":
            value = str(tmp_path / value)
        assert main(["combine", "--mode", mode, *inputs, flag, value,
                     "--hyp-out", str(tmp_path / "hyp.tsv")]) == 2
        assert capsys.readouterr().err == f"error: --mode {mode} does not take {flag}\n"
        assert snapshot(tmp_path) == before


    def rescore_tune(self, tmp_path, lists, ref_rows):
        nbest, ref = tmp_path / "nbest.jsonl", tmp_path / "ref.tsv"
        write_nbest(nbest, lists)
        write_transcripts_tsv(ref, ref_rows)
        out, hyp_out = tmp_path / "out.jsonl", tmp_path / "hyp.tsv"
        code = main(["combine", "--mode", "rescore", "--nbest", str(nbest), "--weights",
                     "tune", "--dev-ref", str(ref), "--out", str(out),
                     "--hyp-out", str(hyp_out)])
        assert not out.exists() and not hyp_out.exists()
        return code, str(nbest), str(ref)

    def test_tune_on_empty_nbest_exit_2(self, tmp_path, capsys):
        code, nbest, _ = self.rescore_tune(tmp_path, [], [("u1", "a", {})])
        assert code == 2
        assert nbest in capsys.readouterr().err

    def test_tune_without_scores_exit_2(self, tmp_path, capsys):
        lists = [NBestList("u1", [Hypothesis("a", ["a"], {})])]
        code, nbest, _ = self.rescore_tune(tmp_path, lists, [("u1", "a", {})])
        assert code == 2
        assert capsys.readouterr().err == f"error: {nbest}: u1: no scores to tune\n"

    def test_rescore_tune_dev_ref_missing_utt_exit_2(self, tmp_path, capsys):
        lists = [NBestList(u, [Hypothesis("a", ["a"], {"ctc": 1.0, "lm": 2.0})])
                 for u in ("u1", "u9")]
        code, _, ref = self.rescore_tune(tmp_path, lists, [("u1", "a", {})])
        assert code == 2
        err = capsys.readouterr().err
        assert ref in err and "u9" in err

    def test_rescore_tune_score_names_differ_exit_2(self, tmp_path, capsys):
        lists = [NBestList("u1", [Hypothesis("a", ["a"], {"ctc": 1.0, "lm": 2.0})]),
                 NBestList("u2", [Hypothesis("b", ["b"], {"ctc": 1.0})])]
        code, nbest, _ = self.rescore_tune(tmp_path, lists, [("u1", "a", {}), ("u2", "b", {})])
        assert code == 2
        assert capsys.readouterr().err == \
            f"error: {nbest}: u2: hypothesis 0 is missing score 'lm'\n"

    def test_rescore_weights_naming_a_missing_score_exit_2(self, tmp_path, capsys):
        nbest, out = tmp_path / "nbest.jsonl", tmp_path / "out.jsonl"
        write_nbest(nbest, [NBestList("u1", [Hypothesis("a", ["a"], {"lm": 1.0})])])
        assert main(["combine", "--mode", "rescore", "--nbest", str(nbest),
                     "--weights", "ctc:1,lm:1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: {nbest}: u1: hypothesis 0 is missing score 'ctc'\n"
        assert not out.exists()

    def test_frame_joint_tune_dev_ref_missing_utt_exit_2(self, tmp_path, capsys):
        manifests = make_stream_manifests(
            tmp_path, [{"u1": [[0.0, -1.0]], "u9": [[-1.0, 0.0]]}] * 2)
        ref = tmp_path / "ref.tsv"
        write_transcripts_tsv(ref, [("u1", "a", {})])
        out_dir = tmp_path / "fused"
        out_dir.mkdir()
        assert main(["combine", "--mode", "frame-joint", "--streams", *manifests,
                     "--weights", "tune", "--dev-ref", str(ref),
                     "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert str(ref) in err and "u9" in err
        assert not list(out_dir.iterdir())

    def test_non_finite_nbest_score_exit_2(self, tmp_path, capsys):
        nbest = tmp_path / "nbest.jsonl"
        nbest.write_text('{"utt_id": "u1", "hyps": [{"text": "a", "tokens": ["a"], '
                         '"scores": {"ctc": NaN}}]}\n')
        out = tmp_path / "out.jsonl"
        assert main(["combine", "--mode", "rescore", "--nbest", str(nbest),
                     "--weights", "ctc:1", "--out", str(out)]) == 2
        assert f"{nbest}:1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("second, message", [
        ('{"utt_id": "u1", "hyps": []}', "duplicate utt_id 'u1'"),
        ('{"utt_id": "u2"}', "missing key 'hyps'"),
        ('{"utt_id": "u2", "hyps": [{"text": 5, "tokens": ["a"], "scores": {"ctc": 1.0}}]}',
         "malformed record: hypothesis 0 text must be a string, got 5"),
        ('{"utt_id": "u2", "hyps": [{"text": "ab", "tokens": "ab", "scores": {"ctc": 1.0}}]}',
         "malformed record: hypothesis 0 tokens must be a list of strings, got 'ab'"),
        ('{"utt_id": "u2", "hyps": [{"text": "a", "tokens": [1], "scores": {"ctc": 1.0}}]}',
         "malformed record: hypothesis 0 tokens must be a list of strings, got [1]"),
        ('{"utt_id": "u2", "hyps": [{"text": "a", "tokens": ["a"], "scores": {"ctc": true}}]}',
         "hypothesis 0 score 'ctc' is not a finite number: True"),
        ('{"utt_id": "u2", "hyps": [{"text": "a", "tokens": ["a"], "scores": "ab"}]}',
         "hypothesis 0 scores must be a JSON object, got 'ab'"),
        ('{"utt_id": "u2", "hyps": [{"text": "a", "tokens": ["a"], "scores": [["ctc", 1.0]]}]}',
         "hypothesis 0 scores must be a JSON object, got [['ctc', 1.0]]"),
        ('{"utt_id": "u2", "hyps": []}', "u2: empty N-best list"),
        ('{"utt_id": "u2", "hyps": [{"text": "a", "tokens": ["a"], "scores": {"ctc": 1.0}}, '
         '{"text": "b", "tokens": ["b"], "scores": {"lm": 1.0}}]}',
         "u2: hypothesis 1 score names ['lm'] differ from ['ctc']"),
    ], ids=["repeated-utt", "missing-key", "text-number", "tokens-string", "token-number",
            "score-bool", "scores-string", "scores-pairs", "no-hyps", "score-names-differ"])
    def test_malformed_nbest_record_exit_2(self, tmp_path, capsys, second, message):
        nbest = tmp_path / "nbest.jsonl"
        nbest.write_text('{"utt_id": "u1", "hyps": [{"text": "a", "tokens": ["a"], '
                         '"scores": {"ctc": 1.0}}]}\n' + second + "\n")
        out, hyp_out = tmp_path / "out.jsonl", tmp_path / "hyp.tsv"
        assert main(["combine", "--mode", "rescore", "--nbest", str(nbest), "--weights",
                     "ctc:1", "--out", str(out), "--hyp-out", str(hyp_out)]) == 2
        assert f"{nbest}:2: {message}" in capsys.readouterr().err
        assert not out.exists() and not hyp_out.exists()

    @pytest.mark.parametrize("weights", ["1:1", "tune"])
    def test_frame_joint_short_stream_writes_nothing(self, tmp_path, capsys, weights):
        # every utterance's streams are checked before the first write
        full = {f"u{i}": [[0.0, -1.0], [-1.0, 0.0]] for i in range(4)}
        manifests = make_stream_manifests(
            tmp_path, [full, {**full, "u2": [[0.0, -1.0]]}])
        ref = tmp_path / "ref.tsv"
        write_transcripts_tsv(ref, [(u, "a b", {}) for u in full])
        out_dir, hyp_out = tmp_path / "fused", tmp_path / "hyp.tsv"
        out_dir.mkdir()
        assert main(["combine", "--mode", "frame-joint", "--streams", *manifests,
                     "--weights", weights, "--dev-ref", str(ref),
                     "--out-dir", str(out_dir), "--hyp-out", str(hyp_out)]) == 2
        assert "u2" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []
        assert not hyp_out.exists()

    @pytest.mark.parametrize("entry, message", [
        (5, "an entry must be a JSON object, got 5"),
        ({"utt_id": 7, "path": "FILE"}, "utt_id must be a string, got 7"),
        ({"utt_id": "u1", "paths": {"default": 5}}, "default path must be a string, got 5"),
        ({"utt_id": "u1", "paths": [1]}, "paths must be an object, got [1]"),
        ({"utt_id": "u1", "paths": "x"}, "paths must be an object, got 'x'"),
        ({"utt_id": "u1", "path": "FILE", "metadata": 3}, "metadata must be an object, got 3"),
    ], ids=["number", "utt-id", "path-number", "paths-list", "paths-string", "metadata"])
    def test_malformed_manifest_line_exit_2(self, tmp_path, capsys, entry, message):
        manifests = make_stream_manifests(tmp_path, [{"u1": [[0.0, -1.0]]}] * 2)
        line = json.dumps(entry).replace("FILE", str(tmp_path / "sys1" / "u1.fss1"))
        with open(manifests[1], "w") as fh:
            fh.write(line + "\n")
        out_dir, hyp_out = tmp_path / "fused", tmp_path / "hyp.tsv"
        out_dir.mkdir()
        assert main(["combine", "--mode", "frame-joint", "--streams", *manifests,
                     "--weights", "1:1", "--out-dir", str(out_dir),
                     "--hyp-out", str(hyp_out)]) == 2
        assert f"{manifests[1]}:1: {message}" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == [] and not hyp_out.exists()

    @pytest.mark.parametrize("mode", ["frame-joint", "rescore"])
    def test_tune_on_empty_dev_reference_exit_2(self, tmp_path, capsys, mode):
        ref = tmp_path / "ref.tsv"
        write_transcripts_tsv(ref, [("u1", "a", {}), ("u2", " ", {})])
        out_dir, hyp_out = tmp_path / "fused", tmp_path / "hyp.tsv"
        out_dir.mkdir()
        if mode == "frame-joint":
            manifests = make_stream_manifests(
                tmp_path, [{"u1": [[0.0, -1.0]], "u2": [[-1.0, 0.0]]}] * 2)
            inputs = ["--streams", *manifests, "--out-dir", str(out_dir)]
        else:
            nbest = tmp_path / "nbest.jsonl"
            write_nbest(nbest, [NBestList(u, [Hypothesis("a", ["a"], {"ctc": 1.0, "lm": 0.0})])
                                for u in ("u1", "u2")])
            inputs = ["--nbest", str(nbest), "--out", str(out_dir / "out.jsonl")]
        assert main(["combine", "--mode", mode, *inputs, "--weights", "tune",
                     "--dev-ref", str(ref), "--hyp-out", str(hyp_out)]) == 2
        assert f"{ref}: u2: empty reference" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == [] and not hyp_out.exists()

    @pytest.mark.parametrize("mode, weights, message", [
        ("frame-joint", "nan:1", "combination weights must be finite, got [nan, 1.0]"),
        ("frame-joint", "1:inf", "combination weights must be finite, got [1.0, inf]"),
        ("frame-joint", "1e400:1", "combination weights must be finite, got [inf, 1.0]"),
        ("rescore", "ctc:nan,tdnn:1", "combination weights must be finite, got [nan, 1.0]"),
        ("rescore", "ctc:inf,tdnn:1", "combination weights must be finite, got [inf, 1.0]"),
        ("rescore", "ctc:1,tdnn:1e400", "combination weights must be finite, got [1.0, inf]"),
        ("rescore", "ctc:0.9,ctc:0.1", "weights must name each score once; got 'ctc:0.9,ctc:0.1'"),
    ], ids=["joint-nan", "joint-inf", "joint-overflow", "rescore-nan", "rescore-inf",
            "rescore-overflow", "rescore-repeated-name"])
    def test_bad_weights_exit_2(self, tmp_path, capsys, mode, weights, message):
        out_dir, hyp_out = tmp_path / "fused", tmp_path / "hyp.tsv"
        out_dir.mkdir()
        if mode == "frame-joint":
            manifests = make_stream_manifests(tmp_path, [{"u1": [[0.0, -1.0]]}] * 2)
            inputs = ["--streams", *manifests, "--out-dir", str(out_dir)]
        else:
            nbest = tmp_path / "nbest.jsonl"
            write_nbest(nbest, [NBestList("u1", [Hypothesis("a", ["a"],
                                                            {"ctc": 1.0, "tdnn": 0.0})])])
            inputs = ["--nbest", str(nbest), "--out", str(out_dir / "out.jsonl")]
        before = snapshot(tmp_path)
        assert main(["combine", "--mode", mode, *inputs, "--weights", weights,
                     "--hyp-out", str(hyp_out)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert snapshot(tmp_path) == before

    def test_missing_inputs_exit_2(self, tmp_path):
        assert main(["combine", "--mode", "frame-joint", "--weights", "1:1"]) == 2
        assert main(["combine", "--mode", "rescore", "--weights", "ctc:1"]) == 2

    def test_rescore_whose_combined_score_overflows_exit_2(self, tmp_path, capsys):
        # finite inputs whose weighted sum is -inf: NBEST JSON cannot hold it
        nbest, out, hyp_out = tmp_path / "nbest.jsonl", tmp_path / "out.jsonl", tmp_path / "h.tsv"
        write_nbest(nbest, [NBestList(u, [Hypothesis("a", ["a"], {"ctc": c, "lm": c})])
                            for u, c in (("u1", -1.0), ("u2", -1e308))])
        before = snapshot(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning would raise here
            assert main(["combine", "--mode", "rescore", "--nbest", str(nbest), "--weights",
                         "ctc:1,lm:1", "--out", str(out), "--hyp-out", str(hyp_out)]) == 2
        assert capsys.readouterr().err == \
            f"error: {nbest}: u2: hypothesis 0 has a non-finite combined score -inf\n"
        assert snapshot(tmp_path) == before

    def test_frame_joint_whose_fused_score_overflows_float32_exit_2(self, tmp_path, capsys):
        # -6e38 is finite in float64 but not in FSS1's float32; u1 fits, and
        # is not written either
        scores = {"u1": [[-1.0, -2.0]], "u2": [[-1.0, -3e38]]}
        manifests = make_stream_manifests(tmp_path, [scores, scores])
        out_dir, hyp_out = tmp_path / "fused", tmp_path / "hyp.tsv"
        out_dir.mkdir()
        before = snapshot(tmp_path)
        assert main(["combine", "--mode", "frame-joint", "--streams", *manifests,
                     "--weights", "1:1", "--out-dir", str(out_dir),
                     "--hyp-out", str(hyp_out)]) == 2
        fused = 2 * float(np.float32(-3e38))  # what FSS1 stored, added twice
        assert (f"{out_dir / 'u2.fss1'}: u2: score {fused!r} in frame 0 does not fit float32"
                in capsys.readouterr().err)
        assert snapshot(tmp_path) == before

    def test_frame_joint_write_that_fails_at_utterance_k_leaves_nothing(self, tmp_path,
                                                                       capsys, monkeypatch):
        import asrfuse.cli

        scores = {f"u{i}": [[-1.0, -2.0]] for i in range(3)}
        manifests = make_stream_manifests(tmp_path, [scores, scores])
        out_dir = tmp_path / "fused"
        out_dir.mkdir()
        written, write = [], asrfuse.cli.write_fss1

        def failing(path, stream, **kwargs):
            if len(written) == 2:
                raise OSError(f"{path}: disk full")
            written.append(path)
            return write(path, stream, **kwargs)

        monkeypatch.setattr(asrfuse.cli, "write_fss1", failing)
        before = snapshot(tmp_path)
        assert main(["combine", "--mode", "frame-joint", "--streams", *manifests,
                     "--weights", "1:1", "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == f"error: {out_dir / 'u2.fss1'}: disk full\n"
        assert len(written) == 2 and snapshot(tmp_path) == before

    @pytest.mark.parametrize("mode, weights, message", [
        ("frame-joint", "1:x", "weights must be a preset"),
        ("frame-joint", "uaspeech-3way",
         "error: --weights uaspeech-3way gives 3 weights for 2 --streams manifests\n"),
        ("frame-joint", "1:1:1", "error: --weights 1:1:1 gives 3 weights for 2 --streams "
                                 "manifests\n"),
        ("rescore", "ctc:x", "weights must be a preset"),
    ], ids=["frame-joint", "frame-joint-preset-count", "frame-joint-ratio-count", "rescore"])
    def test_weights_are_checked_before_any_data_file_is_read(self, tmp_path, capsys, mode,
                                                              weights, message):
        bad = tmp_path / "bad"
        bad.write_text("not json\n")
        if mode == "frame-joint":
            manifest = tmp_path / "sys.jsonl"
            write_manifest(manifest, [{"utt_id": "u1", "path": str(bad)}])
            inputs = ["--streams", str(manifest), str(manifest), "--out-dir", str(tmp_path)]
        else:
            inputs = ["--nbest", str(bad)]
        assert main(["combine", "--mode", mode, *inputs, "--weights", weights]) == 2
        err = capsys.readouterr().err
        assert message in err and str(bad) not in err


class TestBugsEscapeMain:
    """`main` maps only rejected input to exit 2; any other exception is a
    bug and escapes with its traceback."""

    @pytest.mark.parametrize("error", [KeyError("boom"), ValueError("boom")],
                             ids=["KeyError", "ValueError"])
    def test_a_bug_in_a_command_is_raised(self, tmp_path, monkeypatch, error):
        hyp, ref = score_fixture(tmp_path, [("u1", "a", {})], [("u1", "a", {})])

        def broken(*args, **kwargs):
            raise error

        monkeypatch.setattr("asrfuse.cli.wer", broken)
        with pytest.raises(type(error), match="boom"):
            main(["score", "--hyp", hyp, "--ref", ref])

    def test_rejected_input_is_still_a_value_error(self, tmp_path):
        from asrfuse.errors import ValidationError

        nbest = tmp_path / "nbest.jsonl"
        nbest.write_text('{"utt_id": "u1"}\n')
        with pytest.raises(ValueError, match="missing key 'hyps'") as caught:
            read_nbest(nbest)
        assert caught.type is ValidationError


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
        assert capsys.readouterr().err == \
            f"error: {hyp}: hypotheses missing for 1 utts, first 10: ['u2']\n"

    def test_empty_reference_names_the_reference_exit_2(self, tmp_path, capsys):
        hyp, ref = score_fixture(tmp_path, [("u1", "a", {})], [("u1", " ", {})])
        out = tmp_path / "report.json"
        assert main(["score", "--hyp", hyp, "--ref", ref, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {ref}: u1: empty reference\n"
        assert not out.exists()

    def test_header_only_reference_exit_2(self, tmp_path, capsys):
        hyp, ref = score_fixture(tmp_path, [], [])
        out = tmp_path / "report.json"
        assert main(["score", "--hyp", hyp, "--ref", ref, "--out", str(out)]) == 2
        assert ref in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_group_key_names_the_reference(self, tmp_path, capsys):
        hyp, ref = score_fixture(tmp_path, [("u1", "a", {}), ("u2", "b", {})],
                                 [("u1", "a", {"seen": "seen"}), ("u2", "b", {"seen": "seen"})])
        out = tmp_path / "report.json"
        assert main(["score", "--hyp", hyp, "--ref", ref, "--groups", "seen,nosuch",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {ref}: no metadata column 'nosuch' for utterance u1\n"
        assert not out.exists()

    def test_reference_header_that_names_a_column_twice_exit_2(self, tmp_path, capsys):
        # the second seen column once replaced the first one's values
        hyp, ref = score_fixture(tmp_path, [("u1", "a", {})], [])
        Path(ref).write_text("utt_id\ttext\tseen\tseen\nu1\ta\tseen\tunseen\n")
        out = tmp_path / "report.json"
        assert main(["score", "--hyp", hyp, "--ref", ref, "--groups", "seen",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: {ref}: TSV header names column 'seen' twice\n"
        assert not out.exists()

    def test_repeated_group_key_rejected(self, tmp_path, capsys):
        hyp, ref = score_fixture(tmp_path, [("u1", "a", {})],
                                 [("u1", "a", {"severity": "H", "seen": "seen"})])
        out = tmp_path / "report.json"
        assert main(["score", "--hyp", hyp, "--ref", ref, "--groups",
                     "severity,seen,severity", "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: --groups names 'severity' more than once\n"
        assert not out.exists()

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

    def test_header_only_reference_exit_2(self, tmp_path, capsys):
        hyp, ref = score_fixture(tmp_path, [], [])
        assert main(["significance", "--hyp-a", hyp, "--hyp-b", hyp, "--ref", ref]) == 2
        assert ref in capsys.readouterr().err

    @pytest.mark.parametrize("short", ["--hyp-a", "--hyp-b"])
    def test_short_hypothesis_file_is_named_exit_2(self, tmp_path, capsys, short):
        rows = [("u1", "a b", {}), ("u2", "c", {})]
        hyp, ref = score_fixture(tmp_path, rows, rows)
        partial = tmp_path / "partial.tsv"
        write_transcripts_tsv(partial, rows[:1])
        files = {"--hyp-a": hyp, "--hyp-b": hyp, short: str(partial)}
        assert main(["significance", *[x for kv in files.items() for x in kv],
                     "--ref", ref]) == 2
        assert capsys.readouterr().err == \
            f"error: {partial}: hypotheses missing for 1 utts, first 10: ['u2']\n"

    @pytest.mark.parametrize("alpha", ["0", "1", "-1", "nan"])
    def test_alpha_outside_unit_interval_exit_2(self, tmp_path, capsys, alpha):
        rows = [("u1", "a b", {}), ("u2", "c", {})]
        hyp, ref = score_fixture(tmp_path, rows, rows)
        assert main(["significance", "--hyp-a", hyp, "--hyp-b", hyp, "--ref", ref,
                     f"--alpha={alpha}", "--json"]) == 2
        captured = capsys.readouterr()
        assert f"alpha must lie in (0, 1), got {float(alpha)}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("alpha", ["0", "1", "nan"])
    def test_alpha_outside_unit_interval_names_the_flag_before_reading(self, tmp_path, capsys,
                                                                       alpha):
        # no TSV exists: the flag is rejected before any is read
        missing = str(tmp_path / "none.tsv")
        assert main(["significance", "--hyp-a", missing, "--hyp-b", missing,
                     "--ref", missing, f"--alpha={alpha}"]) == 2
        assert capsys.readouterr().err == \
            f"error: --alpha must lie in (0, 1), got {float(alpha)}\n"

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


# -- stdout: `main` prints each command's report -----------------------------------------


class TestStdout:
    """`main` is the one printer: a command's text lines, or with --json its
    report on one line with sorted keys, and nothing on stdout on exit 2."""

    @staticmethod
    def printed(capsys, argv):
        """(text `main(argv)` prints, the report it prints with --json); both exit 0."""
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert main([*argv, "--json"]) == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert out == json.dumps(report, sort_keys=True) + "\n"
        return text, report

    def test_train(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        text, report = self.printed(capsys, ["train", "--config", str(cfg_path)])
        log = (tmp_path / "log.jsonl").read_text().splitlines()
        assert text == f"trained hubert for 2 epochs -> {tmp_path / 'model.mdl1'}\n"
        assert report == {"out_model": "model.mdl1", "epochs": 2,
                          "final_loss": json.loads(log[-1])["loss"]}

    def test_extract(self, tmp_path, capsys):
        model = train_bottleneck_model(tmp_path)
        manifest = make_feature_inputs(tmp_path, n=2, t=10, d=6)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        capsys.readouterr()
        text, report = self.printed(capsys, ["extract", "--model", str(model), "--manifest",
                                             str(manifest), "--dim", "8",
                                             "--out-dir", str(out_dir)])
        assert text == "extracted 2 utterances at after-last-block, dim 8\n"
        assert report == {"extracted": 2, "dim": 8, "position": "after-last-block"}

    def test_combine_frame_joint(self, tmp_path, capsys):
        manifests = make_stream_manifests(tmp_path, [{"u1": [[-1.0, -2.0]]},
                                                     {"u1": [[-2.0, -1.0]]}])
        out_dir = tmp_path / "fused"
        out_dir.mkdir()
        text, report = self.printed(capsys, ["combine", "--mode", "frame-joint", "--streams",
                                             *manifests, "--weights", "2:1",
                                             "--out-dir", str(out_dir)])
        assert text == f"weights: 2.0:1.0\nfused 1 utterances -> {out_dir}\n"
        assert report == {"mode": "frame-joint", "weights": [2.0, 1.0], "utterances": 1}

    def test_combine_rescore_tuned(self, tmp_path, capsys):
        nbest, dev_ref = tmp_path / "nbest.jsonl", tmp_path / "dev.tsv"
        write_nbest(nbest, [NBestList("u1", [
            Hypothesis("a", ["a"], {"ctc": -1.0, "lm": -3.0}),
            Hypothesis("b", ["b"], {"ctc": -2.0, "lm": -1.0})])])
        write_transcripts_tsv(dev_ref, [("u1", "b", {})])
        text, report = self.printed(capsys, ["combine", "--mode", "rescore", "--nbest",
                                             str(nbest), "--weights", "tune",
                                             "--dev-ref", str(dev_ref), "--grid-step", "0.5"])
        # scores are costs: ctc alone ranks "b" first
        assert text == ("weights: {'ctc': 1.0, 'lm': 0.0} (tuned, dev WER 0.00%)\n"
                        "rescored 1 utterances\n")
        assert report == {"mode": "rescore", "weights": {"ctc": 1.0, "lm": 0.0},
                          "utterances": 1, "dev_wer": 0.0}

    def test_combine_frame_joint_tuned(self, tmp_path, capsys):
        # each system alone misreads one utterance; only the even mixture reads both
        manifests = make_stream_manifests(tmp_path, [
            {"u1": [[-1.0, -3.0]], "u2": [[-1.0, -2.0]]},
            {"u1": [[-2.0, -1.0]], "u2": [[-3.0, -1.0]]}])
        dev_ref = tmp_path / "dev.tsv"
        write_transcripts_tsv(dev_ref, [("u1", "a", {}), ("u2", "b", {})])
        out_dir = tmp_path / "fused"
        out_dir.mkdir()
        text, report = self.printed(capsys, ["combine", "--mode", "frame-joint", "--streams",
                                             *manifests, "--weights", "tune", "--dev-ref",
                                             str(dev_ref), "--grid-step", "0.5",
                                             "--out-dir", str(out_dir)])
        assert text == ("weights: 0.5:0.5 (tuned, dev WER 0.00%)\n"
                        f"fused 2 utterances -> {out_dir}\n")
        assert report == {"mode": "frame-joint", "weights": [0.5, 0.5], "utterances": 2,
                          "dev_wer": 0.0}

    def test_combine_rescore_fixed(self, tmp_path, capsys):
        nbest = tmp_path / "nbest.jsonl"
        write_nbest(nbest, [NBestList("u1", [
            Hypothesis("a", ["a"], {"ctc": -1.0, "lm": -3.0}),
            Hypothesis("b", ["b"], {"ctc": -2.0, "lm": -1.0})])])
        text, report = self.printed(capsys, ["combine", "--mode", "rescore", "--nbest",
                                             str(nbest), "--weights", "lm:1,ctc:0.5"])
        assert text == "weights: {'lm': 1.0, 'ctc': 0.5}\nrescored 1 utterances\n"
        assert report == {"mode": "rescore", "weights": {"lm": 1.0, "ctc": 0.5},
                          "utterances": 1}

    def test_score(self, tmp_path, capsys):
        hyp, ref = score_fixture(tmp_path, [("u1", "a b", {}), ("u2", "c", {})],
                                 [("u1", "a c", {"seen": "seen"}),
                                  ("u2", "c", {"seen": "unseen"})])
        text, report = self.printed(capsys, ["score", "--hyp", hyp, "--ref", ref,
                                             "--groups", "seen"])
        assert text == ("WER(%) overall: 33.33\nWER(%) by seen\n"
                        "  unseen |     seen |      All\n    0.00 |    50.00 |    33.33\n")
        assert report == {"mode": "wer", "overall": pytest.approx(100 / 3),
                          "groups": {"seen": {"seen": 50.0, "unseen": 0.0}}}

    def test_significance(self, tmp_path, capsys):
        # error differences per utterance: 2, 0, 2, 0
        ref = [(f"u{i}", "w w w w w", {}) for i in range(4)]
        hyp_a, ref_path = score_fixture(tmp_path, [(u, "x x w w w" if i % 2 == 0 else t, {})
                                                   for i, (u, t, _) in enumerate(ref)], ref)
        hyp_b = tmp_path / "b.tsv"
        write_transcripts_tsv(hyp_b, ref)
        text, report = self.printed(capsys, ["significance", "--hyp-a", hyp_a, "--hyp-b",
                                             str(hyp_b), "--ref", ref_path])
        assert text == ("Z = 1.7321, two-sided p = 0.0833, alpha = 0.05\n"
                        "verdict: not significant\n")
        assert sorted(report) == ["alpha", "degenerate", "marker", "p", "significant", "z"]
        assert report == {"z": pytest.approx(3 ** 0.5), "p": pytest.approx(0.0833, abs=1e-4),
                          "alpha": 0.05, "significant": False, "degenerate": False,
                          "marker": ""}

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("argv", [
        ["train", "--config", "{tmp}/missing.json"],
        ["extract", "--model", "{tmp}/missing.mdl1", "--manifest", "{tmp}/missing.jsonl",
         "--out-dir", "{tmp}"],
        ["combine", "--mode", "rescore", "--nbest", "{tmp}/missing.jsonl", "--weights", "x"],
        ["score", "--hyp", "{tmp}/h.tsv", "--ref", "{tmp}/r.tsv", "--groups", "a,a"],
        ["significance", "--hyp-a", "{tmp}/a.tsv", "--hyp-b", "{tmp}/b.tsv",
         "--ref", "{tmp}/r.tsv", "--alpha", "0"],
    ], ids=lambda argv: argv[0])
    def test_exit_2_prints_nothing_on_stdout(self, tmp_path, capsys, argv, json_flag):
        assert main([a.format(tmp=tmp_path) for a in argv] + json_flag) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    def test_report_that_json_cannot_hold_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("asrfuse.cli.cmd_score", lambda args: ({"overall": np.nan}, ["x"]))
        argv = ["score", "--hyp", str(tmp_path / "h.tsv"), "--ref", str(tmp_path / "r.tsv")]
        assert main(argv) == 0 and capsys.readouterr().out == "x\n"
        assert main([*argv, "--json"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: --json report: Out of range float")


# -- the file plan: no output may replace an input -------------------------------------


class PlanCase:
    """A valid run of one command with its inputs in `root/in` and its outputs
    in `root/out`.  `paths` maps each file's id (`PLAN_FILES`) to its path; a
    per-utterance output's path is its --out-dir, and `per_utt` maps its id
    to the name of the file it writes there.  `key(id)` is the key that an
    error names the file by."""

    def __init__(self, root, command):
        self.root, self.command, self.per_utt, self.prefix = root, command, {}, ""
        (root / "in").mkdir()
        (root / "out").mkdir()
        getattr(self, "_" + command.replace("-", "_"))(root / "in", str(root / "out"))

    def _train(self, d, out):
        self.paths = {"config": f"{d}/cfg.json", "resume": f"{d}/resume.mdl1",
                      "manifest": f"{d}/feats.jsonl", "feature": f"{d}/utt0.afm1",
                      "out_model": f"{out}/model.mdl1", "log": f"{out}/log.jsonl"}
        self.prefix = f"{self.paths['config']}: "
        write_afm1(self.paths["feature"],
                   FeatureSequence(make_rng(3).normal(size=(24, 4)), 20.0, label="SSL"))
        write_config(d / "cfg.json", epochs=0, out_model=self.paths["resume"])
        assert main(["train", "--config", self.paths["config"]]) == 0

    def _extract(self, d, out):
        self.paths = {"model": f"{d}/model.mdl1", "manifest": f"{d}/feats.jsonl",
                      "feature": f"{d}/utt0.afm1", "out": out}
        self.per_utt = {"out": "utt0.afm1"}
        cfg = SslConfig(objective="wav2vec2", d_in=2, n_blocks=1, d_model=4, n_heads=1, d_ff=4,
                        num_codebooks=1, entries=2, code_dim=2,
                        bottleneck_position="after-last-block", bottleneck_dim=2)
        save_ssl_checkpoint(self.paths["model"], build_ssl_model(cfg, seed=3), 3, 0)
        write_afm1(self.paths["feature"],
                   FeatureSequence(make_rng(3).normal(size=(4, 2)), 20.0, label="SSL"))

    def _frame_joint(self, d, out):
        self.paths = {"sys0": f"{d}/sys0.jsonl", "sys1": f"{d}/sys1.jsonl",
                      "stream0": f"{d}/s0.fss1", "stream1": f"{d}/s1.fss1",
                      "dev_ref": f"{d}/ref.tsv", "out": out, "hyp_out": f"{out}/hyp.tsv"}
        self.per_utt = {"out": "u1.fss1"}
        for k in range(2):
            write_fss1(self.paths[f"stream{k}"],
                       FrameScoreStream("u1", ["a", "b"], np.array([[-1.0, -2.0 + k]])))
        write_transcripts_tsv(self.paths["dev_ref"], [("u1", "a", {})])

    def _rescore(self, d, out):
        self.paths = {"nbest": f"{d}/nbest.jsonl", "dev_ref": f"{d}/ref.tsv",
                      "out": f"{out}/rescored.jsonl", "hyp_out": f"{out}/hyp.tsv"}
        write_nbest(self.paths["nbest"], [NBestList("u1", [
            Hypothesis("a", ["a"], {"ctc": -1.0, "lm": -2.0}),
            Hypothesis("b", ["b"], {"ctc": -2.0, "lm": -1.0})])])
        write_transcripts_tsv(self.paths["dev_ref"], [("u1", "a", {})])

    def _score(self, d, out):
        self.paths = {"hyp": f"{d}/hyp.tsv", "ref": f"{d}/ref.tsv", "out": f"{out}/report.json"}
        write_transcripts_tsv(self.paths["hyp"], [("u1", "a b", {})])
        write_transcripts_tsv(self.paths["ref"], [("u1", "a c", {})])

    def key(self, name):
        p = self.paths
        keys = {"config": "--config", "resume": "resume", "sys0": "--streams",
                "sys1": "--streams", "out_model": "out_model", "log": "log"}
        if self.command == "train":
            keys.update(manifest="data.manifest", feature=f"{p['manifest']}: utt0 default path")
        elif self.command == "extract":
            keys.update(feature=f"{p['manifest']}: utt0 default path",
                        out=f"{p['manifest']}: utt0")
        elif self.command == "frame-joint":
            keys.update(stream0=f"{p['sys0']}: u1 default path",
                        stream1=f"{p['sys1']}: u1 default path", out=f"{p['sys0']}: u1")
        return keys.get(name, "--" + name.replace("_", "-"))

    def file(self, name):
        """The file that `name` reads or writes."""
        if name in self.per_utt:
            return os.path.join(self.paths[name], self.per_utt[name])
        return self.paths[name]

    def write(self):
        """Write the manifests and the config that name the files in `paths`."""
        p = self.paths
        if self.command in ("train", "extract"):
            write_manifest(p["manifest"], [{"utt_id": "utt0", "path": p["feature"]}])
        if self.command == "train":
            write_config(Path(p["config"]), epochs=1, out_model=p["out_model"], log=p["log"],
                         resume=p["resume"], data={"kind": "manifest", "manifest": p["manifest"]})
        if self.command == "frame-joint":
            for k in range(2):
                write_manifest(p[f"sys{k}"], [{"utt_id": "u1", "path": p[f"stream{k}"]}])

    def argv(self):
        p = self.paths
        if self.command == "train":
            return ["train", "--config", p["config"]]
        if self.command == "extract":
            return ["extract", "--model", p["model"], "--manifest", p["manifest"],
                    "--dim", "2", "--out-dir", p["out"]]
        if self.command == "frame-joint":
            return ["combine", "--mode", "frame-joint", "--streams", p["sys0"], p["sys1"],
                    "--weights", "1:1", "--dev-ref", p["dev_ref"], "--out-dir", p["out"],
                    "--hyp-out", p["hyp_out"]]
        if self.command == "rescore":
            return ["combine", "--mode", "rescore", "--nbest", p["nbest"], "--weights", "tune",
                    "--dev-ref", p["dev_ref"], "--out", p["out"], "--hyp-out", p["hyp_out"]]
        return ["score", "--hyp", p["hyp"], "--ref", p["ref"], "--out", p["out"]]

    def run(self):
        self.write()
        return main(self.argv())

    def run_rejected(self, capsys, message):
        """Run, expecting exit 2 with `message` and every file of the tree unchanged."""
        self.write()
        before = snapshot_with_modes(self.root)
        capsys.readouterr()
        assert main(self.argv()) == 2
        assert capsys.readouterr().err == f"error: {self.prefix}{message}\n"
        assert snapshot_with_modes(self.root) == before


def snapshot_with_modes(root):
    """Each path under `root`: its bytes (None for a directory) and its lstat mode."""
    return {str(p.relative_to(root)): (p.read_bytes() if p.is_file() else None,
                                       os.lstat(p).st_mode)
            for p in sorted(root.rglob("*"))}


PLAN_FILES = {"train": (["config", "resume", "manifest", "feature"], ["out_model", "log"]),
              "extract": (["model", "manifest", "feature"], ["out"]),
              "frame-joint": (["sys0", "sys1", "stream0", "stream1", "dev_ref"],
                              ["out", "hyp_out"]),
              "rescore": (["nbest", "dev_ref"], ["out", "hyp_out"]),
              "score": (["hyp", "ref"], ["out"])}
# every (input, output) pair but the one allowed alias, a resume that out_model replaces
ALIAS_PAIRS = [(command, i, o) for command, (inputs, outputs) in PLAN_FILES.items()
               for i in inputs for o in outputs
               if (command, i, o) != ("train", "resume", "out_model")]
OUTPUTS = [(command, o) for command, (_, outputs) in PLAN_FILES.items() for o in outputs]


def alias(case, i, o, how):
    """Make output `o` name input `i`'s file: by the same path, a symlink or a hard link."""
    case.write()  # the manifests and the config exist, so they can be copied or linked
    if how == "same path" and o in case.per_utt:
        shutil.copyfile(case.paths[i], case.file(o))
        case.paths[i] = case.file(o)
    elif how == "same path":
        case.paths[o] = case.paths[i]
    else:
        (os.symlink if how == "symlink" else os.link)(case.paths[i], case.file(o))


class TestFilePlan:
    """Each command checks every output path against its inputs and its other
    outputs before it reads any data, and a rejected run changes no file."""

    @pytest.mark.parametrize("command", PLAN_FILES)
    def test_the_unaliased_run_exits_0(self, tmp_path, command):
        case = PlanCase(tmp_path, command)
        assert case.run() == 0
        assert all(os.path.isfile(case.file(o)) for o in PLAN_FILES[command][1])

    @pytest.mark.parametrize("how", ["same path", "symlink", "hard link"])
    @pytest.mark.parametrize("command, i, o", ALIAS_PAIRS)
    def test_output_that_names_an_input_exit_2(self, tmp_path, capsys, command, i, o, how):
        case = PlanCase(tmp_path, command)
        alias(case, i, o, how)
        case.run_rejected(capsys, f"{case.key(o)} and {case.key(i)} "
                                  f"name the same file {case.file(o)}")

    @pytest.mark.parametrize("command", [c for c in PLAN_FILES if len(PLAN_FILES[c][1]) > 1])
    def test_two_outputs_that_name_one_file_exit_2(self, tmp_path, capsys, command):
        case = PlanCase(tmp_path, command)
        first, second = PLAN_FILES[command][1]
        case.paths[second] = case.file(first)
        case.run_rejected(capsys, f"{case.key(second)} and {case.key(first)} "
                                  f"name the same file {case.file(first)}")

    @pytest.mark.parametrize("command, o", OUTPUTS)
    def test_output_in_a_missing_directory_exit_2(self, tmp_path, capsys, command, o):
        case = PlanCase(tmp_path, command)
        missing = tmp_path / "missing"
        if o in case.per_utt:
            case.paths[o] = str(missing)
            message = f"--out-dir {missing}: output directory does not exist"
        else:
            case.paths[o] = str(missing / "file")
            message = f"{case.key(o)} {missing / 'file'}: output directory does not exist"
        case.run_rejected(capsys, message)

    @pytest.mark.parametrize("command, o", OUTPUTS)
    def test_output_that_is_a_directory_exit_2(self, tmp_path, capsys, command, o):
        case = PlanCase(tmp_path, command)
        os.mkdir(case.file(o))
        case.run_rejected(capsys, f"{case.key(o)} {case.file(o)} is a directory")

    @pytest.mark.parametrize("command, o", OUTPUTS)
    def test_empty_output_path_exit_2(self, tmp_path, capsys, command, o):
        # a train log of "" once failed only after out_model was written
        case = PlanCase(tmp_path, command)
        case.paths[o] = ""
        if o not in case.per_utt:
            message = f"{case.key(o)}: '' names an output file, so it must be a plain file name"
        elif command == "extract":
            message = "--out-dir : output directory does not exist"
        else:
            message = "frame-joint mode needs --out-dir"
        case.run_rejected(capsys, message)

    @pytest.mark.parametrize("command", PLAN_FILES)
    def test_the_plan_is_checked_before_any_data_is_read(self, tmp_path, capsys, monkeypatch,
                                                         command):
        case = PlanCase(tmp_path, command)
        (i, *_), (o, *_) = PLAN_FILES[command]
        alias(case, i, o, "symlink")

        def unread(*args, **kwargs):
            raise AssertionError("a data file was read before the file plan was checked")

        for name in ("cli.read_afm1", "cli.read_fss1", "cli.read_nbest",
                     "cli.read_transcripts_tsv", "models.read_mdl1"):
            monkeypatch.setattr(f"asrfuse.{name}", unread)
        case.run_rejected(capsys, f"{case.key(o)} and {case.key(i)} "
                                  f"name the same file {case.file(o)}")

    @pytest.mark.parametrize("command", ["frame-joint", "rescore"])
    def test_hyp_out_in_a_missing_directory_writes_nothing(self, tmp_path, capsys, command):
        # without the plan, both modes wrote their other outputs before --hyp-out failed
        case = PlanCase(tmp_path, command)
        case.paths["hyp_out"] = str(tmp_path / "missing" / "h.tsv")
        case.write()
        before = snapshot(tmp_path)
        assert main(case.argv()) == 2
        assert capsys.readouterr().err == (f"error: --hyp-out {tmp_path}/missing/h.tsv: "
                                           "output directory does not exist\n")
        assert snapshot(tmp_path) == before

    @pytest.mark.parametrize("text", ["hello\tworld", "good\nday"])
    def test_nbest_text_that_would_break_the_hyp_tsv_exit_2(self, tmp_path, capsys, text):
        # written into --hyp-out, it would give a TSV that score rejects
        case = PlanCase(tmp_path, "rescore")
        hyp = {"text": text, "tokens": ["a"], "scores": {"ctc": -1.0, "lm": -2.0}}
        Path(case.paths["nbest"]).write_text(json.dumps({"utt_id": "u1", "hyps": [hyp]},
                                                        sort_keys=True) + "\n")
        case.run_rejected(capsys, f"{case.paths['nbest']}:1: hypothesis 0 text {text!r} "
                                  "holds a tab, CR or LF, which would break a transcript TSV")

    def test_fss1_token_that_would_break_the_hyp_tsv_exit_2(self, tmp_path, capsys):
        # written into --hyp-out, it would give a TSV that score rejects
        case = PlanCase(tmp_path, "frame-joint")
        for k in range(2):
            Path(case.paths[f"stream{k}"]).write_bytes(fss1_bytes(["a\tb", "b"],
                                                                  [[-1.0, -2.0 + k]]))
        case.run_rejected(capsys, f"{case.paths['sys0']}: u1: {case.paths['stream0']}: "
                                  "FSS1 inventory token 'a\\tb' "
                                  "holds a tab, CR or LF, which would break a transcript TSV")

    @pytest.mark.parametrize("command, name, what", [
        ("train", "config", "JSON"),
        ("train", "manifest", "JSON"),
        ("rescore", "nbest", "JSON"),
        ("frame-joint", "stream0", "FSS1 inventory"),
        ("extract", "model", "MDL1 header"),
    ], ids=["config", "manifest", "nbest", "fss1-inventory", "mdl1-header"])
    def test_json_nested_past_the_recursion_limit_exit_2(self, tmp_path, capsys, command,
                                                         name, what):
        # the decoder's RecursionError once escaped main with a traceback
        case = PlanCase(tmp_path, command)
        case.write()
        path, deep = Path(case.paths[name]), "[" * 200_000
        where = f"{path}:1" if what == "JSON" and name != "config" else str(path)
        if name == "nbest":
            path.write_text('{"utt_id": "u1", "hyps": ' + deep + "}\n")
        elif what == "JSON":
            path.write_text(deep)
        else:  # the u32 length of the JSON blob sits at byte 16 of FSS1, 4 of MDL1
            at = 16 if name == "stream0" else 4
            data = path.read_bytes()
            (n,) = struct.unpack_from("<I", data, at)
            path.write_bytes(data[:at] + struct.pack("<I", len(deep)) + deep.encode()
                             + data[at + 4 + n:])
        before = snapshot_with_modes(tmp_path)
        assert main(case.argv()) == 2
        err = capsys.readouterr().err
        assert f"{where}: invalid {what}: maximum recursion depth exceeded" in err
        assert "Traceback" not in err
        assert snapshot_with_modes(tmp_path) == before

    @pytest.mark.parametrize("command, name, what, key", [
        ("train", "config", "JSON", "seed"),
        ("train", "manifest", "JSON", "utt_id"),
        ("rescore", "nbest", "JSON", "ctc"),
        ("extract", "model", "MDL1 header", "format"),
    ], ids=["config", "manifest", "nbest-scores", "mdl1-header"])
    def test_json_object_that_names_a_key_twice_exit_2(self, tmp_path, capsys, command, name,
                                                       what, key):
        # the decoder once kept the last value of a repeated key without a word
        case = PlanCase(tmp_path, command)
        case.write()
        path = Path(case.paths[name])
        where = f"{path}:1" if name in ("manifest", "nbest") else str(path)
        if name == "model":  # the u32 length of the JSON header sits at byte 4 of MDL1
            data = path.read_bytes()
            (n,) = struct.unpack_from("<I", data, 4)
            header = b'{"format":"MDL1",' + data[9:8 + n]
            path.write_bytes(data[:4] + struct.pack("<I", len(header)) + header + data[8 + n:])
        else:
            text = path.read_text()
            repeat = {"seed": '{"seed": 3, ', "utt_id": '{"utt_id": "u9", ',
                      "ctc": '{"ctc": -9.0, '}[key]
            at = text.index('{"ctc"') if key == "ctc" else 0
            path.write_text(text[:at] + repeat + text[at + 1:])
        before = snapshot_with_modes(tmp_path)
        assert main(case.argv()) == 2
        err = capsys.readouterr().err
        assert f"{where}: invalid {what}: key {key!r} repeated in one object" in err
        assert snapshot_with_modes(tmp_path) == before

    def test_extract_into_a_missing_directory_does_not_warn(self, tmp_path, capsys):
        case = PlanCase(tmp_path, "extract")
        case.paths["out"] = str(tmp_path / "missing")
        Path(case.paths["manifest"]).write_text("")
        capsys.readouterr()
        assert main(case.argv()) == 2
        assert capsys.readouterr().err == (f"error: --out-dir {tmp_path}/missing: "
                                           "output directory does not exist\n")

    @pytest.mark.parametrize("objective", ["hubert", "a2a-mtl"])
    def test_resume_that_out_model_replaces_equals_the_straight_run(self, tmp_path,
                                                                   objective):
        # the one allowed alias: a resumed run may write its checkpoint over the resumed one
        cfg_path, model = tmp_path / "cfg.json", tmp_path / "model.mdl1"
        write = write_a2a_config if objective == "a2a-mtl" else write_config
        write(cfg_path, epochs=4, out_model=str(tmp_path / "straight.mdl1"))
        assert main(["train", "--config", str(cfg_path)]) == 0
        write(cfg_path, epochs=4, stop_after_epoch=2, out_model=str(model))
        assert main(["train", "--config", str(cfg_path)]) == 0
        write(cfg_path, epochs=4, out_model=str(model), resume=str(model))
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert model.read_bytes() == (tmp_path / "straight.mdl1").read_bytes()


# -- opened files: a command rejected before its data opens none of it ------------------


def opened_by_main(monkeypatch, root, argv) -> tuple:
    """(exit code of `main(argv)`, every path under `root` that it passed to
    `open`, in order)."""
    opened, real_open = [], builtins.open

    def recording_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.fspath(file).startswith(f"{root}{os.sep}"):
            opened.append(os.fspath(file))
        return real_open(file, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(builtins, "open", recording_open)
        code = main(argv)
    return code, opened


def with_flag(argv: list, flag: str, value: str) -> list:
    """`argv` with `flag` set to `value`, in place of its value or appended."""
    if flag not in argv:
        return [*argv, flag, value]
    i = argv.index(flag)
    return [*argv[:i + 1], value, *argv[i + 2:]]


class TestOpenedFiles:
    """A rejection at flag time opens no file.  One at plan time opens at
    most the config and the manifests that name the files.  A resume whose
    checkpoint header is rejected opens no training input."""

    @pytest.mark.parametrize("command", PLAN_FILES)
    def test_a_valid_run_opens_its_inputs(self, tmp_path, monkeypatch, command):
        case = PlanCase(tmp_path, command)
        case.write()
        code, opened = opened_by_main(monkeypatch, tmp_path, case.argv())
        # fixed frame-joint weights read no --dev-ref
        inputs = [i for i in PLAN_FILES[command][0] if (command, i) != ("frame-joint", "dev_ref")]
        assert code == 0 and {case.file(i) for i in inputs} <= set(opened)

    @pytest.mark.parametrize("command, flag, value", [
        ("frame-joint", "--weights", "uaspeech-3way"),
        ("frame-joint", "--weights", "1:x"),
        ("rescore", "--weights", "ctc:x"),
        ("rescore", "--grid-step", "0"),
        ("rescore", "--truncate", "0"),
        ("significance", "--alpha", "0"),
        ("score", "--groups", "a,a"),
    ], ids=["joint-weight-count", "joint-weights", "rescore-weights", "grid-step", "truncate",
            "alpha", "groups"])
    def test_a_flag_time_rejection_opens_no_file(self, tmp_path, monkeypatch, command, flag,
                                                 value):
        case = PlanCase(tmp_path, "score" if command == "significance" else command)
        case.write()
        argv = case.argv()
        if command == "significance":
            argv = ["significance", "--hyp-a", case.paths["hyp"], "--hyp-b", case.paths["hyp"],
                    "--ref", case.paths["ref"]]
        assert opened_by_main(monkeypatch, tmp_path, with_flag(argv, flag, value)) == (2, [])

    @pytest.mark.parametrize("command, o", OUTPUTS)
    def test_an_output_in_a_missing_directory_opens_at_most_the_manifests(
            self, tmp_path, monkeypatch, command, o):
        case = PlanCase(tmp_path, command)
        missing = tmp_path / "missing"
        case.paths[o] = str(missing) if o in case.per_utt else str(missing / "file")
        case.write()
        code, opened = opened_by_main(monkeypatch, tmp_path, case.argv())
        plan = {case.paths[k] for k in ("config", "manifest", "sys0", "sys1") if k in case.paths}
        assert code == 2 and set(opened) <= plan

    def test_a_dim_mismatch_opens_no_feature(self, tmp_path, monkeypatch):
        case = PlanCase(tmp_path, "extract")
        case.write()
        code, opened = opened_by_main(monkeypatch, tmp_path,
                                      with_flag(case.argv(), "--dim", "3"))
        assert code == 2
        assert {case.paths["manifest"], case.paths["model"]} <= set(opened)
        assert case.paths["feature"] not in opened

    def test_a_resume_with_another_seed_opens_no_training_input(self, tmp_path, monkeypatch):
        case = PlanCase(tmp_path, "train")
        case.write()
        monkeypatch.setenv("ASRFUSE_SEED", "99")
        code, opened = opened_by_main(monkeypatch, tmp_path, case.argv())
        assert code == 2
        assert {case.paths["config"], case.paths["resume"]} <= set(opened)
        assert case.paths["feature"] not in opened
