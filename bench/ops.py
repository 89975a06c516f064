"""The op sequence of each workload, and how one op is run and checked.

An op is one in-process `asrfuse.cli.main` invocation.  A pass runs a
workload's ops in order, writing every output under its own pass directory,
so passes can be compared byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

import checks
from fixtures import Fixture

UAS_3WAY = (8.0, 5.0, 5.0)
UAS_RESCORE = {"ctc": 0.9, "attention": 0.001, "tdnn": 0.1}


@dataclass
class Op:
    """One CLI invocation: its metric name, arguments and output check.

    `argv` and `check` receive the pass directory; `outputs` are paths under
    it that must be byte-identical in every pass.  `frames` is the work the
    throughput metrics divide by: input frames times epochs for `train`,
    input frames for `extract`.
    """

    name: str
    command: str
    argv: Callable[[str], list]
    check: Callable[[str, dict], list]
    outputs: list = field(default_factory=list)
    prepare: Callable[[str], None] | None = None
    objective: str | None = None
    frames: int = 0


@dataclass
class OpResult:
    op: Op
    seconds: float
    exit_code: int
    report: dict
    problems: list
    scaled: float | None = None  # seconds at the reference speed, see speed.py

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def run_op(main, op: Op, pass_dir: str, on_call=None) -> tuple:
    """Run `op` once through `main`; returns (exit code, seconds, stdout, stderr).

    `on_call` wraps the call itself (the tracer's root span).  An exception
    escaping `main` is an op failure, never a benchmark crash.
    """
    if op.prepare is not None:
        op.prepare(pass_dir)
    argv = op.argv(pass_dir)
    out, err = io.StringIO(), io.StringIO()
    call = (lambda: on_call(op, lambda: main(argv))) if on_call else (lambda: main(argv))
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = call()
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
        except Exception:  # noqa: BLE001 - the gate records it as a failed op
            code = -1
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    return code, seconds, out.getvalue(), err.getvalue()


def execute(main, op: Op, pass_dir: str, on_call=None) -> OpResult:
    """Run and check one op; any failure becomes a problem on the result."""
    code, seconds, stdout, stderr = run_op(main, op, pass_dir, on_call)
    report, problems = {}, []
    if code != 0:
        problems.append(f"exit code {code}: {stderr.strip()[-500:]}")
    else:
        try:
            report = json.loads(stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            problems.append(f"no JSON report on stdout: {stdout[-200:]!r}")
    if not problems:
        try:
            problems += op.check(pass_dir, report)
        except Exception as e:  # noqa: BLE001 - a malformed output must not crash the run
            problems.append(f"check raised {type(e).__name__}: {e}")
    return OpResult(op, seconds, code, report, problems)


# -- eval-fusion --------------------------------------------------------------------


def eval_fusion_ops(fx: Fixture, ref: checks.EvalReference) -> list:
    streams = [fx.path(f"streams{k}") for k in range(fx.params["systems"])]
    truncate = fx.params["truncate"]
    dev = fx.path("ref")
    j = os.path.join

    def joint(name, weights):
        def argv(d):
            return ["combine", "--mode", "frame-joint", "--streams", *streams,
                    *(["--weights", "tune", "--dev-ref", dev] if weights is None
                      else ["--weights", "uaspeech-3way"]),
                    "--out-dir", _mkdir(j(d, name)), "--hyp-out", j(d, f"{name}.tsv"),
                    "--json"]
        return Op(name, "combine", argv,
                  lambda d, r: checks.check_joint(ref, r, j(d, name), j(d, f"{name}.tsv"),
                                                  weights),
                  outputs=[name, f"{name}.tsv"])

    def rescore(name, named):
        def argv(d):
            return ["combine", "--mode", "rescore", "--nbest", fx.path("nbest"),
                    "--truncate", str(truncate),
                    *(["--weights", "tune", "--dev-ref", dev] if named is None
                      else ["--weights", "uaspeech-rescore"]),
                    "--out", j(d, f"{name}.jsonl"),
                    "--hyp-out", j(d, f"{name}.tsv"), "--json"]
        return Op(name, "combine", argv,
                  lambda d, r: checks.check_rescore(ref, r, j(d, f"{name}.jsonl"),
                                                    j(d, f"{name}.tsv"), named, truncate),
                  outputs=[f"{name}.jsonl", f"{name}.tsv"])

    def score(name, mode, groups):
        def argv(d):
            return ["score", "--hyp", j(d, "combine_joint_fixed.tsv"), "--ref", dev,
                    "--mode", mode, "--groups", ",".join(groups),
                    "--out", j(d, f"{name}.json"), "--json"]
        return Op(name, "score", argv,
                  lambda d, r: checks.check_score(ref, j(d, f"{name}.json"),
                                                  j(d, "combine_joint_fixed.tsv"), mode,
                                                  groups),
                  outputs=[f"{name}.json"])

    groups = ["severity", "seen"]
    return [
        joint("combine_joint_tune", None),
        joint("combine_joint_fixed", UAS_3WAY),
        rescore("combine_rescore_tune", None),
        rescore("combine_rescore_fixed", UAS_RESCORE),
        score("score_wer", "wer", []),
        score("score_wer_grouped", "wer", groups),
        score("score_cer_grouped", "cer", groups),
        Op("significance", "significance",
           lambda d: ["significance", "--hyp-a", j(d, "combine_joint_fixed.tsv"),
                      "--hyp-b", j(d, "combine_rescore_fixed.tsv"), "--ref", dev, "--json"],
           lambda d, r: checks.check_significance(ref, r, j(d, "combine_joint_fixed.tsv"),
                                                  j(d, "combine_rescore_fixed.tsv"))),
    ]


# -- training workloads ---------------------------------------------------------------


def _mkdir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _train_op(fx: Fixture, objective: str, frames: int, expected_losses: dict) -> Op:
    config = dict(fx.data["configs"][objective])
    stem = objective.replace("-", "_")
    cfg_name = f"train_{stem}.json"

    def prepare(d):
        cfg = dict(config, out_model=os.path.join(d, config["out_model"]),
                   log=os.path.join(d, config["log"]))
        with open(os.path.join(d, cfg_name), "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, sort_keys=True)

    return Op(f"train_{stem}", "train",
              lambda d: ["train", "--config", os.path.join(d, cfg_name), "--json"],
              lambda d, r: checks.check_train(r, expected_losses.get(objective)),
              outputs=[config["out_model"], config["log"]], prepare=prepare,
              objective=objective, frames=frames * config["epochs"])


def _extract_op(fx: Fixture, model: str, n_files: int, frames: int, dim: int) -> Op:
    utt_ids = [f"feats{i:03d}" for i in range(n_files)]
    return Op("extract", "extract",
              lambda d: ["extract", "--model", os.path.join(d, model),
                         "--manifest", fx.path("extract"), "--dim", str(dim),
                         "--out-dir", _mkdir(os.path.join(d, "extracted")), "--json"],
              lambda d, r: checks.check_extract(r, os.path.join(d, "extracted"), utt_ids,
                                                frames, dim),
              outputs=["extracted"], frames=n_files * frames)


def ssl_train_ops(fx: Fixture, expected_losses: dict) -> list:
    p = fx.params
    frames = p["train_utterances"] * p["train_frames"]
    ops = [_train_op(fx, obj, frames, expected_losses)
           for obj in ("hubert", "wav2vec2", "data2vec", "ctc")]
    ops.append(_extract_op(fx, "hubert.mdl1", p["extract_files"], p["extract_frames"],
                           p["hubert_bottleneck"]["dim"]))
    return ops


def long_form_ops(fx: Fixture, expected_losses: dict) -> list:
    p = fx.params
    return [
        _train_op(fx, "ctc", p["ctc_utterances"] * p["ctc_frames"], expected_losses),
        _extract_op(fx, "ctc.mdl1", p["extract_files"], p["extract_frames"],
                    p["ctc_bottleneck"]["dim"]),
        _train_op(fx, "a2a-mtl", p["a2a_utterances"] * p["a2a_frames"], expected_losses),
    ]
