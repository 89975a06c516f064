#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark of the asrfuse CLI.

    python3 bench/run.py --workload eval-fusion --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

A run builds the workload's fixtures from the seed, warms the process up with
one op, then runs passes of the workload's op sequence through
`asrfuse.cli.main`, in this process, for about `--seconds`.  Every op's output
is checked against an independent reference, and every pass's output files
must be byte-identical to the first pass's; a failed check counts as a failed
op.  With `--trace 1` the run first times untraced passes, then installs the
tracer and reports per-layer metrics and the tracing overhead.

Timings are reported at the reference speed of `speed.py`: the workload's
fixed reference work is probed between ops, and each pass's wall times are
scaled by the median probe of that pass, so the shared host's drifting speed
cancels out.
The raw wall times are reported too, as `pass_raw_s` and `setup_raw_s`.

The last line of stdout is one JSON object: correct, attempted, failed and the
metrics (end-to-end ones with `--trace 0`, per-layer ones with `--trace 1`).
Full results, the environment record and the spans go to `bench/out/`.
`--workload all` runs each workload in its own process and prints every
end-to-end metric for all three side by side.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# One BLAS thread unless the caller chose otherwise.  With two OpenBLAS
# threads on the two vCPUs of a shared host, a long-form pass sometimes took
# five times as long as the one before it; set before numpy is imported here
# or in the set-up probes, which inherit it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("eval-fusion", "ssl-train", "long-form")
SETUP_REPEATS = 5  # one in this process, the rest in fresh processes
MIN_PASSES = 3  # an untraced run's pass_s is a median of at least three passes
PROBE_TIMEOUT_S = 150
PERCENTILES = (90, 99, 99.9)  # reported above the median when ten samples lie beyond

# The 15 end-to-end metrics of the full report, plus the raw wall times of
# set-up and a pass and the reference probe's time behind the scaled ones:
# (name, unit, better).  Every timing but the *_raw_s ones is at the
# reference speed (speed.py).
# Only those every workload produces are in BENCHMARK.json's `end_to_end`;
# failed_op_ratio is the result line's failed / attempted.
E2E = [
    ("setup_s", "s", "lower"),
    ("setup_raw_s", "s", "lower"),
    ("pass_s", "s", "lower"),
    ("pass_raw_s", "s", "lower"),
    ("reference_ms", "ms", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("failed_op_ratio", "ratio", "lower"),
    ("combine_joint_tune_s", "s", "lower"),
    ("combine_joint_fixed_s", "s", "lower"),
    ("combine_rescore_tune_s", "s", "lower"),
    ("combine_rescore_fixed_s", "s", "lower"),
    ("score_wer_s", "s", "lower"),
    ("score_wer_grouped_s", "s", "lower"),
    ("score_cer_grouped_s", "s", "lower"),
    ("significance_s", "s", "lower"),
    ("ssl_train_frames_per_s", "frames/s", "higher"),
    ("extract_frames_per_s", "frames/s", "higher"),
    ("a2a_train_frames_per_s", "frames/s", "higher"),
]
RESULT_E2E = ("setup_s", "pass_s", "peak_rss_mib")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR",
                        help="internal: time one cold set-up in DIR, print it, exit")
    return parser.parse_args(argv)


# -- environment --------------------------------------------------------------------


def git_sha(root: str):
    """HEAD's commit from .git without running git; None outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    env = {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_sha": git_sha(ROOT),
        "machine": platform.machine(),
        "warnings": [],
    }
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(env[var]) if env[var] else None
        except ValueError:
            threads = None
        if threads is not None and threads > nproc:
            env["warnings"].append(f"{var}={threads} exceeds nproc={nproc}: "
                                   "BLAS threads will contend for cores")
    return env


# -- set-up ---------------------------------------------------------------------------


class Context:
    """Everything a run needs after set-up: the CLI entry, fixture and ops."""

    def __init__(self, workload: str, seed: int, work: str):
        import checks
        import fixtures
        import ops
        from asrfuse.cli import main

        self.workload, self.seed, self.work = workload, seed, work
        self.main = main
        self.fixture = fixtures.make_fixture(workload, os.path.join(work, "fixture"), seed)
        with open(os.path.join(BENCH, "expected_losses.json"), encoding="utf-8") as fh:
            recorded = json.load(fh).get(workload, {}).get(str(seed))
        self.losses_recorded = recorded is not None
        if workload == "eval-fusion":
            self.reference = checks.EvalReference(self.fixture.data)
            self.ops = ops.eval_fusion_ops(self.fixture, self.reference)
            self.warmup = self.ops[1]  # fixed frame-joint: the cheapest op
        elif workload == "ssl-train":
            self.ops = ops.ssl_train_ops(self.fixture, recorded or {})
            self.warmup = self.ops[1]  # wav2vec2: the cheapest train
        else:
            self.ops = ops.long_form_ops(self.fixture, recorded or {})
            self.warmup = self.ops[2]  # a2a: pays the BLAS start-up the others share
        self.warmup_dir = make_dir(os.path.join(work, "warmup"))
        self.warmup_result = ops.execute(self.main, self.warmup, self.warmup_dir)


def make_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def timed_setup(workload: str, seed: int, work: str):
    """Import, fixture generation and one warm-up op; returns (context, seconds)."""
    start = time.perf_counter()
    ctx = Context(workload, seed, work)
    return ctx, time.perf_counter() - start


def probe_setup(workload: str, seed: int, work: str) -> float:
    """One cold set-up in a fresh interpreter, as this process did its own."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-probe", work]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


# -- passes -----------------------------------------------------------------------------


def digest(path: str) -> str:
    """SHA-256 over a file, or over a directory's sorted names and contents."""
    h = hashlib.sha256()
    if os.path.isdir(path):
        for name in sorted(os.listdir(path)):
            h.update(name.encode() + b"\0" + digest(os.path.join(path, name)).encode())
    else:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Passes:
    """Runs passes, compares each with the first, keeps every op result."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.records: list = []  # (pass index, traced, [OpResult])
        self._first: dict = {}  # op name -> (output digests, final_loss)
        if ctx is not None:  # the warm-up op is the first run of its op
            import speed

            self._compare(ctx.warmup_dir, [ctx.warmup_result])
            self._probe = speed.probe(ctx.workload)

    def run(self, budget_s: float, min_passes: int, tracer=None) -> tuple:
        """Passes until the next would end after `budget_s`; at least `min_passes`.

        A reference probe runs before the first op and after every op; each
        op's time is scaled by the median of its pass's probes.  Returns the
        scaled and the raw wall time of each pass.
        """
        import ops
        import speed

        start, scaled, raw = time.perf_counter(), [], []
        while True:
            index = len(self.records)
            pass_dir = make_dir(os.path.join(self.ctx.work, f"pass{index}"))
            if tracer is not None:
                tracer.begin_pass(index)
            results, probes = [], [self._probe]
            for op in self.ctx.ops:
                results.append(ops.execute(self.ctx.main, op, pass_dir,
                                           tracer.call_op if tracer is not None else None))
                probes.append(speed.probe(self.ctx.workload))
            self._probe = probes[-1]
            for r in results:
                r.scaled = speed.scale(r.seconds, probes, self.ctx.workload)
            if tracer is not None:
                tracer.end_pass()
            self._compare(pass_dir, results)
            print(f"pass {index}{' (traced)' if tracer is not None else ''}: "
                  + ", ".join(f"{r.op.name} {r.seconds:.3f} s" for r in results)
                  + f"; reference {statistics.median(probes) * 1e3:.2f} ms")
            self.records.append((index, tracer is not None, results))
            scaled.append(sum(r.scaled for r in results))
            raw.append(sum(r.seconds for r in results))
            elapsed = time.perf_counter() - start
            if len(raw) >= min_passes and elapsed + statistics.median(raw) > budget_s:
                return scaled, raw

    def _compare(self, pass_dir: str, results: list):
        """Check each op's outputs against its first run, then drop the directory."""
        for r in results:
            try:
                digests = [digest(os.path.join(pass_dir, p)) for p in r.op.outputs]
            except OSError as e:
                r.problems.append(f"output missing: {e}")
                continue
            loss = r.report.get("final_loss")
            if r.op.name not in self._first:
                self._first[r.op.name] = (digests, loss)
                continue
            first_digests, first_loss = self._first[r.op.name]
            if digests != first_digests:
                r.problems.append(f"outputs differ from the first pass: {r.op.outputs}")
            if loss != first_loss:
                r.problems.append(f"final_loss {loss!r} differs from the first pass's "
                                  f"{first_loss!r}")
        shutil.rmtree(pass_dir)

    def results(self, traced=None) -> list:
        return [r for _, t, rs in self.records if traced is None or t == traced for r in rs]


# -- metrics ------------------------------------------------------------------------------


def summary(samples: list, unit: str, better: str) -> dict:
    """Median, sample count and the highest percentile with >= 10 samples beyond it."""
    out = {"value": statistics.median(samples), "unit": unit, "better": better,
           "samples": len(samples)}
    n = len(samples)
    ranked = sorted(samples)
    for p in reversed(PERCENTILES):
        if n * (1 - p / 100) >= 10:
            index = min(n - 1, int(round(p / 100 * (n - 1))))
            out[f"p{p:g}"] = ranked[index]
            break
    return out


def e2e_metrics(passes: Passes, all_results: list, pass_times: tuple,
                setup_samples: list) -> dict:
    """`pass_times` and `setup_samples` are (scaled, raw) seconds."""
    from speed import REFERENCE_S

    ref_s = REFERENCE_S[passes.ctx.workload]
    results = passes.results(traced=False)
    units = {name: (unit, better) for name, unit, better in E2E}

    def put(name, samples):
        if samples:
            metrics[name] = summary(samples, *units[name])

    metrics = {}
    put("setup_s", setup_samples[0])
    put("setup_raw_s", setup_samples[1])
    put("pass_s", pass_times[0])
    put("pass_raw_s", pass_times[1])
    put("reference_ms", [1e3 * r.seconds / r.scaled * ref_s for r in results])
    put("peak_rss_mib", [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0])
    metrics["failed_op_ratio"] = {
        "value": sum(r.failed for r in all_results) / len(all_results),
        "unit": "ratio", "better": "lower", "samples": len(all_results)}
    for name in ("combine_joint_tune", "combine_joint_fixed", "combine_rescore_tune",
                 "combine_rescore_fixed", "score_wer", "score_wer_grouped",
                 "score_cer_grouped", "significance"):
        put(f"{name}_s", [r.scaled for r in results if r.op.name == name])
    by_pass = {}
    for index, traced, rs in passes.records:
        if not traced:
            train = [r for r in rs if r.op.command == "train" and r.op.objective != "a2a-mtl"]
            if train:
                by_pass[index] = (sum(r.op.frames for r in train)
                                  / sum(r.scaled for r in train))
    put("ssl_train_frames_per_s", list(by_pass.values()))
    put("extract_frames_per_s",
        [r.op.frames / r.scaled for r in results if r.op.command == "extract"])
    put("a2a_train_frames_per_s",
        [r.op.frames / r.scaled for r in results if r.op.objective == "a2a-mtl"])
    return metrics


def print_metrics(title: str, metrics: dict):
    print(title)
    for name, m in metrics.items():
        extra = "".join(f", {k} {v:.6g}" for k, v in m.items() if k.startswith("p"))
        extra += ", exact" if m.get("exact") else ""
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']:<9s} "
              f"(median of {m['samples']}{extra}; {m['better']} is better)")


def final_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                                   for k, m in metrics.items()}})


# -- a run ---------------------------------------------------------------------------------


def run_workload(args) -> int:
    seed_override = os.environ.pop("ASRFUSE_SEED", None)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        ctx, own_setup = timed_setup(args.workload, args.seed, work)
        import speed  # after the timed set-up, which must pay its own imports

        raw_setup, probes = [own_setup], [speed.probe(args.workload)]
        for i in range(1, SETUP_REPEATS):
            raw_setup.append(probe_setup(args.workload, args.seed,
                                         os.path.join(work, f"probe{i}")))
            probes.append(speed.probe(args.workload))
        setup_samples = ([speed.scale(s, probes, args.workload) for s in raw_setup],
                         raw_setup)
        passes = Passes(ctx)
        tracer = None
        if args.trace:
            import tracer as tracing

            untraced = passes.run(args.seconds / 2, 1)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = passes.run(args.seconds / 2, 1, tracer)
            finally:
                tracer.uninstall()
            pass_times = untraced
        else:
            pass_times = passes.run(args.seconds, MIN_PASSES)
        all_results = [ctx.warmup_result] + passes.results()
        failed = sum(r.failed for r in all_results)
        metrics = e2e_metrics(passes, all_results, pass_times, setup_samples)
        layer = None
        if tracer is not None:
            import layers

            layer = layers.per_layer_metrics(tracer, [i for i, t, _ in passes.records if t])
            layer["trace.overhead_s"] = {
                "value": statistics.median(traced[0]) - statistics.median(untraced[0]),
                "unit": "s", "better": "lower", "samples": len(traced[0])}
            tracer.write_spans(os.path.join(OUT, f"{tag}-spans.jsonl"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = environment()
    if seed_override is not None:
        env["warnings"].append(f"ASRFUSE_SEED={seed_override} was set; unset for this run")
    for warning in env["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)

    print(f"workload {args.workload}, seed {args.seed}, {len(passes.records)} passes, "
          f"{len(all_results)} ops ({failed} failed)")
    print("environment: " + json.dumps(env, sort_keys=True))
    print("fixture: " + json.dumps(ctx.fixture.params, sort_keys=True))
    if ctx.workload != "eval-fusion":
        print(f"final_loss recorded for seed {args.seed}: "
              f"{'yes' if ctx.losses_recorded else 'no (checked finite and repeatable only)'}")
    for r in all_results:
        for problem in r.problems:
            print(f"FAILED {r.op.name}: {problem}")
    print_metrics("end-to-end (untraced passes):", metrics)
    if layer is not None:
        print_metrics("per-layer (traced passes, per pass):", layer)
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "fixture": ctx.fixture.params,
              "end_to_end": metrics, "per_layer": layer,
              "passes": [{"index": i, "traced": t, "raw_s": sum(r.seconds for r in rs),
                          "scaled_s": sum(r.scaled for r in rs)}
                         for i, t, rs in passes.records],
              "attempted": len(all_results), "failed": failed,
              "problems": [f"{r.op.name}: {p}" for r in all_results for p in r.problems],
              "final_losses": {r.op.name: r.report.get("final_loss") for r in all_results
                               if r.op.command == "train"}}
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    shown = layer if layer is not None else {k: metrics[k] for k in RESULT_E2E}
    print(final_line(failed == 0, len(all_results), failed, shown))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then every end-to-end metric side by side."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        done = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if done.returncode != 0:
            print(done.stdout + done.stderr, file=sys.stderr)
            return 1
        with open(os.path.join(OUT, f"{workload}-seed{args.seed}-trace0.json"),
                  encoding="utf-8") as fh:
            results[workload] = json.load(fh)
    print(f"{'metric':26s} {'unit':9s}" + "".join(f"{w:>26s}" for w in WORKLOADS))
    for name, unit, _ in E2E:
        cells = []
        for w in WORKLOADS:
            m = results[w]["end_to_end"].get(name)
            cells.append("absent" if m is None else f"{m['value']:.6g} (n={m['samples']})")
        print(f"{name:26s} {unit:9s}" + "".join(f"{c:>26s}" for c in cells))
    metrics = {f"{w}.{k}": m for w in WORKLOADS for k, m in results[w]["end_to_end"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(final_line(failed == 0, attempted, failed, metrics))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "asrfuse", "__init__.py")):
        print(f"error: no asrfuse sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        _, seconds = timed_setup(args.workload, args.seed, args.setup_probe)
        print(json.dumps({"setup_s": seconds}))
        return 0
    make_dir(OUT)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
