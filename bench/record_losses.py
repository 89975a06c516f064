#!/usr/bin/env python3
"""Record every training op's final_loss per seed in expected_losses.json.

    python3 bench/record_losses.py 0 99

The correctness gate holds a training op's final_loss to the recorded value
(within checks.FINAL_LOSS_RTOL) when the run's seed is recorded; for other
seeds it checks only that the loss is finite and equal in every pass.  Run
this after a change that is meant to alter training numerics.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import fixtures  # noqa: E402
import ops  # noqa: E402
from asrfuse.cli import main  # noqa: E402

PATH = os.path.join(BENCH, "expected_losses.json")
TRAINING = {"ssl-train": ops.ssl_train_ops, "long-form": ops.long_form_ops}


def record(first: int, last: int):
    with open(PATH, encoding="utf-8") as fh:
        recorded = json.load(fh)
    work = os.path.join(BENCH, "out", f"record-{os.getpid()}")
    try:
        for workload, make_ops in TRAINING.items():
            for seed in range(first, last + 1):
                root = os.path.join(work, f"{workload}-{seed}")
                fx = fixtures.make_fixture(workload, os.path.join(root, "fixture"), seed)
                losses = {}
                for op in make_ops(fx, {}):
                    if op.command != "train":
                        continue
                    result = ops.execute(main, op, root)
                    if result.failed:
                        raise SystemExit(f"{workload} seed {seed} {op.name}: {result.problems}")
                    losses[op.objective] = result.report["final_loss"]
                recorded.setdefault(workload, {})[str(seed)] = losses
                shutil.rmtree(root)
                print(workload, seed, losses, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    record(int(sys.argv[1]), int(sys.argv[2]))
