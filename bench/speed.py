"""A fixed reference workload that measures how fast the machine runs right now.

The benchmark runs on a few cores of a shared host, whose speed drifts by a
third or more over tens of seconds to minutes as other tenants come and go
(on a 2-vCPU Intel Xeon guest the reference took 15 to 27 ms within an hour).  A pass
time divided by the reference's time taken around it cancels that drift: the
reference is the same code on every commit, so only a change in the program
moves the ratio.  `pass_s` is that ratio times `REFERENCE_S`, the reference's
time on a quiet machine, which puts it back in seconds.

The references are made of three fixed loops: a pure-Python edit-distance DP
over token lists with dict counting (as in scoring and combine), small
float64 numpy matmuls and elementwise ops (per-node autograd overhead), and
256x256 matmuls with passes over a 2000x64 array (long utterances, a2a).
The large one needs the single BLAS thread `run.py` sets: with two threads,
single probes took up to seven times their median.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

REPEATS = 5  # one probe is the median of this many reference runs


def _tokens(n: int, seed: int) -> list:
    out, x = [], seed
    for _ in range(n):
        x = (1103515245 * x + 12345) % (1 << 31)
        out.append(f"w{x % 40}")
    return out


_PAIRS = [(_tokens(30, s), _tokens(28, s + 7)) for s in range(40)]
_SMALL = np.random.default_rng(0).standard_normal((64, 64))
_LARGE = np.random.default_rng(1).standard_normal((256, 256))
_FRAMES = np.random.default_rng(2).standard_normal((2000, 64))


def _edit_distance(ref: list, hyp: list) -> int:
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, 1):
        cur = [i] + [0] * len(hyp)
        for j, h in enumerate(hyp, 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (r != h))
        prev = cur
    return prev[-1]


def _interpreter():
    counts: dict = {}
    for ref, hyp in _PAIRS:
        e = _edit_distance(ref, hyp)
        counts[e] = counts.get(e, 0) + 1


def _small_arrays():
    x = _SMALL
    for _ in range(200):
        x = np.tanh(x @ _SMALL * 0.01) + _SMALL
        x = x - x.mean(axis=0)


def _large_arrays():
    y = _LARGE
    for _ in range(5):
        y = np.tanh(y @ _LARGE * 0.01)
        np.exp(-np.abs(_FRAMES)) * _FRAMES + _FRAMES.mean(axis=0)


# Each workload's reference: the kinds of work its ops spend their time on.
# long-form's ops are large-array numpy, whose speed moved less than the
# interpreter's: with the interpreter loop in its reference, its scaled pass
# times were lower whenever the host was slow.
REFERENCES = {
    "eval-fusion": (_interpreter, _small_arrays),
    "ssl-train": (_interpreter, _small_arrays),
    "long-form": (_small_arrays, _large_arrays),
}
# Each reference's time on a quiet 2-vCPU Intel Xeon 2.1 GHz guest, Python
# 3.11 with numpy/OpenBLAS on one thread; only scales, they never change.
REFERENCE_S = {"eval-fusion": 0.016, "ssl-train": 0.016, "long-form": 0.014}


def reference_once(workload: str) -> float:
    """Seconds one run of the workload's fixed reference work takes."""
    start = time.perf_counter()
    for part in REFERENCES[workload]:
        part()
    return time.perf_counter() - start


def probe(workload: str) -> float:
    """The reference's current time: the median of `REPEATS` runs.

    The program's garbage is collected first, so the probe times the machine
    and not what the op before it left behind.
    """
    gc.collect()
    return statistics.median(reference_once(workload) for _ in range(REPEATS))


def scale(seconds: float, probes: list, workload: str) -> float:
    """`seconds` measured while `probes` were taken, at the reference speed.

    The median over the probes keeps one stalled probe from moving the scale.
    """
    return seconds * REFERENCE_S[workload] / statistics.median(probes)
