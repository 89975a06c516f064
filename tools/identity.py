#!/usr/bin/env python3
"""Check that a change leaves every benchmark output byte-identical.

    python3 tools/identity.py --parent HEAD~ --seeds 3,5
    python3 tools/identity.py --parent main --seeds 7 --workloads eval-fusion

The parent revision is extracted with `git archive` into a temporary
directory, so the repository's `.git` is left untouched.  Each tree's
`src/` then runs, in its own subprocess, the op sequences of `bench/ops.py`
on the fixtures of `bench/fixtures.py` (both from this checkout) for every
workload and seed, at the same paths.  The fixtures are written with each
tree's own `asrfuse.formats` writers, so the bytes of every fixture file are
compared too, as one record per workload and seed: a changed writer shows
there, even when a reader changed with it.  The tool compares every op's exit
code and stdout and the bytes of every file it leaves in its pass directory.
It prints how many ops, files and bytes it compared and every difference, and
exits 1 on any difference.
`OPENBLAS_NUM_THREADS` and the rest of the environment come from the caller.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
WORKLOADS = ("eval-fusion", "ssl-train", "long-form")


def replay(tree: str, work: str, workloads: list, seeds: list) -> list:
    """Run each workload's ops at each seed with `tree`'s package under `work`.

    Returns one record per op: its key, exit code, stdout and the sha256 and
    size of every file the op wrote or changed in its pass directory, by
    relative path.  Before each workload's and seed's ops comes one record of
    its fixture files, with key and files only.
    """
    sys.path[:0] = [os.path.join(tree, "src"), BENCH]
    import asrfuse
    import checks
    import fixtures
    import ops
    from asrfuse.cli import main

    if not os.path.abspath(asrfuse.__file__).startswith(os.path.join(tree, "src") + os.sep):
        raise RuntimeError(f"asrfuse imported from {asrfuse.__file__}, not from {tree}")
    records = []
    for workload in workloads:
        for seed in seeds:
            base = os.path.join(work, f"{workload}-seed{seed}")
            fx = fixtures.make_fixture(workload, os.path.join(base, "fixture"), seed)
            records.append({"op": f"{workload} seed {seed} fixture",
                            "files": _file_digests(fx.root)})
            if workload == "eval-fusion":
                op_list = ops.eval_fusion_ops(fx, checks.EvalReference(fx.data))
            elif workload == "ssl-train":
                op_list = ops.ssl_train_ops(fx, {})
            else:
                op_list = ops.long_form_ops(fx, {})
            pass_dir = os.path.join(base, "pass")
            os.makedirs(pass_dir)
            before = {}
            for op in op_list:
                code, _, stdout, _ = ops.run_op(main, op, pass_dir)
                after = _file_digests(pass_dir)
                records.append({"op": f"{workload} seed {seed} {op.name}", "exit": code,
                                "stdout": stdout,
                                "files": {p: d for p, d in after.items() if before.get(p) != d}})
                before = after
    return records


def _file_digests(root: str) -> dict:
    """{relative path: [sha256, size]} of every file under `root`."""
    out = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            out[os.path.relpath(path, root)] = [hashlib.sha256(data).hexdigest(), len(data)]
    return out


def _run_tree(tree: str, work: str, workloads: list, seeds: list) -> list:
    """`replay` in a fresh interpreter, so each tree imports its own package."""
    result = os.path.join(os.path.dirname(work), "records.json")
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import identity; "
            "json.dump(identity.replay(sys.argv[2], sys.argv[3], sys.argv[4].split(','), "
            "[int(s) for s in sys.argv[5].split(',')]), open(sys.argv[6], 'w'))")
    done = subprocess.run(
        [sys.executable, "-c", code, os.path.dirname(os.path.abspath(__file__)), tree, work,
         ",".join(workloads), ",".join(map(str, seeds)), result],
        capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"replay on {tree} failed:\n{done.stderr.strip()[-2000:]}")
    with open(result, encoding="utf-8") as fh:
        records = json.load(fh)
    os.remove(result)
    shutil.rmtree(work)
    return records


def compare(parent: list, change: list) -> tuple:
    """Differences between two replays, and (ops, files, bytes) compared.
    Fixture records (no exit code) count as files but not as ops."""
    diffs, files, size = [], 0, 0
    if [r["op"] for r in parent] != [r["op"] for r in change]:
        return ["the two trees ran different op sequences"], (0, 0, 0)
    for a, b in zip(parent, change):
        if a.get("exit") != b.get("exit"):
            diffs.append(f"{a['op']}: exit code {a.get('exit')} -> {b.get('exit')}")
        if a.get("stdout") != b.get("stdout"):
            diffs.append(f"{a['op']}: stdout differs")
        for path in sorted(set(a["files"]) | set(b["files"])):
            if path not in a["files"] or path not in b["files"]:
                side = "parent" if path in a["files"] else "change"
                diffs.append(f"{a['op']}: {path} written only by the {side}")
            elif a["files"][path] != b["files"][path]:
                diffs.append(f"{a['op']}: {path} differs")
            else:
                files += 1
                size += a["files"][path][1]
    return diffs, (sum("exit" in r for r in parent), files, size)


def compare_trees(parent_tree: str, change_tree: str, workloads: list, seeds: list,
                  scratch: str) -> tuple:
    """Replay both trees at the same paths under `scratch`; see `compare`."""
    work = os.path.join(scratch, "run")
    parent = _run_tree(parent_tree, work, workloads, seeds)
    change = _run_tree(change_tree, work, workloads, seeds)
    return compare(parent, change)


def extract_revision(rev: str, dest: str) -> str:
    """The tree of `rev`, written under `dest` by `git archive`."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                             capture_output=True, check=False)
    if archive.returncode != 0:
        raise RuntimeError(archive.stderr.decode(errors="replace").strip())
    # extraction filters came with Python 3.10.12 and 3.11.4
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    try:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(dest, **safe)
    except (tarfile.TarError, OSError) as e:
        raise RuntimeError(f"cannot extract {rev}: {e}") from e
    return dest


def _csv(text: str) -> list:
    return [item for item in text.split(",") if item]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git revision to compare against")
    p.add_argument("--seeds", required=True, type=lambda s: [int(x) for x in _csv(s)],
                   help="comma-separated fixture seeds")
    p.add_argument("--workloads", default=",".join(WORKLOADS), type=_csv,
                   help="comma-separated workloads (default: all)")
    args = p.parse_args(argv)
    unknown = [w for w in args.workloads if w not in WORKLOADS]
    if unknown or not args.workloads or not args.seeds:
        p.error(f"--workloads must name some of {', '.join(WORKLOADS)}; "
                f"--seeds must name at least one seed")
    with tempfile.TemporaryDirectory(prefix="asrfuse-identity-") as scratch:
        try:
            parent_tree = extract_revision(args.parent, os.path.join(scratch, "parent"))
            diffs, (n_ops, n_files, n_bytes) = compare_trees(
                parent_tree, ROOT, args.workloads, args.seeds, scratch)
        except RuntimeError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
    print(f"identity: {args.parent} vs working tree; workloads {','.join(args.workloads)}; "
          f"seeds {','.join(map(str, args.seeds))}")
    print(f"compared {n_ops} ops (exit code and stdout), {n_files} files, {n_bytes} bytes")
    for d in diffs:
        print(f"DIFF {d}")
    print(f"{len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
