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
code and stdout and the bytes and permission bits of every file it leaves in
its pass directory.  Of an MDL1 file that differs it says whether the JSON
header (and which of its keys) or the blob bytes differ.
It prints how many ops, files and bytes it compared and every difference, and
exits 1 on any difference.

    python3 tools/identity.py --parent HEAD~ --cli-tests

With `--cli-tests` it runs this checkout's `tests/test_cli.py` and
`tests/test_corrupt_inputs.py` on each tree's `src/` instead, in one pytest
process per tree, and records every `asrfuse.cli.main` call they make: its
argv, exit code (or the exception it raised), stdout and stderr, with the
tests' temporary directory written as <tmp>.  It compares the calls of each
test by their order in it, lists every difference and exits 1 on any.  Tests
that fail on one tree still count: their calls are compared all the same.
`OPENBLAS_NUM_THREADS` and the rest of the environment come from the caller.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import os
import shutil
import stat
import struct
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
WORKLOADS = ("eval-fusion", "ssl-train", "long-form")
CLI_TESTS = ("tests/test_cli.py", "tests/test_corrupt_inputs.py")


def _import_from(tree: str):
    """`asrfuse`, imported from `tree`'s `src/` and nowhere else."""
    sys.path.insert(0, os.path.join(tree, "src"))
    import asrfuse

    if not os.path.abspath(asrfuse.__file__).startswith(os.path.join(tree, "src") + os.sep):
        raise RuntimeError(f"asrfuse imported from {asrfuse.__file__}, not from {tree}")
    return asrfuse


def replay(tree: str, work: str, workloads: list, seeds: list) -> list:
    """Run each workload's ops at each seed with `tree`'s package under `work`.

    Returns one record per op: its key, exit code, stdout and the sha256,
    size and permission bits of every file the op wrote or changed in its
    pass directory, by relative path.  Before each workload's and seed's ops
    comes one record of its fixture files, with key and files only.
    """
    _import_from(tree)
    sys.path.insert(1, BENCH)
    import checks
    import fixtures
    import ops
    from asrfuse.cli import main

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
    """{relative path: [sha256, size, permission bits]} of every file under
    `root`; an `.mdl1` file adds its `_mdl1_parts`."""
    out = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read()
            digest = [hashlib.sha256(data).hexdigest(), len(data),
                      stat.S_IMODE(os.stat(path).st_mode)]
            parts = _mdl1_parts(data) if name.endswith(".mdl1") else None
            out[os.path.relpath(path, root)] = digest + [parts] if parts else digest
    return out


def _mdl1_parts(data: bytes):
    """{"header": the JSON header, "blobs": sha256 of the bytes after it} of
    an MDL1 file, or None if `data` does not hold a JSON object header."""
    if data[:4] != b"MDL1" or len(data) < 8:
        return None
    (length,) = struct.unpack("<I", data[4:8])
    try:
        header = json.loads(data[8:8 + length])
    except ValueError:
        return None
    if not isinstance(header, dict):
        return None
    return {"header": header, "blobs": hashlib.sha256(data[8 + length:]).hexdigest()}


def _leaves(obj: dict, prefix: str = "") -> dict:
    """{dotted key: value} of every value of a JSON object that is not a
    non-empty object itself."""
    out = {}
    for key, value in obj.items():
        if isinstance(value, dict) and value:
            out.update(_leaves(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


def _how_files_differ(old: list, new: list) -> list:
    """What differs between two files of different bytes: for two MDL1
    files, the header, with the keys added, removed and changed, and the
    blobs; else the file as a whole."""
    if len(old) < 4 or len(new) < 4:
        return ["differs"]
    a, b = _leaves(old[3]["header"]), _leaves(new[3]["header"])
    told = []
    if a != b:
        keys = [("keys added", b.keys() - a.keys()), ("removed", a.keys() - b.keys()),
                ("changed", {k for k in a.keys() & b.keys() if a[k] != b[k]})]
        told.append("header differs (" + "; ".join(f"{label}: {', '.join(sorted(names))}"
                                                   for label, names in keys if names) + ")")
    if old[3]["blobs"] != new[3]["blobs"]:
        told.append("blobs differ")
    return told or ["differs"]


class _Tee(io.StringIO):
    """Keeps what is written to it and passes it on to `inner`."""

    def __init__(self, inner):
        super().__init__()
        self.inner = inner

    def write(self, text):
        self.inner.write(text)
        return super().write(text)

    def flush(self):
        self.inner.flush()


def record_cli_calls(tree: str, work: str) -> list:
    """Run `CLI_TESTS` of this checkout with `tree`'s package, pytest's
    temporary directory at `work`, and return one record per
    `asrfuse.cli.main` call: its key (the test's pytest id and phase, and the
    call's number in it), argv, exit code or "raised <exception type>",
    stdout and stderr, with `work` written as <tmp>."""
    import pytest

    _import_from(tree)
    import asrfuse.cli as cli

    real_main, records, calls = cli.main, [], {}

    def normal(text: str) -> str:
        return text.replace(work, "<tmp>")

    @functools.wraps(real_main)
    def recording_main(argv=None):
        test = os.environ.get("PYTEST_CURRENT_TEST", "")
        calls[test] = calls.get(test, 0) + 1
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, err = _Tee(sys.stdout), _Tee(sys.stderr)
        try:
            code = real_main(argv)
            return code
        except SystemExit as e:  # argparse rejects the command line
            code = e.code
            raise
        except BaseException as e:
            code = f"raised {type(e).__name__}"
            raise
        finally:
            sys.stdout, sys.stderr = saved
            records.append({"call": f"{test} #{calls[test]}",
                            "argv": [normal(str(a)) for a in argv or []], "exit": code,
                            "stdout": normal(out.getvalue()), "stderr": normal(err.getvalue())})

    cli.main = recording_main  # before the tests run `from asrfuse.cli import main`
    code = pytest.main(["-q", "-p", "no:cacheprovider", f"--basetemp={work}",
                        "--rootdir", ROOT, *(os.path.join(ROOT, t) for t in CLI_TESTS)])
    if code not in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED):
        raise RuntimeError(f"pytest exited with {code!r}")
    return records


def _run_tree(function: str, tree: str, work: str, *args) -> list:
    """`function(tree, work, *args)` of this module in a fresh interpreter,
    so each tree imports its own package; `args` go through JSON."""
    result = os.path.join(os.path.dirname(work), "records.json")
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import identity; "
            "json.dump(getattr(identity, sys.argv[2])(sys.argv[3], sys.argv[4], "
            "*json.loads(sys.argv[5])), open(sys.argv[6], 'w'))")
    done = subprocess.run(
        [sys.executable, "-c", code, os.path.dirname(os.path.abspath(__file__)), function,
         tree, work, json.dumps(args), result],
        capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{function} on {tree} failed:\n{done.stderr.strip()[-2000:]}")
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
                continue
            old, new = a["files"][path], b["files"][path]
            if old[:2] != new[:2]:
                diffs += [f"{a['op']}: {path} {how}" for how in _how_files_differ(old, new)]
            if old[2:3] != new[2:3]:
                diffs.append(f"{a['op']}: {path} mode {oct(old[2])} -> {oct(new[2])}")
            if old == new:
                files += 1
                size += old[1]
    return diffs, (sum("exit" in r for r in parent), files, size)


def compare_trees(parent_tree: str, change_tree: str, workloads: list, seeds: list,
                  scratch: str) -> tuple:
    """Replay both trees at the same paths under `scratch`; see `compare`."""
    work = os.path.join(scratch, "run")
    parent = _run_tree("replay", parent_tree, work, workloads, seeds)
    change = _run_tree("replay", change_tree, work, workloads, seeds)
    return compare(parent, change)


def _short(text) -> str:
    text = repr(text)
    return text if len(text) <= 160 else text[:157] + "..."


def compare_calls(parent: list, change: list) -> tuple:
    """Differences between two trees' records of CLI calls, matched by key,
    and how many calls both made."""
    by_key = {r["call"]: r for r in change}
    diffs, made = [], {r["call"] for r in parent}
    for a in parent:
        b = by_key.get(a["call"])
        if b is None:
            diffs.append(f"{a['call']}: made only by the parent")
            continue
        if a["argv"] != b["argv"]:
            diffs.append(f"{a['call']}: argv differs")
        if a["exit"] != b["exit"]:
            diffs.append(f"{a['call']}: exit code {a['exit']} -> {b['exit']}")
        for stream in ("stdout", "stderr"):
            if a[stream] != b[stream]:
                diffs.append(f"{a['call']}: {stream} {_short(a[stream])} -> {_short(b[stream])}")
    diffs += [f"{b['call']}: made only by the change" for b in change if b["call"] not in made]
    return diffs, len(made & set(by_key))


def compare_cli_tests(parent_tree: str, change_tree: str, scratch: str) -> tuple:
    """Run `CLI_TESTS` on both trees at the same paths under `scratch`; see
    `compare_calls`."""
    work = os.path.join(scratch, "pytest")
    parent = _run_tree("record_cli_calls", parent_tree, work)
    change = _run_tree("record_cli_calls", change_tree, work)
    return compare_calls(parent, change)


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
    p.add_argument("--seeds", type=lambda s: [int(x) for x in _csv(s)], default=[],
                   help="comma-separated fixture seeds")
    p.add_argument("--workloads", default=",".join(WORKLOADS), type=_csv,
                   help="comma-separated workloads (default: all)")
    p.add_argument("--cli-tests", action="store_true",
                   help=f"compare the asrfuse.cli.main calls of {' and '.join(CLI_TESTS)} "
                        "instead of the benchmark ops")
    args = p.parse_args(argv)
    unknown = [w for w in args.workloads if w not in WORKLOADS]
    if not args.cli_tests and (unknown or not args.workloads or not args.seeds):
        p.error(f"--workloads must name some of {', '.join(WORKLOADS)}; "
                f"--seeds must name at least one seed")
    with tempfile.TemporaryDirectory(prefix="asrfuse-identity-") as scratch:
        try:
            parent_tree = extract_revision(args.parent, os.path.join(scratch, "parent"))
            if args.cli_tests:
                diffs, n_calls = compare_cli_tests(parent_tree, ROOT, scratch)
            else:
                diffs, (n_ops, n_files, n_bytes) = compare_trees(
                    parent_tree, ROOT, args.workloads, args.seeds, scratch)
        except RuntimeError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
    if args.cli_tests:
        print(f"identity: {args.parent} vs working tree; CLI tests {', '.join(CLI_TESTS)}")
        print(f"compared {n_calls} calls (argv, exit code, stdout and stderr)")
    else:
        print(f"identity: {args.parent} vs working tree; workloads "
              f"{','.join(args.workloads)}; seeds {','.join(map(str, args.seeds))}")
        print(f"compared {n_ops} ops (exit code and stdout), {n_files} files, {n_bytes} bytes")
    for d in diffs:
        print(f"DIFF {d}")
    print(f"{len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
