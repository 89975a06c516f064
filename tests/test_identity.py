"""`tools/identity.py`: benchmark outputs and CLI test calls compared between two
trees."""

import ast
import glob
import hashlib
import os
import shutil
import sys

import numpy as np

from asrfuse.formats import write_mdl1

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

import identity  # noqa: E402


def test_working_tree_matches_itself(tmp_path):
    diffs, (ops, files, size) = identity.compare_trees(ROOT, ROOT, ["eval-fusion"], [3],
                                                       str(tmp_path))
    assert diffs == []
    assert ops == 8 and files > 0 and size > 0


def _record(op="w seed 1 a", exit=0, stdout="{}\n", files=None):
    return {"op": op, "exit": exit, "stdout": stdout,
            "files": files if files is not None else {"a.tsv": ["d0", 3]}}


def test_every_kind_of_difference_is_listed():
    parent = [_record(), _record(op="w seed 1 b", files={"x": ["d1", 5], "y": ["d2", 7]})]
    change = [_record(exit=2, stdout="other\n"),
              _record(op="w seed 1 b", files={"x": ["d9", 5], "z": ["d3", 1]})]
    diffs, counts = identity.compare(parent, change)
    assert diffs == ["w seed 1 a: exit code 0 -> 2", "w seed 1 a: stdout differs",
                     "w seed 1 b: x differs", "w seed 1 b: y written only by the parent",
                     "w seed 1 b: z written only by the change"]
    assert counts == (2, 1, 3)  # only a.tsv matched


def test_different_op_sequences_are_one_difference():
    diffs, counts = identity.compare([_record()], [_record(op="w seed 2 a")])
    assert diffs == ["the two trees ran different op sequences"] and counts == (0, 0, 0)


def test_fixture_records_are_compared_but_not_counted_as_ops():
    parent = [{"op": "w seed 1 fixture", "files": {"f.afm": ["d0", 4], "g.tsv": ["d1", 2]}},
              _record()]
    change = [{"op": "w seed 1 fixture", "files": {"f.afm": ["d9", 4], "g.tsv": ["d1", 2]}},
              _record()]
    diffs, counts = identity.compare(parent, change)
    assert diffs == ["w seed 1 fixture: f.afm differs"]
    assert counts == (1, 2, 5)  # g.tsv and a.tsv matched


def test_mode_differences_are_listed_apart_from_bytes():
    parent = [_record(files={"a.tsv": ["d0", 3, 0o600], "b.tsv": ["d1", 2, 0o644]})]
    change = [_record(files={"a.tsv": ["d0", 3, 0o644], "b.tsv": ["d1", 2, 0o644]})]
    diffs, counts = identity.compare(parent, change)
    assert diffs == ["w seed 1 a: a.tsv mode 0o600 -> 0o644"]
    assert counts == (1, 1, 2)  # only b.tsv matched


def _mdl1(header, blobs="b0"):
    return [f"{header}{blobs}", 9, 0o644, {"header": header, "blobs": blobs}]


def test_mdl1_differences_name_the_header_keys_or_the_blobs():
    six = {"kind": "a2a-mdn", "seed": 5, "hyperparameters": {"config": {"hidden": 8}}}
    eight = {"kind": "a2a-mdn", "seed": 5,
             "hyperparameters": {"config": {"hidden": 8, "batch_frames": 400,
                                            "mtl_weights": [1.0, 1.0, 1.0]}}}
    other = {"kind": "a2a-mdn", "seed": 6, "hyperparameters": {"config": {}}}
    parent = [_record(files={"a.mdl1": _mdl1(six), "b.mdl1": _mdl1(six),
                             "c.mdl1": _mdl1(eight), "d.mdl1": ["d0", 3, 0o644]})]
    change = [_record(files={"a.mdl1": _mdl1(eight), "b.mdl1": _mdl1(six, "b1"),
                             "c.mdl1": _mdl1(other, "b1"), "d.mdl1": ["d1", 3, 0o644]})]
    diffs, counts = identity.compare(parent, change)
    assert diffs == [
        "w seed 1 a: a.mdl1 header differs (keys added: hyperparameters.config.batch_frames, "
        "hyperparameters.config.mtl_weights)",
        "w seed 1 a: b.mdl1 blobs differ",
        "w seed 1 a: c.mdl1 header differs (keys added: hyperparameters.config; removed: "
        "hyperparameters.config.batch_frames, hyperparameters.config.hidden, "
        "hyperparameters.config.mtl_weights; changed: seed)",
        "w seed 1 a: c.mdl1 blobs differ",
        "w seed 1 a: d.mdl1 differs"]
    assert counts == (1, 0, 0)


def test_mdl1_files_are_recorded_by_part(tmp_path):
    write_mdl1(tmp_path / "m.mdl1", "a2a-mdn", {"config": {"hidden": 8}}, 5,
               [("w", np.arange(3.0))])
    (tmp_path / "x.mdl1").write_bytes(b"MDL1\x05\x00\x00\x00[1,2]")  # no object header
    digests = identity._file_digests(str(tmp_path))
    header, blobs = digests["m.mdl1"][3]["header"], digests["m.mdl1"][3]["blobs"]
    assert header["hyperparameters"] == {"config": {"hidden": 8}} and header["seed"] == 5
    assert blobs == hashlib.sha256(np.arange(3.0).astype("<f8").tobytes()).hexdigest()
    assert len(digests["x.mdl1"]) == 3


def _call(key="t.py::a (call) #1", argv=("score",), exit=0, stdout="", stderr=""):
    return {"call": key, "argv": list(argv), "exit": exit, "stdout": stdout, "stderr": stderr}


def test_every_kind_of_cli_call_difference_is_listed():
    parent = [_call(), _call(key="t.py::b (call) #1", stdout="x\n"),
              _call(key="t.py::b (call) #2", exit=2, stderr="error: boom\n"),
              _call(key="t.py::c (call) #1")]
    change = [_call(argv=("score", "--json")),
              _call(key="t.py::b (call) #1", stdout="y\n"),
              _call(key="t.py::b (call) #2", exit="raised KeyError"),
              _call(key="t.py::d (call) #1")]
    diffs, compared = identity.compare_calls(parent, change)
    assert diffs == ["t.py::a (call) #1: argv differs",
                     "t.py::b (call) #1: stdout 'x\\n' -> 'y\\n'",
                     "t.py::b (call) #2: exit code 2 -> raised KeyError",
                     "t.py::b (call) #2: stderr 'error: boom\\n' -> ''",
                     "t.py::c (call) #1: made only by the parent",
                     "t.py::d (call) #1: made only by the change"]
    assert compared == 3


def test_identical_cli_calls_are_counted():
    calls = [_call(), _call(key="t.py::a (call) #2", exit=2, stderr="error: <tmp>/x\n")]
    assert identity.compare_calls(calls, [dict(c) for c in calls]) == ([], 2)


def test_every_test_file_that_imports_main_is_replayed():
    """`--cli-tests` replays every test file that calls `main` in-process."""
    importing = []
    for path in sorted(glob.glob(os.path.join(ROOT, "tests", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        if any(isinstance(node, ast.ImportFrom) and node.module == "asrfuse.cli"
               and any(alias.name == "main" for alias in node.names)
               for node in ast.walk(tree)):
            importing.append(os.path.relpath(path, ROOT))
    assert "tests/test_cli.py" in importing
    assert sorted(set(importing) - set(identity.CLI_TESTS)) == []


def test_a_changed_float_in_weighted_sum_is_caught(tmp_path):
    tree = tmp_path / "tree"
    shutil.copytree(os.path.join(ROOT, "src"), tree / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    combine = tree / "src" / "asrfuse" / "combine.py"
    exact = "return sum(w * s for w, s in zip(values, scores))"
    text = combine.read_text()
    assert text.count(exact) == 1
    # the sum starts at 1e-9 instead of 0: one float, far below every score
    changed = "return sum((w * s for w, s in zip(values, scores)), 1e-9)"
    combine.write_text(text.replace(exact, changed))
    diffs, (ops, _, _) = identity.compare_trees(ROOT, str(tree), ["eval-fusion"], [3],
                                                str(tmp_path / "scratch"))
    assert ops == 8
    assert {d.split(": ")[0] for d in diffs} == {
        f"eval-fusion seed 3 combine_{op}"
        for op in ("joint_tune", "joint_fixed", "rescore_tune", "rescore_fixed")}
