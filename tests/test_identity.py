"""`tools/identity.py`: benchmark outputs compared between two trees."""

import os
import sys

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
