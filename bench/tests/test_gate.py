"""The correctness gate turns a wrong output into a failed op, never a crash.

The program is left untouched: corruption is applied to its output file
after `asrfuse.cli.main` has returned.
"""

import os
import shutil

import pytest

import checks
import fixtures
import ops
from asrfuse.cli import main
from run import Passes


def flip_first_token(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cells = lines[1].split("\t")
    words = cells[1].split()
    words[0] = "zzzz" if words[0] != "zzzz" else "yyyy"
    cells[1] = " ".join(words)
    lines[1] = "\t".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def eval_ops(tmp_path_factory):
    fx = fixtures.make_fixture("eval-fusion", str(tmp_path_factory.mktemp("fx") / "fx"), 5)
    return ops.eval_fusion_ops(fx, checks.EvalReference(fx.data))


@pytest.mark.parametrize("index", [1, 3], ids=["joint-fixed", "rescore-fixed"])
def test_flipped_hypothesis_token_is_a_failed_op(tmp_path, eval_ops, index):
    op = eval_ops[index]
    hyp = f"{op.name}.tsv"
    good = str(tmp_path / "good")
    os.makedirs(good)
    assert not ops.execute(main, op, good).failed

    def corrupting_main(argv):
        code = main(argv)
        flip_first_token(os.path.join(bad, hyp))
        return code

    bad = str(tmp_path / "bad")
    os.makedirs(bad)
    result = ops.execute(corrupting_main, op, bad)
    assert result.exit_code == 0
    assert result.failed
    assert any("hypotheses differ" in p for p in result.problems)


def test_corrupted_pass_differs_from_the_first(tmp_path, eval_ops):
    op = eval_ops[1]
    first = str(tmp_path / "pass0")
    os.makedirs(first)
    r0 = ops.execute(main, op, first)
    later = str(tmp_path / "pass1")
    shutil.copytree(first, later)
    flip_first_token(os.path.join(later, f"{op.name}.tsv"))
    r1 = ops.OpResult(op, 0.0, 0, r0.report, [])
    passes = Passes(ctx=None)
    passes._compare(first, [r0])
    passes._compare(later, [r1])
    assert r1.failed
    assert any("differ from the first pass" in p for p in r1.problems)


def test_exception_in_the_program_is_a_failed_op(tmp_path, eval_ops):
    def crashing_main(argv):
        raise IndexError("boom")

    result = ops.execute(crashing_main, eval_ops[4], str(tmp_path))
    assert result.failed and result.exit_code == -1
    assert "IndexError" in result.problems[0]


def test_edit_distance_reference():
    assert checks.edit_distance(list("kitten"), list("sitting")) == 3
    assert checks.edit_distance([], ["a", "b"]) == 2
    assert checks.edit_distance(["a", "b"], []) == 2
    assert checks.tokens_of(" A  bc\td ", "char") == ["a", "b", "c", "d"]
