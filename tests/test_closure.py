"""Every file a benchmark op writes reads back through its reader."""

import os
import sys

import pytest

from asrfuse.cli import main
from asrfuse.formats import (
    parse_json,
    read_afm1,
    read_fss1,
    read_mdl1,
    read_nbest,
    read_transcripts_tsv,
)
from asrfuse.models import load_checkpoint

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import checks  # noqa: E402
import fixtures  # noqa: E402
import ops  # noqa: E402


def _read_json_lines(path):
    with open(path, "rb") as fh:
        return [parse_json(path, "JSON", line) for line in fh if line.strip()]


# by file name suffix, the first that matches: a train log, then an NBEST
# file, then the other JSON files (`score --out` reports and train configs)
READERS = [
    (".afm1", read_afm1),
    (".fss1", read_fss1),
    (".tsv", read_transcripts_tsv),
    (".mdl1", lambda path: load_checkpoint(path, read_mdl1(path)[0]["kind"])),
    (".log.jsonl", _read_json_lines),
    (".jsonl", read_nbest),
    (".json", _read_json_lines),
]


def _written(root: str, before: dict) -> dict:
    """{path: mtime and size} of every file under `root` that is new or
    changed since `before`."""
    now = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            st = os.stat(path)
            now[path] = (st.st_mtime_ns, st.st_size)
    return {p: s for p, s in now.items() if before.get(p) != s}


@pytest.mark.parametrize("workload", ["eval-fusion", "ssl-train", "long-form"])
def test_every_output_reads_back(tmp_path, workload):
    fx = fixtures.make_fixture(workload, str(tmp_path / "fixture"), 5)
    if workload == "eval-fusion":
        op_list = ops.eval_fusion_ops(fx, checks.EvalReference(fx.data))
    elif workload == "ssl-train":
        op_list = ops.ssl_train_ops(fx, {})
    else:
        op_list = ops.long_form_ops(fx, {})
    pass_dir = str(tmp_path / "pass")
    os.makedirs(pass_dir)
    seen, read = {}, set()
    for op in op_list:
        code, _, _, stderr = ops.run_op(main, op, pass_dir)
        assert code == 0, f"{op.name}: {stderr}"
        written = _written(pass_dir, seen)
        seen.update(written)
        for path in written:
            suffix, reader = next(((s, r) for s, r in READERS if path.endswith(s)),
                                  (None, None))
            assert reader is not None, f"{op.name} wrote {path}, which has no reader here"
            reader(path)
            read.add(suffix)
    assert read >= {"eval-fusion": {".fss1", ".tsv", ".jsonl", ".json"},
                    "ssl-train": {".mdl1", ".log.jsonl", ".afm1"},
                    "long-form": {".mdl1", ".log.jsonl", ".afm1"}}[workload]
