"""Fixtures are a pure function of the seed."""

import os

import pytest

import fixtures
from run import digest


@pytest.mark.parametrize("workload", sorted(fixtures.MAKERS))
def test_same_seed_byte_identical_other_seed_differs(tmp_path, workload):
    a = fixtures.make_fixture(workload, str(tmp_path / "a"), 7)
    b = fixtures.make_fixture(workload, str(tmp_path / "b"), 7)
    c = fixtures.make_fixture(workload, str(tmp_path / "c"), 8)
    assert sorted(os.listdir(a.root)) == sorted(os.listdir(b.root))
    # manifests name files relative to themselves, so whole trees compare
    assert digest(a.root) == digest(b.root)
    assert digest(a.root) != digest(c.root)


def test_eval_fixture_matches_its_parameters(tmp_path):
    fx = fixtures.make_fixture("eval-fusion", str(tmp_path / "fx"), 3)
    p = fx.params
    assert fx.data["streams"].shape == (p["systems"], p["utterances"], p["frames"], p["vocab"])
    assert len(fx.data["nbest"]) == p["utterances"]
    assert all(len(hyps) == p["nbest"] for hyps in fx.data["nbest"])
    truth = {u: fx.data["refs"][u].split() for u in fx.data["ids"]}
    best = fx.data["streams"].argmax(axis=3)
    tokens = fx.data["tokens"]
    # each system's per-frame argmax disagrees with the reference on ~30% of frames
    for k in range(p["systems"]):
        hyps = [" ".join(tokens[t] for t in row).split() for row in best[k]]
        agree = sum(h == truth[u] for h, u in zip(hyps, fx.data["ids"]))
        assert agree < p["utterances"] // 10
