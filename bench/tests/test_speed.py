"""Scaling by the reference probe."""

import pytest

import run
import speed


def test_scale_cancels_the_machine_speed():
    ref = speed.REFERENCE_S["eval-fusion"]
    assert speed.scale(2.0, [ref, ref], "eval-fusion") == 2.0
    # twice as slow throughout: twice the wall time, the same scaled time
    assert speed.scale(4.0, [2 * ref, 2 * ref, 2 * ref], "eval-fusion") == 2.0
    # one stalled probe does not move the scale
    assert speed.scale(4.0, [2 * ref, 50 * ref, 2 * ref], "eval-fusion") == 2.0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_workload_has_a_reference(workload):
    assert 0 < speed.probe(workload) < 100 * speed.REFERENCE_S[workload]
