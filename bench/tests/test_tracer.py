"""Self-time arithmetic and wrapper installation."""

import pytest

import tracer
from tracer import Span, Tracer, layer_self_ms, span_self_times


def test_self_times_on_hand_built_tree():
    spans = [
        Span(0, None, "op", 0, "cli.main", None, 0.0, 10.0),
        Span(1, 0, "op", 0, "combine.grid_search_weights", None, 1.0, 6.0,
             agg_child_s=2.0),
        Span(2, 1, "op", 0, "scoring.wer", None, 2.0, 3.0),
        # overlaps its sibling: only the union of children is subtracted
        Span(3, 0, "op", 0, "formats.read_nbest", None, 5.0, 7.0),
        # reaches past its parent's end: clipped to the parent
        Span(4, 3, "op", 0, "formats.read_mdl1", None, 6.5, 8.0),
    ]
    own = span_self_times(spans)
    assert own[0] == pytest.approx(10.0 - 6.0)  # children cover [1, 7]
    assert own[1] == pytest.approx(5.0 - 1.0 - 2.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(2.0 - 0.5)
    assert own[4] == pytest.approx(1.5)
    agg = {(0, "scoring.align_and_count", None): [10, 2.0, 2.0],
           (1, "scoring.align_and_count", None): [10, 9.0, 9.0]}
    layers = layer_self_ms(spans, agg, 0)
    assert layers["cli"] == pytest.approx(4000.0)
    assert layers["combine"] == pytest.approx(2000.0)
    assert layers["scoring"] == pytest.approx(1000.0 + 2000.0)
    assert layers["formats"] == pytest.approx(3000.0)
    assert layers["numcore"] == 0.0


def test_install_wraps_imported_names_and_uninstall_restores():
    import asrfuse.cli
    import asrfuse.scoring
    import asrfuse.ssl_objectives.trainers as trainers

    originals = (asrfuse.cli.wer, trainers.ctc_loss, asrfuse.scoring.align_and_count)
    t = Tracer()
    t.install()
    try:
        assert asrfuse.cli.wer is not originals[0]
        assert trainers.ctc_loss is not originals[1]
        tset = asrfuse.scoring.ScoredTranscriptSet.from_texts({"u": "a b c"}, {"u": "a c"})
        assert asrfuse.cli.wer(tset)[0] == pytest.approx(100.0 / 3)
    finally:
        t.uninstall()
    assert (asrfuse.cli.wer, trainers.ctc_loss, asrfuse.scoring.align_and_count) == originals
    assert t.agg[(0, "scoring.align_and_count", None)][0] == 1
    assert t.counters[(0, "align_cells")] == 6
    names = [s.name for s in t.spans]
    assert names == ["scoring.ScoredTranscriptSet.from_texts", "scoring.wer"]


def test_every_target_exists():
    import importlib

    for module, attr, *_ in tracer.TARGETS:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part)


def test_exact_counts_repeat_for_one_seed(tmp_path):
    import os

    import checks
    import fixtures
    import ops
    from asrfuse.cli import main
    from layers import per_layer_metrics

    fx = fixtures.make_fixture("eval-fusion", str(tmp_path / "fx"), 4)
    seq = ops.eval_fusion_ops(fx, checks.EvalReference(fx.data))
    chosen = [seq[1], seq[3], seq[5], seq[7]]  # fixed combines, grouped WER, MAPSSWE
    t = Tracer()
    t.install()
    try:
        for index in range(2):
            t.begin_pass(index)
            pass_dir = str(tmp_path / f"pass{index}")
            os.makedirs(pass_dir)
            for op in chosen:
                assert not ops.execute(main, op, pass_dir, t.call_op).failed
            t.end_pass()
    finally:
        t.uninstall()
    first, second = (per_layer_metrics(t, [i]) for i in range(2))
    for name in ("scoring.align_calls", "scoring.align_cells", "scoring.align_unique_ratio",
                 "combine.joint_decode_calls", "combine.rescore_nbest_calls",
                 "formats.bytes_read", "formats.bytes_written"):
        assert first[name]["value"] == second[name]["value"] > 0, name
    # grouped WER with two keys aligns each utterance 1 + 2 + 1 times, MAPSSWE twice
    n = fixtures.PARAMS["eval-fusion"]["utterances"]
    assert first["scoring.align_calls"]["value"] == 4 * n + 2 * n
