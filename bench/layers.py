"""Per-layer metrics from a traced run, and the end-to-end metric each moves.

Every metric is computed per traced pass and reported as the median over
those passes.  Counts marked exact repeat exactly for a given seed.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import LAYERS, layer_self_ms

TRAIN_OBJECTIVES = ("hubert", "wav2vec2", "data2vec", "ctc")

# name -> (unit, better, exact count, end-to-end metrics it should move, workloads)
METRICS = {
    "numcore.nodes_per_step": ("count", "lower", True, "ssl_train_frames_per_s",
                               "ssl-train (little on long-form)"),
    "numcore.extract_graph_nodes": ("count", "lower", True, "extract_frames_per_s",
                                    "ssl-train, long-form"),
    "numcore.backward_ms": ("ms", "lower", False, "ssl_train_frames_per_s",
                            "ssl-train (little on long-form)"),
    "numcore.optim_step_ms": ("ms", "lower", False, "ssl_train_frames_per_s",
                              "ssl-train (little on long-form)"),
    **{f"ssl_objectives.step_ms.{o}": ("ms", "lower", False, "ssl_train_frames_per_s",
                                       "ssl-train") for o in TRAIN_OBJECTIVES},
    "ssl_objectives.ctc_loss_ms": ("ms", "lower", False, "ssl_train_frames_per_s",
                                   "long-form, ssl-train"),
    "ssl_objectives.ctc_cells": ("count", "lower", True, "ssl_train_frames_per_s",
                                 "long-form, ssl-train"),
    "ssl_objectives.attention_ms": ("ms", "lower", False,
                                    "ssl_train_frames_per_s, extract_frames_per_s",
                                    "ssl-train, long-form"),
    "ssl_objectives.kmeans_fit_ms": ("ms", "lower", False, "ssl_train_frames_per_s",
                                     "ssl-train"),
    "ssl_objectives.ema_update_ms": ("ms", "lower", False, "ssl_train_frames_per_s",
                                     "ssl-train"),
    "bottleneck.forward_ms": ("ms", "lower", False, "extract_frames_per_s",
                              "ssl-train, long-form"),
    "bottleneck.calls": ("count", "lower", False, "extract_frames_per_s",
                         "ssl-train, long-form"),
    "a2a.step_ms": ("ms", "lower", False, "a2a_train_frames_per_s", "long-form"),
    "a2a.mdn_forward_ms": ("ms", "lower", False, "a2a_train_frames_per_s", "long-form"),
    "a2a.mtl_loss_ms": ("ms", "lower", False, "a2a_train_frames_per_s", "long-form"),
    "combine.grid_points": ("count", "lower", True, "combine_*_tune_s", "eval-fusion"),
    "combine.grid_search_ms": ("ms", "lower", False, "combine_*_tune_s", "eval-fusion"),
    "combine.joint_decode_ms": ("ms", "lower", False,
                                "combine_joint_fixed_s, combine_joint_tune_s", "eval-fusion"),
    "combine.joint_decode_calls": ("count", "lower", False,
                                   "combine_joint_fixed_s, combine_joint_tune_s",
                                   "eval-fusion"),
    "combine.rescore_nbest_ms": ("ms", "lower", False,
                                 "combine_rescore_fixed_s, combine_rescore_tune_s",
                                 "eval-fusion"),
    "combine.rescore_nbest_calls": ("count", "lower", False,
                                    "combine_rescore_fixed_s, combine_rescore_tune_s",
                                    "eval-fusion"),
    "scoring.align_calls": ("count", "lower", True,
                            "score_*_s, significance_s, combine_*_tune_s", "eval-fusion"),
    "scoring.align_us": ("us", "lower", False,
                         "score_*_s, significance_s, combine_*_tune_s", "eval-fusion"),
    "scoring.align_cells": ("count", "lower", True,
                            "score_*_s, significance_s, combine_*_tune_s", "eval-fusion"),
    "scoring.align_unique_ratio": ("ratio", "higher", True,
                                   "score_wer_grouped_s, score_cer_grouped_s, "
                                   "combine_*_tune_s", "eval-fusion"),
    "scoring.wer_calls": ("count", "lower", False, "score_*_s, significance_s",
                          "eval-fusion"),
    "scoring.wer_ms": ("ms", "lower", False, "score_*_s, significance_s", "eval-fusion"),
    "scoring.mapsswe_ms": ("ms", "lower", False, "significance_s", "eval-fusion"),
    "formats.read_ms": ("ms", "lower", False, "combine_*_fixed_s, extract_frames_per_s",
                        "eval-fusion, ssl-train"),
    "formats.write_ms": ("ms", "lower", False, "combine_*_fixed_s, extract_frames_per_s",
                         "eval-fusion, ssl-train"),
    "formats.bytes_read": ("bytes", "lower", False,
                           "combine_*_fixed_s, extract_frames_per_s",
                           "eval-fusion, ssl-train"),
    "formats.bytes_written": ("bytes", "lower", False,
                              "combine_*_fixed_s, extract_frames_per_s",
                              "eval-fusion, ssl-train"),
    "models.checkpoint_save_ms": ("ms", "lower", False, "pass_s, setup_s", "all"),
    "models.checkpoint_load_ms": ("ms", "lower", False, "pass_s, setup_s", "all"),
    "config.read_manifest_ms": ("ms", "lower", False, "pass_s, setup_s", "all"),
    **{f"{layer}.self_ms": ("ms", "lower", False, "pass_s", "all") for layer in LAYERS},
    "trace.spans": ("count", "lower", False, "tracing overhead", "all"),
    "trace.overhead_s": ("s", "lower", False, "tracing overhead (traced - untraced pass_s)",
                         "all"),
}


def _totals(tracer, pass_index: int) -> dict:
    """(name, objective) -> [calls, total seconds] over spans and hot aggregates."""
    out = defaultdict(lambda: [0, 0.0])
    for s in tracer.spans:
        if s.pass_index == pass_index:
            entry = out[(s.name, s.objective)]
            entry[0] += 1
            entry[1] += s.end - s.start
    for (p, name, objective), (calls, total, _) in tracer.agg.items():
        if p == pass_index:
            entry = out[(name, objective)]
            entry[0] += calls
            entry[1] += total
    return out


def _pass_metrics(tracer, pass_index: int) -> dict:
    totals = _totals(tracer, pass_index)

    def calls(*names, objectives=None):
        return sum(v[0] for (n, o), v in totals.items()
                   if n in names and (objectives is None or o in objectives))

    def ms(*names, objectives=None):
        return 1e3 * sum(v[1] for (n, o), v in totals.items()
                         if n in names and (objectives is None or o in objectives))

    def count(key):
        return tracer.counters.get((pass_index, key), 0)

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    step = ("numcore.forward_backward", "numcore.Adam.step")
    fb = "numcore.forward_backward"
    align = "scoring.align_and_count"
    m = {
        "numcore.nodes_per_step": per(count("nodes.train"),
                                      calls(fb, objectives=TRAIN_OBJECTIVES)),
        "numcore.extract_graph_nodes": count("nodes.extract"),
        "numcore.backward_ms": ms("numcore.Tensor.backward"),
        "numcore.optim_step_ms": ms("numcore.Adam.step"),
    }
    for o in TRAIN_OBJECTIVES:
        m[f"ssl_objectives.step_ms.{o}"] = per(ms(*step, objectives=(o,)),
                                               calls(fb, objectives=(o,)))
    m.update({
        "ssl_objectives.ctc_loss_ms": ms("ssl_objectives.ctc_loss"),
        "ssl_objectives.ctc_cells": count("ctc_cells"),
        "ssl_objectives.attention_ms": ms("ssl_objectives.TransformerBlock.__call__"),
        "ssl_objectives.kmeans_fit_ms": ms("ssl_objectives.KMeansQuantizer.fit"),
        "ssl_objectives.ema_update_ms": ms("ssl_objectives.ema_update"),
        "bottleneck.forward_ms": ms("bottleneck.BottleneckModule.forward"),
        "bottleneck.calls": calls("bottleneck.BottleneckModule.forward"),
        "a2a.step_ms": per(ms(*step, objectives=("a2a-mtl",)),
                           calls(fb, objectives=("a2a-mtl",))),
        "a2a.mdn_forward_ms": ms("a2a.MdnHead.forward"),
        "a2a.mtl_loss_ms": ms("a2a.mtl_loss"),
        "combine.grid_points": count("grid_points"),
        "combine.grid_search_ms": ms("combine.grid_search_weights"),
        "combine.joint_decode_ms": ms("combine.joint_decode"),
        "combine.joint_decode_calls": calls("combine.joint_decode"),
        "combine.rescore_nbest_ms": ms("combine.rescore_nbest"),
        "combine.rescore_nbest_calls": calls("combine.rescore_nbest"),
        "scoring.align_calls": calls(align),
        "scoring.align_us": 1e3 * per(ms(align), calls(align)),
        "scoring.align_cells": count("align_cells"),
        "scoring.align_unique_ratio": per(count("align_unique"), calls(align)),
        "scoring.wer_calls": calls("scoring.wer"),
        "scoring.wer_ms": ms("scoring.wer"),
        "scoring.mapsswe_ms": ms("scoring.mapsswe"),
        "formats.read_ms": ms(*(n for n, _ in totals if n.startswith("formats.read_"))),
        "formats.write_ms": ms(*(n for n, _ in totals if n.startswith("formats.write_"))),
        "formats.bytes_read": count("bytes_read"),
        "formats.bytes_written": count("bytes_written"),
        "models.checkpoint_save_ms": ms("models.save_ssl_checkpoint",
                                        "models.save_mdn_checkpoint"),
        "models.checkpoint_load_ms": ms("models.load_ssl_checkpoint",
                                        "models.load_mdn_checkpoint"),
        "config.read_manifest_ms": ms("config.read_manifest"),
        "trace.spans": sum(1 for s in tracer.spans if s.pass_index == pass_index),
    })
    for layer, own in layer_self_ms(tracer.spans, tracer.agg, pass_index).items():
        m[f"{layer}.self_ms"] = own
    return m


def per_layer_metrics(tracer, pass_indices: list) -> dict:
    """Median over the traced passes of every metric but trace.overhead_s, with
    the end-to-end metrics and workloads it should move."""
    per_pass = [_pass_metrics(tracer, i) for i in pass_indices]
    out = {}
    for name, (unit, better, exact, moves, workloads) in METRICS.items():
        if name == "trace.overhead_s":
            continue
        out[name] = {"value": statistics.median(m[name] for m in per_pass),
                     "unit": unit, "better": better, "samples": len(per_pass),
                     "exact": exact, "moves": moves, "on": workloads}
    return out
