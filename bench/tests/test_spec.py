"""BENCHMARK.json agrees with the code, and the summary statistics."""

import json
import os

import layers
import run


def load_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_names_what_the_code_reports():
    spec = load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    units = {name: (unit, better) for name, unit, better in run.E2E}
    assert [m["name"] for m in spec["end_to_end"]] == list(run.RESULT_E2E)
    for m in spec["end_to_end"]:
        assert (m["unit"], m["better"]) == units[m["name"]]
        assert 0 < m["bound"] <= 0.25
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, *_) in layers.METRICS.items()}


def test_summary_percentile_needs_ten_samples_beyond():
    few = run.summary([float(i) for i in range(12)], "s", "lower")
    assert few["value"] == 5.5 and few["samples"] == 12
    assert not [k for k in few if k.startswith("p")]
    many = run.summary([float(i) for i in range(101)], "s", "lower")
    assert many["value"] == 50.0
    assert many["p90"] == 90.0
    assert not [k for k in many if k.startswith("p9") and k != "p90"]
