"""BENCHMARK.json and the metric catalog list the same metrics and units."""

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)


def load(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_metrics_match_catalog():
    benchmark = load(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"))
    catalog = {row["name"]: row for row in load(os.path.join(BENCH, "catalog.json"))["metrics"]}
    for section in ("end_to_end", "per_layer"):
        declared = {(m["name"], m["unit"], m["better"]) for m in benchmark[section]}
        listed = {
            (name, row["unit"], row["better"])
            for name, row in catalog.items()
            if row["kind"] == section
        }
        assert declared == listed, section


def test_layer_metrics_cover_every_traced_metric():
    from tracing import PER_JOB_METRICS, layer_metrics

    catalog = load(os.path.join(BENCH, "catalog.json"))["metrics"]
    per_layer = {row["name"] for row in catalog if row["kind"] == "per_layer"}
    derived = set(layer_metrics([])) | {
        "trace.overhead_ratio", "pipeline.snapshots", "service.submit_ms",
        "service.queue_wait_ms", "service.run_ms", "service.stream_lag_ms",
    }
    assert per_layer == derived
    assert set(PER_JOB_METRICS) <= per_layer
