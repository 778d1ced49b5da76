"""Self-time arithmetic and per-layer derivation from span lists."""

import sys
import threading

import pytest

from tracing import Tracer, covered, layer_metrics, self_times


def span(name, start, end, parent=-1, hit=None, size=0):
    return [name, start, end, parent, 1, hit, size]


def test_covered_merges_overlaps_and_clips():
    assert covered((0.0, 10.0), []) == 0.0
    assert covered((0.0, 10.0), [(1.0, 3.0), (2.0, 4.0)]) == pytest.approx(3.0)
    assert covered((0.0, 10.0), [(1.0, 2.0), (5.0, 6.0)]) == pytest.approx(2.0)
    assert covered((0.0, 10.0), [(-5.0, 1.0), (9.0, 12.0)]) == pytest.approx(2.0)
    assert covered((0.0, 10.0), [(11.0, 12.0)]) == 0.0


def test_self_time_is_duration_minus_children():
    spans = [
        span("job", 0.0, 10.0),
        span("core.chunk", 1.0, 9.0, parent=0),
        span("oracle.batch", 2.0, 5.0, parent=1),
        span("oracle.batch", 6.0, 8.0, parent=1),
        span("executor.map", 2.5, 4.5, parent=2),
    ]
    assert self_times(spans) == pytest.approx([2.0, 3.0, 1.0, 2.0, 2.0])
    # Self times partition the root's wall time.
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_overlapping_children_from_threads_are_counted_once():
    spans = [
        span("executor.map", 0.0, 4.0),
        span("fl.train", 0.5, 3.0, parent=0),
        span("fl.train", 1.0, 3.5, parent=0),
    ]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_layer_metrics_per_job_and_attribution():
    spans = [
        span("job", 0.0, 10.0),
        span("core.chunk", 0.0, 9.0, parent=0),
        span("oracle.batch", 1.0, 7.0, parent=1, size=4),
        span("executor.map", 1.5, 6.5, parent=2),
        span("cache.utility", 2.0, 3.0, parent=3, hit=False),
        span("cache.utility", 3.0, 3.5, parent=3, hit=True),
        span("job", 20.0, 30.0),
    ]
    metrics = layer_metrics(spans)
    assert metrics["trace.jobs"] == 2
    assert metrics["core.chunks"] == 0.5
    assert metrics["oracle.coalitions"] == 2.0
    assert metrics["core.step_s"] == pytest.approx(3.0 / 2)
    assert metrics["oracle.self_s"] == pytest.approx(1.0 / 2)
    assert metrics["executor.dispatch_s"] == pytest.approx(3.5 / 2)
    assert metrics["cache.self_s"] == pytest.approx(1.5 / 2)
    assert metrics["cache.hit_ratio"] == pytest.approx(0.5)
    assert metrics["unattributed_s"] == pytest.approx(11.0 / 2)
    assert metrics["trace.job_s"] == pytest.approx(10.0)
    layer_sum = sum(
        metrics[name]
        for name in ("core.step_s", "oracle.self_s", "executor.dispatch_s", "cache.self_s",
                     "unattributed_s")
    )
    assert layer_sum == pytest.approx(metrics["trace.job_s"])
    assert metrics["trace.attributed_ratio"] == pytest.approx(9.0 / 20.0)


def test_nested_spans_of_one_name_count_once():
    spans = [
        span("job", 0.0, 4.0),
        span("store.get", 1.0, 3.0, parent=0, hit=True),
        span("store.get", 1.5, 2.5, parent=1, hit=True),
    ]
    metrics = layer_metrics(spans)
    assert metrics["store.gets"] == 1
    assert metrics["store.hit_ratio"] == 1.0
    assert metrics["store.get_s"] == pytest.approx(2.0)


def test_tracer_records_parents_per_thread():
    tracer = Tracer()
    job = tracer.begin("job")
    for _ in range(2):
        tracer.end(tracer.begin("core.chunk"))
    tracer.end(job)
    names = [(record[0], record[3]) for record in tracer.spans]
    assert names == [("job", -1), ("core.chunk", 0), ("core.chunk", 0)]
    assert all(record[2] >= record[1] for record in tracer.spans)


def test_tracer_parents_stay_on_their_own_thread():
    tracer = Tracer()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)

    def work():
        for _ in range(200):
            job = tracer.begin("job")
            tracer.end(tracer.begin("core.chunk"))
            tracer.end(job)

    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(switch)
    for record in tracer.spans:
        if record[0] == "core.chunk":
            parent = tracer.spans[record[3]]
            assert parent[0] == "job" and parent[4] == record[4]


def test_service_root_self_time_is_the_runner_not_unattributed():
    spans = [
        span("service.job", 0.0, 1.0),
        span("fl.train", 0.2, 0.8, parent=0),
    ]
    metrics = layer_metrics(spans)
    assert metrics["service.runner_s"] == pytest.approx(0.4)
    assert metrics["unattributed_s"] == 0.0
    assert metrics["trace.attributed_ratio"] == pytest.approx(1.0)
