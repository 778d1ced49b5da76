"""In-memory spans around the public entry points of each layer.

The benchmark does not rely on spans inside the program: :func:`install`
wraps the public functions of every layer from here, records one span per
call in memory (name, start, end, parent, thread), and :func:`layer_metrics`
turns the finished span list into per-layer counts and self times.

A span's *self time* is its duration minus the part of its interval that its
child spans cover (children are merged as a union of intervals, clipped to
the parent, so overlapping children are never counted twice).  Summed over
every span below a job root, self times partition the job's wall time; the
root's own self time is the part no layer claims (``unattributed_s``).
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

#: span names that mark one job: the root of the per-job span tree.  "job" is
#: the benchmark's own wrapper, so its self time is unattributed; the service
#: root is the library's ``run_job``, whose self time is the runner's work.
ROOT_SPANS = ("job", "service.job")

# Span record layout (a list, filled in place when the span ends).
NAME, START, END, PARENT, THREAD, HIT, SIZE = range(7)


class Tracer:
    """Collects spans in memory from any thread (one parent stack per thread)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1][-1] if stack else -1
        record = [name, time.perf_counter(), 0.0, parent, threading.get_ident(), None, 0]
        # The index must be the one this append got, not another thread's.
        with self._lock:
            self.spans.append(record)
            index = len(self.spans) - 1
        stack.append((record, index))
        return record

    def end(self, record: list) -> None:
        record[END] = time.perf_counter()
        stack = self._stack()
        while stack:
            if stack.pop()[0] is record:
                break


def write_spans(spans: Sequence[list], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in spans:
            handle.write(json.dumps(record) + "\n")


def read_spans(path: str) -> List[list]:
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


# --------------------------------------------------------------------------- #
# Self-time arithmetic
# --------------------------------------------------------------------------- #
def covered(interval: Tuple[float, float], children: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``children``, clipped to ``interval``."""
    low, high = interval
    clipped = sorted(
        (max(start, low), min(end, high)) for start, end in children if end > low and start < high
    )
    total = 0.0
    run_start: Optional[float] = None
    run_end = 0.0
    for start, end in clipped:
        if run_start is None or start > run_end:
            if run_start is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_start is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[list]) -> List[float]:
    """Each span's duration minus the time its children cover."""
    children = defaultdict(list)
    for record in spans:
        if record[PARENT] >= 0:
            children[record[PARENT]].append((record[START], record[END]))
    return [
        (record[END] - record[START])
        - covered((record[START], record[END]), children.get(index, ()))
        for index, record in enumerate(spans)
    ]


# --------------------------------------------------------------------------- #
# Per-layer metrics
# --------------------------------------------------------------------------- #
#: span name -> the per-layer self-time metric it feeds
SELF_TIME_METRICS = {
    "pipeline.run": "pipeline.self_s",
    "pipeline.build": "pipeline.build_s",
    "core.chunk": "core.step_s",
    "oracle.batch": "oracle.self_s",
    "executor.map": "executor.dispatch_s",
    "cache.utility": "cache.self_s",
    "cache.lookup": "cache.self_s",
    "store.get": "store.get_s",
    "store.put": "store.put_s",
    "fl.train": "fl.self_s",
    "fl.local_update": "fl.local_update_s",
    "fl.aggregate": "fl.aggregate_s",
    "fl.evaluate": "fl.evaluate_s",
    "fl.vectorized": "fl.vectorized_s",
    "models.param_copy": "models.param_copy_s",
    "game.eval": "game.eval_s",
    "service.job": "service.runner_s",
}

#: span name -> the per-layer count metric it feeds
COUNT_METRICS = {
    "core.chunk": "core.chunks",
    "oracle.batch": "oracle.batches",
    "store.get": "store.gets",
    "store.put": "store.puts",
    "fl.train": "fl.trainings",
    "fl.local_update": "fl.local_updates",
    "models.param_copy": "models.param_copies",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: Sequence[list]) -> dict:
    """Per-job per-layer metrics from one run's spans.

    Times and counts are totals divided by the number of job roots, so a
    figure reads "per valuation job".  ``fl.train_s`` is the full duration of
    ``FederatedTrainer.utility`` (its self part is ``fl.self_s``); every other
    ``_s`` metric is a self time, so the self times plus ``unattributed_s``
    add up to ``trace.job_s``.  Spans nested in a span of the same name (a
    wrapper store delegating to another store) are counted once.
    """
    selfs = self_times(spans)
    totals: dict = defaultdict(float)
    roots = 0
    root_wall = 0.0
    cache_lookups = cache_hits = store_gets = store_hits = 0
    for record, own in zip(spans, selfs):
        name = record[NAME]
        parent = record[PARENT]
        # A wrapper store or cache delegating to another of its kind records
        # nested spans of one name: count the outermost call only.  Self times
        # still add up, since the inner span's time is subtracted once.
        nested = parent >= 0 and spans[parent][NAME] == name
        if name in SELF_TIME_METRICS:
            totals[SELF_TIME_METRICS[name]] += own
        if nested:
            continue
        if name in ROOT_SPANS:
            roots += 1
            root_wall += record[END] - record[START]
            if name == "job":
                totals["unattributed_s"] += own
            continue
        if name in COUNT_METRICS:
            totals[COUNT_METRICS[name]] += 1
        if name == "oracle.batch":
            totals["oracle.coalitions"] += record[SIZE]
        elif name == "fl.train":
            totals["fl.train_s"] += record[END] - record[START]
        elif name == "fl.vectorized":
            totals["fl.trainings"] += record[SIZE]
        elif name in ("cache.utility", "cache.lookup"):
            cache_lookups += 1
            cache_hits += bool(record[HIT])
        elif name == "store.get":
            store_gets += 1
            store_hits += bool(record[HIT])
    per_job = max(roots, 1)
    metrics = {name: 0.0 for name in PER_JOB_METRICS}
    for name, value in totals.items():
        metrics[name] = value / per_job
    attributed = root_wall - totals["unattributed_s"]
    metrics["cache.hit_ratio"] = _ratio(cache_hits, cache_lookups)
    metrics["store.hit_ratio"] = _ratio(store_hits, store_gets)
    metrics["trace.jobs"] = float(roots)
    metrics["trace.job_s"] = root_wall / per_job
    metrics["trace.attributed_ratio"] = _ratio(attributed, root_wall)
    metrics["trace.spans"] = float(len(spans))
    return metrics


#: every metric :func:`layer_metrics` reports per job (0 where a layer never ran)
PER_JOB_METRICS = tuple(
    sorted(set(SELF_TIME_METRICS.values()) | set(COUNT_METRICS.values()) | {
        "oracle.coalitions", "fl.train_s", "unattributed_s"
    })
)


# --------------------------------------------------------------------------- #
# Wrapping the layers
# --------------------------------------------------------------------------- #
def wrap(tracer: Tracer, name: str, function: Callable, hit: Optional[Callable] = None,
         size: Optional[Callable] = None) -> Callable:
    """``function`` inside a span named ``name``; ``hit``/``size`` read the call."""
    @functools.wraps(function)
    def traced(*args, **kwargs):
        record = tracer.begin(name)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.end(record)
        if hit is not None:
            record[HIT] = hit(args, result)
        if size is not None:
            record[SIZE] = size(args, result)
        return result

    return traced


def _wrap_iter_run(tracer: Tracer, function: Callable) -> Callable:
    """Each ``next()`` on the snapshot generator is one estimator chunk."""

    @functools.wraps(function)
    def traced(*args, **kwargs):
        generator = function(*args, **kwargs)
        while True:
            record = tracer.begin("core.chunk")
            try:
                snapshot = next(generator)
            except StopIteration:
                tracer.end(record)
                return
            tracer.end(record)
            yield snapshot

    return traced


class Installation:
    """The patches :func:`install` made, so :meth:`remove` can undo them."""

    def __init__(self) -> None:
        self._patches: List[Tuple[object, str, object]] = []

    def patch(self, owner: object, attribute: str, replacement: object) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def remove(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()


def _subclasses(base: type) -> List[type]:
    found = [base]
    for subclass in base.__subclasses__():
        found.extend(_subclasses(subclass))
    return found


def install(tracer: Tracer) -> Installation:
    """Wrap the public entry points of every layer; returns the undo handle."""
    import repro.experiments.pipeline as pipeline
    import repro.fl.server as fl_server
    import repro.fleet.coordinator  # noqa: F401 - registers FleetExecutor
    import repro.service.scheduler as scheduler
    from repro.core.base import ValuationAlgorithm
    from repro.experiments.specs import TaskSpec
    from repro.fl.client import FLClient
    from repro.fl.federation import FederatedTrainer
    from repro.fl.vectorized import VectorizedCoalitionTrainer
    from repro.models.base import Model, ParametricModel
    from repro.parallel.batch_oracle import BatchUtilityOracle
    from repro.parallel.executors import CoalitionExecutor
    from repro.store.base import UtilityStore
    from repro.utils.cache import UtilityCache

    done = Installation()

    def wrap_method(owner, attribute, name, **extra):
        done.patch(owner, attribute, wrap(tracer, name, owner.__dict__[attribute], **extra))

    done.patch(pipeline, "run_plan", wrap(tracer, "pipeline.run", pipeline.run_plan))
    wrap_method(TaskSpec, "build", "pipeline.build")
    done.patch(
        ValuationAlgorithm,
        "iter_run",
        _wrap_iter_run(tracer, ValuationAlgorithm.__dict__["iter_run"]),
    )
    wrap_method(
        BatchUtilityOracle, "evaluate_batch", "oracle.batch",
        size=lambda args, result: len(result),
    )
    for executor in _subclasses(CoalitionExecutor):
        if "map_utilities" in executor.__dict__ and executor is not CoalitionExecutor:
            wrap_method(executor, "map_utilities", "executor.map")

    # A hit is read off the cache's own counter: `utility` returns a float
    # either way, so the result cannot tell a hit from a miss.  Exact for the
    # serial default; under a thread pool another thread's hit can land here.
    original_utility = UtilityCache.__dict__["utility"]

    @functools.wraps(original_utility)
    def cache_utility(self, coalition):
        hits_before = self.stats.hits
        record = tracer.begin("cache.utility")
        try:
            return original_utility(self, coalition)
        finally:
            tracer.end(record)
            record[HIT] = self.stats.hits > hits_before

    done.patch(UtilityCache, "utility", cache_utility)
    wrap_method(UtilityCache, "lookup", "cache.lookup", hit=lambda args, result: result is not None)
    wrap_method(UtilityStore, "get", "store.get", hit=lambda args, result: result is not None)
    wrap_method(UtilityStore, "put", "store.put")
    wrap_method(FederatedTrainer, "utility", "fl.train")
    wrap_method(
        VectorizedCoalitionTrainer, "utilities", "fl.vectorized",
        size=lambda args, result: len(result),
    )
    wrap_method(FLClient, "local_update", "fl.local_update")
    done.patch(fl_server, "fedavg_aggregate", wrap(tracer, "fl.aggregate", fl_server.fedavg_aggregate))
    for model in _subclasses(Model):
        if "evaluate" in model.__dict__ and model is not Model:
            wrap_method(model, "evaluate", "fl.evaluate")
    wrap_method(ParametricModel, "get_parameters", "models.param_copy")
    wrap_method(ParametricModel, "set_parameters", "models.param_copy")
    done.patch(scheduler, "run_job", wrap(tracer, "service.job", scheduler.run_job))
    return done
