"""The three benchmark workloads and their correctness checks.

Every workload is a sequence of valuation *jobs* that alternate cold and
warm: a cold job values a federation nobody has valued yet in this run, a
warm job repeats the previous cold job's request, so its utilities come from
the store or cache instead of being recomputed.  All jobs go through public
entry points with default settings (no executor backend is pinned).

* ``ipss-fl-n250`` -- ``run_plan`` (the ``repro run`` path) on a synthetic
  same-size task, MLP, ``tiny`` scale, 250 clients, IPSS with
  gamma = ceil(n ln n) = 1381.  Cold jobs write through a fresh SQLite store;
  warm jobs rerun the plan against that store.
* ``ipss-game-n500`` -- IPSS on 500 clients, gamma = 3108, over a seeded
  closed-form game (:mod:`game`) behind ``BatchUtilityOracle``.  Cold jobs
  use a fresh oracle; warm jobs rerun on the same oracle (all cache hits).
* ``service-n10-closed2`` -- one ``repro serve`` process (default 2
  workers) and two closed-loop clients in this process, each on one HTTP
  connection at a time.  A client submits an IPSS n=10 job, follows its SSE
  stream to ``result``, then submits again: cold jobs use a fresh task seed,
  warm jobs repeat the previous spec.  A service job's ``valuation_s`` is the
  server's run time from its job record; its ``wall_s`` (submit to
  ``result`` received) also carries stream delivery, which the SSE endpoint's
  0.1 s tail poll quantises.  Two cold jobs often run at once in the server,
  so the workload's ``valuation_s`` is the solo time of its cold jobs
  (:func:`stats.solo_time`).
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

import stats
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES_PATH = os.path.join(HERE, "references.json")

FL_CLIENTS = 250
GAME_CLIENTS = 500
SERVICE_CLIENTS = 10
SERVICE_LOAD_CLIENTS = 2
SETUP_REPEATS = 3
#: how long a setup probe or server start may take before the run fails
START_TIMEOUT_S = 60.0


# --------------------------------------------------------------------------- #
# Shared plumbing
# --------------------------------------------------------------------------- #
@dataclass
class Job:
    """One valuation request and what the benchmark saw of it."""

    kind: str  # "cold" or "warm"
    wall_s: float  # as the caller waits for it
    first_snapshot_s: float
    values: Optional[list] = None
    problems: List[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    #: the valuation itself: the caller's wall time for in-process jobs, the
    #: job record's run time (finished_at - started_at) for service jobs
    valuation_s: Optional[float] = None
    #: when the valuation started, on the clock ``valuation_s`` is read from
    run_start: float = 0.0

    def __post_init__(self) -> None:
        if self.valuation_s is None:
            self.valuation_s = self.wall_s

    @property
    def run_interval(self) -> tuple:
        return self.run_start, self.run_start + self.valuation_s


@dataclass
class Outcome:
    """What a workload run hands back to ``run.py``."""

    jobs: List[Job]
    window_s: float
    setup_s: Optional[float] = None
    peak_rss_mb: Optional[float] = None
    problems: List[str] = field(default_factory=list)
    reported: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)


def values_digest(values) -> str:
    """Bitwise identity of a value vector (little-endian float64 bytes)."""
    array = np.asarray(values, dtype="<f8")
    return hashlib.sha256(array.tobytes()).hexdigest()[:32]


def load_references() -> dict:
    with open(REFERENCES_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def own_peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def python_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def probe_setup_s(root: str, workload: str, seed: int) -> float:
    """Median time from spawning a fresh interpreter to a ready-to-value state."""
    timings = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        completed = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed)],
            env=python_env(root),
            capture_output=True,
            text=True,
            timeout=START_TIMEOUT_S,
            check=False,
        )
        elapsed = time.perf_counter() - start
        if completed.returncode != 0 or "ready" not in completed.stdout:
            raise RuntimeError(f"setup probe failed: {completed.stderr.strip()[-500:]}")
        timings.append(elapsed)
    return stats.median(timings)


def run_window(seconds: float, job: Callable[[str, int], Job]) -> tuple:
    """Run cold/warm job pairs until ``seconds`` pass.

    Whole pairs keep the cold and warm counts equal, so a median over all
    jobs never shifts with how many of each kind fit into the window.
    """
    jobs: List[Job] = []
    start = time.perf_counter()
    index = 0
    while index % 2 == 1 or not jobs or time.perf_counter() - start < seconds:
        kind = "cold" if index % 2 == 0 else "warm"
        jobs.append(job(kind, index // 2))
        index += 1
    return jobs, time.perf_counter() - start


def check_reference(workload: str, seed: int, jobs: List[Job]) -> str:
    """Every job's values equal the first job's, and the shipped reference."""
    first = values_digest(jobs[0].values)
    for position, job in enumerate(jobs):
        if values_digest(job.values) != first:
            job.problems.append(f"job {position} values differ from job 0")
    expected = load_references().get(workload, {}).get(str(seed))
    if expected is None:
        return "no shipped reference for this seed (repeat-determinism checked)"
    if expected != first:
        for job in jobs:
            job.problems.append(f"values digest {first} != shipped reference {expected}")
        return "MISMATCH"
    return "matches shipped reference"


# --------------------------------------------------------------------------- #
# ipss-fl-n250
# --------------------------------------------------------------------------- #
def fl_spec(seed: int):
    from repro.experiments.specs import TaskSpec

    return TaskSpec(
        kind="synthetic",
        setup="same-size-same-distribution",
        model="mlp",
        n_clients=FL_CLIENTS,
        scale="tiny",
        seed=int(seed),
    )


def plan_values(run_dir: str) -> list:
    """The values of the single cell a ``run_plan`` call wrote to ``run_dir``."""
    from repro.experiments import pipeline

    results_dir = os.path.join(run_dir, pipeline.RESULTS_DIR)
    (result_file,) = os.listdir(results_dir)
    with open(os.path.join(results_dir, result_file), "r", encoding="utf-8") as handle:
        return json.load(handle)["result"]["values"]


def fl_job_runner(seed: int, scratch: str, tracer: Optional[tracing.Tracer] = None):
    from repro.experiments import pipeline
    from repro.experiments.config import sampling_rounds_for

    spec = fl_spec(seed)
    plan = pipeline.ExperimentPlan(tasks=(spec,), algorithms=("IPSS",), name="perfbench")
    gamma = sampling_rounds_for(FL_CLIENTS)
    counter = {"run": 0, "store": ""}

    def job(kind: str, pair: int) -> Job:
        counter["run"] += 1
        run_dir = os.path.join(scratch, f"run-{counter['run']}")
        if kind == "cold":
            counter["store"] = os.path.join(scratch, f"store-{pair}.sqlite")
        snapshots = {"first": None, "count": 0}
        root = tracer.begin("job") if tracer is not None else None
        start = time.perf_counter()

        def on_snapshot(spec_, algorithm, snapshot) -> None:
            if snapshots["first"] is None:
                snapshots["first"] = time.perf_counter() - start
            snapshots["count"] += 1

        try:
            report = pipeline.run_plan(plan, run_dir, store=counter["store"], on_snapshot=on_snapshot)
        finally:
            if root is not None:
                tracer.end(root)
        wall = time.perf_counter() - start
        values = plan_values(run_dir)
        record = Job(kind, wall, snapshots["first"] or wall, values,
                     extra={"snapshots": snapshots["count"]}, run_start=start)
        served = report.fl_trainings + report.store_hits + report.cache_hits
        if served != gamma:
            record.problems.append(f"{kind} job served {served} coalitions, expected gamma={gamma}")
        if kind == "cold" and report.fl_trainings != gamma:
            record.problems.append(
                f"cold job trained {report.fl_trainings} coalitions for gamma={gamma} "
                "(duplicated or skipped trainings)"
            )
        if kind == "warm" and report.fl_trainings != 0:
            record.problems.append(f"warm job retrained {report.fl_trainings} coalitions")
        shutil.rmtree(run_dir, ignore_errors=True)
        return record

    return job


# --------------------------------------------------------------------------- #
# ipss-game-n500
# --------------------------------------------------------------------------- #
def game_job_runner(seed: int, tracer: Optional[tracing.Tracer] = None):
    from game import HarsanyiGame
    from repro.core import IPSS
    from repro.experiments.config import sampling_rounds_for
    from repro.parallel import BatchUtilityOracle

    game = HarsanyiGame(GAME_CLIENTS, seed)
    exact = game.shapley()
    evaluator = game if tracer is None else tracing.wrap(tracer, "game.eval", game)
    gamma = sampling_rounds_for(GAME_CLIENTS)
    state = {"oracle": None}

    def job(kind: str, pair: int) -> Job:
        root = tracer.begin("job") if tracer is not None else None
        snapshots = {"first": None}
        start = time.perf_counter()

        def on_snapshot(snapshot) -> None:
            if snapshots["first"] is None:
                snapshots["first"] = time.perf_counter() - start

        try:
            if kind == "cold":
                if state["oracle"] is not None:
                    state["oracle"].close()
                state["oracle"] = BatchUtilityOracle(evaluator, n_clients=GAME_CLIENTS)
            oracle = state["oracle"]
            evaluations = oracle.evaluations
            hits = oracle.cache_hits
            result = IPSS(total_rounds=gamma, seed=seed).run(
                oracle, GAME_CLIENTS, on_snapshot=on_snapshot
            )
        finally:
            if root is not None:
                tracer.end(root)
        wall = time.perf_counter() - start
        record = Job(kind, wall, snapshots["first"] or wall, result.values.tolist(),
                     run_start=start)
        trained = oracle.evaluations - evaluations
        served = trained + oracle.cache_hits - hits
        if served != gamma:
            record.problems.append(f"{kind} job served {served} coalitions, expected gamma={gamma}")
        if kind == "warm" and trained != 0:
            record.problems.append(f"warm job re-evaluated {trained} coalitions")
        record.extra["max_abs_err"] = float(np.max(np.abs(result.values - exact)))
        return record

    return job


# --------------------------------------------------------------------------- #
# service-n10-closed2
# --------------------------------------------------------------------------- #
class Server:
    """One ``repro serve`` process on an ephemeral port (started via serve.py)."""

    def __init__(self, root: str, state_dir: str, traced: bool = False) -> None:
        command = [sys.executable, os.path.join(HERE, "serve.py"), state_dir]
        if traced:
            command.append("--trace")
        self.state_dir = state_dir
        os.makedirs(state_dir, exist_ok=True)
        # The server's stderr (request-handler tracebacks) is kept so a failed
        # check can show what the server saw.
        self.log_path = os.path.join(state_dir, "serve.stderr")
        self.started = time.perf_counter()
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.process = subprocess.Popen(
                command,
                env=python_env(root),
                stdout=subprocess.PIPE,
                stderr=log,
                text=True,
            )
        banner = self.process.stdout.readline()
        if not banner:
            self.stop()
            raise RuntimeError("repro serve exited before printing its banner")
        info = json.loads(banner)
        self.host, self.port = info["host"], int(info["port"])
        health = self.request("GET", "/healthz")
        if health.get("status") != "ok":
            self.stop()
            raise RuntimeError(f"repro serve is not healthy: {health}")
        self.ready_s = time.perf_counter() - self.started

    def request(self, method: str, path: str, payload: Optional[dict] = None) -> dict:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=START_TIMEOUT_S)
        try:
            body = None if payload is None else json.dumps(payload)
            headers = {} if payload is None else {"Content-Type": "application/json"}
            connection.request(method, path, body=body, headers=headers)
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def log_tail(self, lines: int = 20) -> List[str]:
        with open(self.log_path, "r", encoding="utf-8", errors="replace") as handle:
            return handle.read().splitlines()[-lines:]

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGINT (graceful shutdown), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


def service_task(seed: int) -> dict:
    return {
        "task": {
            "kind": "synthetic",
            "setup": "same-size-same-distribution",
            "model": "mlp",
            "n_clients": SERVICE_CLIENTS,
            "scale": "tiny",
            "seed": int(seed),
        },
        "algorithm": "IPSS",
    }


def client_task_seed(seed: int, index: int) -> int:
    """Task seed of load client ``index``'s first cold job in a run with ``seed``."""
    return int(seed) * 10_000 + index * 5_000


def direct_service_values(task_seed: int, run_dir: str) -> list:
    """A service job's request valued directly by ``run_plan`` (``repro run``)."""
    from repro.experiments import pipeline
    from repro.experiments.specs import TaskSpec

    request = service_task(task_seed)
    plan = pipeline.ExperimentPlan(
        tasks=(TaskSpec.from_dict(request["task"]),),
        algorithms=(request["algorithm"],),
        name="perfbench",
    )
    pipeline.run_plan(plan, run_dir)
    return plan_values(run_dir)


class LoadClient(threading.Thread):
    """A closed-loop client: submit, follow the SSE stream to ``result``, repeat.

    Cold jobs get a fresh task seed; each is followed by a warm twin that
    repeats its spec.  The client stops (after a warm job) once ``deadline``
    (a perf_counter value) has passed.
    """

    def __init__(self, server: Server, seed: int, index: int, deadline: float) -> None:
        super().__init__(name=f"load-client-{index}", daemon=True)
        self.server = server
        self.base_seed = client_task_seed(seed, index)
        self.deadline = deadline
        self.jobs: List[Job] = []
        self.error: Optional[Exception] = None

    def run(self) -> None:
        try:
            cold = 0
            while True:
                self.jobs.append(self._one_job("cold", self.base_seed + cold))
                self.jobs.append(self._one_job("warm", self.base_seed + cold))
                cold += 1
                if time.perf_counter() >= self.deadline:
                    return
        except Exception as error:  # noqa: BLE001 - reported by the caller as a failure
            self.error = error

    def _one_job(self, kind: str, task_seed: int) -> Job:
        connection = http.client.HTTPConnection(
            self.server.host, self.server.port, timeout=START_TIMEOUT_S
        )
        try:
            start = time.perf_counter()
            connection.request(
                "POST", "/v1/jobs", body=json.dumps(service_task(task_seed)),
                headers={"Content-Type": "application/json"},
            )
            created = json.loads(connection.getresponse().read())
            submit_s = time.perf_counter() - start
            job_id = created["job_id"]
            connection.request("GET", f"/v1/jobs/{job_id}/stream")
            response = connection.getresponse()
            first = None
            received = []
            result_event = None
            while True:
                line = response.readline()
                if not line:
                    break
                if not line.startswith(b"data: "):
                    continue
                event = json.loads(line[len(b"data: "):])
                name = event.get("event")
                received.append((name, time.time()))
                if name == "snapshot" and first is None:
                    first = time.perf_counter() - start
                if name in ("result", "failed", "cancelled"):
                    result_event = event
                    break
            wall = time.perf_counter() - start
            response.close()
            connection.close()
            connection.request("GET", f"/v1/jobs/{job_id}")
            final = json.loads(connection.getresponse().read())
        finally:
            connection.close()
        job = Job(kind, wall, first if first is not None else wall)
        job.extra = {
            "job_id": job_id,
            "submit_s": submit_s,
            "received": received,
            "record": final,
        }
        if result_event is None or result_event.get("event") != "result":
            job.problems.append(f"job {job_id} stream ended without a result event")
        if final.get("status") != "done":
            job.problems.append(f"job {job_id} ended {final.get('status')!r}: {final.get('error')}")
            return job
        job.values = final["result"]["result"]["values"]
        job.run_start = final["started_at"]
        job.valuation_s = final["finished_at"] - final["started_at"]
        served = int(final["fl_trainings"]) + int(final["store_hits"])
        if kind == "warm" and int(final["fl_trainings"]) != 0:
            job.problems.append(f"warm job {job_id} retrained {final['fl_trainings']} coalitions")
        job.extra["served"] = served
        return job


def service_checks(jobs: List[Job], gamma: int, reference: Optional[str]) -> None:
    """Warm jobs equal their cold twins bitwise; every job served gamma coalitions.

    ``reference`` is the shipped digest of the first cold job's values, as
    ``repro run`` computes them (None when this seed ships none).
    """
    if jobs and jobs[0].values is not None and reference is not None:
        if values_digest(jobs[0].values) != reference:
            jobs[0].problems.append(
                f"job {jobs[0].extra['job_id']} values digest {values_digest(jobs[0].values)} "
                f"!= shipped reference {reference}"
            )
    for position in range(0, len(jobs) - 1, 2):
        cold, warm = jobs[position], jobs[position + 1]
        if cold.values is not None and warm.values is not None:
            if values_digest(cold.values) != values_digest(warm.values):
                warm.problems.append(
                    f"warm job {warm.extra['job_id']} values differ from cold twin "
                    f"{cold.extra['job_id']}"
                )
    for job in jobs:
        if "served" in job.extra and job.extra["served"] != gamma:
            job.problems.append(
                f"job {job.extra['job_id']} served {job.extra['served']} coalitions, "
                f"expected gamma={gamma}"
            )


def run_service_load(server: Server, seed: int, seconds: float) -> tuple:
    """Two closed-loop clients against ``server`` for ``seconds``."""
    deadline = time.perf_counter() + seconds
    start = time.perf_counter()
    clients = [LoadClient(server, seed, index, deadline) for index in range(SERVICE_LOAD_CLIENTS)]
    for client in clients:
        client.start()
    for client in clients:
        client.join(timeout=seconds + 120.0)
    window = time.perf_counter() - start
    from repro.experiments.config import sampling_rounds_for

    references = load_references().get("service-n10-closed2", {})
    problems = []
    jobs: List[Job] = []
    for client in clients:
        if client.is_alive():
            problems.append(f"{client.name} did not finish")
        if client.error is not None:
            problems.append(f"{client.name} failed: {type(client.error).__name__}: {client.error}")
        reference = references.get(str(client.base_seed))
        if reference is None:
            print(f"reference: none shipped for task seed {client.base_seed}")
        service_checks(client.jobs, sampling_rounds_for(SERVICE_CLIENTS), reference)
        jobs.extend(client.jobs)
    if problems or any(job.problems for job in jobs):
        for line in server.log_tail():
            print(f"server stderr: {line}")
    return jobs, window, problems


def ledger_problems(state_dir: str) -> List[str]:
    from repro.service.jobs import JobStore

    with JobStore(state_dir) as store:
        total, distinct = store.training_counts()
    if total != distinct:
        return [f"service ledger holds {total - distinct} duplicated trainings"]
    return []


def service_layer_metrics(jobs: List[Job], emits: List[list]) -> dict:
    """``service.*`` per-layer metrics from job records and event timestamps.

    ``emits`` are ``[job_id, event, wall_time]`` rows recorded in the traced
    server when it wrote each event; the client recorded when it received
    each one.  Pairing the n-th event of a kind on both sides gives the
    stream delivery lag.
    """
    emitted: dict = {}
    for job_id, name, wall in emits:
        emitted.setdefault((job_id, name), []).append(wall)
    submit, queue_wait, run, lags = [], [], [], []
    for job in jobs:
        record = job.extra.get("record", {})
        submit.append(job.extra["submit_s"] * 1000.0)
        if record.get("started_at") is not None:
            queue_wait.append((record["started_at"] - record["submitted_at"]) * 1000.0)
        if record.get("finished_at") is not None and record.get("started_at") is not None:
            run.append((record["finished_at"] - record["started_at"]) * 1000.0)
        seen: dict = {}
        for name, wall in job.extra["received"]:
            occurrence = seen.get(name, 0)
            seen[name] = occurrence + 1
            server_side = emitted.get((job.extra["job_id"], name), [])
            if occurrence < len(server_side):
                lags.append((wall - server_side[occurrence]) * 1000.0)

    def mean(samples):
        return float(np.mean(samples)) if samples else 0.0

    return {
        "service.submit_ms": mean(submit),
        "service.queue_wait_ms": mean(queue_wait),
        "service.run_ms": mean(run),
        "service.stream_lag_ms": mean(lags),
    }
