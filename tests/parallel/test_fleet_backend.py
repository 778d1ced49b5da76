"""The fleet backend end-to-end: subprocess workers, crashes, the pipeline.

These are the fleet PR's acceptance tests proper: real ``repro worker``
subprocesses drain a real SQLite queue, one gets SIGKILLed mid-batch, and
the run still finishes bitwise-identical to serial with zero duplicated
trainings (the queue ledger's ``COUNT(*) == COUNT(DISTINCT key)``).
"""

import json
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core import IPSS
from repro.experiments.pipeline import ExperimentPlan, run_plan
from repro.experiments.specs import TaskSpec
from repro.fleet import FleetExecutor, LeaseQueue, ModeledCostEvaluator
from repro.parallel import BatchUtilityOracle
from repro.parallel.executors import SerialExecutor
from repro.store import MemoryUtilityStore, open_store

from tests.helpers import FleetHarness

N = 8
SEED = 11


def grid(n=N):
    """A deterministic mixed-size coalition plan (prefixes + pairs)."""
    plan = [frozenset(range(k)) for k in range(1, n + 1)]
    plan += [frozenset({i, (i + 3) % n}) for i in range(n)]
    return plan


class TestFleetWiring:
    def test_worker_backends_are_executor_backends_without_fleet(self, tmp_path):
        from repro.fleet.coordinator import WORKER_BACKENDS
        from repro.parallel import EXECUTOR_BACKENDS

        assert WORKER_BACKENDS == tuple(b for b in EXECUTOR_BACKENDS if b != "fleet")
        with pytest.raises(ValueError, match="unknown worker backend"):
            FleetExecutor(queue_dir=str(tmp_path / "q"), worker_backend="fleet")

    def test_rejects_memory_store(self, tmp_path):
        evaluator = ModeledCostEvaluator(n_clients=4, seed=SEED)
        executor = FleetExecutor(queue_dir=str(tmp_path / "q"))
        oracle = BatchUtilityOracle(
            evaluator,
            executor=executor,
            store=MemoryUtilityStore(),
            store_namespace="ns",
        )
        with pytest.raises(RuntimeError, match="disk-backed"):
            oracle.evaluate_batch([{0, 1}])
        oracle.close()

    def test_requires_a_bound_store(self, tmp_path):
        evaluator = ModeledCostEvaluator(n_clients=4, seed=SEED)
        executor = FleetExecutor(queue_dir=str(tmp_path / "q"))
        oracle = BatchUtilityOracle(evaluator, executor=executor)
        with pytest.raises(RuntimeError, match="persistent"):
            oracle.evaluate_batch([{0, 1}])
        oracle.close()

    def test_batch_sizing_bounds(self, tmp_path):
        executor = FleetExecutor(queue_dir=str(tmp_path / "q"), spawn_workers=4)
        assert executor._batch_size_for(1) == 1
        assert 1 <= executor._batch_size_for(64) <= 32
        executor.close()
        explicit = FleetExecutor(queue_dir=str(tmp_path / "q"), batch_size=5)
        assert executor._batch_size_for(1000) <= 32
        assert explicit._batch_size_for(1000) == 5
        explicit.close()


class TestSubprocessWorkers:
    def test_spawned_workers_bitwise_match_serial(self, tmp_path):
        evaluator = ModeledCostEvaluator(n_clients=N, tau=0.0, seed=SEED)
        store_path = str(tmp_path / "store.sqlite")
        coalitions = grid()

        executor = FleetExecutor(
            queue_dir=str(tmp_path / "q"),
            spawn_workers=2,
            batch_size=3,
            lease_seconds=10.0,
            poll_interval=0.02,
            stall_timeout=120.0,
        )
        with open_store(store_path) as store:
            oracle = BatchUtilityOracle(
                evaluator, executor=executor, store=store, store_namespace="fleet-sp"
            )
            fleet_values = oracle.evaluate_batch(coalitions)
            assert oracle.evaluations == len(coalitions)
            assert oracle.store_hits == 0
            oracle.close()

        serial = SerialExecutor().map_utilities(evaluator, coalitions)
        assert [fleet_values[c] for c in coalitions] == serial  # bitwise

        with LeaseQueue(str(tmp_path / "q")) as queue:
            total, distinct = queue.training_counts()
            assert total == distinct == len(coalitions)
            assert len(queue.workers()) >= 1
            assert queue.active_runs() == []  # close() finished the run

    def test_sigkill_mid_batch_requeues_and_finishes_identically(self, tmp_path):
        # Slow evaluations + short leases: kill the only worker mid-batch,
        # let the lease expire, and the respawned worker must finish the
        # plan bitwise-identical with zero duplicated trainings.
        evaluator = ModeledCostEvaluator(n_clients=N, tau=0.08, seed=SEED)
        store_path = str(tmp_path / "store.sqlite")
        queue_dir = str(tmp_path / "q")
        coalitions = grid()

        executor = FleetExecutor(
            queue_dir=queue_dir,
            spawn_workers=1,
            batch_size=4,
            lease_seconds=1.0,
            poll_interval=0.02,
            stall_timeout=120.0,
        )
        results = {}

        def drain():
            with open_store(store_path) as store:
                oracle = BatchUtilityOracle(
                    evaluator,
                    executor=executor,
                    store=store,
                    store_namespace="fleet-kill",
                )
                results["values"] = oracle.evaluate_batch(coalitions)
                oracle.close()

        thread = threading.Thread(target=drain)
        thread.start()
        try:
            # Wait until the spawned worker holds a lease, then SIGKILL it.
            killed = None
            deadline = time.monotonic() + 60
            with LeaseQueue(queue_dir) as queue:
                while time.monotonic() < deadline:
                    pids = executor.worker_pids()
                    if pids and queue.counts().leased > 0:
                        killed = pids[0]
                        os.kill(killed, signal.SIGKILL)
                        break
                    time.sleep(0.02)
            assert killed is not None, "worker never claimed a batch"
        finally:
            thread.join(timeout=180)
        assert not thread.is_alive()

        serial = SerialExecutor().map_utilities(evaluator, coalitions)
        assert [results["values"][c] for c in coalitions] == serial  # bitwise

        with LeaseQueue(queue_dir) as queue:
            total, distinct = queue.training_counts()
            assert total == distinct  # zero duplicated trainings
            assert queue.depth() == 0  # nothing dangling
        # The killed worker's batch really was re-delivered to a respawn.
        assert executor._respawns >= 1


class TestWarmStore:
    def test_second_pass_trains_nothing(self, tmp_path):
        harness = FleetHarness(tmp_path)
        evaluator = ModeledCostEvaluator(n_clients=N, seed=SEED)
        store_path = harness.fresh_store_path()
        coalitions = grid()
        try:
            for expected_trainings in (len(coalitions), 0):
                executor = harness.executor(batch_size=4)
                with open_store(store_path) as store:
                    oracle = BatchUtilityOracle(
                        evaluator,
                        executor=executor,
                        store=store,
                        store_namespace="fleet-warm",
                    )
                    oracle.evaluate_batch(coalitions)
                    assert oracle.evaluations == expected_trainings
                    oracle.close()
            total, distinct = harness.training_counts()
            assert total == distinct == len(coalitions)
        finally:
            harness.close()


class TestFailurePropagation:
    def test_exhausted_batch_raises_with_the_workers_error(self, tmp_path):
        harness = FleetHarness(tmp_path)
        store_path = harness.fresh_store_path()
        try:
            executor = harness.executor(max_attempts=2)
            with open_store(store_path) as store:
                oracle = BatchUtilityOracle(
                    ExplodingEvaluator(),
                    executor=executor,
                    store=store,
                    store_namespace="fleet-err",
                )
                with pytest.raises(RuntimeError, match="exploded"):
                    oracle.evaluate_batch([{0, 1}, {2}])
                oracle.close()
        finally:
            harness.close()

    def test_stall_without_workers_raises(self, tmp_path):
        evaluator = ModeledCostEvaluator(n_clients=4, seed=SEED)
        executor = FleetExecutor(
            queue_dir=str(tmp_path / "q"),
            spawn_workers=0,
            poll_interval=0.02,
            stall_timeout=0.3,
        )
        with open_store(str(tmp_path / "store.sqlite")) as store:
            oracle = BatchUtilityOracle(
                evaluator, executor=executor, store=store, store_namespace="ns"
            )
            with pytest.raises(RuntimeError, match="stalled"):
                oracle.evaluate_batch([{0, 1}])
            oracle.close()


class ExplodingEvaluator:
    n_clients = 4

    def __call__(self, coalition):
        raise RuntimeError("training exploded")


class TestAlgorithmOnFleet:
    def test_ipss_values_match_serial(self, tmp_path):
        harness = FleetHarness(tmp_path)
        try:
            evaluator = ModeledCostEvaluator(n_clients=N, seed=SEED)
            reference = IPSS(total_rounds=16, seed=SEED).run(
                BatchUtilityOracle(evaluator, n_clients=N), N
            )
            executor = harness.executor(batch_size=4)
            with open_store(harness.fresh_store_path()) as store:
                oracle = BatchUtilityOracle(
                    evaluator,
                    n_clients=N,
                    executor=executor,
                    store=store,
                    store_namespace="fleet-ipss",
                )
                result = IPSS(total_rounds=16, seed=SEED).run(oracle, N)
                oracle.close()
            assert result.values.tolist() == reference.values.tolist()
            total, distinct = harness.training_counts()
            assert total == distinct
        finally:
            harness.close()


def _cell_values(run_dir):
    """The single done cell's value vector from a run directory."""
    results_dir = os.path.join(run_dir, "results")
    (name,) = sorted(os.listdir(results_dir))
    with open(os.path.join(results_dir, name), "r", encoding="utf-8") as handle:
        return np.asarray(json.load(handle)["result"]["values"], dtype=float)


class TestPipelineIntegration:
    def test_run_plan_backend_fleet_matches_serial(self, tmp_path):
        spec = TaskSpec(
            kind="synthetic",
            setup="same-size-same-distribution",
            model="logistic",
            n_clients=3,
            scale="tiny",
            seed=SEED,
        )
        serial_plan = ExperimentPlan(tasks=(spec,), algorithms=("MC-Shapley",))
        serial_report = run_plan(
            serial_plan, str(tmp_path / "run-serial"), store=None
        )

        harness = FleetHarness(tmp_path / "fleet")
        try:
            fleet_plan = ExperimentPlan(
                tasks=(spec,),
                algorithms=("MC-Shapley",),
                backend="fleet",
                queue_dir=harness.queue_dir,
                lease_seconds=10.0,
            )
            fleet_report = run_plan(
                fleet_plan,
                str(tmp_path / "run-fleet"),
                store=harness.fresh_store_path(),
            )
        finally:
            harness.close()

        np.testing.assert_array_equal(
            _cell_values(str(tmp_path / "run-serial")),
            _cell_values(str(tmp_path / "run-fleet")),
        )
        assert fleet_report.fl_trainings == serial_report.fl_trainings
        assert "fleet" in fleet_report.batch_counts

    def test_plan_validation(self, tmp_path):
        spec = TaskSpec(kind="adult", model="logistic", n_clients=3, scale="tiny")
        with pytest.raises(ValueError, match="queue directory"):
            ExperimentPlan(tasks=(spec,), backend="fleet")
        with pytest.raises(ValueError, match="worker backend"):
            ExperimentPlan(
                tasks=(spec,),
                backend="fleet",
                queue_dir=str(tmp_path),
                worker_backend="fleet",
            )
        plan = ExperimentPlan(
            tasks=(spec,), backend="fleet", queue_dir=str(tmp_path)
        )
        with pytest.raises(ValueError, match="persistent"):
            run_plan(plan, str(tmp_path / "run"), store=None)

    def test_fingerprint_ignores_fleet_fields(self, tmp_path):
        spec = TaskSpec(kind="adult", model="logistic", n_clients=3, scale="tiny")
        base = ExperimentPlan(tasks=(spec,), algorithms=("IPSS",))
        fleet = ExperimentPlan(
            tasks=(spec,),
            algorithms=("IPSS",),
            backend="fleet",
            queue_dir=str(tmp_path),
            spawn_workers=4,
            worker_backend="vectorized",
            lease_seconds=5.0,
        )
        assert base.fingerprint() == fleet.fingerprint()

    def test_plan_dict_roundtrip_keeps_fleet_fields(self, tmp_path):
        spec = TaskSpec(kind="adult", model="logistic", n_clients=3, scale="tiny")
        plan = ExperimentPlan(
            tasks=(spec,),
            algorithms=("IPSS",),
            backend="fleet",
            queue_dir=str(tmp_path),
            spawn_workers=2,
            worker_backend="serial",
            lease_seconds=7.5,
        )
        restored = ExperimentPlan.from_dict(plan.to_dict())
        assert restored == plan
