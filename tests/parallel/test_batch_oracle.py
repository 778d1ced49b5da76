"""Tests for the batched coalition-evaluation engine (repro.parallel)."""

import os
import re
import threading
import time

import pytest

from repro.parallel import (
    BatchUtilityOracle,
    EXECUTOR_BACKENDS,
    ProcessPoolExecutor,
    SerialExecutor,
    coalition_batch_keys,
    make_executor,
)

from tests.helpers import monotone_game


class CountingGame:
    """Picklable counting evaluator: U(S) = |S| with a call log."""

    def __init__(self):
        self.calls = []

    def __call__(self, coalition):
        self.calls.append(frozenset(coalition))
        return float(len(coalition))


class TestCoalitionBatchKeys:
    def test_dedupes_preserving_first_appearance_order(self):
        keys = coalition_batch_keys([{1, 0}, {2}, [0, 1], (2,), frozenset()])
        assert keys == [frozenset({0, 1}), frozenset({2}), frozenset()]

    def test_empty(self):
        assert coalition_batch_keys([]) == []


class TestMakeExecutor:
    def test_default_serial_for_one_worker(self):
        assert isinstance(make_executor(None, 1), SerialExecutor)

    def test_default_process_for_many_workers(self):
        executor = make_executor(None, 4)
        assert isinstance(executor, ProcessPoolExecutor)
        assert executor.n_workers == 4

    @pytest.mark.parametrize(
        "name", [b for b in EXECUTOR_BACKENDS if b != "fleet"]
    )
    def test_named_backends(self, name):
        assert make_executor(name, 2) is not None

    def test_fleet_needs_explicit_construction(self):
        # The fleet backend is registered but not name-constructible: it
        # needs a queue directory, so the error must say how to get one.
        assert "fleet" in EXECUTOR_BACKENDS
        with pytest.raises(ValueError, match="queue directory"):
            make_executor("fleet", 2)

    def test_fleet_instance_passthrough(self, tmp_path):
        from repro.fleet import FleetExecutor

        executor = FleetExecutor(queue_dir=str(tmp_path / "q"))
        assert make_executor(executor, 2) is executor
        executor.close()

    def test_instance_passthrough(self):
        executor = SerialExecutor()
        assert make_executor(executor, 8) is executor

    def test_performance_doc_lists_exactly_the_registered_backends(self):
        path = os.path.join(
            os.path.dirname(__file__), "..", "..", "docs", "performance.md"
        )
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        matrix = text.split("## Backend matrix", 1)[1].split("\n## ", 1)[0]
        documented = re.findall(r"^\| `([a-z]+)` +\|", matrix, flags=re.MULTILINE)
        assert tuple(documented) == EXECUTOR_BACKENDS

    def test_unknown_backend_raises(self):
        # "thread" was a backend once; saved manifests naming it get this.
        for name in ("gpu", "thread"):
            with pytest.raises(ValueError, match="unknown executor backend"):
                make_executor(name, 2)

    def test_invalid_workers_raise(self):
        with pytest.raises(ValueError):
            make_executor(None, 0)
        with pytest.raises(ValueError):
            ProcessPoolExecutor(0)
        with pytest.raises(ValueError):
            ProcessPoolExecutor(-1)


class TestBatchUtilityOracle:
    def test_single_call_interface(self):
        oracle = BatchUtilityOracle(CountingGame(), n_clients=4)
        assert oracle({0, 1}) == 2.0
        assert oracle.utility({0, 1}) == 2.0  # cached
        assert oracle.evaluations == 1
        assert oracle.cache_hits == 1
        assert oracle.n_clients == 4

    def test_n_clients_inferred_from_evaluator(self):
        game = monotone_game(5)
        oracle = BatchUtilityOracle(game)
        assert oracle.n_clients == 5

    def test_n_clients_unknown_raises(self):
        oracle = BatchUtilityOracle(CountingGame())
        with pytest.raises(AttributeError):
            oracle.n_clients

    def test_batch_dedupes_and_preserves_order(self):
        game = CountingGame()
        oracle = BatchUtilityOracle(game, n_clients=4)
        results = oracle.evaluate_batch([{0}, {1, 2}, [0], frozenset()])
        assert list(results) == [frozenset({0}), frozenset({1, 2}), frozenset()]
        assert results[frozenset({1, 2})] == 2.0
        assert oracle.evaluations == 3  # duplicate {0} trained once

    def test_batch_uses_cache_across_calls(self):
        game = CountingGame()
        oracle = BatchUtilityOracle(game, n_clients=4)
        oracle.evaluate_batch([{0}, {1}])
        oracle.evaluate_batch([{0}, {2}])
        assert oracle.evaluations == 3
        assert oracle.cache_hits == 1

    def test_empty_batch(self):
        oracle = BatchUtilityOracle(CountingGame(), n_clients=2)
        assert oracle.evaluate_batch([]) == {}

    @pytest.mark.parametrize("executor", ["serial", "process", "vectorized"])
    def test_backends_agree(self, executor):
        # A plain game has no FederatedTrainer, so vectorized runs its
        # serial fallback and must agree all the same.
        game = monotone_game(5, seed=3)
        oracle = BatchUtilityOracle(game, n_clients=5, n_workers=3, executor=executor)
        batch = [{0}, {1, 2}, {0, 1, 2, 3, 4}, frozenset(), {4}]
        results = oracle.evaluate_batch(batch)
        for coalition in batch:
            key = frozenset(coalition)
            assert results[key] == game._table[key]

    def test_process_backend_deposits_into_parent_cache(self):
        game = monotone_game(4, seed=1)
        oracle = BatchUtilityOracle(game, n_clients=4, n_workers=2, executor="process")
        oracle.evaluate_batch([{0}, {1}, {0, 1}])
        assert oracle.evaluations == 3
        # Second pass is all hits — nothing crosses a process boundary again.
        oracle.evaluate_batch([{0}, {1}, {0, 1}])
        assert oracle.evaluations == 3
        assert oracle.cache_hits == 3

    def test_set_n_workers_reconfigures(self):
        oracle = BatchUtilityOracle(CountingGame(), n_clients=3)
        assert oracle.n_workers == 1
        oracle.set_n_workers(4)
        assert oracle.n_workers == 4
        assert isinstance(oracle.executor, ProcessPoolExecutor)  # serial upgrades
        oracle.set_n_workers(1)
        assert type(oracle.executor) is SerialExecutor  # and back down
        with pytest.raises(ValueError):
            oracle.set_n_workers(0)

    def test_set_n_workers_preserves_configured_backend(self):
        """Resizing without naming a backend must keep a configured process
        pool a process pool (and keep custom executor instances verbatim)."""
        oracle = BatchUtilityOracle(
            CountingGame(), n_clients=3, n_workers=4, executor="process"
        )
        oracle.set_n_workers(2)
        assert isinstance(oracle.executor, ProcessPoolExecutor)
        assert oracle.executor.n_workers == 2

        class RecordingExecutor(SerialExecutor):
            pass

        custom = RecordingExecutor()
        oracle = BatchUtilityOracle(CountingGame(), n_clients=3, executor=custom)
        oracle.set_n_workers(2)
        assert oracle.executor is custom
        # An explicit backend name still overrides.
        oracle.set_n_workers(3, "process")
        assert isinstance(oracle.executor, ProcessPoolExecutor)

    def test_set_n_workers_keeps_a_vectorized_backend(self):
        oracle = BatchUtilityOracle(CountingGame(), n_clients=3, executor="vectorized")
        vectorized = oracle.executor
        oracle.set_n_workers(4)
        assert oracle.executor is vectorized
        assert oracle.n_workers == 4

    def test_set_n_workers_closes_the_replaced_pool(self):
        oracle = BatchUtilityOracle(
            CountingGame(), n_clients=3, n_workers=2, executor="process"
        )
        oracle.evaluate_batch([{0}, {1}, {2}])
        previous = oracle.executor
        assert previous._pool is not None
        oracle.set_n_workers(3)
        assert oracle.executor is not previous
        assert oracle.executor.n_workers == 3
        assert previous._pool is None
        oracle.close()

    def test_reset_cache(self):
        oracle = BatchUtilityOracle(CountingGame(), n_clients=3)
        oracle.evaluate_batch([{0}, {1}])
        oracle.reset_cache()
        assert oracle.evaluations == 0
        oracle.evaluate_batch([{0}])
        assert oracle.evaluations == 1


class TestProcessPoolExecutor:
    def test_pool_is_reused_across_batches(self):
        executor = ProcessPoolExecutor(2)
        game = monotone_game(4, seed=2)
        try:
            first = executor.map_utilities(game, [frozenset({0}), frozenset({1})])
            pool = executor._pool
            second = executor.map_utilities(game, [frozenset({2}), frozenset({3})])
            assert executor._pool is pool
        finally:
            executor.close()
        assert first == [game._table[frozenset({0})], game._table[frozenset({1})]]
        assert second == [game._table[frozenset({2})], game._table[frozenset({3})]]

    def test_next_batch_after_close_recreates_the_pool(self):
        executor = ProcessPoolExecutor(2)
        game = monotone_game(3, seed=4)
        batch = [frozenset({0}), frozenset({1, 2})]
        before = executor.map_utilities(game, batch)
        executor.close()
        assert executor._pool is None
        try:
            assert executor.map_utilities(game, batch) == before
            assert executor._pool is not None
        finally:
            executor.close()

    def test_a_threaded_process_is_never_forked(self):
        release = threading.Event()
        bystander = threading.Thread(target=release.wait)
        bystander.start()
        executor = ProcessPoolExecutor(2)
        game = monotone_game(3, seed=6)
        batch = [frozenset({0}), frozenset({1, 2})]
        try:
            values = executor.map_utilities(game, batch)
            assert executor._pool._mp_context.get_start_method() != "fork"
        finally:
            release.set()
            bystander.join()
            executor.close()
        assert values == [game._table[c] for c in batch]

    def test_single_coalition_batch_skips_the_pool(self):
        executor = ProcessPoolExecutor(2)
        game = monotone_game(3, seed=5)
        assert executor.map_utilities(game, [frozenset({1})]) == [
            game._table[frozenset({1})]
        ]
        assert executor._pool is None


class TestCoalitionUtilityIsTheOracle:
    def test_subclass_defines_no_forwarders(self):
        from repro.fl import CoalitionUtility

        assert issubclass(CoalitionUtility, BatchUtilityOracle)
        own = {
            name for name, member in vars(CoalitionUtility).items()
            if callable(member) and not name.startswith("__")
        }
        inherited = set(dir(BatchUtilityOracle))
        assert not own & inherited, sorted(own & inherited)

    def test_tracer_patch_points_live_in_the_class_dicts(self):
        # Tracing wraps these by looking each one up in the defining class's
        # __dict__; a subclass override would bypass the wrapper.
        from repro.fl import CoalitionUtility
        from repro.utils.cache import UtilityCache

        assert callable(vars(UtilityCache)["utility"])
        assert callable(vars(UtilityCache)["lookup"])
        assert callable(vars(BatchUtilityOracle)["evaluate_batch"])
        assert "evaluate_batch" not in vars(CoalitionUtility)


class TestConcurrentAccounting:
    def test_hit_miss_accounting_under_concurrent_batches(self):
        """Overlapping batches from many threads never double-train a
        coalition, and hits + misses add up to total lookups."""
        calls = []
        lock = threading.Lock()

        def evaluator(coalition):
            with lock:
                calls.append(frozenset(coalition))
            time.sleep(0.002)  # widen the race window
            return float(len(coalition))

        # Serial: the single-flight cache is what these threads exercise.
        oracle = BatchUtilityOracle(evaluator, n_clients=6, executor="serial")
        batches = [
            [{0}, {1}, {0, 1}, {2}],
            [{1}, {2}, {3}, {0, 1}],
            [{3}, {4}, {0}, {5}],
            [{5}, {4}, {2}, {1}],
        ]
        threads = [
            threading.Thread(target=oracle.evaluate_batch, args=(batch,))
            for batch in batches
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        distinct = {frozenset(c) for batch in batches for c in batch}
        assert len(calls) == len(distinct)  # single-flight: one training each
        assert oracle.evaluations == len(distinct)
        lookups = sum(len(coalition_batch_keys(batch)) for batch in batches)
        assert oracle.cache_hits + oracle.evaluations == lookups


class TestOracleContextManager:
    def test_with_statement_closes_executor_pool(self):
        with BatchUtilityOracle(
            CountingGame(), n_clients=4, n_workers=2, executor="process"
        ) as oracle:
            oracle.evaluate_batch([{0}, {1}, {0, 1}])
            assert oracle.evaluations == 3
        assert oracle.executor._pool is None  # pool released on exit

    def test_exception_inside_with_still_closes(self):
        oracle = BatchUtilityOracle(
            CountingGame(), n_clients=4, n_workers=2, executor="process"
        )
        with pytest.raises(RuntimeError):
            with oracle:
                oracle.evaluate_batch([{0}, {1}])
                raise RuntimeError("boom")
        assert oracle.executor._pool is None

    def test_reusable_after_close(self):
        with BatchUtilityOracle(CountingGame(), n_clients=4) as oracle:
            oracle.utility({0})
        assert oracle.utility({0}) == 1.0  # cache survives; pool re-spawns lazily
