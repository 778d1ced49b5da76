"""Tests for the persistent tier beneath UtilityCache / BatchUtilityOracle."""

import pytest

from repro.parallel import BatchUtilityOracle
from repro.store import MemoryUtilityStore, SqliteUtilityStore, utility_key
from repro.telemetry import BYTES_BUCKETS, Telemetry
from repro.utils.cache import UtilityCache

from tests.helpers import monotone_game


class CountingGame:
    """Tabular game that records every evaluator call."""

    def __init__(self, n_clients=4, seed=0):
        self._game = monotone_game(n_clients, seed=seed)
        self.n_clients = n_clients
        self.calls = []

    def __call__(self, coalition):
        self.calls.append(frozenset(coalition))
        return self._game(coalition)


class TestCacheWriteThrough:
    def test_evaluation_writes_through_to_store(self):
        store = MemoryUtilityStore()
        game = CountingGame()
        cache = UtilityCache(evaluator=game, persistent=store, namespace="t")
        value = cache.utility([0, 1])
        assert store.get(utility_key("t", [0, 1])) == value
        assert cache.stats.misses == 1
        assert cache.stats.store_hits == 0

    def test_store_hit_skips_evaluator_and_is_bitwise_identical(self):
        store = MemoryUtilityStore()
        game = CountingGame()
        first = UtilityCache(evaluator=game, persistent=store, namespace="t")
        fresh_value = first.utility([0, 2])

        exploding = UtilityCache(
            evaluator=lambda s: 1 / 0, persistent=store, namespace="t"
        )
        assert exploding.utility([0, 2]) == fresh_value  # bitwise
        assert exploding.stats.store_hits == 1
        assert exploding.stats.misses == 0
        assert exploding.evaluations == 0

    def test_namespaces_do_not_alias(self):
        store = MemoryUtilityStore()
        game = CountingGame()
        a = UtilityCache(evaluator=game, persistent=store, namespace="taskA")
        b = UtilityCache(evaluator=game, persistent=store, namespace="taskB")
        a.utility([0, 1])
        b.utility([0, 1])
        assert len(game.calls) == 2  # same coalition, different namespace

    def test_hit_accounting_parity_with_memory_only_cache(self):
        """Same access sequence => identical hits+misses split between tiers,
        and identical values, whether or not a store is attached."""
        sequence = [[0], [0, 1], [0], [1, 2], [0, 1], [2], [0]]
        plain = UtilityCache(evaluator=CountingGame())
        tiered = UtilityCache(
            evaluator=CountingGame(), persistent=MemoryUtilityStore(), namespace="t"
        )
        plain_values = [plain.utility(c) for c in sequence]
        tiered_values = [tiered.utility(c) for c in sequence]
        assert plain_values == tiered_values
        assert plain.stats.lookups == tiered.stats.lookups
        assert plain.stats.hits == tiered.stats.hits
        # a cold store adds nothing: misses match exactly
        assert plain.stats.misses == tiered.stats.misses
        assert tiered.stats.store_hits == 0

    def test_clear_preserves_store_so_reload_is_free(self):
        store = MemoryUtilityStore()
        game = CountingGame()
        cache = UtilityCache(evaluator=game, persistent=store, namespace="t")
        cache.utility([0, 1])
        cache.clear()
        cache.utility([0, 1])
        assert len(game.calls) == 1  # reload came from the store
        assert cache.stats.store_hits == 1

    def test_lookup_and_store_consult_persistent_tier(self):
        """The process-backend read/write halves must see the disk tier."""
        store = MemoryUtilityStore()
        cache = UtilityCache(evaluator=lambda s: 1 / 0, persistent=store, namespace="t")
        assert cache.lookup([0, 1]) is None
        store.put(utility_key("t", [0, 1]), 0.625)
        assert cache.lookup([0, 1]) == 0.625
        assert cache.stats.store_hits == 1
        cache.store([2, 3], 0.375)
        assert store.get(utility_key("t", [2, 3])) == 0.375


class TestOracleStorePlumbing:
    def test_reset_cache_then_rerun_trains_nothing(self):
        store = MemoryUtilityStore()
        game = CountingGame()
        oracle = BatchUtilityOracle(game, store=store, store_namespace="t")
        oracle.evaluate_batch([[0], [0, 1], [1, 2]])
        trained = len(game.calls)
        oracle.reset_cache()
        repeat = oracle.evaluate_batch([[0], [0, 1], [1, 2]])
        assert len(game.calls) == trained  # zero new trainings
        assert oracle.evaluations == 0
        assert oracle.store_hits == 3
        assert list(repeat) == [frozenset({0}), frozenset({0, 1}), frozenset({1, 2})]

    def test_process_backend_path_uses_store(self):
        """The lookup/store partition path (shares_memory=False) must serve
        hits from the persistent tier as well."""
        store = MemoryUtilityStore()
        game = CountingGame()
        warm = BatchUtilityOracle(game, store=store, store_namespace="t")
        warm.evaluate_batch([[0, 1], [1, 2]])

        from repro.parallel import CoalitionExecutor

        class NoSharedMemoryExecutor(CoalitionExecutor):
            shares_memory = False
            n_workers = 1

            def map_utilities(self, evaluator, coalitions):
                return [float(evaluator(c)) for c in coalitions]

        cold = BatchUtilityOracle(
            lambda s: 1 / 0,
            n_clients=4,
            executor=NoSharedMemoryExecutor(),
            store=store,
            store_namespace="t",
        )
        results = cold.evaluate_batch([[0, 1], [1, 2]])
        assert len(results) == 2
        assert cold.evaluations == 0

    def test_owned_path_store_closed_on_close(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        oracle = BatchUtilityOracle(
            monotone_game(4), n_clients=4, store=path, store_namespace="t"
        )
        oracle.utility([0, 1])
        handle = oracle.store
        assert isinstance(handle, SqliteUtilityStore)
        oracle.close()
        assert handle.closed
        assert oracle.store is None

    def test_instance_store_left_open_on_close(self):
        store = MemoryUtilityStore()
        oracle = BatchUtilityOracle(
            monotone_game(4), n_clients=4, store=store, store_namespace="t"
        )
        oracle.close()
        assert not store.closed

    def test_context_manager(self):
        with BatchUtilityOracle(monotone_game(4), n_clients=4) as oracle:
            assert oracle.utility([0, 1]) > 0

    def test_attach_store_after_construction(self):
        store = MemoryUtilityStore()
        game = CountingGame()
        oracle = BatchUtilityOracle(game)
        oracle.attach_store(store, "late")
        oracle.utility([0, 1])
        assert store.get(utility_key("late", [0, 1])) is not None


class TestOracleStoreTelemetry:
    """Every oracle hands its telemetry to its store, not only CoalitionUtility."""

    def test_set_telemetry_reaches_attached_store(self, tmp_path):
        store = SqliteUtilityStore(str(tmp_path / "s.sqlite"))
        telemetry = Telemetry.in_memory()
        oracle = BatchUtilityOracle(
            monotone_game(4), n_clients=4, store=store, store_namespace="t"
        )
        oracle.set_telemetry(telemetry)
        oracle.utility([0, 1])
        assert store.telemetry is telemetry
        assert telemetry.metrics.histogram("store.put_bytes", BYTES_BUCKETS).count == 1
        oracle.set_telemetry(None)
        assert store.telemetry is None
        store.close()

    def test_memory_store_receives_telemetry(self):
        store = MemoryUtilityStore()
        telemetry = Telemetry.in_memory()
        oracle = BatchUtilityOracle(
            monotone_game(4), n_clients=4, store=store, store_namespace="t"
        )
        oracle.set_telemetry(telemetry)
        assert store.telemetry is telemetry

    def test_store_attached_later_inherits_telemetry(self):
        telemetry = Telemetry.in_memory()
        oracle = BatchUtilityOracle(monotone_game(4), n_clients=4, telemetry=telemetry)
        store = MemoryUtilityStore()
        oracle.attach_store(store, "late")
        assert store.telemetry is telemetry


class TestCrossProcessSharing:
    def test_second_process_rereads_store(self, tmp_path):
        """Fingerprint keys + a disk store = zero trainings in a new process."""
        import os
        import subprocess
        import sys

        path = str(tmp_path / "shared.sqlite")
        store = SqliteUtilityStore(path)
        game = CountingGame()
        oracle = BatchUtilityOracle(game, store=store, store_namespace="task")
        first = oracle.evaluate_batch([[0], [0, 1]])
        oracle.close()
        store.close()

        script = (
            "import sys;"
            "from repro.parallel import BatchUtilityOracle;"
            f"o = BatchUtilityOracle(lambda s: 1/0, n_clients=4, store={path!r},"
            " store_namespace='task');"
            "r = o.evaluate_batch([[0], [0, 1]]);"
            "assert o.evaluations == 0;"
            "print(repr(sorted(r.values())))"
        )
        src_dir = os.path.abspath(
            os.path.join(os.path.dirname(__file__), "..", "..", "src")
        )
        env = dict(os.environ, PYTHONPATH=src_dir)
        output = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        assert output == repr(sorted(first.values()))  # bitwise across processes


class TestStoreFailureIsolation:
    def test_failing_store_put_releases_in_flight_waiters(self):
        """A store write failure must not leave the coalition's in-flight
        entry behind — later lookups would deadlock on the unset event."""

        class ExplodingStore(MemoryUtilityStore):
            def put(self, key, value):
                raise OSError("disk full")

        game = CountingGame()
        cache = UtilityCache(evaluator=game, persistent=ExplodingStore(), namespace="t")
        with pytest.raises(OSError):
            cache.utility([0, 1])
        assert cache._in_flight == {}  # released, not leaked
        # The same coalition stays evaluable (no deadlock, no stale event).
        cache.attach_store(MemoryUtilityStore())
        assert cache.utility([0, 1]) == game._game([0, 1])

    def test_non_finite_values_are_not_persisted(self):
        """NaN utilities (degenerate training) must neither crash the store
        nor poison it; they simply are not shared."""
        import math

        for store in (
            MemoryUtilityStore(),
            SqliteUtilityStore(":memory:"),
        ):
            cache = UtilityCache(
                evaluator=lambda s: float("nan"), persistent=store, namespace="t"
            )
            assert math.isnan(cache.utility([0]))  # evaluation still works
            assert store.get(utility_key("t", [0])) is None  # nothing persisted
            store.close()
