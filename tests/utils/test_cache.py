"""Tests for the coalition-utility cache."""

import pytest

from repro.utils.cache import CacheStats, UtilityCache


def make_counting_evaluator():
    calls = []

    def evaluator(coalition):
        calls.append(coalition)
        return float(len(coalition))

    return evaluator, calls


class TestUtilityCache:
    def test_first_lookup_is_a_miss(self):
        evaluator, calls = make_counting_evaluator()
        cache = UtilityCache(evaluator)
        assert cache.utility({0, 1}) == 2.0
        assert len(calls) == 1
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0

    def test_second_lookup_is_a_hit(self):
        evaluator, calls = make_counting_evaluator()
        cache = UtilityCache(evaluator)
        cache.utility({0, 1})
        cache.utility([1, 0])  # same coalition, different container/order
        assert len(calls) == 1
        assert cache.stats.hits == 1

    def test_evaluations_counts_distinct_coalitions(self):
        evaluator, _ = make_counting_evaluator()
        cache = UtilityCache(evaluator)
        for coalition in [{0}, {1}, {0, 1}, {0}, {1}]:
            cache.utility(coalition)
        assert cache.evaluations == 3

    def test_clear_resets_everything(self):
        evaluator, _ = make_counting_evaluator()
        cache = UtilityCache(evaluator)
        cache.utility({0})
        cache.clear()
        assert len(cache) == 0
        assert cache.evaluations == 0

    def test_hit_rate(self):
        evaluator, _ = make_counting_evaluator()
        cache = UtilityCache(evaluator)
        assert cache.stats.hit_rate == 0.0
        cache.utility({0})
        cache.utility({0})
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_empty_coalition_is_cacheable(self):
        evaluator, calls = make_counting_evaluator()
        cache = UtilityCache(evaluator)
        cache.utility(frozenset())
        cache.utility(set())
        assert len(calls) == 1


class TestLookupStore:
    def test_lookup_counts_hit_when_present(self):
        evaluator, _ = make_counting_evaluator()
        cache = UtilityCache(evaluator)
        assert cache.lookup({0}) is None
        assert cache.stats.hits == 0
        cache.utility({0})
        assert cache.lookup({0}) == 1.0
        assert cache.stats.hits == 1

    def test_store_counts_miss_and_feeds_later_hits(self):
        evaluator, calls = make_counting_evaluator()
        cache = UtilityCache(evaluator)
        cache.store({0, 1}, 0.75)
        assert calls == []  # value came from outside, evaluator untouched
        assert cache.evaluations == 1
        assert cache.utility({0, 1}) == 0.75
        assert cache.stats.hits == 1

    def test_restoring_existing_key_does_not_recount(self):
        """Two overlapping batches depositing the same coalition must not
        inflate the miss counter."""
        evaluator, _ = make_counting_evaluator()
        cache = UtilityCache(evaluator)
        cache.store({0}, 1.0)
        cache.store({1}, 2.0)
        cache.store({1}, 2.0)  # duplicate deposit
        assert len(cache) == 2
        assert cache.evaluations == 2
        assert cache.utility({1}) == 2.0


class TestThreadSafety:
    def test_concurrent_misses_are_single_flight(self):
        import threading
        import time

        calls = []
        lock = threading.Lock()

        def evaluator(coalition):
            with lock:
                calls.append(frozenset(coalition))
            time.sleep(0.005)
            return float(len(coalition))

        cache = UtilityCache(evaluator)
        results = []

        def worker():
            results.append(cache.utility({0, 1}))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(calls) == 1  # one training, seven waiters
        assert results == [2.0] * 8
        assert cache.stats.misses == 1
        assert cache.stats.hits == 7

    def test_failed_evaluation_releases_waiters(self):
        import threading

        attempts = []

        def evaluator(coalition):
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("transient")
            return 1.0

        cache = UtilityCache(evaluator)
        with pytest.raises(RuntimeError):
            cache.utility({0})
        # The in-flight marker was cleaned up: the next call retries fresh.
        assert cache.utility({0}) == 1.0
        assert cache.stats.misses == 1


class TestCacheStats:
    def test_lookups_and_evaluations(self):
        stats = CacheStats(hits=3, misses=2)
        assert stats.lookups == 5
        assert stats.evaluations == 2
        assert stats.hit_rate == pytest.approx(0.6)
