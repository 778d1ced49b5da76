"""Coalition-utility cache.

Training an FL model for a coalition is by far the dominant cost of every
valuation algorithm (the paper denotes it τ).  The cache memoises the utility
``U(M_S)`` per coalition so that algorithms which revisit the same coalition
(e.g. MC-SV visits ``S`` and ``S ∪ {i}`` for many ``i``) pay the cost once.

The cache also counts hits, misses and evaluations, which the experiment
harness uses as a hardware-independent cost model (number of FL trainings).

Concurrency
-----------
The cache is safe to share between threads: store and counters are guarded by
a lock, and concurrent first lookups of the *same* coalition are single-flight
(one thread evaluates, the others wait for the result), so a coalition is
never trained twice just because two callers raced on it.

Persistence
-----------
The cache optionally sits on top of a persistent, content-addressed
:class:`~repro.store.UtilityStore` (see :meth:`UtilityCache.attach_store`):
memory misses consult the disk tier before evaluating, and freshly evaluated
values are written through.  A persistent hit costs zero FL trainings and is
counted separately (``stats.store_hits``) — the ``evaluations`` cost model
still reports only genuine evaluator calls, which is what lets a resumed
benchmark campaign report exactly how much training it actually re-paid.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store import UtilityStore
    from repro.telemetry import Telemetry

#: sentinel distinguishing "absent" from a cached value
_MISSING = object()


@dataclass
class CacheStats:
    """Counters describing how a :class:`UtilityCache` was used."""

    hits: int = 0
    misses: int = 0
    store_hits: int = 0

    @property
    def evaluations(self) -> int:
        """Number of evaluator calls actually performed (one per miss).

        Hits served by a persistent store tier (``store_hits``) perform no
        evaluation and are not misses.
        """
        return self.misses

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.store_hits

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without an evaluation (either tier)."""
        if self.lookups == 0:
            return 0.0
        return (self.hits + self.store_hits) / self.lookups


@dataclass
class UtilityCache:
    """Memoises ``coalition -> utility`` lookups around an evaluator callable.

    Parameters
    ----------
    evaluator:
        Callable mapping a coalition (``frozenset`` of client indices) to the
        utility of the FL model trained on that coalition.
    persistent:
        Optional :class:`~repro.store.UtilityStore` disk tier consulted on
        memory misses and written through on evaluation (see
        :meth:`attach_store`).
    namespace:
        Content-address namespace (a task fingerprint) under which this
        cache's coalitions are keyed in the persistent tier.
    """

    evaluator: Callable[[frozenset], float]
    persistent: Optional["UtilityStore"] = None
    namespace: str = "default"
    telemetry: Optional["Telemetry"] = field(default=None, repr=False)
    _store: Dict[frozenset, float] = field(default_factory=dict)
    stats: CacheStats = field(default_factory=CacheStats)
    _lock: threading.RLock = field(default_factory=threading.RLock, repr=False)
    _in_flight: Dict[frozenset, threading.Event] = field(
        default_factory=dict, repr=False
    )

    def attach_store(
        self, persistent: Optional["UtilityStore"], namespace: Optional[str] = None
    ) -> None:
        """Plug a persistent tier beneath the in-memory cache.

        The namespace must fingerprint *everything* that determines the
        utility (task spec, FL config, model, seed) — see
        :func:`repro.experiments.tasks.task_fingerprint` — otherwise two
        different tasks would alias each other's training results.
        """
        with self._lock:
            self.persistent = persistent
            if namespace is not None:
                self.namespace = namespace

    def set_telemetry(self, telemetry: Optional["Telemetry"]) -> None:
        """Attach (or detach with ``None``) the telemetry handle.

        Telemetry observes lookups and evaluation latency only — it never
        influences keys or values, so attaching it cannot change
        what any caller computes (the fingerprint-neutrality contract).
        """
        with self._lock:
            self.telemetry = telemetry

    def _persistent_key(self, key: frozenset) -> str:
        from repro.store.fingerprint import utility_key

        return utility_key(self.namespace, key)

    def _persistent_get(self, key: frozenset) -> Optional[float]:
        if self.persistent is None:
            return None
        return self.persistent.get(self._persistent_key(key))

    def _persistent_put(self, key: frozenset, value: float) -> None:
        if self.persistent is not None:
            self.persistent.put(self._persistent_key(key), value)

    def utility(self, coalition: Iterable[int]) -> float:
        """Return ``U(M_S)``, evaluating and caching on first use.

        Thread-safe and single-flight: when several threads miss on the same
        coalition simultaneously, exactly one evaluates while the others block
        until the value lands in the store.
        """
        key = frozenset(int(c) for c in coalition)
        while True:
            with self._lock:
                cached = self._store.get(key, _MISSING)
                if cached is not _MISSING:
                    self.stats.hits += 1
                    if self.telemetry is not None:
                        self.telemetry.count("cache.hit")
                    return cached
                event = self._in_flight.get(key)
                if event is None:
                    event = threading.Event()
                    self._in_flight[key] = event
                    break  # this thread owns the evaluation
            # Another thread is evaluating this coalition: wait and retry
            # (retry rather than read directly, in case its evaluation failed).
            event.wait()
        try:
            stored = self._persistent_get(key)
            if stored is not None:
                # Disk-tier hit: no evaluation happened, so it is neither a
                # hit (memory) nor a miss (evaluator call) — it has its own
                # counter and is promoted into the memory tier for free.
                with self._lock:
                    self.stats.store_hits += 1
                    if self.telemetry is not None:
                        self.telemetry.count("store.hit")
                    self._insert(key, stored, count_miss=False)
                    del self._in_flight[key]
                event.set()
                return stored
            if self.telemetry is not None:
                if self.persistent is not None:
                    self.telemetry.count("store.miss")
                t0 = time.perf_counter()
                value = float(self.evaluator(key))
                self.telemetry.observe("utility.eval_seconds", time.perf_counter() - t0)
            else:
                value = float(self.evaluator(key))
            # Inside the try: a failing store write (disk full, lock timeout)
            # must still release the in-flight entry, or every later lookup
            # of this coalition would block forever on the unset event.
            self._persistent_put(key, value)
        except BaseException:
            with self._lock:
                del self._in_flight[key]
            event.set()
            raise
        with self._lock:
            self._insert(key, value)
            del self._in_flight[key]
        event.set()
        return value

    def _insert(self, key: frozenset, value: float, count_miss: bool = True) -> None:
        """Record a miss and store the value; caller must hold the lock.

        Re-inserting a key that is already cached (e.g. two overlapping
        process-backend batches both depositing the same coalition) only
        refreshes the value: it must not inflate the miss counter.
        ``count_miss=False`` is the promotion path for values served by the
        persistent tier, which cost no evaluation.
        """
        if count_miss and key not in self._store:
            self.stats.misses += 1
        self._store[key] = value

    def lookup(self, coalition: Iterable[int]) -> Optional[float]:
        """Return the cached utility, counting a hit — or ``None`` if absent.

        The read half of the ``lookup``/``store`` pair used by batch
        evaluators that compute misses externally (e.g. in a process pool).
        """
        key = frozenset(int(c) for c in coalition)
        with self._lock:
            cached = self._store.get(key, _MISSING)
            if cached is not _MISSING:
                self.stats.hits += 1
                if self.telemetry is not None:
                    self.telemetry.count("cache.hit")
                return cached
        stored = self._persistent_get(key)
        if stored is None:
            if self.telemetry is not None and self.persistent is not None:
                self.telemetry.count("store.miss")
            return None
        with self._lock:
            self.stats.store_hits += 1
            if self.telemetry is not None:
                self.telemetry.count("store.hit")
            self._insert(key, stored, count_miss=False)
        return stored

    def store(self, coalition: Iterable[int], value: float) -> float:
        """Insert an externally computed utility, counting it as a miss.

        The write half of the ``lookup``/``store`` pair: a batch evaluator
        that trained the coalition elsewhere (another process, a remote
        worker) deposits the result here so later lookups hit.  The value is
        written through to the persistent tier, so the external training is
        never repeated by any process sharing the store.
        """
        key = frozenset(int(c) for c in coalition)
        self._persistent_put(key, float(value))
        with self._lock:
            self._insert(key, float(value))
        return float(value)

    def clear(self) -> None:
        """Drop the in-memory tier and reset counters.

        The persistent tier is deliberately left untouched: clearing is how
        the experiment runner isolates per-algorithm cost accounting, not a
        request to forget training results (use ``persistent.gc()`` for
        that).  With a store attached, cleared entries therefore reload as
        ``store_hits`` rather than re-evaluations.
        """
        with self._lock:
            self._store.clear()
            self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    @property
    def evaluations(self) -> int:
        """Number of FL trainings performed through this cache.

        Values served by the persistent tier do not count — they cost no
        training.
        """
        return self.stats.evaluations
