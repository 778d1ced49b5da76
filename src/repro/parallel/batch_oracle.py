"""Batched coalition-utility evaluation.

:class:`BatchUtilityOracle` is the library's batch-oracle protocol in one
class: it is a drop-in utility oracle (``oracle(coalition) -> float`` with
``evaluations`` / ``n_clients``) that additionally accepts whole *sets* of
coalitions at once through :meth:`evaluate_batch`.  A batch is deduplicated,
checked against a concurrency-safe :class:`~repro.utils.cache.UtilityCache`,
and the misses are trained on a pluggable executor (serial, process pool,
vectorized or fleet — see :mod:`repro.parallel.executors`).

Batch-oracle protocol
---------------------
Valuation algorithms probe their oracle for an ``evaluate_batch`` attribute
(via :meth:`repro.core.base.ValuationAlgorithm._batch_utilities`).  An oracle
that provides

``evaluate_batch(coalitions) -> dict[frozenset, float]``

(keys in first-appearance input order) gets handed every pre-enumerated
coalition set in one call and may parallelise freely; a plain callable is fed
the same coalitions one at a time, in the same order — so results are
bitwise-identical either way.  Parallel evaluation is only sound because
per-coalition training seeds are content-derived and collision-resistant
(:meth:`repro.fl.federation.FederatedTrainer._coalition_seed`): no matter
which worker trains a coalition, or in which order, it trains the same model.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.parallel.executors import (
    CoalitionExecutor,
    ExecutorLike,
    ProcessPoolExecutor,
    SerialExecutor,
    make_executor,
)
from repro.store import StoreLike, UtilityStore, resolve_store
from repro.telemetry import SIZE_BUCKETS, Telemetry
from repro.utils.cache import UtilityCache


def coalition_batch_keys(coalitions: Iterable[Iterable[int]]) -> list[frozenset]:
    """Canonicalise a batch: frozenset keys, deduplicated, input order kept."""
    ordered: dict[frozenset, None] = {}
    for coalition in coalitions:
        ordered.setdefault(frozenset(int(c) for c in coalition), None)
    return list(ordered)


class BatchUtilityOracle:
    """Cached, batch-capable, optionally parallel utility oracle ``U(S)``.

    :class:`~repro.fl.utility.CoalitionUtility` is this class with a
    :class:`~repro.fl.federation.FederatedTrainer` as the evaluator.

    Parameters
    ----------
    evaluator:
        Callable mapping a coalition (``frozenset``) to its utility — e.g.
        ``FederatedTrainer.utility`` or any plain game function.  May itself
        be another oracle; its own caching is simply never hit twice for the
        same coalition thanks to this oracle's cache.
    n_clients:
        Number of clients; inferred from ``evaluator.n_clients`` when absent.
    n_workers:
        Concurrency level for cache misses inside a batch.  ``1`` (default)
        keeps evaluation strictly sequential.
    executor:
        Backend name (``"serial"``/``"process"``/``"vectorized"``), an
        existing :class:`~repro.parallel.executors.CoalitionExecutor`, or
        ``None`` to choose from ``n_workers`` (serial for one worker, a
        process pool for more).  Process pools require a
        picklable evaluator; the vectorized backend trains miss batches in
        lockstep on stacked parameters when the evaluator is backed by a
        :class:`~repro.fl.federation.FederatedTrainer` with a
        vectorization-capable model (and falls back to the serial loop
        otherwise — see ``docs/performance.md``).
    store:
        Optional persistent tier beneath the cache: a
        :class:`~repro.store.UtilityStore` instance (caller keeps ownership)
        or a path (opened here, closed by :meth:`close`).  Memory misses
        consult it before training and evaluated utilities are written
        through, so separate processes sharing a store never train the same
        coalition twice.
    store_namespace:
        Content-address namespace (task fingerprint) for this oracle's
        coalitions; required to be collision-free across different tasks.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` handle.  When present,
        batches run inside ``oracle.batch`` spans, batch sizes feed the
        ``executor.batch_size`` histogram, the cache records hit/miss/latency
        metrics, the persistent store records its read/write metrics, and
        process-backend workers emit per-evaluation spans into the run
        journal.  ``None`` (default) disables all of it; telemetry never
        influences values, ordering, seeds or store keys.
    """

    def __init__(
        self,
        evaluator: Callable[[Iterable[int]], float],
        n_clients: Optional[int] = None,
        n_workers: int = 1,
        executor: ExecutorLike = None,
        store: StoreLike = None,
        store_namespace: Optional[str] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if n_clients is None:
            n_clients = getattr(evaluator, "n_clients", None)
        self._n_clients = None if n_clients is None else int(n_clients)
        self._evaluator = evaluator
        self._cache = UtilityCache(evaluator=evaluator)
        self._owns_store = False
        self._telemetry = telemetry
        self._cache.set_telemetry(telemetry)
        # Deterministic accounting (not telemetry): batches dispatched per
        # backend, feeding the CLI report's `accounting` block.
        self._batch_counts: dict[str, int] = {}
        if store is not None or store_namespace is not None:
            self.attach_store(store, store_namespace)
        self.set_n_workers(n_workers, executor)

    # ------------------------------------------------------------------ #
    # Oracle interface (single coalition)
    # ------------------------------------------------------------------ #
    @property
    def n_clients(self) -> int:
        if self._n_clients is None:
            raise AttributeError(
                "n_clients is unknown: pass it to BatchUtilityOracle or expose "
                "it on the evaluator"
            )
        return self._n_clients

    def __call__(self, coalition: Iterable[int]) -> float:
        return self._cache.utility(coalition)

    def utility(self, coalition: Iterable[int]) -> float:
        return self._cache.utility(coalition)

    # ------------------------------------------------------------------ #
    # Batch interface
    # ------------------------------------------------------------------ #
    def evaluate_batch(
        self, coalitions: Iterable[Iterable[int]]
    ) -> dict[frozenset, float]:
        """Evaluate a set of coalitions, training cache misses concurrently.

        Returns ``{coalition: utility}`` with keys in first-appearance input
        order, so callers that fold the results into floating-point sums see
        the same ordering — hence bitwise-identical values — regardless of
        ``n_workers`` or backend.
        """
        keys = coalition_batch_keys(coalitions)
        if not keys:
            return {}
        backend = self._executor.name
        self._batch_counts[backend] = self._batch_counts.get(backend, 0) + 1
        telemetry = self._telemetry
        if telemetry is None:
            return self._evaluate_keys(keys)
        with telemetry.span("oracle.batch", backend=backend, size=len(keys)):
            telemetry.observe("executor.batch_size", len(keys), SIZE_BUCKETS)
            return self._evaluate_keys(keys)

    def _evaluate_keys(self, keys: list[frozenset]) -> dict[frozenset, float]:
        if self._executor.shares_memory:
            # Evaluate straight through the cache: hits are counted, and it
            # is single-flight, so concurrent misses of the same coalition
            # (overlapping batches from the caller's threads) train once.
            values = self._executor.map_utilities(self._cache.utility, keys)
            return dict(zip(keys, values))
        # Partition/deposit protocol (process and vectorized backends):
        # process workers cannot see the cache, and the vectorized backend
        # needs the whole miss batch in one call to train it in lockstep —
        # so split hits from misses here and deposit computed utilities back.
        results: dict[frozenset, float] = {}
        pending: list[frozenset] = []
        for key in keys:
            cached = self._cache.lookup(key)
            if cached is None:
                pending.append(key)
            else:
                results[key] = cached
        if pending:
            evaluator = self._evaluator
            if self._telemetry is not None and self._executor.name == "process":
                # Worker processes cannot reach the tracer, but the journal
                # pickles down to its path — wrap the evaluator so each
                # worker evaluation lands as a `worker.eval` span parented
                # under this batch.  The wrapper returns the evaluator's
                # float unchanged, so values stay bitwise-identical.
                evaluator = self._telemetry.wrap_worker_evaluator(evaluator)
            values = self._executor.map_utilities(evaluator, pending)
            for key, value in zip(pending, values):
                results[key] = self._cache.store(key, value)
        return {key: results[key] for key in keys}

    # ------------------------------------------------------------------ #
    # Configuration
    # ------------------------------------------------------------------ #
    @property
    def n_workers(self) -> int:
        return self._n_workers

    def set_n_workers(self, n_workers: int, executor: ExecutorLike = None) -> None:
        """Reconfigure the concurrency level (and optionally the backend).

        With ``executor=None`` a serial backend or process pool resolves
        from ``n_workers`` as at construction (serial for one worker, a
        process pool for more), while any other executor instance —
        vectorized, fleet, custom — is kept as-is.
        """
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        previous = getattr(self, "_executor", None)
        if executor is None and previous is not None and type(previous) not in (
            SerialExecutor,
            ProcessPoolExecutor,
        ):
            executor = previous  # vectorized, fleet or custom: keep verbatim
        self._n_workers = int(n_workers)
        self._executor = make_executor(executor, self._n_workers)
        self._executor.set_telemetry(self._telemetry)
        # Store-aware backends (fleet) need the persistent tier's identity to
        # ship work to sibling processes; a no-op for everyone else.
        self._executor.bind_store(self._cache.persistent, self._cache.namespace)
        if previous is not None and previous is not self._executor:
            previous.close()  # release any worker pool the old backend held

    @property
    def telemetry(self) -> Optional[Telemetry]:
        return self._telemetry

    def set_telemetry(self, telemetry: Optional[Telemetry]) -> None:
        """Attach (or detach with ``None``) telemetry across the whole stack.

        Propagates to the cache (hit/miss/latency metrics), the active
        executor (vectorized chunk spans) and the attached persistent store
        (read/write metrics); a store attached later picks it up too.
        Purely observational — see the fingerprint-neutrality contract in
        :mod:`repro.telemetry`.
        """
        self._telemetry = telemetry
        self._cache.set_telemetry(telemetry)
        self._executor.set_telemetry(telemetry)
        if self._cache.persistent is not None:
            self._cache.persistent.set_telemetry(telemetry)

    def close(self) -> None:
        """Release worker pools and any store handle this oracle opened.

        The executor re-spawns its pool lazily if the oracle is used again;
        a store that was passed in as a path (and therefore opened — and
        owned — by this oracle) is closed for good.  Stores passed in as
        instances belong to the caller and are left open.
        """
        self._executor.close()
        if self._owns_store and self._cache.persistent is not None:
            self._cache.persistent.close()
            self._cache.attach_store(None)
            self._owns_store = False

    def __enter__(self) -> "BatchUtilityOracle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def executor(self) -> CoalitionExecutor:
        return self._executor

    @property
    def backend(self) -> str:
        """Registry name of the active executor backend (e.g. ``"serial"``)."""
        return self._executor.name

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    @property
    def store(self) -> Optional[UtilityStore]:
        """The persistent tier beneath the cache, if one is attached."""
        return self._cache.persistent

    def attach_store(
        self, store: StoreLike, namespace: Optional[str] = None
    ) -> None:
        """Attach (or detach, with ``None``) a persistent utility store.

        ``store`` may be a :class:`~repro.store.UtilityStore` instance or a
        path; paths are opened here and closed by :meth:`close`.  Any
        previously attached store this oracle owned is closed first.
        """
        if self._owns_store and self._cache.persistent is not None:
            self._cache.persistent.close()
        resolved, owned = resolve_store(store)
        self._owns_store = owned
        self._cache.attach_store(resolved, namespace)
        if resolved is not None and self._telemetry is not None:
            resolved.set_telemetry(self._telemetry)
        if getattr(self, "_executor", None) is not None:
            # Keep store-aware backends (fleet) pointed at the live tier.
            self._executor.bind_store(self._cache.persistent, self._cache.namespace)

    # ------------------------------------------------------------------ #
    # Cost accounting
    # ------------------------------------------------------------------ #
    @property
    def cache(self) -> UtilityCache:
        return self._cache

    @property
    def evaluations(self) -> int:
        """Number of evaluator calls (FL trainings) performed so far."""
        return self._cache.evaluations

    @property
    def cache_hits(self) -> int:
        return self._cache.stats.hits

    @property
    def store_hits(self) -> int:
        """Lookups served by the persistent tier (zero trainings each)."""
        return self._cache.stats.store_hits

    @property
    def batch_counts(self) -> dict[str, int]:
        """Batches dispatched per executor backend since construction.

        Plain deterministic accounting (kept even with telemetry disabled);
        survives :meth:`reset_cache` so a multi-cell run reports totals.
        """
        return dict(self._batch_counts)

    def reset_cache(self) -> None:
        """Drop the in-memory tier (the persistent store, if any, survives)."""
        self._cache.clear()
