"""Pluggable execution backends for batched coalition evaluation.

A coalition executor maps an evaluator over a list of coalitions and returns
the utilities *in input order*.  Four backends are provided:

* :class:`SerialExecutor` — plain loop; the reference semantics.
* :class:`ProcessPoolExecutor` — concurrent evaluation in worker processes.
  Requires the evaluator to be picklable; buys true CPU parallelism for
  training loops.
* :class:`VectorizedExecutor` — trains the whole batch in lockstep as
  stacked parameter matrices (:mod:`repro.fl.vectorized`) instead of
  parallelising per-coalition loops; no workers at all.  Falls back to the
  serial loop for evaluators the vectorized engine cannot handle (plain
  game functions, non-parametric/CNN models, partial client participation).
* ``FleetExecutor`` (:mod:`repro.fleet.coordinator`, re-exported here) —
  enqueues miss batches onto a durable shared lease queue and blocks on
  results deposited through the persistent utility store, so any number of
  worker *processes or hosts* (``repro worker <queue-dir>``) drain one
  coalition plan.  Needs a queue directory and a disk-backed store, so
  :func:`make_executor` cannot conjure one from the bare name — construct
  it explicitly (or use ``repro run --backend fleet --queue-dir ...``).

All backends are deterministic in *values*: utilities depend only on the
coalition (per-coalition seeds are content-derived, see
:meth:`repro.fl.federation.FederatedTrainer._coalition_seed`), and results are
re-associated with their coalitions by position, so the evaluation order and
worker assignment cannot change what any algorithm computes.  The vectorized
backend additionally replays the serial path seed-for-seed; its equivalence
policy is documented in ``docs/performance.md``.
"""

from __future__ import annotations

import abc
import concurrent.futures
import multiprocessing
import threading
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import Telemetry

Evaluator = Callable[[frozenset], float]

#: registered backend names; all but "fleet" are constructible by
#: :func:`make_executor` from the bare name (fleet needs a queue directory)
EXECUTOR_BACKENDS = ("serial", "process", "vectorized", "fleet")


class CoalitionExecutor(abc.ABC):
    """Maps an evaluator over coalitions, preserving input order.

    Attributes
    ----------
    shares_memory:
        Whether workers see the caller's address space.  A shared-memory
        backend (serial) evaluates through a
        :class:`~repro.utils.cache.UtilityCache` directly; the others must
        have results deposited back into the cache by the parent.
    """

    shares_memory: bool = True

    #: registry name of the backend (``EXECUTOR_BACKENDS`` entry); custom
    #: executors may leave the default
    name: str = "custom"

    #: optional :class:`~repro.telemetry.Telemetry` handle (observational
    #: only; never consulted for values, seeds or ordering)
    telemetry: "Optional[Telemetry]" = None

    @abc.abstractmethod
    def map_utilities(
        self, evaluator: Evaluator, coalitions: Sequence[frozenset]
    ) -> list[float]:
        """Return ``[evaluator(c) for c in coalitions]``, possibly in parallel."""

    def set_telemetry(self, telemetry: "Optional[Telemetry]") -> None:
        """Attach (or detach with ``None``) a telemetry handle.

        The base implementation just stores it; backends that own inner
        engines (vectorized) propagate it further.
        """
        self.telemetry = telemetry

    def bind_store(self, store, namespace) -> None:
        """Receive the oracle's persistent store and namespace.

        The oracle calls this whenever executor or store change.  Most
        backends ignore it (they see deposits through the oracle's cache);
        the fleet backend needs it to ship the store's location to worker
        processes and to read results back.  Observational for everyone
        else — the base implementation is a no-op.
        """

    def close(self) -> None:
        """Release any worker resources (no-op for stateless executors)."""


class SerialExecutor(CoalitionExecutor):
    """Sequential reference backend: a plain loop, no worker overhead."""

    shares_memory = True
    name = "serial"

    def map_utilities(
        self, evaluator: Evaluator, coalitions: Sequence[frozenset]
    ) -> list[float]:
        return [float(evaluator(coalition)) for coalition in coalitions]


def _worker_context():
    """The platform's start method, unless it would fork a threaded process."""
    default = multiprocessing.get_context()
    if default.get_start_method() != "fork" or threading.active_count() == 1:
        return default
    context = multiprocessing.get_context("forkserver")
    # The server imports the package once; each worker forked from it then
    # starts with it loaded instead of paying a fresh import.
    context.set_forkserver_preload(["repro"])
    return context


class ProcessPoolExecutor(CoalitionExecutor):
    """Evaluates coalitions concurrently in a persistent process pool.

    The evaluator (and its closure — datasets, model factory, config) must be
    picklable; lambdas are not.  Side effects performed by the evaluator in
    the workers (counters, caches) stay in the workers — only the returned
    utilities travel back.

    The pool is created lazily on first use and *reused* across
    ``map_utilities`` calls — an algorithm run issues one batch per phase,
    and paying pool startup and evaluator pickling per batch would dwarf the
    work being parallelised.  ``close`` releases the pool; the next call
    transparently recreates it.

    A process running other threads (the service's scheduler, HTTP and
    telemetry threads) starts its workers by ``forkserver``, never ``fork``:
    a forked child can inherit a lock another thread holds.  So a script
    that builds a pool needs an ``if __name__ == "__main__":`` guard.
    """

    shares_memory = False
    name = "process"

    def __init__(self, n_workers: int) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = int(n_workers)
        self._pool = None

    def map_utilities(
        self, evaluator: Evaluator, coalitions: Sequence[frozenset]
    ) -> list[float]:
        if len(coalitions) <= 1 or self.n_workers == 1:
            return SerialExecutor().map_utilities(evaluator, coalitions)
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.n_workers, mp_context=_worker_context()
            )
        try:
            return [float(v) for v in self._pool.map(evaluator, coalitions)]
        except BaseException:
            # A failed batch may leave the pool broken (e.g. an unpicklable
            # evaluator); discard it so the next call starts from a fresh one.
            self.close()
            raise

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class VectorizedExecutor(CoalitionExecutor):
    """Trains whole coalition batches in lockstep on stacked parameters.

    Instead of parallelising B per-coalition training loops across workers,
    the batch is handed to a
    :class:`~repro.fl.vectorized.VectorizedCoalitionTrainer`: one round of
    "B coalitions × FedAvg" becomes a handful of large stacked NumPy ops.
    The trainer is resolved from the evaluator itself (the bound
    ``FederatedTrainer.utility`` method that
    :class:`~repro.fl.utility.CoalitionUtility` uses as its evaluator), so
    the backend is a drop-in choice next to serial/process.

    ``shares_memory`` is ``False``: like the process pool, this backend must
    receive whole *miss* batches through the oracle's partition/deposit
    protocol — routing per-coalition calls through the cache would dissolve
    the very batches it vectorizes over.

    Evaluators the engine cannot vectorize (plain game functions,
    non-parametric or kernel-less models, ``client_fraction < 1``) fall back
    to the serial loop; the reason is kept in :attr:`last_fallback_reason`
    (``strict=True`` raises instead, for tests and benchmarks that must not
    silently measure the fallback).
    """

    shares_memory = False
    name = "vectorized"

    def __init__(
        self,
        chunk_size: int = 64,
        strict: bool = False,
        max_batch_bytes: Optional[int] = None,
    ) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.chunk_size = int(chunk_size)
        self.strict = bool(strict)
        # None auto-detects from available RAM inside the engine; an explicit
        # integer caps each stacked batch's estimated footprint at that size.
        self.max_batch_bytes = max_batch_bytes
        self.last_fallback_reason: Optional[str] = None
        self._trainer_cache: Optional[tuple] = None  # (trainer id, engine)

    @staticmethod
    def _resolve_trainer(evaluator: Evaluator):
        """Find the FederatedTrainer behind an evaluator, or ``None``."""
        from repro.fl.federation import FederatedTrainer

        for candidate in (
            evaluator,
            getattr(evaluator, "__self__", None),
            getattr(evaluator, "trainer", None),
        ):
            if isinstance(candidate, FederatedTrainer):
                return candidate
        return None

    def _engine_for(self, trainer):
        """Cache one vectorized engine per trainer (they are stateless)."""
        from repro.fl.vectorized import VectorizedCoalitionTrainer

        if self._trainer_cache is not None and self._trainer_cache[0] is trainer:
            engine = self._trainer_cache[1]
            engine.set_telemetry(self.telemetry)
            return engine
        engine = VectorizedCoalitionTrainer(
            trainer,
            chunk_size=self.chunk_size,
            max_batch_bytes=self.max_batch_bytes,
            telemetry=self.telemetry,
        )
        self._trainer_cache = (trainer, engine)
        return engine

    def map_utilities(
        self, evaluator: Evaluator, coalitions: Sequence[frozenset]
    ) -> list[float]:
        from repro.fl.vectorized import vectorization_blocker

        trainer = self._resolve_trainer(evaluator)
        if trainer is None:
            reason = (
                "evaluator is not backed by a FederatedTrainer "
                f"({type(evaluator).__name__})"
            )
        else:
            reason = vectorization_blocker(trainer)
        if reason is not None:
            if self.strict:
                raise ValueError(f"vectorized backend cannot engage: {reason}")
            self.last_fallback_reason = reason
            return SerialExecutor().map_utilities(evaluator, coalitions)
        self.last_fallback_reason = None
        return self._engine_for(trainer).utilities(coalitions)


ExecutorLike = Union[str, CoalitionExecutor, None]


def make_executor(executor: ExecutorLike = None, n_workers: int = 1) -> CoalitionExecutor:
    """Resolve an executor spec into a :class:`CoalitionExecutor` instance.

    ``executor`` may be an existing instance (returned unchanged), a backend
    name from :data:`EXECUTOR_BACKENDS`, or ``None`` — which picks
    :class:`SerialExecutor` for ``n_workers <= 1`` and a process pool
    otherwise (the only per-coalition pool; it needs a picklable evaluator).
    """
    if isinstance(executor, CoalitionExecutor):
        return executor
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    if executor is None:
        executor = "serial" if n_workers <= 1 else "process"
    if executor == "serial":
        return SerialExecutor()
    if executor == "process":
        return ProcessPoolExecutor(n_workers)
    if executor == "vectorized":
        # Lockstep training has no workers; n_workers is irrelevant to it.
        return VectorizedExecutor()
    if executor == "fleet":
        raise ValueError(
            "the fleet backend cannot be constructed from its bare name: it "
            "needs a queue directory (and a disk-backed store).  Construct "
            "repro.fleet.FleetExecutor(queue_dir=...) and pass the instance, "
            "or use `repro run --backend fleet --queue-dir DIR --store PATH`"
        )
    raise ValueError(
        f"unknown executor backend {executor!r}; choose from {EXECUTOR_BACKENDS}"
    )


def __getattr__(name: str):
    # FleetExecutor lives in repro.fleet (which imports this module); the
    # lazy re-export keeps `from repro.parallel.executors import
    # FleetExecutor` working without a circular import.
    if name == "FleetExecutor":
        from repro.fleet.coordinator import FleetExecutor

        return FleetExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
