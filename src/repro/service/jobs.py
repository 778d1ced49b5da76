"""The service's durable job queue: one WAL-SQLite file of job rows.

Same concurrency idioms as the fleet's :class:`~repro.fleet.queue.LeaseQueue`
(one connection behind a process lock, ``BEGIN IMMEDIATE`` transactions,
bounded busy retry) but a different protocol: jobs are *claimed by in-process
scheduler workers*, not leased to remote processes, so there are no lease
deadlines — a crashed server leaves rows in ``running`` and
:meth:`JobStore.recover` requeues them on restart (their checkpoints carry
the actual progress).

Scheduling order inside :meth:`claim` is three-keyed:

1. **priority** — higher first (the preemption satellite's other half);
2. **tenant fairness** — among equal priorities, the tenant with the fewest
   running jobs goes first, so one chatty tenant cannot starve the rest;
3. **FIFO** — submission order (``seq``) breaks the remaining ties.

A claim also never picks a job whose store namespace is already running
(*store affinity*): two concurrent submits of the same (tenant, task) would
otherwise each miss the shared store's cold cache and train the same
coalitions twice.  Serialised, the second becomes a warm re-run.  The
``trainings`` ledger — one plain-INSERT row per actual training, exactly the
fleet's idiom — is how tests assert that invariant:
``COUNT(*) == COUNT(DISTINCT key)``.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.service.models import JobRecord, JobSpec
from repro.store.sqlite import run_with_busy_retry

JOBS_FILENAME = "jobs.sqlite"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    seq               INTEGER PRIMARY KEY AUTOINCREMENT,
    job_id            TEXT NOT NULL UNIQUE,
    tenant            TEXT NOT NULL,
    priority          INTEGER NOT NULL DEFAULT 0,
    status            TEXT NOT NULL DEFAULT 'queued',
    spec              TEXT NOT NULL,
    namespace         TEXT NOT NULL,
    task_fingerprint  TEXT NOT NULL,
    algorithm         TEXT NOT NULL,
    submitted_at      REAL NOT NULL,
    queued_at         REAL NOT NULL,
    started_at        REAL,
    finished_at       REAL,
    attempts          INTEGER NOT NULL DEFAULT 0,
    preemptions       INTEGER NOT NULL DEFAULT 0,
    worker            TEXT,
    error             TEXT,
    result            TEXT,
    fl_trainings      INTEGER NOT NULL DEFAULT 0,
    store_hits        INTEGER NOT NULL DEFAULT 0,
    cancel_requested  INTEGER NOT NULL DEFAULT 0,
    preempt_requested INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS idx_jobs_status ON jobs (status, priority DESC, seq);
CREATE INDEX IF NOT EXISTS idx_jobs_tenant ON jobs (tenant, seq);
CREATE TABLE IF NOT EXISTS trainings (
    key         TEXT NOT NULL,
    job_id      TEXT NOT NULL,
    recorded_at REAL NOT NULL
);
"""

_RECORD_COLUMNS = (
    "job_id, tenant, priority, status, spec, namespace, task_fingerprint, "
    "submitted_at, started_at, finished_at, attempts, preemptions, worker, "
    "error, result, fl_trainings, store_hits"
)


def _record_from_row(row: tuple) -> JobRecord:
    (
        job_id,
        _tenant,
        _priority,
        status,
        spec_json,
        namespace,
        task_fingerprint,
        submitted_at,
        started_at,
        finished_at,
        attempts,
        preemptions,
        worker,
        error,
        result_json,
        fl_trainings,
        store_hits,
    ) = row
    return JobRecord(
        job_id=job_id,
        spec=JobSpec.from_stored(json.loads(spec_json)),
        status=status,
        namespace=namespace,
        task_fingerprint=task_fingerprint,
        submitted_at=float(submitted_at),
        started_at=None if started_at is None else float(started_at),
        finished_at=None if finished_at is None else float(finished_at),
        attempts=int(attempts),
        preemptions=int(preemptions),
        worker=worker,
        error=error,
        result=None if result_json is None else json.loads(result_json),
        fl_trainings=int(fl_trainings),
        store_hits=int(store_hits),
    )


class JobStore:
    """Thread- and process-safe handle on one service state directory's jobs."""

    def __init__(self, state_dir: str, timeout: float = 10.0) -> None:
        self.state_dir = str(state_dir)
        os.makedirs(self.state_dir, exist_ok=True)
        self.path = os.path.join(self.state_dir, JOBS_FILENAME)
        self._lock = threading.RLock()
        # isolation_level=None: explicit BEGIN IMMEDIATE below, exactly as in
        # fleet/queue.py — implicit transactions would defer lock acquisition
        # and turn claims into lost-update races.
        self._connection = sqlite3.connect(
            self.path, timeout=timeout, check_same_thread=False, isolation_level=None
        )
        self._connection.execute("PRAGMA journal_mode=WAL")
        self._connection.execute("PRAGMA synchronous=NORMAL")
        self._connection.execute(f"PRAGMA busy_timeout={int(timeout * 1000)}")
        run_with_busy_retry(lambda: self._connection.executescript(_SCHEMA))

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _now(self) -> float:
        # Submission order and wait times are wall-clock *queue bookkeeping*:
        # they decide scheduling and what /metrics reports, never any value.
        return time.time()  # repro: allow[RPR002] reason=job timestamps are queue telemetry, not identity

    def _transaction(self, operation):
        """Run ``operation(connection)`` inside BEGIN IMMEDIATE, with retry."""

        def attempt():
            with self._lock:
                self._connection.execute("BEGIN IMMEDIATE")
                try:
                    result = operation(self._connection)
                    self._connection.execute("COMMIT")
                    return result
                except BaseException:
                    self._connection.execute("ROLLBACK")
                    raise

        return run_with_busy_retry(attempt)

    def _query(self, sql: str, params: tuple = ()) -> List[tuple]:
        def attempt():
            with self._lock:
                return self._connection.execute(sql, params).fetchall()

        return run_with_busy_retry(attempt)

    # ------------------------------------------------------------------ #
    # Submit / inspect
    # ------------------------------------------------------------------ #
    def submit(self, spec: JobSpec) -> JobRecord:
        """Durably enqueue one job; returns its record (status ``queued``).

        The job id derives from the row's transaction-assigned sequence
        number — unique across concurrent submitters without any randomness
        (RPR001: nothing about a job's identity may depend on entropy).
        """
        now = self._now()
        spec_json = json.dumps(spec.to_dict(), sort_keys=True)
        namespace = spec.namespace()
        task_fingerprint = spec.task_fingerprint()

        def op(connection) -> str:
            cursor = connection.execute(
                "INSERT INTO jobs (job_id, tenant, priority, status, spec, "
                "namespace, task_fingerprint, algorithm, submitted_at, queued_at) "
                "VALUES ('pending', ?, ?, 'queued', ?, ?, ?, ?, ?, ?)",
                (
                    spec.tenant,
                    int(spec.priority),
                    spec_json,
                    namespace,
                    task_fingerprint,
                    spec.algorithm,
                    now,
                    now,
                ),
            )
            job_id = f"job-{cursor.lastrowid:06d}"
            connection.execute(
                "UPDATE jobs SET job_id = ? WHERE seq = ?", (job_id, cursor.lastrowid)
            )
            return job_id

        job_id = self._transaction(op)
        return JobRecord(
            job_id=job_id,
            spec=spec,
            status="queued",
            namespace=namespace,
            task_fingerprint=task_fingerprint,
            submitted_at=now,
        )

    def get(self, job_id: str) -> Optional[JobRecord]:
        rows = self._query(
            f"SELECT {_RECORD_COLUMNS} FROM jobs WHERE job_id = ?", (job_id,)
        )
        return _record_from_row(rows[0]) if rows else None

    def list_jobs(
        self,
        tenant: Optional[str] = None,
        status: Optional[str] = None,
        limit: int = 200,
    ) -> List[JobRecord]:
        sql = f"SELECT {_RECORD_COLUMNS} FROM jobs"
        clauses, params = [], []
        if tenant is not None:
            clauses.append("tenant = ?")
            params.append(tenant)
        if status is not None:
            clauses.append("status = ?")
            params.append(status)
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY seq DESC LIMIT ?"
        params.append(int(limit))
        return [_record_from_row(row) for row in self._query(sql, tuple(params))]

    def counts(self) -> Dict[str, int]:
        """``{status: count}`` over all jobs (the queue-depth/running gauges)."""
        return {
            status: int(n)
            for status, n in self._query(
                "SELECT status, COUNT(*) FROM jobs GROUP BY status"
            )
        }

    # ------------------------------------------------------------------ #
    # Scheduling transitions
    # ------------------------------------------------------------------ #
    def claim(self, worker: str) -> Optional[Tuple[JobRecord, float]]:
        """Atomically claim the next runnable job for *worker*.

        Returns ``(record, queue_wait_seconds)`` with the record already in
        ``running``, or ``None`` when nothing is runnable.  Order: priority,
        then tenant fairness, then FIFO — skipping any job whose store
        namespace is already running (see the module docstring).
        """
        now = self._now()

        def op(connection) -> Optional[Tuple[str, float]]:
            busy = {
                row[0]
                for row in connection.execute(
                    "SELECT namespace FROM jobs WHERE status = 'running'"
                )
            }
            running_by_tenant: Dict[str, int] = {}
            for tenant, n in connection.execute(
                "SELECT tenant, COUNT(*) FROM jobs WHERE status = 'running' "
                "GROUP BY tenant"
            ):
                running_by_tenant[tenant] = int(n)
            candidates = connection.execute(
                "SELECT seq, job_id, tenant, priority, queued_at, namespace "
                "FROM jobs WHERE status = 'queued' ORDER BY priority DESC, seq"
            ).fetchall()
            chosen = None  # (fairness_key, seq, job_id, queued_at)
            chosen_priority = 0
            for seq, job_id, tenant, priority, queued_at, namespace in candidates:
                if chosen is not None and priority < chosen_priority:
                    break  # candidates are priority-sorted; no better one left
                if namespace in busy:
                    continue  # store affinity: that namespace is running
                key = (running_by_tenant.get(tenant, 0), seq)
                if chosen is None or key < chosen[0]:
                    chosen = (key, seq, job_id, queued_at)
                    chosen_priority = priority
            if chosen is None:
                return None
            _key, seq, job_id, queued_at = chosen
            connection.execute(
                "UPDATE jobs SET status = 'running', worker = ?, started_at = ?, "
                "attempts = attempts + 1, preempt_requested = 0 WHERE seq = ?",
                (worker, now, seq),
            )
            return job_id, max(now - float(queued_at), 0.0)

        claimed = self._transaction(op)
        if claimed is None:
            return None
        job_id, wait = claimed
        record = self.get(job_id)
        if record is None:  # pragma: no cover - the row was just written
            return None
        return record, wait

    def finish(
        self,
        job_id: str,
        worker: str,
        result: dict,
        fl_trainings: int = 0,
        store_hits: int = 0,
    ) -> bool:
        """``running → done``; ``False`` if the job is no longer this worker's."""
        now = self._now()
        result_json = json.dumps(result, sort_keys=True)

        def op(connection) -> bool:
            cursor = connection.execute(
                "UPDATE jobs SET status = 'done', finished_at = ?, result = ?, "
                "fl_trainings = fl_trainings + ?, store_hits = store_hits + ?, "
                "error = NULL WHERE job_id = ? AND worker = ? AND status = 'running'",
                (now, result_json, int(fl_trainings), int(store_hits), job_id, worker),
            )
            return cursor.rowcount > 0

        return self._transaction(op)

    def fail(self, job_id: str, worker: str, error: str) -> bool:
        """``running → failed`` with the error message recorded."""
        now = self._now()

        def op(connection) -> bool:
            cursor = connection.execute(
                "UPDATE jobs SET status = 'failed', finished_at = ?, error = ? "
                "WHERE job_id = ? AND worker = ? AND status = 'running'",
                (now, str(error)[:1000], job_id, worker),
            )
            return cursor.rowcount > 0

        return self._transaction(op)

    def requeue(
        self,
        job_id: str,
        worker: str,
        preempted: bool,
        fl_trainings: int = 0,
        store_hits: int = 0,
    ) -> bool:
        """``running → queued`` (graceful preemption); progress is on disk."""
        now = self._now()

        def op(connection) -> bool:
            cursor = connection.execute(
                "UPDATE jobs SET status = 'queued', worker = NULL, queued_at = ?, "
                "preemptions = preemptions + ?, preempt_requested = 0, "
                "fl_trainings = fl_trainings + ?, store_hits = store_hits + ? "
                "WHERE job_id = ? AND worker = ? AND status = 'running'",
                (
                    now,
                    1 if preempted else 0,
                    int(fl_trainings),
                    int(store_hits),
                    job_id,
                    worker,
                ),
            )
            return cursor.rowcount > 0

        return self._transaction(op)

    def mark_cancelled(self, job_id: str, worker: str) -> bool:
        """``running → cancelled`` after the runner honoured a cancel request."""
        now = self._now()

        def op(connection) -> bool:
            cursor = connection.execute(
                "UPDATE jobs SET status = 'cancelled', finished_at = ?, "
                "worker = NULL WHERE job_id = ? AND worker = ? "
                "AND status = 'running'",
                (now, job_id, worker),
            )
            return cursor.rowcount > 0

        return self._transaction(op)

    # ------------------------------------------------------------------ #
    # Client-driven transitions
    # ------------------------------------------------------------------ #
    def cancel(self, job_id: str) -> Optional[str]:
        """Cancel a job; returns its resulting status, or ``None`` if unknown.

        A queued job is cancelled immediately (its queue slot frees in the
        same transaction).  A running job gets ``cancel_requested`` set and
        transitions once its runner reaches the next chunk boundary.
        Terminal jobs are left as they are.
        """
        now = self._now()

        def op(connection) -> Optional[str]:
            row = connection.execute(
                "SELECT status FROM jobs WHERE job_id = ?", (job_id,)
            ).fetchone()
            if row is None:
                return None
            status = row[0]
            if status == "queued":
                connection.execute(
                    "UPDATE jobs SET status = 'cancelled', finished_at = ? "
                    "WHERE job_id = ? AND status = 'queued'",
                    (now, job_id),
                )
                return "cancelled"
            if status == "running":
                connection.execute(
                    "UPDATE jobs SET cancel_requested = 1 WHERE job_id = ?",
                    (job_id,),
                )
                return "cancelling"
            return status

        return self._transaction(op)

    def request_preempt(self, job_id: str) -> bool:
        """Ask a running job to checkpoint and yield at its next chunk."""

        def op(connection) -> bool:
            cursor = connection.execute(
                "UPDATE jobs SET preempt_requested = 1 "
                "WHERE job_id = ? AND status = 'running'",
                (job_id,),
            )
            return cursor.rowcount > 0

        return self._transaction(op)

    def control_flags(self, job_id: str) -> Tuple[bool, bool]:
        """``(cancel_requested, preempt_requested)`` — polled per chunk."""
        rows = self._query(
            "SELECT cancel_requested, preempt_requested FROM jobs WHERE job_id = ?",
            (job_id,),
        )
        if not rows:
            return False, False
        return bool(rows[0][0]), bool(rows[0][1])

    # ------------------------------------------------------------------ #
    # Crash recovery
    # ------------------------------------------------------------------ #
    def recover(self) -> List[str]:
        """Requeue every job a dead server left in ``running``.

        Called once at startup, before any scheduler worker claims.  Jobs
        with a pending cancel request are cancelled instead of requeued.
        Returns the requeued job ids (the recovery counter's increment).
        """
        now = self._now()

        def op(connection) -> List[str]:
            connection.execute(
                "UPDATE jobs SET status = 'cancelled', finished_at = ?, "
                "worker = NULL WHERE status = 'running' AND cancel_requested = 1",
                (now,),
            )
            rows = connection.execute(
                "SELECT job_id FROM jobs WHERE status = 'running'"
            ).fetchall()
            connection.execute(
                "UPDATE jobs SET status = 'queued', worker = NULL, queued_at = ?, "
                "preempt_requested = 0 WHERE status = 'running'",
                (now,),
            )
            return [row[0] for row in rows]

        return self._transaction(op)

    # ------------------------------------------------------------------ #
    # Trainings ledger
    # ------------------------------------------------------------------ #
    def record_training(self, key: str, job_id: str) -> None:
        """Record one *deposited* training (call only after the store put).

        Deliberately a plain INSERT, exactly like the fleet ledger: a
        duplicated training must show up as a duplicate row, not be papered
        over by a unique constraint.
        """
        now = self._now()
        self._transaction(
            lambda c: c.execute(
                "INSERT INTO trainings (key, job_id, recorded_at) VALUES (?, ?, ?)",
                (key, job_id, now),
            )
        )

    def training_counts(self) -> Tuple[int, int]:
        """``(total, distinct)`` ledger rows; equal ⇔ zero duplicated trainings."""
        rows = self._query("SELECT COUNT(*), COUNT(DISTINCT key) FROM trainings")
        return int(rows[0][0]), int(rows[0][1])

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        with self._lock:
            try:
                self._connection.close()
            except sqlite3.Error:  # pragma: no cover - close is best-effort
                pass

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = ["JOBS_FILENAME", "JobStore"]
