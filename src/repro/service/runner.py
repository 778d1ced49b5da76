"""Execute one service job through the pipeline's anytime driver.

A job runs *exactly* the computation a ``repro run`` cell with the same task
and algorithm would: the estimator comes from
:func:`repro.experiments.pipeline.build_task_algorithm` (same γ, same seed,
same builder registry), the executor from
:func:`~repro.experiments.pipeline.configure_execution`, and the run itself
from :func:`~repro.experiments.pipeline.drive_valuation` — the one driver
that resumes checkpoints, saves each cadence checkpoint before any observer
runs, and counts the trainings an invocation paid.

What the service adds around that driver:

* the job's utility store is wrapped in a
  :class:`~repro.service.ledger.RecordingStore`, so every training written
  to the store lands in the trainings ledger under this job's id;
* the store is re-attached under the job's *tenant* namespace (see
  :func:`~repro.service.models.tenant_namespace`) — the default tenant keeps
  store-key parity with direct CLI runs;
* control flags (cancel / preempt) are polled at every chunk boundary, the
  only place the anytime protocol can stop cleanly.  Preemption saves the
  current chunk with the driver's checkpoint writer before it raises, so
  the resumed attempt continues bitwise-identically;
* stream events and the result file.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.core import parse_stopping_rule
from repro.experiments.pipeline import (
    CHECKPOINTS_DIR,
    ValuationInterrupted,
    build_task_algorithm,
    checkpoint_path,
    configure_execution,
    drive_valuation,
    drop_checkpoint,
    save_checkpoint,
    write_json,
)
from repro.service.ledger import RecordingStore
from repro.service.models import JobRecord
from repro.store.base import UtilityStore

RESULTS_DIR = "results"


class JobPreempted(ValuationInterrupted):
    """Raised from the chunk observer to yield the worker to a higher-priority
    job; the chunk's checkpoint is already on disk when this propagates."""


class JobCancelled(ValuationInterrupted):
    """Raised from the chunk observer when the client cancelled the job."""


@dataclass
class JobOutcome:
    """What one execution attempt of a job produced."""

    status: str  # 'done' | 'preempted' | 'cancelled'
    result: Optional[dict] = None
    fl_trainings: int = 0
    store_hits: int = 0
    first_snapshot_seconds: Optional[float] = None
    chunks: int = 0


def result_path(state_dir: str, job_id: str) -> str:
    return os.path.join(state_dir, RESULTS_DIR, f"{job_id}.json")


def run_job(
    record: JobRecord,
    store: UtilityStore,
    state_dir: str,
    record_training: Callable[[str, str], None],
    control: Callable[[], Tuple[bool, bool]],
    emit: Callable[[dict], None],
    say: Callable[[str], None],
    telemetry=None,
) -> JobOutcome:
    """Run (or resume) one claimed job to its next stopping point.

    ``control()`` returns ``(cancel_requested, preempt_requested)`` and is
    polled once per chunk; ``emit`` receives the job's stream events (the
    ``--json-stream`` schema plus ``job_id``); ``record_training`` is the
    job store's ledger hook.
    """
    spec = record.spec
    task_spec = spec.task_spec()
    job_id = record.job_id
    ckpt = checkpoint_path(state_dir, job_id)
    started = time.perf_counter()
    progress = {"first_snapshot": None, "chunks": 0}

    recording = RecordingStore(store, record_training, job_id)
    utility = task_spec.build(recording)

    def outcome(status: str, fl_trainings: int, result=None) -> JobOutcome:
        return JobOutcome(
            status=status,
            result=result,
            fl_trainings=fl_trainings,
            store_hits=utility.store_hits,
            first_snapshot_seconds=progress["first_snapshot"],
            chunks=progress["chunks"],
        )

    def observe(snapshot) -> None:
        if progress["first_snapshot"] is None:
            progress["first_snapshot"] = time.perf_counter() - started
        progress["chunks"] += 1
        emit(
            {
                "event": "snapshot",
                "job_id": job_id,
                "task": task_spec.label(),
                **snapshot.to_dict(),
            }
        )
        cancel, preempt = control()
        if cancel:
            raise JobCancelled(job_id)
        # Yield the worker only if THIS chunk (possibly off the checkpoint
        # cadence) is on disk to resume from.
        if preempt and spec.checkpoint_every and save_checkpoint(ckpt, snapshot):
            raise JobPreempted(job_id)

    try:
        # Re-namespace under the tenant (a no-op for the default tenant,
        # whose namespace IS the task fingerprint).
        utility.attach_store(recording, record.namespace)
        configure_execution(utility, spec, say, telemetry)
        algorithm = build_task_algorithm(task_spec, spec.algorithm, utility.n_clients)
        try:
            driven = drive_valuation(
                algorithm,
                utility,
                ckpt,
                job_id,
                say,
                parse_stopping_rule(spec.stop_on) if spec.stop_on is not None else None,
                spec.checkpoint_every,
                observe,
            )
        except (JobPreempted, JobCancelled) as interrupt:
            status = "preempted" if isinstance(interrupt, JobPreempted) else "cancelled"
            if status == "cancelled":
                drop_checkpoint(state_dir, job_id)
            emit(
                {
                    "event": status,
                    "job_id": job_id,
                    "task": task_spec.label(),
                    "algorithm": spec.algorithm,
                }
            )
            return outcome(status, interrupt.fl_trainings)

        payload = {
            "job_id": job_id,
            "algorithm": spec.algorithm,
            "task": task_spec.label(),
            "task_fingerprint": record.task_fingerprint,
            "tenant": spec.tenant,
            "namespace": record.namespace,
            "result": driven.result.to_dict(),
            "store_hits": utility.store_hits,
            "fl_trainings": driven.fl_trainings,
        }
        write_json(result_path(state_dir, job_id), payload)
        drop_checkpoint(state_dir, job_id)
        emit({"event": "result", "status": "done", **payload})
        return outcome("done", driven.fl_trainings, payload)
    finally:
        utility.close()


__all__ = [
    "CHECKPOINTS_DIR",
    "JobCancelled",
    "JobOutcome",
    "JobPreempted",
    "RESULTS_DIR",
    "checkpoint_path",
    "drop_checkpoint",
    "result_path",
    "run_job",
]
