"""Event streaming: per-job JSONL logs, heartbeats, and SSE framing.

Every job the service runs appends its lifecycle as JSON lines to
``events/<job_id>.jsonl`` under the state directory — the same event schema
``repro run --json-stream`` prints (pinned by
``tests/data/golden_json_stream_events.json``), plus an additive ``job_id``
field.  ``GET /v1/jobs/<id>/stream`` replays that file and tails it live, so
an HTTP client sees exactly what a terminal client of the CLI would.

:class:`Heartbeat` is the shared "still alive" emitter: both the CLI's
``--json-stream --heartbeat N`` mode and the service's SSE endpoint run one,
so a consumer can distinguish a stalled run from a slow chunk.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Callable, Iterator, List, Optional, TextIO


def format_event(payload: dict) -> str:
    """One wire line for *payload* — compact, key-sorted, newline-terminated.

    Key order is sorted so identical events are byte-identical wherever they
    are rendered (CLI stdout, the job's event log, an SSE frame).
    """
    return json.dumps(payload, sort_keys=True) + "\n"


def sse_frame(payload: dict) -> str:
    """The Server-Sent-Events framing of one event (``data: <json>\\n\\n``)."""
    return "data: " + json.dumps(payload, sort_keys=True) + "\n\n"


class EventWriter:
    """Thread-safe JSON-lines writer over a text stream or an append file.

    The service's runner and heartbeat threads both emit through one writer
    per job; the lock keeps concurrently emitted lines whole.
    """

    def __init__(self, stream: Optional[TextIO] = None, path: Optional[str] = None):
        self._lock = threading.Lock()
        self._stream = stream
        self._path = path
        self._observers: List[Callable[[dict], None]] = []

    def add_observer(self, observer: Callable[[dict], None]) -> None:
        """Also hand every subsequent event to *observer* (after writing it)."""
        with self._lock:
            self._observers.append(observer)

    def emit(self, payload: dict) -> None:
        """Write one event — to the stream, the file, and every observer."""
        line = format_event(payload)
        with self._lock:
            if self._stream is not None:
                self._stream.write(line)
                self._stream.flush()
            if self._path is not None:
                with open(self._path, "a", encoding="utf-8") as handle:
                    handle.write(line)
            observers = list(self._observers)
        for observer in observers:
            observer(payload)


class Heartbeat:
    """Periodic ``{"event": "heartbeat"}`` emitter on a daemon thread.

    Heartbeats only fire while no real event does: every call to
    :meth:`touch` (the writer observers do this) resets the countdown, so a
    stream that is already chatty stays heartbeat-free.  ``elapsed_seconds``
    counts from construction, matching the snapshot events' clock.
    """

    def __init__(
        self,
        emit: Callable[[dict], None],
        interval_seconds: float,
        extra: Optional[dict] = None,
    ):
        if interval_seconds <= 0:
            raise ValueError(f"heartbeat interval must be > 0, got {interval_seconds}")
        self._emit = emit
        self._interval = float(interval_seconds)
        self._extra = dict(extra or {})
        self._started = time.perf_counter()
        self._lock = threading.Lock()
        self._last_event = self._started
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-heartbeat", daemon=True
        )

    def start(self) -> "Heartbeat":
        self._thread.start()
        return self

    def touch(self) -> None:
        """Note a real event: postpone the next heartbeat by one interval."""
        with self._lock:
            self._last_event = time.perf_counter()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=self._interval + 1.0)

    def __enter__(self) -> "Heartbeat":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _run(self) -> None:
        while not self._stop.wait(min(self._interval / 4.0, 0.5)):
            now = time.perf_counter()
            with self._lock:
                due = now - self._last_event >= self._interval
                if due:
                    self._last_event = now
            if due:
                payload = {
                    "event": "heartbeat",
                    "elapsed_seconds": now - self._started,
                }
                payload.update(self._extra)
                self._emit(payload)


def read_events(path: str) -> List[dict]:
    """All events currently in a job's JSONL log (missing file → empty)."""
    if not os.path.exists(path):
        return []
    events: List[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def follow_events(
    path: str,
    done: Callable[[], bool],
    poll_seconds: float = 0.1,
) -> Iterator[dict]:
    """Replay a job's event log, then tail it until *done* reports True.

    Yields each event dict exactly once, in file order.  After *done* turns
    true one final read drains any events that raced the last poll.  Only
    newline-terminated lines are parsed: a line the writer is still
    appending stays behind ``offset`` until a later poll sees it whole.
    """
    offset = 0
    while True:
        finished = done()
        if os.path.exists(path):
            with open(path, "rb") as handle:
                handle.seek(offset)
                chunk = handle.read()
            complete = chunk.rfind(b"\n") + 1
            offset += complete
            for line in chunk[:complete].splitlines():
                line = line.strip()
                if line:
                    yield json.loads(line)
        if finished:
            return
        time.sleep(poll_seconds)


__all__ = [
    "EventWriter",
    "Heartbeat",
    "follow_events",
    "format_event",
    "read_events",
    "sse_frame",
]
