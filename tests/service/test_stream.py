"""``follow_events`` against a writer that is still mid-line.

The reader polls the event log while the writer appends to it, so a poll can
land between the two halves of one event line.  A half-written line must stay
unread until it is whole: no ``JSONDecodeError``, every event exactly once.
"""

import threading

from repro.service.stream import EventWriter, follow_events, format_event


def test_half_written_line_waits_for_the_next_poll(tmp_path):
    path = str(tmp_path / "job.jsonl")
    first, second = {"event": "start", "seq": 0}, {"event": "snapshot", "seq": 1}
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_event(first))
        line = format_event(second)
        handle.write(line[: len(line) // 2])
    polls = []

    def done():
        polls.append(None)
        if len(polls) == 2:
            # Between the first and second poll the writer finishes the line.
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(line[len(line) // 2 :])
        return len(polls) >= 3

    events = follow_events(path, done, poll_seconds=0.0)
    assert next(events) == first
    assert len(polls) == 1  # the torn tail was left for a later poll
    assert list(events) == [second]


def test_concurrent_writer_yields_every_event_once(tmp_path):
    path = str(tmp_path / "job.jsonl")
    count = 200
    padding = "x" * 6000  # ~6 KB lines: several buffer flushes per event
    finished = threading.Event()

    def write():
        writer = EventWriter(path=path)
        for seq in range(count):
            writer.emit({"event": "snapshot", "seq": seq, "pad": padding})
        finished.set()

    thread = threading.Thread(target=write)
    thread.start()
    try:
        seen = [
            event["seq"]
            for event in follow_events(path, finished.is_set, poll_seconds=0.0)
        ]
    finally:
        thread.join()
    assert seen == list(range(count))
