"""Launch ``repro serve`` on an ephemeral port, optionally with layer tracing.

``python3 perfbench/serve.py STATE_DIR [--trace]`` runs the library's own
``serve`` command (default workers, quiet JSON banner).  With ``--trace`` the
layer wrappers of :mod:`tracing` are installed first and every event the
service writes is timestamped; both are written to ``STATE_DIR`` when the
server shuts down on SIGINT.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402

SPANS_FILE = "perfbench-spans.jsonl"
EMITS_FILE = "perfbench-emits.json"


def main(argv: list) -> int:
    state_dir = argv[0]
    tracer = None
    emits: list = []
    if "--trace" in argv:
        from repro.service.stream import EventWriter

        tracer = tracing.Tracer()
        tracing.install(tracer)
        original_emit = EventWriter.emit

        def emit(self, payload):
            original_emit(self, payload)
            emits.append([payload.get("job_id"), payload.get("event"), time.time()])

        EventWriter.emit = emit
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve", state_dir, "--port", "0", "--json"])
    finally:
        if tracer is not None:
            tracing.write_spans(tracer.spans, os.path.join(state_dir, SPANS_FILE))
            with open(os.path.join(state_dir, EMITS_FILE), "w", encoding="utf-8") as handle:
                json.dump(emits, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
