"""Record the IPSS value digests ``run.py`` checks, one per shipped seed.

    python3 perfbench/record_references.py [FIRST_SEED LAST_SEED]

Runs one cold job of ``ipss-fl-n250`` and ``ipss-game-n500`` per seed
(default seeds 0-39), and values the first cold request of each
``service-n10-closed2`` load client with ``run_plan`` (the ``repro run``
path, so a service job is checked against a computation that bypasses the
service).  Writes ``references.json``: the sha256 of each value vector's
float64 bytes, keyed by seed (service: by the client's task seed).  A later run whose values differ in any bit
fails its check.  Re-record only when a change is meant to alter the values,
and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads as w  # noqa: E402


def main(argv: list) -> int:
    first, last = (int(argv[0]), int(argv[1])) if argv else (0, 39)
    references = w.load_references()
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="refs-", dir=OUT_DIR)
    try:
        for seed in range(first, last + 1):
            fl_dir = os.path.join(scratch, f"fl-{seed}")
            fl = w.fl_job_runner(seed, fl_dir)("cold", 0)
            game = w.game_job_runner(seed)("cold", 0)
            for workload, job in (("ipss-fl-n250", fl), ("ipss-game-n500", game)):
                if job.problems:
                    raise RuntimeError(f"{workload} seed {seed}: {job.problems}")
                references.setdefault(workload, {})[str(seed)] = w.values_digest(job.values)
            for index in range(w.SERVICE_LOAD_CLIENTS):
                task_seed = w.client_task_seed(seed, index)
                values = w.direct_service_values(task_seed, os.path.join(scratch, f"svc-{task_seed}"))
                references.setdefault("service-n10-closed2", {})[str(task_seed)] = w.values_digest(values)
            print(f"seed {seed}: recorded", flush=True)
            with open(w.REFERENCES_PATH, "w", encoding="utf-8") as handle:
                json.dump(references, handle, indent=1, sort_keys=True)
                handle.write("\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
