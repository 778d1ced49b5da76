"""Layered valuation benchmark: one command, three workloads, traced layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the library is imported from ``src/``).
Workloads: ``ipss-fl-n250``, ``ipss-game-n500``, ``service-n10-closed2``
(see ``workloads.py`` and ``CATALOG.md`` for what each measures and why;
``BENCHMARK.json`` declares the first and the last).

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
wraps every layer's public entry points (``tracing.py``), keeps the spans in
memory, writes them under ``.perfbench_out/`` at the end, and reports the
per-layer metrics.  Both modes check the outputs: IPSS values are compared
bitwise with the reference shipped for the seed (``references.json``) and
across repeats, every job must serve exactly gamma coalitions, warm jobs must
equal their cold twins, and the service ledger must hold no duplicated
training.  The last stdout line is one JSON object; the exit code is 1 when
any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import machine  # noqa: E402
import serve  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads as w  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".perfbench_out")
CATALOG_PATH = os.path.join(HERE, "catalog.json")
WORKLOADS = ("ipss-fl-n250", "ipss-game-n500", "service-n10-closed2")


def load_catalog() -> dict:
    with open(CATALOG_PATH, "r", encoding="utf-8") as handle:
        return {row["name"]: row for row in json.load(handle)["metrics"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #
def run_fl(args, scratch):
    if not args.trace:
        setup_s = w.probe_setup_s(ROOT, "fl", args.seed)
        jobs, window = w.run_window(args.seconds, w.fl_job_runner(args.seed, scratch))
        return w.Outcome(jobs, window, setup_s=setup_s, peak_rss_mb=w.own_peak_rss_mb())
    baseline = w.fl_job_runner(args.seed, os.path.join(scratch, "untraced"))("cold", 0)
    tracer = tracing.Tracer()
    installed = tracing.install(tracer)
    try:
        jobs, window = w.run_window(args.seconds, w.fl_job_runner(args.seed, scratch, tracer))
    finally:
        installed.remove()
    outcome = w.Outcome([baseline] + jobs, window)
    outcome.per_layer = traced_layers(tracer.spans, jobs, [baseline], args)
    outcome.per_layer["pipeline.snapshots"] = sum(j.extra["snapshots"] for j in jobs) / len(jobs)
    return outcome


def run_game(args, scratch):
    if not args.trace:
        setup_s = w.probe_setup_s(ROOT, "game", args.seed)
        jobs, window = w.run_window(args.seconds, w.game_job_runner(args.seed))
        outcome = w.Outcome(jobs, window, setup_s=setup_s, peak_rss_mb=w.own_peak_rss_mb())
    else:
        baseline = w.game_job_runner(args.seed)("cold", 0)
        tracer = tracing.Tracer()
        installed = tracing.install(tracer)
        try:
            jobs, window = w.run_window(args.seconds, w.game_job_runner(args.seed, tracer))
        finally:
            installed.remove()
        outcome = w.Outcome([baseline] + jobs, window)
        outcome.per_layer = traced_layers(tracer.spans, jobs, [baseline], args)
    outcome.reported["max_abs_err"] = (
        float(np.median([j.extra["max_abs_err"] for j in jobs])), "abs"
    )
    return outcome


def run_service(args, scratch):
    if not args.trace:
        servers = []
        try:
            for attempt in range(w.SETUP_REPEATS):
                if servers:
                    servers[-1].stop()
                servers.append(w.Server(ROOT, os.path.join(scratch, f"state-{attempt}")))
            server = servers[-1]
            jobs, window, problems = w.run_service_load(server, args.seed, args.seconds)
            peak = server.peak_rss_mb()
        finally:
            for server in servers:
                server.stop()
        problems += w.ledger_problems(servers[-1].state_dir)
        outcome = w.Outcome(
            jobs, window,
            setup_s=stats.median([s.ready_s for s in servers]),
            peak_rss_mb=peak,
            problems=problems,
        )
        cold_ms = [j.wall_s * 1000.0 for j in jobs if j.kind == "cold"]
        outcome.reported["cold_job_p50_ms"] = (stats.median(cold_ms), "ms")
        firsts = [j.first_snapshot_s * 1000.0 for j in jobs]
        pct = stats.highest_supported_percentile(len(firsts))
        if pct is not None:
            outcome.reported[f"first_snapshot_p{pct}_ms"] = (stats.percentile(firsts, pct), "ms")
        outcome.reported["first_snapshot_samples"] = (len(firsts), "count")
        return outcome
    # Traced: a third of the window against an untraced server gives the
    # overhead baseline, the rest runs against a traced one.
    untraced_dir = os.path.join(scratch, "state-untraced")
    server = w.Server(ROOT, untraced_dir)
    try:
        baseline_jobs, _, problems = w.run_service_load(server, args.seed, args.seconds / 3.0)
    finally:
        server.stop()
    problems += w.ledger_problems(untraced_dir)
    traced_dir = os.path.join(scratch, "state-traced")
    server = w.Server(ROOT, traced_dir, traced=True)
    try:
        jobs, window, traced_problems = w.run_service_load(
            server, args.seed, args.seconds * 2.0 / 3.0
        )
    finally:
        server.stop()
    problems += traced_problems + w.ledger_problems(traced_dir)
    spans = tracing.read_spans(os.path.join(traced_dir, serve.SPANS_FILE))
    with open(os.path.join(traced_dir, serve.EMITS_FILE), "r", encoding="utf-8") as handle:
        emits = json.load(handle)
    outcome = w.Outcome(baseline_jobs + jobs, window, problems=problems)
    outcome.per_layer = traced_layers(spans, jobs, baseline_jobs, args)
    outcome.per_layer.update(w.service_layer_metrics(jobs, emits))
    return outcome


def traced_layers(spans, jobs, untraced_jobs, args):
    """Per-layer metrics of a traced run, plus its tracing overhead."""
    per_layer = tracing.layer_metrics(spans)
    per_layer["trace.overhead_ratio"] = valuation_s(jobs) / valuation_s(untraced_jobs)
    os.makedirs(OUT_DIR, exist_ok=True)
    tracing.write_spans(spans, os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    return per_layer


RUNNERS = {"ipss-fl-n250": run_fl, "ipss-game-n500": run_game, "service-n10-closed2": run_service}


# --------------------------------------------------------------------------- #
# Result assembly
# --------------------------------------------------------------------------- #
def valuation_s(jobs) -> float:
    """Solo time of the cold jobs: their median when they ran one at a time."""
    return stats.solo_time([j.run_interval for j in jobs if j.kind == "cold"])


def end_to_end(outcome) -> dict:
    warm = [j.wall_s for j in outcome.jobs if j.kind == "warm"]
    return {
        "setup_s": outcome.setup_s,
        "valuation_s": valuation_s(outcome.jobs),
        "warm_job_p50_ms": stats.median(warm) * 1000.0,
        "first_snapshot_p50_ms": stats.median([j.first_snapshot_s for j in outcome.jobs]) * 1000.0,
        "jobs_per_s": len(outcome.jobs) / outcome.window_s,
        "peak_rss_mb": outcome.peak_rss_mb,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no library source at {os.path.join(ROOT, 'src', 'repro')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    catalog = load_catalog()
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = os.path.join(OUT_DIR, f"tmp-{args.workload}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    machine_info = machine.machine_block()
    started = time.perf_counter()
    try:
        outcome = RUNNERS[args.workload](args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.workload != "service-n10-closed2":
        print(f"reference: {w.check_reference(args.workload, args.seed, outcome.jobs)}")
    attempted = len(outcome.jobs)
    failed_jobs = sum(1 for job in outcome.jobs if job.problems)
    failed = min(attempted, failed_jobs + len(outcome.problems))
    for problem in [p for job in outcome.jobs for p in job.problems] + outcome.problems:
        print(f"CHECK FAILED: {problem}")

    if args.trace:
        names = [name for name, row in catalog.items() if row["kind"] == "per_layer"]
        values = outcome.per_layer
    else:
        names = [name for name, row in catalog.items() if row["kind"] == "end_to_end"]
        values = end_to_end(outcome)
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": catalog[name]["unit"]} for name in names}

    print(f"machine: {json.dumps(machine_info, sort_keys=True)}")
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"{attempted} jobs in {outcome.window_s:.1f} s window "
        f"({time.perf_counter() - started:.1f} s total)"
    )
    for kind in ("cold", "warm"):
        walls = [f"{job.wall_s:.3f}" for job in outcome.jobs if job.kind == kind]
        print(f"  {kind} job wall times (s): {' '.join(walls)}")
    for name, metric in metrics.items():
        print(f"  {name:<24} {metric['value']:.6g} {metric['unit']}")
    for name, (value, unit) in outcome.reported.items():
        print(f"  {name:<24} {value:.6g} {unit}   (reported, not bounded)")
    print(f"  {'failure_ratio':<24} {failed / attempted:.6g} ratio   (reported, not bounded)")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
