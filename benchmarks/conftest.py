"""Shared fixtures and helpers for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures at a
reduced scale, records the headline numbers in ``benchmark.extra_info`` and
writes the full text rendering to ``benchmarks/results/<name>.txt``.

The benchmarks are experiment regenerations, not micro-benchmarks, so each is
run exactly once (``pedantic`` with one round).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.experiments import ExperimentScale
from repro.fl import TabularUtility

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def pytest_addoption(parser):
    parser.addoption(
        "--peak-rss",
        action="store_true",
        default=False,
        help="capture OS-level peak RSS (ru_maxrss) alongside tracemalloc "
        "peaks in benchmarks that measure memory",
    )


@pytest.fixture(scope="session")
def peak_rss(request) -> bool:
    """Whether ``--peak-rss`` capture was requested for this run."""
    return bool(request.config.getoption("--peak-rss"))


def monotone_game(n_clients: int, seed: int = 0, concavity: float = 0.6) -> TabularUtility:
    """A saturating utility game standing in for an FL accuracy oracle.

    Mirrors ``tests.helpers.monotone_game``; duplicated here so the benchmark
    suite stays importable when only ``benchmarks/`` is collected.
    """
    generator = np.random.default_rng(seed)
    weights = generator.uniform(0.2, 1.0, size=n_clients)
    total = weights.sum() ** concavity

    def function(coalition: frozenset) -> float:
        if not coalition:
            return 0.1
        mass = sum(weights[i] for i in coalition) ** concavity
        return 0.1 + 0.85 * mass / total

    return TabularUtility.from_function(n_clients, function)


@pytest.fixture(scope="session")
def bench_scale() -> ExperimentScale:
    """Scale used across the benchmark suite.

    ``small`` keeps each coalition training around 10-20 ms so even the exact
    MC-Shapley ground truth for ten clients (2^10 trainings) finishes in tens
    of seconds; the scalability benchmarks (Fig. 9/10) override this with the
    ``tiny`` scale because they involve up to 50 clients.
    """
    return ExperimentScale.small()


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def save_report(results_dir: Path, name: str, text: str) -> None:
    """Persist a rendered report next to the benchmark results."""
    (results_dir / f"{name}.txt").write_text(text + "\n")


def run_once(benchmark, function, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)
