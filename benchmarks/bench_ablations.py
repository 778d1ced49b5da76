"""Ablation benchmarks for IPSS's design choices.

* IPSS with vs without the balanced (k*+1) phase-2 sample (constraint (3) of
  Alg. 3): the phase-2 sample should not hurt accuracy and should spend the
  leftover budget.
* Utility-cache on vs off: the cache removes repeated FL trainings when one
  oracle serves several algorithms, which is the dominant cost in practice.
* Algorithm overhead on a precomputed utility table: the bookkeeping of IPSS
  is negligible compared with FL training (the O(τγ) claim of the paper).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import IPSS, MCShapley, relative_error_l2
from repro.experiments.config import ExperimentScale
from repro.experiments.reporting import format_table
from repro.experiments.tasks import build_femnist_task
from repro.fl import TabularUtility

from conftest import monotone_game, run_once, save_report


@pytest.mark.benchmark(group="ablation-ipss")
def test_ablation_partial_stratum(benchmark, results_dir):
    """IPSS phase 2 (balanced k*+1 samples) vs truncating at k*."""

    def run():
        rows = []
        for seed in range(5):
            game = monotone_game(8, seed=seed, concavity=0.2)
            exact = MCShapley().run(game, 8).values
            full = IPSS(total_rounds=20, include_partial_stratum=True, seed=seed).run(game, 8)
            truncated = IPSS(total_rounds=20, include_partial_stratum=False, seed=seed).run(game, 8)
            rows.append(
                {
                    "seed": seed,
                    "error_with_phase2": relative_error_l2(full.values, exact),
                    "error_without_phase2": relative_error_l2(truncated.values, exact),
                    "evaluations_with": full.utility_evaluations,
                    "evaluations_without": truncated.utility_evaluations,
                }
            )
        return rows

    rows = run_once(benchmark, run)
    save_report(
        results_dir, "ablation_ipss_phase2", format_table(rows, title="IPSS phase-2 ablation")
    )
    mean_with = float(np.mean([r["error_with_phase2"] for r in rows]))
    mean_without = float(np.mean([r["error_without_phase2"] for r in rows]))
    benchmark.extra_info["mean_error_with"] = mean_with
    benchmark.extra_info["mean_error_without"] = mean_without
    assert mean_with <= mean_without + 0.02
    assert all(r["evaluations_with"] >= r["evaluations_without"] for r in rows)


@pytest.mark.benchmark(group="ablation-cache")
def test_ablation_utility_cache(benchmark, results_dir):
    """Warm-cache reruns of the exact valuation perform zero extra FL trainings."""
    scale = ExperimentScale.tiny()
    utility, _ = build_femnist_task(n_clients=5, model="logistic", scale=scale, seed=0)

    def run():
        utility.reset_cache()
        MCShapley().run(utility, 5)
        cold_evaluations = utility.evaluations
        second = MCShapley().run(utility, 5)
        return {
            "cold_evaluations": cold_evaluations,
            "warm_extra_evaluations": second.utility_evaluations,
            "cache_hits": utility.cache_hits,
        }

    report = run_once(benchmark, run)
    save_report(
        results_dir,
        "ablation_cache",
        format_table([report], title="Utility-cache ablation (exact valuation twice)"),
    )
    assert report["cold_evaluations"] == 2**5
    assert report["warm_extra_evaluations"] == 0
    assert report["cache_hits"] >= 2**5


@pytest.mark.benchmark(group="overhead")
def test_ipss_bookkeeping_overhead(benchmark):
    """IPSS's own arithmetic on a precomputed utility table (no FL training).

    This isolates the non-τ part of the O(τγ) complexity claim; it should be
    microseconds-to-milliseconds even for 12 clients.
    """
    game = monotone_game(12, seed=0)
    algorithm = IPSS(total_rounds=100, seed=0)

    result = benchmark(lambda: algorithm.run(game, 12))
    assert result.values.shape == (12,)
