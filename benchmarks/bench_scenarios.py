"""Benchmark E14: scenario-robustness campaign, cold vs warm.

Runs the robustness harness over a slice of the built-in scenario catalog —
each scenario next to its clean counterpart, exact MC-Shapley plus IPSS —
twice against one persistent store, and checks the claims the scenario
engine makes:

* exact Shapley ranks injected free riders and fully-flipped label poisoners
  **strictly last** (precision@k = 1.0), and
* the warm rerun of the whole campaign performs **zero** FL trainings.

The saved report is the robustness summary table.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest

from repro.experiments.tables import robustness_table
from repro.scenarios import run_robustness

from conftest import run_once, save_report

SCENARIOS = ("free-rider", "label-flippers", "duplicators", "stragglers")
ALGORITHMS = ("MC-Shapley", "IPSS")
SEED = 0


def _run_cold_then_warm():
    with tempfile.TemporaryDirectory() as tmp:
        store = str(Path(tmp) / "store.sqlite")
        cold = run_robustness(
            SCENARIOS,
            run_dir=str(Path(tmp) / "cold"),
            algorithms=ALGORITHMS,
            scale="tiny",
            seed=SEED,
            store=store,
        )
        warm = run_robustness(
            SCENARIOS,
            run_dir=str(Path(tmp) / "warm"),
            algorithms=ALGORITHMS,
            scale="tiny",
            seed=SEED,
            store=store,
        )
    return cold, warm


@pytest.mark.benchmark(group="scenarios")
def test_scenario_robustness_campaign(benchmark, results_dir):
    cold, warm = run_once(benchmark, _run_cold_then_warm)
    save_report(
        results_dir,
        "scenario_robustness",
        robustness_table(
            cold.rows,
            title=f"Scenario robustness — {len(SCENARIOS)} scenarios × "
            f"{len(ALGORITHMS)} algorithms (tiny scale)",
        ),
    )
    benchmark.extra_info["cold_trainings"] = cold.fl_trainings
    benchmark.extra_info["warm_trainings"] = warm.fl_trainings
    benchmark.extra_info["warm_store_hits"] = warm.store_hits

    # Acceptance: exact Shapley puts free riders / heavy flippers strictly last.
    for scenario in ("free-rider", "label-flippers"):
        row = cold.row(scenario, "MC-Shapley")
        assert row["strictly_last"], row
        assert row["precision_at_k"] == 1.0, row
    # Acceptance: the warm campaign never trains a coalition.
    assert cold.fl_trainings > 0
    assert warm.fl_trainings == 0
    for cold_row, warm_row in zip(cold.rows, warm.rows):
        assert cold_row["values"] == warm_row["values"], "store changed values"
