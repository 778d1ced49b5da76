"""DIG-FL: efficient participant-contribution evaluation (Wang et al., ICDE 2022).

DIG-FL estimates each participant's contribution with only ``O(n)`` extra
evaluations per FL run by scoring, at every training round, how much each
client's local update helps the global model on the validation set.  Our
implementation follows that recipe on top of the recorded training history:

* at round ``r`` the utility of the round's starting global model and of the
  round's aggregated model are measured on the test set;
* each client ``i`` receives a share of the round's utility improvement
  proportional to the alignment ``max(0, ⟨Δ_i, Δ_global⟩)`` between its local
  update and the global update (clients whose updates point away from the
  global improvement receive zero for the round, which matches DIG-FL's use of
  only positively correlated gradients);
* per-round scores are summed over rounds.

Like the other gradient-based baselines it requires a parametric FL model, so
the paper (and this implementation) excludes it for XGBoost.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import GradientBasedValuation
from repro.utils.rng import SeedLike


class DIGFL(GradientBasedValuation):
    """Per-round gradient-alignment contribution estimator."""

    name = "DIG-FL"

    def __init__(self, seed: SeedLike = None) -> None:
        super().__init__(seed=seed)
        self._rounds_scored = 0

    def _estimate_from_history(self, history, model, test_dataset, rng) -> np.ndarray:
        clients = history.clients()
        n_clients = len(clients)
        index_of = {client: position for position, client in enumerate(clients)}
        values = np.zeros(n_clients)
        self._rounds_scored = 0

        for record in history.rounds:
            if record.global_after is None:
                continue
            global_delta = record.global_after - record.global_before
            norm = np.linalg.norm(global_delta)
            utility_before = self._evaluate_parameters(
                model, record.global_before, test_dataset
            )
            utility_after = self._evaluate_parameters(
                model, record.global_after, test_dataset
            )
            round_gain = utility_after - utility_before
            self._rounds_scored += 1

            alignments = np.zeros(n_clients)
            for client_id, update in record.updates.items():
                delta = update.parameters - record.global_before
                if norm > 0:
                    alignments[index_of[client_id]] = max(
                        0.0, float(np.dot(delta, global_delta) / norm)
                    )
            total_alignment = alignments.sum()
            if total_alignment <= 0:
                # No client aligned with the global improvement: split evenly.
                participating = [index_of[c] for c in record.updates]
                if participating:
                    values[participating] += round_gain / len(participating)
                continue
            values += round_gain * alignments / total_alignment
        return values

    def _metadata(self) -> dict:
        return {**super()._metadata(), "rounds_scored": self._rounds_scored}
