"""GTG-Shapley: Guided Truncation Gradient Shapley (Liu et al., TIST 2022).

GTG-Shapley combines gradient reconstruction with Monte-Carlo permutation
sampling and two levels of truncation:

* **between-round truncation** — a round whose aggregated model improves the
  test utility by less than ``round_tolerance`` is skipped entirely, because
  the marginal contributions inside it are negligible;
* **within-round truncation** — inside a sampled permutation the walk stops
  once the remaining improvement (round-final utility minus the running
  prefix utility) drops below ``truncation_tolerance``.

All coalition models inside a round are reconstructed from the recorded local
updates, so the only FL training performed is the single grand-coalition run.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import GradientBasedValuation
from repro.utils.rng import SeedLike


class GTGShapley(GradientBasedValuation):
    """Permutation-sampled, truncation-guided reconstruction Shapley.

    Parameters
    ----------
    permutations_per_round:
        Number of Monte-Carlo permutations sampled inside each training round.
    round_tolerance:
        Between-round truncation threshold on the round's utility improvement.
    truncation_tolerance:
        Within-round truncation threshold on the remaining improvement.
    """

    name = "GTG-Shapley"

    def __init__(
        self,
        permutations_per_round: int = 8,
        round_tolerance: float = 1e-4,
        truncation_tolerance: float = 1e-3,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(seed=seed)
        if permutations_per_round < 1:
            raise ValueError("permutations_per_round must be >= 1")
        if round_tolerance < 0 or truncation_tolerance < 0:
            raise ValueError("tolerances must be non-negative")
        self.permutations_per_round = permutations_per_round
        self.round_tolerance = round_tolerance
        self.truncation_tolerance = truncation_tolerance
        self._rounds_skipped = 0

    def _estimate_from_history(self, history, model, test_dataset, rng) -> np.ndarray:
        clients = history.clients()
        n_clients = len(clients)
        index_to_client = {index: client for index, client in enumerate(clients)}
        values = np.zeros(n_clients)
        self._rounds_skipped = 0

        for round_index, record in enumerate(history.rounds):
            if record.global_after is None:
                continue
            utility_before = self._evaluate_parameters(
                model, record.global_before, test_dataset
            )
            utility_after = self._evaluate_parameters(
                model, record.global_after, test_dataset
            )
            if abs(utility_after - utility_before) < self.round_tolerance:
                # Between-round truncation: nothing meaningful happened.
                self._rounds_skipped += 1
                continue

            round_sums = np.zeros(n_clients)
            round_counts = np.zeros(n_clients)
            reconstruction_cache: dict[frozenset, float] = {
                frozenset(): utility_before
            }
            for _ in range(self.permutations_per_round):
                permutation = rng.permutation(n_clients)
                prefix: frozenset = frozenset()
                previous_utility = utility_before
                for position, client in enumerate(permutation):
                    client = int(client)
                    if (
                        abs(utility_after - previous_utility)
                        < self.truncation_tolerance
                    ):
                        # Within-round truncation: remaining clients add ~0.
                        for remaining in permutation[position:]:
                            round_counts[int(remaining)] += 1
                        break
                    prefix = prefix | {client}
                    if prefix not in reconstruction_cache:
                        members = frozenset(index_to_client[i] for i in prefix)
                        parameters = history.reconstruct_round(round_index, members)
                        reconstruction_cache[prefix] = self._evaluate_parameters(
                            model, parameters, test_dataset
                        )
                    current_utility = reconstruction_cache[prefix]
                    round_sums[client] += current_utility - previous_utility
                    round_counts[client] += 1
                    previous_utility = current_utility

            with np.errstate(invalid="ignore", divide="ignore"):
                round_values = np.where(
                    round_counts > 0, round_sums / np.maximum(round_counts, 1), 0.0
                )
            values += round_values
        return values

    def _metadata(self) -> dict:
        return {
            **super()._metadata(),
            "permutations_per_round": self.permutations_per_round,
            "round_tolerance": self.round_tolerance,
            "truncation_tolerance": self.truncation_tolerance,
            "rounds_skipped": self._rounds_skipped,
        }
