"""λ-MR: multi-round gradient-reconstruction Shapley (Wei et al., 2020).

λ-MR values clients round by round: within each training round ``r`` the
Shapley value is computed over models reconstructed from that round's local
updates (starting from the round's recorded global model), and the per-round
values are combined with round weights ``λ_r``.  Because the per-round SV
enumerates all ``2^n`` coalition reconstructions for every round, its cost
grows exponentially with the number of clients — the behaviour the paper
observes ("the time cost of λ-MR increases exponentially with number of FL
clients") — but it avoids any additional FL training.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import GradientBasedValuation
from repro.core.plans import check_enumeration_limit
from repro.utils.combinatorics import all_coalitions, marginal_coefficient
from repro.utils.rng import SeedLike

MAX_CLIENTS_FOR_FULL_ENUMERATION = 16


class LambdaMR(GradientBasedValuation):
    """Round-weighted multi-round reconstruction Shapley.

    Parameters
    ----------
    decay:
        Round weight decay λ: round ``r`` (0-based) receives weight
        ``decay**r``, normalised to sum to one.  ``decay=1`` weights every
        round equally, matching the plain MR scheme; values below one emphasise
        early rounds where most of the accuracy is gained.
    max_exact_clients:
        Cap on the per-round coalition enumeration (default
        :data:`MAX_CLIENTS_FOR_FULL_ENUMERATION`); larger federations fail
        fast with the shared actionable guard.
    """

    name = "lambda-MR"

    def __init__(
        self,
        decay: float = 1.0,
        max_exact_clients: int | None = None,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(seed=seed)
        if decay <= 0:
            raise ValueError(f"decay must be positive, got {decay}")
        self.decay = decay
        self.max_exact_clients = (
            MAX_CLIENTS_FOR_FULL_ENUMERATION
            if max_exact_clients is None
            else int(max_exact_clients)
        )

    def _round_weights(self, n_rounds: int) -> np.ndarray:
        weights = np.power(self.decay, np.arange(n_rounds, dtype=float))
        return weights / weights.sum()

    def _estimate_from_history(self, history, model, test_dataset, rng) -> np.ndarray:
        clients = history.clients()
        n_clients = len(clients)
        check_enumeration_limit(
            n_clients, self.max_exact_clients, "lambda-MR (per-round MC-SV)"
        )
        index_to_client = {index: client for index, client in enumerate(clients)}
        weights = self._round_weights(history.n_rounds)

        values = np.zeros(n_clients)
        for round_index, record in enumerate(history.rounds):
            # Utility of every reconstructed sub-coalition model for this round.
            utilities: dict[frozenset, float] = {}
            for coalition in all_coalitions(n_clients):
                members = frozenset(index_to_client[i] for i in coalition)
                parameters = history.reconstruct_round(round_index, members)
                utilities[coalition] = self._evaluate_parameters(
                    model, parameters, test_dataset
                )
            round_values = np.zeros(n_clients)
            for client in range(n_clients):
                for coalition, base_utility in utilities.items():
                    if client in coalition:
                        continue
                    weight = marginal_coefficient(n_clients, len(coalition))
                    round_values[client] += weight * (
                        utilities[coalition | {client}] - base_utility
                    )
            values += weights[round_index] * round_values
        return values

    def _metadata(self) -> dict:
        return {**super()._metadata(), "decay": self.decay}
