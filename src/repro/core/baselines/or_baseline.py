"""OR: gradient-reconstruction Shapley baseline (Song et al., IEEE BigData 2019).

OR ("One-Round reconstruction") avoids retraining FL models for coalitions by
*reusing* the per-round local updates recorded while training the
grand-coalition model: the model of a coalition ``S`` is approximated by
replaying all training rounds but aggregating only the updates of clients in
``S``.  With every coalition model reconstructable at the cost of a few vector
operations, the exact MC-SV formula is evaluated over the reconstructed
utilities.

The method is extremely fast — it trains a single FL model — but the paper
shows it carries no accuracy guarantee and often has the largest error of all
baselines (e.g. Table IV).
"""

from __future__ import annotations

import numpy as np

from repro.core.base import GradientBasedValuation
from repro.core.plans import check_enumeration_limit
from repro.utils.combinatorics import all_coalitions, marginal_coefficient
from repro.utils.rng import SeedLike

#: reconstructing 2^n coalition models is vector-cheap but still exponential;
#: cap it to keep runaway configurations from hanging
MAX_CLIENTS_FOR_FULL_ENUMERATION = 16


class ORBaseline(GradientBasedValuation):
    """Exact MC-SV over gradient-reconstructed coalition models.

    ``max_exact_clients`` bounds the coalition enumeration (default
    :data:`MAX_CLIENTS_FOR_FULL_ENUMERATION`); beyond it the run fails fast
    with the shared actionable guard instead of reconstructing 2^n models.
    """

    name = "OR"

    def __init__(
        self, max_exact_clients: int | None = None, seed: SeedLike = None
    ) -> None:
        super().__init__(seed=seed)
        self.max_exact_clients = (
            MAX_CLIENTS_FOR_FULL_ENUMERATION
            if max_exact_clients is None
            else int(max_exact_clients)
        )

    def _estimate_from_history(self, history, model, test_dataset, rng) -> np.ndarray:
        clients = history.clients()
        n_clients = len(clients)
        check_enumeration_limit(
            n_clients, self.max_exact_clients, "OR (reconstruction MC-SV)"
        )
        index_to_client = {index: client for index, client in enumerate(clients)}

        utilities: dict[frozenset, float] = {}
        for coalition in all_coalitions(n_clients):
            members = frozenset(index_to_client[i] for i in coalition)
            parameters = history.reconstruct_sequential(members)
            utilities[coalition] = self._evaluate_parameters(
                model, parameters, test_dataset
            )

        values = np.zeros(n_clients)
        for client in range(n_clients):
            for coalition, base_utility in utilities.items():
                if client in coalition:
                    continue
                weight = marginal_coefficient(n_clients, len(coalition))
                values[client] += weight * (
                    utilities[coalition | {client}] - base_utility
                )
        return values
