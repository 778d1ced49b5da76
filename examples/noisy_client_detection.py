"""Detecting low-quality and free-riding clients with data valuation.

A data marketplace with ten FL clients: most hold clean data, two hold data
with heavy label noise and one is a free rider with an empty dataset.  The
script estimates every client's value with IPSS under the paper's n=10 budget
(γ=32) and shows that

* the free rider's value is (near) zero — the no-free-riders axiom,
* the noisy clients rank at the bottom, and
* the valuation-based ranking agrees with the (hidden) quality ordering.

Run with::

    python examples/noisy_client_detection.py
"""

from __future__ import annotations

import numpy as np

from repro.core import IPSS, rank_correlation
from repro.datasets import (
    Dataset,
    flip_labels,
    make_mnist_like,
    partition_iid,
    train_test_split,
)
from repro.experiments.config import sampling_rounds_for
from repro.fl import CoalitionUtility, FLConfig
from repro.models import MLPClassifier

N_CLIENTS = 10
NOISY_CLIENTS = {7: 0.6, 8: 0.85}  # client id -> label-flip fraction
FREE_RIDER = 9
SEED = 23


def build_federation():
    pooled = make_mnist_like(n_samples=700, image_size=8, seed=SEED)
    train, test = train_test_split(pooled, test_fraction=0.2, seed=SEED)
    clients = partition_iid(train, N_CLIENTS - 1, seed=SEED)  # last slot = free rider
    for client_id, noise in NOISY_CLIENTS.items():
        clients[client_id] = flip_labels(clients[client_id], noise, seed=SEED + client_id)
    clients.append(Dataset.empty_like(test, name="free-rider"))
    return clients, test


def main() -> None:
    clients, test = build_federation()
    utility = CoalitionUtility(
        client_datasets=clients,
        test_dataset=test,
        # Small batches keep the per-round SGD step count high enough that
        # coalition models actually fit their data.
        model_factory=lambda: MLPClassifier(
            n_features=test.n_features,
            n_classes=10,
            hidden_sizes=(16,),
            learning_rate=0.5,
            batch_size=10,
        ),
        config=FLConfig(rounds=4, local_epochs=2),
        seed=SEED,
    )

    gamma = sampling_rounds_for(N_CLIENTS)
    result = IPSS(total_rounds=gamma, seed=SEED).run(utility)
    values = result.values

    print(f"IPSS with γ={gamma} used {result.utility_evaluations} FL trainings "
          f"(exact valuation would need {2 ** N_CLIENTS}).")
    print()
    print(f"{'client':>6} {'kind':<12} {'estimated value':>16}")
    for client_id in result.ranking():
        if client_id == FREE_RIDER:
            kind = "free rider"
        elif client_id in NOISY_CLIENTS:
            kind = f"noisy ({NOISY_CLIENTS[client_id]:.0%})"
        else:
            kind = "clean"
        print(f"{client_id:>6} {kind:<12} {values[client_id]:>16.4f}")

    # Hidden ground-truth quality score: clean=1, noisy=1-noise, free rider=0.
    quality = np.ones(N_CLIENTS)
    for client_id, noise in NOISY_CLIENTS.items():
        quality[client_id] = 1.0 - noise
    quality[FREE_RIDER] = 0.0
    correlation = rank_correlation(values, quality)

    print()
    print(f"Free-rider estimated value:      {values[FREE_RIDER]:+.4f}")
    print(f"Mean clean-client value:         {np.mean([values[i] for i in range(N_CLIENTS) if i not in NOISY_CLIENTS and i != FREE_RIDER]):+.4f}")
    print(f"Rank correlation with quality:   {correlation:.3f}")


if __name__ == "__main__":
    main()
