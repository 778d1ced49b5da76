"""Experiment configuration: scales and the paper's sampling-round table.

Table III of the paper fixes the sampling budget γ per client count for all
sampling-based methods (n=3 → γ=5, n=6 → γ=8, n=10 → γ=32); the scalability
experiment (Fig. 9) uses γ = n·log n.  Dataset and model sizes are configured
through :class:`ExperimentScale` so that the same experiment code can run at a
CI-friendly size or at a size closer to the paper's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Table III — sampling rounds γ per number of FL clients.
PAPER_SAMPLING_ROUNDS: dict[int, int] = {3: 5, 6: 8, 10: 32}


def sampling_rounds_for(n_clients: int) -> int:
    """The γ used by all sampling-based algorithms for ``n_clients`` clients.

    Values for the paper's client counts come from Table III; other counts use
    the paper's scalability rule γ = ⌈n·log n⌉ (Fig. 9), with a floor of
    ``n + 2`` so that at least the empty set, the singletons and U(N) fit.
    """
    if n_clients < 1:
        raise ValueError(f"n_clients must be >= 1, got {n_clients}")
    if n_clients in PAPER_SAMPLING_ROUNDS:
        return PAPER_SAMPLING_ROUNDS[n_clients]
    return max(n_clients + 2, math.ceil(n_clients * math.log(max(n_clients, 2))))


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs controlling how heavy each experiment is.

    Attributes
    ----------
    samples_per_client:
        Training samples held by each FL client.
    test_samples:
        Size of the held-out evaluation set defining the utility.
    fl_rounds / local_epochs:
        Federated-training length per coalition evaluation.
    image_size:
        Side length of the synthetic image datasets.
    mlp_hidden / cnn_filters:
        Width of the MLP hidden layer / number of CNN filters.
    gbdt_rounds:
        Boosting rounds for the XGBoost stand-in.
    repetitions:
        Number of repeated runs for variance/Pareto experiments.
    """

    name: str = "small"
    samples_per_client: int = 40
    test_samples: int = 150
    fl_rounds: int = 5
    local_epochs: int = 2
    image_size: int = 8
    mlp_hidden: int = 16
    cnn_filters: int = 3
    gbdt_rounds: int = 8
    repetitions: int = 10

    @classmethod
    def tiny(cls) -> "ExperimentScale":
        """Seconds-per-experiment scale used by the test suite and CI."""
        return cls(
            name="tiny",
            samples_per_client=25,
            test_samples=80,
            fl_rounds=3,
            local_epochs=2,
            image_size=8,
            mlp_hidden=8,
            cnn_filters=2,
            gbdt_rounds=4,
            repetitions=4,
        )

    @classmethod
    def small(cls) -> "ExperimentScale":
        """Default scale (minutes overall)."""
        return cls()

    @classmethod
    def paper(cls) -> "ExperimentScale":
        """Closest configuration to the paper's (still CPU-feasible)."""
        return cls(
            name="paper",
            samples_per_client=120,
            test_samples=400,
            fl_rounds=6,
            local_epochs=3,
            image_size=10,
            mlp_hidden=32,
            cnn_filters=4,
            gbdt_rounds=15,
            repetitions=30,
        )

    @classmethod
    def from_name(cls, name: str) -> "ExperimentScale":
        factories = {"tiny": cls.tiny, "small": cls.small, "paper": cls.paper}
        if name not in factories:
            raise ValueError(f"unknown scale {name!r}; choose from {sorted(factories)}")
        return factories[name]()
