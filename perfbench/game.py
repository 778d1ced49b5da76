"""A seeded sparse Harsanyi-dividend game with a closed-form Shapley value.

``U(S) = sum of d_T over every term T that is a subset of S``, with one term
per client (singletons) and ``PAIRS_PER_CLIENT`` random two-client terms per
client.  Each dividend is shared equally by the members of its term, so the
Shapley value of client ``i`` is ``sum(d_T / |T| for T containing i)`` --
exact in O(terms) at any n.

The evaluator is a plain picklable object (no lambdas), so the repository's
oracle can hand it to any executor backend.
"""

from __future__ import annotations

import itertools
from typing import Iterable

import numpy as np

PAIRS_PER_CLIENT = 2


class HarsanyiGame:
    """Unanimity-sum game over ``n_clients`` with singleton and pair terms."""

    def __init__(self, n_clients: int, seed: int) -> None:
        if n_clients < 2:
            raise ValueError(f"a pair game needs at least 2 clients, got {n_clients}")
        rng = np.random.default_rng([0x6A3E, int(seed)])
        self.n_clients = int(n_clients)
        self.singletons = rng.uniform(0.0, 1.0, size=self.n_clients)
        n_pairs = min(PAIRS_PER_CLIENT * self.n_clients, n_clients * (n_clients - 1) // 2)
        # Distinct unordered pairs, drawn without replacement by rank.
        ranks = rng.choice(n_clients * (n_clients - 1) // 2, size=n_pairs, replace=False)
        self.pairs: dict[tuple[int, int], float] = {}
        for rank, dividend in zip(sorted(int(r) for r in ranks), rng.uniform(-0.5, 1.0, n_pairs)):
            self.pairs[_unrank_pair(rank, self.n_clients)] = float(dividend)

    def __call__(self, coalition: Iterable[int]) -> float:
        members = sorted(int(c) for c in coalition)
        total = float(sum(self.singletons[m] for m in members))
        if len(members) * (len(members) - 1) // 2 <= len(self.pairs):
            for pair in itertools.combinations(members, 2):
                total += self.pairs.get(pair, 0.0)
        else:
            present = set(members)
            for (i, j), dividend in self.pairs.items():
                if i in present and j in present:
                    total += dividend
        return total

    def shapley(self) -> np.ndarray:
        """Closed-form Shapley value: each dividend split evenly in its term."""
        values = self.singletons.astype(float).copy()
        for (i, j), dividend in self.pairs.items():
            values[i] += dividend / 2.0
            values[j] += dividend / 2.0
        return values


def _unrank_pair(rank: int, n: int) -> tuple[int, int]:
    """The ``rank``-th pair ``(i, j)``, ``i < j``, in lexicographic order."""
    i = 0
    remaining = rank
    while remaining >= n - 1 - i:
        remaining -= n - 1 - i
        i += 1
    return i, i + 1 + remaining
