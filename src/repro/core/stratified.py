"""Unified stratified-sampling approximation framework (paper Alg. 1).

Both SV computation schemes have a hierarchical structure over coalition
sizes, so coalitions of the same size form natural strata.  The framework

1. samples ``m_k`` coalitions from each stratum ``S_k`` (all coalitions with
   ``k`` clients),
2. trains/evaluates the FL model for every sampled coalition, and
3. for each client averages the marginal (MC-SV) or complementary (CC-SV)
   contributions that can be formed from the sampled coalitions, stratum by
   stratum, then averages across strata.

The framework is unbiased for both schemes (paper Thm. 1); under the FL
linear-regression assumption the MC-SV scheme has lower variance (Thm. 2),
which is why IPSS builds on MC-SV.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.anytime import StepResult, stratified_stderr
from repro.core.base import UtilityFunction, ValuationAlgorithm
from repro.utils.combinatorics import (
    n_choose_k,
    sample_coalitions_of_size,
)
from repro.utils.rng import SeedLike

SCHEMES = ("mc", "cc")


def allocate_rounds(
    n_clients: int,
    total_rounds: int,
    strategy: str = "proportional",
) -> list[int]:
    """Split a total sampling budget γ into per-stratum rounds ``m_1..m_n``.

    ``proportional`` allocates in proportion to the stratum sizes ``C(n, k)``
    (capped at the stratum size); ``uniform`` gives each stratum the same
    number of rounds (again capped).  Both guarantee at least one round per
    stratum whenever the budget allows it, because a stratum with zero samples
    contributes nothing to the estimate.
    """
    if total_rounds < 1:
        raise ValueError(f"total_rounds must be >= 1, got {total_rounds}")
    if strategy not in ("proportional", "uniform"):
        raise ValueError(f"unknown allocation strategy {strategy!r}")
    sizes = [n_choose_k(n_clients, k) for k in range(1, n_clients + 1)]
    rounds = [0] * n_clients

    # First pass: one sample per stratum while budget remains.
    remaining = total_rounds
    for index in range(n_clients):
        if remaining == 0:
            break
        rounds[index] = 1
        remaining -= 1

    if strategy == "uniform":
        # Round-robin one extra sample per stratum per sweep; terminate as
        # soon as a full sweep makes no progress (all strata saturated), so
        # the whole budget is spent whenever capacity 2^n - 1 allows it.
        while remaining > 0:
            progressed = False
            for stratum in range(n_clients):
                if remaining == 0:
                    break
                if rounds[stratum] < sizes[stratum]:
                    rounds[stratum] += 1
                    remaining -= 1
                    progressed = True
            if not progressed:
                break
        return rounds

    # Proportional: distribute the remainder following stratum sizes.
    weights = np.asarray(sizes, dtype=float)
    while remaining > 0:
        free = np.asarray([sizes[i] - rounds[i] for i in range(n_clients)], dtype=float)
        mask = free > 0
        if not mask.any():
            break
        share = weights * mask
        share = share / share.sum()
        # Min in float *before* casting: ``free`` reaches C(n, n/2) ≈ 10^149
        # at n=500, far past int64, while the min is bounded by ``remaining``
        # and always cast-safe.
        extra = np.minimum(np.floor(share * remaining), free).astype(int)
        if extra.sum() == 0:
            # Give one round to the largest stratum that still has room.
            candidate = int(np.argmax(np.where(mask, weights, -1)))
            rounds[candidate] += 1
            remaining -= 1
            continue
        for index in range(n_clients):
            rounds[index] += int(extra[index])
        remaining -= int(extra.sum())
    return rounds


class StratifiedSampling(ValuationAlgorithm):
    """Paper Alg. 1: stratified Monte-Carlo approximation of MC-SV or CC-SV.

    Parameters
    ----------
    total_rounds:
        The total sampling budget γ; ignored if ``rounds_per_stratum`` given.
    rounds_per_stratum:
        Explicit ``m_k`` for each stratum ``k = 1..n`` (overrides γ).
    scheme:
        ``"mc"`` pairs each sampled coalition ``S ∋ i`` with ``S \\ {i}``;
        ``"cc"`` pairs it with ``N \\ S``.
    allocation:
        Strategy used to split γ across strata (see :func:`allocate_rounds`).
    pair_on_demand:
        Alg. 1 as printed only uses a sampled coalition if its *paired*
        coalition also happens to be sampled, which silently drops strata and
        biases the estimate toward zero when budgets are tight.  With
        ``pair_on_demand=True`` the missing pair is evaluated instead (costing
        extra utility evaluations beyond γ), which makes the estimator exactly
        unbiased (Thm. 1's setting).  Default ``False`` stays literal.
    """

    def __init__(
        self,
        total_rounds: int = 32,
        rounds_per_stratum: Optional[Sequence[int]] = None,
        scheme: str = "mc",
        allocation: str = "proportional",
        pair_on_demand: bool = False,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(seed=seed)
        if scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
        if total_rounds < 1:
            raise ValueError(f"total_rounds must be >= 1, got {total_rounds}")
        self.total_rounds = total_rounds
        self.rounds_per_stratum = (
            None if rounds_per_stratum is None else [int(m) for m in rounds_per_stratum]
        )
        self.scheme = scheme
        self.allocation = allocation
        self.pair_on_demand = pair_on_demand
        self.name = f"Stratified-{scheme.upper()}"

    # ------------------------------------------------------------------ #
    def _sample_strata(
        self, n_clients: int, rng: np.random.Generator
    ) -> dict[int, list[frozenset]]:
        """Sample (without replacement within a stratum) the coalition sets."""
        if self.rounds_per_stratum is not None:
            if len(self.rounds_per_stratum) != n_clients:
                raise ValueError(
                    "rounds_per_stratum must have one entry per stratum (1..n)"
                )
            rounds = list(self.rounds_per_stratum)
        else:
            rounds = allocate_rounds(n_clients, self.total_rounds, self.allocation)

        sampled: dict[int, list[frozenset]] = {}
        for stratum_index, m_k in enumerate(rounds, start=1):
            stratum_size = n_choose_k(n_clients, stratum_index)
            target = min(m_k, stratum_size)
            if target == 0:
                sampled[stratum_index] = []
                continue
            # O(target) memory whatever the stratum size: small strata draw
            # ranks without replacement and unrank them, huge strata
            # rejection-sample — never a materialised C(n, k) population.
            coalitions = sample_coalitions_of_size(
                n_clients, stratum_index, rng, target
            )
            sampled[stratum_index] = sorted(coalitions, key=sorted)
        return sampled

    def _paired(
        self, coalition: frozenset, client: int, everyone: frozenset
    ) -> frozenset:
        """The coalition paired with a sampled one for a given member.

        MC pairs ``S ∋ i`` with ``S \\ {i}``; CC pairs it with ``N \\ S``.
        Both the batch plan and the estimation loop must use this single
        definition, or planned pairs drift from the pairs the estimator
        looks up.
        """
        if self.scheme == "mc":
            return coalition - {client}
        return everyone - coalition

    # ------------------------------------------------------------------ #
    # Incremental protocol: one chunk per stratum (then a pairs chunk when
    # pair_on_demand), each planned through ``_batch_utilities``.  The whole
    # sampling plan is drawn up front — exactly the RNG stream the monolithic
    # implementation consumed — so chunk boundaries change nothing but *when*
    # the evaluations happen, and the exhausted run is bitwise-identical.
    # ------------------------------------------------------------------ #
    incremental = True

    def _state_config(self) -> dict:
        return {
            "total_rounds": self.total_rounds,
            "rounds_per_stratum": self.rounds_per_stratum,
            "scheme": self.scheme,
            "allocation": self.allocation,
            "pair_on_demand": self.pair_on_demand,
        }

    def _incremental_init(self, n_clients: int, rng: np.random.Generator) -> dict:
        return {
            "sampled": self._sample_strata(n_clients, rng),
            "utilities": {},
            "stage": 0,
        }

    def _estimate_from(self, payload: dict, n_clients: int) -> StepResult:
        """Alg. 1's estimation loop restricted to the evaluated coalitions.

        Once every stage ran the coalition-availability guard never fires and
        this *is* the monolithic loop — same iteration order, same scalar
        fold, bitwise-identical values.  The extra sum-of-squares accumulator
        feeds the per-client stderr and never touches the value math.
        """
        sampled, utilities = payload["sampled"], payload["utilities"]
        everyone = frozenset(range(n_clients))
        values = np.zeros(n_clients)
        sums = np.zeros((n_clients, n_clients + 1))
        sumsq = np.zeros((n_clients, n_clients + 1))
        m_counts = np.zeros((n_clients, n_clients + 1))
        for client in range(n_clients):
            stratum_sums = np.zeros(n_clients + 1)
            stratum_counts = np.zeros(n_clients + 1)
            for stratum_index, coalitions in sampled.items():
                for coalition in coalitions:
                    if client not in coalition:
                        continue
                    if coalition not in utilities:
                        continue  # stratum not evaluated yet (interim chunk)
                    paired = self._paired(coalition, client, everyone)
                    if paired not in utilities:
                        # pair_on_demand=True prefetches every pair, so a miss
                        # here means the literal variant dropped an unmatched
                        # sample (Alg. 1 as printed) — or its chunk is pending.
                        continue
                    contribution = utilities[coalition] - utilities[paired]
                    stratum_sums[stratum_index] += contribution
                    stratum_counts[stratum_index] += 1
                    sumsq[client, stratum_index] += contribution**2
            total = 0.0
            for stratum_index in range(1, n_clients + 1):
                if stratum_counts[stratum_index] > 0:
                    total += stratum_sums[stratum_index] / stratum_counts[stratum_index]
            values[client] = total / n_clients
            sums[client] = stratum_sums
            m_counts[client] = stratum_counts
        return StepResult(
            values=values,
            stderr=stratified_stderr(sums, sumsq, m_counts),
            n_samples=m_counts.sum(axis=1),
            done=False,
        )

    def _incremental_step(self, utility, n_clients, rng, payload) -> StepResult:
        sampled, utilities = payload["sampled"], payload["utilities"]
        everyone = frozenset(range(n_clients))
        stage = int(payload["stage"])
        last_stage = n_clients + 1 if self.pair_on_demand else n_clients
        if stage == 0:
            # The empty coalition is always available: the untrained model.
            utilities.update(self._batch_utilities(utility, [frozenset()]))
        elif stage <= n_clients:
            utilities.update(self._batch_utilities(utility, sampled[stage]))
        else:
            # The paired coalitions are fully determined by the sample, so
            # the ones not already evaluated join as the final batch.
            pairs: list[frozenset] = []
            for stratum_coalitions in sampled.values():
                for coalition in stratum_coalitions:
                    for client in sorted(coalition):
                        paired = self._paired(coalition, client, everyone)
                        if paired not in utilities:
                            pairs.append(paired)
            if pairs:
                utilities.update(self._batch_utilities(utility, pairs))
        payload["stage"] = stage + 1
        return self._estimate_from(payload, n_clients)._replace(done=stage >= last_stage)

    def _estimate(
        self, utility: UtilityFunction, n_clients: int, rng: np.random.Generator
    ) -> np.ndarray:
        return self._drive_chunks(utility, n_clients, rng)

    def _metadata(self) -> dict:
        return {
            "scheme": self.scheme,
            "total_rounds": self.total_rounds,
            "allocation": self.allocation,
            "pair_on_demand": self.pair_on_demand,
        }
