"""IPSS — Importance-Pruned Stratified Sampling (paper Alg. 3).

IPSS is the paper's main contribution: a budgeted MC-SV approximation that
exploits the *key combinations* phenomenon.  Given a sampling budget γ it

1. computes ``k* = max{k : Σ_{j≤k} C(n, j) ≤ γ}`` and exhaustively evaluates
   every coalition with at most ``k*`` clients (these are the high-impact,
   small coalitions),
2. spends the remaining budget on coalitions of size ``k* + 1`` sampled so
   that every client appears equally often (constraint (3) of Alg. 3, which
   balances the approximation error across clients), and
3. estimates each client's value with the MC-SV formula restricted to the
   evaluated coalitions.

Under the FL linear-regression model the relative error is bounded by
``O((n − k*) / (k* · n · t))`` (Thm. 3) and the time complexity is ``O(τ·γ)``
where τ is the cost of one FL training.

Evaluation is incremental: one coalition-size stratum per chunk during the
exhaustive phase (each planned through ``_batch_utilities``), then the
balanced partial stratum in slices of ``partial_chunk_size``.  Marginal
contributions fold as soon as both endpoints are evaluated — per client in
the monolithic loop's exact order — so exhausting the chunks is
bitwise-identical to the one-shot run, while a convergence-based stopping
rule can cut the later (low-coefficient) strata and save their FL trainings.
"""

from __future__ import annotations

import numpy as np

from repro.core.anytime import StepResult
from repro.core.base import UtilityFunction, ValuationAlgorithm
from repro.core.exact import mc_accumulate_stratum
from repro.core.plans import DEFAULT_PLAN_BATCH
from repro.utils.combinatorics import (
    balanced_coalitions_of_size,
    client_appearance_counts,
    coalitions_of_size,
    colex_ranks,
    count_coalitions_up_to,
    marginal_coefficient,
    max_fully_enumerable_size,
)
from repro.utils.rng import SeedLike


def _pair_bases(rows: np.ndarray) -> np.ndarray:
    """The base ``T \\ {T[j]}`` of every (row, member) pair, row-major.

    ``rows`` holds sorted coalitions of one size ``s``; the result has
    ``len(rows) · s`` sorted rows of ``s − 1`` members, pair ``(r, j)`` at
    index ``r · s + j`` — the order of ``rows.ravel()``.
    """
    size = rows.shape[1]
    bases = np.stack([np.delete(rows, j, axis=1) for j in range(size)], axis=1)
    return bases.reshape(len(rows) * size, size - 1)


class IPSS(ValuationAlgorithm):
    """Importance-Pruned Stratified Sampling for MC-SV data valuation.

    Parameters
    ----------
    total_rounds:
        The sampling budget γ — the maximum number of coalition utility
        evaluations (FL trainings) the algorithm may spend.
    include_partial_stratum:
        Whether to spend the leftover budget on the (k*+1)-sized stratum
        (lines 8-14 of Alg. 3).  Disabling this reduces IPSS to K-Greedy with
        ``K = k*`` and is exposed for the ablation benchmark.
    partial_chunk_size:
        Evaluation granularity of the phase-2 stratum in the anytime
        protocol: the balanced sample is drawn once (one RNG consumption, so
        values stay chunk-boundary-invariant) and then evaluated in slices of
        this many coalitions, each slice yielding a snapshot.  The partial
        stratum often dominates the budget — on the paper's n=10/γ=32 grid it
        is 21 of 32 evaluations — so this is where convergence-based early
        stop actually saves trainings.  ``None`` evaluates it in one chunk.
    """

    incremental = True

    def __init__(
        self,
        total_rounds: int = 32,
        include_partial_stratum: bool = True,
        partial_chunk_size: int | None = 8,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(seed=seed)
        if total_rounds < 1:
            raise ValueError(f"total_rounds must be >= 1, got {total_rounds}")
        if partial_chunk_size is not None and partial_chunk_size < 1:
            raise ValueError(
                f"partial_chunk_size must be >= 1 or None, got {partial_chunk_size}"
            )
        self.total_rounds = total_rounds
        self.include_partial_stratum = include_partial_stratum
        self.partial_chunk_size = partial_chunk_size
        self.name = "IPSS"
        self._last_k_star: int | None = None
        self._last_partial_count: int = 0

    # ------------------------------------------------------------------ #
    def k_star(self, n_clients: int) -> int:
        """The largest fully enumerated coalition size for the current budget."""
        return max_fully_enumerable_size(n_clients, self.total_rounds)

    def _state_config(self) -> dict:
        return {
            "total_rounds": self.total_rounds,
            "include_partial_stratum": self.include_partial_stratum,
        }

    def _incremental_init(self, n_clients: int, rng: np.random.Generator) -> dict:
        k_star = self.k_star(n_clients)
        if k_star < 0:
            raise ValueError(
                f"sampling budget {self.total_rounds} cannot even evaluate the "
                "empty coalition; increase total_rounds"
            )
        self._last_k_star = k_star
        self._last_partial_count = 0
        return {
            "utilities": {},
            "next_size": 0,
            "k_star": k_star,
            "partial": None,
            "contributions": None,
            "base_utilities": None,
            "partial_evaluated": 0,
            "values": np.zeros(n_clients),
            "counts": np.zeros(n_clients),
        }

    def _has_partial_phase(self, n_clients: int, k_star: int) -> bool:
        if not self.include_partial_stratum or k_star + 1 > n_clients:
            return False
        return self.total_rounds - count_coalitions_up_to(n_clients, k_star) > 0

    def _incremental_step(self, utility, n_clients, rng, payload) -> StepResult:
        k_star = int(payload["k_star"])
        self._last_k_star = k_star
        values, counts = payload["values"], payload["counts"]
        size = int(payload["next_size"])

        if size <= k_star:
            # Phase 1 (lines 1-7): one exhaustively-enumerated stratum per
            # chunk, streamed through the oracle in bounded plan batches so
            # nothing C(n, size)-shaped is materialised at once.
            payload["utilities"].update(
                self._batch_utilities(
                    utility,
                    coalitions_of_size(n_clients, size),
                    batch_size=DEFAULT_PLAN_BATCH,
                )
            )
            if 1 <= size:
                # Marginals based on the (size-1) stratum now have both
                # endpoints; fold them in the monolithic loop's order.
                mc_accumulate_stratum(
                    payload["utilities"], n_clients, size - 1, values, counts
                )
            payload["next_size"] = size + 1
            done = size >= k_star and not self._has_partial_phase(n_clients, k_star)
            self._last_partial_count = 0
            return StepResult(
                values=values.copy(), stderr=None, n_samples=counts.copy(), done=done
            )

        # Phase 2 (lines 8-14): the balanced (k*+1)-stratum sample.  The whole
        # sample is drawn in one RNG consumption (chunk boundaries must not
        # move the stream), kept as an int matrix with sorted rows, then
        # evaluated slice by slice; each slice is one ``_batch_utilities``
        # plan and one snapshot.
        if payload["partial"] is None:
            leftover = self.total_rounds - count_coalitions_up_to(n_clients, k_star)
            sample = balanced_coalitions_of_size(n_clients, k_star + 1, leftover, rng)
            rows = np.array([sorted(c) for c in sample], dtype=np.int64)
            payload["partial"] = rows.reshape(len(sample), k_star + 1)
            payload["contributions"] = np.zeros(payload["partial"].shape)
            payload["partial_evaluated"] = 0
            # Phase 2 only reads the size-k* stratum: keep it as an array
            # indexed by colex rank and drop the coalition table.
            stratum = [
                (sorted(key), u) for key, u in payload["utilities"].items()
                if len(key) == k_star
            ]
            members = np.array([key for key, _ in stratum], dtype=np.int64)
            base_utilities = np.empty(len(stratum))
            base_utilities[colex_ranks(members.reshape(len(stratum), k_star))] = [
                u for _, u in stratum
            ]
            payload["base_utilities"] = base_utilities
            payload["utilities"] = {}
        partial, contributions = payload["partial"], payload["contributions"]
        self._last_partial_count = len(partial)
        cursor = int(payload["partial_evaluated"])
        stop = len(partial)
        if self.partial_chunk_size is not None:
            stop = min(stop, cursor + self.partial_chunk_size)
        if stop > cursor:
            # Row r, column j holds U(T_r) − U(T_r \ {T_r[j]}): the marginal
            # of member j against its size-k* base.  Only this slice's rows
            # are filled, so a chunk's work is O(chunk).
            rows = partial[cursor:stop]
            coalitions = [frozenset(row) for row in rows.tolist()]
            evaluated = self._batch_utilities(utility, coalitions)
            full = np.array([evaluated[coalition] for coalition in coalitions])
            ranks = colex_ranks(_pair_bases(rows)).reshape(rows.shape)
            base_utilities = payload["base_utilities"][ranks]
            contributions[cursor:stop] = full[:, None] - base_utilities
        payload["partial_evaluated"] = stop

        # Fold the size-k* marginals of the evaluated rows onto a *copy* of
        # the phase-1 accumulators.  The monolithic nested loop visits bases
        # lexicographically and clients ascending; sorting the evaluated
        # (base, client) pairs the same way and adding them with ``np.add.at``
        # (unbuffered, in index order) adds the same floats in the same order,
        # so every snapshot — and the final one against the one-shot run — is
        # bitwise-identical to the per-pair loop.
        weight = marginal_coefficient(n_clients, k_star)
        clients = partial[:stop].ravel()
        bases = _pair_bases(partial[:stop])
        # np.lexsort's last key is the primary one: base members, then client.
        keys = (clients,) + tuple(bases[:, i] for i in reversed(range(k_star)))
        order = np.lexsort(keys)
        ordered_clients = clients[order]
        ordered = contributions[:stop].ravel()[order]
        values = values.copy()
        np.add.at(values, ordered_clients, weight * ordered)
        contrib_count = np.bincount(clients, minlength=n_clients).astype(float)
        contrib_sum = np.zeros(n_clients)
        np.add.at(contrib_sum, ordered_clients, ordered)
        contrib_sumsq = np.zeros(n_clients)
        np.add.at(contrib_sumsq, ordered_clients, ordered * ordered)
        planned = np.bincount(partial.ravel(), minlength=n_clients).astype(float)
        return StepResult(
            values=values,
            stderr=self._remaining_uncertainty(
                planned - contrib_count,
                weight,
                contrib_sum,
                contrib_sumsq,
                contrib_count,
            ),
            n_samples=counts + contrib_count,
            done=stop >= len(partial),
        )

    @staticmethod
    def _remaining_uncertainty(
        remaining: np.ndarray,
        weight: float,
        contrib_sum: np.ndarray,
        contrib_sumsq: np.ndarray,
        contrib_count: np.ndarray,
    ) -> np.ndarray:
        """Per-client scale of the not-yet-evaluated phase-2 contribution.

        IPSS is a deterministic plan, so this is *convergence-to-plan*
        uncertainty, not a statistical CI on the true Shapley value: for each
        client it bounds how far the value can still move before the plan is
        exhausted, by projecting the sample standard deviation of the
        client's evaluated phase-2 marginals onto its ``remaining`` planned
        appearances (``weight · sqrt(remaining · s²)``).  Clients whose
        planned appearances are all evaluated report exactly ``0.0``;
        clients with fewer than two evaluated marginals but work remaining
        report ``NaN`` (unknown, never a false-certainty zero) — matching
        the stderr policy of the sampling estimators, so
        ``ConvergenceRule(metric="ci")`` can stop IPSS early once every
        client's residual is small, and never stops on ignorance.
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = contrib_sum / contrib_count
            spread = (contrib_sumsq - contrib_count * mean * mean) / (
                contrib_count - 1.0
            )
            # Not np.maximum: a -0.0 or NaN spread must clamp to +0.0.
            variance = np.where(spread > 0.0, spread, 0.0)
            residual = weight * np.sqrt(remaining * variance)
        return np.where(
            remaining <= 0, 0.0, np.where(contrib_count >= 2, residual, np.nan)
        )

    def _estimate(
        self, utility: UtilityFunction, n_clients: int, rng: np.random.Generator
    ) -> np.ndarray:
        return self._drive_chunks(utility, n_clients, rng)

    # ------------------------------------------------------------------ #
    def sampling_plan(self, n_clients: int) -> dict:
        """Describe how the budget would be spent for ``n`` clients (no training)."""
        k_star = self.k_star(n_clients)
        exhaustive = count_coalitions_up_to(n_clients, max(k_star, 0)) if k_star >= 0 else 0
        leftover = max(0, self.total_rounds - exhaustive)
        return {
            "total_rounds": self.total_rounds,
            "k_star": k_star,
            "exhaustive_evaluations": exhaustive,
            "partial_stratum_size": k_star + 1 if k_star + 1 <= n_clients else None,
            "partial_budget": leftover if self.include_partial_stratum else 0,
        }

    def last_appearance_counts(self, n_clients: int, coalitions) -> np.ndarray:
        """Client appearance counts of a phase-2 sample (for fairness checks)."""
        return client_appearance_counts(coalitions, n_clients)

    def _metadata(self) -> dict:
        return {
            "total_rounds": self.total_rounds,
            "k_star": self._last_k_star,
            "partial_stratum_samples": self._last_partial_count,
            "include_partial_stratum": self.include_partial_stratum,
        }
