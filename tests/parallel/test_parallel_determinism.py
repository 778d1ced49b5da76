"""Parallel execution must be value-preserving.

The acceptance bar for the batched engine: running any sampling algorithm
through a :class:`BatchUtilityOracle` with ``n_workers=4`` (process backend)
produces **bitwise-identical** ``ValuationResult.values`` to serial
execution on the same seed.  This holds because (a) all randomness lives in
the algorithm's own generator, which is untouched by how utilities are
evaluated, and (b) per-coalition training seeds are content-derived, so a
coalition's utility is the same whichever worker computes it.
"""

import time
from functools import partial

import numpy as np
import pytest

from repro.core import IPSS, KGreedy, MCShapley, PermShapley, StratifiedSampling
from repro.parallel import BatchUtilityOracle

from tests.helpers import monotone_game

N_CLIENTS = 6
SEED = 11


def algorithms():
    return [
        StratifiedSampling(total_rounds=20, scheme="mc", seed=SEED),
        StratifiedSampling(total_rounds=20, scheme="cc", pair_on_demand=True, seed=SEED),
        MCShapley(seed=SEED),
        PermShapley(seed=SEED),
        KGreedy(max_size=2, seed=SEED),
        IPSS(total_rounds=24, seed=SEED),
    ]


def run_with(executor, n_workers):
    game = monotone_game(N_CLIENTS, seed=SEED)
    oracle = BatchUtilityOracle(
        game, n_clients=N_CLIENTS, n_workers=n_workers, executor=executor
    )
    return {
        algorithm.name: algorithm.run(oracle, N_CLIENTS).values
        for algorithm in algorithms()
    }


class TestExecutorDeterminism:
    @pytest.mark.parametrize("executor,n_workers", [("process", 4), ("serial", 1)])
    def test_identical_to_plain_callable(self, executor, n_workers):
        """Batched (serial or 4-process) == the plain sequential code path.

        ``game.utility`` is a bare bound method with no ``evaluate_batch``,
        so it exercises the sequential fallback of the planning hook.
        """
        game = monotone_game(N_CLIENTS, seed=SEED)
        plain = {
            algorithm.name: algorithm.run(game.utility, N_CLIENTS).values
            for algorithm in algorithms()
        }
        batched = run_with(executor, n_workers)
        for name, values in plain.items():
            assert np.array_equal(values, batched[name]), name

    def test_default_pool_bitwise_identical_to_serial(self):
        """No backend named with n_workers > 1 resolves to a process pool."""
        serial = run_with("serial", 1)
        pooled = run_with(None, 4)
        for name in serial:
            assert np.array_equal(serial[name], pooled[name]), name

    def test_process_pool_bitwise_identical_to_serial(self):
        serial = run_with("serial", 1)
        multiproc = run_with("process", 2)
        for name in serial:
            assert np.array_equal(serial[name], multiproc[name]), name

    def test_repeated_parallel_runs_are_stable(self):
        first = run_with("process", 4)
        second = run_with("process", 4)
        for name in first:
            assert np.array_equal(first[name], second[name]), name


class TestCoalitionUtilityParallel:
    """End to end on the real FL substrate: CoalitionUtility(n_workers=4)."""

    @staticmethod
    def build_utility(n_workers):
        from repro.datasets import (
            make_classification_blobs,
            partition_iid,
            train_test_split,
        )
        from repro.fl import CoalitionUtility, FLConfig
        from repro.models import LogisticRegressionModel

        pooled = make_classification_blobs(160, n_features=4, n_classes=2, seed=SEED)
        train, test = train_test_split(pooled, test_fraction=0.25, seed=SEED)
        clients = partition_iid(train, 4, seed=SEED)
        return CoalitionUtility(
            client_datasets=clients,
            test_dataset=test,
            # Picklable: n_workers > 1 defaults to the process backend.
            model_factory=partial(
                LogisticRegressionModel, n_features=4, n_classes=2, epochs=2
            ),
            config=FLConfig(rounds=2),
            seed=SEED,
            n_workers=n_workers,
        )

    def test_fl_training_values_identical_across_workers(self):
        serial = MCShapley(seed=SEED).run(self.build_utility(1)).values
        parallel = MCShapley(seed=SEED).run(self.build_utility(4)).values
        assert np.array_equal(serial, parallel)

    def test_ipss_on_fl_identical_across_workers(self):
        serial = IPSS(total_rounds=10, seed=SEED).run(self.build_utility(1)).values
        parallel = IPSS(total_rounds=10, seed=SEED).run(self.build_utility(4)).values
        assert np.array_equal(serial, parallel)

    def test_evaluation_accounting_matches_serial(self):
        one = self.build_utility(1)
        four = self.build_utility(4)
        MCShapley(seed=SEED).run(one)
        MCShapley(seed=SEED).run(four)
        assert one.evaluations == four.evaluations == 2**4


class SlowGame:
    """Picklable monotone game with an artificial per-coalition cost τ.

    Sleeping workers overlap exactly the way real FL trainings overlap
    across processes or machines.
    """

    def __init__(self, n_clients, cost):
        self.n_clients = n_clients
        self.cost = cost
        self._game = monotone_game(n_clients, seed=SEED)

    def __call__(self, coalition):
        time.sleep(self.cost)
        return self._game(coalition)


class TestParallelSpeedup:
    def test_four_workers_beat_serial_on_modeled_cost(self):
        """With a modeled τ of 20 ms per coalition, 4 workers must finish the
        same StratifiedSampling run at least 1.5× faster than serial.

        The pool is persistent (created once, reused by every batch), so it
        is started before the clock: forking workers is a one-off cost, not
        part of the per-coalition overlap this gate measures.
        """
        algorithm = StratifiedSampling(total_rounds=16, scheme="mc", seed=SEED)

        def timed(n_workers):
            with BatchUtilityOracle(
                SlowGame(N_CLIENTS, cost=0.02),
                n_clients=N_CLIENTS,
                n_workers=n_workers,
                executor="process" if n_workers > 1 else "serial",
            ) as oracle:
                # Warm every worker without touching the oracle's cache.
                oracle.executor.map_utilities(
                    SlowGame(N_CLIENTS, cost=0.0),
                    [frozenset({i}) for i in range(n_workers)],
                )
                start = time.perf_counter()
                values = algorithm.run(oracle, N_CLIENTS).values
                return time.perf_counter() - start, values

        serial_time, serial_values = timed(1)
        parallel_time, parallel_values = timed(4)
        assert np.array_equal(serial_values, parallel_values)
        assert serial_time / parallel_time > 1.5
