"""The benchmark game's closed-form Shapley value against exact enumeration."""

import itertools
import math

import numpy as np
import pytest

from game import HarsanyiGame, _unrank_pair


def enumerated_shapley(game) -> np.ndarray:
    n = game.n_clients
    values = np.zeros(n)
    for i in range(n):
        others = [c for c in range(n) if c != i]
        for size in range(n):
            weight = math.factorial(size) * math.factorial(n - size - 1) / math.factorial(n)
            for subset in itertools.combinations(others, size):
                values[i] += weight * (game(subset + (i,)) - game(subset))
    return values


@pytest.mark.parametrize("n_clients", range(2, 9))
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_closed_form_matches_enumeration(n_clients, seed):
    game = HarsanyiGame(n_clients, seed)
    np.testing.assert_allclose(game.shapley(), enumerated_shapley(game), rtol=0, atol=1e-12)


def test_closed_form_matches_library_exact_shapley():
    from repro.core import MCShapley
    from repro.parallel import BatchUtilityOracle

    game = HarsanyiGame(8, seed=3)
    result = MCShapley(seed=0).run(BatchUtilityOracle(game, n_clients=8), 8)
    np.testing.assert_allclose(result.values, game.shapley(), rtol=0, atol=1e-12)


def test_game_is_efficient_and_seeded():
    game = HarsanyiGame(50, seed=5)
    grand = game(range(50))
    assert game.shapley().sum() == pytest.approx(grand - game(()), abs=1e-9)
    assert HarsanyiGame(50, seed=5).pairs == game.pairs
    assert HarsanyiGame(50, seed=6).pairs != game.pairs


def test_both_evaluation_paths_agree():
    # Small coalitions enumerate their pairs; large ones scan the term list.
    game = HarsanyiGame(40, seed=2)
    members = list(range(0, 40, 2))
    by_terms = sum(game.singletons[m] for m in members) + sum(
        d for (i, j), d in game.pairs.items() if i in members and j in members
    )
    assert game(members) == pytest.approx(by_terms, abs=1e-12)
    assert game(members[:3]) == pytest.approx(
        sum(game.singletons[m] for m in members[:3])
        + sum(game.pairs.get(p, 0.0) for p in itertools.combinations(members[:3], 2)),
        abs=1e-12,
    )


def test_unrank_pair_is_lexicographic():
    n = 7
    assert [_unrank_pair(r, n) for r in range(n * (n - 1) // 2)] == list(
        itertools.combinations(range(n), 2)
    )
