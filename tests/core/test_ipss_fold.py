"""IPSS phase-2 fold: every snapshot pinned bitwise, resumable at every chunk.

``golden_ipss_snapshots.json`` records the per-snapshot ``values``,
``stderr`` (``null`` for an undefined entry), ``n_samples`` and
``evaluations`` of IPSS on one closed-form game across a grid of budgets
(k* = 0, 1, 2) and phase-2 chunk sizes (1, 8, one chunk).  It was recorded
with the per-pair sequential-loop fold, so it pins that the array-backed fold
adds the same floats in the same order at *every* chunk, not only the last.

Re-record (only when the estimator is meant to change)::

    PYTHONPATH=src:tests python tests/core/test_ipss_fold.py
"""

import json
import os

import numpy as np
import pytest

from helpers import monotone_game
from repro.core import IPSS, EstimatorState

N = 8
GAME_SEED = 5
SEED = 3
#: budgets giving k* = 0 (5 sampled singletons), k* = 1 (21 of 28 pairs)
#: and k* = 2 (33 of 56 triples) on n = 8
GAMMAS = (6, 30, 70)
CHUNK_SIZES = (1, 8, None)

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "..", "data", "golden_ipss_snapshots.json"
)


def _key(gamma, chunk):
    return f"gamma={gamma},chunk={chunk}"


def _algorithm(gamma, chunk):
    return IPSS(total_rounds=gamma, partial_chunk_size=chunk, seed=SEED)


def _array(values):
    if values is None:
        return None
    return [None if np.isnan(v) else float(v) for v in np.asarray(values, dtype=float)]


def _record(snapshot):
    return {
        "chunk": snapshot.chunk_index,
        "values": _array(snapshot.values),
        "stderr": _array(snapshot.stderr),
        "n_samples": _array(snapshot.n_samples_per_client),
        "evaluations": snapshot.evaluations,
    }


def trajectory(gamma, chunk, state=None):
    game = monotone_game(N, seed=GAME_SEED)
    return [_record(s) for s in _algorithm(gamma, chunk).iter_run(game, N, state=state)]


def _same_bits(got, expected):
    """NaN-aware bitwise equality of two recorded arrays (``None`` = NaN)."""
    if got is None or expected is None:
        return got is expected
    as_bits = lambda xs: np.asarray(
        [np.nan if x is None else x for x in xs], dtype="<f8"
    ).tobytes()
    return as_bits(got) == as_bits(expected)


def _assert_snapshots_equal(got, expected, label):
    assert len(got) == len(expected), label
    for mine, theirs in zip(got, expected):
        where = f"{label} chunk {theirs['chunk']}"
        assert mine["chunk"] == theirs["chunk"], where
        assert mine["evaluations"] == theirs["evaluations"], where
        for field in ("values", "stderr", "n_samples"):
            assert _same_bits(mine[field], theirs[field]), f"{where}: {field}"


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


GRID = [
    pytest.param(gamma, chunk, id=_key(gamma, chunk))
    for gamma in GAMMAS
    for chunk in CHUNK_SIZES
]


@pytest.mark.parametrize("gamma,chunk", GRID)
def test_every_snapshot_matches_golden(golden, gamma, chunk):
    expected = golden[_key(gamma, chunk)]
    assert IPSS(total_rounds=gamma).k_star(N) == GAMMAS.index(gamma)
    _assert_snapshots_equal(trajectory(gamma, chunk), expected, _key(gamma, chunk))


@pytest.mark.parametrize("gamma,chunk", GRID)
def test_json_round_trip_resume_at_every_phase2_boundary(golden, gamma, chunk):
    expected = golden[_key(gamma, chunk)]
    phase2 = [i for i, snapshot in enumerate(expected) if snapshot["stderr"] is not None]
    assert phase2, "every grid point has a phase-2 stratum"
    # Resume after the last phase-1 chunk and after every non-final phase-2
    # chunk: each is a boundary where the saved payload is phase-2 shaped.
    for stop in [phase2[0] - 1] + phase2[:-1]:
        game = monotone_game(N, seed=GAME_SEED)
        stream = _algorithm(gamma, chunk).iter_run(game, N)
        for _ in range(stop + 1):
            snapshot = next(stream)
        encoded = json.dumps(snapshot.state.to_dict())
        state = EstimatorState.from_dict(json.loads(encoded))
        resumed = trajectory(gamma, chunk, state=state)
        _assert_snapshots_equal(
            resumed, expected[stop + 1 :], f"{_key(gamma, chunk)} resumed@{stop + 1}"
        )


def record() -> None:
    golden = {
        _key(gamma, chunk): trajectory(gamma, chunk)
        for gamma in GAMMAS
        for chunk in CHUNK_SIZES
    }
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    record()
