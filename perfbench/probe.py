"""Set-up probe: bring a fresh interpreter to a ready-to-value state, then exit.

``python3 perfbench/probe.py <fl|game> <seed>`` imports the library, builds
the workload's inputs (the n=250 synthetic task, or the n=500 game and its
oracle) and prints ``ready``.  ``run.py`` times it from spawn to exit, which
is the set-up cost a user pays before the first valuation can start.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)


def main(argv: list) -> int:
    kind, seed = argv[0], int(argv[1])
    if kind == "fl":
        from workloads import fl_spec

        fl_spec(seed).build(None).close()
    elif kind == "game":
        from game import HarsanyiGame
        from repro.parallel import BatchUtilityOracle
        from workloads import GAME_CLIENTS

        game = HarsanyiGame(GAME_CLIENTS, seed)
        game.shapley()
        BatchUtilityOracle(game, n_clients=GAME_CLIENTS).close()
    else:
        print(f"unknown probe {kind!r}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
