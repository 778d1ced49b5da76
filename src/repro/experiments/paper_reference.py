"""The paper's reported numbers, kept as data for paper-vs-measured comparisons.

Only the values needed for qualitative paper-vs-measured "shape" checks
are recorded: the relative ℓ2 errors of Table IV (FEMNIST) and Table V
(Adult), and the headline claims of the remaining experiments.  Times are not
recorded because absolute wall-clock depends entirely on the authors' GPU
testbed; the relevant reproducible quantity is the *ordering* and the
evaluation counts.
"""

from __future__ import annotations

#: Table IV — relative l2 error on FEMNIST, by model / n / algorithm.
PAPER_TABLE4_ERRORS: dict[str, dict[int, dict[str, float]]] = {
    "mlp": {
        3: {
            "DIG-FL": 5.01, "Extended-TMC": 0.79, "Extended-GTB": 0.59,
            "CC-Shapley": 0.35, "GTG-Shapley": 0.90, "OR": 2.46,
            "lambda-MR": 0.88, "IPSS": 0.06,
        },
        6: {
            "DIG-FL": 0.70, "Extended-TMC": 0.96, "Extended-GTB": 0.90,
            "CC-Shapley": 1.93, "GTG-Shapley": 0.89, "OR": 3.13,
            "lambda-MR": 0.87, "IPSS": 0.49,
        },
        10: {
            "DIG-FL": 0.77, "Extended-TMC": 0.82, "Extended-GTB": 0.85,
            "CC-Shapley": 1.16, "GTG-Shapley": 0.85, "OR": 3.09,
            "lambda-MR": 0.83, "IPSS": 0.02,
        },
    },
    "cnn": {
        3: {
            "DIG-FL": 95.14, "Extended-TMC": 0.81, "Extended-GTB": 0.60,
            "CC-Shapley": 0.02, "GTG-Shapley": 0.87, "OR": 0.46,
            "lambda-MR": 0.73, "IPSS": 0.01,
        },
        6: {
            "DIG-FL": 78.25, "Extended-TMC": 0.91, "Extended-GTB": 0.70,
            "CC-Shapley": 0.40, "GTG-Shapley": 0.76, "OR": 0.35,
            "lambda-MR": 0.73, "IPSS": 0.02,
        },
        10: {
            "DIG-FL": 98.42, "Extended-TMC": 0.83, "Extended-GTB": 0.87,
            "CC-Shapley": 2.60, "GTG-Shapley": 0.75, "OR": 0.76,
            "lambda-MR": 0.71, "IPSS": 0.02,
        },
    },
}

#: Table V — relative l2 error on Adult, by model / n / algorithm.
PAPER_TABLE5_ERRORS: dict[str, dict[int, dict[str, float]]] = {
    "mlp": {
        3: {
            "DIG-FL": 1.02, "Extended-TMC": 1.46, "Extended-GTB": 1.89,
            "CC-Shapley": 0.09, "GTG-Shapley": 5.30, "OR": 1.00,
            "lambda-MR": 2.93, "IPSS": 0.05,
        },
        6: {
            "DIG-FL": 1.12, "Extended-TMC": 2.30, "Extended-GTB": 2.02,
            "CC-Shapley": 0.18, "GTG-Shapley": 3.65, "OR": 1.00,
            "lambda-MR": 3.21, "IPSS": 0.13,
        },
        10: {
            "DIG-FL": 1.23, "Extended-TMC": 2.19, "Extended-GTB": 1.97,
            "CC-Shapley": 0.09, "GTG-Shapley": 3.95, "OR": 0.99,
            "lambda-MR": 3.83, "IPSS": 0.08,
        },
    },
    "xgb": {
        3: {
            "DIG-FL": 0.95, "Extended-TMC": 1.38, "Extended-GTB": 0.45,
            "CC-Shapley": 0.27, "IPSS": 0.04,
        },
        6: {
            "DIG-FL": 0.98, "Extended-TMC": 2.16, "Extended-GTB": 1.77,
            "CC-Shapley": 0.13, "IPSS": 0.07,
        },
        10: {
            "DIG-FL": 0.98, "Extended-TMC": 1.41, "Extended-GTB": 1.59,
            "CC-Shapley": 0.13, "IPSS": 0.12,
        },
    },
}

#: Qualitative claims reproduced by the remaining experiments.
PAPER_CLAIMS: dict[str, str] = {
    "figure1b": "No existing method is simultaneously as fast and as accurate as IPSS "
    "on FEMNIST with ten clients.",
    "figure4": "K-Greedy relative error drops below 1% for K <= 2 on FEMNIST/CNN with "
    "ten clients and keeps decreasing in K (key combinations phenomenon).",
    "figure6": "IPSS attains the lowest error in all five synthetic setups while being "
    "among the two fastest methods.",
    "figure7": "IPSS reaches errors below 1e-2 with gamma < 100 and is more stable than "
    "CC-Shapley, which needs gamma > 200.",
    "figure8": "IPSS is Pareto-optimal in the time/error trade-off for 3, 6 and 10 clients.",
    "figure9": "With gamma = n*log(n), IPSS runs faster than the other sampling methods at "
    "20-100 clients and best satisfies the no-free-rider / symmetry proxies.",
    "figure10": "MC-SV has lower estimator variance than CC-SV across client counts and "
    "budgets, for both MLP and CNN models.",
}


def paper_best_algorithm(table: dict[int, dict[str, float]], n_clients: int) -> str:
    """Name of the algorithm with the lowest paper-reported error for ``n``."""
    errors = table[n_clients]
    return min(errors, key=errors.get)
