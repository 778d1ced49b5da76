"""The machine block stamped on every result, so rows from different boxes compare.

It records the CPU count the process may use, the Python and numpy versions,
the BLAS numpy was built against, and the time of a fixed matmul calibration:
the fastest of 15 rounds of ten 256x256 float64 products.  The fastest round
is used because a shared box can run one process slowly for a second or so
after it starts; the minimum reflects the machine, not that transient.
Dividing a wall time by the calibration gives a rough machine-neutral figure.
"""

from __future__ import annotations

import os
import platform
import time

CALIBRATION_SIZE = 256
CALIBRATION_REPEATS = 10
CALIBRATION_ROUNDS = 15


def _blas_build(numpy_module) -> str:
    try:
        config = numpy_module.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 has no dict mode
        return "unknown"
    blas = config.get("Build Dependencies", {}).get("blas", {})
    name = blas.get("name", "unknown")
    version = blas.get("version", "")
    return f"{name} {version}".strip()


def matmul_calibration_s() -> float:
    import numpy as np

    rng = np.random.default_rng(0)
    left = rng.standard_normal((CALIBRATION_SIZE, CALIBRATION_SIZE))
    right = rng.standard_normal((CALIBRATION_SIZE, CALIBRATION_SIZE))
    timings = []
    for _ in range(CALIBRATION_ROUNDS):
        start = time.perf_counter()
        for _ in range(CALIBRATION_REPEATS):
            left @ right
        timings.append(time.perf_counter() - start)
    return min(timings)


def machine_block() -> dict:
    import numpy as np

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform exposes affinity
        nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_build(np),
        "machine": platform.machine(),
        "matmul_calibration_s": round(matmul_calibration_s(), 6),
    }
