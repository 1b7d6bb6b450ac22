"""Facts about the machine a result was measured on.

`reference_seconds` times a fixed numpy-plus-pure-Python loop. It is
recorded next to every result so that a slower box can be told apart from
a slower program; nothing is normalised by it.
"""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
from time import perf_counter

import numpy as np


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
        "platform": platform.platform(),
    }


def _reference_loop() -> float:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((120, 120))
    sym = a + a.T
    t0 = perf_counter()
    for _ in range(20):
        np.linalg.eigvalsh(sym)
        sym @ sym
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return perf_counter() - t0


def reference_seconds(repeats: int = 3) -> float:
    """Median time of the fixed reference loop."""
    return statistics.median(_reference_loop() for _ in range(repeats))
