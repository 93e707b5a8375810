"""The machine and library record stored with every result.

BLAS thread counts are fixed by ``run.py`` before numpy loads; this module
reads back what the loaded libraries actually use.
"""

from __future__ import annotations

import ctypes
import importlib
import os
import platform
import re
import sys

import numpy as np
import scipy

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _loaded_openblas() -> dict[str, int | None]:
    """Thread count of each OpenBLAS library mapped into this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({m.group(1) for m in re.finditer(r"(/\S*openblas\S*\.so\S*)", fh.read())})
    except OSError:
        return {}
    out: dict[str, int | None] = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        getter = None
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                break
        out[os.path.basename(path)] = int(getter()) if getter is not None else None
    return out


def _numba_importable() -> bool:
    try:
        importlib.import_module("numba")
    except ImportError:
        return False
    return True


def record() -> dict:
    """nproc, CPU, interpreter and library versions, DTW kernel, BLAS."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    dtw = sys.modules.get("radial._dtw")
    kernel = "unknown"
    if dtw is not None and hasattr(dtw, "njit"):
        kernel = "numba" if dtw.njit is not None else "python"
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_importable": _numba_importable(),
        "dtw_kernel": kernel,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "env": {k: os.environ.get(k) for k in BLAS_ENV},
            "threads": _loaded_openblas(),
        },
    }
