"""Where the benchmark runs: the checkout's own sources and the machine block.

``pin_blas_threads`` must run before numpy is imported anywhere in the
process, because OpenBLAS reads its thread count when it loads.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads():
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_latentsum(root: Path):
    """Import latentsum from ``root/src`` and nowhere else.

    Raises ImportError when the checkout holds no sources, so a directory
    with only the benchmark in it fails instead of measuring some other copy.
    """
    src = (root / "src").resolve()
    if not (src / "latentsum" / "__init__.py").is_file():
        raise ImportError(f"no latentsum sources under {src}")
    sys.path.insert(0, str(src))
    import latentsum
    import latentsum.cli  # loads every module the pipeline uses

    where = Path(latentsum.__file__).resolve()
    if src not in where.parents:
        raise ImportError(f"latentsum imported from {where}, not from {src}")
    return latentsum


def _openblas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine_block(loadavg: str) -> dict:
    """nproc, Python, numpy, BLAS library and threads, and the load at start."""
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name', '?')} {deps.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _openblas_threads(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "loadavg_at_start": loadavg,
    }


def read_loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return "unavailable"
