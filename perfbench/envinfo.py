"""The environment record printed with every result.

The benchmark never sets the BLAS thread count; it records the count the
loaded BLAS library reports, so runs at different counts are told apart.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np

_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_CONFIG_QUERIES = (
    "scipy_openblas_get_config64_",
    "scipy_openblas_get_config",
    "openblas_get_config64_",
    "openblas_get_config",
)


def _loaded_blas() -> str | None:
    """Path of the BLAS shared library mapped into this process, if any."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for line in maps.splitlines():
        path = line.split()[-1] if line.split() else ""
        if "blas" in Path(path).name.lower() and ".so" in path:
            return path
    return None


def _query(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = restype
            return fn()
    return None


def _blas() -> dict:
    try:  # mode="dicts" is new in numpy 1.25
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        info = {}
    out = {"name": info.get("name"), "version": info.get("version"), "threads": None, "config": None}
    path = _loaded_blas()
    if path is None:
        return out
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return out
    out["threads"] = _query(lib, _THREAD_QUERIES, ctypes.c_int)
    config = _query(lib, _CONFIG_QUERIES, ctypes.c_char_p)
    out["config"] = config.decode() if config else None
    return out


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(traced: bool) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "traced": traced,
    }
