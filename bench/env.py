"""Where the benchmark finds the library, and the machine facts it records.

The benchmark always runs the library from the source tree next to it
(``src/cdbundle`` of the same checkout), never an installed copy, so that
two checkouts measure their own code.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


class SourceTreeMissing(RuntimeError):
    pass


def use_source_tree() -> None:
    """Put ``src`` first on the import path and check cdbundle comes from it."""
    if not (SRC / "cdbundle" / "__init__.py").is_file():
        raise SourceTreeMissing(f"no cdbundle package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cdbundle

    if Path(cdbundle.__file__).resolve().parent != SRC / "cdbundle":
        raise SourceTreeMissing(f"cdbundle was imported from {cdbundle.__file__}, not {SRC}")


def child_env() -> dict:
    """Environment for child interpreters: the same source tree first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
    }
