"""Process set-up shared by the benchmark's entry points.

Imports nothing heavy: BLAS reads its thread count when numpy loads, so
``pin_threads`` must run before anything imports numpy.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> dict[str, str]:
    """Pin every BLAS/OpenMP pool to one thread; returns the pin as recorded."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def child_env() -> dict[str, str]:
    """Environment for child processes: the same pin, spisep from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("SPISEP_SEED", None)
    return env


def import_spisep() -> float:
    """Import spisep from this checkout's ``src``; returns the import time in seconds.

    Exits with an error, before any result is printed, when the checkout holds
    no ``src/spisep`` or when another installed copy would shadow it.
    """
    if not (SRC / "spisep" / "__init__.py").is_file():
        raise SystemExit(f"error: no spisep package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import spisep

    elapsed = time.perf_counter() - t0
    if not Path(spisep.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported spisep from {spisep.__file__}, not from {SRC}")
    return elapsed
