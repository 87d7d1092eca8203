"""Machine record printed with every result.

The BLAS thread count is read from the loaded OpenBLAS library itself, so
it shows the value the benchmark's processes really ran with.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# what the benchmark pins in its own processes (both sides of a comparison)
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def source_digest() -> str:
    """SHA-256 over the package sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_libraries() -> list:
    libs = []
    try:
        for line in Path("/proc/self/maps").read_text().splitlines():
            path = line.split()[-1]
            if "openblas" in path.lower() and path.endswith(".so") and path not in libs:
                libs.append(path)
    except OSError:
        pass
    return libs


def blas_threads() -> dict:
    """Thread count of every loaded OpenBLAS, by library file name."""
    out = {}
    for path in _blas_libraries():
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[os.path.basename(path)] = fn()
                    break
            if os.path.basename(path) in out:
                break
    return out


def machine_record() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS)

    return {
        "commit": commit(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }
