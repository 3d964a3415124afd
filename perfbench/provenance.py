"""Where and how a result was measured, so numbers from different machines or
settings are never compared silently.

numpy is imported inside functions, after the BLAS threads are pinned.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
from pathlib import Path

from core import BLAS_ENV, ROOT, SRC


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def platform_key() -> dict:
    """What bit-identical artifacts depend on besides the ddqcl sources."""
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "machine": platform.machine(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "simd": sorted(config["SIMD Extensions"]["found"]),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    """sha256 over the ddqcl sources, which identifies the code in a checkout without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "ddqcl").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed: int, load_at_start: tuple[float, float, float]) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **platform_key(),
        "blas_threads_actual": blas_threads(),
        "ddqcl_commit": _git_commit(),
        "ddqcl_sources_sha256": source_digest(),
        "seed": seed,
        "loadavg_at_start": list(load_at_start),
    }
