"""Environment record and host-speed probe, stored beside every run's numbers.

The probe times a fixed numpy FFT loop before each run. It gates nothing: it
lets a reader tell a slow program from a slow host, since shared hosts drift.
"""

from __future__ import annotations

import importlib.metadata
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

PROBE_N = 256
PROBE_PAIRS = 500
PROBE_PASSES = 5


def _git_commit(root: Path) -> str:
    """Commit of a git checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def environment(root: Path) -> dict:
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "absent"
    return {
        "machine": platform.machine(),
        "system": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": _blas(),
        "git_commit": _git_commit(root),
    }


def fft_probe_ms() -> float:
    """Median milliseconds per pass of PROBE_PAIRS rfft/irfft pairs at n=256."""
    x = np.random.default_rng(0).standard_normal(PROBE_N)
    passes = []
    for _ in range(PROBE_PASSES):
        t0 = time.perf_counter()
        for _ in range(PROBE_PAIRS):
            np.fft.irfft(np.fft.rfft(x), n=PROBE_N)
        passes.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(passes)
