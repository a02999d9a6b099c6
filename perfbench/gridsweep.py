"""Untraced timings of single public calls across grid sizes.

Times ``integrator.step``, ``functionals.compute_record`` and
``noise.sample_increment`` at n = 32, 64, 256 and 1024 (m = n/3 modes), on
the quickstart model and noise. ``step()`` builds a fresh stepper workspace
on every call, so the sweep also times the same step inside
``simulate_path`` (monitors off) and reports the difference as the per-call
gap.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from qns1d.functionals import compute_record
from qns1d.integrator import MonitorSpec, StepConfig, simulate_path, step
from qns1d.model import ModelParams, State
from qns1d.noise import NoiseModel, sample_increment
from qns1d.spectral import RealField, TorusGrid, project

GRIDS = ((32, 10), (64, 21), (256, 85), (1024, 341))
SEED = 7
DT = 2e-4
CALLS = 50
REPEATS = 5


def _batch(fn, calls: int) -> float:
    """Mean seconds per call over one batch of calls."""
    t0 = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - t0) / calls


def _state(grid: TorusGrid) -> State:
    x = grid.x
    psi = RealField.from_physical(np.log(1.0 + 0.1 * np.cos(2 * np.pi * x)), grid)
    u = RealField.from_physical(0.1 * np.sin(2 * np.pi * x), grid)
    return State(project(psi, grid), project(u, grid), 0.0)


def grid_sweep() -> dict[str, float]:
    """Medians over REPEATS batches. The step and the simulate_path batches
    alternate, and the gap is the median of their per-batch differences, so
    that host-speed drift between batches cancels."""
    params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=200.0)
    noise = NoiseModel(k_modes=16, base_amplitude=0.02, amplitude_decay=6.0)
    cfg = StepConfig(dt=DT, t_end=CALLS * DT)
    out: dict[str, float] = {}
    for n, m in GRIDS:
        grid = TorusGrid(n, m)
        state = _state(grid)
        steps, gaps, records = [], [], []
        for _ in range(REPEATS):
            step_s = _batch(lambda: step(state, cfg, params, noise, SEED, 0, grid), CALLS)
            path_s = _batch(lambda: simulate_path(state, cfg, params, noise, SEED, grid,
                                                  MonitorSpec(collect_records=False)),
                            1) / cfg.n_steps
            steps.append(step_s)
            gaps.append(step_s - path_s)
            records.append(_batch(lambda: compute_record(state, params, grid), CALLS))
        out[f"integrator.step_us.n{n}"] = 1e6 * statistics.median(steps)
        out[f"integrator.step_gap_us.n{n}"] = 1e6 * statistics.median(gaps)
        out[f"functionals.record_ms.n{n}"] = 1e3 * statistics.median(records)
    out["noise.sample_increment_us"] = 1e6 * statistics.median(
        _batch(lambda: sample_increment(SEED, 0, DT, noise), 200) for _ in range(REPEATS))
    return out
