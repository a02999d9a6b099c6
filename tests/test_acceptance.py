"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail lines;
each test also enforces its stated wall-clock budget.
"""

import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest

from qns1d.cli import main as cli_main, write_records_csv
from qns1d.ensemble import EnsembleConfig, run_ensemble
from qns1d.functionals import (
    bd_pressure_identity_residual,
    bd_quantum_identity_residual,
    nonneg_combination_check,
)
from qns1d.integrator import MonitorSpec, StepConfig, simulate_path
from qns1d.model import ModelParams, State, quantum_identity_residual
from qns1d.noise import NoiseModel, derive_path_seed
from qns1d.spectral import RealField, TorusGrid, project
from qns1d.suites import (
    density_corpus,
    suite_convergence,
    suite_inequality_916,
    suite_noise_bounds,
)

NO_NOISE = NoiseModel(base_amplitude=0.0)


def make_state(grid, psi_values, u_values):
    return State(project(RealField.from_physical(psi_values, grid), grid),
                 project(RealField.from_physical(u_values, grid), grid), 0.0)


def standard_state(grid, amp=0.1):
    return make_state(grid, amp * np.cos(2 * np.pi * grid.x),
                      amp * np.sin(2 * np.pi * grid.x))


def report(number: int, title: str, ok: bool, elapsed: float, budget: float,
           detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number:2d} ({title}): {detail} "
          f"[{elapsed:.1f}s / budget {budget:.0f}s]")
    assert ok, f"criterion {number} failed: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded budget: {elapsed:.1f}s"


def test_criterion_01_quantum_identity():
    t0 = time.perf_counter()
    grid = TorusGrid(256, 64)
    residuals = {}
    for label, values in (("2+cos", 2.0 + np.cos(2 * np.pi * grid.x)),
                          ("exp03sin", np.exp(0.3 * np.sin(4 * np.pi * grid.x)))):
        rho = RealField.from_physical(values, grid)
        residuals[label] = quantum_identity_residual(rho, grid)
    decay = []
    for m in (32, 64, 128):
        g = TorusGrid(1024, m)
        rho = RealField.from_physical(1.0 + 0.95 * np.cos(2 * np.pi * g.x), g)
        decay.append(quantum_identity_residual(rho, g))
    ok = (all(r < 1e-7 for r in residuals.values())
          and decay[1] < decay[0] / 100.0 and decay[2] < decay[1] / 100.0)
    report(1, "quantum identity", ok, time.perf_counter() - t0, 1.0,
           f"residuals={[f'{v:.2e}' for v in residuals.values()]}, "
           f"decay m=32/64/128: {[f'{v:.2e}' for v in decay]}")


def test_criterion_02_bd_pressure_identity():
    t0 = time.perf_counter()
    grid = TorusGrid(256, 85)
    worst = 0.0
    for rho in density_corpus(grid, count=20):
        for gamma in (1.5, 2.0):
            for alpha in (0.0, 0.5, 1.0):
                params = ModelParams(gamma=gamma, alpha=alpha)
                residual, rhs = bd_pressure_identity_residual(rho, params, grid)
                rel = residual / max(rhs, 1e-300)
                worst = max(worst, rel)
    report(2, "BD pressure identity", worst < 1e-8, time.perf_counter() - t0, 5.0,
           f"worst relative residual {worst:.2e} < 1e-8 over 20 densities x 6 (gamma, alpha)")


def test_criterion_03_bd_quantum_identity():
    t0 = time.perf_counter()
    grid = TorusGrid(256, 85)
    worst = 0.0
    for rho in density_corpus(grid, count=20):
        for alpha in (0.5, 1.0, 1.4):
            worst = max(worst, bd_quantum_identity_residual(rho, alpha, grid))
    report(3, "BD quantum theta=alpha/2 identity", worst < 1e-7,
           time.perf_counter() - t0, 5.0,
           f"worst residual {worst:.2e} < 1e-7 for alpha in (0.5, 1, 1.4)")


def test_criterion_04_functional_inequality():
    t0 = time.perf_counter()
    results = suite_inequality_916()
    ok = all(r.passed for r in results)
    margins = next(r for r in results if r.name == "normalized-margin-shrinks")
    report(4, "9/16 functional inequality", ok, time.perf_counter() - t0, 5.0,
           f"min margin {results[0].value:.3g} >= -1e-10 on 100 fields; "
           f"normalized margins {['%.3f' % v for v in margins.detail['normalized_margins']]}")


def test_criterion_05_mass_conservation():
    t0 = time.perf_counter()
    grid = TorusGrid(256, 85)
    params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=200.0)
    st = standard_state(grid)
    dts = (2e-4, 1e-4)
    # both dt levels step as one mixed-dt batch, each path bit for bit its lone run
    batch = simulate_path([st] * len(dts), [StepConfig(dt=dt, t_end=1.0) for dt in dts],
                          params, NO_NOISE, [0] * len(dts), grid, MonitorSpec(stride=100))
    drifts = {}
    for dt, res in zip(dts, batch):
        masses = [r.mass for r in res.records]
        drifts[dt] = max(abs(m - masses[0]) for m in masses) / masses[0]
    ratio = drifts[2e-4] / drifts[1e-4]
    ok = drifts[2e-4] < 1e-8 and ratio >= 3.5
    report(5, "mass conservation", ok, time.perf_counter() - t0, 30.0,
           f"drift(dt=2e-4)={drifts[2e-4]:.2e} < 1e-8, halving ratio {ratio:.2f} >= 3.5")


@pytest.fixture(scope="module")
def energy_budget_runs():
    """Zero-noise trajectories shared by criteria 6 and 7, both dt levels
    stepped as one mixed-dt batch."""
    grid = TorusGrid(256, 85)
    params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=200.0)
    st = standard_state(grid)
    dts = (4e-4, 2e-4)
    batch = simulate_path([st] * len(dts), [StepConfig(dt=dt, t_end=0.25) for dt in dts],
                          params, NO_NOISE, [0] * len(dts), grid, MonitorSpec(stride=1))
    return {dt: res.records for dt, res in zip(dts, batch)}


def test_criterion_06_energy_dissipation(energy_budget_runs):
    t0 = time.perf_counter()
    residuals = {}
    overshoot = {}
    for dt, records in energy_budget_runs.items():
        e = np.array([r.energy for r in records])
        d = np.array([r.energy_dissipation_rate for r in records])
        cumulative = np.concatenate([[0.0], np.cumsum(dt * d[:-1])])
        budget = e + cumulative - e[0]
        residuals[dt] = float(np.max(np.abs(budget)))
        overshoot[dt] = float(np.max(budget))
    ratio = residuals[2e-4] / residuals[4e-4]
    # E(t) + sum dt*D <= E(0) + C dt with C dt the measured residual, halving
    ok = 0.35 <= ratio <= 0.65 and overshoot[4e-4] <= residuals[4e-4] + 1e-15
    report(6, "energy dissipation budget", ok, time.perf_counter() - t0, 60.0,
           f"residual(4e-4)={residuals[4e-4]:.2e}, halving ratio {ratio:.3f} in [0.35, 0.65]")


def test_criterion_07_bd_dissipation_nonnegative(energy_budget_runs):
    t0 = time.perf_counter()
    worst = np.inf
    n_records = 0
    for records in energy_budget_runs.values():
        for rec in records[:: 50]:
            worst = min(worst, min(rec.bd_terms))
            n_records += 1
    # extend the matrix across the alpha range with positive weights
    grid = TorusGrid(64, 21)
    st = standard_state(grid)
    for alpha in (0.3, 1.0, 4.0 / 3.0):
        params = ModelParams(gamma=1.8, alpha=alpha, cutoff_radius=200.0)
        res = simulate_path(st, StepConfig(dt=5e-4, t_end=0.1), params, NO_NOISE,
                            0, grid, MonitorSpec(stride=20))
        for rec in res.records:
            worst = min(worst, min(rec.bd_terms))
            n_records += 1
    # alpha in (4/3, 3/2]: the quartic weight flips sign; there the paper's
    # nonnegativity statement is the combined bound, monitored directly
    params = ModelParams(gamma=1.8, alpha=1.4, cutoff_radius=200.0)
    res = simulate_path(st, StepConfig(dt=5e-4, t_end=0.1), params, NO_NOISE,
                        0, grid, MonitorSpec(stride=20, collect_records=False))
    combo = nonneg_combination_check(
        RealField.from_physical(np.exp(res.final_state.psi.physical), grid), 1.4, grid)
    ok = worst >= -1e-12 and combo >= -1e-10
    report(7, "BD dissipation nonnegativity", ok, time.perf_counter() - t0, 60.0,
           f"min bd_term {worst:.2e} over {n_records} records "
           f"(alpha in (0, 4/3]); combined bound {combo:.2e} at alpha=1.4")


def test_criterion_08_strong_convergence():
    t0 = time.perf_counter()
    results = suite_convergence(n_paths=16)
    ok = all(r.passed for r in results)
    orders = {r.name.split("-")[-1]: r.value for r in results}
    report(8, "strong convergence", ok, time.perf_counter() - t0, 300.0,
           f"orders: deterministic {orders['deterministic']:.2f} >= 0.8, "
           f"additive {orders['additive']:.2f} >= 0.8, "
           f"multiplicative {orders['multiplicative']:.2f} >= 0.4")


def test_criterion_09_pathwise_uniqueness_shadow(tmp_path):
    t0 = time.perf_counter()
    grid = TorusGrid(64, 21)
    params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=200.0)
    noise = NoiseModel(base_amplitude=0.05)
    st = standard_state(grid)
    cfg = StepConfig(dt=5e-4, t_end=0.1)
    files = []
    for tag in ("a", "b"):
        res = simulate_path(st, cfg, params, noise, derive_path_seed(9, 0), grid,
                            MonitorSpec(stride=10))
        path = tmp_path / f"run_{tag}.csv"
        write_records_csv(path, res.records)
        files.append(path.read_bytes())
    identical_csv = files[0] == files[1]

    ecfg = EnsembleConfig(n_paths=6, master_seed=9)
    s1, _ = run_ensemble(ecfg, lambda *_: st, cfg, params, noise, grid)
    s2, _ = run_ensemble(ecfg, lambda *_: st, cfg, params, noise, grid)
    ok = identical_csv and s1 == s2
    report(9, "pathwise uniqueness shadow", ok, time.perf_counter() - t0, 60.0,
           f"bit-identical monitor CSVs: {identical_csv}; "
           f"ensemble summaries identical: {s1 == s2}")


def test_criterion_10_vacuum_avoidance(tmp_path, monkeypatch):
    t0 = time.perf_counter()
    monkeypatch.setenv("QNS1D_OUTPUT_ROOT", str(tmp_path))
    config = {
        "grid": {"n_collocation": 64, "m_modes": 21, "dealias": True},
        "model": {"gamma": 1.5, "alpha": 0.5, "cutoff_radius": 300.0,
                  "monitor_order": 4,
                  "initial_condition": {"kind": "harmonic_perturbation",
                                         "rho0": 1.0, "eps": 0.1, "modes": [1],
                                         "velocity_eps": 0.1, "velocity_modes": [1]}},
        "noise": {"k_modes": 16, "base_amplitude": 0.2, "amplitude_decay": 3.0,
                   "shape": "trig_density_weighted"},
        "integration": {"dt": 5e-4, "t_end": 0.5, "scheme": "imex_cn"},
        "ensemble": {"n_paths": 64, "master_seed": 64, "moment_orders": [1, 2],
                      "r_sweep": [6.0, 9.0, 300.0], "output_stride": 10},
        "output": {"directory": "runs/vacuum", "per_path_csv": False},
    }
    cfg_path = tmp_path / "vacuum.json"
    cfg_path.write_text(json.dumps(config))
    exit_code = cli_main(["sweep-r", str(cfg_path)])
    summary = json.loads((tmp_path / "runs/vacuum/summary.json").read_text())
    initial_min_rho = 0.9
    min_rho = summary["vacuum"]["min_rho"]
    with open(tmp_path / "runs/vacuum/sweep.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    fractions = [float(r[1]) for r in rows]
    monotone = all(b <= a for a, b in zip(fractions, fractions[1:]))
    ok = (exit_code == 0 and min_rho >= 0.1 * initial_min_rho and monotone
          and summary["blowup_fraction"] == 0.0)
    report(10, "vacuum avoidance", ok, time.perf_counter() - t0, 600.0,
           f"64-path min rho {min_rho:.3f} >= {0.1 * initial_min_rho}; "
           f"stopping fractions {fractions} non-increasing: {monotone}")


def test_criterion_11_cutoff_inactivity():
    t0 = time.perf_counter()
    grid = TorusGrid(64, 21)
    noise = NoiseModel(base_amplitude=0.05)
    st = standard_state(grid)
    cfg = StepConfig(dt=5e-4, t_end=0.2)
    radius = 30.0  # initial norms ~4, trajectories stay below R/2 throughout
    outs = []
    for r in (radius, 2 * radius):
        params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=r)
        res = simulate_path(st, cfg, params, noise, derive_path_seed(11, 0), grid,
                            MonitorSpec(stride=20))
        outs.append(res)
    norms_below = float(np.max(np.maximum(outs[0].norm_trace[:, 1],
                                          outs[0].norm_trace[:, 2])))
    bitwise = (np.array_equal(outs[0].final_state.psi.spectral,
                              outs[1].final_state.psi.spectral)
               and np.array_equal(outs[0].final_state.u.spectral,
                                  outs[1].final_state.u.spectral)
               and all(a.to_row() == b.to_row()
                       for a, b in zip(outs[0].records, outs[1].records)))
    ok = bitwise and norms_below <= radius / 2
    report(11, "cut-off inactivity", ok, time.perf_counter() - t0, 30.0,
           f"norms stayed <= {norms_below:.2f} <= R/2={radius / 2}; "
           f"R vs 2R trajectories bit-identical: {bitwise}")


def test_criterion_12_noise_hypotheses():
    t0 = time.perf_counter()
    results = suite_noise_bounds()
    ok = all(r.passed for r in results)
    lattice = results[0].detail
    report(12, "noise hypotheses", ok, time.perf_counter() - t0, 10.0,
           f"lattice bounds ok (worst partial/bound "
           f"{lattice['worst_partial_over_bound']:.3f}), growth constant "
           f"{lattice['growth_constant']:.3f}, vanishes at rest, "
           f"tail bound {lattice['tail_bound']:.2e}")
