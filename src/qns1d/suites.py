"""Named verification suites: identities, inequalities, noise bounds, convergence.

Each check returns a CheckResult; the CLI renders them as a pass/fail table
and the acceptance tests assert on them. Thresholds live here, next to the
checks, so the CLI and the test suite cannot drift apart.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .functionals import (
    bd_pressure_identity_residual,
    bd_quantum_identity_residual,
    functional_inequality_margin,
    nonneg_combination_check,
)
from .integrator import strong_convergence_order
from .model import ModelParams, State, quantum_identity_residual
from .noise import NoiseModel
from .spectral import RealField, TorusGrid


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    value: float
    threshold: float
    comparison: str  # "<=" or ">="
    runtime_s: float
    detail: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.suite}/{self.name}: value={self.value:.4g} "
                f"{self.comparison} {self.threshold:.4g} ({self.runtime_s:.2f}s)")


def _check(suite: str, name: str, value: float, threshold: float,
           comparison: str, t0: float, detail: dict | None = None) -> CheckResult:
    ok = value <= threshold if comparison == "<=" else value >= threshold
    return CheckResult(suite=suite, name=name, passed=bool(ok), value=float(value),
                       threshold=float(threshold), comparison=comparison,
                       runtime_s=time.perf_counter() - t0, detail=detail or {})


def density_corpus(grid: TorusGrid, count: int = 20, seed: int = 42) -> list[RealField]:
    """Random smooth strictly positive densities rho = exp(band-limited psi),
    mode j of psi with standard deviation 0.3/j."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        psi = np.zeros(grid.n_collocation)
        for j in range(1, 5):
            psi += (rng.normal(0.0, 0.3 / j) * np.cos(2 * np.pi * j * grid.x)
                    + rng.normal(0.0, 0.3 / j) * np.sin(2 * np.pi * j * grid.x))
        out.append(RealField.from_physical(np.exp(psi), grid))
    return out


def positive_field_corpus(grid: TorusGrid) -> list[RealField]:
    """100 random positive band-limited fields (band-limited bump plus a floor)."""
    rng = np.random.default_rng(7)
    out = []
    for _ in range(100):
        f = np.zeros(grid.n_collocation)
        for j in range(1, 9):
            f += (rng.normal(0.0, 1.0 / j**2) * np.cos(2 * np.pi * j * grid.x)
                  + rng.normal(0.0, 1.0 / j**2) * np.sin(2 * np.pi * j * grid.x))
        floor = 0.3 * (np.max(f) - np.min(f)) + 1e-3
        out.append(RealField.from_physical(f - np.min(f) + floor, grid))
    return out


def suite_identities() -> list[CheckResult]:
    """Quantum identity, BD pressure identity, BD quantum identity."""
    results = []
    grid = TorusGrid(256, 64)

    for label, values in (("rho=2+cos", 2.0 + np.cos(2.0 * np.pi * grid.x)),
                          ("rho=exp(0.3sin4pix)", np.exp(0.3 * np.sin(4.0 * np.pi * grid.x)))):
        t0 = time.perf_counter()
        res = quantum_identity_residual(RealField.from_physical(values, grid), grid)
        results.append(_check("identities", f"quantum-residual[{label}]",
                              res, 1e-7, "<=", t0))

    # spectral decay in the Galerkin band for a slowly-decaying analytic density
    t0 = time.perf_counter()
    n = 1024
    residuals = []
    for m in (32, 64, 128):
        gm = TorusGrid(n, m)
        rho = RealField.from_physical(1.0 + 0.95 * np.cos(2.0 * np.pi * gm.x), gm)
        residuals.append(quantum_identity_residual(rho, gm))
    worst_ratio = max(residuals[1] / residuals[0], residuals[2] / residuals[1])
    results.append(_check("identities", "quantum-residual-spectral-decay",
                          worst_ratio, 1e-2, "<=", t0,
                          {"residuals_m_32_64_128": residuals}))

    corpus = density_corpus(grid, count=20)
    t0 = time.perf_counter()
    worst = 0.0
    for rho in corpus:
        for gamma in (1.5, 2.0):
            for alpha in (0.0, 0.5, 1.0):
                params = ModelParams(gamma=gamma, alpha=alpha)
                residual, rhs = bd_pressure_identity_residual(rho, params, grid)
                worst = max(worst, residual / max(rhs, 1e-300))
    results.append(_check("identities", "bd-pressure-identity-relative",
                          worst, 1e-8, "<=", t0))

    t0 = time.perf_counter()
    worst = 0.0
    for rho in corpus:
        for alpha in (0.5, 1.0, 1.4):
            worst = max(worst, bd_quantum_identity_residual(rho, alpha, grid))
    results.append(_check("identities", "bd-quantum-identity", worst, 1e-7, "<=", t0))
    return results


def suite_inequality_916() -> list[CheckResult]:
    """9/16 functional inequality: positivity and qualitative near-sharpness."""
    results = []
    grid = TorusGrid(256, 85)
    t0 = time.perf_counter()
    margins = [functional_inequality_margin(f, grid)[0]
               for f in positive_field_corpus(grid)]
    results.append(_check("inequality-916", "margin-nonnegative-100-fields",
                          min(margins), -1e-10, ">=", t0))

    # near-sharpness: profiles approaching the x^(3/2) equality shape push the
    # normalized margin monotonically toward zero
    t0 = time.perf_counter()
    gf = TorusGrid(8192, 2730)
    rel = []
    for delta in (0.4, 0.2, 0.1, 0.05, 0.02):
        f = RealField.from_physical(
            (delta**2 + np.sin(np.pi * gf.x) ** 2) ** 0.75, gf)
        margin, lhs = functional_inequality_margin(f, gf, oversample=4)
        rel.append(margin / lhs)
    decreasing = all(b < a for a, b in zip(rel, rel[1:]))
    results.append(_check("inequality-916", "normalized-margin-shrinks",
                          1.0 if decreasing else 0.0, 1.0, ">=", t0,
                          {"normalized_margins": rel}))
    return results


def suite_nonneg_combination() -> list[CheckResult]:
    results = []
    grid = TorusGrid(256, 85)
    corpus = density_corpus(grid, count=10, seed=3)
    t0 = time.perf_counter()
    worst = np.inf
    for rho in corpus:
        for alpha in (0.25, 0.5, 0.75, 1.0, 1.25, 1.5):
            worst = min(worst, nonneg_combination_check(rho, alpha, grid))
    results.append(_check("nonneg-combination", "combination-nonnegative",
                          worst, -1e-10, ">=", t0))
    t0 = time.perf_counter()
    signed = min(nonneg_combination_check(rho, 1.6, grid) for rho in corpus)
    results.append(_check("nonneg-combination", "combination-signed-beyond-range",
                          signed, 0.0, "<=", t0))
    return results


def suite_noise_bounds() -> list[CheckResult]:
    results = []
    t0 = time.perf_counter()
    model = NoiseModel(base_amplitude=0.05)
    report = model.verify_bounds()
    results.append(_check("noise-bounds", "family-bounds-lattice",
                          report["worst_partial_over_bound"], 1.0, "<=", t0, report))
    t0 = time.perf_counter()
    results.append(_check("noise-bounds", "linear-growth-bound",
                          report["growth_measured"], report["growth_constant"],
                          "<=", t0))
    return results


def convergence_setup() -> tuple[State, ModelParams, TorusGrid]:
    grid = TorusGrid(32, 10)
    params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=500.0)
    psi = RealField.from_physical(0.1 * np.cos(2.0 * np.pi * grid.x), grid)
    u = RealField.from_physical(0.1 * np.sin(2.0 * np.pi * grid.x), grid)
    return State(psi, u, 0.0), params, grid


def suite_convergence(n_paths: int = 16, master_seed: int = 2024) -> list[CheckResult]:
    """Strong pathwise self-convergence in the three noise modes.

    One ``strong_convergence_order`` call runs the three studies, and so
    every path of every mode and dt level, as one lockstep batch. Each
    check's ``runtime_s`` therefore runs from the start of that call.
    """
    initial, params, grid = convergence_setup()
    t_end = 0.25
    dts = [t_end * 2.0**-8, t_end * 2.0**-9, t_end * 2.0**-10,
           t_end * 2.0**-11, t_end * 2.0**-12]
    modes = [
        ("deterministic", NoiseModel(base_amplitude=0.0), 0.8, 1),
        ("additive", NoiseModel(base_amplitude=0.05, shape="off"), 0.8, n_paths),
        ("multiplicative", NoiseModel(base_amplitude=0.05), 0.4, n_paths),
    ]
    t0 = time.perf_counter()
    convs = strong_convergence_order(initial, params, [noise for _, noise, _, _ in modes], grid,
                                     dts, [paths for *_, paths in modes], master_seed, t_end)
    return [_check("convergence", f"strong-order-{name}", conv.order, floor, ">=", t0,
                   {"dts": list(conv.dts), "errors": list(conv.errors)})
            for (name, _, floor, _), conv in zip(modes, convs)]


SUITES = {
    "identities": suite_identities,
    "inequality-916": suite_inequality_916,
    "nonneg-combination": suite_nonneg_combination,
    "noise-bounds": suite_noise_bounds,
    "convergence": suite_convergence,
}


def run_suites(names: list[str]) -> list[CheckResult]:
    out: list[CheckResult] = []
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite '{name}'; available: {sorted(SUITES)}")
        out.extend(SUITES[name]())
    return out
