import json

import numpy as np
import pytest

from qns1d.integrator import MonitorSpec, StepConfig, simulate_path
from qns1d.model import ModelParams, State
from qns1d.noise import NoiseModel
from qns1d.spectral import RealField, TorusGrid, hs_norm, project

from oracle import (
    CflError,
    OracleReport,
    dense_quadrature,
    fd_derivative,
    linear_propagator,
    reference_trajectory,
    rk4_stability_limit,
    trig_eval,
)

BESSEL_I0_1 = 1.2660658777520084


def make_state(grid, psi_values, u_values):
    return State(project(RealField.from_physical(psi_values, grid), grid),
                 project(RealField.from_physical(u_values, grid), grid), 0.0)


class TestDenseQuadrature:
    def test_unit_integrand(self, grid64):
        one = RealField.from_physical(np.ones(64), grid64)
        assert dense_quadrature(lambda x, f: f, [one], grid64) == pytest.approx(1.0)

    def test_sin_squared(self, grid64):
        s = RealField.from_physical(np.sin(2 * np.pi * grid64.x), grid64)
        got = dense_quadrature(lambda x, f: f**2, [s], grid64)
        assert got == pytest.approx(0.5, abs=1e-14)

    def test_exp_sin_bessel(self, grid64):
        s = RealField.from_physical(np.sin(2 * np.pi * grid64.x), grid64)
        got = dense_quadrature(lambda x, f: np.exp(f), [s], grid64, oversample=16)
        assert got == pytest.approx(BESSEL_I0_1, abs=1e-10)

    def test_oversample_floor(self, grid64):
        one = RealField.from_physical(np.ones(64), grid64)
        with pytest.raises(ValueError):
            dense_quadrature(lambda x, f: f, [one], grid64, oversample=2)


class TestTrigEval:
    def test_matches_physical_samples(self, grid64, rng):
        from conftest import band_limited
        f = band_limited(grid64, rng)
        vals = trig_eval(f, grid64, grid64.x)
        assert np.max(np.abs(vals - f.physical)) < 1e-12

    def test_derivative_order(self, grid64):
        f = RealField.from_physical(np.sin(2 * np.pi * grid64.x), grid64)
        x = np.linspace(0, 1, 37, endpoint=False)
        got = trig_eval(f, grid64, x, order=1)
        assert np.max(np.abs(got - 2 * np.pi * np.cos(2 * np.pi * x))) < 1e-12


class TestFdDerivative:
    def test_sixth_order_convergence(self):
        errs = []
        for n in (64, 128):
            x = np.arange(n) / n
            d = fd_derivative(np.sin(2 * np.pi * x), 1, 1.0 / n)
            errs.append(np.max(np.abs(d - 2 * np.pi * np.cos(2 * np.pi * x))))
        assert errs[1] < errs[0] / 32.0

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            fd_derivative(np.zeros(16), 3, 0.1)


class TestReferenceTrajectory:
    def test_cfl_guard(self, grid64):
        params = ModelParams(gamma=1.5, alpha=0.5)
        st = make_state(grid64, np.zeros(64), np.zeros(64))
        with pytest.raises(CflError):
            reference_trajectory(st, params, grid64, t_end=0.1, dt_fine=1e-2)

    def test_linear_regime_matches_propagator(self):
        # zero noise, infinitesimal amplitude: RK4 should track the matrix
        # exponential of the linearization to 1e-10 relative over T = 0.01
        grid = TorusGrid(32, 10)
        params = ModelParams(gamma=1.5, alpha=1.0, cutoff_radius=100.0)
        amp, mode, t_end = 1e-8, 2, 0.01
        spec = np.zeros(grid.n_half, dtype=complex)
        spec[mode] = amp
        st = State(RealField.from_spectral(spec, grid),
                   RealField.from_spectral(np.zeros_like(spec), grid), 0.0)
        out = reference_trajectory(st, params, grid, t_end=t_end, dt_fine=2e-5)
        exact = linear_propagator(2 * np.pi * mode, params.gamma, 1.0, t_end) @ \
            np.array([amp, 0.0])
        err = max(abs(out.psi.spectral[mode] - exact[0]),
                  abs(out.u.spectral[mode] - exact[1])) / amp
        assert err < 1e-10

    def test_self_consistency_under_refinement(self):
        grid = TorusGrid(32, 10)
        params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=100.0)
        st = make_state(grid, 0.1 * np.cos(2 * np.pi * grid.x),
                        0.1 * np.sin(2 * np.pi * grid.x))
        a = reference_trajectory(st, params, grid, t_end=0.02, dt_fine=2e-4)
        b = reference_trajectory(st, params, grid, t_end=0.02, dt_fine=1e-4)
        diff = hs_norm(RealField.from_spectral(a.u.spectral - b.u.spectral, grid),
                       0, grid)
        assert diff < 1e-10

    def test_imex_discrepancy_first_order(self):
        grid = TorusGrid(32, 10)
        params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=100.0)
        st = make_state(grid, 0.1 * np.cos(2 * np.pi * grid.x),
                        0.1 * np.sin(2 * np.pi * grid.x))
        ref = reference_trajectory(st, params, grid, t_end=0.02, dt_fine=1e-4)
        noise = NoiseModel(base_amplitude=0.0)
        errs = []
        for dt in (2e-3, 1e-3):
            res = simulate_path(st, StepConfig(dt=dt, t_end=0.02), params, noise,
                                0, grid, MonitorSpec(collect_records=False))
            errs.append(hs_norm(RealField.from_spectral(
                res.final_state.u.spectral - ref.u.spectral, grid), 0, grid))
        assert errs[1] < 0.75 * errs[0]

    def test_stability_limit_monotone_in_m(self):
        params = ModelParams(gamma=1.5, alpha=0.5)
        assert rk4_stability_limit(TorusGrid(64, 20), params) < \
            rk4_stability_limit(TorusGrid(64, 10), params)


class TestOracleReport:
    def test_compare_and_serialize(self):
        rep = OracleReport.compare("mass", 2.0, 2.0 + 1e-9, {"n": 64})
        assert rep.abs_discrepancy == pytest.approx(1e-9)
        assert rep.rel_discrepancy == pytest.approx(5e-10)
        doc = json.loads(rep.to_json())
        assert doc["quantity"] == "mass"
        assert doc["resolution"] == {"n": 64}
