import numpy as np
import pytest

from qns1d.functionals import (
    bd_pressure_identity_residual,
    bd_quantum_identity_residual,
    compute_record,
    functional_inequality_margin,
    nonneg_combination_check,
    vacuum_statistics,
)
from qns1d.model import DomainError, ModelParams, State
from qns1d.spectral import RealField, TorusGrid, project

from conftest import band_limited
from oracle import dense_quadrature, fd_derivative, trig_eval

# modified Bessel I_0(1) = integral of exp(sin 2 pi x); frozen from the series
BESSEL_I0_1 = 1.2660658777520084
# compute_record needs model parameters even where a field ignores them
ANY_PARAMS = ModelParams(gamma=1.5, alpha=0.5)


# the monitored functionals, each read from the one record that evaluates them

def mass(state, grid):
    return compute_record(state, ANY_PARAMS, grid).mass


def energy(state, params, grid):
    return compute_record(state, params, grid).energy


def energy_dissipation_rate(state, params, grid):
    return compute_record(state, params, grid).energy_dissipation_rate


def bd_entropy(state, params, grid):
    return compute_record(state, params, grid).bd_entropy


def bd_dissipation_terms(state, params, grid):
    return compute_record(state, params, grid).bd_terms


def make_state(grid, psi_values, u_values):
    return State(project(RealField.from_physical(psi_values, grid), grid),
                 project(RealField.from_physical(u_values, grid), grid), 0.0)


def fd_quadrature(values_fine: np.ndarray, weight_fn, order: int) -> float:
    """FFT-free oracle: 6th-order FD derivative of composed values, averaged."""
    h = 1.0 / values_fine.shape[0]
    d = fd_derivative(values_fine, 1, h) if order == 1 else fd_derivative(values_fine, 2, h)
    return float(np.mean(weight_fn(d)))


class TestMass:
    def test_unit_density(self, grid64):
        st = make_state(grid64, np.zeros(64), np.zeros(64))
        assert mass(st, grid64) == pytest.approx(1.0, abs=1e-14)

    def test_constant_density(self, grid64):
        st = make_state(grid64, np.full(64, np.log(2.0)), np.zeros(64))
        assert mass(st, grid64) == pytest.approx(2.0, abs=1e-13)

    def test_sin_log_density_bessel(self, grid256):
        st = make_state(grid256, np.sin(2 * np.pi * grid256.x), np.zeros(256))
        got = mass(st, grid256)
        # independent high-resolution quadrature oracle, plus the closed form
        oracle = dense_quadrature(lambda x, p: np.exp(p), [st.psi], grid256,
                                  oversample=16)
        assert got == pytest.approx(oracle, abs=1e-10)
        assert got == pytest.approx(BESSEL_I0_1, abs=1e-10)


class TestEnergy:
    def test_pressure_only(self, grid64):
        params = ModelParams(gamma=2.0, alpha=0.5)
        st = make_state(grid64, np.zeros(64), np.zeros(64))
        assert energy(st, params, grid64) == pytest.approx(1.0, abs=1e-14)

    def test_kinetic_closed_form(self, grid64):
        params = ModelParams(gamma=2.0, alpha=0.5)
        st = make_state(grid64, np.zeros(64), np.sin(2 * np.pi * grid64.x))
        assert energy(st, params, grid64) == pytest.approx(1.25, abs=1e-13)

    def test_generic_state_against_oracle(self, grid64, rng):
        params = ModelParams(gamma=1.5, alpha=0.5)
        st = make_state(grid64, 0.2 * np.cos(2 * np.pi * grid64.x),
                        0.3 * np.sin(4 * np.pi * grid64.x))

        def integrand(x, psi, u, dpsi):
            rho = np.exp(psi)
            return (0.5 * rho * u**2 + np.exp(params.gamma * psi) / (params.gamma - 1)
                    + 0.25 * dpsi**2 * rho)

        dpsi = RealField.from_spectral(st.psi.spectral * 1j * grid64.k_half, grid64)
        oracle = dense_quadrature(integrand, [st.psi, st.u, dpsi], grid64, oversample=8)
        assert energy(st, params, grid64) == pytest.approx(oracle, rel=1e-9)

    def test_dissipation_rate_against_oracle(self, grid64):
        params = ModelParams(gamma=1.5, alpha=0.5)
        st = make_state(grid64, 0.2 * np.cos(2 * np.pi * grid64.x),
                        0.3 * np.sin(4 * np.pi * grid64.x))
        du = RealField.from_spectral(st.u.spectral * 1j * grid64.k_half, grid64)
        oracle = dense_quadrature(
            lambda x, psi, duv: np.exp(params.alpha * psi) * duv**2,
            [st.psi, du], grid64, oversample=8)
        assert energy_dissipation_rate(st, params, grid64) == pytest.approx(oracle, rel=1e-9)


class TestEffectiveVelocity:
    """bd_entropy against quadrature, with the effective velocity V = u + Q
    in closed form."""

    @staticmethod
    def entropy_oracle(st, params, grid, v):
        dpsi = RealField.from_spectral(st.psi.spectral * 1j * grid.k_half, grid)

        def integrand(x, psi, dp):
            rho = np.exp(psi)
            return (0.5 * rho * v(x) ** 2 + np.exp(params.gamma * psi) / (params.gamma - 1)
                    + 0.25 * dp**2 * rho)

        return dense_quadrature(integrand, [st.psi, dpsi], grid, oversample=8)

    def test_constant_density_gives_u(self, grid64):
        params = ModelParams(gamma=1.5, alpha=0.7)
        st = make_state(grid64, np.full(64, 0.4), np.sin(2 * np.pi * grid64.x))
        expected = self.entropy_oracle(st, params, grid64, lambda x: np.sin(2 * np.pi * x))
        assert bd_entropy(st, params, grid64) == pytest.approx(expected, rel=1e-13)

    def test_alpha_one_logarithmic_reduction(self, grid64):
        # alpha = 1: Q = dpsi/dx
        params = ModelParams(gamma=1.5, alpha=1.0)
        st = make_state(grid64, 0.2 * np.cos(2 * np.pi * grid64.x),
                        0.1 * np.sin(2 * np.pi * grid64.x))
        expected = self.entropy_oracle(
            st, params, grid64,
            lambda x: 0.1 * np.sin(2 * np.pi * x) - 0.4 * np.pi * np.sin(2 * np.pi * x))
        assert bd_entropy(st, params, grid64) == pytest.approx(expected, rel=1e-13)

    def test_alpha_half_closed_form(self, grid256):
        # rho = 2 + cos: Q = rho^(-1.5) * drho pointwise
        params = ModelParams(gamma=1.5, alpha=0.5)
        rho_vals = 2.0 + np.cos(2 * np.pi * grid256.x)
        st = make_state(grid256, np.log(rho_vals), np.zeros(256))
        expected = self.entropy_oracle(
            st, params, grid256,
            lambda x: ((2.0 + np.cos(2 * np.pi * x)) ** (-1.5)
                       * (-2 * np.pi * np.sin(2 * np.pi * x))))
        assert bd_entropy(st, params, grid256) == pytest.approx(expected, rel=1e-13)


class TestBdEntropy:
    def test_constant_density_equals_energy(self, grid64):
        params = ModelParams(gamma=1.5, alpha=0.5)
        st = make_state(grid64, np.full(64, 0.3), np.sin(2 * np.pi * grid64.x))
        assert bd_entropy(st, params, grid64) == energy(st, params, grid64)

    def test_zero_velocity_alpha_one_kinetic_part(self, grid64):
        # u = 0, alpha = 1: V = dpsi, kinetic part is rho |dpsi|^2 / 2
        eps = 0.05
        params = ModelParams(gamma=2.0, alpha=1.0)
        st = make_state(grid64, eps * np.sin(2 * np.pi * grid64.x), np.zeros(64))
        got = bd_entropy(st, params, grid64) - energy(st, params, grid64)
        dpsi = RealField.from_spectral(st.psi.spectral * 1j * grid64.k_half, grid64)
        expected = dense_quadrature(
            lambda x, psi, dp: 0.5 * np.exp(psi) * dp**2, [st.psi, dpsi],
            grid64, oversample=8)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_generic_state_against_oracle(self, grid64):
        params = ModelParams(gamma=1.5, alpha=0.5)
        st = make_state(grid64, 0.2 * np.cos(2 * np.pi * grid64.x),
                        0.3 * np.sin(4 * np.pi * grid64.x))
        dpsi = RealField.from_spectral(st.psi.spectral * 1j * grid64.k_half, grid64)

        def integrand(x, psi, u, dp):
            rho = np.exp(psi)
            v = u + np.exp((params.alpha - 1) * psi) * dp
            return (0.5 * rho * v**2 + np.exp(params.gamma * psi) / (params.gamma - 1)
                    + 0.25 * dp**2 * rho)

        oracle = dense_quadrature(integrand, [st.psi, st.u, dpsi], grid64, oversample=8)
        assert bd_entropy(st, params, grid64) == pytest.approx(oracle, rel=1e-9)


class TestBdDissipation:
    def test_constant_density_all_zero(self, grid64):
        params = ModelParams(gamma=1.5, alpha=0.5)
        st = make_state(grid64, np.full(64, 0.2), np.sin(2 * np.pi * grid64.x))
        assert bd_dissipation_terms(st, params, grid64) == (0.0, 0.0, 0.0)

    def test_alpha_zero_log_curvature_closed_form(self, grid64):
        eps = 0.1
        params = ModelParams(gamma=1.5, alpha=0.0)
        st = make_state(grid64, eps * np.sin(2 * np.pi * grid64.x), np.zeros(64))
        terms = bd_dissipation_terms(st, params, grid64)
        assert terms[1] == pytest.approx(eps**2 * (2 * np.pi) ** 4 / 4.0, rel=1e-12)
        assert terms[2] == 0.0

    def test_alpha_half_against_fd_oracle(self):
        # symbolic integrands evaluated with FFT-free 6th-order differences
        grid = TorusGrid(128, 42)
        gamma, alpha = 1.5, 0.5
        params = ModelParams(gamma=gamma, alpha=alpha)
        rho_vals = 2.0 + np.cos(2 * np.pi * grid.x)
        st = make_state(grid, np.log(rho_vals), np.zeros(128))
        terms = bd_dissipation_terms(st, params, grid)

        n_fine = 4096
        x = np.arange(n_fine) / n_fine
        rho_f = 2.0 + np.cos(2 * np.pi * x)
        h = 1.0 / n_fine
        e1 = 4 * gamma / (gamma + alpha - 1) ** 2 * np.mean(
            fd_derivative(rho_f ** ((gamma + alpha - 1) / 2), 1, h) ** 2)
        e2 = 4 / alpha**2 * np.mean(fd_derivative(rho_f ** (alpha / 2), 2, h) ** 2)
        e3 = (4 * (4 - 3 * alpha) / (3 * alpha**3)
              * np.mean(rho_f ** -alpha * fd_derivative(rho_f ** (alpha / 2), 1, h) ** 4))
        assert terms[0] == pytest.approx(e1, rel=1e-9)
        assert terms[1] == pytest.approx(e2, rel=1e-9)
        assert terms[2] == pytest.approx(e3, rel=1e-9)

    def test_terms_nonnegative_random_states(self, grid64, rng):
        for alpha in (0.0, 0.3, 0.5, 1.0, 4.0 / 3.0):
            params = ModelParams(gamma=1.8, alpha=alpha)
            for _ in range(3):
                psi = band_limited(grid64, rng, amplitude=0.4, max_mode=6)
                st = State(psi, psi, 0.0)
                terms = bd_dissipation_terms(st, params, grid64)
                assert all(t >= -1e-12 for t in terms)


class TestBdIdentities:
    def test_pressure_identity_constant(self, grid64):
        rho = RealField.from_physical(np.full(64, 1.7), grid64)
        params = ModelParams(gamma=2.0, alpha=0.0)
        assert bd_pressure_identity_residual(rho, params, grid64)[0] < 1e-14

    def test_pressure_identity_spec_example(self, grid256):
        rho = RealField.from_physical(2.0 + np.cos(2 * np.pi * grid256.x), grid256)
        params = ModelParams(gamma=2.0, alpha=0.0)
        assert bd_pressure_identity_residual(rho, params, grid256)[0] < 1e-9

    def test_pressure_identity_random(self, grid256, rng):
        for _ in range(5):
            psi = band_limited(grid256, rng, amplitude=0.3, max_mode=4)
            rho = RealField.from_physical(np.exp(psi.physical), grid256)
            params = ModelParams(gamma=1.5, alpha=0.5)
            assert bd_pressure_identity_residual(rho, params, grid256)[0] < 1e-8

    def test_pressure_identity_degenerate_exponent(self, grid64):
        rho = RealField.from_physical(np.full(64, 1.0), grid64)
        params = ModelParams(gamma=1.0 + 1e-13, alpha=0.0)
        with pytest.raises(DomainError):
            bd_pressure_identity_residual(rho, params, grid64)

    def test_quantum_identity_constant(self, grid64):
        rho = RealField.from_physical(np.full(64, 2.0), grid64)
        assert bd_quantum_identity_residual(rho, 1.0, grid64) < 1e-14

    def test_quantum_identity_spec_examples(self):
        grid = TorusGrid(512, 170)
        rho1 = RealField.from_physical(2.0 + np.cos(2 * np.pi * grid.x), grid)
        assert bd_quantum_identity_residual(rho1, 1.0, grid) < 1e-7
        rho2 = RealField.from_physical(np.exp(0.2 * np.sin(2 * np.pi * grid.x)), grid)
        assert bd_quantum_identity_residual(rho2, 0.5, grid) < 1e-7

    def test_quantum_identity_alpha_zero_rejected(self, grid64):
        rho = RealField.from_physical(np.full(64, 1.0), grid64)
        with pytest.raises(DomainError):
            bd_quantum_identity_residual(rho, 0.0, grid64)


class TestFunctionalInequality:
    def test_constant_margin_zero(self, grid64):
        f = RealField.from_physical(np.full(64, 2.0), grid64)
        assert functional_inequality_margin(f, grid64)[0] == 0.0

    def test_cosine_profile_positive_and_matches_quadrature(self, grid64):
        f = RealField.from_physical(1.0 + 0.5 * np.cos(2 * np.pi * grid64.x), grid64)
        margin, lhs_got = functional_inequality_margin(f, grid64)
        assert margin > 0.0
        n_fine = 4096
        x = np.arange(n_fine) / n_fine
        vals = 1.0 + 0.5 * np.cos(2 * np.pi * x)
        h = 1.0 / n_fine
        lhs = 9.0 / 16.0 * np.mean(fd_derivative(vals, 2, h) ** 2)
        rhs = np.mean(fd_derivative(np.sqrt(vals), 1, h) ** 4)
        assert margin == pytest.approx(lhs - rhs, rel=1e-8)
        assert lhs_got == pytest.approx(lhs, rel=1e-8)

    def test_random_fields_nonnegative(self, grid256, rng):
        for _ in range(20):
            f = band_limited(grid256, rng, amplitude=1.0, max_mode=8)
            shifted = RealField.from_physical(
                f.physical - f.physical.min() + 0.4 * np.ptp(f.physical) + 1e-3, grid256)
            assert functional_inequality_margin(shifted, grid256)[0] >= -1e-10

    def test_nonpositive_rejected(self, grid64):
        f = RealField.from_physical(np.cos(2 * np.pi * grid64.x), grid64)
        with pytest.raises(DomainError):
            functional_inequality_margin(f, grid64)


class TestNonnegCombination:
    def test_boundary_alpha_vanishes(self, grid64):
        rho = RealField.from_physical(2.0 + np.cos(2 * np.pi * grid64.x), grid64)
        assert nonneg_combination_check(rho, 1.5, grid64) == 0.0

    def test_positive_inside_range(self, grid64):
        rho = RealField.from_physical(2.0 + np.cos(2 * np.pi * grid64.x), grid64)
        assert nonneg_combination_check(rho, 0.5, grid64) > 0.0

    def test_signed_beyond_range(self, grid64):
        rho = RealField.from_physical(2.0 + np.cos(2 * np.pi * grid64.x), grid64)
        assert nonneg_combination_check(rho, 1.6, grid64) < 0.0

    def test_alpha_validation(self, grid64):
        rho = RealField.from_physical(np.full(64, 1.0), grid64)
        with pytest.raises(DomainError):
            nonneg_combination_check(rho, 0.0, grid64)


class TestRecordsAndVacuum:
    def test_record_invariants(self, grid64, rng):
        params = ModelParams(gamma=1.5, alpha=0.5)
        psi = band_limited(grid64, rng, amplitude=0.3, max_mode=5)
        u = band_limited(grid64, rng, amplitude=0.3, max_mode=5)
        st = State(psi, u, 0.125)
        rec = compute_record(st, params, grid64)
        assert rec.time == 0.125
        assert rec.mass > 0.0 and rec.min_rho > 0.0 and rec.energy >= 0.0
        assert all(t >= 0.0 for t in rec.bd_terms)
        assert rec.inv_rho_beta_norm == pytest.approx(rec.min_rho**-1.0)
        # the minimum of exp(psi) on 8n points, by FFT-free trigonometric sums
        x8 = np.arange(8 * 64) / (8 * 64)
        assert rec.min_rho == pytest.approx(float(np.exp(np.min(trig_eval(psi, grid64, x8)))))

    @pytest.mark.parametrize("alpha", [0.5, 0.0])
    def test_six_transforms_per_record(self, grid64, rng, monkeypatch, alpha):
        # one stacked resample of [psi, u], one forward and one inverse for the
        # stacked first derivatives, the same for the second derivative, and
        # the 8x resample for min rho; the W^{2,inf} norms come from the caller
        # as in simulate_path
        params = ModelParams(gamma=1.5, alpha=alpha)
        psi = band_limited(grid64, rng, amplitude=0.3, max_mode=5)
        st = State(psi, band_limited(grid64, rng, amplitude=0.3, max_mode=5), 0.0)
        calls = []
        for name in ("rfft", "irfft"):
            original = getattr(np.fft, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        compute_record(st, params, grid64, w2inf_psi=1.0, w2inf_u=1.0)
        assert len(calls) == 6
        # without the caller's norms, one stacked oversampled inverse more
        calls.clear()
        compute_record(st, params, grid64)
        assert len(calls) == 7

    @pytest.mark.parametrize("given", [False, True], ids=["own_norms", "caller_norms"])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.4])
    @pytest.mark.parametrize("n, m", [(64, 21), (256, 85), (48, 16)])
    def test_sequence_gives_each_state_its_own_record(self, rng, n, m, alpha, given):
        # a sequence of States is one stacked pass, and each of its records
        # has the bits of its State's record alone
        grid = TorusGrid(n, m)
        params = ModelParams(gamma=1.5, alpha=alpha)
        states = [State(band_limited(grid, rng, amplitude=0.1 * (p + 1), max_mode=6),
                        band_limited(grid, rng, amplitude=0.1 * (p + 1), max_mode=6), 0.01 * p)
                  for p in range(6)]
        norms = ({"w2inf_psi": rng.uniform(0.0, 10.0, 6).tolist(),
                  "w2inf_u": rng.uniform(0.0, 10.0, 6).tolist()} if given else {})
        got = compute_record(states, params, grid, **norms)
        alone = [compute_record(st, params, grid, **{k: v[p] for k, v in norms.items()})
                 for p, st in enumerate(states)]
        assert isinstance(got, list)
        assert [r.to_row() for r in got] == [r.to_row() for r in alone]

    def test_vacuum_statistics_constant_path(self, grid64):
        params = ModelParams(gamma=1.5, alpha=0.5)
        st = make_state(grid64, np.full(64, np.log(2.0)), np.zeros(64))
        recs = [compute_record(State(st.psi, st.u, t), params, grid64)
                for t in (0.0, 0.1, 0.2)]
        summary = vacuum_statistics([recs])
        assert summary.min_rho == pytest.approx(2.0, rel=1e-12)
        assert summary.max_inv_rho_beta == pytest.approx(0.5, rel=1e-12)
        assert summary.n_paths == 1

    def test_vacuum_statistics_needs_records(self):
        with pytest.raises(DomainError):
            vacuum_statistics([[]])
