import numpy as np
import pytest

from qns1d.integrator import TERMS
from qns1d.model import ModelParams, State
from qns1d.noise import (
    NoiseConfigError,
    NoiseModel,
    derive_path_seed,
    initial_data_generator,
    sample_increment,
)
from qns1d.spectral import RealField, TorusGrid, project

from conftest import band_limited, make_stepper, sample_one


def make_state(grid, psi_values, u_values):
    return State(project(RealField.from_physical(psi_values, grid), grid),
                 project(RealField.from_physical(u_values, grid), grid), 0.0)


def forcing_field(state, dW, model, params, grid):
    """The stepper's forcing of one increment."""
    stepper = make_stepper(grid, params, model)
    terms = stepper.explicit_terms(*sample_one(stepper, state), dW[None])
    return RealField.from_spectral(terms[TERMS.index("forcing")][0], grid)


class TestNoiseModel:
    def test_amplitudes_and_tail(self):
        m = NoiseModel(k_modes=8, base_amplitude=0.1, amplitude_decay=3.0)
        assert m.amplitudes[0] == pytest.approx(0.1)
        assert m.amplitudes[7] == pytest.approx(0.1 * 8**-3)
        # the reported bound dominates the true discarded mass but not wildly
        true_tail = 0.1 * sum(k**-3.0 for k in range(9, 100000))
        assert true_tail < m.tail_bound() < 2.0 * true_tail

    @pytest.mark.parametrize("kwargs", [
        dict(k_modes=0),
        dict(amplitude_decay=1.0),
        dict(base_amplitude=-0.1),
        dict(shape="bogus"),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(NoiseConfigError):
            NoiseModel(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        dict(base_amplitude=float("nan")),
        dict(base_amplitude=float("inf")),
        dict(amplitude_decay=float("nan")),
    ], ids=["nan-amplitude", "inf-amplitude", "nan-decay"])
    def test_non_finite_parameters_rejected(self, kwargs):
        # each passes a comparison that NaN fails silently, and the model
        # would run as noise-free while its amplitudes are NaN
        with pytest.raises(NoiseConfigError):
            NoiseModel(**kwargs)

    def test_equality_and_hash_follow_the_init_fields(self):
        # the derived arrays take no part, so equal models compare and hash
        # equal, as the stepper's grouping of a batch's rows by model needs
        a, b = NoiseModel(base_amplitude=0.05), NoiseModel(base_amplitude=0.05)
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != NoiseModel(base_amplitude=0.05, shape="off")
        assert a != NoiseModel(base_amplitude=0.05, k_modes=8)
        assert a != NoiseModel(base_amplitude=0.0)

    def test_bounds_verification_passes(self):
        report = NoiseModel(base_amplitude=0.05).verify_bounds()
        assert report["partials_ok"] and report["growth_ok"]
        assert report["vanishes_at_rest"] == 0.0

    def test_additive_shape_ignores_state(self):
        m = NoiseModel(shape="off", base_amplitude=0.1)
        x = np.linspace(0, 1, 32, endpoint=False)
        f1 = m.coefficient_fields(m.waves(x), np.full(32, 0.5), np.full(32, -2.0))
        f2 = m.coefficient_fields(m.waves(x), np.full(32, 3.0), np.full(32, 4.0))
        assert np.array_equal(f1, f2)


class TestSampling:
    def test_determinism(self):
        a = sample_increment(12345, 7, 0.01, NoiseModel())
        b = sample_increment(12345, 7, 0.01, NoiseModel())
        assert np.array_equal(a, b)

    def test_streams_differ_across_steps_and_seeds(self):
        m = NoiseModel()
        base = sample_increment(1, 0, 0.01, m)
        assert not np.array_equal(base, sample_increment(1, 1, 0.01, m))
        assert not np.array_equal(base, sample_increment(2, 0, 0.01, m))

    def test_component_variance(self):
        # Monte Carlo estimate with known standard error for chi^2_N
        m = NoiseModel()
        dt = 0.01
        draws = np.stack([sample_increment(999, i, dt, m) for i in range(100000)])
        var = draws[:, 0].var()
        assert abs(var - dt) / dt < 0.03

    def test_component_independence(self):
        m = NoiseModel()
        dt = 0.01
        draws = np.stack([sample_increment(31, i, dt, m) for i in range(100000)])
        cov = float(np.mean(draws[:, 0] * draws[:, 1]))
        assert abs(cov) < 4.0 / np.sqrt(100000) * dt

    def test_increments_match_fresh_streams(self):
        # the reused generator must draw what a freshly built one draws, for
        # interleaved seeds and steps, also after an initial-data stream
        m = NoiseModel()
        dt = 0.01
        seeds = [derive_path_seed(5, p) for p in range(3)]
        for count, (seed, step) in enumerate(
                (s, i) for i in (0, 7, 3, 2**40) for s in seeds + seeds[::-1]):
            if count == 5:
                initial_data_generator(seed).standard_normal(4)
            bg = np.random.Philox(counter=[0, 0, step, 0],
                                  key=[np.uint64(seed), np.uint64(0x9E3779B97F4A7C15)])
            want = np.random.Generator(bg).standard_normal(m.k_modes) * np.sqrt(dt)
            assert np.array_equal(sample_increment(seed, step, dt, m), want)

    def test_path_seed_derivation_stable(self):
        assert derive_path_seed(42, 3) == derive_path_seed(42, 3)
        assert derive_path_seed(42, 3) != derive_path_seed(42, 4)

    @pytest.mark.parametrize("dt", [0.0, -1e-3, np.nan, np.inf, -np.inf])
    def test_dt_validation(self, dt):
        # NaN and infinite dt would draw NaN or infinite increments; one bad
        # row fails a batch
        with pytest.raises(NoiseConfigError):
            sample_increment(1, 0, dt, NoiseModel())
        with pytest.raises(NoiseConfigError):
            sample_increment([1, 2, 3], 0, [1e-3, dt, 1e-3], NoiseModel())

    def test_batch_shape_validation(self):
        with pytest.raises(ValueError):
            sample_increment([1, 2, 3], [0, 1], 1e-3, NoiseModel())
        with pytest.raises(ValueError):
            sample_increment([1, 2, 3], 0, [1e-3, 2e-3], NoiseModel())

    @pytest.mark.parametrize("k_modes", [1, 16])
    def test_batch_rows_equal_one_path_draws(self, k_modes):
        # each row of a batch is byte for byte the one-path draw of its seed,
        # step and dt, and a fresh stream's draw: for 64 mixed seeds, one step
        # index or one per row, one dt or one per row, also right after a
        # draw of another model
        rng = np.random.default_rng(11)
        m = NoiseModel(k_modes=k_modes)
        seeds = ([derive_path_seed(5, p) for p in range(60)]
                 + [0, 1, 2**64 - 1, np.uint64(2**63 + 5)])
        one_step, steps = 7, [int(i) for i in rng.integers(0, 2**40, 64)]
        dts = rng.uniform(1e-5, 1e-2, 64)
        for step_index in (one_step, steps):
            for dt in (1e-3, dts):
                sample_increment(3, 2, 1e-3, NoiseModel(k_modes=17 - k_modes))
                got = sample_increment(seeds, step_index, dt, m)
                assert got.shape == (64, k_modes)
                rows = zip(seeds, np.broadcast_to(step_index, 64), np.broadcast_to(dt, 64))
                for row, (seed, step, d) in zip(got, rows):
                    bg = np.random.Philox(counter=[0, 0, int(step), 0],
                                          key=[np.uint64(seed), np.uint64(0x9E3779B97F4A7C15)])
                    want = np.random.Generator(bg).standard_normal(k_modes) * np.sqrt(d)
                    assert row.tobytes() == want.tobytes()
                    assert row.tobytes() == sample_increment(seed, step, d, m).tobytes()


class TestForcing:
    params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=1e6)

    def test_zero_increment(self, grid64):
        st = make_state(grid64, np.zeros(64), np.ones(64))
        m = NoiseModel(base_amplitude=0.05)
        inc = np.zeros(m.k_modes)
        out = forcing_field(st, inc, m, self.params, grid64)
        assert np.max(np.abs(out.physical)) == 0.0

    def test_vanishes_at_rest(self, grid64):
        st = make_state(grid64, 0.1 * np.cos(2 * np.pi * grid64.x), np.zeros(64))
        m = NoiseModel(base_amplitude=0.05)
        inc = sample_increment(5, 0, 0.01, m)
        out = forcing_field(st, inc, m, self.params, grid64)
        assert np.max(np.abs(out.physical)) == 0.0

    def test_single_mode_closed_form(self, grid64):
        st = make_state(grid64, np.zeros(64), np.ones(64))
        m = NoiseModel(base_amplitude=0.05)
        dW = np.zeros(m.k_modes)
        dW[2] = 1.0
        out = forcing_field(st, dW, m, self.params, grid64)
        exact = m.amplitudes[2] * np.sin(6 * np.pi * grid64.x) * np.tanh(1.0) * 0.5
        assert np.max(np.abs(out.physical - exact)) < 1e-12

    def test_linearity_in_increment(self, grid64, rng):
        st = make_state(grid64, 0.2 * np.cos(2 * np.pi * grid64.x),
                        0.3 * np.sin(2 * np.pi * grid64.x))
        m = NoiseModel(base_amplitude=0.05)
        w1 = rng.standard_normal(m.k_modes)
        w2 = rng.standard_normal(m.k_modes)
        f = lambda w: forcing_field(st, w, m, self.params, grid64).physical
        combo = f(2.0 * w1 + 0.5 * w2)
        assert np.max(np.abs(combo - 2.0 * f(w1) - 0.5 * f(w2))) < 1e-14

    def test_zero_mean_martingale(self, grid64):
        # empirical mean of the forcing over many increments stays within 4
        # standard errors of zero, pointwise
        st = make_state(grid64, 0.1 * np.cos(2 * np.pi * grid64.x), np.ones(64))
        m = NoiseModel(base_amplitude=0.1)
        dt = 0.01
        n = 10000
        draws = np.stack([sample_increment(77, i, dt, m) for i in range(n)])
        coeffs = m.coefficient_fields(m.waves(grid64.x), np.exp(st.psi.physical),
                                      st.u.physical)
        fields = draws @ coeffs
        point_std = np.sqrt(np.sum(coeffs**2, axis=0) * dt)
        bound = 4.0 * np.max(point_std) / np.sqrt(n)
        assert np.max(np.abs(fields.mean(axis=0))) < bound

    def test_growth_bound_on_random_states(self, grid64, rng):
        m = NoiseModel(base_amplitude=0.2)
        for _ in range(5):
            psi = band_limited(grid64, rng, amplitude=0.4).physical
            u = band_limited(grid64, rng, amplitude=0.8).physical
            rho = np.exp(psi)
            g_sum = rho * np.sum(np.abs(m.coefficient_fields(m.waves(grid64.x), rho, u)),
                                 axis=0)
            bound = m.amplitude_sum() * (np.max(rho) + np.max(rho) * np.max(np.abs(u)))
            assert np.max(g_sum) <= bound + 1e-12

    def test_projected_to_band(self, grid64):
        st = make_state(grid64, np.zeros(64), np.ones(64))
        m = NoiseModel(k_modes=30, base_amplitude=0.05)  # waves beyond the Galerkin band
        inc = np.ones(30)
        out = forcing_field(st, inc, m, self.params, grid64)
        assert np.all(out.spectral[grid64.m_modes + 1:] == 0.0)
