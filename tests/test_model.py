import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from qns1d import model
from qns1d.cli import load_config, validate_config
from qns1d.integrator import TERMS
from qns1d.model import (
    W2INF_OVERSAMPLE,
    DomainError,
    ModelParams,
    State,
    cutoff_phi,
    quantum_identity_residual,
    w2inf_floor,
    w2inf_norm,
    wiener_weights,
)
from qns1d.noise import NoiseModel, derive_path_seed
from qns1d.spectral import RealField, TorusGrid, UsageError, project, to_physical

from conftest import band_limited, make_stepper, one_step, sample_one
from oracle import oracle_mode_coefficients, trig_eval


def make_state(grid, psi_values, u_values, t=0.0):
    return State(project(RealField.from_physical(psi_values, grid), grid),
                 project(RealField.from_physical(u_values, grid), grid), t)


def physical(spec, grid):
    return RealField.from_spectral(spec, grid).physical


def explicit_terms(stepper, st):
    """The stepper's explicit terms of a state, by name."""
    return {name: term[0] for name, term in
            zip(TERMS, stepper.explicit_terms(*sample_one(stepper, st)))}


def rhs_psi(stepper, st):
    """d psi/dt: the explicit transport plus the divergence of the implicit block."""
    transport = explicit_terms(stepper, st)["transport"]
    return transport - 1j * stepper.k * st.u.spectral


def u_terms(stepper, st):
    """The five explicit momentum terms plus the implicit block's dispersion."""
    terms = explicit_terms(stepper, st)
    del terms["transport"]
    terms["dispersion"] = -1j * stepper.hk3 * st.psi.spectral
    return terms


def rhs_u(stepper, st):
    """Deterministic du/dt: the explicit terms with no implicit viscosity share,
    plus the dispersion."""
    explicit = stepper.explicit_u_spec(stepper.explicit_terms(*sample_one(stepper, st)),
                                       0.0 * stepper.k2 * st.u.spectral)[0]
    return explicit - 1j * stepper.hk3 * st.psi.spectral


class TestModelParams:
    def test_regime_flag(self):
        assert ModelParams(gamma=1.5, alpha=0.5).global_regularity_regime
        assert not ModelParams(gamma=1.5, alpha=0.6).global_regularity_regime

    @pytest.mark.parametrize("kwargs", [
        dict(gamma=1.0, alpha=0.5),
        dict(gamma=1.5, alpha=-0.1),
        dict(gamma=1.5, alpha=0.5, cutoff_radius=0.0),
        dict(gamma=1.5, alpha=0.5, monitor_order=3),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            ModelParams(**kwargs)


class TestCutoff:
    def test_plateau_values(self):
        for radius in (1.0, 3.5, 10.0):
            assert cutoff_phi(0.5 * radius, radius) == 1.0
            assert cutoff_phi(radius, radius) == 1.0
            assert cutoff_phi(radius + 1.0, radius) == 0.0
            assert cutoff_phi(radius + 5.0, radius) == 0.0

    def test_bridge_monotone_dense_sampling(self):
        radius = 2.0
        ys = np.linspace(radius, radius + 1.0, 100)
        vals = [cutoff_phi(y, radius) for y in ys]
        assert vals[0] == 1.0 and vals[-1] == 0.0
        assert 0.0 < cutoff_phi(radius + 0.5, radius) < 1.0
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_bridge_c2_endpoints(self):
        # first and second divided differences vanish at both plateau edges
        radius, h = 2.0, 1e-4
        for edge in (radius, radius + 1.0):
            d1 = (cutoff_phi(edge + h, radius) - cutoff_phi(max(edge - h, 0), radius)) / (2 * h)
            d2 = (cutoff_phi(edge + h, radius) - 2 * cutoff_phi(edge, radius)
                  + cutoff_phi(max(edge - h, 0), radius)) / h**2
            assert abs(d1) < 1e-6 and abs(d2) < 1e-2

    def test_negative_argument(self):
        with pytest.raises(UsageError):
            cutoff_phi(-0.1, 1.0)


def w2inf_all_orders(spec, grid):
    """The W^{2,inf} norm with every derivative order transformed: the
    reference that w2inf_norm, which drops the orders that cannot win, must
    equal byte for byte."""
    spec = np.asarray(spec)
    derivs = np.empty(spec.shape[:-1] + (3, spec.shape[-1]), dtype=complex)
    derivs[..., 0, :] = spec
    for order in (1, 2):
        derivs[..., order, :] = spec * (1j * grid.k_half) ** order
    fine = to_physical(derivs, W2INF_OVERSAMPLE * grid.n_collocation)
    np.abs(fine, out=fine)
    norms = np.max(fine, axis=(-2, -1))
    return norms.tolist() if spec.ndim > 1 else float(norms)


def norms_and_warnings(norm, spec, grid):
    """A norm function's norms of ``spec``, as bytes, and its warning messages."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        norms = np.array(norm(spec, grid))
    return norms.tobytes(), {str(w.message) for w in caught if w.category is RuntimeWarning}


def transformed_rows(spec, grid, monkeypatch):
    """The rows of the one oversampled inverse transform of w2inf_norm(spec)."""
    rows = []

    def spy(stack, n):
        rows.append(len(stack))
        return to_physical(stack, n)

    monkeypatch.setattr(model, "to_physical", spy)
    w2inf_norm(spec, grid)
    monkeypatch.undo()
    assert len(rows) == 1
    return rows[0]


NORM_GRIDS = [TorusGrid(32, 10), TorusGrid(32, 16), TorusGrid(64, 21), TorusGrid(256, 85)]


@strategies.composite
def norm_stacks(draw):
    """A grid and a stack of 1-4 spectra: random bands of any decay and scale,
    with means from 0 to far above the band, zero fields, lone modes, NaN and
    +-inf coefficients, coefficients at and beyond w2inf_floor, and ones
    whose modulus overflows."""
    grid = draw(strategies.sampled_from(NORM_GRIDS))
    rng = np.random.default_rng(draw(strategies.integers(0, 2**32 - 1)))
    floor = w2inf_floor(grid)
    rows = []
    for _ in range(draw(strategies.integers(1, 4))):
        kind = draw(strategies.sampled_from(
            ["band", "band", "band", "zero", "mode", "nan", "inf", "-inf", "floor", "huge"]))
        spec = np.zeros(grid.n_half, dtype=complex)
        if kind == "mode":
            spec[draw(strategies.integers(0, grid.n_half - 1))] = complex(*rng.standard_normal(2))
        elif kind != "zero":
            top = draw(strategies.integers(1, grid.m_modes))
            decay = draw(strategies.floats(0.0, 4.0))
            scale = 10.0 ** draw(strategies.floats(-3.0, 3.0))
            j = np.arange(1, top + 1)
            spec[1: top + 1] = scale * j**-decay * (rng.standard_normal(top)
                                                    + 1j * rng.standard_normal(top))
            spec[0] = draw(strategies.sampled_from([0.0, 1.0, -1.0])) * 10.0 ** draw(
                strategies.floats(-3.0, 6.0)) * scale
            at = draw(strategies.integers(0, grid.n_half - 1))
            if kind in ("nan", "inf", "-inf"):
                spec[at] = complex(float(kind), 0.0) if draw(strategies.booleans()) else \
                    complex(0.0, float(kind))
            elif kind == "floor":
                spec[at] = floor * draw(strategies.sampled_from([0.5, 1.0, 1.5, 4.0]))
            elif kind == "huge":
                spec[at] = complex(1.0, 1.0) * np.finfo(float).max / 1.5
        rows.append(spec)
    return grid, np.stack(rows)


class TestW2Inf:
    @settings(derandomize=True, max_examples=300, database=None, deadline=None)
    @given(norm_stacks())
    def test_dropped_orders_change_no_byte(self, case):
        # the stack, and each row alone, byte for byte against the
        # all-orders reference; a RuntimeWarning only where it warns too
        grid, stack = case
        for spec in (stack, *stack):
            got, got_warnings = norms_and_warnings(w2inf_norm, spec, grid)
            want, want_warnings = norms_and_warnings(w2inf_all_orders, spec, grid)
            assert got == want
            assert got_warnings <= want_warnings

    @pytest.mark.parametrize("case, rows", [
        ("mean", 1), ("harmonic", 1), ("flat_band", 2), ("zero", 3), ("nan", 3), ("inf", 3),
        ("-inf", 3), ("beyond_floor", 3), ("at_floor", 1)])
    def test_orders_transformed(self, case, rows, grid64, monkeypatch):
        # a large mean wins at order 0 and a lone mode-1 wave at order 2,
        # each alone; a band of 1/k^2 coefficients keeps orders 1 and 2; a
        # zero field, a NaN or infinite coefficient, or a bound beyond
        # w2inf_floor keeps all three; one order is transformed at the floor
        spec = np.zeros(grid64.n_half, dtype=complex)
        k = grid64.k_half
        if case == "mean":
            spec[0], spec[1] = 1e3, 0.5j
        elif case == "harmonic":
            spec[1] = -0.5j
        elif case == "flat_band":
            spec[1: grid64.m_modes + 1] = 1.0 / k[1: grid64.m_modes + 1] ** 2
        elif case in ("nan", "inf", "-inf"):
            spec[1], spec[5] = 0.5, complex(float(case), 0.0)
        elif case.endswith("floor"):
            spec[0] = w2inf_floor(grid64) * (1.5 if case == "beyond_floor" else 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            assert transformed_rows(spec, grid64, monkeypatch) == rows
            got = np.array(w2inf_norm(spec, grid64)).tobytes()
            assert got == np.array(w2inf_all_orders(spec, grid64)).tobytes()

    def test_quickstart_state_transforms_one_order_per_field(self, monkeypatch):
        # psi and u of the quickstart initial state each win at order 2 alone
        config = Path(__file__).resolve().parents[1] / "configs" / "quickstart.json"
        cfg = validate_config(load_config(config))
        state = cfg.initial_factory(0, derive_path_seed(cfg.ensemble.master_seed, 0))
        spec = np.stack([state.psi.spectral, state.u.spectral])
        assert transformed_rows(spec, cfg.grid, monkeypatch) == 2
        assert w2inf_norm(spec, cfg.grid) == w2inf_all_orders(spec, cfg.grid)

    def test_wiener_weights(self, grid64):
        # mult_j k_j^o, mult_j = 1 for the mean and 2 for every other mode,
        # read-only and the very array the stepper bounds its norms with
        weights = wiener_weights(grid64)
        mult = np.r_[1.0, np.full(grid64.n_half - 1, 2.0)]
        k = grid64.k_half
        assert np.array_equal(weights, [mult, mult * k, mult * k**2])
        assert not weights.flags.writeable
        assert make_stepper(grid64).wiener is weights

    def test_constant(self, grid64):
        f = RealField.from_physical(np.full(64, -3.25), grid64)
        assert w2inf_norm(f.spectral, grid64) == pytest.approx(3.25)

    def test_harmonic_second_derivative_dominates(self, grid64):
        f = RealField.from_physical(np.sin(2 * np.pi * grid64.x), grid64)
        assert w2inf_norm(f.spectral, grid64) == pytest.approx((2 * np.pi) ** 2, rel=1e-6)

    def test_matches_oversampled_brute_force(self, grid64, rng):
        # oracle: direct trigonometric summation on the 8x finer grid
        f = band_limited(grid64, rng)
        x_fine = np.arange(8 * 64) / (8 * 64)
        brute = max(np.max(np.abs(trig_eval(f, grid64, x_fine, order=o)))
                    for o in (0, 1, 2))
        assert w2inf_norm(f.spectral, grid64) == pytest.approx(brute, rel=1e-6)

    def test_stack_matches_rows(self, grid64, rng):
        rows = [band_limited(grid64, rng, amplitude=a).spectral for a in (0.3, 1.0, 4.0)]
        assert w2inf_norm(np.stack(rows), grid64) == [w2inf_norm(r, grid64) for r in rows]

    @pytest.mark.parametrize("n, m", [(64, 21), (64, 32), (256, 85)])
    def test_wiener_bound_dominates(self, n, m, rng):
        # the predictor's certified skip of its sup-norm rests on this bound
        grid = TorusGrid(n, m)
        stepper = make_stepper(grid)
        for amplitude in (0.1, 1.0, 30.0):
            spec = band_limited(grid, rng, amplitude=amplitude).spectral.copy()
            spec[0] = rng.standard_normal()
            bound = np.max(stepper.wiener @ np.abs(spec))
            assert w2inf_norm(spec, grid) <= bound
        # one mode at a time the bound is tight, up to the 8x grid missing the
        # peak by at most pi/16 in phase; the Nyquist mode counts twice too
        for j in range(1, m + 1):
            spec = np.zeros(grid.n_half, dtype=complex)
            spec[j] = 0.7 - 0.2j
            bound = np.max(stepper.wiener @ np.abs(spec))
            assert np.cos(np.pi / 16) * bound <= w2inf_norm(spec, grid) <= bound * (1 + 1e-12)


class TestRhsPsi:
    def test_zero_velocity(self, grid64):
        st = make_state(grid64, 0.3 * np.cos(2 * np.pi * grid64.x), np.zeros(64))
        params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=100.0)
        out = rhs_psi(make_stepper(grid64, params), st)
        assert np.max(np.abs(physical(out, grid64))) == 0.0

    def test_constant_psi_divergence_only(self, grid64):
        st = make_state(grid64, np.full(64, 0.2), np.sin(2 * np.pi * grid64.x))
        params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=100.0)
        out = rhs_psi(make_stepper(grid64, params), st)
        exact = -2 * np.pi * np.cos(2 * np.pi * grid64.x)
        assert np.max(np.abs(physical(out, grid64) - exact)) < 1e-12

    def test_divergence_linearity(self, grid64):
        params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=100.0)
        u = np.sin(2 * np.pi * grid64.x)
        st1 = make_state(grid64, np.full(64, 0.2), u)
        st2 = make_state(grid64, np.full(64, 0.2), 2 * u)
        stepper = make_stepper(grid64, params)
        r1 = physical(rhs_psi(stepper, st1), grid64)
        r2 = physical(rhs_psi(stepper, st2), grid64)
        assert np.max(np.abs(r2 - 2 * r1)) < 1e-13

    def test_matches_term_by_term_quadrature(self, grid64):
        # oracle: pointwise transport and divergence on a fine grid by direct
        # trig summation, projected by direct quadrature inner products
        params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=1e6)
        st = make_state(grid64, 0.1 * np.cos(2 * np.pi * grid64.x),
                        np.sin(2 * np.pi * grid64.x))
        out = rhs_psi(make_stepper(grid64, params), st)
        x_fine = np.arange(512) / 512
        transport = (trig_eval(st.u, grid64, x_fine)
                     * trig_eval(st.psi, grid64, x_fine, order=1))
        div = trig_eval(st.u, grid64, x_fine, order=1)
        c_transport = oracle_mode_coefficients(transport, grid64.m_modes)
        c_transport[grid64.dealias_cut + 1:] = 0.0
        c_div = oracle_mode_coefficients(div, grid64.m_modes)
        expected = -c_transport - c_div
        assert np.max(np.abs(out[: grid64.m_modes + 1] - expected)) < 1e-10

    def test_nonfinite_state_is_blowup(self, grid64):
        bad = np.zeros(64)
        bad[3] = np.nan
        psi = RealField.from_physical(bad, grid64)
        st = State(psi, RealField.from_physical(np.zeros(64), grid64), 1.25)
        res = one_step(st, 1e-3, ModelParams(gamma=1.5, alpha=0.5), NoiseModel(), grid64)
        assert res.event.kind == "numerical_blowup"
        assert res.event.time == 1.25 and res.final_state.time == 1.25
        assert res.n_steps_taken == 0 and res.norm_trace.shape == (0, 3)


class TestRhsU:
    def test_constant_equilibrium(self, grid64):
        params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=100.0)
        st = make_state(grid64, np.full(64, 0.4), np.zeros(64))
        out = rhs_u(make_stepper(grid64, params), st)
        assert np.max(np.abs(physical(out, grid64))) < 1e-14

    def test_unit_density_reduction(self, grid64):
        # psi = 0, alpha = 1: viscosity term is u'' and advection is -u u'
        params = ModelParams(gamma=1.5, alpha=1.0, cutoff_radius=1e6)
        st = make_state(grid64, np.zeros(64), np.sin(2 * np.pi * grid64.x))
        terms = {name: physical(spec, grid64)
                 for name, spec in u_terms(make_stepper(grid64, params), st).items()}
        visc_exact = -(2 * np.pi) ** 2 * np.sin(2 * np.pi * grid64.x)
        assert np.max(np.abs(terms["viscosity"] - visc_exact)) < 1e-10
        adv_exact = -np.pi * np.sin(4 * np.pi * grid64.x)
        assert np.max(np.abs(terms["advection"] - adv_exact)) < 1e-12
        # with psi identically zero the psi-driven terms vanish
        for name in ("pressure", "viscosity_gradient", "dispersion", "quantum"):
            assert np.max(np.abs(terms[name])) < 1e-12

    def test_each_term_matches_quadrature_oracle(self, grid64, rng):
        params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=1e6)
        psi = 0.15 * np.cos(2 * np.pi * grid64.x) + 0.05 * np.sin(4 * np.pi * grid64.x)
        u = 0.2 * np.sin(2 * np.pi * grid64.x) + 0.1 * np.cos(6 * np.pi * grid64.x)
        st = make_state(grid64, psi, u)
        terms = u_terms(make_stepper(grid64, params), st)

        x_fine = np.arange(1024) / 1024
        psi_f = trig_eval(st.psi, grid64, x_fine)
        dpsi_f = trig_eval(st.psi, grid64, x_fine, order=1)
        d2psi_f = trig_eval(st.psi, grid64, x_fine, order=2)
        d3psi_f = trig_eval(st.psi, grid64, x_fine, order=3)
        u_f = trig_eval(st.u, grid64, x_fine)
        du_f = trig_eval(st.u, grid64, x_fine, order=1)
        d2u_f = trig_eval(st.u, grid64, x_fine, order=2)

        gamma, alpha = params.gamma, params.alpha
        pointwise = {
            "advection": (-u_f * du_f, True),
            "pressure": (-gamma * np.exp((gamma - 1) * psi_f) * dpsi_f, False),
            "viscosity": (np.exp((alpha - 1) * psi_f) * d2u_f, False),
            "viscosity_gradient": (alpha * np.exp((alpha - 1) * psi_f) * dpsi_f * du_f, False),
            "dispersion": (0.5 * d3psi_f, False),
            "quantum": (0.5 * dpsi_f * d2psi_f, True),
        }
        for name, (values, masked) in pointwise.items():
            expected = oracle_mode_coefficients(values, grid64.m_modes)
            if masked:
                expected[grid64.dealias_cut + 1:] = 0.0
            got = terms[name][: grid64.m_modes + 1]
            scale = max(1.0, np.max(np.abs(expected)))
            assert np.max(np.abs(got - expected)) / scale < 1e-9, name

    def test_broadband_terms_match_oracle_up_to_the_band_edge(self, grid64, rng):
        # a state whose spectrum decays as e^(-0.2 j) up to the band's top
        # mode m = 21, where no term is negligible: every term matches its
        # oracle on modes 0..m, is exactly zero beyond m, and each product is
        # exactly zero beyond dealias_cut. The pointwise terms are collocation
        # terms, so their oracle samples them at the n grid points; the
        # products are alias-free up to the cut, so theirs samples them finely.
        m, cut = grid64.m_modes, grid64.dealias_cut
        params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=1e6)

        def broadband():
            spec = np.zeros(grid64.n_half, dtype=complex)
            j = np.arange(1, m + 1)
            spec[j] = 0.1 * np.exp(-0.2 * j) * np.exp(2j * np.pi * rng.random(m))
            return RealField.from_spectral(spec, grid64)

        st = State(broadband(), broadband(), 0.0)
        stepper = make_stepper(grid64, params)
        terms = explicit_terms(stepper, st)
        terms["dispersion"] = -1j * stepper.hk3 * st.psi.spectral

        def samples(x):
            psi, dpsi, d2psi, d3psi = (trig_eval(st.psi, grid64, x, order=o) for o in range(4))
            u, du, d2u = (trig_eval(st.u, grid64, x, order=o) for o in range(3))
            return psi, dpsi, d2psi, d3psi, u, du, d2u

        gamma, alpha = params.gamma, params.alpha
        psi, dpsi, _, _, _, du, d2u = samples(grid64.x)
        pointwise = {
            "pressure": -gamma * np.exp((gamma - 1) * psi) * dpsi,
            "viscosity": np.exp((alpha - 1) * psi) * d2u,
            "viscosity_gradient": alpha * np.exp((alpha - 1) * psi) * dpsi * du,
        }
        _, dpsi_f, d2psi_f, d3psi_f, u_f, du_f, _ = samples(np.arange(1024) / 1024)
        fine = {
            "transport": -u_f * dpsi_f,
            "advection": -u_f * du_f,
            "quantum": 0.5 * dpsi_f * d2psi_f,
            "dispersion": 0.5 * d3psi_f,
        }
        assert sorted(terms) == sorted({**pointwise, **fine})
        for name, values in {**pointwise, **fine}.items():
            end = cut + 1 if name in ("transport", "advection", "quantum") else m + 1
            expected = oracle_mode_coefficients(values, m)
            expected[end:] = 0.0
            scale = max(1.0, np.max(np.abs(expected)))
            assert np.all(terms[name][end:] == 0.0), name
            if end > m:  # the term reaches the band's edge
                assert abs(expected[m]) > 1e-3 * scale, name
            assert np.max(np.abs(terms[name][: m + 1] - expected)) / scale < 1e-9, name

    def test_cutoff_inactivity_bitwise(self, grid64):
        # below both radii a whole step, the predictor's phi included, is
        # the same bit for bit
        psi = 0.1 * np.cos(2 * np.pi * grid64.x)
        u = 0.1 * np.sin(2 * np.pi * grid64.x)
        st = make_state(grid64, psi, u)
        norm = max(w2inf_norm(np.stack([st.psi.spectral, st.u.spectral]), grid64))
        small, large = (one_step(st, 1e-3, ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=r),
                                 NoiseModel(base_amplitude=0.2), grid64, seed=4).final_state
                        for r in (2 * norm, 4 * norm))
        for field in ("psi", "u"):
            assert np.array_equal(getattr(small, field).spectral,
                                  getattr(large, field).spectral)

    def test_saturated_cutoff_zeroes_truncated_terms(self, grid64):
        # a predicted state at or beyond R + 1 loses the corrector's
        # transport; the explicit terms of a state carry no cut-off
        psi = 0.1 * np.cos(2 * np.pi * grid64.x)
        u = 0.5 * np.sin(2 * np.pi * grid64.x)
        st = make_state(grid64, psi, u)
        params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=0.05)
        stepper = make_stepper(grid64, params)
        phi = stepper.predictor_phi(st.u.spectral[None])
        assert phi.shape == (1, 1) and phi[0, 0] == 0.0
        transport = stepper.transport_spec(st.psi.spectral[None], st.u.spectral[None], phi)[0]
        assert np.max(np.abs(physical(transport, grid64))) == 0.0
        terms = explicit_terms(stepper, st)
        terms["dispersion"] = -1j * stepper.hk3 * st.psi.spectral
        for name, term in terms.items():
            assert np.max(np.abs(physical(term, grid64))) > 0.0, name

    @pytest.mark.parametrize("where", ["certified", "between_norm_and_bound", "bridge",
                                       "saturated", "cutoff_off"])
    def test_predictor_phi_equals_phi_of_norm(self, grid64, rng, where):
        # the radius sits above the Wiener bound, between the norm and the
        # bound, or below the norm (phi in the bridge, or 0)
        u = band_limited(grid64, rng, amplitude=0.5).spectral
        norm = w2inf_norm(u, grid64)
        bound = np.max(make_stepper(grid64).wiener @ np.abs(u))
        assert norm < bound
        radius = {"certified": 2.0 * bound, "between_norm_and_bound": 0.5 * (norm + bound),
                  "bridge": norm - 0.5, "saturated": norm - 2.0,
                  "cutoff_off": norm - 0.5}[where]
        params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=radius,
                             enable_cutoff=where != "cutoff_off")
        stepper = make_stepper(grid64, params)
        phi = stepper.predictor_phi(u[None])
        # the scalar 1.0 where the norm is at most R, else a column of one
        if norm <= stepper.radius:
            assert type(phi) is float and phi == cutoff_phi(norm, stepper.radius)
        else:
            assert phi.shape == (1, 1) and phi[0, 0] == cutoff_phi(norm, stepper.radius)
        if where == "bridge":
            assert 0.0 < cutoff_phi(norm, stepper.radius) < 1.0

    @pytest.mark.parametrize("n, m", [(64, 21), (32, 16)])
    def test_stacked_products_equal_product_kernel(self, n, m, rng):
        # the state's products share one forward transform with the
        # projections; the corrector forms its transport through product()
        grid = TorusGrid(n, m)
        stepper = make_stepper(grid, ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=1e6))
        st = State(band_limited(grid, rng, amplitude=0.2), band_limited(grid, rng))
        terms = explicit_terms(stepper, st)
        psi_s, u_s = st.psi.spectral[None], st.u.spectral[None]
        dpsi_s, du_s = psi_s * stepper.ik, u_s * stepper.ik
        assert np.array_equal(terms["transport"], stepper.transport_spec(psi_s, u_s, 1.0)[0])
        assert np.array_equal(terms["advection"], -stepper.product(u_s, du_s)[0])
        assert np.array_equal(terms["quantum"],
                              0.5 * stepper.product(dpsi_s, -stepper.k2 * psi_s)[0])


class TestQuantumIdentity:
    def test_constant_density(self, grid256):
        rho = RealField.from_physical(np.ones(256), grid256)
        assert quantum_identity_residual(rho, grid256) == 0.0

    def test_acceptance_densities(self):
        grid = TorusGrid(256, 64)
        for values in (2.0 + np.cos(2 * np.pi * grid.x),
                       np.exp(0.3 * np.sin(4 * np.pi * grid.x))):
            rho = RealField.from_physical(values, grid)
            assert quantum_identity_residual(rho, grid) < 1e-7

    def test_spectral_decay_in_band(self):
        residuals = []
        for m in (16, 32, 64):
            g = TorusGrid(512, m)
            rho = RealField.from_physical(1.0 + 0.95 * np.cos(2 * np.pi * g.x), g)
            residuals.append(quantum_identity_residual(rho, g))
        assert residuals[1] < residuals[0] / 20.0
        assert residuals[2] < residuals[1] / 20.0

    def test_nonpositive_density_rejected(self, grid64):
        rho = RealField.from_physical(np.cos(2 * np.pi * grid64.x), grid64)
        with pytest.raises(DomainError):
            quantum_identity_residual(rho, grid64)
