import ast
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qns1d import functionals, integrator
from qns1d.functionals import compute_record
from qns1d.integrator import (
    IntegratorConfigError,
    MonitorSpec,
    PathBatch,
    StepConfig,
    _Stepper,
    first_hit_times,
    simulate_path,
    step,
    strong_convergence_order,
)
from qns1d.model import ModelParams, NumericalBlowupError, State, w2inf_norm
from qns1d.noise import NoiseModel, derive_path_seed, sample_increment
from qns1d.spectral import RealField, TorusGrid, UsageError, hs_norm, project

from oracle import linear_propagator, reference_trajectory

NO_NOISE = NoiseModel(base_amplitude=0.0)


def make_state(grid, psi_values, u_values, t=0.0):
    return State(project(RealField.from_physical(psi_values, grid), grid),
                 project(RealField.from_physical(u_values, grid), grid), t)


def small_setup(grid):
    params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=500.0)
    st = make_state(grid, 0.1 * np.cos(2 * np.pi * grid.x),
                    0.1 * np.sin(2 * np.pi * grid.x))
    return params, st


class TestStepConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(dt=0.0, t_end=1.0),
        dict(dt=0.1, t_end=0.05),
        dict(dt=0.1, t_end=-1.0),
        dict(dt=0.1, t_end=1.0, blowup_clamp=0.0),
        dict(dt=0.1, t_end=1.0, blowup_clamp=-1.0),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(IntegratorConfigError):
            StepConfig(**kwargs)

    def test_step_snapping(self):
        cfg = StepConfig(dt=0.3, t_end=1.0)
        assert cfg.n_steps == 3
        assert cfg.n_steps * cfg.dt_effective == pytest.approx(1.0)


class TestStepKernel:
    def test_equilibrium_fixed_point(self, grid64):
        params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=100.0)
        st = make_state(grid64, np.full(64, 0.3), np.zeros(64))
        cfg = StepConfig(dt=1e-3, t_end=1e-2)
        out = st
        for i in range(5):
            out = step(out, cfg, params, NO_NOISE, 0, i, grid64)
        assert np.array_equal(out.psi.spectral, st.psi.spectral)
        assert np.array_equal(out.u.spectral, st.u.spectral)

    def test_equilibrium_survives_multiplicative_noise(self, grid64):
        # the default family vanishes at rest, so rest stays rest pathwise
        params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=100.0)
        noisy = NoiseModel(base_amplitude=0.1)
        st = make_state(grid64, np.full(64, 0.3), np.zeros(64))
        cfg = StepConfig(dt=1e-3, t_end=1e-2)
        out = step(st, cfg, params, noisy, 11, 0, grid64)
        assert np.array_equal(out.u.spectral, st.u.spectral)

    @pytest.mark.parametrize("offset", [0.0, 0.5, 2.0])
    def test_step_raises_at_and_beyond_radius(self, grid64, offset):
        # simulate_path stops at the first state whose norm reaches R, so the
        # step's terms carry no cut-off and step() refuses such a state: at
        # R, in the bridge, and past it
        _, st = small_setup(grid64)
        norm = max(w2inf_norm(np.stack([st.psi.spectral, st.u.spectral]), grid64))
        params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=norm - offset)
        with pytest.raises(UsageError):
            step(st, StepConfig(dt=1e-3, t_end=1e-3), params, NO_NOISE, 0, 0, grid64)

    def test_predictor_phi_acts_in_the_bridge(self, grid64, monkeypatch):
        # a state below R whose predictor lands in the bridge (R, R + 1): the
        # corrector's transport factor is where phi_R acts, and nowhere else
        st = make_state(grid64, 0.3 * np.cos(2 * np.pi * grid64.x),
                        0.3 * np.sin(2 * np.pi * grid64.x))
        cfg = StepConfig(dt=1e-3, t_end=1e-3)
        predicted = []
        original = _Stepper.predictor_phi

        def spy(self, u_spec):
            predicted.append(u_spec.copy())
            return original(self, u_spec)

        monkeypatch.setattr(_Stepper, "predictor_phi", spy)
        free = step(st, cfg, ModelParams(gamma=1.5, alpha=0.5), NO_NOISE, 0, 0, grid64)
        radius = w2inf_norm(predicted[0], grid64) - 0.5
        assert max(w2inf_norm(np.stack([st.psi.spectral, st.u.spectral]), grid64)) < radius
        params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=radius)
        cut = step(st, cfg, params, NO_NOISE, 0, 0, grid64)
        assert np.array_equal(predicted[1], predicted[0])
        assert 0.0 < original(_Stepper(grid64, params, cfg, NO_NOISE), predicted[1]) < 1.0
        monkeypatch.setattr(_Stepper, "predictor_phi", lambda self, u_spec: 1.0)
        unit = step(st, cfg, params, NO_NOISE, 0, 0, grid64)
        assert not np.array_equal(cut.psi.spectral, unit.psi.spectral)
        # with phi = 1 the step is that of a radius it never reaches
        for field in ("psi", "u"):
            assert np.array_equal(getattr(unit, field).spectral, getattr(free, field).spectral)

    @pytest.mark.parametrize("mode", [1, 4])
    def test_linear_regime_matches_matrix_exponential(self, mode):
        # infinitesimal data: per-step error is O(dt^2) against the exact
        # rotation of the linearized constant-coefficient system, whose
        # viscosity 1 is rho^(alpha-1) = nu_bar here up to 1e-8
        grid = TorusGrid(64, 21)
        params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=100.0)
        amp = 1e-8
        spec = np.zeros(grid.n_half, dtype=complex)
        spec[mode] = amp
        st = State(RealField.from_spectral(spec, grid),
                   RealField.from_spectral(np.zeros_like(spec), grid), 0.0)
        k = 2 * np.pi * mode
        errs = []
        for dt in (2e-4, 1e-4):
            cfg = StepConfig(dt=dt, t_end=dt)
            out = step(st, cfg, params, NO_NOISE, 0, 0, grid)
            exact = linear_propagator(k, params.gamma, 1.0, dt) @ np.array([amp, 0.0])
            err = np.hypot(abs(out.psi.spectral[mode] - exact[0]),
                           abs(out.u.spectral[mode] - exact[1])) / amp
            errs.append(err)
        assert errs[1] < errs[0] / 3.5
        assert errs[0] < 5e-3

    def test_full_nonlinear_against_fine_rk4_reference(self):
        grid = TorusGrid(32, 10)
        params, st = small_setup(grid)
        t_end = 0.04
        ref = reference_trajectory(st, params, grid, t_end, dt_fine=1e-3 / 64)
        errs = []
        for dt in (1e-3, 5e-4):
            cfg = StepConfig(dt=dt, t_end=t_end)
            res = simulate_path(st, cfg, params, NO_NOISE, 0, grid,
                                MonitorSpec(collect_records=False))
            diff = RealField.from_spectral(
                res.final_state.u.spectral - ref.u.spectral, grid)
            errs.append(hs_norm(diff, 0, grid))
        # first-order splitting: halving dt should at least halve the error
        assert errs[1] < 0.75 * errs[0]
        assert errs[0] < 1e-4


class TestSimulatePath:
    def test_completion_with_large_radius(self, grid64):
        params, st = small_setup(grid64)
        cfg = StepConfig(dt=1e-3, t_end=0.02)
        res = simulate_path(st, cfg, params, NO_NOISE, 0, grid64)
        assert res.event.kind == "completed"
        assert res.event.time == pytest.approx(0.02)
        assert res.event.which == "none"

    def test_immediate_trigger_on_initial_norm(self, grid64):
        params, st = small_setup(grid64)
        tight = ModelParams(gamma=1.5, alpha=0.5,
                            cutoff_radius=0.5 * w2inf_norm(st.u.spectral, grid64))
        cfg = StepConfig(dt=1e-3, t_end=0.02)
        res = simulate_path(st, cfg, tight, NO_NOISE, 0, grid64)
        assert res.event.kind == "tau_R_hit"
        assert res.event.time == 0.0
        assert res.event.triggering_norm >= tight.cutoff_radius

    def test_bit_identical_replay(self, grid64):
        params, st = small_setup(grid64)
        noisy = NoiseModel(base_amplitude=0.05)
        cfg = StepConfig(dt=1e-3, t_end=0.05)
        a = simulate_path(st, cfg, params, noisy, 42, grid64, MonitorSpec(stride=5))
        b = simulate_path(st, cfg, params, noisy, 42, grid64, MonitorSpec(stride=5))
        assert np.array_equal(a.norm_trace, b.norm_trace)
        for ra, rb in zip(a.records, b.records):
            assert ra.to_row() == rb.to_row()
        assert not np.array_equal(
            a.final_state.u.spectral,
            simulate_path(st, cfg, params, noisy, 43, grid64).final_state.u.spectral)

    def test_provided_increments_match_sampled(self, grid64):
        params, st = small_setup(grid64)
        noisy = NoiseModel(base_amplitude=0.05)
        cfg = StepConfig(dt=1e-3, t_end=0.02)
        incs = [sample_increment(42, i, cfg.dt_effective, noisy)
                for i in range(cfg.n_steps)]
        a = simulate_path(st, cfg, params, noisy, 42, grid64)
        b = simulate_path(st, cfg, params, noisy, 42, grid64, increments=incs)
        assert np.array_equal(a.final_state.u.spectral, b.final_state.u.spectral)

    def test_stopping_monotone_in_radius(self, grid64):
        params, st = small_setup(grid64)
        noisy = NoiseModel(base_amplitude=1.0, amplitude_decay=2.0)
        run = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=20.0)
        cfg = StepConfig(dt=5e-4, t_end=0.5)
        radii = [4.0, 6.0, 8.0, 12.0]
        res = simulate_path(st, cfg, run, noisy, 7, grid64,
                            MonitorSpec(collect_records=False, resolve_radius=min(radii)))
        hits = first_hit_times(res, radii)
        seen = [t for t in hits if t is not None]
        assert seen == sorted(seen)
        for r1, r2 in zip(hits, hits[1:]):
            if r1 is None:
                assert r2 is None

    def test_hit_times_below_resolve_radius_raise(self, grid64):
        # with the default monitors the resolve radius is R itself, so rows
        # below it may hold Wiener bounds and cannot place a lower threshold
        params, st = small_setup(grid64)
        params = replace(params, cutoff_radius=300.0)
        res = simulate_path(st, StepConfig(dt=1e-3, t_end=0.01), params,
                            NoiseModel(base_amplitude=0.2), 3, grid64)
        assert res.resolve_radius == 300.0
        assert first_hit_times(res, [300.0]) == [None]
        with pytest.raises(ValueError):
            first_hit_times(res, [3.0])

    @pytest.mark.parametrize("case", ["no_noise", "multiplicative", "additive", "padded",
                                      "tau_R_hit"])
    def test_certified_rows_change_nothing_else(self, case):
        # resolve radius 0 takes the exact norm on every state; the default
        # certifies states whose Wiener bounds stay below the cut-off radius
        grid = TorusGrid(32, 16) if case == "padded" else TorusGrid(64, 21)
        params, st = small_setup(grid)
        noise = {"no_noise": NO_NOISE,
                 "additive": NoiseModel(base_amplitude=0.2, shape="off"),
                 "tau_R_hit": NoiseModel(base_amplitude=1.0, amplitude_decay=2.0),
                 }.get(case, NoiseModel(base_amplitude=0.2))
        if case == "tau_R_hit":
            params = replace(params, cutoff_radius=6.0)
        cfg = StepConfig(dt=1e-3, t_end=0.05)
        certified, exact = (simulate_path(st, cfg, params, noise, 11, grid,
                                          MonitorSpec(stride=7, resolve_radius=r))
                            for r in (None, 0.0))
        assert certified.event == exact.event
        assert (certified.event.kind == "tau_R_hit") == (case == "tau_R_hit")
        assert [r.to_row() for r in certified.records] == [r.to_row() for r in exact.records]
        for field in ("psi", "u"):
            assert np.array_equal(getattr(certified.final_state, field).spectral,
                                  getattr(exact.final_state, field).spectral)
        assert np.array_equal(certified.norm_trace[:, 0], exact.norm_trace[:, 0])
        rows, exact_rows = certified.norm_trace[:, 1:], exact.norm_trace[:, 1:]
        changed = np.any(rows != exact_rows, axis=1)
        assert changed.any() and not changed[-1]
        assert np.all(exact_rows <= rows)
        assert np.all(rows[changed] <= params.cutoff_radius)

    def test_blowup_event(self, grid64):
        params = ModelParams(gamma=1.5, alpha=0.5, enable_cutoff=False)
        st = make_state(grid64, np.full(64, 60.0), np.zeros(64))
        cfg = StepConfig(dt=1e-3, t_end=0.01)
        res = simulate_path(st, cfg, params, NO_NOISE, 0, grid64,
                            MonitorSpec(collect_records=False))
        assert res.event.kind == "numerical_blowup"
        assert res.event.time == 0.0
        assert res.norm_trace.shape == (0, 3)

    @pytest.mark.parametrize("amplitude", [5.0, 8.0])
    def test_final_state_checked_before_monitors(self, amplitude):
        # one huge step: at amplitude 5 the final |psi| passes the clamp of 50
        # and the mass reaches 1e65; at 8 the density underflows to 0 and the
        # monitor record would divide by zero. Both must stop as blow-ups,
        # with no norm row or record of the diverged state.
        grid = TorusGrid(32, 10)
        params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=1e12)
        st = make_state(grid, amplitude * np.cos(2 * np.pi * grid.x),
                        amplitude * np.sin(2 * np.pi * grid.x))
        res = simulate_path(st, StepConfig(dt=1.0, t_end=1.0), params, NO_NOISE, 0, grid)
        assert res.event.kind == "numerical_blowup"
        assert res.event.time == 1.0
        assert res.n_steps_taken == 1
        assert res.norm_trace.shape == (1, 3)
        assert [r.time for r in res.records] == [0.0]

    @pytest.mark.parametrize("cutoff", [True, False])
    def test_nonfinite_norm_is_blowup(self, grid64, cutoff):
        # u = 1e305 cos(40 pi x) has finite samples that pass the state check,
        # but its derivatives overflow and the sup-norm's u'' row is NaN;
        # the cut-off must not read that norm as a finite threshold hit
        params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=1e6, enable_cutoff=cutoff)
        u = np.zeros(grid64.n_half, dtype=complex)
        u[20] = 5e304
        st = State(RealField.from_spectral(np.zeros_like(u), grid64),
                   RealField.from_spectral(u, grid64), 0.0)
        cfg = StepConfig(dt=1e-4, t_end=1e-3)
        with np.errstate(over="ignore", invalid="ignore"):
            res = simulate_path(st, cfg, params, NO_NOISE, 0, grid64)
            with pytest.raises(NumericalBlowupError):
                step(st, cfg, params, NO_NOISE, 0, 0, grid64)
        assert res.event.kind == "numerical_blowup"
        assert res.event.time == 0.0
        assert res.records == []
        assert res.norm_trace.shape == (0, 3)

    def test_mass_drift_quarters(self, grid64):
        params, st = small_setup(grid64)
        drifts = []
        for dt in (8e-4, 4e-4):
            cfg = StepConfig(dt=dt, t_end=0.2)
            res = simulate_path(st, cfg, params, NO_NOISE, 0, grid64,
                                MonitorSpec(stride=20))
            masses = [r.mass for r in res.records]
            drifts.append(max(abs(m - masses[0]) for m in masses) / masses[0])
        assert drifts[1] < drifts[0] / 3.5

    def test_stochastic_mass_drift_small(self, grid64):
        params, st = small_setup(grid64)
        noisy = NoiseModel(base_amplitude=0.05)
        cfg = StepConfig(dt=5e-4, t_end=0.2)
        res = simulate_path(st, cfg, params, noisy, 3, grid64, MonitorSpec(stride=20))
        masses = [r.mass for r in res.records]
        assert max(abs(m - masses[0]) for m in masses) / masses[0] < 1e-6


class TestStackedKernels:
    @pytest.mark.parametrize("stride, paths", [(None, None), (3, None), (None, 5), (3, 5)],
                             ids=["None", "3", "None-batch5", "3-batch5"])
    def test_four_transforms_per_certified_step(self, grid64, monkeypatch, stride, paths):
        # per state one inverse at n, the state check's norms being certified
        # away; per step one forward for the explicit terms and one inverse
        # plus one forward for the corrector's transport, the predictor's
        # sup-norm being certified away too. The last state adds the
        # oversampled inverse of its exact norms; so does each recorded state
        # before it, whose record takes compute_record's six transforms. A
        # batch shares every transform: the exact norms of its paths' states
        # take one oversampled inverse, and their records one compute_record
        # pass, so P paths make the transforms of one.
        params, st = small_setup(grid64)
        calls = []
        for name in ("rfft", "irfft"):
            original = getattr(np.fft, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        cfg = StepConfig(dt=1e-3, t_end=0.012)
        monitors = (MonitorSpec(collect_records=False) if stride is None
                    else MonitorSpec(stride=stride))
        noise = NoiseModel(base_amplitude=0.2)
        if paths is None:
            results = [simulate_path(st, cfg, params, noise, 3, grid64, monitors)]
        else:
            results = simulate_path([st] * paths, cfg, params, noise, list(range(paths)),
                                    grid64, monitors)
        assert all(r.event.kind == "completed" and r.n_steps_taken == cfg.n_steps
                   for r in results)
        n_records = len(results[0].records)
        assert n_records == (0 if stride is None else 5)
        per_path = 1 + max(n_records - 1, 0) + 6 * n_records
        assert len(calls) == 4 * cfg.n_steps + 1 + per_path

    def test_one_record_pass_per_recorded_step(self, grid64, monkeypatch):
        # the recorded states of a batch take one compute_record call per
        # recorded step, and each path keeps the records it has alone; a run
        # without records makes no call
        params, st = small_setup(grid64)
        cfg = StepConfig(dt=1e-3, t_end=0.012)
        noise = NoiseModel(base_amplitude=0.2)
        seeds = list(range(8))
        initials = [make_state(grid64, a * np.cos(2 * np.pi * grid64.x),
                               a * np.sin(2 * np.pi * grid64.x))
                    for a in np.linspace(0.05, 0.4, 8)]
        alone = [simulate_path(s0, cfg, params, noise, seed, grid64, MonitorSpec(stride=3))
                 for s0, seed in zip(initials, seeds)]
        calls = []
        original = functionals.compute_record

        def counted(states, *args, **kwargs):
            calls.append(1 if isinstance(states, State) else len(states))
            return original(states, *args, **kwargs)

        monkeypatch.setattr(functionals, "compute_record", counted)
        batch = simulate_path(initials, cfg, params, noise, seeds, grid64, MonitorSpec(stride=3))
        # steps 0, 3, 6, 9 and the last, 12
        assert calls == [8] * 5
        for got, want in zip(batch, alone):
            assert_same_path(got, want)
        calls.clear()
        simulate_path(initials, cfg, params, noise, seeds, grid64,
                      MonitorSpec(collect_records=False))
        assert calls == []

    def test_step_replays_path_on_padded_grid(self):
        # m = n/2 puts the products on a padded grid; the public step() and
        # simulate_path run the same kernels and draw the same increments
        grid = TorusGrid(32, 16)
        params, st = small_setup(grid)
        noisy = NoiseModel(base_amplitude=0.2)
        cfg = StepConfig(dt=1e-3, t_end=0.01)
        res = simulate_path(st, cfg, params, noisy, 9, grid, MonitorSpec(stride=4))
        assert res.event.kind == "completed"
        state = st
        for i in range(cfg.n_steps):
            state = step(state, cfg, params, noisy, 9, i, grid)
        assert np.array_equal(state.psi.spectral, res.final_state.psi.spectral)
        assert np.array_equal(state.u.spectral, res.final_state.u.spectral)

    def test_records_and_final_state_reuse_checked_samples(self, grid64):
        params, st = small_setup(grid64)
        cfg = StepConfig(dt=1e-3, t_end=0.006)
        res = simulate_path(st, cfg, params, NoiseModel(base_amplitude=0.2), 5, grid64,
                            MonitorSpec(stride=3))
        final = res.final_state
        rebuilt = State(RealField.from_spectral(final.psi.spectral, grid64),
                        RealField.from_spectral(final.u.spectral, grid64), final.time)
        for got, want in ((final.psi, rebuilt.psi), (final.u, rebuilt.u)):
            assert got.physical.tobytes() == want.physical.tobytes()
            assert not got.physical.flags.writeable and not got.spectral.flags.writeable
        _, norm_psi, norm_u = res.norm_trace[-1]
        record = compute_record(rebuilt, params, grid64, w2inf_psi=norm_psi, w2inf_u=norm_u)
        assert res.records[-1].to_row() == record.to_row()


class TestCertifiedNorms:
    def test_mixed_thresholds_in_one_call(self, grid64, monkeypatch):
        # per state: its Wiener bounds where both stay below its threshold,
        # and otherwise the exact norms, whatever the other states get; the
        # states that take exact norms share one oversampled transform
        stepper = _Stepper(grid64, ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=500.0),
                           StepConfig(dt=1e-3, t_end=1e-3), NO_NOISE)
        rng = np.random.default_rng(3)
        decay = np.exp(-np.arange(grid64.n_half) / 3.0)
        rows = (rng.standard_normal((2, 5, grid64.n_half))
                + 1j * rng.standard_normal((2, 5, grid64.n_half))) * decay
        rows[..., 0] = rows[..., 0].real
        rows[:, 4] = 0.0
        # a finite bound above finite_floor, which the oversampled transform overflows
        rows[1, 4, 20] = 1e303
        alone = [(stepper.wiener @ np.abs(rows[:, p]).T).max(axis=0).tolist()
                 for p in range(5)]
        with np.errstate(over="ignore", invalid="ignore"):
            exact = [w2inf_norm(rows[:, p], grid64) for p in range(5)]
        assert math.inf > alone[4][1] > stepper.finite_floor
        below = [max(alone[0]) * 1.01,  # certified
                 max(alone[1]) * 0.99,  # a bound above the threshold
                 -math.inf,  # always exact
                 max(alone[3]) * (1.0 + 1e-12),  # within the slack: exact
                 math.inf]  # above finite_floor: exact
        calls = []

        def counted(spec, grid):
            calls.append(np.shape(spec))
            return w2inf_norm(spec, grid)

        monkeypatch.setattr(integrator, "w2inf_norm", counted)
        with np.errstate(over="ignore", invalid="ignore"):
            got = stepper.certified_norms(rows, below)
        assert calls == [(4, 2, grid64.n_half)]
        assert got[0] == alone[0] and got[0] != exact[0]
        for p in (1, 2, 3, 4):
            assert np.array_equal(got[p], exact[p], equal_nan=True), p
        assert not np.isfinite(exact[4]).all()

    def test_bounds_and_sup_norms_read_only_in_certified_norms(self):
        # the bound-or-norm choice exists once: every read of the stepper's
        # Wiener weights and every sup-norm call in the integrator lies in
        # _Stepper.certified_norms
        reads = []

        class Reads(ast.NodeVisitor):
            scope = ["<module>"]

            def visit_FunctionDef(self, node):
                self.scope.append(node.name)
                self.generic_visit(node)
                self.scope.pop()

            def visit_Attribute(self, node):
                if node.attr == "wiener" and isinstance(node.ctx, ast.Load):
                    reads.append(("wiener", self.scope[-1]))
                self.generic_visit(node)

            def visit_Name(self, node):
                if node.id == "w2inf_norm":
                    reads.append(("w2inf_norm", self.scope[-1]))

        Reads().visit(ast.parse(Path(integrator.__file__).read_text()))
        assert sorted(reads) == [("w2inf_norm", "certified_norms"),
                                 ("wiener", "certified_norms")]


def assert_same_path(got, want):
    """Two PathResults agree bit for bit."""
    assert got.event == want.event
    assert got.n_steps_taken == want.n_steps_taken
    assert got.resolve_radius == want.resolve_radius
    assert got.norm_trace.tobytes() == want.norm_trace.tobytes()
    assert got.norm_trace.shape == want.norm_trace.shape
    assert [r.to_row() for r in got.records] == [r.to_row() for r in want.records]
    assert got.final_state.time == want.final_state.time
    for field in ("psi", "u"):
        for rep in ("spectral", "physical"):
            assert (getattr(getattr(got.final_state, field), rep).tobytes()
                    == getattr(getattr(want.final_state, field), rep).tobytes())


def shifted_harmonic(grid, amplitude, offset=0.0):
    """psi = offset + a cos(2 pi x), u = a sin(2 pi x), projected to the band."""
    return make_state(grid, offset + amplitude * np.cos(2 * np.pi * grid.x),
                      amplitude * np.sin(2 * np.pi * grid.x))


STRONG = NoiseModel(base_amplitude=1.0, amplitude_decay=2.0)

# name: grid, noise, radius, cutoff, amplitudes, stride, resolve radius, t_end
BATCH_CASES = {
    "n32-none": ((32, 10), NO_NOISE, 500.0, True, (0.1, 0.2, 0.3), 4, None, 0.03),
    "n64-additive": ((64, 21), NoiseModel(base_amplitude=0.2, shape="off"), 500.0, True,
                     (0.1, 0.1, 0.2), 7, None, 0.03),
    "n64-multiplicative": ((64, 21), NoiseModel(base_amplitude=0.2), 500.0, True,
                           (0.1, 0.1, 0.2, 0.3), 7, None, 0.03),
    "n64-cutoff-off": ((64, 21), NoiseModel(base_amplitude=0.2), 500.0, False,
                       (0.1, 0.3), None, None, 0.03),
    "n64-tau-R-sweep": ((64, 21), STRONG, 8.0, True, (0.02, 0.05, 0.1, 0.15), 3, 4.0, 0.05),
    "n256-multiplicative": ((256, 85), NoiseModel(base_amplitude=0.2), 500.0, True,
                            (0.1, 0.2), 2, None, 0.004),
    "padded-additive": ((32, 16), NoiseModel(base_amplitude=0.2, shape="off"), 500.0, True,
                        (0.1, 0.2), 4, None, 0.03),
    "padded-tau-R": ((32, 16), STRONG, 8.0, True, (0.03, 0.1, 0.05), None, None, 0.05),
}


class TestPathBatch:
    @pytest.mark.parametrize("case", list(BATCH_CASES))
    def test_batch_matches_single_runs(self, case):
        (n, m), noise, radius, cutoff, amplitudes, stride, resolve, t_end = BATCH_CASES[case]
        grid = TorusGrid(n, m)
        params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=radius, enable_cutoff=cutoff)
        monitors = MonitorSpec(stride=stride or 1, collect_records=stride is not None,
                               resolve_radius=resolve)
        cfg = StepConfig(dt=5e-4 if n < 256 else 2e-4, t_end=t_end)
        states = [shifted_harmonic(grid, a) for a in amplitudes]
        seeds = [derive_path_seed(12, p) for p in range(len(states))]
        batch = simulate_path(states, cfg, params, noise, seeds, grid, monitors)
        assert isinstance(batch, PathBatch) and len(batch) == len(states)
        for got, st, seed in zip(batch, states, seeds):
            assert_same_path(got, simulate_path(st, cfg, params, noise, seed, grid, monitors))
        assert batch.n_steps_taken == sum(r.n_steps_taken for r in batch)
        if "tau-R" in case:
            kinds = {r.event.kind for r in batch}
            assert kinds == {"tau_R_hit", "completed"}

    @pytest.mark.parametrize("n, m", [(32, 10), (32, 16)])
    def test_paths_leave_the_batch_at_different_steps(self, n, m):
        # rho = e^psi with a mean of psi of 14-18 drives the pressure hard
        # enough that paths stop as tau_R hits or blow-ups at different
        # steps, while the others go on stepping to the horizon
        grid = TorusGrid(n, m)
        params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=1e6)
        noise = NoiseModel(base_amplitude=0.2)
        cfg = StepConfig(dt=1e-3, t_end=0.05)
        monitors = MonitorSpec(stride=5)
        states = [shifted_harmonic(grid, 0.1, c) for c in (0.0, 14.0, 15.0, 16.0, 18.0)]
        seeds = list(range(len(states)))
        batch = simulate_path(states, cfg, params, noise, seeds, grid, monitors)
        for got, st, seed in zip(batch, states, seeds):
            assert_same_path(got, simulate_path(st, cfg, params, noise, seed, grid, monitors))
        kinds = [r.event.kind for r in batch]
        assert set(kinds) == {"completed", "tau_R_hit", "numerical_blowup"}
        ends = [r.n_steps_taken for r in batch if r.event.kind != "completed"]
        assert len(set(ends)) == len(ends) and max(ends) < cfg.n_steps
        assert batch.n_steps_taken == sum(r.n_steps_taken for r in batch)

    def test_supplied_increments_match_sampled(self, grid64):
        params, _ = small_setup(grid64)
        noise = NoiseModel(base_amplitude=0.2)
        cfg = StepConfig(dt=1e-3, t_end=0.02)
        states = [shifted_harmonic(grid64, a) for a in (0.1, 0.2, 0.15)]
        seeds = [4, 5, 6]
        incs = np.array([[sample_increment(s, i, cfg.dt_effective, noise)
                          for i in range(cfg.n_steps)] for s in seeds])
        supplied = simulate_path(states, cfg, params, noise, [0, 0, 0], grid64,
                                 MonitorSpec(stride=4), increments=incs)
        for got, st, seed, inc in zip(supplied, states, seeds, incs):
            assert_same_path(got, simulate_path(st, cfg, params, noise, seed, grid64,
                                                MonitorSpec(stride=4)))
            assert_same_path(got, simulate_path(st, cfg, params, noise, 0, grid64,
                                                MonitorSpec(stride=4), increments=inc))

    def test_lockstep_groups_match_one_group(self, grid64, monkeypatch):
        # a batch larger than the lockstep group runs group by group
        params, _ = small_setup(grid64)
        noise = NoiseModel(base_amplitude=0.2)
        cfg = StepConfig(dt=1e-3, t_end=0.01)
        states = [shifted_harmonic(grid64, 0.05 * (p + 1)) for p in range(5)]
        whole = simulate_path(states, cfg, params, noise, list(range(5)), grid64)
        monkeypatch.setattr(integrator, "_LOCKSTEP_POINTS", 2 * grid64.n_collocation)
        grouped = simulate_path(states, cfg, params, noise, list(range(5)), grid64)
        assert len(grouped) == 5
        for got, want in zip(grouped, whole):
            assert_same_path(got, want)

    def test_batch_needs_one_seed_per_state(self, grid64):
        params, st = small_setup(grid64)
        cfg = StepConfig(dt=1e-3, t_end=0.01)
        with pytest.raises(ValueError):
            simulate_path([st, st], cfg, params, NO_NOISE, [1], grid64)
        assert simulate_path([], cfg, params, NO_NOISE, [], grid64) == PathBatch()

    @pytest.mark.parametrize("supplied", [False, True], ids=["sampled", "ragged-increments"])
    def test_mixed_dt_batch_matches_single_runs(self, supplied):
        # three dt values and two horizons in one batch: the 0.1 path stops
        # at tau_R early, the coarse paths leave at their own last steps, and
        # the finest path takes its last 50 steps alone
        grid = TorusGrid(64, 21)
        params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=8.0)
        cfgs = [StepConfig(dt=5e-4, t_end=0.05), StepConfig(dt=1e-3, t_end=0.05),
                StepConfig(dt=2e-3, t_end=0.04), StepConfig(dt=1e-3, t_end=0.05)]
        states = [shifted_harmonic(grid, a) for a in (0.05, 0.05, 0.02, 0.1)]
        seeds = [derive_path_seed(12, p) for p in range(len(states))]
        incs = ([np.array([sample_increment(seed, i, cfg.dt_effective, STRONG)
                           for i in range(cfg.n_steps)]) for seed, cfg in zip(seeds, cfgs)]
                if supplied else None)
        monitors = MonitorSpec(stride=3, resolve_radius=4.0)
        batch = simulate_path(states, cfgs, params, STRONG, seeds, grid, monitors,
                              increments=incs)
        for p, got in enumerate(batch):
            # events, norm traces, records and final states, byte for byte
            assert_same_path(got, simulate_path(states[p], cfgs[p], params, STRONG, seeds[p],
                                                grid, monitors,
                                                increments=None if incs is None else incs[p]))
        assert [r.event.kind for r in batch] == ["completed"] * 3 + ["tau_R_hit"]
        assert [r.n_steps_taken for r in batch[:3]] == [100, 50, 20]
        assert batch[3].n_steps_taken < 20

    def test_mixed_dts_give_each_row_its_own_factors(self, grid64):
        # equal dts keep scalar factors; differing dts give per-row factors
        # with the bits of each dt's scalar ones
        stepper = _Stepper(grid64, small_setup(grid64)[0], StepConfig(dt=1e-3, t_end=1e-3),
                           NO_NOISE)
        names = ("dt", "hdt", "half_hdt2_k4", "neg_hdt_ihk3", "hdt_ik")
        dts = [5e-4, 1e-3, 2e-3]
        alone = []
        for dt in dts:
            stepper.use_dts([dt, dt])
            assert np.ndim(stepper.dt) == np.ndim(stepper.hdt) == 0
            alone.append([np.broadcast_to(getattr(stepper, name), grid64.n_half)
                          for name in names])
        stepper.use_dts(dts)
        for j, name in enumerate(names):
            rows = np.broadcast_to(getattr(stepper, name), (len(dts), grid64.n_half))
            for p in range(len(dts)):
                assert rows[p].tobytes() == alone[p][j].tobytes(), (name, p)

    def test_batch_rejects_mixed_clamps_and_short_increments(self, grid64):
        params, st = small_setup(grid64)
        cfg = StepConfig(dt=1e-3, t_end=0.01)
        noise = NoiseModel(base_amplitude=0.2)
        with pytest.raises(ValueError):
            simulate_path([st, st], [cfg, replace(cfg, blowup_clamp=10.0)], params, NO_NOISE,
                          [1, 2], grid64)
        with pytest.raises(ValueError):
            simulate_path([st], [cfg, cfg], params, NO_NOISE, [1], grid64)
        with pytest.raises(ValueError):
            simulate_path([st], cfg, params, noise, [1], grid64,
                          increments=[np.zeros((cfg.n_steps - 1, noise.k_modes))])


class TestStrongConvergence:
    def test_deterministic_order_at_least_one(self):
        # the first-order splitting mixes with second-order pieces (CN block,
        # transport corrector), so self-convergence lands in [1, 2]
        grid = TorusGrid(32, 10)
        params, st = small_setup(grid)
        t_end = 0.1
        dts = [t_end * 2.0**-e for e in (6, 7, 8, 9)]
        conv = strong_convergence_order(st, params, NO_NOISE, grid, dts, 1, 0, t_end)
        assert 0.8 <= conv.order <= 2.2

    def test_noise_free_paths_draw_no_increments(self, monkeypatch):
        draws = []
        monkeypatch.setattr(integrator, "sample_increment", lambda *args: draws.append(args))
        grid = TorusGrid(32, 10)
        params, st = small_setup(grid)
        conv = strong_convergence_order(st, params, NO_NOISE, grid, [0.0025, 0.005, 0.01],
                                        1, 0, 0.02)
        assert conv.n_paths_used == 1 and draws == []

    def test_one_batch_for_all_levels(self, monkeypatch):
        # every path of every dt level, the reference included, steps in one
        # simulate_path call, whose step count adds up each path's steps at
        # every level
        calls = []
        original = integrator.simulate_path

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append((len(result), result.n_steps_taken))
            return result

        monkeypatch.setattr(integrator, "simulate_path", counted)
        grid = TorusGrid(32, 10)
        params, st = small_setup(grid)
        t_end = 0.02
        dts = [0.0025, 0.005, 0.01]
        conv = strong_convergence_order(st, params, NoiseModel(base_amplitude=0.05), grid,
                                        dts, 3, 0, t_end)
        assert conv.n_paths_used == 3
        assert calls == [(3 * len(dts), 3 * sum(round(t_end / d) for d in dts))]

    def test_exclusions_applied_level_by_level(self, monkeypatch):
        # path 3 of master seed 28 reaches R = 9.82 at the dt = t_end/16
        # level only. It leaves the study there: its errors at every level are
        # dropped, though its coarser levels complete. The values are those of
        # running each level only on the paths that completed every finer one.
        events = []
        original = integrator.simulate_path

        def spied(*args, **kwargs):
            result = original(*args, **kwargs)
            events.extend((r.event.kind, r.n_steps_taken) for r in result)
            return result

        monkeypatch.setattr(integrator, "simulate_path", spied)
        grid = TorusGrid(32, 10)
        params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=9.82)
        st = small_setup(grid)[1]
        t_end = 0.04
        dts = [t_end / 32, t_end / 16, t_end / 8, t_end / 4]
        conv = strong_convergence_order(st, params, STRONG, grid, dts, 5, 28, t_end)
        stopped = [e for e in events if e[0] != "completed"]
        assert len(stopped) == 1 and stopped[0][0] == "tau_R_hit" and stopped[0][1] < 16
        assert (conv.n_paths_used, conv.n_excluded) == (4, 1)
        assert conv.dts == (0.0025, 0.005, 0.01)
        assert conv.errors == pytest.approx(
            (0.0003484264034596372, 0.0009911693145650212, 0.002523720667953193),
            rel=1e-12, abs=0.0)
        assert conv.order == pytest.approx(1.4283131892319705, rel=1e-12, abs=0.0)

    def test_rejects_non_dyadic_levels(self):
        grid = TorusGrid(32, 10)
        params, st = small_setup(grid)
        with pytest.raises(IntegratorConfigError):
            strong_convergence_order(st, params, NO_NOISE, grid,
                                     [0.01, 0.0033], 1, 0, 0.1)
