import ast
import math
import time
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from qns1d import functionals, integrator, suites
from qns1d.functionals import QUAD_OVERSAMPLE, compute_record
from qns1d.integrator import (
    TERMS,
    IntegratorConfigError,
    MonitorSpec,
    PathBatch,
    StepConfig,
    _crossed,
    _Stepper,
    first_hit_times,
    simulate_path,
    step,
    strong_convergence_order,
)
from qns1d.model import BOUND_SLACK, ModelParams, State, cutoff_phi, w2inf_norm
from qns1d.noise import NoiseModel, derive_path_seed, sample_increment
from qns1d.spectral import RealField, TorusGrid, hs_norm, project, to_physical

from conftest import one_step
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
        dict(dt=math.nan, t_end=1.0),
        dict(dt=0.1, t_end=math.nan),
        dict(dt=0.1, t_end=math.inf),
        dict(dt=math.inf, t_end=math.inf),
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
        res = simulate_path(st, StepConfig(dt=1e-3, t_end=5e-3), params, NO_NOISE, 0, grid64,
                            MonitorSpec(collect_records=False))
        assert res.event.kind == "completed" and res.n_steps_taken == 5
        assert np.array_equal(res.final_state.psi.spectral, st.psi.spectral)
        assert np.array_equal(res.final_state.u.spectral, st.u.spectral)

    def test_equilibrium_survives_multiplicative_noise(self, grid64):
        # the default family vanishes at rest, so rest stays rest pathwise
        params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=100.0)
        noisy = NoiseModel(base_amplitude=0.1)
        st = make_state(grid64, np.full(64, 0.3), np.zeros(64))
        out = one_step(st, 1e-3, params, noisy, grid64, seed=11)
        assert out.event.kind == "completed" and out.n_steps_taken == 1
        assert np.array_equal(out.final_state.u.spectral, st.u.spectral)

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
        free = one_step(st, cfg.dt, ModelParams(gamma=1.5, alpha=0.5), NO_NOISE, grid64)
        radius = w2inf_norm(predicted[0][0], grid64) - 0.5
        assert max(w2inf_norm(np.stack([st.psi.spectral, st.u.spectral]), grid64)) < radius
        params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=radius)
        cut = one_step(st, cfg.dt, params, NO_NOISE, grid64)
        assert len(predicted) == 2 and np.array_equal(predicted[1], predicted[0])
        assert 0.0 < original(_Stepper(grid64, params, cfg.blowup_clamp), predicted[1])[0, 0] < 1.0
        monkeypatch.setattr(_Stepper, "predictor_phi", lambda self, u_spec: 1.0)
        unit = one_step(st, cfg.dt, params, NO_NOISE, grid64)
        assert [r.n_steps_taken for r in (free, cut, unit)] == [1, 1, 1]
        assert not np.array_equal(cut.final_state.psi.spectral, unit.final_state.psi.spectral)
        # with phi = 1 the step is that of a radius it never reaches
        for field in ("psi", "u"):
            assert np.array_equal(getattr(unit.final_state, field).spectral,
                                  getattr(free.final_state, field).spectral)

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
            out = one_step(st, dt, params, NO_NOISE, grid).final_state
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

    @pytest.mark.parametrize("offset", [None, 0.0, 0.5, 2.0])
    def test_immediate_trigger_on_initial_norm(self, grid64, offset):
        # simulate_path stops at the first state whose norm reaches R, so the
        # step's terms carry no cut-off: a state at R, in the bridge, past it,
        # or at twice R or more (offset None: R is half the u norm) ends
        # tau_R_hit at t0 with no step taken, on a recorded path and on an
        # unrecorded one-step run
        params, st = small_setup(grid64)
        norm = max(w2inf_norm(np.stack([st.psi.spectral, st.u.spectral]), grid64))
        radius = 0.5 * w2inf_norm(st.u.spectral, grid64) if offset is None else norm - offset
        tight = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=radius)
        for res in (simulate_path(st, StepConfig(dt=1e-3, t_end=0.02), tight, NO_NOISE, 0,
                                  grid64),
                    one_step(st, 1e-3, tight, NO_NOISE, grid64)):
            assert res.event.kind == "tau_R_hit"
            assert res.event.time == 0.0
            assert res.n_steps_taken == 0
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
                            MonitorSpec(collect_records=False, radii=tuple(radii)))
        hits = first_hit_times(res, radii)
        seen = [t for t in hits if t is not None]
        assert seen == sorted(seen)
        for r1, r2 in zip(hits, hits[1:]):
            if r1 is None:
                assert r2 is None

    def test_hit_times_of_unresolved_radii_raise(self, grid64):
        # with the default monitors R is the only resolved radius, so rows
        # below it may hold bounds and cannot place a lower threshold
        params, st = small_setup(grid64)
        params = replace(params, cutoff_radius=300.0)
        res = simulate_path(st, StepConfig(dt=1e-3, t_end=0.01), params,
                            NoiseModel(base_amplitude=0.2), 3, grid64)
        assert res.resolved_radii == (300.0,)
        assert first_hit_times(res, [300.0]) == [None]
        with pytest.raises(ValueError):
            first_hit_times(res, [3.0])
        # a sweep resolves its radii below R, sorted, and R; a row between two
        # crossed radii may hold a bound past a radius in between, so a
        # radius between them raises too, as does one beyond R
        sweep = simulate_path(st, StepConfig(dt=5e-4, t_end=0.2),
                              replace(params, cutoff_radius=8.0), STRONG, 7, grid64,
                              MonitorSpec(collect_records=False, radii=(6, 4.0, 8.0, 12.0)))
        assert sweep.resolved_radii == (4.0, 6.0, 8.0)
        hits = first_hit_times(sweep, [4.0, 6.0, 8.0])
        assert None not in hits[:2]
        for radius in (3.0, 5.0, 7.0, 12.0):
            with pytest.raises(ValueError, match="resolved radii"):
                first_hit_times(sweep, [radius])

    @pytest.mark.parametrize("case", ["no_noise", "multiplicative", "additive", "padded",
                                      "tau_R_hit"])
    def test_certified_rows_change_nothing_else(self, case):
        # a stride-1 run records every state, so each takes its exact norm;
        # at stride 7 the other states are certified against the smallest
        # sweep radius their path has not crossed, or R. The initial norm,
        # about 3.95, crosses 2 at once and sits near 4.
        grid = TorusGrid(32, 16) if case == "padded" else TorusGrid(64, 21)
        params, st = small_setup(grid)
        noise = {"no_noise": NO_NOISE,
                 "additive": NoiseModel(base_amplitude=0.2, shape="off"),
                 "tau_R_hit": NoiseModel(base_amplitude=1.0, amplitude_decay=2.0),
                 }.get(case, NoiseModel(base_amplitude=0.2))
        if case == "tau_R_hit":
            params = replace(params, cutoff_radius=6.0)
        cfg = StepConfig(dt=1e-3, t_end=0.05)
        radii = (2.0, 4.0, 5.0)
        certified, exact = (simulate_path(st, cfg, params, noise, 11, grid,
                                          MonitorSpec(stride=stride, radii=radii))
                            for stride in (7, 1))
        assert certified.event == exact.event
        assert (certified.event.kind == "tau_R_hit") == (case == "tau_R_hit")
        assert [r.to_row() for r in certified.records] == [
            r.to_row() for i, r in enumerate(exact.records) if i % 7 == 0 or i == cfg.n_steps]
        for field in ("psi", "u"):
            assert np.array_equal(getattr(certified.final_state, field).spectral,
                                  getattr(exact.final_state, field).spectral)
        assert np.array_equal(certified.norm_trace[:, 0], exact.norm_trace[:, 0])
        rows, exact_rows = certified.norm_trace[:, 1:], exact.norm_trace[:, 1:]
        changed = np.any(rows != exact_rows, axis=1)
        assert changed.any() and not changed[-1]
        # a bound may sit an ulp or so below the exact norm, which carries the
        # rounding of its transform
        assert np.all(exact_rows <= rows + 4 * np.spacing(rows))
        # each changed row stays below the smallest resolved radius that the
        # path had not crossed before it
        tops = exact_rows.max(axis=1)
        for i in np.nonzero(changed)[0]:
            below = min(r for r in certified.resolved_radii if not np.any(tops[:i] >= r))
            assert rows[i].max() < below, i
        resolved = list(certified.resolved_radii)
        assert first_hit_times(certified, resolved) == first_hit_times(exact, resolved)

    @pytest.mark.parametrize("cutoff", [True, False])
    def test_blowup_event(self, grid64, cutoff):
        # |psi| = 60 is beyond the clamp of 50, with the cut-off at the
        # default R, whose Wiener bound certifies the state, or off: the path
        # ends at t0 with no step taken, over ten steps or over one
        params = ModelParams(gamma=1.5, alpha=0.5, enable_cutoff=cutoff)
        st = make_state(grid64, np.full(64, 60.0), np.zeros(64))
        for dt, t_end in ((1e-3, 0.01), (1e-3, 1e-3)):
            res = simulate_path(st, StepConfig(dt=dt, t_end=t_end), params, NO_NOISE, 0, grid64,
                                MonitorSpec(collect_records=False))
            assert res.event.kind == "numerical_blowup"
            assert res.event.time == 0.0
            assert res.n_steps_taken == 0
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
            one = one_step(st, cfg.dt, params, NO_NOISE, grid64)
        for got in (res, one):
            assert got.event.kind == "numerical_blowup"
            assert got.event.time == 0.0
            assert got.n_steps_taken == 0
            assert got.records == []
            assert got.norm_trace.shape == (0, 3)

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


class TestItoEnergyBalance:
    def test_residual_vanishes_at_first_order(self, grid64):
        # Ito's formula for the energy, path by path: E(T) - E(0) + sum dt D_i
        # - sum_i int rho_i u_i f_i - (1/2) sum_i int rho_i f_i^2 = O(dt), with
        # f_i = sum_k F_k dW_k,i the forcing of step i, from the increments
        # the paths step on, and the discrete square f_i^2. Additive noise keeps
        # the Ito term well above the residual. The gate takes the mean
        # |residual| of 8 paths: its ratio per halving of dt, the square root
        # over two halvings (single halvings of 8 paths spread 0.3-0.8 over
        # seeds), and its size against the Ito term at the finest dt. Each
        # step is one batched one-step simulate_path run on those increments.
        t0 = time.perf_counter()
        params = ModelParams(gamma=1.5, alpha=0.5)
        noise = NoiseModel(base_amplitude=0.5, shape="off")
        initial = small_setup(grid64)[1]
        seeds = [derive_path_seed(6, p) for p in range(8)]
        fine = QUAD_OVERSAMPLE * grid64.n_collocation
        waves = noise.waves(np.arange(fine) / fine)
        residuals, ito_terms = [], []
        for level in (1e-3, 5e-4, 2.5e-4):
            cfg = StepConfig(dt=level, t_end=0.1)
            dt = cfg.dt_effective
            one = StepConfig(dt=dt, t_end=dt)
            states = [initial] * len(seeds)
            energy = -np.array([r.energy for r in compute_record(states, params, grid64)])
            ito = np.zeros(len(seeds))
            for i in range(cfg.n_steps):
                records = compute_record(states, params, grid64)
                energy += dt * np.array([r.energy_dissipation_rate for r in records])
                dW = np.array([sample_increment(seed, i, dt, noise) for seed in seeds])
                forcing = dW @ waves
                psi, u = to_physical(np.array([[s.psi.spectral for s in states],
                                               [s.u.spectral for s in states]]), fine)
                rho = np.exp(psi)
                energy -= (rho * u * forcing).mean(axis=-1)
                ito += 0.5 * (rho * forcing**2).mean(axis=-1)
                batch = simulate_path(states, one, params, noise, seeds, grid64,
                                      MonitorSpec(collect_records=False), increments=dW[:, None])
                assert all(r.event.kind == "completed" for r in batch)
                states = [r.final_state for r in batch]
            energy += np.array([r.energy for r in compute_record(states, params, grid64)])
            residuals.append(np.abs(energy - ito).mean())
            ito_terms.append(ito.mean())
        halving = math.sqrt(residuals[2] / residuals[0])
        assert 0.35 <= halving <= 0.65, residuals
        assert residuals[2] <= 0.1 * ito_terms[2], (residuals, ito_terms)
        assert time.perf_counter() - t0 < 30.0


class TestStackedKernels:
    @pytest.mark.parametrize("stride, paths", [(None, None), (3, None), (None, 5), (3, 5)],
                             ids=["None", "3", "None-batch5", "3-batch5"])
    def test_four_transforms_per_certified_step(self, grid64, monkeypatch, stride, paths):
        # per state one inverse at n, the state check's norms being certified
        # away; per step one forward for the explicit terms and one inverse
        # plus one forward for the corrector's transport, the predictor's
        # sup-norm being certified away too. The last state adds the
        # oversampled inverse of its exact norms; so does each recorded state
        # before it, whose record takes compute_record's four transforms. A
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
        per_path = 1 + max(n_records - 1, 0) + 4 * n_records
        assert len(calls) == 4 * cfg.n_steps + 1 + per_path

    def test_one_record_pass_per_recorded_step(self, grid64, monkeypatch):
        # the recorded states of a batch take one compute_record call per
        # recorded step, as States whose fields view the stepped spectra and
        # samples, uncopied; each path keeps the records it has alone; a run
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
            fields = [f for st in states for f in (st.psi, st.u)]
            for name in ("spectral", "physical"):
                base = getattr(fields[0], name).base
                assert base is not None and base.flags.writeable
                assert all(getattr(f, name).base is base for f in fields)
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

    def test_one_draw_per_lockstep_step(self, grid64, monkeypatch):
        # the noisy rows of a 64-path batch draw each step in one call, with
        # their paths' seeds and dts; noise-free rows draw nothing
        calls = []
        original = integrator.sample_increment

        def spied(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(integrator, "sample_increment", spied)
        params, st = small_setup(grid64)
        cfg = StepConfig(dt=1e-3, t_end=0.01)
        seeds = [derive_path_seed(9, p) for p in range(64)]
        noisy = NoiseModel(base_amplitude=0.2)
        monitors = MonitorSpec(collect_records=False)
        for models in ([noisy] * 64, [NO_NOISE, noisy] * 32, [NO_NOISE] * 64):
            calls.clear()
            batch = simulate_path([st] * 64, cfg, params, models, seeds, grid64, monitors)
            assert all(r.event.kind == "completed" for r in batch)
            drawn = [seed for seed, m in zip(seeds, models) if m is noisy]
            assert [(list(c[0]), c[1], c[2]) for c in calls] == (
                [(drawn, i, [cfg.dt_effective] * len(drawn)) for i in range(cfg.n_steps)]
                if drawn else [])

    @pytest.mark.parametrize("n, m", [(32, 16), (64, 21)])
    def test_step_replays_path_on_padded_grid(self, n, m):
        # m = n/2 puts the products on a padded grid, and (64, 21) does not:
        # the public step(), one step of simulate_path on the increment of its
        # step index, replays a path of simulate_path state by state
        grid = TorusGrid(n, m)
        params, st = small_setup(grid)
        noisy = NoiseModel(base_amplitude=0.2)
        cfg = StepConfig(dt=1e-3, t_end=0.01)
        res = simulate_path(st, cfg, params, noisy, 9, grid, MonitorSpec(stride=4))
        assert res.event.kind == "completed"
        state = st
        for i in range(cfg.n_steps):
            state = step(state, cfg, params, noisy, 9, i, grid).final_state
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


def list_certified_norms(stepper, rows, below, previous=None):
    """The per-state list version of ``_Stepper.certified_norms``, which the
    (P, F) array version replaced, kept as its reference: ``below`` and the
    previous values are lists, and it returns a list of each state's values."""
    wiener = stepper.wiener
    norms = np.matmul(wiener, np.abs(rows).transpose(1, 2, 0)).max(axis=-2).tolist()
    floors = [min(limit / (1.0 + BOUND_SLACK), stepper.finite_floor) for limit in below]
    exact = [p for p, floor in enumerate(floors) if not all(b <= floor for b in norms[p])]
    retry = ([p for p in exact if math.isfinite(below[p])]
             if exact and previous is not None else [])
    if retry:
        spectra, values = previous
        change = np.abs(rows[:, retry] - spectra[:, retry]).transpose(1, 2, 0)
        steps = np.matmul(wiener, change).max(axis=-2).tolist()
        for p, step_bound in zip(retry, steps):
            bound = [min(b, v + s) for b, v, s in zip(norms[p], values[p], step_bound)]
            if all(b <= floors[p] for b in bound):
                norms[p] = bound
                exact.remove(p)
    if exact:
        for p, pair in zip(exact, w2inf_norm(rows[:, exact].swapaxes(0, 1), stepper.grid)):
            norms[p] = pair
    return norms


def loop_crossed(resolved, nexts, tops):
    """The per-row crossing loop that ``integrator._crossed`` replaced, kept
    as its reference."""
    reached = []
    for j, top in zip(nexts, tops):
        while top >= resolved[j]:
            j += 1
        reached.append(j)
    return reached


# the certification test's grid and stepper, at R = 4
CERTIFY_GRID = TorusGrid(32, 10)
CERTIFY_STEPPER = _Stepper(CERTIFY_GRID, ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=4.0),
                           StepConfig.blowup_clamp)


@strategies.composite
def certification_cases(draw):
    """P states of F fields whose Wiener bounds sit about 10^-3 to 10^2, near
    finite_floor or beyond it, where the exact norm overflows; per state a
    threshold of -inf, inf, R, finite_floor, or a multiple of its Wiener
    bound within and around the slack; and, or not, previous states whose
    change is small or large, with previous values from 0 to 1.5 times the
    threshold, or to 1.5 where the threshold is not finite."""
    stepper = CERTIFY_STEPPER
    n_states, n_fields = draw(strategies.integers(1, 6)), draw(strategies.integers(1, 2))
    rng = np.random.default_rng(draw(strategies.integers(0, 2**32 - 1)))
    decay = np.exp(-np.arange(CERTIFY_GRID.n_half) / 3.0)
    unit = (rng.standard_normal((n_fields, n_states, CERTIFY_GRID.n_half))
            + 1j * rng.standard_normal((n_fields, n_states, CERTIFY_GRID.n_half))) * decay
    unit[..., 0] = unit[..., 0].real
    unit_bounds = np.matmul(stepper.wiener, np.abs(unit).transpose(1, 2, 0)).max(axis=(1, 2))
    targets = draw(strategies.lists(strategies.sampled_from(
        [1e-3, 0.5, 3.0, 4.0, 100.0, stepper.finite_floor * (1.0 - 1e-12),
         stepper.finite_floor, stepper.finite_floor * (1.0 + 1e-12),
         stepper.finite_floor * 4.0]),
        min_size=n_states, max_size=n_states))
    rows = unit * (np.array(targets) / unit_bounds)[:, None]
    bounds = np.matmul(stepper.wiener, np.abs(rows).transpose(1, 2, 0)).max(axis=(1, 2))
    below = [draw(strategies.sampled_from(
        [-math.inf, math.inf, 4.0, stepper.finite_floor, bound * 0.5, bound,
         bound * (1.0 + 0.5 * BOUND_SLACK), bound * (1.0 + 2.0 * BOUND_SLACK), bound * 2.0]))
        for bound in bounds.tolist()]
    previous = None
    if draw(strategies.booleans()):
        change = draw(strategies.sampled_from([1e-9, 1e-3, 1.0]))
        spectra = rows - change * rows * rng.standard_normal(rows.shape)
        values = np.array([[draw(strategies.sampled_from([0.0, 0.1, 0.9, 1.0, 1.5]))
                            * (limit if math.isfinite(limit) else 1.0)
                            for _ in range(n_fields)] for limit in below])
        previous = (spectra, values)
    return rows, np.array(below), previous


class TestCertifiedNorms:
    @settings(derandomize=True, max_examples=150, database=None, deadline=None)
    @given(certification_cases())
    def test_array_version_matches_the_list_reference(self, case):
        # byte for byte: the (P, F) array version against the per-state
        # lists, with and without precomputed floors, and with one threshold
        # for all; the flag holds exactly when every Wiener bound certifies
        rows, below, previous = case
        stepper = CERTIFY_STEPPER
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.array(list_certified_norms(
                stepper, rows, below.tolist(),
                None if previous is None else (previous[0], previous[1].tolist())))
            got, certified = stepper.certified_norms(rows, below, previous)
            floored, _ = stepper.certified_norms(rows, below, previous, stepper.floors(below))
            wiener = np.matmul(stepper.wiener, np.abs(rows).transpose(1, 2, 0)).max(axis=-2)
            floors = [min(limit / (1.0 + BOUND_SLACK), stepper.finite_floor)
                      for limit in below.tolist()]
            if previous is None:
                one, _ = stepper.certified_norms(rows, 4.0, floors=stepper.radius_floor)
                assert one.tobytes() == np.array(list_certified_norms(
                    stepper, rows, [4.0] * len(below))).tobytes()
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert floored.tobytes() == want.tobytes()
        assert certified == all(b <= floor for row, floor in zip(wiener.tolist(), floors)
                                for b in row)

    @settings(derandomize=True, max_examples=150, database=None, deadline=None)
    @given(strategies.lists(strategies.floats(0.5, 50.0), min_size=1, max_size=4, unique=True),
           strategies.data())
    def test_crossed_matches_the_loop_reference(self, below_R, data):
        # radii below R = 64 or inf, then R; each row's index before the
        # state, and a norm below R, on a radius, just off one, or below a
        # radius the row had already crossed
        radius = data.draw(strategies.sampled_from([64.0, math.inf]))
        resolved = tuple(sorted(below_R)) + (radius,)
        rows = data.draw(strategies.integers(1, 8))
        nexts = data.draw(strategies.lists(strategies.integers(0, len(resolved) - 1),
                                           min_size=rows, max_size=rows))
        points = list(resolved[:-1]) + [0.0, 63.999]
        tops = [data.draw(strategies.one_of(
            strategies.sampled_from(points),
            strategies.sampled_from(points).map(lambda r: math.nextafter(r, -math.inf)),
            strategies.floats(0.0, 63.999))) for _ in range(rows)]
        want = np.array(loop_crossed(resolved, nexts, tops), dtype=np.intp)
        got = _crossed(np.array(resolved), np.array(nexts, dtype=np.intp), np.array(tops))
        assert got.dtype == np.intp and got.tobytes() == want.tobytes()

    def test_mixed_thresholds_in_one_call(self, grid64, monkeypatch):
        # per state: its Wiener bounds where both stay below its threshold,
        # and otherwise the exact norms, whatever the other states get; the
        # states that take exact norms share one oversampled transform
        stepper = _Stepper(grid64, ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=500.0),
                           StepConfig.blowup_clamp)
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
        below = np.array([max(alone[0]) * 1.01,  # certified
                          max(alone[1]) * 0.99,  # a bound above the threshold
                          -math.inf,  # always exact
                          max(alone[3]) * (1.0 + 1e-12),  # within the slack: exact
                          math.inf])  # above finite_floor: exact
        calls = []

        def counted(spec, grid):
            calls.append(np.shape(spec))
            return w2inf_norm(spec, grid)

        monkeypatch.setattr(integrator, "w2inf_norm", counted)
        with np.errstate(over="ignore", invalid="ignore"):
            got, certified = stepper.certified_norms(rows, below)
        assert calls == [(4, 2, grid64.n_half)] and certified is False
        assert got[0].tolist() == alone[0] and got[0].tolist() != exact[0]
        for p in (1, 2, 3, 4):
            assert np.array_equal(got[p], exact[p], equal_nan=True), p
        assert not np.isfinite(exact[4]).all()

    def test_incremental_bounds_between_wiener_bound_and_norm(self, grid64, monkeypatch):
        # a state at a finite threshold whose Wiener bounds fail gets, per
        # field, the smaller of its Wiener bound and its previous value plus
        # the Wiener bound of the change, where these certify, with no
        # transform; the other states, and those at -inf or at an infinite
        # threshold, take their exact norms from one oversampled transform
        stepper = _Stepper(grid64, ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=500.0),
                           StepConfig.blowup_clamp)
        rng = np.random.default_rng(5)
        decay = np.exp(-np.arange(grid64.n_half) / 3.0)
        before = (rng.standard_normal((2, 5, grid64.n_half))
                  + 1j * rng.standard_normal((2, 5, grid64.n_half))) * decay
        before[..., 0] = before[..., 0].real
        rows = before + 1e-4 * decay
        # a finite Wiener bound above finite_floor in both states
        before[1, 4, 20] = rows[1, 4, 20] = 1e303
        wiener = [(stepper.wiener @ np.abs(rows[:, p]).T).max(axis=0).tolist()
                  for p in range(5)]
        steps = [(stepper.wiener @ np.abs(rows[:, p] - before[:, p]).T).max(axis=0).tolist()
                 for p in range(5)]
        with np.errstate(over="ignore", invalid="ignore"):
            exact = [w2inf_norm(rows[:, p], grid64) for p in range(5)]
            values = [w2inf_norm(before[:, p], grid64) for p in range(5)]
        values[4] = [1.0, 1.0]
        incremental = [[min(w, v + s) for w, v, s in zip(wiener[p], values[p], steps[p])]
                       for p in range(5)]
        for p in range(4):
            assert max(incremental[p]) < max(exact[p]) * 1.01 < max(wiener[p]), p
        below = np.array([
            max(exact[0]) * 1.01,  # the Wiener bounds fail, the incremental pass
            max(exact[1]) * 0.99,  # both fail: exact
            -math.inf,  # always exact
            max(wiener[3]) * 1.01,  # the Wiener bounds certify and stay
            math.inf])  # not a finite threshold: exact, though 1 + step passes
        calls = []

        def counted(spec, grid):
            calls.append(np.shape(spec))
            return w2inf_norm(spec, grid)

        monkeypatch.setattr(integrator, "w2inf_norm", counted)
        with np.errstate(over="ignore", invalid="ignore"):
            got, certified = stepper.certified_norms(rows, below, (before, np.array(values)))
        assert calls == [(3, 2, grid64.n_half)] and certified is False
        assert got[0].tolist() == incremental[0] and got[0].tolist() != exact[0]
        assert got[3].tolist() == wiener[3] and got[3].tolist() != incremental[3]
        for p in (1, 2, 4):
            assert np.array_equal(got[p], exact[p], equal_nan=True), p
        assert max(incremental[4]) < stepper.finite_floor < max(wiener[4])

    def test_clamp_failed_row_fails_where_its_bound_certifies(self, grid64):
        # at the default R = 1e6 the Wiener bound of a state beyond the clamp
        # certifies, yet the state fails: in check_states, in a one-step run
        # and in a batch's quiet step. The rows that pass keep the norms they get
        # alone, byte for byte, on the quiet step's thresholds and on mixed
        # ones with their previous states.
        params = ModelParams(gamma=1.5, alpha=0.5)
        cfg = StepConfig(dt=1e-3, t_end=0.01)
        stepper = _Stepper(grid64, params, cfg.blowup_clamp)
        rng = np.random.default_rng(5)
        decay = np.exp(-np.arange(grid64.n_half) / 3.0)
        before = (rng.standard_normal((2, 3, grid64.n_half))
                  + 1j * rng.standard_normal((2, 3, grid64.n_half))) * decay
        before[..., 0] = before[..., 0].real
        before[..., grid64.m_modes + 1:] = 0.0
        rows = before + 1e-4 * decay
        rows[..., grid64.m_modes + 1:] = 0.0
        # row 1: psi's mean beyond the clamp of 50
        before[0, 1, 0] = rows[0, 1, 0] = 60.0
        spec, samples = stepper.sample(rows[0], rows[1])
        previous = (before, np.array([w2inf_norm(before[:, p], grid64) for p in range(3)]))
        exact = [w2inf_norm(rows[:, p], grid64) for p in range(3)]
        quiet = np.full(3, stepper.radius)
        assert stepper.certified_norms(spec[:2], quiet)[1] is True
        mixed = np.array([max(exact[0]) * 1.01, stepper.radius, -math.inf])
        for below, prev in ((quiet, None), (mixed, previous)):
            floors = stepper.floors(below)
            norms, failures, certified = stepper.check_states(spec, samples, below, prev, floors)
            assert certified is False
            assert list(failures) == [1] and "beyond clamp" in failures[1]
            assert np.isnan(norms[1]).all()
            for p in (0, 2):
                alone = stepper.check_states(
                    spec[:, p:p + 1], samples[:, p:p + 1], below[p:p + 1],
                    None if prev is None else (prev[0][:, p:p + 1], prev[1][p:p + 1]),
                    floors[p:p + 1])[0]
                assert norms[p].tobytes() == alone[0].tobytes(), p
        # on the mixed thresholds row 0 takes the incremental bound, row 2 the norm
        assert norms[0].tolist() != exact[0] and norms[0].max() <= mixed[0]
        assert norms[2].tolist() == exact[2]
        failed = State(RealField.from_spectral(rows[0, 1], grid64),
                       RealField.from_spectral(rows[1, 1], grid64), 0.0)
        one = one_step(failed, cfg.dt, params, NO_NOISE, grid64)
        assert one.event.kind == "numerical_blowup" and one.n_steps_taken == 0
        assert one.norm_trace.shape == (0, 3)
        # unrecorded, state 0 is checked on the quiet step's thresholds
        passing = shifted_harmonic(grid64, 0.1)
        monitors = MonitorSpec(collect_records=False)
        batch = simulate_path([passing, failed], cfg, params, NO_NOISE, [0, 1], grid64,
                              monitors)
        assert batch[1].event.kind == "numerical_blowup" and batch[1].n_steps_taken == 0
        assert_same_path(batch[0], simulate_path(passing, cfg, params, NO_NOISE, 0, grid64,
                                                 monitors))

    def test_predictor_phi_is_one_below_R(self, grid64, monkeypatch):
        # every predicted norm at most R gives the scalar 1.0 with no call of
        # cutoff_phi; otherwise each path gets its own factor
        stepper = _Stepper(grid64, ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=5.0),
                           StepConfig.blowup_clamp)
        u = np.stack([shifted_harmonic(grid64, a).u.spectral for a in (0.05, 0.1, 0.13)])
        norms = [w2inf_norm(row, grid64) for row in u]
        assert norms[1] < 5.0 < norms[2] < 6.0
        calls = []
        monkeypatch.setattr(integrator, "cutoff_phi",
                            lambda y, r: calls.append(y) or cutoff_phi(y, r))
        for below_R in (u[:2], u[1:2]):
            got = stepper.predictor_phi(below_R)
            assert type(got) is float and got == 1.0
        assert calls == []
        column = stepper.predictor_phi(u)
        assert column.shape == (3, 1)
        assert column[:2, 0].tolist() == [1.0, 1.0] and 0.0 < column[2, 0] < 1.0
        assert column[2, 0] == cutoff_phi(norms[2], 5.0)
        assert stepper.predictor_phi(u[2:]).tolist() == [[column[2, 0]]]

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

    def test_kernels_take_one_shape_and_step_at_one_call_site(self):
        # every path steps with a path axis: no _Stepper method branches on
        # an array's dimensions, and _run_lockstep steps through one call
        tree = ast.parse(Path(integrator.__file__).read_text())
        defs = {node.name: node for node in tree.body
                if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
        ndim_reads = [method.name for method in defs["_Stepper"].body
                      if isinstance(method, ast.FunctionDef)
                      for node in ast.walk(method)
                      if isinstance(node, ast.Attribute) and node.attr == "ndim"]
        assert ndim_reads == []
        steps = [node for node in ast.walk(defs["_run_lockstep"])
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                 and node.func.attr == "step_imex"]
        assert len(steps) == 1

    def test_one_lockstep_call_site_and_one_norms_call_per_check(self):
        # a lone State runs as a batch of one, so simulate_path builds one
        # stepper and enters _run_lockstep at one call site; _run_lockstep
        # checks its states at one call site, and check_states takes every
        # row's norms from one certified_norms call. The public step() is one
        # simulate_path call, and no module of the package or its tools, and
        # no test but the replay of a path by step(), calls it.
        tree = ast.parse(Path(integrator.__file__).read_text())
        defs = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}

        def is_call(node, name):
            return isinstance(node, ast.Call) and name in (
                getattr(node.func, "attr", None), getattr(node.func, "id", None))

        def calls(scope, name):
            return sum(is_call(node, name) for node in ast.walk(defs[scope]))

        assert calls("simulate_path", "_Stepper") == 1
        assert [scope for scope in defs if calls(scope, "_run_lockstep")] == ["simulate_path"]
        assert calls("simulate_path", "_run_lockstep") == 1
        assert calls("_run_lockstep", "check_states") == 1
        assert calls("check_states", "certified_norms") == 1
        assert calls("step", "_Stepper") == 0 and calls("step", "simulate_path") == 1
        root = Path(integrator.__file__).parents[2]
        callers = []
        for path in sorted([*(root / "src").rglob("*.py"), *(root / "tools").rglob("*.py"),
                            *Path(__file__).parent.rglob("*.py")]):
            module = ast.parse(path.read_text())
            # each call, with the functions that enclose it
            scopes = sorted(scope.name for scope in ast.walk(module)
                            if isinstance(scope, ast.FunctionDef)
                            and any(is_call(node, "step") for node in ast.walk(scope)))
            callers += [(path.name, scopes) for node in ast.walk(module) if is_call(node, "step")]
        assert callers == [("test_integrator.py", ["test_step_replays_path_on_padded_grid"])]


def assert_same_path(got, want):
    """Two PathResults agree bit for bit."""
    assert got.event == want.event
    assert got.n_steps_taken == want.n_steps_taken
    assert got.resolved_radii == want.resolved_radii
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

# name: grid, noise, radius, cutoff, amplitudes, stride, sweep radii, t_end
BATCH_CASES = {
    "n32-none": ((32, 10), NO_NOISE, 500.0, True, (0.1, 0.2, 0.3), 4, None, 0.03),
    "n64-additive": ((64, 21), NoiseModel(base_amplitude=0.2, shape="off"), 500.0, True,
                     (0.1, 0.1, 0.2), 7, None, 0.03),
    "n64-multiplicative": ((64, 21), NoiseModel(base_amplitude=0.2), 500.0, True,
                           (0.1, 0.1, 0.2, 0.3), 7, None, 0.03),
    "n64-cutoff-off": ((64, 21), NoiseModel(base_amplitude=0.2), 500.0, False,
                       (0.1, 0.3), None, None, 0.03),
    "n64-tau-R-sweep": ((64, 21), STRONG, 8.0, True, (0.02, 0.05, 0.1, 0.15), 3, (4.0, 6.0),
                        0.05),
    "n256-multiplicative": ((256, 85), NoiseModel(base_amplitude=0.2), 500.0, True,
                            (0.1, 0.2), 2, None, 0.004),
    "padded-additive": ((32, 16), NoiseModel(base_amplitude=0.2, shape="off"), 500.0, True,
                        (0.1, 0.2), 4, None, 0.03),
    "padded-tau-R": ((32, 16), STRONG, 8.0, True, (0.03, 0.1, 0.05), None, None, 0.05),
}


class TestPathBatch:
    @pytest.mark.parametrize("case", list(BATCH_CASES))
    def test_batch_matches_single_runs(self, case):
        (n, m), noise, radius, cutoff, amplitudes, stride, radii, t_end = BATCH_CASES[case]
        grid = TorusGrid(n, m)
        params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=radius, enable_cutoff=cutoff)
        monitors = MonitorSpec(stride=stride or 1, collect_records=stride is not None,
                               radii=radii or ())
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
        monitors = MonitorSpec(stride=3, radii=(4.0, 6.0))
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
        # each row's factors have the bits of its own dt's scalar expressions;
        # dt, hdt and half_hdt2_k4, which only meet complex rows, as complex
        # numbers
        stepper = _Stepper(grid64, small_setup(grid64)[0], StepConfig.blowup_clamp)
        k, k2, hk3 = stepper.k, stepper.k2, stepper.hk3
        dts = [5e-4, 1e-3, 2e-3]
        alone = []
        for dt in dts:
            hdt = 0.5 * dt
            alone.append({"dt": complex(dt), "hdt": complex(hdt),
                          "half_hdt2_k4": (0.5 * hdt * hdt * k2 * k2).astype(complex),
                          "neg_hdt_ihk3": -hdt * 1j * hk3, "hdt_ik": hdt * 1j * k})
        stepper.use_rows(dts, [NO_NOISE] * len(dts))
        for name in alone[0]:
            factor = getattr(stepper, name)
            assert factor.shape in ((len(dts), 1), (len(dts), grid64.n_half)), name
            rows = np.broadcast_to(factor, (len(dts), grid64.n_half))
            for p in range(len(dts)):
                scalar = np.broadcast_to(alone[p][name], grid64.n_half)
                assert rows[p].dtype == scalar.dtype, (name, p)
                assert rows[p].tobytes() == scalar.tobytes(), (name, p)

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

    def test_batch_rejects_mixed_k_modes(self, grid64):
        # one increment array serves every row, so the models share k_modes;
        # a noise-free model counts too
        params, st = small_setup(grid64)
        cfg = StepConfig(dt=1e-3, t_end=0.01)
        for other in (NoiseModel(base_amplitude=0.2, k_modes=8), NoiseModel(k_modes=8)):
            with pytest.raises(ValueError, match="k_modes"):
                simulate_path([st, st], cfg, params, [NoiseModel(base_amplitude=0.2), other],
                              [1, 2], grid64)
        with pytest.raises(ValueError):
            simulate_path([st, st], cfg, params, [NO_NOISE], [1, 2], grid64)

    def test_mixed_noise_rows_force_as_they_would_alone(self, grid64):
        # rows group by model, compared by value, each group's rows and the
        # noise-free rows consecutive, as slices; a noise-free row's forcing
        # is exactly zero_half, and a noisy row's has the bits of its own
        # model's forcing alone
        params = small_setup(grid64)[0]
        stepper = _Stepper(grid64, params, StepConfig.blowup_clamp)
        models = [NO_NOISE, NoiseModel(base_amplitude=0.2), NoiseModel(base_amplitude=0.2),
                  NoiseModel(base_amplitude=0.2, shape="off")]
        states = [shifted_harmonic(grid64, a) for a in (0.1, 0.2, 0.3, 0.4)]
        dW = np.array([sample_increment(7, p, 1e-3, models[1]) for p in range(4)])
        spec, samples = stepper.sample(np.stack([s.psi.spectral for s in states]),
                                       np.stack([s.u.spectral for s in states]))
        stepper.use_rows([1e-3] * len(models), models)
        assert [rows for rows, _, _ in stepper.noise_groups] == [slice(1, 3), slice(3, 4)]
        assert stepper.quiet_rows == slice(0, 1) and len(stepper.waves) == 2
        forcing = stepper.explicit_terms(spec, samples, dW)[TERMS.index("forcing")]
        assert forcing[0].tobytes() == stepper.zero_half.tobytes()
        for p in (1, 2, 3):
            stepper.use_rows([1e-3], [models[p]])
            one = slice(p, p + 1)
            alone = stepper.explicit_terms(spec[:, one], samples[:, one],
                                           dW[one])[TERMS.index("forcing")]
            assert forcing[p].tobytes() == alone[0].tobytes()
        # rows of models equal by value form one group, with the waves built
        # once; a group of every row takes them as a slice
        stepper.use_rows([1e-3] * 2, [NoiseModel(base_amplitude=0.2), models[1]])
        assert [rows for rows, _, _ in stepper.noise_groups] == [slice(0, 2)]
        assert stepper.quiet_rows is None and len(stepper.waves) == 2
        # simulate_path orders the rows so; interleaved models are refused
        for interleaved in ([models[1], NO_NOISE, models[2]], [models[1], models[3], models[2]]):
            with pytest.raises(ValueError, match="consecutive"):
                stepper.use_rows([1e-3] * 3, interleaved)

    def test_poisoned_workspace_changes_no_bit(self, monkeypatch):
        # every array the step allocates with np.empty starts as NaN: a read
        # of a slot the batch never wrote would show. Three noise modes at
        # three dts; the 0.1 path stops at tau_R early, and the finest path
        # takes its last 50 steps alone.
        grid = TorusGrid(64, 21)
        params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=8.0)
        models = [STRONG, NO_NOISE, NoiseModel(base_amplitude=0.2, shape="off"), STRONG,
                  NO_NOISE]
        cfgs = [StepConfig(dt=5e-4, t_end=0.05), StepConfig(dt=1e-3, t_end=0.05),
                StepConfig(dt=2e-3, t_end=0.04), StepConfig(dt=1e-3, t_end=0.05),
                StepConfig(dt=2e-3, t_end=0.02)]
        states = [shifted_harmonic(grid, a) for a in (0.05, 0.05, 0.02, 0.1, 0.03)]
        seeds = [derive_path_seed(12, p) for p in range(len(states))]
        monitors = MonitorSpec(stride=3, radii=(4.0, 6.0))

        def run():
            return simulate_path(states, cfgs, params, models, seeds, grid, monitors)

        clean = run()
        real_empty = np.empty

        def poisoned(*args, **kwargs):
            out = real_empty(*args, **kwargs)
            if out.dtype.kind in "fc":
                out.fill(np.nan)
            return out

        monkeypatch.setattr(np, "empty", poisoned)
        for got, want in zip(run(), clean):
            assert_same_path(got, want)
        assert [r.event.kind for r in clean] == ["completed"] * 3 + ["tau_R_hit", "completed"]
        assert [r.n_steps_taken for r in clean] == [100, 50, 20, clean[3].n_steps_taken, 10]
        assert clean[3].n_steps_taken < 20


def tensor_forcing(stepper, model, dW, samples):
    """The forcing rows as they were formed from the full (P, k_modes, n)
    tensor of coefficient fields F_k, contracted with dW path by path, then
    transformed, band-projected and scaled as ``explicit_terms`` does."""
    rho, u = np.exp(samples[0]), samples[1]
    fields = model.coefficient_fields(model.waves(stepper.grid.x), rho, u)
    physical = np.matmul(dW[:, None, :], fields)[:, 0]
    return stepper.term_scale[TERMS.index("forcing")] * stepper.project_rows(
        physical, stepper.band_end)


FORCING_GRIDS = [TorusGrid(32, 10), TorusGrid(64, 21), TorusGrid(256, 85), TorusGrid(32, 16)]


def forcing_batch(grid, paths, rng):
    """The ``sample`` rows of ``paths`` perturbed harmonic states and one
    step's increments for each."""
    states = [shifted_harmonic(grid, a, c) for a, c in
              zip(rng.uniform(0.05, 0.5, paths), rng.uniform(-1.0, 1.0, paths))]
    stepper = _Stepper(grid, ModelParams(gamma=1.5, alpha=0.5), StepConfig.blowup_clamp)
    spec, samples = stepper.sample(np.stack([s.psi.spectral for s in states]),
                                   np.stack([s.u.spectral for s in states]))
    dW = np.array([sample_increment(derive_path_seed(3, p), 0, 1e-3, STRONG)
                   for p in range(paths)])
    return stepper, spec, samples, dW


class TestForcing:
    """The forcing sum_k F_k dW_k is g(rho, u) times each path's wave sum
    h = sum_k dW_k a_k sin(2 pi k x), never the (P, k_modes, n) tensor."""

    @pytest.mark.parametrize("grid", FORCING_GRIDS, ids=lambda g: f"{g.n_collocation}-{g.m_modes}")
    def test_multiplicative_rows_match_the_tensor_formula(self, grid, rng):
        # a rounding-level change: each row within 1e-13 of its largest mode
        stepper, spec, samples, dW = forcing_batch(grid, 6, rng)
        for model in (STRONG, NoiseModel(base_amplitude=0.02)):
            stepper.use_rows([1e-3] * 6, [model] * 6)
            got = stepper.explicit_terms(spec, samples, dW)[TERMS.index("forcing")]
            want = tensor_forcing(stepper, model, dW, samples)
            scale = np.abs(want).max(axis=-1)
            assert (scale > 0).all()
            assert (np.abs(got - want).max(axis=-1) <= 1e-13 * scale).all()

    @pytest.mark.parametrize("grid", FORCING_GRIDS, ids=lambda g: f"{g.n_collocation}-{g.m_modes}")
    def test_additive_and_noise_free_rows_keep_their_bytes(self, grid, rng):
        stepper, spec, samples, dW = forcing_batch(grid, 5, rng)
        additive = NoiseModel(base_amplitude=1.0, amplitude_decay=2.0, shape="off")
        stepper.use_rows([1e-3] * 5, [NO_NOISE, NO_NOISE, additive, additive, STRONG])
        got = stepper.explicit_terms(spec, samples, dW)[TERMS.index("forcing")]
        assert got[:2].tobytes() == np.stack([stepper.zero_half] * 2).tobytes()
        want = tensor_forcing(stepper, additive, dW[2:4], samples[:, 2:4])
        assert got[2:4].tobytes() == want.tobytes()

    def test_batch_of_64_equals_lone_paths(self, rng):
        # every explicit term of a 64-path stack, and ten steps of a 64-path
        # simulate_path batch, byte for byte against each path alone
        grid = TorusGrid(64, 21)
        stepper, spec, samples, dW = forcing_batch(grid, 64, rng)
        stepper.use_rows([1e-3] * 64, [STRONG] * 64)
        batch = stepper.explicit_terms(spec, samples, dW)
        stepper.use_rows([1e-3], [STRONG])
        for p in range(64):
            one = slice(p, p + 1)
            alone = stepper.explicit_terms(spec[:, one], samples[:, one], dW[one])
            assert batch[:, one].tobytes() == alone.tobytes()
        params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=500.0)
        states = [shifted_harmonic(grid, a) for a in np.linspace(0.05, 0.3, 64)]
        seeds = [derive_path_seed(5, p) for p in range(64)]
        cfg = StepConfig(dt=1e-3, t_end=0.01)
        monitors = MonitorSpec(stride=5)
        runs = simulate_path(states, cfg, params, STRONG, seeds, grid, monitors)
        for state, seed, got in zip(states, seeds, runs):
            assert_same_path(got, simulate_path(state, cfg, params, STRONG, seed, grid, monitors))

    def test_coefficient_fields_gets_one_wave_sum_per_path(self, grid64, monkeypatch):
        # per step and noisy model, one call on the group's wave sums of
        # shape (P, 1, n), beside the group's (P, n) samples of rho and u
        calls = []
        real = NoiseModel.coefficient_fields

        def spy(self, waves, rho, u):
            calls.append((self.shape, waves.shape, rho.shape, u.shape))
            return real(self, waves, rho, u)

        monkeypatch.setattr(NoiseModel, "coefficient_fields", spy)
        params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=500.0)
        additive = NoiseModel(base_amplitude=0.2, shape="off")
        models = [STRONG, NO_NOISE, additive, STRONG, additive, STRONG]
        runs = simulate_path([shifted_harmonic(grid64, 0.1)] * 6,
                             StepConfig(dt=1e-3, t_end=0.005), params, models, list(range(6)),
                             grid64, MonitorSpec(collect_records=False))
        assert [r.n_steps_taken for r in runs] == [5] * 6
        n = grid64.n_collocation
        assert calls == [("trig_density_weighted", (3, 1, n), (3, n), (3, n)),
                         ("off", (2, 1, n), (2, n), (2, n))] * 5


# the property test's grids: padded products, an unpadded grid whose size is
# no power of two, and the sweep grid
INVARIANCE_GRIDS = {"padded": TorusGrid(32, 16), "n48": TorusGrid(48, 16),
                    "n64": TorusGrid(64, 21)}


@strategies.composite
def mixed_batches(draw):
    """A batch of 1-10 paths, each with its own noise mode, dyadic dt, step
    count, amplitude and seed; at strength 1 some paths reach R = 8. The
    batch monitors no sweep radius or 1-3 of them below R."""
    strength = draw(strategies.sampled_from([0.2, 1.0]))
    modes = {"none": NO_NOISE,
             "additive": NoiseModel(base_amplitude=strength, amplitude_decay=2.0, shape="off"),
             "multiplicative": NoiseModel(base_amplitude=strength, amplitude_decay=2.0)}
    paths = draw(strategies.lists(strategies.tuples(
        strategies.sampled_from(sorted(modes)), strategies.sampled_from([9, 10, 11]),
        strategies.integers(1, 24), strategies.sampled_from([0.02, 0.05, 0.1, 0.15]),
        strategies.integers(0, 2**64 - 1)), min_size=1, max_size=10))
    return dict(
        grid=draw(strategies.sampled_from(sorted(INVARIANCE_GRIDS))),
        models=[modes[mode] for mode, *_ in paths],
        cfgs=[StepConfig(dt=2.0**-e, t_end=steps * 2.0**-e) for _, e, steps, *_ in paths],
        amplitudes=[a for *_, a, _ in paths],
        seeds=[seed for *_, seed in paths],
        stride=draw(strategies.sampled_from([None, 1, 3, 7])),
        radii=tuple(sorted(draw(strategies.one_of(strategies.just([]), strategies.lists(
            strategies.floats(0.5, 7.75), min_size=1, max_size=3, unique=True))))),
        supplied=draw(strategies.booleans()),
        group=draw(strategies.sampled_from([None, None, 1, 2, 3])))


class TestBatchInvariance:
    @settings(derandomize=True, max_examples=60, database=None, deadline=None)
    @given(mixed_batches())
    def test_every_path_equals_its_lone_run(self, case):
        # whatever the mix of grids, noise modes, dts, stops, monitors,
        # increments and lockstep group sizes, a path's batch result is its
        # lone run byte for byte
        grid = INVARIANCE_GRIDS[case["grid"]]
        params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=8.0)
        monitors = MonitorSpec(stride=case["stride"] or 1,
                               collect_records=case["stride"] is not None,
                               radii=case["radii"])
        states = [shifted_harmonic(grid, a) for a in case["amplitudes"]]
        models, cfgs, seeds = case["models"], case["cfgs"], case["seeds"]
        incs = ([np.array([sample_increment(seed, i, cfg.dt_effective, model)
                           for i in range(cfg.n_steps)])
                 for seed, cfg, model in zip(seeds, cfgs, models)]
                if case["supplied"] else [None] * len(states))
        points = (integrator._LOCKSTEP_POINTS if case["group"] is None
                  else case["group"] * grid.n_collocation)
        with mock.patch.object(integrator, "_LOCKSTEP_POINTS", points):
            batch = simulate_path(states, cfgs, params, models, seeds, grid, monitors,
                                  increments=incs if case["supplied"] else None)
        assert len(batch) == len(states)
        for p, got in enumerate(batch):
            assert_same_path(got, simulate_path(states[p], cfgs[p], params, models[p],
                                                seeds[p], grid, monitors,
                                                increments=incs[p]))


class TestStrongConvergence:
    def test_deterministic_order_at_least_one(self):
        # the first-order splitting mixes with second-order pieces (CN block,
        # transport corrector), so self-convergence lands in [1, 2]
        grid = TorusGrid(32, 10)
        params, st = small_setup(grid)
        t_end = 0.1
        dts = [t_end * 2.0**-e for e in (6, 7, 8, 9)]
        [conv] = strong_convergence_order(st, params, [NO_NOISE], grid, dts, [1], 0, t_end)
        assert 0.8 <= conv.order <= 2.2

    def test_noise_free_paths_draw_no_increments(self, monkeypatch):
        draws = []
        monkeypatch.setattr(integrator, "sample_increment", lambda *args: draws.append(args))
        grid = TorusGrid(32, 10)
        params, st = small_setup(grid)
        [conv] = strong_convergence_order(st, params, [NO_NOISE], grid, [0.0025, 0.005, 0.01],
                                          [1], 0, 0.02)
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
        [conv] = strong_convergence_order(st, params, [NoiseModel(base_amplitude=0.05)], grid,
                                          dts, [3], 0, t_end)
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
        [conv] = strong_convergence_order(st, params, [STRONG], grid, dts, [5], 28, t_end)
        stopped = [e for e in events if e[0] != "completed"]
        assert len(stopped) == 1 and stopped[0][0] == "tau_R_hit" and stopped[0][1] < 16
        assert (conv.n_paths_used, conv.n_excluded) == (4, 1)
        assert conv.dts == (0.0025, 0.005, 0.01)
        assert conv.errors == pytest.approx(
            (0.0003484264034596372, 0.0009911693145650212, 0.002523720667953193),
            rel=1e-12, abs=0.0)
        assert conv.order == pytest.approx(1.4283131892319705, rel=1e-12, abs=0.0)

    def test_studies_in_one_batch_match_separate_studies(self, monkeypatch):
        # three noise modes in one simulate_path call give each study the
        # bits of its own call, and the noisy studies share their increments:
        # each of the three seeds draws its fine series once, in one call
        grid = TorusGrid(32, 10)
        params, st = small_setup(grid)
        t_end = 0.02
        dts = [0.0025, 0.005, 0.01]
        models = [NO_NOISE, NoiseModel(base_amplitude=0.05, shape="off"),
                  NoiseModel(base_amplitude=0.05)]
        rows = []
        original = integrator.sample_increment

        def counted(*args):
            rows.append(len(args[0]))
            return original(*args)

        monkeypatch.setattr(integrator, "sample_increment", counted)
        together = strong_convergence_order(st, params, models, grid, dts, [1, 3, 2], 5, t_end)
        assert rows == [round(t_end / dts[0])] * 3
        assert isinstance(together, list) and len(together) == 3
        for model, count, got in zip(models, [1, 3, 2], together):
            [alone] = strong_convergence_order(st, params, [model], grid, dts, [count], 5, t_end)
            assert repr(got) == repr(alone)
        with pytest.raises(ValueError):
            strong_convergence_order(st, params, models, grid, dts, [1, 2], 5, t_end)

    def test_first_failing_study_raises(self):
        # the stochastic study of test_exclusions_applied_level_by_level with
        # four paths excludes 1 of 4; the noise-free study before it passes
        grid = TorusGrid(32, 10)
        params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=9.82)
        st = small_setup(grid)[1]
        t_end = 0.04
        dts = [t_end / 32, t_end / 16, t_end / 8, t_end / 4]
        with pytest.raises(IntegratorConfigError, match="1/4"):
            strong_convergence_order(st, params, [NO_NOISE, STRONG], grid, dts, [1, 4], 28,
                                     t_end)

    def test_repeated_studies_change_no_bit(self):
        # as perfbench's repetitions in one process: no state survives a
        # call, also across a call at another seed on another grid
        grid = TorusGrid(32, 10)
        params, st = small_setup(grid)
        models = [NO_NOISE, NoiseModel(base_amplitude=0.05, shape="off"),
                  NoiseModel(base_amplitude=0.05)]
        dts = [0.0025, 0.005, 0.01]

        def study():
            return repr(strong_convergence_order(st, params, models, grid, dts, [1, 2, 2], 7,
                                                 0.02))

        first = study()
        padded = TorusGrid(32, 16)
        strong_convergence_order(shifted_harmonic(padded, 0.1), params, models, padded, dts,
                                 [1, 2, 2], 8, 0.02)
        assert study() == first

    def test_suite_runs_as_one_batch(self, monkeypatch):
        # one study call through the suites module attribute, and one
        # simulate_path call for all three modes: 5 levels of 1 + 2 + 2 paths
        studies, calls = [], []
        study, original = suites.strong_convergence_order, integrator.simulate_path

        def counted_study(*args, **kwargs):
            studies.append(args[2])
            return study(*args, **kwargs)

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append((len(result), result.n_steps_taken))
            return result

        monkeypatch.setattr(suites, "strong_convergence_order", counted_study)
        monkeypatch.setattr(integrator, "simulate_path", counted)
        results = suites.suite_convergence(n_paths=2)
        assert len(studies) == 1 and len(studies[0]) == 3
        assert calls == [(25, 39680)]
        assert [r.name for r in results] == [
            "strong-order-deterministic", "strong-order-additive", "strong-order-multiplicative"]

    def test_rejects_non_dyadic_levels(self):
        grid = TorusGrid(32, 10)
        params, st = small_setup(grid)
        with pytest.raises(IntegratorConfigError):
            strong_convergence_order(st, params, [NO_NOISE], grid,
                                     [0.01, 0.0033], [1], 0, 0.1)
