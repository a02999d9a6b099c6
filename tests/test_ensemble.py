import numpy as np
import pytest

from qns1d import ensemble
from qns1d.ensemble import (
    EnsembleConfig,
    EnsembleConfigError,
    jackknife_moment,
    merge_summaries,
    run_ensemble,
    run_paths,
)
from qns1d.cli import validate_config
from qns1d.functionals import BETA, VacuumSummary
from qns1d.integrator import MonitorSpec, StepConfig, first_hit_times, simulate_path
from qns1d.model import ModelParams, State
from qns1d.noise import NoiseModel, derive_path_seed
from qns1d.spectral import RealField, TorusGrid, project


def make_state(grid, psi_values, u_values):
    return State(project(RealField.from_physical(psi_values, grid), grid),
                 project(RealField.from_physical(u_values, grid), grid), 0.0)


def base_setup(grid):
    params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=200.0)
    st = make_state(grid, 0.1 * np.cos(2 * np.pi * grid.x),
                    0.1 * np.sin(2 * np.pi * grid.x))
    cfg = StepConfig(dt=1e-3, t_end=0.05)
    return params, st, cfg


class TestEnsembleConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(n_paths=0, master_seed=1),
        dict(n_paths=2, master_seed=1, moment_orders=(5,)),
        dict(n_paths=2, master_seed=1, r_sweep=(0.0, 1.0)),
        dict(n_paths=2, master_seed=1, output_stride=0),
        dict(n_paths=2, master_seed=-1),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(EnsembleConfigError):
            EnsembleConfig(**kwargs)

    def test_r_sweep_sorted(self):
        cfg = EnsembleConfig(n_paths=1, master_seed=0, r_sweep=(5.0, 1.0, 3.0))
        assert cfg.r_sweep == (1.0, 3.0, 5.0)


class TestMoments:
    def test_single_path_no_stderr(self, grid64):
        params, st, cfg = base_setup(grid64)
        summary, _ = run_ensemble(EnsembleConfig(n_paths=1, master_seed=5),
                                  lambda *_: st, cfg, params, NoiseModel(base_amplitude=0.0),
                                  grid64)
        est = summary.moments["energy"][1]
        assert est.stderr is None
        assert est.value > 0.0

    def test_deterministic_collapse(self, grid64):
        params, st, cfg = base_setup(grid64)
        summary, _ = run_ensemble(EnsembleConfig(n_paths=8, master_seed=5),
                                  lambda *_: st, cfg, params, NoiseModel(base_amplitude=0.0),
                                  grid64)
        for name, orders in summary.moments.items():
            for est in orders.values():
                assert est.stderr == pytest.approx(0.0, abs=1e-15), name

    def test_constant_functional_power(self):
        est = jackknife_moment(np.full(6, 3.0), 2)
        assert est.value == pytest.approx(9.0)
        assert est.stderr == pytest.approx(0.0, abs=1e-12)

    def test_jensen_ordering(self, grid64):
        params, st, cfg = base_setup(grid64)
        summary, _ = run_ensemble(
            EnsembleConfig(n_paths=8, master_seed=5, moment_orders=(1, 2)),
            lambda *_: st, cfg, params, NoiseModel(base_amplitude=0.3, amplitude_decay=2.0),
            grid64)
        for orders in summary.moments.values():
            m1, m2 = orders[1], orders[2]
            slack = 3.0 * (m1.stderr or 0.0) * abs(m1.value) + 1e-12
            assert m2.value >= m1.value**2 - slack

    def test_jackknife_matches_bootstrap(self, rng):
        values = rng.lognormal(0.0, 0.4, size=64)
        jk = jackknife_moment(values, 2)
        boots = []
        for _ in range(200):
            sample = rng.choice(values, size=values.size, replace=True)
            boots.append(np.mean(sample**2))
        bse = float(np.std(boots))
        assert jk.stderr < 3.0 * bse and bse < 3.0 * jk.stderr


class TestEnsembleRuns:
    def test_determinism(self, grid64):
        params, st, cfg = base_setup(grid64)
        noise = NoiseModel(base_amplitude=0.05)
        ecfg = EnsembleConfig(n_paths=4, master_seed=99)
        s1, _ = run_ensemble(ecfg, lambda *_: st, cfg, params, noise, grid64)
        s2, _ = run_ensemble(ecfg, lambda *_: st, cfg, params, noise, grid64)
        assert s1 == s2

    @pytest.mark.parametrize("n_workers", [0, -3])
    def test_workers_below_one_rejected(self, grid64, n_workers):
        params, st, cfg = base_setup(grid64)
        with pytest.raises(EnsembleConfigError):
            run_ensemble(EnsembleConfig(n_paths=2, master_seed=1), lambda *_: st, cfg, params,
                         NoiseModel(base_amplitude=0.0), grid64, n_workers=n_workers)

    def test_merge_order_invariance(self, grid64):
        params, st, cfg = base_setup(grid64)
        noise = NoiseModel(base_amplitude=0.05)
        ecfg = EnsembleConfig(n_paths=5, master_seed=3, r_sweep=(50.0, 100.0))
        outs = run_paths(ecfg, list(range(5)), [st] * 5, cfg, params, noise, grid64)
        summaries = [o[0] for o in outs]
        a = merge_summaries(summaries, ecfg, params)
        b = merge_summaries(list(reversed(summaries)), ecfg, params)
        assert a.moments == b.moments
        assert a.stopping == b.stopping
        assert a.path_events == b.path_events
        assert a.vacuum == b.vacuum and a.vacuum is not None
        assert a.max_rel_mass_drift == b.max_rel_mass_drift > 0.0

    @staticmethod
    def record_scan(record_series, params):
        """The vacuum block and mass drift as scans of every path's records."""
        min_rho, max_inv, n_paths, drift = np.inf, 0.0, 0, 0.0
        for series in record_series:
            if not series:
                continue
            n_paths += 1
            path_min = min(r.min_rho for r in series)
            min_rho = min(min_rho, path_min)
            max_inv = max(max_inv, path_min ** (-BETA))
            m0 = series[0].mass
            drift = max(drift, max(abs(r.mass - m0) for r in series) / m0)
        return VacuumSummary(float(min_rho), float(max_inv), n_paths,
                             params.global_regularity_regime), drift

    @pytest.mark.parametrize("amplitudes", [(0.05, 0.3, 0.08, 0.3, 0.3, 0.1), (0.3,) * 3])
    def test_merge_matches_record_scans(self, grid64, amplitudes):
        # paths that start with |psi| beyond the clamp end numerical_blowup at
        # t = 0 with no records; the others record, and may blow up later
        params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=300.0)
        cfg = StepConfig(dt=5e-4, t_end=0.02, blowup_clamp=0.12)
        noise = NoiseModel(base_amplitude=0.2, amplitude_decay=3.0)
        ecfg = EnsembleConfig(n_paths=len(amplitudes), master_seed=11, output_stride=5)

        def factory(index, seed):
            a = amplitudes[index]
            return make_state(grid64, a * np.cos(2 * np.pi * grid64.x),
                              a * np.sin(2 * np.pi * grid64.x))

        summary, records = run_ensemble(ecfg, factory, cfg, params, noise, grid64)
        assert [len(rs) == 0 for rs in records] == [a > 0.12 for a in amplitudes]
        vacuum, drift = self.record_scan(records, params)
        if all(a > 0.12 for a in amplitudes):
            assert summary.vacuum is None and summary.degenerate
            assert summary.max_rel_mass_drift == 0.0
        else:
            assert summary.vacuum == vacuum
            assert summary.max_rel_mass_drift == drift > 0.0

    def test_sweep_fractions_non_increasing(self, grid64):
        params, st, cfg_step = base_setup(grid64)
        cfg_step = StepConfig(dt=5e-4, t_end=0.25)
        noise = NoiseModel(base_amplitude=1.0, amplitude_decay=2.0)
        ecfg = EnsembleConfig(n_paths=8, master_seed=17, r_sweep=(5.0, 8.0, 15.0))
        summary, _ = run_ensemble(ecfg, lambda *_: st, cfg_step, params, noise, grid64)
        fracs = [row.fraction for row in summary.stopping]
        assert all(b <= a for a, b in zip(fracs, fracs[1:]))
        radii = [row.radius for row in summary.stopping]
        assert radii == sorted(radii)

    def test_sweep_hit_times_match_exact_trace(self):
        # the criterion-10 sweep, shortened: run_paths resolves each radius of
        # the sweep, and its events and hit times equal those of a stride-1
        # run, which records every state and so takes every exact norm
        cfg = validate_config({
            "grid": {"n_collocation": 64, "m_modes": 21, "dealias": True},
            "model": {"gamma": 1.5, "alpha": 0.5, "cutoff_radius": 300.0,
                      "monitor_order": 4,
                      "initial_condition": {"kind": "harmonic_perturbation",
                                            "rho0": 1.0, "eps": 0.1, "modes": [1],
                                            "velocity_eps": 0.1, "velocity_modes": [1]}},
            "noise": {"k_modes": 16, "base_amplitude": 0.2, "amplitude_decay": 3.0,
                      "shape": "trig_density_weighted"},
            "integration": {"dt": 5e-4, "t_end": 0.05, "scheme": "imex_cn"},
            "ensemble": {"n_paths": 6, "master_seed": 64, "moment_orders": [1, 2],
                         "r_sweep": [6.0, 9.0, 300.0], "output_stride": 10},
            "output": {"directory": "runs/vacuum", "per_path_csv": False},
        })
        ecfg = cfg.ensemble
        hit_any = False
        for i in range(ecfg.n_paths):
            seed = derive_path_seed(ecfg.master_seed, i)
            st = cfg.initial_factory(i, seed)
            [(summary, _)] = run_paths(ecfg, [i], [st], cfg.step, cfg.params, cfg.noise,
                                       cfg.grid)
            exact = simulate_path(st, cfg.step, cfg.params, cfg.noise, seed, cfg.grid,
                                  MonitorSpec(stride=1, radii=ecfg.r_sweep))
            assert (summary.event_kind, summary.event_time) == (exact.event.kind,
                                                                exact.event.time)
            assert summary.hit_times == tuple(first_hit_times(exact, ecfg.r_sweep))
            hit_any |= summary.hit_times[0] is not None
        assert hit_any

    def test_workers_and_replay_match_one_batch(self, grid64):
        # the paths run as one batch with one worker and as two batches with
        # two; every summary and record agrees, and so does a replay of each
        # path through run_paths, as a batch of one
        params, _, _ = base_setup(grid64)
        cfg = StepConfig(dt=5e-4, t_end=0.05)
        noise = NoiseModel(base_amplitude=0.5, amplitude_decay=2.0)
        ecfg = EnsembleConfig(n_paths=5, master_seed=17, r_sweep=(6.0, 9.0), output_stride=7)

        def factory(index, seed):
            a = 0.04 + 0.03 * index
            return make_state(grid64, a * np.cos(2 * np.pi * grid64.x),
                              a * np.sin(2 * np.pi * grid64.x))

        serial = run_ensemble(ecfg, factory, cfg, params, noise, grid64, n_workers=1)
        pooled = run_ensemble(ecfg, factory, cfg, params, noise, grid64, n_workers=2)
        ends = [(kind, time) for _, _, kind, time in serial[0].path_events]
        assert {kind for kind, _ in ends} == {"tau_R_hit", "completed"}
        assert len(set(ends)) == ecfg.n_paths - 1  # two paths complete
        assert pooled[0] == serial[0]
        assert ([[r.to_row() for r in rs] for rs in pooled[1]]
                == [[r.to_row() for r in rs] for rs in serial[1]])
        for i in range(ecfg.n_paths):
            [(summary, records)] = run_paths(ecfg, [i], [factory(i, 0)], cfg, params, noise,
                                             grid64)
            assert summary.path_index == i
            assert (summary.path_index, summary.path_seed, summary.event_kind,
                    summary.event_time) == serial[0].path_events[i]
            assert [r.to_row() for r in records] == [r.to_row() for r in serial[1][i]]

    def test_one_simulate_path_call_per_batch(self, grid64, monkeypatch):
        calls = []
        original = ensemble.simulate_path

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append((len(result), result.n_steps_taken))
            return result

        monkeypatch.setattr(ensemble, "simulate_path", counted)
        params, st, cfg = base_setup(grid64)
        noise = NoiseModel(base_amplitude=1.0, amplitude_decay=2.0)
        ecfg = EnsembleConfig(n_paths=6, master_seed=17, r_sweep=(5.0, 8.0))
        summary, _ = run_ensemble(ecfg, lambda *_: st, cfg, params, noise, grid64)
        steps = sum(round(event[3] / cfg.dt_effective) for event in summary.path_events)
        assert calls == [(6, steps)]
        assert steps < ecfg.n_paths * cfg.n_steps
        run_paths(ecfg, [2], [st], cfg, params, noise, grid64)
        assert calls[1] == (1, round(summary.path_events[2][3] / cfg.dt_effective))

    def test_degenerate_flag_all_blowup(self, grid64):
        params = ModelParams(gamma=1.5, alpha=0.5, enable_cutoff=False)
        st = make_state(grid64, np.full(64, 60.0), np.zeros(64))
        cfg = StepConfig(dt=1e-3, t_end=0.01)
        summary, _ = run_ensemble(EnsembleConfig(n_paths=3, master_seed=1),
                                  lambda *_: st, cfg, params, NoiseModel(base_amplitude=0.0),
                                  grid64)
        assert summary.degenerate
        assert summary.blowup_fraction == 1.0

    def test_initial_factory_and_vacuum(self, grid64):
        params, _, cfg = base_setup(grid64)

        def factory(index, seed):
            rho0 = 1.0 + 0.01 * index
            return make_state(grid64, np.full(64, np.log(rho0)), np.zeros(64))

        summary, records = run_ensemble(
            EnsembleConfig(n_paths=3, master_seed=2), factory, cfg, params,
            NoiseModel(base_amplitude=0.0), grid64)
        assert summary.vacuum is not None
        assert summary.vacuum.min_rho == pytest.approx(1.0, rel=1e-10)
        assert len(records) == 3
