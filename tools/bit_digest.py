"""One sha256 over the bytes of a fixed set of qns1d runs.

Run from the repository root:

    PYTHONPATH=src python3 tools/bit_digest.py [--cases]

Two checkouts print the same digest exactly when every hashed output agrees
bit for bit: the events, final psi/u spectra and samples, norm traces,
monitor rows and hit times of paths on the n = 32, 64 and 256 grids and the
padded (32, 16) grid, with no, additive and multiplicative noise; chains of
one-step ``simulate_path`` runs, each from the last one's final state on the
increment of its step index, as the public ``step()`` makes them; and
``strong_convergence_order``.
Some paths end ``tau_R_hit``, and one lone path and some paths of one
batch end ``numerical_blowup``; one lone path steps on supplied
increments; the sweep
paths monitor their sweep radii, as ``sweep-r`` does, one at a time and as
one batch of eight, whose states are certified together; one batch
mixes three dt levels, as ``strong_convergence_order`` does, and one mixes
the three noise modes at two dts, as ``suite_convergence`` does. Every
case runs alpha = 0.5 except two recorded batches at alpha = 0 and 1: the
records of alpha = 0 take psi'' for their second-order slot and a zero
quartic slot. The supplied increment series are drawn with
``sample_increment``'s batch form, one call per series, so the digest also
holds each batch row to the bits of its one-path draw. Two cases run the
CLI's ``sweep-r`` and ``simulate`` on one eight-path config, half of whose
paths end ``numerical_blowup`` before their first record, and hash the
artifacts the ensemble's merge writes. ``--cases`` also prints one digest
per case, to find the case that moved.

``bit_digest.json`` pins every case's digest together with the numpy
version and the machine it was taken on; ``tests/test_bit_digest.py`` holds
the program to it. After a change that moves bits on purpose, or to pin on
another numpy version or machine, rewrite it with

    PYTHONPATH=src:tools python3 -c "import bit_digest; bit_digest.write_pin()"
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import struct
import sys
import tempfile
from pathlib import Path
from typing import Callable

import numpy as np

from qns1d import cli
from qns1d.integrator import (
    MonitorSpec,
    PathResult,
    StepConfig,
    first_hit_times,
    simulate_path,
    strong_convergence_order,
)
from qns1d.model import ModelParams, State
from qns1d.noise import NoiseModel, derive_path_seed, sample_increment
from qns1d.spectral import RealField, TorusGrid, project

GRIDS = {"n32": TorusGrid(32, 10), "n64": TorusGrid(64, 21), "n256": TorusGrid(256, 85),
         "padded": TorusGrid(32, 16)}
NOISE = {"none": NoiseModel(base_amplitude=0.0),
         "additive": NoiseModel(base_amplitude=0.2, shape="off"),
         "multiplicative": NoiseModel(base_amplitude=0.2),
         "strong": NoiseModel(base_amplitude=1.0, amplitude_decay=2.0),
         "sweep": NoiseModel(base_amplitude=0.2, amplitude_decay=3.0)}


def harmonic(grid: TorusGrid, amplitude: float, offset: float = 0.0) -> State:
    """psi = offset + a cos(2 pi x), u = a sin(2 pi x), projected to the band."""
    def field(values):
        return project(RealField.from_physical(values, grid), grid)
    return State(field(offset + amplitude * np.cos(2 * np.pi * grid.x)),
                 field(amplitude * np.sin(2 * np.pi * grid.x)), 0.0)


class Digest:
    def __init__(self) -> None:
        self.h = hashlib.sha256()

    def add(self, *items) -> None:
        for item in items:
            if isinstance(item, np.ndarray):
                self.h.update(repr((item.dtype.str, item.shape)).encode())
                self.h.update(np.ascontiguousarray(item).tobytes())
            elif isinstance(item, (float, np.floating)):
                self.h.update(struct.pack("<d", float(item)))
            elif item is None or isinstance(item, (int, str)):
                self.h.update(repr(item).encode())
            else:
                self.add(*item)

    def add_state(self, state: State) -> None:
        self.add(state.time, state.psi.spectral, state.u.spectral,
                 state.psi.physical, state.u.physical)


def path_case(d: Digest, grid: str, noise: str, seed: int, dt: float, t_end: float,
              amplitude: float = 0.1, radius: float = 500.0, stride: int | None = 5,
              radii: tuple[float, ...] = (), cutoff: bool = True) -> None:
    g = GRIDS[grid]
    params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=radius, enable_cutoff=cutoff)
    monitors = MonitorSpec(stride=stride or 1, collect_records=stride is not None,
                           radii=radii)
    res = simulate_path(harmonic(g, amplitude), StepConfig(dt=dt, t_end=t_end), params,
                        NOISE[noise], seed, g, monitors)
    add_result(d, res, radii)


def add_result(d: Digest, res: PathResult, radii: tuple[float, ...]) -> None:
    e = res.event
    d.add(e.kind, e.time, e.triggering_norm, e.which, res.n_steps_taken, res.norm_trace)
    d.add_state(res.final_state)
    d.add([r.to_row() for r in res.records])
    if radii:
        d.add(first_hit_times(res, radii))


def lone_increments_case(d: Digest) -> None:
    """A lone State with supplied increments on the padded grid: the pairwise
    sums of half-step draws, two rows longer than its steps, as a coarse
    level of ``strong_convergence_order`` gets them. It ends at tau_R on
    step 16, two steps after its run on drawn increments."""
    g = GRIDS["padded"]
    params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=8.0)
    model = NOISE["strong"]
    cfg = StepConfig(dt=1e-3, t_end=0.05)
    seed = derive_path_seed(20240501, 9)
    steps = 2 * cfg.n_steps + 4
    fine = sample_increment([seed] * steps, range(steps), 0.5 * cfg.dt_effective, model)
    res = simulate_path(harmonic(g, 0.1), cfg, params, model, seed, g, MonitorSpec(stride=3),
                        increments=fine.reshape(-1, 2, model.k_modes).sum(axis=1))
    add_result(d, res, ())


def sweep_batch_case(d: Digest) -> None:
    """Eight sweep paths in one simulate_path call: some never reach the
    smallest sweep radius, some cross it, and some leave the batch at R."""
    g = GRIDS["n64"]
    params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=8.0)
    seeds = [derive_path_seed(20240501, index) for index in range(8)]
    batch = simulate_path([harmonic(g, 0.02 * (p + 1)) for p in range(8)],
                          StepConfig(dt=5e-4, t_end=0.1), params, NOISE["strong"], seeds, g,
                          MonitorSpec(stride=7, radii=(4.0, 6.0, 8.0)))
    for res in batch:
        add_result(d, res, (4.0, 6.0, 8.0))


def mixed_dt_batch_case(d: Digest) -> None:
    """Four paths of three dt levels and two horizons in one simulate_path
    call on the padded grid, with ragged supplied increments: the coarse
    paths leave at their own last steps, one path leaves at tau_R early, and
    the finest path steps its tail alone."""
    g = GRIDS["padded"]
    params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=8.0)
    model = NOISE["strong"]
    cfgs = [StepConfig(dt=dt, t_end=t_end)
            for dt, t_end in ((5e-4, 0.05), (1e-3, 0.05), (2e-3, 0.04), (1e-3, 0.05))]
    seeds = [derive_path_seed(20240501, index) for index in range(len(cfgs))]
    incs = [sample_increment([seed] * cfg.n_steps, range(cfg.n_steps), cfg.dt_effective, model)
            for seed, cfg in zip(seeds, cfgs)]
    batch = simulate_path([harmonic(g, a) for a in (0.05, 0.05, 0.02, 0.1)], cfgs, params,
                          model, seeds, g, MonitorSpec(stride=3), increments=incs)
    for res in batch:
        add_result(d, res, ())


def mixed_noise_batch_case(d: Digest) -> None:
    """Seven paths of the three noise modes at two dts in one simulate_path
    call on the n = 32 grid, with ragged supplied increments: the coarse
    paths leave at step 25, the 0.15 path leaves at tau_R early, and the
    longest path steps its last 10 steps alone."""
    g = GRIDS["n32"]
    params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=10.0)
    models = [NOISE[name] for name in ("none", "additive", "multiplicative") * 2
              + ("multiplicative",)]
    cfgs = [StepConfig(dt=dt, t_end=t_end) for dt, t_end in
            ((1e-3, 0.06), (1e-3, 0.05), (1e-3, 0.05), (2e-3, 0.05), (2e-3, 0.05),
             (2e-3, 0.05), (1e-3, 0.05))]
    seeds = [derive_path_seed(2024, index) for index in range(len(cfgs))]
    incs = [sample_increment([seed] * cfg.n_steps, range(cfg.n_steps), cfg.dt_effective, model)
            for seed, cfg, model in zip(seeds, cfgs, models)]
    batch = simulate_path([harmonic(g, a) for a in (0.05,) * 6 + (0.15,)], cfgs, params,
                          models, seeds, g, MonitorSpec(stride=4), increments=incs)
    for res in batch:
        add_result(d, res, ())


def blowup_batch_case(d: Digest) -> None:
    """Five paths in one simulate_path call on the n = 32 grid, whose mean
    psi of 0-18 drives the pressure so hard that they end completed,
    tau_R_hit and numerical_blowup, each leaving the batch at its own step."""
    g = GRIDS["n32"]
    params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=1e6)
    batch = simulate_path([harmonic(g, 0.1, c) for c in (0.0, 14.0, 15.0, 16.0, 18.0)],
                          StepConfig(dt=1e-3, t_end=0.05), params, NOISE["multiplicative"],
                          list(range(5)), g, MonitorSpec(stride=5))
    for res in batch:
        add_result(d, res, ())


def alpha_batch_case(d: Digest, alpha: float) -> None:
    """Five recorded paths at viscosity exponent alpha in one simulate_path
    call, their records taken together at every fourth step and the last."""
    g = GRIDS["n64"]
    params = ModelParams(gamma=1.5, alpha=alpha, cutoff_radius=8.0)
    seeds = [derive_path_seed(2024, index) for index in range(5)]
    batch = simulate_path([harmonic(g, 0.025 * (p + 1)) for p in range(5)],
                          StepConfig(dt=5e-4, t_end=0.05), params, NOISE["strong"], seeds, g,
                          MonitorSpec(stride=4, radii=(4.0, 6.0, 8.0)))
    for res in batch:
        add_result(d, res, (4.0, 6.0, 8.0))


CLI_CONFIG = {
    "grid": {"n_collocation": 64, "m_modes": 21},
    "model": {"gamma": 1.5, "alpha": 0.5, "cutoff_radius": 300.0,
              "initial_condition": {"kind": "harmonic_perturbation", "rho0": 1.0, "eps": 0.1,
                                    "modes": [1], "velocity_eps": 0.1,
                                    "random_amplitude": 0.9}},
    "noise": {"base_amplitude": 0.2, "amplitude_decay": 3.0},
    "integration": {"dt": 5e-4, "t_end": 0.01, "blowup_clamp": 0.12},
    "ensemble": {"n_paths": 8, "master_seed": 11, "r_sweep": [6.0, 9.0, 300.0],
                 "output_stride": 5},
}


def cli_case(d: Digest, command: str) -> None:
    """``qns1d <command>`` on CLI_CONFIG in a temporary directory. Paths 1, 3,
    4 and 6 end ``numerical_blowup`` at t = 0 with no records, and the other
    four complete, so ``simulate`` exits 3. Hashes the exit code and every
    artifact but config.json, which holds the directory's path, and but
    summary.json's wall time."""
    with tempfile.TemporaryDirectory() as tmp:
        config, run_dir = Path(tmp) / "config.json", Path(tmp) / "run"
        config.write_text(json.dumps(
            {**CLI_CONFIG, "output": {"directory": str(run_dir), "per_path_csv": True}}))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([command, str(config)])
        summary = json.loads((run_dir / "summary.json").read_text())
        summary.pop("wall_time_s", None)
        d.add(code, json.dumps(summary, indent=2, sort_keys=True),
              (run_dir / "seed_manifest.json").read_text())
        if command == "sweep-r":
            d.add((run_dir / "sweep.csv").read_text())
        for path in sorted((run_dir / "paths").glob("*.csv")):
            d.add(path.name, path.read_text())


def cases() -> dict[str, Callable[[Digest], None]]:
    out = {
        "n32_none": lambda d: path_case(d, "n32", "none", 0, 1e-3, 0.05),
        "n32_multiplicative": lambda d: path_case(d, "n32", "multiplicative", 3, 1e-3, 0.05,
                                                  stride=None),
        "n64_additive": lambda d: path_case(d, "n64", "additive", 5, 1e-3, 0.05, stride=7),
        "n64_multiplicative": lambda d: path_case(d, "n64", "multiplicative", 5, 1e-3, 0.05,
                                                  stride=7),
        "n64_no_cutoff": lambda d: path_case(d, "n64", "multiplicative", 8, 1e-3, 0.05,
                                             amplitude=0.3, cutoff=False),
        "n256_multiplicative": lambda d: path_case(d, "n256", "multiplicative", 2, 2e-4, 0.004,
                                                   stride=4),
        "padded_none": lambda d: path_case(d, "padded", "none", 0, 1e-3, 0.03, stride=4),
        "padded_additive": lambda d: path_case(d, "padded", "additive", 9, 1e-3, 0.03),
        "padded_multiplicative": lambda d: path_case(d, "padded", "multiplicative", 9, 1e-3,
                                                     0.03, stride=None),
        "blowup": lambda d: path_case(d, "n32", "none", 0, 1.0, 1.0, amplitude=5.0,
                                      radius=1e12, stride=1),
    }
    # paths into the cut-off: the predictor's phi falls into the bridge on
    # the step into the hit
    for seed in range(4):
        out[f"tau_R_n64_{seed}"] = (lambda d, s=seed: path_case(
            d, "n64", "strong", s, 5e-4, 0.2, radius=6.0, stride=3))
        out[f"tau_R_padded_{seed}"] = (lambda d, s=seed: path_case(
            d, "padded", "strong", s, 5e-4, 0.2, radius=8.0, stride=None))
    # the criterion-10 sweep: run at max(r_sweep), resolving every radius
    for index in range(4):
        seed = derive_path_seed(20240501, index)
        out[f"sweep_{index}"] = (lambda d, s=seed: path_case(
            d, "n64", "sweep", s, 5e-4, 0.05, radius=300.0, stride=10,
            radii=(6.0, 9.0, 300.0)))
    # sweeps that end at their largest radius
    for seed in range(3):
        out[f"sweep_tau_R_{seed}"] = (lambda d, s=seed: path_case(
            d, "n64", "strong", s, 5e-4, 0.2, radius=8.0, stride=None,
            radii=(4.0, 6.0, 8.0)))
    out["lone_increments"] = lone_increments_case
    out["sweep_batch"] = sweep_batch_case
    out["mixed_dt_batch"] = mixed_dt_batch_case
    out["mixed_noise_batch"] = mixed_noise_batch_case
    out["blowup_batch"] = blowup_batch_case
    for alpha in (0.0, 1.0):
        out[f"records_alpha{alpha:g}"] = lambda d, a=alpha: alpha_batch_case(d, a)
    out["step_n64"] = lambda d: step_case(d, "n64")
    out["step_padded"] = lambda d: step_case(d, "padded")
    for noise in ("none", "additive", "multiplicative"):
        out[f"convergence_{noise}"] = lambda d, nz=noise: convergence_case(d, nz)
    out["cli_sweep_r"] = lambda d: cli_case(d, "sweep-r")
    out["cli_simulate"] = lambda d: cli_case(d, "simulate")
    return out


def step_case(d: Digest, grid: str) -> None:
    """Ten one-step runs, each from the last one's final state, with no
    records, on the increments of steps 0 to 9; every state is hashed."""
    g = GRIDS[grid]
    params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=100.0)
    noise = NOISE["multiplicative"]
    cfg = StepConfig(dt=1e-3, t_end=0.01)
    dt = cfg.dt_effective
    state = harmonic(g, 0.2)
    for i in range(cfg.n_steps):
        state = simulate_path(state, StepConfig(dt=dt, t_end=dt), params, noise, 17, g,
                              MonitorSpec(collect_records=False),
                              increments=[sample_increment(17, i, dt, noise)]).final_state
        d.add_state(state)


def convergence_case(d: Digest, noise: str) -> None:
    g = GRIDS["n32"]
    params = ModelParams(gamma=1.5, alpha=0.5, cutoff_radius=500.0)
    t_end = 0.05
    dts = [t_end * 2.0**-e for e in (5, 6, 7, 8)]
    model = NOISE[noise] if noise == "none" else NoiseModel(
        base_amplitude=0.05, shape="off" if noise == "additive" else "trig_density_weighted")
    [conv] = strong_convergence_order(harmonic(g, 0.1), params, [model], g, dts, [2], 2024,
                                      t_end)
    d.add(conv.order, conv.dts, conv.errors, conv.n_paths_used, conv.n_excluded)


PIN = Path(__file__).with_name("bit_digest.json")


def case_digests() -> dict[str, str]:
    """Each case's sha256, in case order."""
    out = {}
    for name, run in cases().items():
        d = Digest()
        run(d)
        out[name] = d.h.hexdigest()
    return out


def total_digest(digests: dict[str, str]) -> str:
    """The one sha256 over the cases' digests that ``main`` prints."""
    total = Digest()
    for name, digest in digests.items():
        total.add(name, digest)
    return total.h.hexdigest()


def environment() -> dict[str, str]:
    """What the bits depend on beyond the source: numpy and the machine."""
    return {"numpy": np.__version__, "machine": f"{platform.system()} {platform.machine()}"}


def write_pin(path: Path = PIN) -> None:
    """Write the cases' digests, their total and the environment to ``path``."""
    digests = case_digests()
    pin = {**environment(), "digest": total_digest(digests), "cases": digests}
    path.write_text(json.dumps(pin, indent=2) + "\n")


def main(argv: list[str]) -> int:
    digests = case_digests()
    if "--cases" in argv:
        for name, digest in digests.items():
            print(f"{name:24s} {digest}")
    print(total_digest(digests))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
