"""Batch command-line interface: simulate, verify, sweep-r, replay.

Configs are JSON with one block per module (grid, model, noise, integration,
ensemble, output); docs/config.schema.json documents every field, validation
rejects any other and any boolean, integer or number field of another JSON
type, and all violations go into one report before any computation starts.
Run artifacts (config snapshot, seed manifest, summary, per-path monitor
CSVs) land in one run directory and are sufficient to replay any path
bit-identically: ``replay`` runs the path through ``ensemble.run_path``, the
same function the ensemble ran it with.

Exit codes: 0 success, 2 config/validation error, 3 blow-up-dominated run,
1 failed verification checks.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .ensemble import EnsembleConfig, EnsembleSummary, run_ensemble, run_path
from .functionals import BETA, MonitorRecord
from .integrator import StepConfig
from .model import ModelParams, State
from .noise import NoiseModel, derive_path_seed, initial_data_generator
from .spectral import RealField, TorusGrid, project
from .suites import SUITES, run_suites

SCHEMA_VERSION = 1
OUTPUT_ROOT_ENV = "QNS1D_OUTPUT_ROOT"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_BLOWUP_DOMINATED = 3

IC_KINDS = ("constant", "harmonic_perturbation", "file")

# each block's (required, optional) keys, as docs/config.schema.json lists them
BLOCK_KEYS = {
    "grid": (("n_collocation", "m_modes"), ("dealias",)),
    "model": (("gamma", "alpha", "initial_condition"),
              ("cutoff_radius", "monitor_order", "enable_cutoff")),
    "noise": ((), ("k_modes", "base_amplitude", "amplitude_decay", "shape")),
    "integration": (("dt", "t_end"), ("scheme", "blowup_clamp")),
    "ensemble": (("n_paths", "master_seed"), ("moment_orders", "r_sweep", "output_stride")),
    "output": (("directory",), ("per_path_csv",)),
}
IC_KEYS = (("kind",), ("rho0", "eps", "modes", "velocity_eps", "velocity_modes",
                       "random_amplitude", "path"))
FLAGS = ("dealias", "enable_cutoff", "per_path_csv")  # JSON booleans only
# the schema's "integer" and "number" fields: a bool, a string or (for an
# integer) a fraction is reported, not converted
INTEGERS = ("n_collocation", "m_modes", "monitor_order", "k_modes", "n_paths", "master_seed",
            "output_stride")
NUMBERS = ("gamma", "alpha", "cutoff_radius", "rho0", "eps", "velocity_eps", "random_amplitude",
           "base_amplitude", "amplitude_decay", "dt", "t_end", "blowup_clamp")


class ConfigValidationError(ValueError):
    def __init__(self, problems: list[str]):
        super().__init__("invalid configuration:\n  " + "\n  ".join(problems))
        self.problems = problems


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration with the module objects already built."""

    raw: dict
    grid: TorusGrid
    params: ModelParams
    noise: NoiseModel
    step: StepConfig
    ensemble: EnsembleConfig
    output_dir: Path
    per_path_csv: bool
    initial_factory: Callable[[int, int], State]
    density_bound: float  # C with 1/C <= rho0 <= C


def load_config(path: str | Path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigValidationError([f"config file not found: {path}"])
    except json.JSONDecodeError as exc:
        raise ConfigValidationError(
            [f"config is not valid JSON: line {exc.lineno} column {exc.colno}: {exc.msg}"])


def _type_problem(key: str, value: object) -> str | None:
    """What a field's JSON value should have been, where its type is wrong."""
    if key in FLAGS and not isinstance(value, bool):
        return "must be true or false"
    if key in INTEGERS and (isinstance(value, bool) or not isinstance(value, int)):
        return "must be an integer"
    if key in NUMBERS and (isinstance(value, bool) or not isinstance(value, (int, float))):
        return "must be a number"
    return None


def validate_config(raw: dict, base_dir: Path | None = None) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigValidationError(["config: top level must be an object"])
    problems = [f"{name}: unknown block" for name in raw if name not in BLOCK_KEYS]

    def complete(where: str, block: dict, required: tuple, optional: tuple) -> bool:
        """Report the block's missing and unknown keys and its flags, integers
        and numbers of another JSON type; True if no key is missing or
        mistyped."""
        missing = [key for key in required if key not in block]
        problems.extend(f"{where}.{key}: required" for key in missing)
        ok = not missing
        for key, value in block.items():
            if key not in required + optional:
                problems.append(f"{where}.{key}: unknown key")
            elif (expected := _type_problem(key, value)) is not None:
                problems.append(f"{where}.{key}: {expected}, got {value!r}")
                ok = False
        return ok

    def block(name: str) -> dict | None:
        value = raw.get(name)
        if not isinstance(value, dict):
            problems.append(f"{name}: missing or not an object")
            return None
        return value if complete(name, value, *BLOCK_KEYS[name]) else None

    blocks = {name: block(name) for name in BLOCK_KEYS}

    def build(name: str, make: Callable[[dict], object]) -> object | None:
        """make(block), or None where the block is incomplete or make rejects it."""
        if blocks[name] is not None:
            try:
                return make(blocks[name])
            except (ValueError, TypeError) as exc:
                problems.append(f"{name}: {exc}")
        return None

    grid = build("grid", lambda g: TorusGrid(
        n_collocation=int(g["n_collocation"]), m_modes=int(g["m_modes"]),
        dealias=bool(g.get("dealias", True))))
    params = build("model", lambda m: ModelParams(
        gamma=float(m["gamma"]), alpha=float(m["alpha"]),
        cutoff_radius=float(m.get("cutoff_radius", 1e6)),
        monitor_order=int(m.get("monitor_order", 4)),
        enable_cutoff=bool(m.get("enable_cutoff", True))))
    noise = build("noise", lambda nz: NoiseModel(
        k_modes=int(nz.get("k_modes", 16)), amplitude_decay=float(nz.get("amplitude_decay", 6.0)),
        base_amplitude=float(nz.get("base_amplitude", 0.0)),
        shape=str(nz.get("shape", "trig_density_weighted"))))
    step = build("integration", lambda it: StepConfig(
        dt=float(it["dt"]), t_end=float(it["t_end"]),
        blowup_clamp=float(it.get("blowup_clamp", 50.0))))
    ens = build("ensemble", lambda en: EnsembleConfig(
        n_paths=int(en["n_paths"]), master_seed=int(en["master_seed"]),
        moment_orders=tuple(en.get("moment_orders", [1, 2])),
        r_sweep=tuple(float(r) for r in en["r_sweep"]) if en.get("r_sweep") else None,
        output_stride=int(en.get("output_stride", 1))))
    m, it, out = blocks["model"], blocks["integration"], blocks["output"]
    if it is not None and it.get("scheme", "imex_cn") != "imex_cn":
        problems.append(f"integration.scheme: must be 'imex_cn', got {it['scheme']!r}")

    factory, density_bound = None, 1.0
    ic = None if m is None else m["initial_condition"]
    if m is not None and not isinstance(ic, dict):
        problems.append("model.initial_condition: not an object")
    elif (ic is not None and complete("model.initial_condition", ic, *IC_KEYS)
          and grid is not None):
        try:
            factory, density_bound = build_initial_factory(ic, grid, base_dir)
        except (ValueError, TypeError, OSError) as exc:
            problems.append(f"model.initial_condition: {exc}")

    directory = None if out is None else out["directory"]
    if out is not None and not (directory and isinstance(directory, str)):
        problems.append("output.directory: required string")
    per_path_csv = out is not None and bool(out.get("per_path_csv", False))

    if ens is not None and ens.r_sweep and params is not None:
        if max(ens.r_sweep) > params.cutoff_radius:
            problems.append(
                "ensemble.r_sweep: largest radius exceeds model.cutoff_radius")

    if problems:
        raise ConfigValidationError(problems)

    root = Path(os.environ.get(OUTPUT_ROOT_ENV, "."))
    out_dir = Path(directory)
    if not out_dir.is_absolute():
        out_dir = root / out_dir
    return RunConfig(raw=raw, grid=grid, params=params, noise=noise, step=step,
                     ensemble=ens, output_dir=out_dir, per_path_csv=per_path_csv,
                     initial_factory=factory, density_bound=density_bound)


def build_initial_factory(ic: dict, grid: TorusGrid, base_dir: Path | None,
                          ) -> tuple[Callable[[int, int], State], float]:
    """Initial-condition factory (path_index, path_seed) -> State.

    Densities stay pinned away from vacuum: rho0 - eps_max must be positive,
    and the implied bound C with 1/C <= rho <= C is returned for the manifest.
    """
    kind = ic.get("kind")
    if kind not in IC_KINDS:
        raise ValueError(f"kind must be one of {IC_KINDS}, got {kind!r}")

    if kind == "constant":
        rho0 = float(ic.get("rho0", 0.0))
        if rho0 <= 0.0:
            raise ValueError("rho0 must be positive")
        psi = RealField.from_physical(np.full(grid.n_collocation, np.log(rho0)), grid)
        u = RealField.from_physical(np.zeros(grid.n_collocation), grid)
        state = State(psi, u, 0.0)
        return (lambda index, seed: state), max(rho0, 1.0 / rho0)

    if kind == "file":
        path = ic.get("path")
        if not path:
            raise ValueError("file kind needs a 'path'")
        p = Path(path)
        if base_dir is not None and not p.is_absolute():
            p = base_dir / p
        data = np.load(p)
        psi_vals, u_vals = np.asarray(data["psi"]), np.asarray(data["u"])
        if psi_vals.shape != (grid.n_collocation,) or u_vals.shape != (grid.n_collocation,):
            raise ValueError("file arrays must match n_collocation")
        psi = project(RealField.from_physical(psi_vals, grid), grid)
        u = project(RealField.from_physical(u_vals, grid), grid)
        state = State(psi, u, 0.0)
        bound = float(np.exp(np.max(np.abs(psi_vals))))
        return (lambda index, seed: state), bound

    rho0 = float(ic.get("rho0", 0.0))
    eps = float(ic.get("eps", 0.0))
    modes = [int(j) for j in ic.get("modes", [1])]
    v_eps = float(ic.get("velocity_eps", 0.0))
    v_modes = [int(j) for j in ic.get("velocity_modes", modes)]
    rand_amp = float(ic.get("random_amplitude", 0.0))
    if rho0 <= 0.0:
        raise ValueError("rho0 must be positive")
    if eps < 0.0 or v_eps < 0.0 or rand_amp < 0.0 or rand_amp > 1.0:
        raise ValueError("eps, velocity_eps must be >= 0 and random_amplitude in [0, 1]")
    if eps * (1.0 + rand_amp) >= rho0:
        raise ValueError("perturbation eps*(1+random_amplitude) must stay below rho0")
    if any(j < 1 or j > grid.m_modes for j in modes + v_modes):
        raise ValueError("perturbation modes must lie in 1..m_modes")

    def factory(index: int, seed: int) -> State:
        scale_rho, scale_u = 1.0, 1.0
        if rand_amp > 0.0:
            gen = initial_data_generator(seed)
            scale_rho = 1.0 + rand_amp * gen.uniform(-1.0, 1.0)
            scale_u = 1.0 + rand_amp * gen.uniform(-1.0, 1.0)
        rho = np.full(grid.n_collocation, rho0)
        for j in modes:
            rho = rho + scale_rho * eps / len(modes) * np.cos(2 * np.pi * j * grid.x)
        u_vals = np.zeros(grid.n_collocation)
        for j in v_modes:
            u_vals = u_vals + scale_u * v_eps / len(v_modes) * np.sin(2 * np.pi * j * grid.x)
        psi = project(RealField.from_physical(np.log(rho), grid), grid)
        u = project(RealField.from_physical(u_vals, grid), grid)
        return State(psi, u, 0.0)

    top = rho0 + eps * (1.0 + rand_amp)
    bottom = rho0 - eps * (1.0 + rand_amp)
    return factory, max(top, 1.0 / bottom)


# --- artifact writing ----------------------------------------------------


def _float_str(v: float) -> str:
    return repr(float(v))


def write_records_csv(path: Path, records: list[MonitorRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MonitorRecord.CSV_HEADER.split(","))
        for rec in records:
            writer.writerow([_float_str(v) for v in rec.to_row()])


def summary_to_dict(summary: EnsembleSummary, extra: dict) -> dict:
    moments = {
        name: {str(p): {"value": est.value, "stderr": est.stderr}
               for p, est in by_order.items()}
        for name, by_order in summary.moments.items()
    }
    doc = {
        "schema_version": SCHEMA_VERSION,
        "n_paths": summary.n_paths,
        "master_seed": summary.master_seed,
        "moments": moments,
        "stopping": [
            {"radius": row.radius, "fraction": row.fraction,
             "mean_stopping_time": row.mean_stopping_time,
             "n_stopped": row.n_stopped, "n_paths": row.n_paths}
            for row in summary.stopping
        ],
        "blowup_fraction": summary.blowup_fraction,
        "degenerate": summary.degenerate,
        "vacuum": None if summary.vacuum is None else {
            "min_rho": summary.vacuum.min_rho,
            "max_inv_rho_beta": summary.vacuum.max_inv_rho_beta,
            "beta": BETA,
            "global_regularity_regime": summary.vacuum.global_regularity_regime,
        },
    }
    doc.update(extra)
    return doc


def write_run_artifacts(cfg: RunConfig, summary: EnsembleSummary,
                        record_series: list[list[MonitorRecord]],
                        extra_summary: dict) -> Path:
    run_dir = cfg.output_dir
    run_dir.mkdir(parents=True, exist_ok=True)
    with open(run_dir / "config.json", "w") as fh:
        json.dump(cfg.raw, fh, indent=2, sort_keys=True)
        fh.write("\n")
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "master_seed": cfg.ensemble.master_seed,
        "n_paths": cfg.ensemble.n_paths,
        "density_bound": cfg.density_bound,
        "paths": [
            {"index": idx, "seed": seed, "event": kind, "event_time": t}
            for idx, seed, kind, t in summary.path_events
        ],
    }
    with open(run_dir / "seed_manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(run_dir / "summary.json", "w") as fh:
        json.dump(summary_to_dict(summary, extra_summary), fh, indent=2, sort_keys=True)
        fh.write("\n")
    if cfg.per_path_csv and record_series:
        paths_dir = run_dir / "paths"
        paths_dir.mkdir(exist_ok=True)
        for idx, records in enumerate(record_series):
            write_records_csv(paths_dir / f"path_{idx:04d}.csv", records)
    return run_dir


def max_rel_mass_drift(record_series: list[list[MonitorRecord]]) -> float:
    worst = 0.0
    for records in record_series:
        if not records:
            continue
        m0 = records[0].mass
        worst = max(worst, max(abs(r.mass - m0) for r in records) / m0)
    return worst


# --- subcommands ----------------------------------------------------------


def _run_from_config(args: argparse.Namespace, sweep: bool,
                     ) -> tuple[EnsembleSummary, Path, dict] | None:
    """Load and validate ``args.config``, run its ensemble and write the run
    directory. Returns (summary, run directory, extra summary entries), or
    None after reporting a configuration error."""
    try:
        cfg = validate_config(load_config(args.config), base_dir=Path(args.config).parent)
        if sweep and not cfg.ensemble.r_sweep:
            raise ConfigValidationError(["ensemble.r_sweep: required for sweep-r"])
    except ConfigValidationError as exc:
        print(exc, file=sys.stderr)
        return None
    t0 = time.perf_counter()
    summary, records = run_ensemble(
        cfg.ensemble, cfg.initial_factory, cfg.step, cfg.params, cfg.noise,
        cfg.grid, n_workers=args.workers)
    extra = {"max_rel_mass_drift": max_rel_mass_drift(records)}
    if not sweep:
        extra["wall_time_s"] = time.perf_counter() - t0
    return summary, write_run_artifacts(cfg, summary, records, extra), extra


def cmd_simulate(args: argparse.Namespace) -> int:
    run = _run_from_config(args, sweep=False)
    if run is None:
        return EXIT_CONFIG_ERROR
    summary, run_dir, extra = run
    print(f"run complete: {summary.n_paths} paths, "
          f"blowup fraction {summary.blowup_fraction:.3f}, "
          f"mass drift {extra['max_rel_mass_drift']:.3e}")
    print(f"artifacts: {run_dir}")
    if summary.degenerate or summary.blowup_fraction >= 0.5:
        return EXIT_BLOWUP_DOMINATED
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    names = args.suites or sorted(SUITES)
    try:
        results = run_suites(names)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return EXIT_CONFIG_ERROR
    for r in results:
        print(r.line())
    if args.report:
        doc = [{"suite": r.suite, "name": r.name, "passed": r.passed,
                "value": r.value, "threshold": r.threshold,
                "comparison": r.comparison, "runtime_s": r.runtime_s}
               for r in results]
        Path(args.report).parent.mkdir(parents=True, exist_ok=True)
        with open(args.report, "w") as fh:
            json.dump({"schema_version": SCHEMA_VERSION, "checks": doc}, fh,
                      indent=2, sort_keys=True)
            fh.write("\n")
    n_fail = sum(1 for r in results if not r.passed)
    print(f"{len(results) - n_fail}/{len(results)} checks passed")
    return EXIT_OK if n_fail == 0 else EXIT_VERIFY_FAILED


def cmd_sweep_r(args: argparse.Namespace) -> int:
    run = _run_from_config(args, sweep=True)
    if run is None:
        return EXIT_CONFIG_ERROR
    summary, run_dir, _ = run
    sweep_path = run_dir / "sweep.csv"
    with open(sweep_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["R", "stopping_fraction", "mean_stopping_time", "paths_count"])
        for row in summary.stopping:
            writer.writerow([
                _float_str(row.radius), _float_str(row.fraction),
                "" if row.mean_stopping_time is None else _float_str(row.mean_stopping_time),
                row.n_paths,
            ])
    for row in summary.stopping:
        mst = "-" if row.mean_stopping_time is None else f"{row.mean_stopping_time:.4f}"
        print(f"R={row.radius:g}: fraction={row.fraction:.3f} "
              f"mean_stop_time={mst} n_stopped={row.n_stopped}")
    print(f"table: {sweep_path}")
    if summary.degenerate:
        return EXIT_BLOWUP_DOMINATED
    return EXIT_OK


def cmd_replay(args: argparse.Namespace) -> int:
    run_dir = Path(args.run_dir)
    try:
        cfg = validate_config(load_config(run_dir / "config.json"), base_dir=run_dir)
        with open(run_dir / "seed_manifest.json") as fh:
            seeds = {p["index"]: p["seed"] for p in json.load(fh)["paths"]}
    except (ConfigValidationError, OSError, json.JSONDecodeError) as exc:
        print(f"cannot load run directory: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (KeyError, TypeError) as exc:
        print("cannot load run directory: seed_manifest.json needs a 'paths' list "
              f"of objects with 'index' and 'seed' ({exc!r})", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    index = args.path_index
    if index not in seeds:
        print(f"path index {index} not in manifest", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    seed = seeds[index]
    expected = derive_path_seed(cfg.ensemble.master_seed, index)
    if seed != expected:
        print(f"manifest seed {seed} does not match lineage {expected}",
              file=sys.stderr)
        return EXIT_CONFIG_ERROR
    summary, records = run_path(cfg.ensemble, index, cfg.initial_factory(index, seed),
                                cfg.step, cfg.params, cfg.noise, cfg.grid)
    out_path = Path(args.out) if args.out else run_dir / f"replay_path_{index:04d}.csv"
    write_records_csv(out_path, records)
    print(f"replayed path {index}: event={summary.event_kind} "
          f"t={summary.event_time:.6g} -> {out_path}")
    original = run_dir / "paths" / f"path_{index:04d}.csv"
    if original.exists():
        match = original.read_bytes() == out_path.read_bytes()
        print(f"bit-identical to original: {match}")
        if not match:
            return EXIT_VERIFY_FAILED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qns1d",
        description="Pseudo-spectral simulator for the 1D stochastic quantum "
                    "Navier-Stokes system in log-density variables")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a single path or ensemble from a config")
    p_sim.add_argument("config", help="path to JSON config")
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="run identity/inequality/convergence suites")
    p_ver.add_argument("suites", nargs="*",
                       help=f"suite names (default: all of {sorted(SUITES)})")
    p_ver.add_argument("--report", help="write a JSON report to this path")
    p_ver.set_defaults(func=cmd_verify)

    p_swp = sub.add_parser("sweep-r", help="stopping-time table over the configured radii")
    p_swp.add_argument("config", help="path to JSON config with ensemble.r_sweep")
    p_swp.add_argument("--workers", type=int, default=1)
    p_swp.set_defaults(func=cmd_sweep_r)

    p_rep = sub.add_parser("replay", help="re-run one path from a run directory")
    p_rep.add_argument("run_dir", help="existing run directory")
    p_rep.add_argument("--path-index", type=int, default=0)
    p_rep.add_argument("--out", help="output CSV path (default: inside run dir)")
    p_rep.set_defaults(func=cmd_replay)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
