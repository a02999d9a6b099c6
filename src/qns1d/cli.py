"""Batch command-line interface: simulate, verify, sweep-r, replay.

Configs are JSON with one block per module (grid, model, noise, integration,
ensemble, output). The package ships their JSON schema as
config.schema.json, and validation interprets that schema: it documents
every field and supplies every default, any other key and any value the
schema rejects is reported, and so are the rules it cannot state (such as eps
against rho0). All violations go into one report before any computation
starts.
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
import operator
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

CONFIG_SCHEMA = json.loads(
    Path(__file__).with_name("config.schema.json").read_text(encoding="utf-8"))


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
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigValidationError([f"config file not found: {path}"])
    except json.JSONDecodeError as exc:
        raise ConfigValidationError(
            [f"config is not valid JSON: line {exc.lineno} column {exc.colno}: {exc.msg}"])
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigValidationError([f"cannot read config {path}: {exc}"])


# each JSON type: the Python types json.load reads it as, and its name in a report
_JSON_TYPES = {"object": (dict, "an object"), "array": (list, "an array"),
               "string": (str, "a string"), "boolean": (bool, "true or false"),
               "integer": (int, "an integer"), "number": ((int, float), "a number"),
               "null": (type(None), "null")}
_BOUNDS = (("minimum", ">=", operator.ge), ("exclusiveMinimum", ">", operator.gt),
           ("maximum", "<=", operator.le))


def _has_type(value: object, json_type: str) -> bool:
    """Whether a value that ``json.load`` returned has a JSON Schema type.

    A bool is never a number. An integer field takes only an integer literal:
    JSON Schema 2020-12 also counts an integral float such as 1e9 as an
    integer, but ``json.load`` reads it as a float, and converting that back
    need not give the integer written (int(1e23) is 99999999999999991611392).
    """
    if isinstance(value, bool) and json_type in ("integer", "number"):
        return False
    return isinstance(value, _JSON_TYPES[json_type][0])


def _interpret(spec: dict, value: object, where: str, problems: list[str]) -> object:
    """Check a JSON value against a schema node, appending each violation to
    ``problems`` as ``where: ...``, and return the value as validation uses it:
    objects with their absent properties' defaults filled in, arrays as
    tuples and numbers as floats."""
    types = spec.get("type", [])
    types = [types] if isinstance(types, str) else types
    if types and not any(_has_type(value, t) for t in types):
        expected = " or ".join(_JSON_TYPES[t][1] for t in types)
        problems.append(f"{where}: must be {expected}, got {value!r}")
        return value
    # type-strict, so that True does not match 1
    if "enum" in spec and not any(type(value) is type(e) and value == e for e in spec["enum"]):
        problems.append(f"{where}: must be {' or '.join(map(repr, spec['enum']))}, got {value!r}")
    for keyword, sign, holds in _BOUNDS:
        if keyword in spec and not holds(value, spec[keyword]):  # NaN holds no bound
            problems.append(f"{where}: must be {sign} {spec[keyword]}, got {value!r}")
    if isinstance(value, list):
        return tuple(_interpret(spec.get("items", {}), item, f"{where}[{j}]", problems)
                     for j, item in enumerate(value))
    if isinstance(value, dict):
        props, prefix = spec.get("properties", {}), f"{where}." if where else ""
        problems.extend(f"{prefix}{key}: required"
                        for key in spec.get("required", ()) if key not in value)
        if spec.get("additionalProperties") is False:
            problems.extend(f"{prefix}{key}: unknown {'key' if where else 'block'}"
                            for key in value if key not in props)
        given = {key: prop["default"] for key, prop in props.items() if "default" in prop}
        return {key: _interpret(props[key], item, prefix + key, problems)
                for key, item in {**given, **value}.items() if key in props}
    return float(value) if "number" in types else value


def validate_config(raw: dict, base_dir: Path | None = None) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigValidationError(["config: top level must be an object"])
    problems: list[str] = []
    cfg = _interpret(CONFIG_SCHEMA, raw, "", problems)
    # a block the schema passed, or None; only the rules it cannot state remain
    blocks = {name: None if any(p.startswith((name + ":", name + ".")) for p in problems)
              else cfg[name] for name in CONFIG_SCHEMA["properties"]}

    def build(name: str, make: Callable[[dict], object]) -> object | None:
        """make(block), or None where the block is invalid or make rejects it."""
        if blocks[name] is not None:
            try:
                return make(blocks[name])
            except (ValueError, TypeError) as exc:
                problems.append(f"{name}: {exc}")
        return None

    grid = build("grid", lambda g: TorusGrid(**g))
    params = build("model", lambda m: ModelParams(
        **{key: v for key, v in m.items() if key != "initial_condition"}))
    noise = build("noise", lambda nz: NoiseModel(**nz))
    step = build("integration", lambda it: StepConfig(
        **{key: v for key, v in it.items() if key != "scheme"}))
    ens = build("ensemble", lambda en: EnsembleConfig(**{**en, "r_sweep": en["r_sweep"] or None}))
    m, out = blocks["model"], blocks["output"]

    factory, density_bound = None, 1.0
    if m is not None and grid is not None:
        try:
            factory, density_bound = build_initial_factory(m["initial_condition"], grid, base_dir)
        except (ValueError, TypeError, OSError) as exc:
            problems.append(f"model.initial_condition: {exc}")

    if out is not None and not out["directory"]:
        problems.append("output.directory: must be a non-empty string, got ''")

    if ens is not None and ens.r_sweep and params is not None:
        if max(ens.r_sweep) > params.cutoff_radius:
            problems.append(
                "ensemble.r_sweep: largest radius exceeds model.cutoff_radius")

    if problems:
        raise ConfigValidationError(problems)

    root = Path(os.environ.get(OUTPUT_ROOT_ENV, "."))
    out_dir = Path(out["directory"])
    if not out_dir.is_absolute():
        out_dir = root / out_dir
    return RunConfig(raw=raw, grid=grid, params=params, noise=noise, step=step,
                     ensemble=ens, output_dir=out_dir, per_path_csv=out["per_path_csv"],
                     initial_factory=factory, density_bound=density_bound)


def build_initial_factory(ic: dict, grid: TorusGrid, base_dir: Path | None,
                          ) -> tuple[Callable[[int, int], State], float]:
    """Initial-condition factory (path_index, path_seed) -> State, from a
    schema-checked initial_condition block with its defaults filled in.

    Densities stay pinned away from vacuum: rho0 - eps_max must be positive,
    and the implied bound C with 1/C <= rho <= C is returned for the manifest.
    """
    kind = ic["kind"]
    if kind == "file":
        if not ic.get("path"):
            raise ValueError("file kind needs a 'path'")
        p = Path(ic["path"])
        if base_dir is not None and not p.is_absolute():
            p = base_dir / p
        with open(p, "rb") as fh:
            data = np.load(fh)
            if not (isinstance(data, np.lib.npyio.NpzFile) and {"psi", "u"} <= set(data.files)):
                raise ValueError(f"{p} must be an .npz archive with arrays 'psi' and 'u'")
            psi_vals, u_vals = data["psi"], data["u"]
        if psi_vals.shape != (grid.n_collocation,) or u_vals.shape != (grid.n_collocation,):
            raise ValueError("file arrays must match n_collocation")
        psi = project(RealField.from_physical(psi_vals, grid), grid)
        u = project(RealField.from_physical(u_vals, grid), grid)
        state = State(psi, u, 0.0)
        bound = float(np.exp(np.max(np.abs(psi_vals))))
        return (lambda index, seed: state), bound

    if "rho0" not in ic:
        raise ValueError(f"{kind} kind needs a 'rho0'")
    rho0 = ic["rho0"]
    if kind == "constant":
        psi = RealField.from_physical(np.full(grid.n_collocation, np.log(rho0)), grid)
        u = RealField.from_physical(np.zeros(grid.n_collocation), grid)
        state = State(psi, u, 0.0)
        return (lambda index, seed: state), max(rho0, 1.0 / rho0)

    eps, modes, v_eps = ic["eps"], ic["modes"], ic["velocity_eps"]
    v_modes, rand_amp = ic.get("velocity_modes", modes), ic["random_amplitude"]
    if eps * (1.0 + rand_amp) >= rho0:
        raise ValueError("perturbation eps*(1+random_amplitude) must stay below rho0")
    if any(j > grid.m_modes for j in modes + v_modes):
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
