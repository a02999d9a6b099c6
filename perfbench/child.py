"""Fresh-interpreter side of the benchmark: set-up probes and measured runs.

run.py starts this module as ``python3 -m perfbench.child <mode> ...`` with
the checkout's ``src`` on PYTHONPATH. Each set-up probe is a new interpreter,
so it pays the full import of qns1d; a measured run gets its own process, so
its peak RSS covers the workload only. qns1d is
imported inside the modes, never at module level, so that the set-up clock
starts before the import.

The result is written as JSON to the ``--out`` file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import workloads
from perfbench.workloads import WORKLOADS, Workload


@dataclass
class Rep:
    """One timed repetition of a workload."""

    run_s: float
    steps: int
    paths: int
    failed_paths: int
    checks: list[tuple[str, bool]]
    output: dict = field(default_factory=dict)  # summary.json, or the suite's values
    artifact_bytes: int = 0


def _check_import(root: Path) -> None:
    import qns1d
    src = (root / "src").resolve()
    if src not in Path(qns1d.__file__).resolve().parents:
        raise ImportError(f"qns1d imported from {qns1d.__file__}, not from {src}")


def setup_probe(workload: Workload, seed: int, workdir: Path) -> float:
    """Seconds for import, config load and validation, and initial states."""
    t0 = time.perf_counter()
    import qns1d  # noqa: F401  (the import is part of set-up)
    if workload.command is None:
        from qns1d.suites import convergence_setup
        convergence_setup()
        return time.perf_counter() - t0

    from qns1d import cli
    from qns1d.noise import derive_path_seed
    cfg_path = workdir / "config.json"
    cfg_path.write_text(json.dumps(workloads.cli_config(workload, seed)))
    cfg = cli.validate_config(cli.load_config(cfg_path), base_dir=workdir)
    for i in range(cfg.ensemble.n_paths):
        cfg.initial_factory(i, derive_path_seed(seed, i))
    return time.perf_counter() - t0


def run_cli(workload: Workload, config: dict, workdir: Path, tracer=None) -> Rep:
    """One ``qns1d simulate`` or ``qns1d sweep-r`` call with one worker, through cli.main."""
    from qns1d import cli
    cfg_path = workdir / "config.json"
    cfg_path.write_text(json.dumps(config))
    os.environ[cli.OUTPUT_ROOT_ENV] = str(workdir)
    argv = [workload.command, str(cfg_path), "--workers", "1"]
    n_paths = config["ensemble"]["n_paths"]
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call("cli", "main", cli.main, argv)
    except Exception:
        traceback.print_exc()
        return Rep(time.perf_counter() - t0, 0, n_paths, n_paths, [("run_completed", False)])
    run_s = time.perf_counter() - t0

    run_dir = workdir / config["output"]["directory"]
    summary = json.loads((run_dir / "summary.json").read_text())
    manifest = json.loads((run_dir / "seed_manifest.json").read_text())
    return Rep(
        run_s=run_s,
        steps=workloads.path_steps(config, manifest),
        paths=len(manifest["paths"]),
        failed_paths=sum(p["event"] == "numerical_blowup" for p in manifest["paths"]),
        checks=workloads.summary_checks(workload, code, summary),
        output=workloads.reference_values(summary),
        artifact_bytes=sum(f.stat().st_size for f in run_dir.rglob("*") if f.is_file()),
    )


def run_convergence(n_paths: int, seed: int, tracer=None) -> Rep:
    """One suite_convergence call; the gated strong orders must meet their floors."""
    from qns1d.suites import suite_convergence
    paths = workloads.convergence_paths(n_paths)
    t0 = time.perf_counter()
    try:
        if tracer is None:
            results = suite_convergence(n_paths=n_paths, master_seed=seed)
        else:
            results = tracer.call("suites", "suite_convergence", suite_convergence,
                                  n_paths=n_paths, master_seed=seed)
    except Exception:
        # more than 20% excluded paths raises; with n_paths <= 4 that is any exclusion
        traceback.print_exc()
        return Rep(time.perf_counter() - t0, 0, paths, paths, [("run_completed", False)])
    run_s = time.perf_counter() - t0
    return Rep(
        run_s=run_s,
        steps=paths * workloads.CONVERGENCE_STEPS_PER_PATH,
        paths=paths,
        failed_paths=0,
        checks=[(f"{r.name}_meets_floor", r.passed) for r in results
                if r.name in workloads.GATED_ORDERS or seed == workloads.DEFAULT_SEED],
        output={r.name: {"order": r.value, "errors": r.detail["errors"]} for r in results},
    )


def run_rep(workload: Workload, seed: int, workdir: Path, tracer=None, **scale) -> Rep:
    """One repetition; ``scale`` (t_end, n_paths) shrinks the workload for tests."""
    if workload.command is None:
        return run_convergence(scale.get("n_paths", workload.n_paths), seed, tracer)
    return run_cli(workload, workloads.cli_config(workload, seed, **scale), workdir, tracer)


def replay_check(workload: Workload, seed: int, workdir: Path) -> tuple[str, bool]:
    """``qns1d replay`` of one path reproduces its CSV byte for byte."""
    from qns1d import cli
    run_dir = workdir / "runs" / workload.name
    index = seed % workload.n_paths
    out = workdir / "replay.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["replay", str(run_dir), "--path-index", str(index),
                         "--out", str(out)])
    original = run_dir / "paths" / f"path_{index:04d}.csv"
    return (f"replay_path_{index}_bit_identical",
            code == 0 and original.read_bytes() == out.read_bytes())


def reference_check(name: str, output: dict, root: Path) -> tuple[str, bool]:
    ref = json.loads((root / "perfbench" / "reference.json").read_text())
    return ("matches_reference", workloads.matches(
        output, ref["workloads"].get(name), ref["rel_tol"], ref["abs_tol"]))


def peak_rss_mb() -> float:
    """Peak RSS of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            workdir: Path, root: Path) -> dict:
    """Repetitions for ``seconds`` (untraced), or one plain and one traced
    repetition plus the grid sweep (traced)."""
    _check_import(root)
    reps: list[Rep] = []
    result: dict = {}
    if not trace:
        start = time.perf_counter()
        while True:
            reps.append(run_rep(workload, seed, workdir))
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(r.run_s for r in reps) > seconds:
                break
        result["peak_rss_mb"] = peak_rss_mb()
        checks = [(f"rep_{i}_output_identical", r.output == reps[0].output)
                  for i, r in enumerate(reps[1:], 1)]
    else:
        from perfbench import gridsweep
        from perfbench.tracer import Tracer, layer_metrics
        reps.append(run_rep(workload, seed, workdir))
        with Tracer() as tracer:
            reps.append(run_rep(workload, seed, workdir, tracer))
        spans = tracer.table()
        spans.write(workdir / "spans.npz")
        layer = layer_metrics(spans, tracer.absent)
        plain, traced = reps
        layer["trace.overhead_frac"] = traced.run_s / plain.run_s - 1.0
        layer["cli.artifact_bytes"] = float(traced.artifact_bytes)
        layer.update(gridsweep.grid_sweep())
        result["layer"] = layer
        result["absent"] = tracer.absent
        checks = [("traced_output_identical", traced.output == plain.output)]
        if "integrator.steps" in layer:
            checks.append(("traced_steps_match_count",
                           layer["integrator.steps"] == traced.steps))
    if workload.name == "quickstart":
        checks.append(replay_check(workload, seed, workdir))
    if seed == workloads.DEFAULT_SEED:
        checks.append(reference_check(workload.name, reps[0].output, root))
    result["reps"] = [
        {"run_s": r.run_s, "steps": r.steps, "paths": r.paths,
         "failed_paths": r.failed_paths, "checks": r.checks} for r in reps]
    result["checks"] = checks
    result["output"] = reps[0].output
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    args.workdir.mkdir(parents=True, exist_ok=True)
    if args.mode == "setup":
        result = {"setup_s": setup_probe(workload, args.seed, args.workdir)}
    else:
        result = measure(workload, args.seed, args.seconds, bool(args.trace),
                         args.workdir, args.root)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
