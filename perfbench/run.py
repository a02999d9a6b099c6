"""qns1d benchmark: three workloads, end-to-end metrics and a layer trace.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload quickstart|sweep_r|convergence|all \\
        --seed N --seconds S --trace 0|1

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: set-up time
(median of fresh-interpreter probes), then repetitions of the workload for
``--seconds`` in one child process (median run time and step rate, peak
RSS, share of operations that succeeded). ``--trace 1`` runs the workload
once plain and once under the span tracer, and reports the per-layer
metrics plus a grid-size sweep of single public calls.

Every run checks the program's outputs; a failed check makes the command
exit 1. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The environment, a
host-speed probe and every raw sample are stored under ``.perfbench/records``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import hostinfo  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_PROBES = 5
TIME_LIMIT_S = 170.0
STATE_DIR = ROOT / ".perfbench"


class HarnessError(RuntimeError):
    """The benchmark itself could not produce a result."""


def _child(mode: str, workload: str, seed: int, workdir: Path, deadline: float,
           seconds: float = 0.0, trace: int = 0) -> dict:
    """Run perfbench.child in a new interpreter and session; kill it at the deadline."""
    out = workdir / f"{mode}.json"
    out.unlink(missing_ok=True)
    paths = [str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    cmd = [sys.executable, "-m", "perfbench.child", mode, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(workdir), "--root", str(ROOT), "--out", str(out)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise HarnessError(f"{mode} run of {workload} exceeded the time limit")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0 or not out.is_file():
        sys.stderr.write(err)
        raise HarnessError(f"{mode} run of {workload} failed (exit {proc.returncode})")
    return json.loads(out.read_text())


def _tally(result: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, names of failed checks): paths plus output checks."""
    attempted = failed = 0
    failed_checks = []
    for rep in result["reps"]:
        attempted += rep["paths"]
        failed += rep["failed_paths"]
    checks = [c for rep in result["reps"] for c in rep["checks"]] + result["checks"]
    for name, passed in checks:
        attempted += 1
        if not passed:
            failed += 1
            failed_checks.append(name)
    return attempted, failed, failed_checks


def run_workload(name: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": hostinfo.environment(ROOT),
              "fft_probe_ms": hostinfo.fft_probe_ms()}
    STATE_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=STATE_DIR))
    try:
        if not trace:
            record["setup_s"] = [_child("setup", name, seed, workdir, deadline)["setup_s"]
                                 for _ in range(SETUP_PROBES)]
        result = _child("measure", name, seed, workdir, deadline, seconds, trace)
        stem = f"{name}-seed{seed}-trace{trace}-{time.time_ns()}"
        records = STATE_DIR / "records"
        records.mkdir(exist_ok=True)
        if (workdir / "spans.npz").is_file():
            shutil.move(workdir / "spans.npz", records / f"{stem}.spans.npz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, failed_checks = _tally(result)
    if trace:
        values = result["layer"]
        wanted = spec["per_layer"]
    else:
        reps = result["reps"]
        values = {
            "setup_s": statistics.median(record["setup_s"]),
            "run_s": statistics.median(r["run_s"] for r in reps),
            "path_steps_per_s": statistics.median(r["steps"] / r["run_s"] for r in reps),
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_frac": 1.0 - failed / attempted,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    record.update(result=result, metrics=metrics, attempted=attempted, failed=failed,
                  failed_checks=failed_checks)
    (records / f"{stem}.json").write_text(json.dumps(record, indent=1))
    return record


def _print_table(record: dict) -> None:
    name = record["workload"]
    print(f"{name}: seed {record['seed']}, fft probe {record['fft_probe_ms']:.2f} ms, "
          f"{record['failed']}/{record['attempted']} operations failed "
          f"(failed_frac {record['failed'] / record['attempted']:.4g})")
    for metric, entry in record["metrics"].items():
        print(f"  {name:12s} {metric:34s} {entry['value']:>14.6g} {entry['unit']}")
    for check in record["failed_checks"]:
        print(f"  FAILED CHECK: {check}")
    if record["result"].get("absent"):
        print(f"  absent trace targets: {', '.join(record['result']['absent'])}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qns1d" / "__init__.py").is_file():
        print(f"error: no qns1d sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        records = [run_workload(n, args.seed, args.seconds, args.trace, spec)
                   for n in names]
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        _print_table(record)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
