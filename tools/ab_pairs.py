"""Alternating A/B runs of perfbench between two checkouts.

Run from anywhere:

    python3 tools/ab_pairs.py PARENT CHANGE --workload W --pairs N [--seed S]

PARENT and CHANGE are two checkouts of the repository. Each pair runs
``perfbench/run.py --workload W --trace 0``, for perfbench's own run
length, once in each checkout, the parent first in odd pairs and the
change first in even pairs, so that a drift in host speed falls on both
sides alike. For every end-to-end metric
the tool prints the median and quartiles of each side, the change in
percent, the number of pairs in which the change is better, and whether
the change's median is better than the parent's by more than the parent's
interquartile range. The direction of "better" comes from the change's
BENCHMARK.json. A run that exits non-zero or prints no result is reported
with the tail of its output; its pair counts for no metric, and the tool
exits 1.

The last line of standard output is one JSON object with the keys
``workload``, ``seed``, ``pairs``, ``failed_runs`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), linearly interpolated."""
    if len(samples) == 1:
        return samples[0], samples[0], samples[0]
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Compare paired samples of one metric; ``better`` is "lower" or "higher".

    ``gain`` is the median's improvement, positive when the change is better,
    and ``gain_over_parent_iqr`` tells whether it exceeds the parent's
    interquartile range.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("summarize needs one change sample per parent sample")
    sign = 1.0 if better == "lower" else -1.0
    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)
    gain = sign * (p_med - c_med)
    return {
        "better": better,
        "parent": {"median": p_med, "q1": p1, "q3": p3},
        "change": {"median": c_med, "q1": c1, "q3": c3},
        "change_pct": 100.0 * (c_med - p_med) / p_med if p_med else None,
        "change_better": sum(sign * (p - c) > 0 for p, c in zip(parent, change)),
        "pairs": len(parent),
        "gain": gain,
        "parent_iqr": p3 - p1,
        "gain_over_parent_iqr": gain > p3 - p1,
    }


def last_json(stdout: str) -> dict | None:
    """The JSON object on the last non-empty line of a run's output, if any."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def run_once(checkout: Path, workload: str, seed: int | None) -> tuple[dict | None, str]:
    """One perfbench run in ``checkout``: its result and its combined output."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "0"]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    result = last_json(proc.stdout)
    output = proc.stdout + proc.stderr
    if proc.returncode != 0 or result is None or not result.get("correct"):
        return None, output
    return result, output


def directions(checkout: Path) -> dict[str, str]:
    """Each end-to-end metric's better direction, from BENCHMARK.json."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return {m["name"]: m.get("better", "lower") for m in spec["end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    better = directions(sides["change"])
    samples: dict[str, dict[str, list[float]]] = {"parent": {}, "change": {}}
    failed = []
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        results = {}
        for side in order:
            result, output = run_once(sides[side], args.workload, args.seed)
            if result is None:
                failed.append({"pair": pair, "side": side})
                tail = "\n".join(output.splitlines()[-20:])
                print(f"pair {pair}: {side} run failed\n{tail}", file=sys.stderr)
            results[side] = result
        if None in results.values():
            continue
        for side in ("parent", "change"):
            for name, entry in results[side]["metrics"].items():
                samples[side].setdefault(name, []).append(entry["value"])
        print(f"pair {pair} ({order[0]} first): run_s {samples['parent']['run_s'][-1]:.4g} -> "
              f"{samples['change']['run_s'][-1]:.4g}", flush=True)

    metrics = {}
    for name, parent in samples["parent"].items():
        change = samples["change"].get(name, [])
        if name not in better or len(change) != len(parent):
            continue
        metrics[name] = summary = summarize(parent, change, better[name])
        p, c = summary["parent"], summary["change"]
        pct = summary["change_pct"]
        print(f"{args.workload} {name}: {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}] -> "
              f"{c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]"
              f" ({'n/a' if pct is None else f'{pct:+.1f}%'}), change better in "
              f"{summary['change_better']} of {summary['pairs']}, gain "
              f"{'exceeds' if summary['gain_over_parent_iqr'] else 'within'} the parent's IQR")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "pairs": args.pairs,
                      "failed_runs": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
