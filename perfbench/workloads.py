"""The three benchmark workloads: generated inputs, step counts and output checks.

Everything here works on plain dicts and the JSON files qns1d writes, and
imports nothing from qns1d, so the orchestrator can use it without paying
the program's import cost. The code that calls into qns1d lives in child.py.

Each workload is generated from the benchmark's ``--seed``, which becomes
the program's ``master_seed``; the program receives only the generated
config. Horizons and path counts are shortened from the shipped values so
that one repetition takes a few seconds. Every workload runs in a single
process (``--workers 1``): a process pool on a host with few cores times
the scheduler, not the program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DEFAULT_SEED = 20240501

# Relative mass drift bound for the quickstart horizon. The trapezoidal
# transport corrector makes the drift O(dt^2); at dt = 2e-4 over 200 steps
# it measured about 4e-9, and about 2e-6 with the corrector removed.
MASS_DRIFT_BOUND = 1e-7

# criterion 10's vacuum gate: min rho >= 0.1 * initial min rho (0.9)
MIN_RHO_FLOOR = 0.09

# suite_convergence levels: t_end * 2**-k for k = 8..12 on a horizon of 0.25,
# every path stepped at each level
CONVERGENCE_STEPS_PER_PATH = sum(2**k for k in range(8, 13))

# Strong orders gated on every seed. The additive estimate is not: over the
# error curves of 17 sampled paths, the mean of 2 paths fell below its 0.8
# floor for 41% of the pairs (a 16-path bootstrap for about 16% of draws),
# so at this path count it is a property of the sample, not of the program.
# It is gated, and compared with the stored reference, on the default seed.
GATED_ORDERS = ("strong-order-deterministic", "strong-order-multiplicative")


@dataclass(frozen=True)
class Workload:
    name: str
    n_paths: int
    t_end: float | None = None  # shortened horizon (CLI workloads)

    @property
    def command(self) -> str | None:
        return {"quickstart": "simulate", "sweep_r": "sweep-r"}.get(self.name)


# Why each workload was chosen is recorded in BENCHMARK.json ("workloads").
WORKLOADS = {
    w.name: w for w in (
        # n=256: FFT arithmetic dominates; the only per-path CSV writer
        Workload("quickstart", n_paths=16, t_end=0.04),
        # n=64, 64 paths, strong noise: per-call overhead and the stopping read-off
        Workload("sweep_r", n_paths=64, t_end=0.05),
        # n=32, no monitors or I/O: stepper overhead alone
        Workload("convergence", n_paths=2),
    )
}


def cli_config(workload: Workload, seed: int, t_end: float | None = None,
               n_paths: int | None = None) -> dict:
    """Generated config for a CLI workload; t_end and n_paths shrink it for tests."""
    t_end = workload.t_end if t_end is None else t_end
    n_paths = workload.n_paths if n_paths is None else n_paths
    initial = {"kind": "harmonic_perturbation", "rho0": 1.0, "eps": 0.1, "modes": [1],
               "velocity_eps": 0.1, "velocity_modes": [1]}
    if workload.name == "quickstart":
        # configs/quickstart.json with a shorter horizon
        return {
            "grid": {"n_collocation": 256, "m_modes": 85, "dealias": True},
            "model": {"gamma": 1.5, "alpha": 0.5, "cutoff_radius": 200.0,
                      "monitor_order": 4, "initial_condition": initial},
            "noise": {"k_modes": 16, "base_amplitude": 0.02, "amplitude_decay": 6.0,
                      "shape": "trig_density_weighted"},
            "integration": {"dt": 0.0002, "t_end": t_end, "scheme": "imex_cn"},
            "ensemble": {"n_paths": n_paths, "master_seed": seed,
                         "moment_orders": [1, 2], "output_stride": 25},
            "output": {"directory": "runs/quickstart", "per_path_csv": True},
        }
    if workload.name == "sweep_r":
        # the criterion-10 config of tests/test_acceptance.py with a shorter horizon
        return {
            "grid": {"n_collocation": 64, "m_modes": 21, "dealias": True},
            "model": {"gamma": 1.5, "alpha": 0.5, "cutoff_radius": 300.0,
                      "monitor_order": 4, "initial_condition": initial},
            "noise": {"k_modes": 16, "base_amplitude": 0.2, "amplitude_decay": 3.0,
                      "shape": "trig_density_weighted"},
            "integration": {"dt": 5e-4, "t_end": t_end, "scheme": "imex_cn"},
            "ensemble": {"n_paths": n_paths, "master_seed": seed, "moment_orders": [1, 2],
                         "r_sweep": [6.0, 9.0, 300.0], "output_stride": 10},
            "output": {"directory": "runs/sweep_r", "per_path_csv": False},
        }
    raise KeyError(f"{workload.name} is not a CLI workload")


def path_steps(config: dict, manifest: dict) -> int:
    """Steps taken by every path, read off the event times in the seed manifest."""
    integration = config["integration"]
    n_steps = max(1, round(integration["t_end"] / integration["dt"]))
    dt = integration["t_end"] / n_steps
    return sum(round(p["event_time"] / dt) for p in manifest["paths"])


def convergence_paths(n_paths: int) -> int:
    """Paths suite_convergence runs: one deterministic, n_paths per noisy mode."""
    return 1 + 2 * n_paths


def summary_checks(workload: Workload, exit_code: int, summary: dict) -> list[tuple[str, bool]]:
    """Invariant checks on one CLI run; they hold on every seed."""
    checks = [("exit_code_0", exit_code == 0)]
    if workload.name == "quickstart":
        checks.append(("mass_drift_below_bound",
                       summary["max_rel_mass_drift"] < MASS_DRIFT_BOUND))
    else:
        fractions = [row["fraction"] for row in
                     sorted(summary["stopping"], key=lambda row: row["radius"])]
        checks += [
            ("no_blowup", summary["blowup_fraction"] == 0.0),
            ("stopping_fraction_non_increasing_in_R",
             all(b <= a for a, b in zip(fractions, fractions[1:]))),
            ("vacuum_min_rho_floor", summary["vacuum"]["min_rho"] >= MIN_RHO_FLOOR),
        ]
    return checks


def reference_values(summary: dict) -> dict:
    """The part of a run's output that must match the stored reference."""
    return {k: v for k, v in summary.items() if k != "wall_time_s"}


def matches(actual, expected, rel_tol: float, abs_tol: float) -> bool:
    """Structural equality with numbers compared to a relative tolerance."""
    if isinstance(expected, dict):
        return (isinstance(actual, dict) and actual.keys() == expected.keys()
                and all(matches(actual[k], expected[k], rel_tol, abs_tol) for k in expected))
    if isinstance(expected, list):
        return (isinstance(actual, list) and len(actual) == len(expected)
                and all(matches(a, e, rel_tol, abs_tol) for a, e in zip(actual, expected)))
    if isinstance(expected, float) and not isinstance(actual, bool) \
            and isinstance(actual, (int, float)):
        if math.isnan(expected):
            return math.isnan(actual)
        return abs(actual - expected) <= rel_tol * abs(expected) + abs_tol
    return actual == expected
