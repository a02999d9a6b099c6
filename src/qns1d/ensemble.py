"""Monte Carlo orchestration: independent paths, moments, stopping-time sweeps.

Each path gets its own seed lineage derived from (master_seed, path_index),
so paths are independent, embarrassingly parallel, and individually
replayable. ``run_paths`` is the one function that runs paths of an
ensemble: it steps them as one batch, in lockstep, through one
``simulate_path`` call, and every path comes out bit for bit as it would
alone. ``run_ensemble`` gives each worker one contiguous block of paths as
one batch, and the CLI's ``replay`` runs a single path through
``run_paths``, as a batch of one. Each path's monitor records are reduced
once, into its ``PathSummary``, and the merge reads those summaries alone,
keyed by path index, so it is independent of completion order and of how
the paths were split. The record series serve only the per-path CSVs and
``replay``.

A radius sweep replays the same Brownian path for every threshold: since the
cut-off is inactive until the smallest threshold is reached, trajectories for
different radii coincide up to their own stopping times, which can all be
read off one run's per-step norm trace.
"""

from __future__ import annotations

import functools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .functionals import MonitorRecord, VacuumSummary, vacuum_statistics
from .integrator import MonitorSpec, PathResult, StepConfig, first_hit_times, simulate_path
from .model import ModelParams, State
from .noise import NoiseModel, derive_path_seed
from .spectral import TorusGrid

MOMENT_FUNCTIONALS = (
    "mass", "energy", "bd_entropy", "energy_dissipation_rate",
    "hs_psi", "hs_u", "w2inf_psi", "w2inf_u",
)

VALID_MOMENT_ORDERS = (1, 2, 3, 4)


class EnsembleConfigError(ValueError):
    pass


@dataclass(frozen=True)
class EnsembleConfig:
    n_paths: int
    master_seed: int
    moment_orders: tuple[int, ...] = (1, 2)
    r_sweep: tuple[float, ...] | None = None
    output_stride: int = 1

    def __post_init__(self) -> None:
        if self.n_paths < 1:
            raise EnsembleConfigError("n_paths must be at least 1")
        if self.master_seed < 0:
            # SeedSequence takes no negative entropy
            raise EnsembleConfigError("master_seed must be nonnegative")
        if any(p not in VALID_MOMENT_ORDERS for p in self.moment_orders):
            raise EnsembleConfigError(f"moment orders must lie in {VALID_MOMENT_ORDERS}")
        if self.output_stride < 1:
            raise EnsembleConfigError("output_stride must be positive")
        if self.r_sweep is not None:
            if len(self.r_sweep) == 0 or any(r <= 0 for r in self.r_sweep):
                raise EnsembleConfigError("r_sweep radii must be positive")
            object.__setattr__(self, "r_sweep", tuple(sorted(self.r_sweep)))


@dataclass(frozen=True)
class PathSummary:
    """Order-independent reduction payload for one path."""

    path_index: int
    path_seed: int
    event_kind: str
    event_time: float
    sup_values: dict[str, float]
    min_rho: float  # over the path's records; NaN without records
    mass_drift: float  # max |mass - mass_0| / mass_0 over the records; 0.0 without
    hit_times: tuple[float | None, ...]


@dataclass(frozen=True)
class StoppingRow:
    radius: float
    fraction: float
    mean_stopping_time: float | None
    n_stopped: int
    n_paths: int


@dataclass(frozen=True)
class MomentEstimate:
    value: float
    stderr: float | None


@dataclass(frozen=True)
class EnsembleSummary:
    n_paths: int
    master_seed: int
    moments: dict[str, dict[int, MomentEstimate]]
    stopping: tuple[StoppingRow, ...]
    blowup_fraction: float
    vacuum: VacuumSummary | None
    max_rel_mass_drift: float
    degenerate: bool
    path_events: tuple[tuple[int, int, str, float], ...]  # (index, seed, kind, time)


def _sup_values(records: Sequence[MonitorRecord]) -> dict[str, float]:
    if not records:  # the initial state already failed the state check
        return dict.fromkeys(MOMENT_FUNCTIONALS, float("nan"))
    return {
        "mass": max(r.mass for r in records),
        "energy": max(r.energy for r in records),
        "bd_entropy": max(r.bd_entropy for r in records),
        "energy_dissipation_rate": max(r.energy_dissipation_rate for r in records),
        "hs_psi": max(r.hs_norms[0] for r in records),
        "hs_u": max(r.hs_norms[1] for r in records),
        "w2inf_psi": max(r.w2inf_norms[0] for r in records),
        "w2inf_u": max(r.w2inf_norms[1] for r in records),
    }


def jackknife_moment(values: np.ndarray, order: int) -> MomentEstimate:
    """Sample mean of values**order with leave-one-out (jackknife) stderr."""
    powered = np.asarray(values, dtype=float) ** order
    n = powered.shape[0]
    est = float(np.mean(powered))
    if n < 2:
        return MomentEstimate(value=est, stderr=None)
    total = np.sum(powered)
    loo = (total - powered) / (n - 1)
    se = float(np.sqrt((n - 1) / n * np.sum((loo - np.mean(loo)) ** 2)))
    return MomentEstimate(value=est, stderr=se)


def _path_summary(cfg: EnsembleConfig, index: int, seed: int,
                  result: PathResult) -> PathSummary:
    """The reduction payload of path ``index``, with its sweep's hit times."""
    records = result.records
    m0 = records[0].mass if records else None
    return PathSummary(
        path_index=index,
        path_seed=seed,
        event_kind=result.event.kind,
        event_time=result.event.time,
        sup_values=_sup_values(records),
        min_rho=min((r.min_rho for r in records), default=float("nan")),
        mass_drift=max(abs(r.mass - m0) for r in records) / m0 if records else 0.0,
        hit_times=tuple(first_hit_times(result, cfg.r_sweep)) if cfg.r_sweep else (),
    )


def run_paths(cfg: EnsembleConfig, indices: Sequence[int], initials: Sequence[State],
              step_cfg: StepConfig, params: ModelParams, noise: NoiseModel,
              grid: TorusGrid) -> list[tuple[PathSummary, list[MonitorRecord]]]:
    """Run paths ``indices`` of the ensemble ``cfg`` from ``initials`` as one batch.

    One ``simulate_path`` call steps them in lockstep; each path comes out
    bit for bit as it would alone. A path's seed comes from (master_seed,
    index). With a radius sweep configured, the paths run with cut-off
    radius max(r_sweep) and every threshold's hit time is read off their
    norm traces, which resolve every radius of the sweep. Returns each
    path's summary and monitor records, in the order of ``indices``.
    """
    seeds = [derive_path_seed(cfg.master_seed, i) for i in indices]
    if cfg.r_sweep:
        params = replace(params, cutoff_radius=max(cfg.r_sweep))
    results = simulate_path(list(initials), step_cfg, params, noise, seeds, grid,
                            MonitorSpec(stride=cfg.output_stride, radii=cfg.r_sweep or ()))
    return [(_path_summary(cfg, i, seed, r), r.records)
            for i, seed, r in zip(indices, seeds, results)]


def run_ensemble(cfg: EnsembleConfig, initial_factory: Callable[[int, int], State],
                 step_cfg: StepConfig, params: ModelParams, noise: NoiseModel,
                 grid: TorusGrid, n_workers: int = 1,
                 ) -> tuple[EnsembleSummary, list[list[MonitorRecord]]]:
    """Run n_paths independent trajectories through ``run_paths`` and merge them.

    ``initial_factory`` maps (path_index, path_seed) to the path's initial
    State. The initial states are built here, in the parent process: a
    factory may be a closure, which cannot be pickled.
    The paths are split into n_workers contiguous blocks, and each worker
    runs its block as one batch. Every path is bit-identical however the
    paths are split, so the result does not depend on n_workers. Returns the
    merged summary and every path's monitor records.
    """
    if n_workers < 1:
        raise EnsembleConfigError("n_workers must be at least 1")
    indices = list(range(cfg.n_paths))
    states = [initial_factory(i, derive_path_seed(cfg.master_seed, i)) for i in indices]
    run = functools.partial(run_paths, cfg, step_cfg=step_cfg, params=params,
                            noise=noise, grid=grid)
    blocks = [block.tolist() for block in np.array_split(indices, n_workers)
              if block.size]
    if len(blocks) > 1:
        with ProcessPoolExecutor(max_workers=len(blocks)) as pool:
            parts = list(pool.map(run, blocks, [[states[i] for i in b] for b in blocks]))
    else:
        parts = [run(indices, states)]

    outputs = [o for part in parts for o in part]
    return (merge_summaries([o[0] for o in outputs], cfg, params),
            [o[1] for o in outputs])


def merge_summaries(summaries: Sequence[PathSummary], cfg: EnsembleConfig,
                    params: ModelParams) -> EnsembleSummary:
    """Associative, order-independent reduction of per-path summaries."""
    ordered = sorted(summaries, key=lambda s: s.path_index)
    n = len(ordered)
    blowups = sum(1 for s in ordered if s.event_kind == "numerical_blowup")

    moments: dict[str, dict[int, MomentEstimate]] = {}
    usable = [s for s in ordered if s.event_kind != "numerical_blowup"]
    for name in MOMENT_FUNCTIONALS:
        vals = np.array([s.sup_values[name] for s in usable]) if usable else np.array([])
        moments[name] = {
            p: (jackknife_moment(vals, p) if vals.size else MomentEstimate(np.nan, None))
            for p in cfg.moment_orders
        }

    stopping = []
    for col, r in enumerate(cfg.r_sweep or ()):
        hits = [s.hit_times[col] for s in ordered]
        stopped = [t for t in hits if t is not None]
        stopping.append(StoppingRow(
            radius=float(r),
            fraction=len(stopped) / n,
            mean_stopping_time=(float(np.mean(stopped)) if stopped else None),
            n_stopped=len(stopped),
            n_paths=n,
        ))

    minima = [s.min_rho for s in ordered if not np.isnan(s.min_rho)]
    vacuum = vacuum_statistics(minima, params.global_regularity_regime) if minima else None

    return EnsembleSummary(
        n_paths=n,
        master_seed=cfg.master_seed,
        moments=moments,
        stopping=tuple(stopping),
        blowup_fraction=blowups / n,
        vacuum=vacuum,
        max_rel_mass_drift=max(s.mass_drift for s in ordered),
        degenerate=(blowups == n),
        path_events=tuple((s.path_index, s.path_seed, s.event_kind, s.event_time)
                          for s in ordered),
    )
