"""Outside-in span tracer for the layer boundaries of qns1d.

Wrappers are installed from the benchmark's own code on the names that
callers resolve at call time (module globals, one class attribute and
numpy.fft), so the program under test carries no tracing code and runs
unchanged when the tracer is not installed. Each wrapped call records one
span: layer and name, start, end, the index of the enclosing span (-1 for a
root), and an optional per-call note with a row count (transform length and
rows, steps taken, cut-off factor). Spans stay in memory, in flat arrays,
until the run ends.

A name that no longer exists is skipped and listed in ``Tracer.absent``;
metrics that depend on it are then reported as absent rather than failing
the run.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

Note = Callable[[tuple, dict, object], tuple[float, int]]  # -> (value, rows)
Span = tuple  # (layer, name, start, end, parent, note, rows), for SpanTable.from_spans


def _fft_in(args, kwargs, result):
    """Transform length and rows of an rfft call, from its input."""
    shape = np.shape(args[0])
    n = kwargs.get("n", args[1] if len(args) > 1 else None)
    return (n if n is not None else shape[-1]), math.prod(shape[:-1])


def _fft_out(args, kwargs, result):
    """Transform length and rows of an irfft call, from its output."""
    shape = result.shape
    return shape[-1], math.prod(shape[:-1])


def _steps_taken(args, kwargs, result):
    return result.n_steps_taken, 1


def _value(args, kwargs, result):
    return result, 1


@dataclass(frozen=True)
class Target:
    module: str
    attr: str  # attribute of the module, or "Class.method"
    layer: str
    note: Note | None = None

    @property
    def label(self) -> str:
        return f"{self.module}.{self.attr}"


TARGETS = (
    Target("qns1d.ensemble", "simulate_path", "integrator", _steps_taken),
    Target("qns1d.integrator", "simulate_path", "integrator", _steps_taken),
    Target("qns1d.integrator", "sample_increment", "noise"),
    Target("qns1d.integrator", "cutoff_phi", "model", _value),
    Target("qns1d.functionals", "compute_record", "functionals"),
    Target("qns1d.noise", "NoiseModel.coefficient_fields", "noise"),
    Target("qns1d.ensemble", "first_hit_times", "ensemble"),
    Target("qns1d.ensemble", "merge_summaries", "ensemble"),
    Target("qns1d.cli", "run_ensemble", "ensemble"),
    Target("qns1d.cli", "write_run_artifacts", "cli"),
    Target("qns1d.cli", "validate_config", "cli"),
    Target("qns1d.suites", "strong_convergence_order", "suites"),
    Target("numpy.fft", "rfft", "spectral", _fft_in),
    Target("numpy.fft", "irfft", "spectral", _fft_out),
)


def _owner(target: Target):
    """(object holding the attribute, attribute name), or (None, name)."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None, target.attr
    *path, name = target.attr.split(".")
    for part in path:
        owner = vars(owner).get(part)
        if owner is None:
            return None, name
    return owner, name


class Tracer:
    """Context manager that installs span-recording wrappers and restores
    the original attributes on exit, also when the traced call raises."""

    def __init__(self, targets: Sequence[Target] = TARGETS):
        self.targets = tuple(targets)
        self.absent: list[str] = []
        self.names: list[tuple[str, str]] = []  # (layer, name) per span code
        self.code = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.note = array("d")  # NaN where a span has no note
        self.rows = array("q")
        self._stack: list[int] = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for target in self.targets:
            owner, name = _owner(target)
            if owner is None or name not in vars(owner):
                self.absent.append(target.label)
                continue
            original = vars(owner)[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(target.layer, name, original, target.note))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _wrap(self, layer: str, name: str, fn: Callable, note: Note | None) -> Callable:
        code = len(self.names)
        self.names.append((layer, name))
        stack, clock = self._stack, time.perf_counter
        starts, ends, notes, rows = self.start, self.end, self.note, self.rows
        add_code, add_start, add_end = self.code.append, starts.append, ends.append
        add_parent, add_note, add_rows = self.parent.append, notes.append, rows.append

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(starts)
            add_code(code)
            add_parent(stack[-1])
            add_start(0.0)
            add_end(0.0)
            add_note(math.nan)
            add_rows(1)
            stack.append(index)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                starts[index] = t0
                ends[index] = t1
                if note is not None and result is not None:
                    notes[index], rows[index] = note(args, kwargs, result)

        return wrapper

    def call(self, layer: str, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span of its own (the benchmark's root spans)."""
        return self._wrap(layer, name, fn, None)(*args, **kwargs)

    def table(self) -> "SpanTable":
        return SpanTable(
            names=list(self.names), code=np.array(self.code), start=np.array(self.start),
            end=np.array(self.end), parent=np.array(self.parent), note=np.array(self.note),
            rows=np.array(self.rows))


@dataclass(frozen=True)
class SpanTable:
    """Recorded spans as columns; ``code`` indexes ``names`` (layer, name)."""

    names: list[tuple[str, str]]
    code: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    note: np.ndarray
    rows: np.ndarray

    @classmethod
    def from_spans(cls, spans: Sequence[Span]) -> "SpanTable":
        """Build a table from (layer, name, start, end, parent[, note[, rows]]) tuples."""
        names = sorted({(s[0], s[1]) for s in spans})
        index = {key: i for i, key in enumerate(names)}
        full = [tuple(s) + (math.nan, 1)[len(s) - 5:] for s in spans]
        return cls(
            names=names,
            code=np.array([index[(s[0], s[1])] for s in full], dtype=np.uint16),
            start=np.array([s[2] for s in full], dtype=float),
            end=np.array([s[3] for s in full], dtype=float),
            parent=np.array([s[4] for s in full], dtype=np.int64),
            note=np.array([s[5] for s in full], dtype=float),
            rows=np.array([s[6] for s in full], dtype=np.int64))

    def __len__(self) -> int:
        return len(self.code)

    def mask(self, layer: str | None = None, name: str | None = None) -> np.ndarray:
        """Spans of the given layer and/or name."""
        codes = [i for i, (lay, nam) in enumerate(self.names)
                 if layer in (None, lay) and name in (None, nam)]
        return np.isin(self.code, codes)

    def write(self, path: Path) -> None:
        """Spans as a compressed numpy archive, one array per column."""
        np.savez_compressed(
            path, layer=np.array([layer for layer, _ in self.names]),
            name=np.array([name for _, name in self.names]), code=self.code,
            start=self.start, end=self.end, parent=self.parent, note=self.note, rows=self.rows)


def self_times(t: SpanTable) -> np.ndarray:
    """Span duration minus the part of its interval that its children cover.

    Children are clipped to their parent's interval. Where a parent's
    children are disjoint (every nested call) their lengths are summed;
    overlapping children are merged first.
    """
    n = len(t)
    child = np.nonzero(t.parent >= 0)[0]
    p = t.parent[child]
    a = np.maximum(t.start[child], t.start[p])
    b = np.minimum(t.end[child], t.end[p])
    keep = b > a
    p, a, b = p[keep], a[keep], b[keep]
    order = np.lexsort((a, p))
    p, a, b = p[order], a[order], b[order]
    overlapping = np.unique(p[1:][(p[1:] == p[:-1]) & (a[1:] < b[:-1])])
    disjoint = ~np.isin(p, overlapping)
    covered = np.bincount(p[disjoint], weights=(b - a)[disjoint], minlength=n)
    for parent in overlapping:
        sel = p == parent
        run_start, run_end = a[sel][0], b[sel][0]
        total = 0.0
        for lo, hi in zip(a[sel][1:], b[sel][1:]):
            if lo > run_end:
                total += run_end - run_start
                run_start, run_end = lo, hi
            else:
                run_end = max(run_end, hi)
        covered[parent] = total + run_end - run_start
    return t.end - t.start - covered


def _under(t: SpanTable, layer: str) -> np.ndarray:
    """True where some ancestor of the span belongs to ``layer``."""
    is_layer = t.mask(layer=layer)
    out = np.zeros(len(t), dtype=bool)
    ancestor = t.parent.copy()
    while True:
        live = ancestor >= 0
        if not live.any():
            return out
        out[live] |= is_layer[ancestor[live]]
        ancestor[live] = t.parent[ancestor[live]]


# metrics that need a wrapped name; reported as absent when it is missing
REQUIRES = {
    "spectral.": ("numpy.fft.rfft", "numpy.fft.irfft"),
    "noise.increment": ("qns1d.integrator.sample_increment",),
    "noise.coefficient_fields_us": ("qns1d.noise.NoiseModel.coefficient_fields",),
    "model.": ("qns1d.integrator.cutoff_phi",),
    "functionals.": ("qns1d.functionals.compute_record",),
    "integrator.": ("qns1d.ensemble.simulate_path", "qns1d.integrator.simulate_path"),
    "ensemble.merge_s": ("qns1d.ensemble.merge_summaries",),
    "cli.validate_s": ("qns1d.cli.validate_config",),
    "cli.artifacts_s": ("qns1d.cli.write_run_artifacts",),
    "suites.": ("qns1d.suites.strong_convergence_order",),
}


def layer_metrics(t: SpanTable, absent: Sequence[str] = ()) -> dict[str, float]:
    """Per-layer counts and times from one traced repetition.

    Per-step spectral figures count only transforms made while stepping: under
    a simulate_path span and not under compute_record, whose transforms belong
    to the functionals layer.
    """
    dur = t.end - t.start
    own = self_times(t)
    total = float(dur[t.parent < 0].sum())

    def count(name: str) -> int:
        return int(t.mask(name=name).sum())

    def time_in(name: str) -> float:
        return float(dur[t.mask(name=name)].sum())

    def mean_us(name: str) -> float:
        calls = count(name)
        return 1e6 * time_in(name) / calls if calls else 0.0

    paths = t.mask(name="simulate_path")
    steps = float(np.nansum(t.note[paths]))
    per_step = 1.0 / steps if steps else 0.0
    fft = t.mask(layer="spectral") & _under(t, "integrator") & ~_under(t, "functionals")
    n, rows = t.note[fft], t.rows[fft]
    fft_flops = float(np.sum(rows * 2.5 * n * np.log2(n)))
    fft_time = float(dur[fft].sum())
    phi = t.mask(name="cutoff_phi")

    metrics = {
        "spectral.fft_calls_per_step": int(fft.sum()) * per_step,
        "spectral.fft_points_per_step": float(np.sum(n * rows)) * per_step,
        "spectral.fft_flops_per_step": fft_flops * per_step,
        "spectral.fft_us_per_step": 1e6 * fft_time * per_step,
        "spectral.fft_gflops": fft_flops / fft_time / 1e9 if fft_time else 0.0,
        "noise.increments": float(count("sample_increment")),
        "noise.increment_us": mean_us("sample_increment"),
        "noise.coefficient_fields_us": mean_us("coefficient_fields"),
        "model.cutoff_phi_calls_per_step": count("cutoff_phi") * per_step,
        "model.cutoff_active_frac": (float(np.mean(t.note[phi] < 1.0)) if phi.any() else 0.0),
        "functionals.records": float(count("compute_record")),
        "functionals.record_ms": 1e-3 * mean_us("compute_record"),
        "integrator.steps": steps,
        "integrator.step_us": 1e6 * (time_in("simulate_path") - time_in("compute_record"))
        * per_step,
        "integrator.self_frac": float(own[t.mask(layer="integrator")].sum()) / total
        if total else 0.0,
        "ensemble.self_s": float(own[t.mask(layer="ensemble")].sum()),
        "ensemble.merge_s": time_in("merge_summaries"),
        "cli.validate_s": time_in("validate_config"),
        "cli.artifacts_s": time_in("write_run_artifacts"),
        "suites.self_s": float(own[t.mask(layer="suites")].sum()),
    }
    missing = set(absent)
    if missing:
        metrics = {name: value for name, value in metrics.items()
                   if not any(name.startswith(prefix) and missing.intersection(labels)
                              for prefix, labels in REQUIRES.items())}
    return metrics
