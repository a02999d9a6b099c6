"""Tests of the benchmark harness itself.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import child, workloads
from perfbench.tracer import TARGETS, SpanTable, Target, Tracer, layer_metrics, self_times

ROOT = Path(__file__).resolve().parents[2]
TINY = {"t_end": 0.002, "n_paths": 2}  # 10 steps per path

COUNTS = ("spectral.fft_calls_per_step", "spectral.fft_points_per_step",
          "spectral.fft_flops_per_step", "integrator.steps", "noise.increments",
          "model.cutoff_phi_calls_per_step", "functionals.records")


def span(layer, name, t0, t1, parent, note=float("nan"), rows=1):
    return (layer, name, float(t0), float(t1), parent, note, rows)


def test_self_time_subtracts_union_of_children():
    spans = [
        span("cli", "main", 0, 10, -1),
        span("integrator", "simulate_path", 1, 4, 0),
        span("ensemble", "merge_summaries", 3, 6, 0),   # overlaps its sibling
        span("spectral", "rfft", 2, 3, 1),
        span("spectral", "irfft", 9, 12, 0),            # runs past its parent
    ]
    assert self_times(SpanTable.from_spans(spans)) == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3])


def test_layer_metrics_on_synthetic_tree():
    spans = [
        span("cli", "main", 0, 100, -1),
        span("integrator", "simulate_path", 10, 90, 0, 4),
        span("spectral", "irfft", 11, 13, 1, 8, 1),
        span("spectral", "rfft", 14, 15, 1, 8, 2),
        span("model", "cutoff_phi", 16, 17, 1, 1.0),
        span("model", "cutoff_phi", 18, 19, 1, 0.5),
        span("functionals", "compute_record", 20, 40, 1),
        span("spectral", "irfft", 21, 29, 6, 16, 1),  # under a record
        span("noise", "sample_increment", 50, 54, 1),
    ]
    m = layer_metrics(SpanTable.from_spans(spans))
    assert m["integrator.steps"] == 4
    assert m["spectral.fft_calls_per_step"] == 2 / 4
    assert m["spectral.fft_points_per_step"] == (8 + 16) / 4
    assert m["spectral.fft_flops_per_step"] == pytest.approx(3 * 2.5 * 8 * 3 / 4)
    assert m["spectral.fft_us_per_step"] == pytest.approx(1e6 * 3 / 4)
    assert m["model.cutoff_phi_calls_per_step"] == 2 / 4
    assert m["model.cutoff_active_frac"] == 0.5
    assert m["functionals.records"] == 1
    assert m["functionals.record_ms"] == pytest.approx(20e3)
    assert m["noise.increment_us"] == pytest.approx(4e6)
    # simulate_path minus the record, per step
    assert m["integrator.step_us"] == pytest.approx(1e6 * (80 - 20) / 4)
    # 80 minus children 2 + 1 + 1 + 1 + 20 + 4
    assert m["integrator.self_frac"] == pytest.approx((80 - 29) / 100)


def _attributes(targets):
    out = []
    for t in targets:
        owner = importlib.import_module(t.module)
        *path, name = t.attr.split(".")
        for part in path:
            owner = vars(owner)[part]
        out.append(vars(owner).get(name))
    return out


def test_wrappers_restore_original_attributes():
    before = _attributes(TARGETS)
    with pytest.raises(ZeroDivisionError):
        with Tracer() as tracer:
            during = _attributes(TARGETS)
            import numpy as np
            np.fft.irfft(np.fft.rfft(np.ones(8)), n=8)
            1 / 0
    assert all(b is not d for b, d in zip(before, during))
    assert all(b is a for b, a in zip(before, _attributes(TARGETS)))
    table = tracer.table()
    assert [table.names[c][1] for c in table.code] == ["rfft", "irfft"]
    assert list(table.note) == [8, 8]
    assert not tracer.absent


def test_missing_target_is_reported_absent():
    import qns1d.integrator as integrator
    missing = Target("qns1d.integrator", "renamed_away", "integrator")
    with Tracer(TARGETS + (missing,)) as tracer:
        pass
    assert tracer.absent == ["qns1d.integrator.renamed_away"]
    assert "renamed_away" not in vars(integrator)
    metrics = layer_metrics(SpanTable.from_spans([]), ["qns1d.integrator.cutoff_phi"])
    assert "model.cutoff_active_frac" not in metrics
    assert "integrator.steps" in metrics


@pytest.mark.parametrize("name", ["quickstart", "sweep_r"])
def test_tracing_leaves_summary_unchanged(name, tmp_path, monkeypatch):
    monkeypatch.setenv("QNS1D_OUTPUT_ROOT", str(tmp_path))
    workload = workloads.WORKLOADS[name]
    for run in ("plain", "traced"):
        (tmp_path / run).mkdir()
    plain = child.run_rep(workload, 11, tmp_path / "plain", **TINY)
    with Tracer() as tracer:
        traced = child.run_rep(workload, 11, tmp_path / "traced", tracer, **TINY)
    files = [json.loads((tmp_path / run / "runs" / name / "summary.json").read_text())
             for run in ("plain", "traced")]
    for doc in files:
        doc.pop("wall_time_s", None)
    assert files[0] == files[1]
    assert plain.output == traced.output
    assert all(passed for _, passed in plain.checks + traced.checks)
    assert layer_metrics(tracer.table())["integrator.steps"] == traced.steps


def test_count_metrics_repeat_across_traced_runs(tmp_path, monkeypatch):
    monkeypatch.setenv("QNS1D_OUTPUT_ROOT", str(tmp_path))
    workload = workloads.WORKLOADS["quickstart"]
    counts = []
    for run in ("a", "b"):
        (tmp_path / run).mkdir()
        with Tracer() as tracer:
            child.run_rep(workload, 5, tmp_path / run, tracer, **TINY)
        metrics = layer_metrics(tracer.table())
        counts.append({k: metrics[k] for k in COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["integrator.steps"] == 2 * 10


def test_reference_comparison_tolerance():
    ref = {"a": [1.0, {"b": 2.0}], "n": 3, "nan": float("nan")}
    assert workloads.matches({"a": [1.0 + 1e-9, {"b": 2.0}], "n": 3, "nan": float("nan")},
                             ref, 1e-6, 0.0)
    assert not workloads.matches({"a": [1.1, {"b": 2.0}], "n": 3, "nan": float("nan")},
                                 ref, 1e-6, 0.0)
    assert not workloads.matches({"a": [1.0], "n": 3, "nan": float("nan")}, ref, 1e-6, 0.0)


def test_benchmark_fails_without_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quickstart", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
