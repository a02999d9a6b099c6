"""The benchmark's hold on qns1d, checked in the test suite.

Every call site the benchmark's layer tracer wraps must exist in qns1d. The
tracer skips a name it cannot resolve and reports the metrics built on it as
absent, so a rename in ``src/`` would otherwise only thin out the per-layer
benchmark report. Here the rename fails the test suite instead.

Every workload must also pass its checks and match ``perfbench/reference.json``
at the default seed, as a benchmark run requires. A change that moves an
output there fails here, before it fails the benchmark.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import child  # noqa: E402
from perfbench.tracer import TARGETS, _owner  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402
from qns1d import cli  # noqa: E402


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: t.label)
def test_trace_target_resolves(target):
    owner, name = _owner(target)
    assert owner is not None and name in vars(owner), f"{target.label} does not resolve"


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_default_seed_matches_reference(name, tmp_path, monkeypatch):
    # run_cli sets the output root in os.environ itself; setting it here
    # first restores the old value afterwards
    monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
    rep = child.run_rep(WORKLOADS[name], DEFAULT_SEED, tmp_path)
    assert [check for check, ok in rep.checks if not ok] == []
    assert child.reference_check(name, rep.output, ROOT) == ("matches_reference", True)
