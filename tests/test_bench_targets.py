"""Every call site the benchmark's layer tracer wraps must exist in qns1d.

The tracer skips a name it cannot resolve and reports the metrics built on
it as absent, so a rename in ``src/`` would otherwise only thin out the
per-layer benchmark report. Here the rename fails the test suite instead.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracer import TARGETS, _owner  # noqa: E402


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: t.label)
def test_trace_target_resolves(target):
    owner, name = _owner(target)
    assert owner is not None and name in vars(owner), f"{target.label} does not resolve"
