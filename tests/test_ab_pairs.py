"""tools/ab_pairs.py: its statistics on fixed samples, and its alternation
between two checkouts whose perfbench/run.py is a stub."""

import importlib.util
import json
import sys
import textwrap
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs", TOOLS / "ab_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab_pairs = load_ab_pairs()


def test_summary_of_fixed_samples():
    parent = [1.0, 1.2, 1.1, 1.3, 1.0]
    change = [0.9, 1.0, 1.0, 1.0, 1.1]
    lower = ab_pairs.summarize(parent, change, "lower")
    assert lower["parent"] == {"median": 1.1, "q1": 1.0, "q3": 1.2}
    assert lower["change"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
    assert lower["change_pct"] == pytest.approx(-100.0 / 11.0)
    assert lower["change_better"] == 4 and lower["pairs"] == 5
    assert lower["gain"] == pytest.approx(0.1) and lower["parent_iqr"] == pytest.approx(0.2)
    assert not lower["gain_over_parent_iqr"]
    higher = ab_pairs.summarize(parent, change, "higher")
    assert higher["change_better"] == 1 and higher["gain"] == pytest.approx(-0.1)
    assert not higher["gain_over_parent_iqr"]
    # a tie is no win; a gain beyond the parent's spread is flagged
    clear = ab_pairs.summarize([2.0, 2.1, 2.0, 2.1], [1.0, 1.1, 1.0, 2.1], "lower")
    assert clear["change_better"] == 3
    assert clear["parent_iqr"] == pytest.approx(0.1) and clear["gain_over_parent_iqr"]
    one = ab_pairs.summarize([3.0], [2.0], "lower")
    assert one["parent"] == {"median": 3.0, "q1": 3.0, "q3": 3.0} and one["gain_over_parent_iqr"]
    with pytest.raises(ValueError):
        ab_pairs.summarize([1.0, 2.0], [1.0], "lower")


def test_last_json_line():
    assert ab_pairs.last_json('table\n{"correct": true}\n\n') == {"correct": True}
    assert ab_pairs.last_json("table\nerror: no result\n") is None
    assert ab_pairs.last_json("") is None
    assert ab_pairs.last_json("[1, 2]") is None


STUB = textwrap.dedent('''\
    import json, pathlib, sys
    here = pathlib.Path(__file__).resolve().parents[1]
    log = here.parent / "order.log"
    with log.open("a") as f:
        f.write(here.name + "\\n")
    runs = len(log.read_text().splitlines())
    if (here / "fail").exists():
        print("error: child failed", file=sys.stderr)
        sys.exit(1)
    value = {"parent": 2.0, "change": 1.0}[here.name] + 0.01 * runs
    print("a table line")
    print(json.dumps({"correct": True, "metrics": {
        "run_s": {"value": value, "unit": "s"}, "ok_frac": {"value": 1.0, "unit": "1"}}}))
''')


def make_checkouts(tmp_path):
    for name in ("parent", "change"):
        (tmp_path / name / "perfbench").mkdir(parents=True)
        (tmp_path / name / "perfbench" / "run.py").write_text(STUB)
        (tmp_path / name / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
            {"name": "run_s", "better": "lower"}, {"name": "ok_frac", "better": "higher"}]}))
    return tmp_path / "parent", tmp_path / "change"


def test_runs_alternate_and_last_line_is_json(tmp_path, capsys):
    parent, change = make_checkouts(tmp_path)
    code = ab_pairs.main([str(parent), str(change), "--workload", "quickstart", "--pairs", "3"])
    assert code == 0
    order = (tmp_path / "order.log").read_text().split()
    assert order == ["parent", "change", "change", "parent", "parent", "change"]
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["workload"] == "quickstart" and result["failed_runs"] == []
    run_s = result["metrics"]["run_s"]
    assert run_s["change_better"] == 3 and run_s["gain_over_parent_iqr"]
    assert run_s["parent"]["median"] == pytest.approx(2.04)
    assert result["metrics"]["ok_frac"]["change_better"] == 0


def test_failed_run_is_reported_and_exits_1(tmp_path, capsys):
    parent, change = make_checkouts(tmp_path)
    (change / "fail").touch()
    code = ab_pairs.main([str(parent), str(change), "--workload", "sweep_r", "--pairs", "2"])
    assert code == 1
    captured = capsys.readouterr()
    assert "change run failed" in captured.err and "error: child failed" in captured.err
    result = json.loads(captured.out.splitlines()[-1])
    assert result["failed_runs"] == [{"pair": 1, "side": "change"}, {"pair": 2, "side": "change"}]
    assert result["metrics"] == {}
