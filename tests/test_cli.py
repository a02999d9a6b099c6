import copy
import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from jsonschema import Draft202012Validator

import qns1d.cli
import qns1d.ensemble
import qns1d.integrator
from qns1d.cli import (
    ConfigValidationError,
    EXIT_BLOWUP_DOMINATED,
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    main,
    validate_config,
)
from qns1d.functionals import MonitorRecord

SCHEMA = Path(qns1d.cli.__file__).with_name("config.schema.json")


def base_config(out_dir: str, **overrides) -> dict:
    cfg = {
        "grid": {"n_collocation": 64, "m_modes": 21, "dealias": True},
        "model": {
            "gamma": 1.5, "alpha": 0.5, "cutoff_radius": 200.0,
            "monitor_order": 4,
            "initial_condition": {
                "kind": "harmonic_perturbation", "rho0": 1.0, "eps": 0.1,
                "modes": [1], "velocity_eps": 0.1, "velocity_modes": [1],
            },
        },
        "noise": {"k_modes": 8, "base_amplitude": 0.0, "amplitude_decay": 6.0,
                   "shape": "trig_density_weighted"},
        "integration": {"dt": 1e-3, "t_end": 0.02, "scheme": "imex_cn"},
        "ensemble": {"n_paths": 2, "master_seed": 11, "moment_orders": [1, 2],
                      "output_stride": 5},
        "output": {"directory": out_dir, "per_path_csv": True},
    }
    for dotted, value in overrides.items():
        node = cfg
        *parents, leaf = dotted.split(".")
        for p in parents:
            node = node[p]
        node[leaf] = value
    return cfg


def write_config(tmp_path: Path, cfg: dict, name: str = "run.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


# The differential test's inputs: a valid config, each node of the schema and an
# unknown key in each object as the places to mutate, and what to put there.
DIFF_BASE = base_config("runs/diff", **{"ensemble.r_sweep": [6.0, 9.0, 100.0]})
DELETE = object()
DIFF_VALUES = [DELETE, None, True, False, 0, 1, -1, 3, 0.0, 0.5, 1.5, -0.5, 64.0, 1e9, "",
               "x", "imex_cn", "off", "file", "constant", [], [0], [1], [2, 1], [1.5], [3.0],
               ["1"], [True], {}, {"kind": "constant"}]


def _schema_targets(spec: dict, prefix: str = "") -> list[str]:
    targets = [prefix + "extra"]
    for key, prop in spec.get("properties", {}).items():
        targets += [prefix + key] + _schema_targets(prop, prefix + key + ".")
    return targets


DIFF_TARGETS = _schema_targets(json.loads(SCHEMA.read_text()))
SCHEMA_VALIDATOR = Draft202012Validator(json.loads(SCHEMA.read_text()))
# the rules the schema cannot state: besides an integral float in an integer
# field, the only reasons validation may reject a config the schema accepts
DOMAIN_CHECKS = (
    "grid: ",  # TorusGrid: even n_collocation, m_modes <= n_collocation/2, the 2/3 rule
    "integration: dt must not exceed t_end",
    "model.initial_condition: ",  # eps against rho0, modes <= m_modes, each kind's fields
    "ensemble.r_sweep: largest radius exceeds model.cutoff_radius",
    "output.directory: must be a non-empty string",
)
INTEGRAL_FLOAT = re.compile(r": must be an integer, got -?\d+\.0$")


class TestValidation:
    def test_aggregated_report(self, tmp_path):
        cfg = base_config(str(tmp_path / "out"),
                          **{"grid.m_modes": 40, "model.gamma": 0.5})
        with pytest.raises(ConfigValidationError) as err:
            validate_config(cfg)
        text = str(err.value)
        assert "grid" in text and "model" in text

    def test_invalid_config_exits_2_and_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QNS1D_OUTPUT_ROOT", str(tmp_path))
        out = tmp_path / "should_not_exist"
        cfg = base_config(str(out), **{"grid.m_modes": 40})
        path = write_config(tmp_path, cfg)
        assert main(["simulate", str(path)]) == EXIT_CONFIG_ERROR
        assert not out.exists()

    @pytest.mark.parametrize("content", ["{ not json", b"\xff\xfe{}", None],
                             ids=["bad_json", "not_utf8", "directory"])
    def test_unreadable_config(self, tmp_path, capsys, content):
        bad = tmp_path / "broken.json"
        if content is None:
            bad.mkdir()
        elif isinstance(content, bytes):
            bad.write_bytes(content)
        else:
            bad.write_text(content)
        with pytest.raises(ConfigValidationError):
            qns1d.cli.load_config(bad)
        assert main(["simulate", str(bad)]) == EXIT_CONFIG_ERROR
        assert "invalid configuration" in capsys.readouterr().err

    def test_ic_eps_bound(self, tmp_path):
        cfg = base_config(str(tmp_path), **{"model.initial_condition.eps": 1.5})
        with pytest.raises(ConfigValidationError):
            validate_config(cfg)

    @pytest.mark.parametrize("top", [[1, 2], None], ids=["list", "null"])
    def test_top_level_not_an_object_exits_2(self, tmp_path, top):
        with pytest.raises(ConfigValidationError) as err:
            validate_config(top)
        assert err.value.problems == ["config: top level must be an object"]
        path = tmp_path / "top.json"
        path.write_text(json.dumps(top))
        assert main(["simulate", str(path)]) == EXIT_CONFIG_ERROR

    def test_scheme_other_than_imex_cn_rejected(self, tmp_path):
        cfg = base_config(str(tmp_path), **{"integration.scheme": "euler"})
        with pytest.raises(ConfigValidationError) as err:
            validate_config(cfg)
        assert [p for p in err.value.problems if p.startswith("integration.scheme")]

    def test_schema_defaults_match_validation(self):
        # a config of required fields only: every default the schema documents
        # must be the value validation fills in, and the field default of the
        # dataclass the block builds
        schema = json.loads(SCHEMA.read_text())
        minimal = {
            "grid": {"n_collocation": 64, "m_modes": 21},
            "model": {"gamma": 1.5, "alpha": 0.5,
                      "initial_condition": {"kind": "constant", "rho0": 1.0}},
            "noise": {},
            "integration": {"dt": 1e-3, "t_end": 0.02},
            "ensemble": {"n_paths": 1, "master_seed": 0},
            "output": {"directory": "runs/minimal"},
        }
        cfg = validate_config(minimal)
        built = {"grid": cfg.grid, "model": cfg.params, "noise": cfg.noise,
                 "integration": cfg.step, "ensemble": cfg.ensemble, "output": cfg}
        assert set(minimal) == set(schema["required"])
        n_defaults = 0
        for block, spec in schema["properties"].items():
            assert set(minimal[block]) == set(spec.get("required", [])), block
            for name, prop in spec["properties"].items():
                if "default" not in prop:
                    continue
                n_defaults += 1
                if (block, name) == ("integration", "scheme"):
                    # not stored: validation accepts this one value only
                    assert prop["enum"] == [prop["default"]] == ["imex_cn"]
                    continue
                values = [getattr(built[block], name)]
                if block != "output":
                    field = {f.name: f for f in dataclasses.fields(built[block])}[name]
                    values.append(field.default)
                for value in values:
                    if isinstance(value, tuple):
                        value = list(value)
                    assert value == prop["default"], f"{block}.{name}"
        assert n_defaults == 14

    @pytest.mark.parametrize("dotted, value", [
        ("outputs", {"directory": "x"}),
        ("model.cutof_radius", 10.0),
        ("model.initial_condition.velocity_mode", [1]),
        ("integration.implicit_visc_floor", 1.0),
    ])
    def test_unknown_blocks_and_keys_rejected(self, tmp_path, dotted, value):
        # a misspelt key would otherwise leave its default silently in force
        cfg = base_config(str(tmp_path), **{dotted: value})
        with pytest.raises(ConfigValidationError) as err:
            validate_config(cfg)
        assert [p for p in err.value.problems if p.startswith(dotted + ":")]

    @pytest.mark.parametrize("key", ["n_paths", "master_seed"])
    def test_required_ensemble_keys(self, tmp_path, key):
        cfg = base_config(str(tmp_path))
        del cfg["ensemble"][key]
        with pytest.raises(ConfigValidationError) as err:
            validate_config(cfg)
        assert err.value.problems == [f"ensemble.{key}: required"]

    @pytest.mark.parametrize("dotted, value", [
        ("grid.dealias", "false"), ("model.enable_cutoff", "false"),
        ("output.per_path_csv", 1),
    ])
    def test_flags_must_be_booleans(self, tmp_path, dotted, value):
        cfg = base_config(str(tmp_path), **{dotted: value})
        with pytest.raises(ConfigValidationError) as err:
            validate_config(cfg)
        assert [p for p in err.value.problems if p.startswith(dotted + ":")]

    @pytest.mark.parametrize("dotted, value", [
        ("integration.blowup_clamp", 0.0), ("integration.blowup_clamp", -1.0),
        ("ensemble.master_seed", -1),
    ])
    def test_clamp_and_seed_out_of_range_exit_2(self, tmp_path, monkeypatch, dotted, value):
        # a clamp <= 0 would end every path as a blow-up at t = 0, and a
        # negative seed has no seed lineage
        monkeypatch.setenv("QNS1D_OUTPUT_ROOT", str(tmp_path))
        out = tmp_path / "should_not_exist"
        cfg = base_config(str(out), **{dotted: value})
        with pytest.raises(ConfigValidationError) as err:
            validate_config(cfg)
        assert [p for p in err.value.problems if p.startswith(dotted + ":")]
        assert main(["simulate", str(write_config(tmp_path, cfg))]) == EXIT_CONFIG_ERROR
        assert not out.exists()


    @pytest.mark.parametrize("dotted, value", [
        ("ensemble.master_seed", 1.5), ("ensemble.n_paths", True),
        ("grid.n_collocation", 64.9), ("ensemble.output_stride", 5.0),
        ("model.gamma", "1.5"), ("model.alpha", False), ("integration.dt", "1e-3"),
        ("model.initial_condition.rho0", True),
    ])
    def test_typed_fields_checked_not_coerced(self, tmp_path, monkeypatch, dotted, value):
        # an integer field takes only a JSON integer, a number field no bool
        # or string; converting would silently run another config
        monkeypatch.setenv("QNS1D_OUTPUT_ROOT", str(tmp_path))
        out = tmp_path / "should_not_exist"
        cfg = base_config(str(out), **{dotted: value})
        with pytest.raises(ConfigValidationError) as err:
            validate_config(cfg)
        assert [p for p in err.value.problems if p.startswith(dotted + ":")]
        assert main(["simulate", str(write_config(tmp_path, cfg))]) == EXIT_CONFIG_ERROR
        assert not out.exists()

    @pytest.mark.parametrize("dotted, value, problem", [
        ("model.initial_condition.modes", [1.7],
         "model.initial_condition.modes[0]: must be an integer, got 1.7"),
        ("model.initial_condition.velocity_modes", [1, "2"],
         "model.initial_condition.velocity_modes[1]: must be an integer, got '2'"),
        ("ensemble.r_sweep", ["6", 9.0, 100.0], "ensemble.r_sweep[0]: must be a number, got '6'"),
        ("ensemble.r_sweep", [6.0, True], "ensemble.r_sweep[1]: must be a number, got True"),
        ("ensemble.moment_orders", [True, 2],
         "ensemble.moment_orders[0]: must be an integer, got True"),
        ("ensemble.moment_orders", [1, 2.0],
         "ensemble.moment_orders[1]: must be an integer, got 2.0"),
    ], ids=["modes_fraction", "velocity_modes_string", "r_sweep_string", "r_sweep_bool",
            "moment_orders_bool", "moment_orders_float"])
    def test_array_items_checked_not_coerced(self, tmp_path, monkeypatch, dotted, value,
                                             problem):
        # each item of an array field is checked against the schema's item
        # type; converting it would silently run another config
        monkeypatch.setenv("QNS1D_OUTPUT_ROOT", str(tmp_path))
        out = tmp_path / "should_not_exist"
        cfg = base_config(str(out), **{dotted: value})
        with pytest.raises(ConfigValidationError) as err:
            validate_config(cfg)
        assert problem in err.value.problems
        assert main(["simulate", str(write_config(tmp_path, cfg))]) == EXIT_CONFIG_ERROR
        assert not out.exists()

    def test_numeric_array_items_accepted(self, tmp_path):
        cfg = base_config(str(tmp_path), **{"ensemble.r_sweep": [6, 9.0, 100],
                                           "model.initial_condition.modes": [1, 2]})
        r_sweep = validate_config(cfg).ensemble.r_sweep
        assert r_sweep == (6.0, 9.0, 100.0) and all(type(r) is float for r in r_sweep)

    @pytest.mark.parametrize("dotted, value", [
        ("model.initial_condition.modes", {}), ("model.initial_condition.velocity_modes", {}),
        ("ensemble.moment_orders", {}), ("ensemble.r_sweep", 0), ("ensemble.r_sweep", False),
        ("ensemble.r_sweep", {}),
    ], ids=["modes", "velocity_modes", "moment_orders", "r_sweep_0", "r_sweep_false",
            "r_sweep_object"])
    def test_array_fields_reject_other_types(self, tmp_path, monkeypatch, dotted, value):
        # an object once iterated as no items, and a falsy r_sweep ran no sweep
        monkeypatch.setenv("QNS1D_OUTPUT_ROOT", str(tmp_path))
        out = tmp_path / "should_not_exist"
        cfg = base_config(str(out), **{dotted: value})
        with pytest.raises(ConfigValidationError) as err:
            validate_config(cfg)
        assert [p for p in err.value.problems if p.startswith(dotted + ": must be an array")]
        assert main(["simulate", str(write_config(tmp_path, cfg))]) == EXIT_CONFIG_ERROR
        assert not out.exists()

    @settings(derandomize=True, max_examples=400, database=None, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(DIFF_TARGETS), st.sampled_from(DIFF_VALUES)),
                    min_size=1, max_size=2))
    def test_validation_agrees_with_jsonschema(self, mutations):
        # validation rejects every config the schema rejects, and rejects a
        # config the schema accepts only by a rule the schema cannot state
        cfg = copy.deepcopy(DIFF_BASE)
        for dotted, value in mutations:
            *parents, leaf = dotted.split(".")
            node = cfg
            for key in parents:
                node = node.get(key) if isinstance(node, dict) else None
            if isinstance(node, dict):
                if value is DELETE:
                    node.pop(leaf, None)
                else:
                    node[leaf] = copy.deepcopy(value)
        try:
            validate_config(cfg, base_dir=SCHEMA.parent / "no_such_directory")
            problems = []
        except ConfigValidationError as exc:
            problems = exc.problems
        if SCHEMA_VALIDATOR.is_valid(cfg):
            assert all(p.startswith(DOMAIN_CHECKS) or INTEGRAL_FLOAT.search(p)
                       for p in problems), problems
        else:
            assert problems, cfg

    def test_schema_uses_only_interpreted_keywords(self):
        # validation would silently ignore a keyword it does not interpret
        def keywords(spec: dict) -> set[str]:
            nested = list(spec.get("properties", {}).values())
            nested += [spec["items"]] if "items" in spec else []
            return set(spec).union(*map(keywords, nested))
        assert keywords(json.loads(SCHEMA.read_text())) <= {
            "$schema", "title", "description", "type", "enum", "required", "properties",
            "additionalProperties", "items", "minimum", "exclusiveMinimum", "maximum",
            "default"}

    @pytest.mark.parametrize("name, arrays", [("state.npz", ("u",)), ("state.npy", None)],
                             ids=["npz_without_psi", "npy"])
    def test_malformed_initial_file_exits_2(self, tmp_path, monkeypatch, name, arrays):
        monkeypatch.setenv("QNS1D_OUTPUT_ROOT", str(tmp_path))
        out = tmp_path / "should_not_exist"
        if arrays is None:
            np.save(tmp_path / name, np.zeros(64))
        else:
            np.savez(tmp_path / name, **{key: np.zeros(64) for key in arrays})
        cfg = base_config(str(out), **{"model.initial_condition": {"kind": "file", "path": name}})
        with pytest.raises(ConfigValidationError) as err:
            validate_config(cfg, base_dir=tmp_path)
        assert [p for p in err.value.problems if p.startswith("model.initial_condition: ")]
        assert main(["simulate", str(write_config(tmp_path, cfg))]) == EXIT_CONFIG_ERROR
        assert not out.exists()

    def test_initial_file_loaded(self, tmp_path):
        psi = 0.1 * np.cos(2 * np.pi * np.arange(64) / 64)
        np.savez(tmp_path / "state.npz", psi=psi, u=np.zeros(64))
        cfg = base_config(str(tmp_path),
                          **{"model.initial_condition": {"kind": "file", "path": "state.npz"}})
        assert validate_config(cfg, base_dir=tmp_path).density_bound == np.exp(0.1)


class TestSimulate:
    def test_constant_state_constant_monitors(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QNS1D_OUTPUT_ROOT", str(tmp_path))
        cfg = base_config("runs/const")
        cfg["model"]["initial_condition"] = {"kind": "constant", "rho0": 2.0}
        cfg["ensemble"]["n_paths"] = 1
        path = write_config(tmp_path, cfg)
        assert main(["simulate", str(path)]) == EXIT_OK
        csv_path = tmp_path / "runs/const/paths/path_0000.csv"
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == MonitorRecord.CSV_HEADER.split(",")
        masses = [float(r[1]) for r in rows[1:]]
        assert all(m == masses[0] for m in masses)
        assert masses[0] == pytest.approx(2.0, rel=1e-12)

    def test_snapshot_reproduces_bit_identical_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QNS1D_OUTPUT_ROOT", str(tmp_path))
        cfg = base_config("runs/a", **{"noise.base_amplitude": 0.05})
        path = write_config(tmp_path, cfg)
        assert main(["simulate", str(path)]) == EXIT_OK
        snapshot = tmp_path / "runs/a/config.json"
        snap_cfg = json.loads(snapshot.read_text())
        snap_cfg["output"]["directory"] = "runs/b"
        path2 = write_config(tmp_path, snap_cfg, "run2.json")
        assert main(["simulate", str(path2)]) == EXIT_OK
        for idx in range(2):
            a = (tmp_path / f"runs/a/paths/path_{idx:04d}.csv").read_bytes()
            b = (tmp_path / f"runs/b/paths/path_{idx:04d}.csv").read_bytes()
            assert a == b
        sa = json.loads((tmp_path / "runs/a/summary.json").read_text())
        sb = json.loads((tmp_path / "runs/b/summary.json").read_text())
        sa.pop("wall_time_s"), sb.pop("wall_time_s")
        assert sa == sb

    def test_process_pool_matches_serial(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QNS1D_OUTPUT_ROOT", str(tmp_path))
        cfg = base_config("runs/serial", **{"noise.base_amplitude": 0.05,
                                            "ensemble.n_paths": 4})
        assert main(["simulate", str(write_config(tmp_path, cfg)),
                     "--workers", "1"]) == EXIT_OK
        cfg["output"]["directory"] = "runs/pool"
        assert main(["simulate", str(write_config(tmp_path, cfg, "pool.json")),
                     "--workers", "2"]) == EXIT_OK
        serial, pool = tmp_path / "runs/serial", tmp_path / "runs/pool"
        assert ((serial / "seed_manifest.json").read_bytes()
                == (pool / "seed_manifest.json").read_bytes())
        for idx in range(4):
            name = f"paths/path_{idx:04d}.csv"
            assert (serial / name).read_bytes() == (pool / name).read_bytes()
        sa = json.loads((serial / "summary.json").read_text())
        sb = json.loads((pool / "summary.json").read_text())
        sa.pop("wall_time_s"), sb.pop("wall_time_s")
        assert sa == sb

    def test_blowup_dominated_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QNS1D_OUTPUT_ROOT", str(tmp_path))
        cfg = base_config("runs/blow", **{
            "model.enable_cutoff": False,
            "integration.blowup_clamp": 0.01,
        })
        path = write_config(tmp_path, cfg)
        assert main(["simulate", str(path)]) == EXIT_BLOWUP_DOMINATED

    def test_writes_stay_inside_run_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QNS1D_OUTPUT_ROOT", str(tmp_path))
        cfg = base_config("runs/contained")
        path = write_config(tmp_path, cfg)
        before = {p.name for p in tmp_path.iterdir()}
        assert main(["simulate", str(path)]) == EXIT_OK
        after = {p.name for p in tmp_path.iterdir()}
        assert after - before == {"runs"}
        assert {p.name for p in (tmp_path / "runs").iterdir()} == {"contained"}


class TestSweep:
    def test_missing_r_sweep_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QNS1D_OUTPUT_ROOT", str(tmp_path))
        path = write_config(tmp_path, base_config("runs/x"))
        assert main(["sweep-r", str(path)]) == EXIT_CONFIG_ERROR

    def test_sweep_extremes_and_monotonicity(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QNS1D_OUTPUT_ROOT", str(tmp_path))
        cfg = base_config("runs/sweep", **{
            "noise.base_amplitude": 0.5,
            "noise.amplitude_decay": 2.0,
            "integration.t_end": 0.1,
            "ensemble.n_paths": 4,
            "ensemble.r_sweep": [0.5, 8.0, 150.0],
        })
        path = write_config(tmp_path, cfg)
        assert main(["sweep-r", str(path)]) == EXIT_OK
        with open(tmp_path / "runs/sweep/sweep.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["R", "stopping_fraction", "mean_stopping_time", "paths_count"]
        fractions = [float(r[1]) for r in rows[1:]]
        # tiny radius is already exceeded at t=0; enormous radius never hit
        assert fractions[0] == 1.0
        assert float(rows[1][2]) == 0.0
        assert fractions[-1] == 0.0
        assert rows[-1][2] == ""
        assert all(b <= a for a, b in zip(fractions, fractions[1:]))


class TestReplay:
    @staticmethod
    def assert_replays_bit_identical(tmp_path, command, cfg, indices):
        run_dir = tmp_path / cfg["output"]["directory"]
        assert main([command, str(write_config(tmp_path, cfg))]) == EXIT_OK
        for idx in indices:
            assert main(["replay", str(run_dir), "--path-index", str(idx)]) == EXIT_OK
            replayed = run_dir / f"replay_path_{idx:04d}.csv"
            original = run_dir / f"paths/path_{idx:04d}.csv"
            assert replayed.read_bytes() == original.read_bytes()
        return run_dir

    def test_replay_bit_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QNS1D_OUTPUT_ROOT", str(tmp_path))
        cfg = base_config("runs/r", **{"noise.base_amplitude": 0.05})
        self.assert_replays_bit_identical(tmp_path, "simulate", cfg, [1])

    def test_replay_bit_identical_sweep_r(self, tmp_path, monkeypatch):
        # sweep paths run at cut-off radius max(r_sweep), below model.cutoff_radius,
        # from random initial data; paths that reach it stop there, so a replay
        # that ran at model.cutoff_radius would differ
        monkeypatch.setenv("QNS1D_OUTPUT_ROOT", str(tmp_path))
        cfg = base_config("runs/rs", **{
            "noise.base_amplitude": 0.5,
            "noise.amplitude_decay": 2.0,
            "integration.t_end": 0.1,
            "ensemble.n_paths": 4,
            "ensemble.r_sweep": [8.0, 12.0],
            "model.initial_condition.random_amplitude": 0.5,
        })
        run_dir = self.assert_replays_bit_identical(tmp_path, "sweep-r", cfg, range(4))
        with open(run_dir / "sweep.csv") as fh:
            rows = list(csv.reader(fh))
        fractions = {float(r[0]): float(r[1]) for r in rows[1:]}
        assert fractions[8.0] == 1.0
        assert 0.0 < fractions[12.0] < 1.0

    def test_one_simulate_path_call_per_batch(self, tmp_path, monkeypatch):
        # sweep-r runs its paths as one batch, and replay as a batch of one;
        # the batch's n_steps_taken is the path-steps of the seed manifest,
        # and the public integrator name is not called again underneath
        monkeypatch.setenv("QNS1D_OUTPUT_ROOT", str(tmp_path))
        calls = {"ensemble": [], "integrator": []}
        for name, module in (("ensemble", qns1d.ensemble), ("integrator", qns1d.integrator)):
            def counted(*args, _original=module.simulate_path, _calls=calls[name], **kwargs):
                result = _original(*args, **kwargs)
                _calls.append(result.n_steps_taken)
                return result

            monkeypatch.setattr(module, "simulate_path", counted)
        cfg = base_config("runs/count", **{
            "noise.base_amplitude": 0.5,
            "noise.amplitude_decay": 2.0,
            "integration.t_end": 0.1,
            "ensemble.n_paths": 4,
            "ensemble.r_sweep": [8.0, 12.0],
            "model.initial_condition.random_amplitude": 0.5,
        })
        assert main(["sweep-r", str(write_config(tmp_path, cfg))]) == EXIT_OK
        run_dir = tmp_path / "runs/count"
        paths = json.loads((run_dir / "seed_manifest.json").read_text())["paths"]
        dt = cfg["integration"]["dt"]
        steps = [round(p["event_time"] / dt) for p in paths]
        assert min(steps) < max(steps)
        assert calls == {"ensemble": [sum(steps)], "integrator": []}
        assert main(["replay", str(run_dir), "--path-index", "1"]) == EXIT_OK
        assert calls == {"ensemble": [sum(steps), steps[1]], "integrator": []}

    @pytest.mark.parametrize("manifest", [
        {"schema_version": 1},
        {"paths": [{"seed": 1}]},
        {"paths": [{"index": 0}]},
        {"paths": [0]},
    ], ids=["no-paths", "no-index", "no-seed", "not-objects"])
    def test_replay_malformed_manifest_exits_2(self, tmp_path, monkeypatch, manifest):
        monkeypatch.setenv("QNS1D_OUTPUT_ROOT", str(tmp_path))
        path = write_config(tmp_path, base_config("runs/m"))
        assert main(["simulate", str(path)]) == EXIT_OK
        run_dir = tmp_path / "runs/m"
        (run_dir / "seed_manifest.json").write_text(json.dumps(manifest))
        assert main(["replay", str(run_dir), "--path-index", "0"]) == EXIT_CONFIG_ERROR

    def test_replay_bad_index(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QNS1D_OUTPUT_ROOT", str(tmp_path))
        cfg = base_config("runs/r2")
        path = write_config(tmp_path, cfg)
        assert main(["simulate", str(path)]) == EXIT_OK
        assert main(["replay", str(tmp_path / "runs/r2"),
                     "--path-index", "9"]) == EXIT_CONFIG_ERROR


class TestVerifyCommand:
    def test_fast_suite_passes(self, tmp_path):
        report = tmp_path / "report.json"
        assert main(["verify", "noise-bounds", "--report", str(report)]) == EXIT_OK
        doc = json.loads(report.read_text())
        assert doc["schema_version"] == 1
        assert all(c["passed"] for c in doc["checks"])

    def test_unknown_suite(self):
        assert main(["verify", "nope"]) == EXIT_CONFIG_ERROR


def test_cli_import_loads_whole_package_and_no_scipy():
    # the package ships only what the CLI runs: a module under src/qns1d
    # that the CLI never imports is test-only code in the wrong place
    package = Path(qns1d.cli.__file__).resolve().parent
    code = ("import json, sys, qns1d.cli; print(json.dumps("
            "[m for m in sys.modules if m.split('.')[0] in ('qns1d', 'scipy')]))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(package.parent)), check=True)
    loaded = set(json.loads(out.stdout))
    modules = {f"qns1d.{f.stem}" for f in package.glob("*.py") if f.stem != "__init__"}
    assert modules - loaded == set()
    assert {m for m in loaded if m.split(".")[0] == "scipy"} == set()
