"""Command-line interface: configs, outputs, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from switchlayer import DUFFING_RIPPLE_WINDOW, SwitchedField, cli, layer_amplitude
from switchlayer.cli import (
    ConfigError,
    RunConfig,
    main,
    run_simulation,
    trajectory_table,
    write_table,
)


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def base_config(**overrides):
    doc = {
        "scenario": {"name": "example2", "params": {"variant": "nonlinear"}},
        "mode": "hybrid",
        "t_span": [0.0, 1.0],
        "initial_state": [-0.3, 0.0],
        "output": {"path": "traj.csv", "format": "csv"},
    }
    doc.update(overrides)
    return doc


class TestRunConfig:
    def test_scenario_shorthand(self):
        cfg = RunConfig.parse(base_config(scenario="example1"))
        assert cfg.scenario == "example1"
        assert cfg.system.dim == 2

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            RunConfig.parse(base_config(tspan=[0, 1]))

    def test_bad_t_span_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.parse(base_config(t_span=[1.0, 0.0]))

    def test_regularized_requires_sigmoid(self):
        with pytest.raises(ConfigError, match="sigmoid"):
            RunConfig.parse(base_config(mode="regularized"))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="mode"):
            RunConfig.parse(base_config(mode="exact"))

    def test_circuit_initial_iv(self):
        doc = base_config(scenario={"name": "circuit", "params": {}})
        doc.pop("initial_state")
        doc["initial_iv"] = [0.0, 0.0]
        cfg = RunConfig.parse(doc)
        np.testing.assert_allclose(cfg.x0, [6.0, 0.0])

    def test_initial_iv_only_for_circuit(self):
        doc = base_config()
        doc["initial_iv"] = [0.0, 0.0]
        with pytest.raises(ConfigError, match="initial_iv"):
            RunConfig.parse(doc)

    def test_unknown_output_format_rejected(self):
        with pytest.raises(ConfigError, match="xml"):
            RunConfig.parse(base_config(output={"path": "traj.xml", "format": "xml"}))

    def test_reversed_search_box_rejected(self):
        with pytest.raises(ConfigError, match="lo <= hi"):
            RunConfig.parse(base_config(search_box=[[1, -1], [0, 6]]))


# (subcommand, config entries over base_config): each a config mistake
CONFIG_MISTAKES = {
    "t_span-text": ("simulate", {"t_span": ["a", 1]}),
    "integrator-list": ("simulate", {"integrator": [1]}),
    "scenario-params-list": ("simulate", {"scenario": {"name": "example2", "params": [1]}}),
    "initial_iv-short": ("simulate", {"scenario": "circuit", "initial_iv": [0]}),
    "initial_state-text": ("simulate", {"initial_state": ["a", 1]}),
    "eps_layer-text": ("simulate", {"eps_layer": "x"}),
    "grid-no-count": ("sliding", {"grid": {"x_rest": [[-1, 1]]}}),
    "grid-text-count": ("sliding", {"grid": {"x_rest": [[-1, 1, "a"]]}}),
    "box-triple": ("equilibria", {"search_box": [[-1, 1, 5], [0, 6]]}),
    "box-text": ("equilibria", {"search_box": [[-1, 1], ["a", 6]]}),
    "box-time-dependent": ("equilibria", {"scenario": "duffing",
                                          "search_box": [[-1, 1], [-1, 1]]}),
    "equilibria-t": ("equilibria", {"search_box": [[-1, 1], [-5, 5]], "t": 0.5}),
    "params-surface_tolerance": ("simulate", {"scenario": {
        "name": "example2", "params": {"surface_tolerance": 1e-6}}}),
    "regularized-hill": ("simulate", {"mode": "regularized",
                                      "sigmoid": {"kind": "hill", "eps": 0.1}}),
    "grid-unknown-key": ("sliding", {"scenario": "duffing", "grid": {
        "x_rest": [[-1, 1, 3]], "time": 0.7}}),
    "output-unknown-key": ("simulate", {"output": {"path": "g.csv", "fromat": "json"}}),
    "sigmoid-theta-not-hill": ("simulate", {"sigmoid": {"kind": "tanh", "eps": 0.1,
                                                        "theta": -5}}),
    "integrator-max_step-nan": ("simulate", {"integrator": {"max_step": math.nan}}),
    "integrator-rel_tol-nan": ("simulate", {"integrator": {"rel_tol": math.nan}}),
    "integrator-max_steps-fraction": ("simulate", {"integrator": {"max_steps": 2.5}}),
    "sigmoid-eps-nan": ("simulate", {"mode": "regularized",
                                     "sigmoid": {"kind": "tanh", "eps": math.nan}}),
    "sigmoid-eps-inf": ("simulate", {"mode": "regularized",
                                     "sigmoid": {"kind": "tanh", "eps": math.inf}}),
    "circuit-L-nan": ("simulate", {"scenario": {"name": "circuit", "params": {"L": math.nan}}}),
    "circuit-R-inf": ("simulate", {"scenario": {"name": "circuit", "params": {"R": math.inf}}}),
    "duffing-a-nan": ("simulate", {"scenario": {"name": "duffing", "params": {"a": math.nan}}}),
    "duffing-b-inf": ("simulate", {"scenario": {"name": "duffing", "params": {"b": math.inf}}}),
    "eps_layer-inf": ("simulate", {"scenario": "duffing", "mode": "layer_only",
                                   "initial_state": [0.0, 0.0], "eps_layer": math.inf}),
    "regularized-arctan_01": ("simulate", {"mode": "regularized",
                                           "sigmoid": {"kind": "arctan_01", "eps": 0.1}}),
    "duffing-with_tracker": ("simulate", {"scenario": {"name": "duffing", "params": {
        "with_tracker": True}}, "initial_state": [0.3, 0.1, 0.0]}),
    "initial_state-nan": ("simulate", {"initial_state": [math.nan, 0.0]}),
    "initial_iv-nan": ("simulate", {"scenario": "circuit", "initial_iv": [math.nan, 0.0]}),
    "t_span-inf": ("simulate", {"t_span": [0.0, math.inf]}),
    "grid-nan-bound": ("sliding", {"grid": {"x_rest": [[math.nan, 1, 3]]}}),
    "grid-t-nan": ("sliding", {"scenario": "duffing", "grid": {
        "x_rest": [[-1, 1, 3]], "t": math.nan}}),
    "grid-fraction-count": ("sliding", {"grid": {"x_rest": [[-1, 1, 2.5]]}}),
    "box-nan": ("equilibria", {"search_box": [[-1, 1], [math.nan, 6]]}),
    "box-inf": ("equilibria", {"search_box": [[-1, 1], [0, math.inf]]}),
    "box-reversed": ("equilibria", {"search_box": [[-1, 1], [6, 0]]}),
    "layer_only-lam0-outside": ("simulate", {"scenario": "duffing", "mode": "layer_only",
                                             "initial_state": [3.0, 0.0]}),
}


@pytest.mark.parametrize("command, entries", CONFIG_MISTAKES.values(),
                         ids=CONFIG_MISTAKES.keys())
def test_config_mistake_exits_2(tmp_path, capsys, command, entries):
    cfg = write_config(tmp_path / "c.json", base_config(**entries))
    out = tmp_path / "o.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


class Tag(str):
    pass


class TestWriteTable:
    # each column one kind, str or number, as in every CLI table
    HEADER = ["a", "b", "c", "d", "e", "f", "g", "h"]
    ROWS = [
        ["free_plus", math.nan, math.inf, -math.inf, Tag("sliding"), -0.0, 5e-324,
         1.7976931348623157e308],
        ("x,y", 0, -7, 2**70, "saddle", np.float64(0.1), np.float64(-2.5e-300),
         np.float64(math.nan)),
        ["set_valued", 1e-310, -1, 0.30000000000000004, "attracting", math.nan, math.nan,
         2.0],
    ]

    def test_csv_matches_per_value_format(self, tmp_path):
        out = tmp_path / "t.csv"
        write_table(str(out), self.HEADER, self.ROWS, "csv")
        want = [",".join(self.HEADER)] + [
            ",".join(v if isinstance(v, str) else format(v, ".17g") for v in row)
            for row in self.ROWS]
        assert out.read_text() == "\n".join(want) + "\n"

    @pytest.mark.parametrize("row", [[0.5, "attracting", 3], [*ROWS[2], 1.0]],
                             ids=["shorter", "longer"])
    def test_row_of_another_length_raises(self, tmp_path, row):
        with pytest.raises(TypeError):
            write_table(str(tmp_path / "t.csv"), self.HEADER, [*self.ROWS, row], "csv")

    def test_str_in_a_number_column_raises(self, tmp_path):
        row = ["set_valued", "1.5", *self.ROWS[2][2:]]
        with pytest.raises(TypeError):
            write_table(str(tmp_path / "t.csv"), self.HEADER, [*self.ROWS, row], "csv")

    @pytest.mark.parametrize("slots, ends, texts", [
        ((1,), [2], [("a",)]), ((1,), [1, 3, 2], [("a",)] * 3), ((1,), [1, 3], [("a",), ()]),
        ((1,), [3], []), ((3,), [3], [("a",)]), ((2, 0), [3], [("a", "b")]),
        ((1, 1), [3], [("a", "b")])])
    def test_table_runs_must_hold_its_rows(self, slots, ends, texts):
        # sl_csv reads a row's numbers by the places its slots leave
        with pytest.raises(ValueError, match="runs"):
            cli.Table(np.zeros((3, 2)), slots, texts, ends)

    def test_csv_of_no_rows_is_its_header(self, tmp_path):
        out = tmp_path / "t.csv"
        write_table(str(out), self.HEADER, [], "csv")
        assert out.read_text() == ",".join(self.HEADER) + "\n"

    def test_json_unchanged(self, tmp_path):
        out = tmp_path / "t.json"
        write_table(str(out), self.HEADER, self.ROWS, "json")
        assert out.read_text() == json.dumps(
            {"columns": self.HEADER, "rows": self.ROWS}, indent=1, sort_keys=True,
            allow_nan=True) + "\n"

    def test_trajectory_rows_match_per_element_floats(self):
        result = run_simulation(RunConfig.parse(base_config()))
        header, rows = trajectory_table(result)
        want = []
        for seg in result.segments:  # free flight (no lam) and sliding
            for k in range(seg.t.size):
                lam = float(seg.lam[k]) if seg.lam is not None else math.nan
                want.append([float(seg.t[k]), seg.regime, *map(float, seg.x[k]), lam])
        assert {seg.lam is None for seg in result.segments} == {True, False}
        assert header == ["t", "regime", "x1", "x2", "lambda"]
        assert len(rows) == len(want)
        # indexing gives the rows iteration gives (repr: nan != nan)
        assert [repr(rows[k]) for k in range(-len(rows), len(rows))] == 2 * list(map(repr, rows))
        for got, row in zip(rows, want):
            assert [type(v) for v in got] == [type(v) for v in row]
            assert [v if isinstance(v, str) else float(v).hex() for v in got] == \
                [v if isinstance(v, str) else v.hex() for v in row]


def _str_columns(header, rows):
    """The names of the columns whose values are str, the same in every row."""
    kinds = {tuple(isinstance(v, str) for v in row) for row in rows}
    assert len(kinds) == 1 and all(len(row) == len(header) for row in rows)
    return {name for name, is_str in zip(header, kinds.pop()) if is_str}


class TestTableColumns:
    """Every row of a CLI table has its str columns in the same places."""

    RUNS = {
        "duffing-hybrid": dict(scenario="duffing", initial_state=[0.3, 0.0], t_span=[0, 3]),
        "circuit-hybrid": dict(scenario={"name": "circuit", "params": {"sigma": 0.5}},
                               initial_iv=[0.0, 0.0], t_span=[0, 20]),
        "example2-hybrid": dict(),
        "regularized": dict(mode="regularized", sigmoid={"kind": "tanh", "eps": 0.1}),
        "layer_only": dict(scenario="duffing", mode="layer_only", initial_state=[0.0, 0.0]),
    }

    def test_trajectory_tables(self):
        regimes = set()
        for entries in self.RUNS.values():
            result = run_simulation(RunConfig.parse(base_config(**entries)))
            regimes |= {seg.regime for seg in result.segments}
            header, rows = trajectory_table(result)
            assert _str_columns(header, rows) == {"regime"}
        assert {"free_plus", "free_minus", "sliding", "layer_transit"} <= regimes

    def _rows(self, monkeypatch, command, system, **entries):
        tables = []
        monkeypatch.setattr(cli, "write_table", lambda path, header, rows, fmt:
                            tables.append((header, rows)))
        cfg = RunConfig.parse(base_config(**entries))
        cfg.system = system
        assert command(cfg, "unused.csv", None) == 0
        (table,) = tables
        return table

    def test_sliding_grid_with_set_valued_point(self, monkeypatch):
        # f1 = x2 (2 lam^2 - 1): two roots off x2 = 0, set-valued on it
        system = SwitchedField(dim=2, fused=lambda x, t, lam: (
            x.item(1) * (2.0 * lam * lam - 1.0), 1.0))
        header, rows = self._rows(monkeypatch, cli.cmd_sliding, system,
                                  grid={"x_rest": [[-1.0, 1.0, 5]]})
        assert {row[2] for row in rows} == {"attracting", "repelling", "set_valued"}
        assert _str_columns(header, rows) == {"stability"}

    def test_equilibria(self, monkeypatch):
        # rest points at lam = x2 = -+1/sqrt(2)
        system = SwitchedField(dim=2, fused=lambda x, t, lam: (
            2.0 * lam * lam - 1.0, x.item(1) - lam))
        header, rows = self._rows(monkeypatch, cli.cmd_equilibria, system,
                                  search_box=[[-1.0, 1.0], [-2.0, 2.0]])
        assert [row[2] for row in rows] == ["saddle", "node"]
        assert _str_columns(header, rows) == {"classification"}


def _not_called(*args, **kwargs):
    raise AssertionError("computation started before the output was checked")


# (subcommand, config entries over base_config, arguments, computations)
MISSING_DIRECTORY = {
    "simulate": ({}, ["--out", "{d}/x.csv"], ["run_simulation"]),
    "sweep": ({}, ["--out", "{d}/sw.csv", "--parameter", "t_span", "--values", "[[0, 1]]"],
              ["run_simulation"]),
    "amplitude": ({}, ["--out", "{d}/a.json", "--window", "0.4", "1.0"],
                  ["run_simulation"]),
    "sliding": ({"grid": {"x_rest": [[0.0, 1.0, 3]]}}, ["--out", "{d}/s.csv"],
                ["find_sliding_modes"]),
    "equilibria": ({"search_box": [[-1, 1], [-5, 5]]}, ["--out", "{d}/e.csv"],
                   ["find_layer_equilibria"]),
}


@pytest.mark.parametrize("command, entries, args, computations",
                         [(k, *v) for k, v in MISSING_DIRECTORY.items()],
                         ids=MISSING_DIRECTORY.keys())
def test_missing_output_directory_exits_2(tmp_path, capsys, monkeypatch, command,
                                          entries, args, computations):
    for name in computations:
        monkeypatch.setattr(cli, name, _not_called)
    cfg = write_config(tmp_path / "c.json", base_config(**entries))
    missing = tmp_path / "nodir"
    argv = [command, "--config", cfg, *(a.format(d=missing) for a in args)]
    assert main(argv) == 2
    assert "output directory" in capsys.readouterr().err
    assert not missing.exists()


# (subcommand, config entries over base_config, arguments, computations):
# {d} is an existing directory, which only a sweep may take as its path
OUTPUT_MISTAKES = {
    "simulate-directory": ({}, ["--out", "{d}"], ["run_simulation"]),
    "amplitude-directory": ({}, ["--out", "{d}", "--window", "0.4", "1.0"],
                            ["run_simulation"]),
    "sliding-directory": ({"grid": {"x_rest": [[0.0, 1.0, 3]]}}, ["--out", "{d}"],
                          ["find_sliding_modes"]),
    "equilibria-directory": ({"search_box": [[-1, 1], [-5, 5]]}, ["--out", "{d}"],
                             ["find_layer_equilibria"]),
    "simulate-empty-path": ({"output": {"path": ""}}, [], ["run_simulation"]),
    "sweep-empty-path": ({"output": {"path": ""}},
                         ["--parameter", "t_span", "--values", "[[0, 1]]"],
                         ["run_simulation"]),
    "sliding-empty-path": ({"grid": {"x_rest": [[0.0, 1.0, 3]]}, "output": {"path": ""}},
                           [], ["find_sliding_modes"]),
    "equilibria-empty-path": ({"search_box": [[-1, 1], [-5, 5]], "output": {"path": ""}},
                              [], ["find_layer_equilibria"]),
}


@pytest.mark.parametrize("command, entries, args, computations",
                         [(k.split("-")[0], *v) for k, v in OUTPUT_MISTAKES.items()],
                         ids=OUTPUT_MISTAKES.keys())
def test_output_path_mistake_exits_2(tmp_path, monkeypatch, capsys, command,
                                     entries, args, computations):
    for name in computations:
        monkeypatch.setattr(cli, name, _not_called)
    folder = tmp_path / "adir"
    folder.mkdir()
    cfg = write_config(tmp_path / "c.json", base_config(**entries))
    monkeypatch.chdir(tmp_path)
    argv = [command, "--config", cfg, *(a.format(d=folder) for a in args)]
    assert main(argv) == 2
    assert "config error:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "c.json"]
    assert not any(folder.iterdir())


class TestSimulate:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "traj.csv"
        cfg = write_config(tmp_path / "c.json", base_config())
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,regime,x1,x2,lambda"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert first[1] == "free_minus"
        assert first[4] == "nan"  # multiplier untracked during free flight
        last = lines[-1].split(",")
        assert last[1] == "sliding"
        assert float(last[4]) == pytest.approx(-1 / np.sqrt(2), abs=1e-8)

    def test_json_output(self, tmp_path):
        out = tmp_path / "traj.json"
        cfg = write_config(tmp_path / "c.json", base_config())
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     "--format", "json"]) == 0
        doc = json.loads(out.read_text())
        assert doc["columns"] == ["t", "regime", "x1", "x2", "lambda"]
        assert doc["rows"][0][1] == "free_minus"

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", base_config())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_regularized_mode(self, tmp_path):
        doc = base_config(mode="regularized",
                          sigmoid={"kind": "tanh", "eps": 0.01})
        out = tmp_path / "r.csv"
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert all(line.split(",")[1] == "regularized" for line in lines[1:])

    def test_layer_only_mode(self, tmp_path):
        doc = base_config(scenario="duffing", mode="layer_only",
                          initial_state=[0.0, 0.0], t_span=[0.0, 5.0],
                          eps_layer=1e-3)
        out = tmp_path / "l.csv"
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert "layer_transit" in out.read_text()

    @pytest.mark.parametrize("state, regime", [
        ([-0.3, 0.0], "free_minus"), ([0.0, 0.3], "sliding")])
    def test_span_shorter_than_tolerance(self, tmp_path, state, regime):
        out = tmp_path / "s.csv"
        cfg = write_config(tmp_path / "c.json", base_config(
            scenario="example1", t_span=[0.0, 1e-15], initial_state=state))
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [float(row[0]) for row in rows] == [0.0, 1e-15]
        assert {row[1] for row in rows} == {regime}

    @pytest.mark.parametrize("eps_layer", [0.0, -1e-4])
    def test_non_positive_eps_layer_exits_2(self, tmp_path, eps_layer):
        doc = base_config(scenario="duffing", mode="layer_only",
                          initial_state=[0.0, 0.0], t_span=[0.0, 2.0],
                          eps_layer=eps_layer)
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "l.csv")]) == 2
        assert not (tmp_path / "l.csv").exists()
        with pytest.raises(ConfigError, match="eps_layer"):
            RunConfig.parse(doc)

    @pytest.mark.parametrize("mode, state", [
        ("hybrid", [-0.3]), ("hybrid", [-0.3, 0.0, 0.0]),
        ("regularized", [-0.3]), ("regularized", [-0.3, 0.0, 0.0]),
        ("layer_only", [0.0, 0.0, 0.0]),
    ])
    def test_wrong_length_initial_state_exits_2(self, tmp_path, mode, state, capsys):
        doc = base_config(mode=mode, initial_state=state,
                          sigmoid={"kind": "tanh", "eps": 0.01})
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        assert "2 values" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "no.json")]) == 2

    def test_step_budget_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", base_config(integrator={"max_steps": 3}))
        out = tmp_path / "o.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 3
        assert ("numerical failure in simulate: step budget of 3 exceeded"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_unknown_scenario_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", base_config(scenario="lorenz"))
        assert main(["simulate", "--config", cfg]) == 2

    def test_missing_output_path_exits_2(self, tmp_path):
        doc = base_config()
        doc.pop("output")
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["simulate", "--config", cfg]) == 2


class TestSweep:
    def test_per_value_files_and_summary(self, tmp_path):
        doc = base_config(mode="regularized",
                          sigmoid={"kind": "piecewise_linear", "eps": 0.1},
                          initial_state=[0.1, 0.0], t_span=[0.0, 0.5],
                          output={"path": str(tmp_path / "sw.csv"),
                                  "format": "csv"})
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["sweep", "--config", cfg, "--parameter", "sigmoid.eps",
                     "--values", "[0.1, 0.05]"]) == 0
        assert (tmp_path / "sw_0.csv").exists()
        assert (tmp_path / "sw_1.csv").exists()
        summary = json.loads((tmp_path / "sw_summary.json").read_text())
        assert [e["value"] for e in summary] == [0.1, 0.05]
        assert all(e["parameter"] == "sigmoid.eps" for e in summary)
        assert all(len(e["final_state"]) == 2 for e in summary)

    def test_counts_transitions(self, tmp_path):
        doc = base_config(output={"path": str(tmp_path / "sw.csv"),
                                  "format": "csv"})
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["sweep", "--config", cfg, "--parameter", "t_span",
                     "--values", "[[0.0, 1.0]]"]) == 0
        summary = json.loads((tmp_path / "sw_summary.json").read_text())
        assert summary[0]["stick_count"] == 1
        assert summary[0]["cross_count"] == 0

    def test_dotted_directory_and_extensionless_name(self, tmp_path):
        folder = tmp_path / "results.v2"
        folder.mkdir()
        doc = base_config(output={"path": str(folder / "traj"), "format": "json"})
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["sweep", "--config", cfg, "--parameter", "t_span",
                     "--values", "[[0.0, 1.0], [0.0, 0.5]]"]) == 0
        assert sorted(p.name for p in folder.iterdir()) == [
            "traj_0.json", "traj_1.json", "traj_summary.json"]
        summary = json.loads((folder / "traj_summary.json").read_text())
        assert [e["file"] for e in summary] == [str(folder / "traj_0.json"),
                                                 str(folder / "traj_1.json")]

    def test_directory_base_writes_beside(self, tmp_path):
        folder = tmp_path / "adir"
        folder.mkdir()
        cfg = write_config(tmp_path / "c.json", base_config())
        assert main(["sweep", "--config", cfg, "--out", str(folder), "--parameter",
                     "t_span", "--values", "[[0.0, 1.0]]"]) == 0
        assert not any(folder.iterdir())
        assert (tmp_path / "adir_0.csv").exists()
        assert (tmp_path / "adir_summary.json").exists()

    def test_empty_value_list_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", base_config())
        assert main(["sweep", "--config", cfg, "--parameter", "sigmoid.eps",
                     "--values", "[]"]) == 2

    def test_unknown_parameter_path_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", base_config())
        assert main(["sweep", "--config", cfg, "--parameter", "nope.eps",
                     "--values", "[1.0]"]) == 2


class TestAmplitude:
    def test_reports_half_peak_to_peak(self, tmp_path, capsys):
        doc = base_config()
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["amplitude", "--config", cfg,
                     "--window", "0.4", "1.0"]) == 0
        report = json.loads(capsys.readouterr().out)
        # the multiplier is pinned at the sliding value: zero amplitude
        assert report["amplitude"] == pytest.approx(0.0, abs=1e-9)
        assert report["lambda_min"] == pytest.approx(-1 / np.sqrt(2), abs=1e-8)

    def test_window_outside_span_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", base_config())
        assert main(["amplitude", "--config", cfg,
                     "--window", "0.5", "3.0"]) == 2

    def test_average_matches_layer_amplitude(self, tmp_path, capsys):
        doc = base_config(scenario="duffing", mode="layer_only", t_span=[0.0, 8.0],
                          initial_state=[0.0, 0.0], eps_layer=1e-3)
        cfg = write_config(tmp_path / "c.json", doc)
        (seg,) = run_simulation(RunConfig.parse(doc)).segments
        window = ["4.0", "8.0"]
        assert main(["amplitude", "--config", cfg, "--window", *window]) == 0
        raw = json.loads(capsys.readouterr().out)
        assert "average" not in raw
        assert raw["amplitude"] == layer_amplitude(seg.t, seg.lam, (4.0, 8.0))
        assert main(["amplitude", "--config", cfg, "--window", *window,
                     "--average", str(DUFFING_RIPPLE_WINDOW)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["average"] == DUFFING_RIPPLE_WINDOW
        assert report["amplitude"] == layer_amplitude(
            seg.t, seg.lam, (4.0, 8.0), average=DUFFING_RIPPLE_WINDOW)
        assert report["amplitude"] < raw["amplitude"]
        assert {k: raw[k] for k in ("n_samples", "lambda_min", "lambda_max")} == {
            k: report[k] for k in ("n_samples", "lambda_min", "lambda_max")}

    # not positive, not finite, or not shorter than the window (0.4, 1.0)
    @pytest.mark.parametrize("span", ["0", "-0.3", "0.7", "0.6", "inf", "nan"])
    def test_unusable_average_exits_2(self, tmp_path, capsys, monkeypatch, span):
        monkeypatch.setattr(cli, "run_simulation", _not_called)
        cfg = write_config(tmp_path / "c.json", base_config())
        assert main(["amplitude", "--config", cfg, "--window", "0.4", "1.0",
                     "--average", span]) == 2
        assert "--average" in capsys.readouterr().err

    @pytest.mark.parametrize("window", [["nan", "1.0"], ["0.4", "inf"], ["1.0", "0.4"],
                                        ["0.4", "0.4"]],
                             ids=["nan", "inf", "reversed", "empty"])
    def test_unusable_window_exits_2(self, tmp_path, capsys, monkeypatch, window):
        monkeypatch.setattr(cli, "run_simulation", _not_called)
        cfg = write_config(tmp_path / "c.json", base_config())
        assert main(["amplitude", "--config", cfg, "--window", *window]) == 2
        assert "--window" in capsys.readouterr().err


class TestSliding:
    def test_grid_dump(self, tmp_path):
        doc = {
            "scenario": {"name": "example2", "params": {"variant": "nonlinear"}},
            "grid": {"x_rest": [[0.0, 1.0, 3]]},
            "output": {"path": str(tmp_path / "sl.csv"), "format": "csv"},
        }
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["sliding", "--config", cfg]) == 0
        lines = (tmp_path / "sl.csv").read_text().splitlines()
        assert lines[0] == "x2,lambda_s,stability,slide_dx2"
        assert len(lines) == 1 + 3 * 2  # two roots at each of three grid points
        assert "attracting" in lines[1]

    def test_set_valued_point_written_as_nan_row(self, tmp_path):
        # Duffing on the surface: f1 = x2 for every lam, so x2 = 0 is
        # set-valued and the other points have no root and write no row
        doc = {
            "scenario": "duffing",
            "grid": {"x_rest": [[-1, 1, 11]], "t": 0.7},
            "output": {"path": str(tmp_path / "sl.csv"), "format": "csv"},
        }
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["sliding", "--config", cfg]) == 0
        lines = (tmp_path / "sl.csv").read_text().splitlines()
        assert lines == ["x2,lambda_s,stability,slide_dx2", "0,nan,set_valued,nan"]

    def test_missing_grid_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.json",
                           {"scenario": "example2",
                            "output": {"path": str(tmp_path / "x.csv")}})
        assert main(["sliding", "--config", cfg]) == 2


class TestEquilibria:
    def test_circuit_saddle_found(self, tmp_path):
        doc = {
            "scenario": {"name": "circuit", "params": {"sigma": 0.5}},
            "search_box": [[-1.0, 1.0], [0.0, 6.0]],
            "output": {"path": str(tmp_path / "eq.csv"), "format": "csv"},
        }
        cfg = write_config(tmp_path / "c.json", doc)
        assert main(["equilibria", "--config", cfg]) == 0
        lines = (tmp_path / "eq.csv").read_text().splitlines()
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert float(fields[0]) == pytest.approx(2 / 3, abs=1e-8)
        assert fields[2] == "saddle"

    @pytest.mark.parametrize("box", [[[-1.0, 1.0]], [[-1.0, 1.0], [0.0, 1.0], [0.0, 1.0]]])
    def test_wrong_length_box_exits_2(self, tmp_path, box):
        cfg = write_config(tmp_path / "c.json",
                           {"scenario": "example2", "search_box": box,
                            "output": {"path": str(tmp_path / "x.csv")}})
        assert main(["equilibria", "--config", cfg]) == 2
        assert not (tmp_path / "x.csv").exists()

    def test_missing_box_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.json",
                           {"scenario": "example2",
                            "output": {"path": str(tmp_path / "x.csv")}})
        assert main(["equilibria", "--config", cfg]) == 2


def old_rule_csv(result):
    """A run's trajectory CSV by the rule the CLI wrote it with before its
    numbers were printed in C: ``format(v, ".17g")`` for each number."""
    n = result.segments[0].x.shape[1]
    lines = [",".join(["t", "regime", *(f"x{i+1}" for i in range(n)), "lambda"])]
    for seg in result.segments:
        lam = seg.lam.tolist() if seg.lam is not None else [math.nan] * seg.t.size
        for t, x, v in zip(seg.t.tolist(), seg.x.tolist(), lam):
            lines.append(",".join([format(t, ".17g"), seg.regime,
                                   *(format(c, ".17g") for c in [*x, v])]))
    return "\n".join(lines) + "\n"


class TestOldRuleOracle:
    """The CSV files are byte for byte what the per-value rule printed."""

    def test_simulate_hybrid_circuit_with_free_and_sliding_segments(self, tmp_path):
        doc = base_config(scenario={"name": "circuit", "params": {"sigma": 0.5}},
                          initial_iv=[0.0, 0.0], t_span=[0.0, 20.0])
        doc.pop("initial_state")
        out = tmp_path / "h.csv"
        assert main(["simulate", "--config", write_config(tmp_path / "c.json", doc),
                     "--out", str(out)]) == 0
        result = run_simulation(RunConfig.parse(doc))
        regimes = {seg.regime for seg in result.segments}
        assert "sliding" in regimes and regimes & {"free_plus", "free_minus"}
        assert out.read_bytes() == old_rule_csv(result).encode()

    def test_sweep_tanh_members(self, tmp_path):
        doc = base_config(scenario={"name": "circuit", "params": {"sigma": 0.3}},
                          mode="regularized", sigmoid={"kind": "tanh", "eps": 0.1},
                          initial_state=[0.0, 3.0], t_span=[0.0, 1.0],
                          output={"path": str(tmp_path / "sw.csv")})
        assert main(["sweep", "--config", write_config(tmp_path / "c.json", doc),
                     "--parameter", "sigmoid.eps", "--values", "[0.01, 0.001]"]) == 0
        for k, eps in enumerate([0.01, 0.001]):
            member = dict(doc, sigmoid={"kind": "tanh", "eps": eps})
            want = old_rule_csv(run_simulation(RunConfig.parse(member)))
            assert (tmp_path / f"sw_{k}.csv").read_bytes() == want.encode()
        assert want.count("\n") > 4000  # eps = 1e-3: the ε/4 band cap sets the rows


def test_amplitude_out_file_is_its_stdout(tmp_path, capsys):
    out = tmp_path / "a.json"
    cfg = write_config(tmp_path / "c.json", base_config())
    assert main(["amplitude", "--config", cfg, "--window", "0.4", "1.0",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == capsys.readouterr().out.encode()


def test_module_entry_point_exits_2_on_a_bad_config(tmp_path):
    cfg = write_config(tmp_path / "c.json", base_config(scenario="lorenz"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "switchlayer.cli", "simulate",
                           "--config", cfg], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 2
    assert "config error: bad scenario entry" in proc.stderr
