import concurrent.futures
import csv
import dataclasses
import io
import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from titest import (
    DecisionRule,
    InvalidDistributionError,
    TypicalityParams,
    achievability_check,
    build_bsc_model,
    build_coin_model,
    build_constant_model,
    build_identity_model,
    converse_check,
    experiment,
    extended_fano_check,
    run_experiment,
    typical_set_census,
)
from titest import cli
from titest.cli import main
from titest.experiment import SWEEP_COLUMNS


def run_cli(argv):
    """Invoke main() catching argparse's SystemExit; return the exit code."""
    try:
        return main(argv)
    except SystemExit as e:
        return int(e.code)


def write_model(tmp_path, name, model):
    path = tmp_path / name
    path.write_text(json.dumps(model.to_json_dict()))
    return str(path)


def with_grid(tmp_path, argv):
    """argv with each "GRID" replaced by the path of a one-point grid file."""
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(
        {"n": [3], "theta": [0.4], "m": [2], "epsilon": [0.25], "rules": ["sap"]}
    ))
    return [str(path) if token == "GRID" else token for token in argv]


# Every setting and sweep grid axis checked by a library number check (cli._number).
NUMERIC_SETTINGS = ["m", "epsilon", "k", "trials", "seed", "workers"]
NUMERIC_AXES = ["n", "theta", "m", "epsilon"]


def single_error_line(capsys):
    """Assert an empty stdout and one `titest: error:` line on stderr; return it."""
    out, err = capsys.readouterr()
    assert out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].startswith("titest: error:")
    return errors[0]


@pytest.fixture
def bsc_file(tmp_path, bsc25):
    return write_model(tmp_path, "bsc25.json", bsc25)


@pytest.fixture
def identity_file(tmp_path, identity4):
    return write_model(tmp_path, "identity4.json", identity4)


class TestModelCommand:
    def test_coin35(self, capsys):
        assert run_cli(["model", "--coin", "35", "0.4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["h_x"] == pytest.approx(5.129283017, abs=1e-8)
        assert doc["ti"] == pytest.approx(doc["h_x"] - doc["h_x_given_y"], abs=1e-8)
        assert doc["h_xy"] == pytest.approx(doc["h_y"] + doc["h_x_given_y"], abs=1e-8)

    def test_single_hypothesis_zero_information(self, capsys):
        assert run_cli(["model", "--coin", "1", "0.5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["h_x"] == 0.0
        assert doc["ti"] == 0.0

    def test_model_file(self, capsys, bsc_file):
        assert run_cli(["model", "--model-file", bsc_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ti"] == pytest.approx(0.1887218755, abs=1e-9)
        assert doc["h_x_given_y"] == pytest.approx(0.8112781245, abs=1e-9)

    @pytest.mark.parametrize("argv, want", [
        (["--coin", "10", "0.4"], (3.321928095, 2.637124832, 5.406894075, 2.769769243,
                                   0.5521588517)),
        (["--model-file", "BSC"], (1.0, 1.0, 1.811278124, 0.8112781245, 0.1887218755)),
    ], ids=["coin10", "bsc25"])
    def test_prints_the_five_model_fields(self, capsys, bsc_file, argv, want):
        assert run_cli(["model", *(bsc_file if a == "BSC" else a for a in argv)]) == 0
        names = ("h_x", "h_y", "h_xy", "h_x_given_y", "ti")
        assert capsys.readouterr().out == "{\n" + ",\n".join(
            f'  "{name}": {value!r}' for name, value in zip(names, want)
        ) + "\n}\n"

    def test_out_file_instead_of_stdout(self, capsys, tmp_path):
        out = tmp_path / "info.json"
        assert run_cli(["model", "--coin", "4", "0.5", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert "h_x" in json.loads(out.read_text())


# a number printed as negative zero: "-0", "-0.0", not "-0.05" or "1e-05"
NEGATIVE_ZERO = re.compile(r"-0(?:\.0*)?(?![\d.eE])")


@pytest.mark.parametrize("argv", [
    ["model", "--coin", "1", "0.4"],
    ["simulate", "--coin", "1", "0.4", "--m", "2", "--trials", "10"],
    ["sweep", "--grid", "GRID", "--trials", "10"],
], ids=["model", "simulate", "sweep"])
def test_zero_entropies_print_no_negative_zero(capsys, tmp_path, argv):
    # one hypothesis: H(X), the test information and the accuracy are all 0
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(
        {"n": [1], "theta": [0.4], "m": [2], "epsilon": [0.25], "rules": ["map"]}
    ))
    assert run_cli([str(path) if token == "GRID" else token for token in argv]) == 0
    out = capsys.readouterr().out
    assert "0" in out and not NEGATIVE_ZERO.search(out)


class TestDecideCommand:
    @pytest.mark.parametrize(
        "k,exp_map,exp_eap,exp_meap",
        [(3, 7, 10, 8), (9, 22, 27, 23), (13, 32, 28, 29)],
    )
    def test_coin35_triplets(self, capsys, k, exp_map, exp_eap, exp_meap):
        assert run_cli(["decide", "--coin", "35", "0.4", "--k", str(k), "--seed", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["k"] == k
        assert doc["map"] == exp_map
        assert doc["eap"] == exp_eap
        assert doc["meap"] == exp_meap
        assert 1 <= doc["sap"] <= 35

    def test_identity_all_rules_copy_observation(self, capsys, identity_file):
        assert run_cli(["decide", "--model-file", identity_file, "--k", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["map"] == doc["eap"] == doc["meap"] == doc["sap"] == 2

    def test_sap_seeded(self, capsys):
        run_cli(["decide", "--coin", "10", "0.4", "--k", "4", "--seed", "7"])
        first = json.loads(capsys.readouterr().out)["sap"]
        run_cli(["decide", "--coin", "10", "0.4", "--k", "4", "--seed", "7"])
        assert json.loads(capsys.readouterr().out)["sap"] == first

    def test_missing_k_is_usage_error(self, capsys):
        assert run_cli(["decide", "--coin", "10", "0.4"]) == 2

    def test_k_takes_any_integer_label(self, capsys, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({
            "hypothesis_values": [0, 1], "observation_values": [-(10**19), 1],
            "prior": [0.5, 0.5], "likelihood": [[0.75, 0.25], [0.25, 0.75]],
        }))
        assert run_cli(["decide", "--model-file", str(path), f"--k={-(10**19)}"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["k"] == -(10**19) and doc["map"] == 0
        # an integer that is not a label stays a one-line data error
        assert run_cli(["decide", "--model-file", str(path), f"--k={-(10**19) - 1}"]) == 3
        assert "unknown observation label" in single_error_line(capsys)


class TestSimulateCommand:
    def test_report_schema_with_checks(self, capsys):
        code = run_cli([
            "simulate", "--coin", "6", "0.4", "--m", "4",
            "--trials", "200", "--seed", "5",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["m"] == 4
        assert doc["trials"] == 200
        assert doc["rule"] == "sap"  # default
        assert doc["success_count"] + doc["failure_count"] == 200
        assert doc["model_spec"] == {"kind": "coin", "n": 6, "theta": 0.4}
        checks = doc["checks"]
        assert set(checks) == {"achievability", "converse"}
        assert isinstance(checks["achievability"]["holds"], bool)
        assert isinstance(checks["converse"]["holds"], bool)
        assert checks["converse"]["holds"] is True

    @pytest.mark.usefixtures("every_block_pays")
    def test_workers_do_not_change_output(self, tmp_path):
        outs = []
        for w, name in [(1, "a.json"), (3, "b.json")]:
            out = tmp_path / name
            code = run_cli([
                "simulate", "--coin", "6", "0.4", "--m", "4", "--trials", "300",
                "--seed", "5", "--workers", str(w), "--out", str(out),
            ])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"coin": [6, 0.4], "m": 2, "trials": 50, "seed": 3}))
        assert run_cli(["simulate", "--config", str(cfg), "--trials", "80"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["trials"] == 80  # flag beats config
        assert doc["m"] == 2        # config beats default
        assert doc["seed"] == 3


class TestSweepCommand:
    def grid(self, tmp_path, **axes):
        base = {"n": [5], "theta": [0.4], "m": [1, 2], "epsilon": [0.25],
                "rules": ["map", "sap"]}
        base.update(axes)
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(base))
        return str(path)

    def test_csv_default(self, capsys, tmp_path):
        code = run_cli(["sweep", "--grid", self.grid(tmp_path), "--trials", "50"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 1 + 4
        # rows sorted by (N, theta, M, epsilon, rule)
        rules = [line.split(",")[4] for line in lines[1:]]
        assert rules == ["map", "sap", "map", "sap"]

    def test_empty_axis_header_only(self, capsys, tmp_path):
        code = run_cli(["sweep", "--grid", self.grid(tmp_path, m=[]), "--trials", "10"])
        assert code == 0
        assert capsys.readouterr().out == ",".join(SWEEP_COLUMNS) + "\n"

    def test_json_format(self, capsys, tmp_path):
        code = run_cli([
            "sweep", "--grid", self.grid(tmp_path, m=[2], rules=["map"]),
            "--trials", "50", "--format", "json",
        ])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1
        assert set(rows[0]) == set(SWEEP_COLUMNS)

    @pytest.mark.usefixtures("every_block_pays")
    def test_workers_do_not_change_output(self, tmp_path):
        grid = self.grid(tmp_path, m=[1, 2])
        outs = []
        for w, name in [(1, "a.csv"), (4, "b.csv")]:
            out = tmp_path / name
            code = run_cli([
                "sweep", "--grid", grid, "--trials", "100", "--seed", "9",
                "--workers", str(w), "--out", str(out),
            ])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_each_coin_model_built_once(self, capsys, monkeypatch, tmp_path):
        built = []

        def counting_build(n, theta):
            built.append((n, theta))
            return build_coin_model(n, theta)

        monkeypatch.setattr("titest.cli.build_coin_model", counting_build)
        monkeypatch.setattr(experiment, "build_coin_model", counting_build)
        grid = self.grid(tmp_path, n=[7, 5], theta=[0.4, 0.3])
        assert run_cli(["sweep", "--grid", grid, "--trials", "10"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 16
        assert sorted(built) == [(5, 0.3), (5, 0.4), (7, 0.3), (7, 0.4)]

    def test_repeated_values_run_once(self, capsys, monkeypatch, tmp_path):
        calls = []
        map_experiments = experiment._map_experiments

        def recording(experiments, *args):
            calls.append(len(experiments))
            return map_experiments(experiments, *args)

        monkeypatch.setattr(experiment, "_map_experiments", recording)
        grid = self.grid(tmp_path, n=[3, 3], m=[2, 2], rules=["map", "MAP"])
        assert run_cli(["sweep", "--grid", grid, "--trials", "10"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 1
        assert calls == [1]

    def test_unknown_rule_in_grid(self, tmp_path):
        assert run_cli(["sweep", "--grid", self.grid(tmp_path, rules=["bogus"])]) == 2

    def test_missing_axis(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"n": [5], "theta": [0.4], "m": [1]}))
        assert run_cli(["sweep", "--grid", str(path)]) == 2

    def test_grid_required(self):
        assert run_cli(["sweep", "--trials", "10"]) == 2

    @pytest.mark.parametrize("name", ["convergence", "rule_comparison"])
    def test_committed_grid_runs(self, capsys, name):
        path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.json"
        grid = json.loads(path.read_text())
        argv = ["sweep", "--grid", str(path), "--trials", "50", "--seed", "2026"]
        assert run_cli(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        rows = [(int(r["N"]), int(r["M"]), r["rule"]) for r in csv.DictReader(lines)]
        assert rows == list(itertools.product(sorted(grid["n"]), sorted(grid["m"]), sorted(grid["rules"])))
        assert run_cli([*argv, "--format", "json"]) == 0
        # the README reads each point's gap to the ceiling as ti_bits - accuracy_bits
        docs = json.loads(capsys.readouterr().out)
        assert len(docs) == len(rows)
        assert all({"ti_bits", "accuracy_bits", "pf_hat"} <= set(doc) for doc in docs)


ACCEPTANCE_GRID = {
    "n": [5, 15, 25, 35], "theta": [0.4], "m": [1, 10], "epsilon": [0.25],
    "rules": ["map", "eap", "meap", "sap"],
}


@pytest.mark.parametrize("workers", ["2", "3"])
def test_small_runs_start_no_pool(monkeypatch, tmp_path, workers):
    # the acceptance band point (6e5 doubles) and the acceptance sweep at
    # 1,000 trials per point (3.96e5 doubles) hold too little work for a pool
    pools = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(ACCEPTANCE_GRID))
    for argv in (
        ["simulate", "--coin", "10", "0.4", "--rule", "sap", "--m", "10",
         "--epsilon", "0.25", "--trials", "20000", "--seed", "7"],
        ["sweep", "--grid", str(grid), "--trials", "1000", "--seed", "2026"],
    ):
        outs = []
        for w in ("1", workers):
            out = tmp_path / f"{argv[0]}-{w}.out"
            assert run_cli([*argv, "--workers", w, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
    assert pools == []


# Runs in a fresh interpreter: after `import titest` and after each call of
# cli.main, prints which of the watched modules sys.modules holds.
_IMPORT_PROBE = """
import json, sys
WATCHED = ("concurrent.futures", "multiprocessing", "logging", "socket", "subprocess", "csv")
def report(step):
    print(json.dumps([step, [m for m in WATCHED if m in sys.modules]]))
report("start")
import titest
from titest import cli
report("import")
grid, out = sys.argv[1:]
for argv in (
    ["model", "--coin", "10", "0.4"],
    ["decide", "--coin", "10", "0.4", "--k", "4", "--seed", "7"],
    ["enumerate", "--coin", "3", "0.4", "--m", "4", "--epsilon", "0.25", "--rule", "sap"],
    ["simulate", "--coin", "10", "0.4", "--rule", "sap", "--m", "10", "--epsilon", "0.25",
     "--trials", "20000", "--seed", "7", "--workers", "2"],
    ["sweep", "--grid", grid, "--trials", "1000", "--seed", "2026", "--workers", "2"],
):
    assert cli.main([*argv, "--out", out]) == 0
    report(argv[0])
"""


def test_one_block_calls_never_import_the_pool_stack(tmp_path):
    # a call of one block runs in process, so neither the import nor any
    # subcommand loads concurrent.futures and the multiprocessing stack under
    # it; csv loads only when a sweep renders its CSV report
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(ACCEPTANCE_GRID))
    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(repo / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(grid), str(tmp_path / "out")],
        check=True, capture_output=True, text=True, env=env,
    )
    steps = [json.loads(line) for line in done.stdout.splitlines()]
    assert steps == [
        ["start", []], ["import", []], ["model", []], ["decide", []], ["enumerate", []],
        ["simulate", []], ["sweep", ["csv"]],
    ]
    assert (tmp_path / "out").read_text().splitlines()[0] == ",".join(SWEEP_COLUMNS)


class TestEnumerateCommand:
    def test_bsc_census_and_fano(self, capsys, bsc_file):
        code = run_cli([
            "enumerate", "--model-file", bsc_file, "--m", "4",
            "--epsilon", "0.25", "--rule", "sap",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"census", "fano"}
        assert doc["census"]["m"] == 4
        assert doc["census"]["sizes"]["joint"] > 0
        assert doc["fano"]["holds"] is True

    def test_huge_epsilon_bounds_are_inf(self, capsys):
        assert run_cli(["enumerate", "--coin", "3", "0.4", "--m", "2", "--epsilon", "1000"]) == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        # strict JSON: an infinite bound prints as null, and holds keeps the verdict
        doc = json.loads(capsys.readouterr().out, parse_constant=refuse)
        bounds = {b["name"]: b for b in doc["census"]["bounds"]}
        assert bounds["x_count_upper"]["rhs"] is None and bounds["x_count_upper"]["holds"]
        assert bounds["x_count_lower_printed"]["lhs"] is None
        # (1 - eps) times an underflowed 2^{M(H - eps)} is -0.0, printed as 0.0
        assert math.copysign(1.0, bounds["x_count_lower"]["lhs"]) == 1.0

    def test_cap_exceeded(self, capsys):
        assert run_cli(["enumerate", "--coin", "10", "0.4", "--m", "10"]) == 3
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("m", ["10000", "30000000"])
    def test_cap_at_huge_m_is_one_short_line(self, capsys, m):
        t0 = time.perf_counter()
        assert run_cli(["enumerate", "--coin", "3", "0.4", "--m", m]) == 3
        assert time.perf_counter() - t0 < 1.0
        line = single_error_line(capsys)
        # the prior's walk, over 3 support points, is checked first
        assert f"= 3*C({int(m) + 3}, {int(m) - 1}) symbols exceed" in line and len(line) < 140

    @pytest.mark.parametrize("m, code", [(4471, 0), (4472, 3), (5000, 3), (200_000, 3)])
    def test_one_pair_model_is_bounded_by_two_to_the_m(self, capsys, tmp_path, m, code):
        # a walk over one point builds C(M+1, 2) symbols: 9,997,156 at M=4471
        path = tmp_path / "one.json"
        path.write_text(
            '{"hypothesis_values": [0], "observation_values": [0], '
            '"prior": [1.0], "likelihood": [[1.0]]}'
        )
        t0 = time.perf_counter()
        assert run_cli(["enumerate", "--model-file", str(path), "--m", str(m)]) == code
        assert time.perf_counter() - t0 < 1.0
        if code:
            assert f"= 1*C({m + 1}, {m - 1}) symbols exceed" in single_error_line(capsys)
        else:
            assert json.loads(capsys.readouterr().out)["census"]["sizes"]["joint"] == 1


class TestErrorPaths:
    def test_both_model_sources(self, bsc_file):
        assert run_cli(["model", "--coin", "6", "0.4", "--model-file", bsc_file]) == 2

    def test_neither_model_source(self):
        assert run_cli(["model"]) == 2

    def test_zero_trials(self):
        assert run_cli(["simulate", "--coin", "6", "0.4", "--trials", "0"]) == 2

    def test_bad_rule_flag(self):
        assert run_cli(["simulate", "--coin", "6", "0.4", "--rule", "nope"]) == 2

    def test_nonpositive_epsilon(self):
        assert run_cli(["simulate", "--coin", "6", "0.4", "--epsilon", "0"]) == 2

    def test_negative_seed(self):
        assert run_cli(["simulate", "--coin", "6", "0.4", "--seed", "-1"]) == 2

    def test_csv_on_non_sweep(self):
        assert run_cli(["model", "--coin", "6", "0.4", "--format", "csv"]) == 2

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"coin": [6, 0.4], "bogus": 1}))
        assert run_cli(["model", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("argv, flag", [
        (["sweep", "--grid", "GRID", "--coin", "3", "0.4"], "--coin"),
        (["sweep", "--grid", "GRID", "--m", "5"], "--m"),
        (["sweep", "--grid", "GRID", "--rule", "map"], "--rule"),
        (["sweep", "--grid", "GRID", "--epsilon", "0.1"], "--epsilon"),
        (["enumerate", "--coin", "3", "0.4", "--m", "2", "--seed", "5"], "--seed"),
        (["enumerate", "--coin", "3", "0.4", "--m", "2", "--workers", "2"], "--workers"),
        (["model", "--coin", "3", "0.4", "--rule", "map"], "--rule"),
        (["model", "--coin", "3", "0.4", "--m", "0"], "--m"),  # not --model-file 0
        (["decide", "--coin", "3", "0.4", "--k", "1", "--m", "4"], "--m"),
        (["simulate", "--coin", "3", "0.4", "--trials", "10", "--format", "json"], "--format"),
        (["simulate", "--coin", "3", "0.4", "--tri", "10"], "--tri"),
    ], ids=[
        "sweep-coin", "sweep-m", "sweep-rule", "sweep-epsilon", "enumerate-seed",
        "enumerate-workers", "model-rule", "model-m", "decide-m", "simulate-format",
        "simulate-abbreviation",
    ])
    def test_foreign_flag(self, capsys, tmp_path, argv, flag):
        assert run_cli(with_grid(tmp_path, argv)) == 2
        line = single_error_line(capsys)
        assert line.startswith("titest: error: unrecognized arguments") and flag in line.split()

    @pytest.mark.parametrize("argv, cfg", [
        (["simulate", "--coin", "3", "0.4", "--trials", "10"], {"grid": "g.json"}),
        (["model", "--coin", "3", "0.4"], {"trials": 5}),
        (["sweep", "--grid", "GRID", "--trials", "10"], {"coin": [3, 0.4]}),
    ], ids=["simulate-grid", "model-trials", "sweep-coin"])
    def test_foreign_config_key(self, capsys, tmp_path, argv, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli([*with_grid(tmp_path, argv), "--config", str(path)]) == 2
        assert repr(next(iter(cfg))) in single_error_line(capsys)

    @pytest.mark.parametrize("argv", [
        ["simulate", "--coin", "3", "0.4", "--m", "abc"],
        ["simulate", "--coin", "3", "0.4", "--seed", "x"],
        ["simulate", "--coin", "3", "0.4", "--m"],
        ["sweep", "--grid", "GRID", "--format", "xml"],
    ], ids=["m-abc", "seed-x", "m-no-value", "format-xml"])
    def test_flag_value_error_prefix(self, capsys, tmp_path, argv):
        assert run_cli(with_grid(tmp_path, argv)) == 2
        single_error_line(capsys)

    def test_non_utf8_config(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_bytes(b"\xff\xfe{}")
        assert run_cli(["model", "--coin", "3", "0.4", "--config", str(path)]) == 2
        assert "cannot read config file" in single_error_line(capsys)

    def test_config_not_object(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert run_cli(["model", "--config", str(cfg)]) == 2

    def test_missing_model_file(self, capsys):
        assert run_cli(["model", "--model-file", "/no/such/file.json"]) == 3
        assert "error" in capsys.readouterr().err

    def test_malformed_model_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"labels": [1, 2,')
        assert run_cli(["model", "--model-file", str(path)]) == 3
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_zero_evidence_decide(self, capsys, tmp_path):
        model = build_constant_model(2, y_dist=(1.0, 0.0))
        path = write_model(tmp_path, "degenerate.json", model)
        assert run_cli(["decide", "--model-file", path, "--k", "1"]) == 3
        assert "error" in capsys.readouterr().err

    def test_zero_evidence_decide_is_one_line(self, capsys, tmp_path):
        model = build_constant_model(2, y_dist=(1.0, 0.0))
        path = write_model(tmp_path, "degenerate.json", model)
        assert run_cli(["decide", "--model-file", path, "--k", "1"]) == 3
        assert "zero probability" in single_error_line(capsys)

    def test_unknown_observation_decide(self, capsys, bsc_file):
        assert run_cli(["decide", "--model-file", bsc_file, "--k", "99"]) == 3

    @pytest.mark.parametrize("command", [
        ["model"],
        ["simulate", "--m", "2", "--trials", "10"],
        ["enumerate", "--m", "2"],
    ])
    def test_nan_prior_model_file(self, capsys, tmp_path, command):
        path = tmp_path / "nan.json"
        path.write_text(
            '{"hypothesis_values": [0, 1], "observation_values": [0, 1], '
            '"prior": [NaN, 0.5], "likelihood": [[1, 0], [0, 1]]}'
        )
        assert run_cli([*command, "--model-file", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and "non-finite" in err

    # A refused --epsilon or --coin value, from the flag or the config file
    # (JSON text), is one line that starts with the library check's message
    # under the setting's name; a coin's N and theta ranges are the model's.
    @pytest.mark.parametrize("argv, cfg, want", [
        (["--coin", "6", "0.4", "--epsilon", "inf"], None, "--epsilon must be positive"),
        (["--coin", "6", "0.4", "--epsilon", "nan"], None, "--epsilon must be positive"),
        (["--coin", "6", "0.4", "--epsilon=-inf"], None, "--epsilon must be positive"),
        # two words that argparse alone would take for a flag and its value
        (["--coin", "6", "0.4", "--epsilon", "-inf"], None, "--epsilon must be positive"),
        (["--coin", "6", "0.4", "--epsilon", "-1e3"], None, "--epsilon must be positive"),
        (["--coin", "3", "-inf"], None, "theta must lie strictly inside (0, 1), got -inf"),
        (["--coin", "6", "0.4", "--epsilon", "abc"], None, "--epsilon must be a real number"),
        (["--coin", "6", "0.4", "--epsilon", "0"], None, "--epsilon must be positive"),
        (["--coin", "6", "0.4"], '{"epsilon": true}', "--epsilon must be a real number"),
        (["--coin", "6", "0.4"], '{"epsilon": 1e400}', "--epsilon must be positive"),
        (["--coin", "6", "0.4"], '{"epsilon": 0}', "--epsilon must be positive"),
        (["--coin", "3", "abc"], None, "coin THETA must be a real number, got 'abc'"),
        (["--coin", "0", "0.4"], None, "N must be >= 1, got 0"),
        (["--coin", "513", "0.4"], None, "N must be <= 512, got 513"),
    ], ids=[
        "inf", "nan", "-inf", "-inf-word", "-1e3-word", "coin-theta--inf-word", "abc", "zero",
        "config-true", "config-1e400", "config-zero", "coin-theta-abc", "coin-n-zero",
        "coin-n-above-cap",
    ])
    def test_non_finite_epsilon(self, capsys, tmp_path, argv, cfg, want):
        if cfg is not None:
            (tmp_path / "cfg.json").write_text(cfg)
            argv = [*argv, "--config", str(tmp_path / "cfg.json")]
        assert run_cli(["simulate", *argv]) == 2
        line = single_error_line(capsys)
        assert line.startswith(f"titest: error: {want}"), line

    # want: the one error line's message; a "grid file" one is a point the
    # grid's own checks pass and the coin model refuses, which sweep builds
    # before any trial runs
    @pytest.mark.parametrize("axes, want", [
        ({"n": [513]}, "grid file GRID: N must be <= 512, got 513"),
        ({"n": [0]}, "grid file GRID: N must be >= 1, got 0"),
        ({"theta": [1.5]}, "grid file GRID: theta must lie strictly inside (0, 1)"),
        ({"theta": [0.0]}, "grid file GRID: theta must lie strictly inside (0, 1)"),
        ({"n": 5}, "grid file GRID: axis 'n' must be a list"),
        ({"n": [1e400]}, "grid n must be an integer, got inf"),
        ({"theta": [10**400]}, "grid file GRID: theta must lie strictly inside (0, 1), got inf"),
        ({"m": [2, 10**9]}, "grid m must be <= 44739242, got 1000000000"),
        ({"n": [True]}, "grid n must be an integer, got True"),
        ({"theta": ["abc"]}, "grid theta must be a real number, got 'abc'"),
        ({"epsilon": [True]}, "grid epsilon must be a real number, got True"),
        ({"epsilon": [0]}, "grid epsilon must be positive and finite, got 0"),
        ({"epsilon": [1e400]}, "grid epsilon must be positive and finite, got inf"),
    ], ids=[
        "n-above-cap", "n-zero", "theta-above-one", "theta-zero", "n-not-list", "n-huge",
        "theta-huge", "m-above-trial-bound", "n-true", "theta-text", "epsilon-true",
        "epsilon-zero", "epsilon-huge",
    ])
    def test_bad_sweep_grid_value(self, capsys, monkeypatch, tmp_path, axes, want):
        runs = []
        monkeypatch.setattr(experiment, "_map_experiments", lambda *args: runs.append(args))
        grid = {"n": [5], "theta": [0.4], "m": [1], "epsilon": [0.25], "rules": ["sap"]}
        path = tmp_path / "grid.json"
        # json.dumps writes the float 1e400 (inf) as Infinity; spell it as a number
        path.write_text(json.dumps({**grid, **axes}).replace("Infinity", "1e400"))
        assert run_cli(["sweep", "--grid", str(path), "--trials", "10"]) == 2
        line = single_error_line(capsys)
        assert line.startswith("titest: error: " + want.replace("GRID", str(path))), line
        assert runs == []  # no experiment ran

    # cli._number, the adapter of every numeric setting and grid axis: a
    # JSON 5.0 is a count, the text 5.0 is not, and a JSON true is no number
    @pytest.mark.parametrize("check, value, want", [
        (cli.SETTINGS["seed"][1], 5.0, 5),
        (cli.SETTINGS["seed"][1], "5", 5),
        (cli.SETTINGS["seed"][1], "5.0", "must be an integer, got '5.0'"),
        (cli.SETTINGS["seed"][1], 5.5, "must be an integer, got 5.5"),
        (cli.SETTINGS["epsilon"][1], "0.5", 0.5),
        (cli.SETTINGS["epsilon"][1], 1, 1.0),
        *((cli.SETTINGS[name][1], True, "must be ") for name in NUMERIC_SETTINGS),
        *((cli.GRID_AXES[axis], True, "must be ") for axis in NUMERIC_AXES),
        (cli.SETTINGS["coin"][1], [True, 0.4], "must be an integer, got True"),
        (cli.SETTINGS["coin"][1], [3, True], "must be a real number, got True"),
    ], ids=[
        "seed-json-5.0", "seed-text-5", "seed-text-5.0", "seed-json-5.5", "epsilon-text",
        "epsilon-json-int", *(f"{name}-true" for name in NUMERIC_SETTINGS),
        *(f"grid-{axis}-true" for axis in NUMERIC_AXES), "coin-n-true", "coin-theta-true",
    ])
    def test_number_adapter(self, check, value, want):
        if not isinstance(want, str):
            got = check("--setting", value)
            assert got == want and type(got) is type(want)
            return
        with pytest.raises(ValueError) as info:
            check("--setting", value)
        assert want in str(info.value)

    @pytest.mark.parametrize("m", [experiment._MAX_TRIAL_M + 1, 10**9])
    def test_trial_m_above_the_row_bound(self, capsys, monkeypatch, m):
        # one SAP row at M = 10^9 would be 22.4 GiB of uniforms
        runs = []
        monkeypatch.setattr(experiment, "_map_experiments", lambda *args: runs.append(args))
        assert run_cli(["simulate", "--coin", "3", "0.4", "--m", str(m), "--trials", "1"]) == 2
        assert "--m must be <= 44739242" in single_error_line(capsys)
        assert runs == []

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("trials", [2**63, 10**400], ids=["2^63", "10^400"])
    def test_trials_above_maxsize(self, capsys, monkeypatch, tmp_path, trials, command, source):
        # no array can index that many trials: one usage error, not a traceback
        runs = []
        monkeypatch.setattr(experiment, "_map_experiments", lambda *args: runs.append(args))
        argv = ["simulate", "--coin", "3", "0.4", "--m", "1"] if command == "simulate" else [
            "sweep", "--grid", "GRID"
        ]
        if source == "flag":
            argv += ["--trials", str(trials)]
        else:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"trials": trials}))
            argv += ["--config", str(path)]
        assert run_cli(with_grid(tmp_path, argv)) == 2
        assert f"--trials must be <= {sys.maxsize}, got {trials}" in single_error_line(capsys)
        assert runs == []

    def test_out_of_memory_is_one_line(self, capsys, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 931. GiB for an array")

        monkeypatch.setattr(experiment, "_map_experiments", no_memory)
        assert run_cli(["simulate", "--coin", "3", "0.4", "--m", "1", "--trials", "2"]) == 3
        assert single_error_line(capsys) == (
            "titest: error: out of memory: Unable to allocate 931. GiB for an array"
        )

    @pytest.mark.parametrize("error, code", [
        (ValueError("boom"), 2), (InvalidDistributionError("boom"), 3),
    ], ids=["value-error", "invalid-distribution"])
    def test_library_refusal_exit_code(self, capsys, monkeypatch, error, code):
        # any check's ValueError is a usage error, but an InvalidDistributionError,
        # although a ValueError, is a data error
        def refuse(*args):
            raise error

        monkeypatch.setattr(experiment, "_map_experiments", refuse)
        assert run_cli(["simulate", "--coin", "3", "0.4", "--m", "1", "--trials", "2"]) == code
        assert single_error_line(capsys) == "titest: error: boom"

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is Linux's")
    def test_trials_that_cannot_fit_exit_3(self, tmp_path):
        # 10^12 trials need 931 GiB for their success flags alone; under a
        # 3 GB address-space limit on the child, numpy refuses the allocation
        import resource

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (3_000_000_000, 3_000_000_000))

        repo = Path(__file__).resolve().parents[1]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(repo / "src"), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "titest.cli", "simulate", "--coin", "3", "0.4",
             "--m", "1", "--trials", str(10**12)],
            capture_output=True, text=True, env=env, cwd=tmp_path, preexec_fn=limit_memory,
            timeout=60,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith("titest: error: out of memory: Unable to allocate")
        assert proc.stderr.count("\n") == 1

    def test_huge_config_number(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"coin": [6, 0.4], "seed": 1e400}')
        assert run_cli(["simulate", "--config", str(cfg), "--trials", "10"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err and "--seed" in err

    @pytest.mark.parametrize("command, cfg", [
        ("model", {"model_file": 3}),
        ("simulate", {"model_file": False}),
        ("sweep", {"grid": True}),
    ], ids=["model-file-number", "model-file-false", "grid-true"])
    def test_non_string_config_path(self, capsys, tmp_path, command, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli([command, "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert sum(line.startswith("titest: error:") for line in err.splitlines()) == 1

    @pytest.mark.parametrize("coin", [[3], [3, 0.4, 1], "3 0.4"], ids=["one", "three", "string"])
    def test_config_coin_takes_two_values(self, capsys, tmp_path, coin):
        # the flag's nargs=2 refuses these before the check; a config reaches it
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"coin": coin}))
        assert run_cli(["model", "--config", str(path)]) == 2
        assert "--coin takes exactly two values" in single_error_line(capsys)

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_out_is_refused(self, capsys, tmp_path, source):
        # "" is a path, the current directory, not a request for stdout
        argv = ["model", "--coin", "3", "0.4"]
        if source == "flag":
            argv += ["--out", ""]
        else:
            (tmp_path / "cfg.json").write_text(json.dumps({"out": ""}))
            argv += ["--config", str(tmp_path / "cfg.json")]
        assert run_cli(argv) == 2
        assert "--out" in single_error_line(capsys)

    @pytest.mark.parametrize("cfg", [
        {"coin": [6, 0.4], "m": True, "trials": True},
        {"coin": [6, 0.4], "epsilon": True},
    ], ids=["m-and-trials", "epsilon"])
    def test_boolean_config_number(self, capsys, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["simulate", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert sum(line.startswith("titest: error:") for line in err.splitlines()) == 1

    @pytest.mark.parametrize("fmt", ["xml", True, ["csv"]], ids=["xml", "true", "list"])
    def test_bad_config_format(self, capsys, monkeypatch, tmp_path, fmt):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(
            {"n": [5], "theta": [0.4], "m": [1], "epsilon": [0.25], "rules": ["sap"]}
        ))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": fmt}))

        def no_sweep(*args, **kwargs):
            raise AssertionError("the grid ran before the format was refused")

        monkeypatch.setattr("titest.cli.sweep", no_sweep)
        code = run_cli(["sweep", "--grid", str(grid), "--config", str(cfg), "--trials", "10"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert sum(line.startswith("titest: error:") for line in err.splitlines()) == 1
        assert "--format" in err

    @pytest.mark.parametrize("target", ["directory", "missing-parent"])
    @pytest.mark.parametrize("command", [
        ["model", "--coin", "4", "0.5"],
        ["sweep", "--trials", "10"],
    ], ids=["model", "sweep"])
    def test_out_not_writable(self, capsys, monkeypatch, tmp_path, command, target):
        out = tmp_path if target == "directory" else tmp_path / "missing" / "out.txt"
        if command[0] == "sweep":
            grid = tmp_path / "grid.json"
            grid.write_text(json.dumps(
                {"n": [5], "theta": [0.4], "m": [1], "epsilon": [0.25], "rules": ["sap"]}
            ))
            command = [*command, "--grid", str(grid)]

            def no_sweep(*args, **kwargs):
                raise AssertionError("the grid ran before --out was refused")

            monkeypatch.setattr("titest.cli.sweep", no_sweep)
        assert run_cli([*command, "--out", str(out)]) == 2
        out_text, err = capsys.readouterr()
        assert out_text == "" and "Traceback" not in err
        assert sum(line.startswith("titest: error:") for line in err.splitlines()) == 1
        assert "--out" in err

    def test_out_write_failure(self, capsys, monkeypatch, tmp_path):
        def full_disk(self, text):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Path, "write_text", full_disk)
        assert run_cli(["model", "--coin", "4", "0.5", "--out", str(tmp_path / "x.json")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.startswith("titest: error:")

    def test_huge_model_file_label(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(
            '{"hypothesis_values": [1e400, 1], "observation_values": [0, 1], '
            '"prior": [0.5, 0.5], "likelihood": [[1, 0], [0, 1]]}'
        )
        assert run_cli(["model", "--model-file", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and "labels must be integers" in err

    @pytest.mark.parametrize(
        "text",
        [
            '{"hypothesis_values": [0], "observation_values": [0], '
            '"prior": [1' + "0" * 400 + '], "likelihood": [[1]]}',
            '{"hypothesis_values": 5, "observation_values": [0], '
            '"prior": [1], "likelihood": [[1]]}',
            "[1, 2]",
        ],
        ids=["huge-integer-prior", "number-as-alphabet", "not-an-object"],
    )
    def test_malformed_model_document(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert run_cli(["model", "--model-file", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.startswith("titest: error:")

    def test_bad_enum_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("TI_TEST_ENUM_CAP", "abc")
        assert run_cli(["enumerate", "--coin", "3", "0.4", "--m", "2"]) in (2, 3)
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and "TI_TEST_ENUM_CAP" in err


# Per sweep grid axis: values that run (M <= 64 keeps every example small)
# and values that must be refused.
GRID_AXES = {
    "n": (st.integers(1, 6), st.sampled_from([0, -1, 2.5, 513, 10**30, 1e400])),
    "theta": (
        st.floats(0.05, 0.95),
        st.sampled_from([0.0, 1.0, -0.5, 1.5, math.nan, math.inf, -math.inf, 10**400]),
    ),
    "m": (st.integers(1, 64), st.sampled_from([0, -3, 1.5, math.nan, math.inf])),
    "epsilon": (
        st.sampled_from([0.1, 0.25, 1.0]), st.sampled_from([0.0, -0.25, math.nan, math.inf])
    ),
    "rules": (
        st.sampled_from(["map", "eap", "meap", "sap", "SAP"]), st.sampled_from(["bogus", 3])
    ),
}
JSON_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5), st.text(max_size=3),
    st.lists(st.integers(0, 5), max_size=2),
    st.lists(st.lists(st.integers(1, 5), max_size=2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 5), max_size=1),
)


@st.composite
def sweep_grid_docs(draw):
    """A grid document: a valid grid with up to two axes dropped, replaced by
    a non-list, or given a bad element, or not a JSON object at all."""
    doc = {axis: draw(st.lists(valid, max_size=2)) for axis, (valid, _) in GRID_AXES.items()}
    for axis in draw(st.lists(st.sampled_from(sorted(GRID_AXES)), max_size=2, unique=True)):
        bad = st.one_of(GRID_AXES[axis][1], JSON_JUNK)
        damage = draw(st.sampled_from(["drop", "scalar", "element"]))
        if damage == "drop":
            del doc[axis]
        elif damage == "scalar":
            doc[axis] = draw(bad)
        else:
            doc[axis].insert(draw(st.integers(0, len(doc[axis]))), draw(bad))
    return draw(st.one_of(st.just(doc), JSON_JUNK))


class TestSweepGridFuzz:
    @settings(max_examples=150, deadline=None)
    @given(doc=sweep_grid_docs(), trials=st.integers(1, 3))
    def test_any_grid_exits_cleanly(self, tmp_path_factory, doc, trials):
        path = tmp_path_factory.mktemp("grid") / "grid.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run_cli(["sweep", "--grid", str(path), "--trials", str(trials)])
        assert code in (0, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            assert out.getvalue().splitlines()[0] == ",".join(SWEEP_COLUMNS)
        else:
            assert out.getvalue() == ""
            lines = err.getvalue().splitlines()
            assert sum(line.startswith("titest: error:") for line in lines) == 1


# Non-numeric text only: a digit string is a valid count to cli._number.
WORD = st.text(alphabet="abxyz ", max_size=3)
CONFIG_JUNK = st.one_of(
    st.none(), st.booleans(), WORD, st.sampled_from([math.nan, math.inf, -math.inf]),
    st.lists(st.integers(0, 5), max_size=2), st.lists(st.lists(st.integers(1, 5), max_size=2), max_size=2),
    st.dictionaries(WORD, st.integers(0, 5), max_size=1),
)
RULE_NAMES = st.sampled_from(["map", "eap", "meap", "sap", "SAP"])

# Each subcommand's settings (flag names without the dashes, and config keys);
# any other setting is foreign to it.
OWN_SETTINGS = {
    "model": {"coin", "model_file", "out"},
    "decide": {"coin", "model_file", "k", "seed", "out"},
    "simulate": {"coin", "model_file", "rule", "m", "epsilon", "trials", "seed", "workers", "out"},
    "sweep": {"grid", "trials", "seed", "workers", "format", "out"},
    "enumerate": {"coin", "model_file", "rule", "m", "epsilon", "out"},
}
ALL_SETTINGS = set().union(*OWN_SETTINGS.values())


def run_flag_values(max_m):
    """Per flag other than the model source and --out: (valid, invalid)
    argument strings. Valid counts stay small; no worker count starts a pool.
    "GRID" stands for a one-point grid file."""
    return {
        "--rule": (RULE_NAMES, st.sampled_from(["bogus", ""])),
        "--m": (st.integers(1, max_m).map(str), st.sampled_from(["0", "-3", "1.5", "-1e3", "abc"])),
        "--epsilon": (
            st.sampled_from(["0.1", "0.25", "1.0"]),
            st.sampled_from(["0", "-0.25", "nan", "inf", "-inf", "1e400", "x"]),
        ),
        "--seed": (
            st.integers(0, 2**70).map(str), st.sampled_from(["-1", "2.5", "x"])
        ),
        "--workers": (st.just("1"), st.sampled_from(["0", "-1", "x"])),
        "--format": (st.sampled_from(["json", "csv"]), st.sampled_from(["xml", ""])),
        "--trials": (st.integers(1, 3).map(str), st.sampled_from(["0", "-2", "x"])),
        "--k": (st.integers(0, 3).map(str), st.sampled_from(["x", "1.5", ""])),
        "--grid": (st.just("GRID"), st.sampled_from(["MISSING", "BROKEN", "DIR"])),
    }


def config_values(max_m):
    """Per config key: (valid, invalid) JSON values. "MODEL", "MISSING", "DIR"
    and "GRID" stand for a model file, a missing file, a directory and a
    one-point grid file."""
    return {
        "coin": (
            st.tuples(st.integers(1, 12), st.floats(0.05, 0.95)).map(list),
            st.sampled_from([
                [0, 0.4], [513, 0.4], [2.5, 0.4], [10**30, 0.4], [True, 0.4], [3, 0.0],
                [3, 1.5], [3, math.nan], [3, math.inf], [3, 10**400], [3], [[3], 0.4], "3 0.4",
            ]),
        ),
        "model_file": (st.just("MODEL"), st.sampled_from(["MISSING", "DIR", 3, False, []])),
        "rule": (RULE_NAMES, st.sampled_from(["bogus", 3])),
        "m": (st.integers(1, max_m), st.sampled_from([0, -3, 1.5, math.nan, math.inf, True])),
        "epsilon": (st.sampled_from([0.1, 0.25, 1.0]), st.sampled_from([0.0, -0.25, True])),
        "seed": (st.integers(0, 2**70), st.sampled_from([-1, 1.5, True])),
        "workers": (st.just(1), st.sampled_from([0, -1, 2.5, True])),
        "trials": (st.integers(1, 3), st.sampled_from([0, -1, 1.5, True, 10**400])),
        "format": (st.sampled_from(["json", "csv"]), st.sampled_from(["xml", True, 3])),
        "out": (st.none(), st.sampled_from(["DIR", 3, True, [], {"a": 1}, math.nan])),
        "k": (st.integers(0, 3), st.sampled_from([1.5, True, "x"])),
        "grid": (st.just("GRID"), st.sampled_from(["MISSING", "DIR", 3, True])),
    }


def maybe_bad(draw, valid, invalid):
    """A valid value three times in four, so that a quarter of the examples
    still run end to end."""
    return draw(invalid if draw(st.integers(0, 3)) == 0 else valid)


@st.composite
def cli_invocations(draw, command, max_m):
    """(argv, config document or None) for one command: a model source given
    by --coin, --model-file, both or neither (for a command that takes one),
    a subset of the command's other flags, maybe one flag of another command,
    and maybe a --config document, each value valid or not."""
    own = OWN_SETTINGS[command]
    argv = [command]
    source = None
    if "coin" in own:
        source = maybe_bad(
            draw, st.sampled_from(["coin", "model"]), st.sampled_from(["both", "none"])
        )
        if source in ("coin", "both"):
            n = maybe_bad(draw, st.integers(1, 12).map(str), st.sampled_from(["0", "513", "2.5", "x"]))
            theta = maybe_bad(
                draw, st.floats(0.05, 0.95).map(repr), st.sampled_from(["0", "1", "nan", "1e400", "x"])
            )
            argv += ["--coin", n, theta]
        if source in ("model", "both"):
            argv += ["--model-file", maybe_bad(draw, st.just("MODEL"), st.sampled_from(["MISSING", "BROKEN"]))]
    flags = run_flag_values(max_m)
    for flag, (valid, invalid) in flags.items():
        if flag[2:] in own and draw(st.booleans()):
            argv += [flag, maybe_bad(draw, valid, invalid)]
    if draw(st.integers(0, 5)) == 0:
        argv += ["--out", draw(st.sampled_from(["OUTFILE", "DIR"]))]
    if draw(st.integers(0, 3)) == 0:
        foreign = draw(st.sampled_from(sorted(ALL_SETTINGS - own)))
        if foreign == "coin":
            argv += ["--coin", "3", "0.4"]
        elif foreign == "model_file":
            argv += ["--model-file", "MODEL"]
        else:
            argv += [f"--{foreign}", draw(flags[f"--{foreign}"][0])]
    doc = None
    if draw(st.booleans()):
        values = config_values(max_m)
        keys = sorted(own - {"coin", "model_file"}) if source in ("coin", "model") else sorted(own)
        if source in ("coin", "model") and not maybe_bad(draw, st.just(True), st.just(False)):
            keys.append(draw(st.sampled_from(["coin", "model_file"])))  # a second model source
        keys = draw(st.lists(st.sampled_from(keys), max_size=6, unique=True))
        if draw(st.integers(0, 3)) == 0:
            keys.append(draw(st.sampled_from(sorted(ALL_SETTINGS - own))))
        # any other string "out" would be written to, as a relative path
        doc = {
            key: maybe_bad(draw, valid, invalid if key == "out" else st.one_of(invalid, CONFIG_JUNK))
            for key, (valid, invalid) in ((k, values[k]) for k in keys)
        }
        if draw(st.integers(0, 9)) == 0:
            doc["bogus"] = 1
        if draw(st.integers(0, 9)) == 0:
            doc = draw(CONFIG_JUNK)
    return argv, doc


class TestRunFlagsFuzz:
    @pytest.mark.parametrize("command, max_m", [
        ("simulate", 64), ("enumerate", 6), ("model", 64), ("decide", 64), ("sweep", 64),
    ])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_any_flags_and_config_exit_cleanly(self, tmp_path_factory, bsc25, command, max_m, data):
        argv, doc = data.draw(cli_invocations(command, max_m))
        tmp = tmp_path_factory.mktemp("run")
        model = write_model(tmp, "model.json", bsc25)
        (tmp / "broken.json").write_text('{"prior": [0.5, 0.5]')
        (tmp / "grid.json").write_text(json.dumps(
            {"n": [3], "theta": [0.4], "m": [2], "epsilon": [0.25], "rules": ["sap"]}
        ))
        paths = {
            "MODEL": model, "MISSING": str(tmp / "missing.json"), "BROKEN": str(tmp / "broken.json"),
            "DIR": str(tmp), "OUTFILE": str(tmp / "out.json"), "GRID": str(tmp / "grid.json"),
        }
        argv = [paths.get(token, token) for token in argv]
        if doc is not None:
            if isinstance(doc, dict):
                doc = {k: paths.get(v, v) if isinstance(v, str) else v for k, v in doc.items()}
            (tmp / "config.json").write_text(json.dumps(doc))
            argv += ["--config", str(tmp / "config.json")]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run_cli(argv)
        assert code in (0, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            written = paths["OUTFILE"] in argv
            text = Path(paths["OUTFILE"]).read_text() if written else out.getvalue()
            if command == "sweep" and not text.startswith("["):
                assert text.splitlines()[0] == ",".join(SWEEP_COLUMNS)
            else:
                assert isinstance(json.loads(text), list if command == "sweep" else dict)
        else:
            assert out.getvalue() == ""
            lines = err.getvalue().splitlines()
            assert sum(line.startswith("titest: error:") for line in lines) == 1


class TestSettingsTable:
    @pytest.mark.parametrize("command", sorted(OWN_SETTINGS))
    def test_help_lists_own_settings(self, capsys, command):
        assert run_cli([command, "--help"]) == 0
        flags = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        own = {"--" + name.replace("_", "-") for name in OWN_SETTINGS[command]}
        assert flags == own | {"--config", "--help"}

    def test_readme_cli_examples_run(self, monkeypatch, tmp_path, bsc25, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        script = section.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
        commands = [shlex.split(line)[1:] for line in script.splitlines() if line.startswith("titest ")]
        assert sorted(argv[0] for argv in commands) == sorted(OWN_SETTINGS)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "grid.json").write_text(section.split("```json\n", 1)[1].split("```", 1)[0])
        write_model(tmp_path, "bsc25.json", bsc25)
        for argv in commands:
            assert run_cli(argv) == 0, argv
            capsys.readouterr()


class TestInstalledEntryPoint:
    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "titest.cli", "model", "--coin", "4", "0.5"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["h_x"] == 2.0


def old_main(argv):
    """The reference parse: the top-level parser with all five subparsers,
    flags on the one argv names, then main's checks of foreign flags and
    settings; the parse every call made before it built only its own parser."""
    parser = cli._Parser(prog="titest", description=cli._build_parser(None).description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, names) in cli.COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.set_defaults(parser=p)
        if argv and name == argv[0]:
            for setting in names:
                p.add_argument(cli._flag(setting), **cli.SETTINGS[setting][2])
            p.add_argument("--config", metavar="PATH",
                           help="flat JSON config file holding settings of this subcommand")
    args, foreign = parser.parse_known_args(argv)
    if foreign:
        args.parser.error(f"unrecognized arguments: {' '.join(foreign)}")
    func, _, names = cli.COMMANDS[args.command]
    try:
        return func(cli._resolve(args, names))
    except ValueError as e:
        args.parser.error(str(e))


class TestParserText:
    @pytest.mark.parametrize("argv", [
        *([command, *rest] for command in cli.COMMANDS for rest in (
            ["--help"], ["-h"], ["--bogus", "1"], [], ["--he"],
        )),
        ["--help"], ["-h"], [], ["bogus"], ["-x", "simulate"], ["--config", "a", "simulate"],
        ["-x", "simulate", "--help"], ["sim"],
    ], ids=" ".join)
    def test_help_usage_and_errors_match_the_full_parser(self, capsys, argv):
        """Each text and exit code is the one the full parser gives; `[cmd]`
        alone misses a required setting (a model source, or sweep's grid)."""
        outcomes = []
        for call in (old_main, main):
            try:
                code = call(argv)
            except SystemExit as e:
                code = e.code
            outcomes.append((code, *capsys.readouterr()))
        assert outcomes[1] == outcomes[0]
        assert outcomes[0][0] in (0, 2)


def special_variants(record):
    """The record, then the record with each field in turn None, inf, -inf, NaN or -0.0."""
    yield record
    for f in dataclasses.fields(record):
        for value in (None, math.inf, -math.inf, math.nan, -0.0):
            yield dataclasses.replace(record, **{f.name: value})


class TestRecordRendering:
    """Rendering a record walks its fields; the bytes are those of its to_json_dict()."""

    def records(self, bsc25):
        params = TypicalityParams(epsilon=0.25, extension=3)
        report = run_experiment(bsc25, DecisionRule.SAP, params, 50, 1, model_spec={"kind": "x"})
        zero = dataclasses.replace(report, success_count=0, zero_success=True, h_hat_bits=None,
                                   h_hat_halfwidth=None, alt_h_hat_bits=None,
                                   accuracy_hat_bits=None)
        census = typical_set_census(bsc25, TypicalityParams(epsilon=1000.0, extension=3))
        return [
            report, zero, achievability_check(report), achievability_check(zero),
            converse_check(report), converse_check(zero), census,
            dataclasses.replace(census, masses={"x": -0.0, "y": math.nan}, bounds=[
                dataclasses.replace(b, lhs=v, rhs=-0.0)
                for b, v in zip(census.bounds, [None, math.inf, math.nan, -0.0] * 9)
            ]),
            *census.bounds,
            extended_fano_check(bsc25, DecisionRule.SAP, params),
        ]

    def test_record_renders_as_its_json_dict(self, bsc25):
        kinds = set()
        for record in self.records(bsc25):
            kinds.add(type(record).__name__)
            for variant in special_variants(record):
                doc = variant.to_json_dict() if hasattr(variant, "to_json_dict") \
                    else dataclasses.asdict(variant)
                assert cli._sig10(variant) == cli._sig10(doc)
                assert cli._render_json(variant) == cli._render_json(doc)
        assert kinds == {"ExperimentReport", "AchievabilityRecord", "ConverseRecord",
                         "CensusReport", "CensusBound", "FanoRecord"}

    def test_report_fields_render_as_its_json_dict(self, bsc25):
        # simulate renders the report's own attributes, then its checks
        for report in self.records(bsc25)[:2]:
            for variant in special_variants(report):
                assert cli._render_json(vars(variant)) == cli._render_json(variant.to_json_dict())
