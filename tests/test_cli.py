import json
import os
import subprocess
import sys

import pytest

from riglab import cli, scaling
from riglab.errors import ConfigError
from riglab.graphs import Graph, to_edge_list_text, write_edge_list
from riglab.models import (
    BinomialRigParams,
    ErParams,
    IntersectionSpec,
    RggParams,
    UniformRigParams,
    sample_model,
)
from riglab.montecarlo import SCHEMA, describe_model
from riglab.rng import RngStream

from conftest import assert_violates_robustness


def _refuse(token):
    raise ValueError(f"{token} is not JSON")


def _strict_json(text):
    """RFC 8259 JSON: the bare tokens ``Infinity`` and ``NaN`` raise."""
    return json.loads(text, parse_constant=_refuse)


def _write_config(tmp_path, **doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema": SCHEMA, **doc}))
    return str(path)


ER_MODEL = {"family": "er", "n": 30, "q": 0.2}
KCONN = {"kind": "kconn", "k": 1}


class TestExperimentOutputs:
    def test_workers_do_not_change_outputs(self, tmp_path):
        cfg = _write_config(tmp_path, trials=8, seed=5, model=ER_MODEL, property=KCONN)
        outputs = []
        for workers in (1, 2):
            csv, summary = tmp_path / f"t{workers}.csv", tmp_path / f"s{workers}.json"
            assert cli.main([
                "experiment", "-c", cfg, "--workers", str(workers),
                "--csv", str(csv), "--summary", str(summary),
            ]) == 0
            outputs.append((csv.read_bytes(), summary.read_bytes()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0].count(b"\n") == 9  # header plus one row per trial


class TestExitCodes:
    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, trials=2, model=ER_MODEL, property=KCONN, colour=1)
        assert cli.main(["experiment", "-c", cfg]) == 2
        assert "colour" in capsys.readouterr().err

    def test_unknown_nested_key(self, tmp_path):
        cfg = _write_config(tmp_path, trials=2, model={**ER_MODEL, "p": 0.1}, property=KCONN)
        assert cli.main(["experiment", "-c", cfg]) == 2

    def test_missing_model_parameter(self, tmp_path):
        assert cli.main(["generate", "--model", "urig", "--n", "10", "--P", "50"]) == 2
        assert cli.main(["solve", "--family", "urig", "--property", "kconn",
                         "--n", "100", "--deviation", "0"]) == 2
        for model in ({"family": "urig", "n": 30, "P": 50}, {"family": "er", "q": 0.5}):
            cfg = _write_config(tmp_path, trials=2, model=model, property=KCONN)
            assert cli.main(["experiment", "-c", cfg]) == 2

    def test_hamilton_search_inconclusive_past_enumeration_cap(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, trials=1, workers=1, seed=0,
                            model={"family": "er", "n": 30, "q": 0.5},
                            property={"kind": "hamilton"})
        assert cli.main(["experiment", "-c", cfg, "--search-steps", "1"]) == 3
        err = capsys.readouterr().err
        assert "inconclusive" in err
        assert f"trial 0 (stream seed {RngStream(0, 0).key()})" in err
        assert cli.main(["experiment", "-c", cfg]) == 0

    def test_hamilton_experiment_past_the_first_anchors(self, tmp_path):
        # trial 24 is Hamiltonian but defeats the first three search anchors
        cfg = _write_config(tmp_path, trials=30, workers=1, seed=17,
                            model={"family": "er", "n": 60}, property={"kind": "hamilton"},
                            solve={"deviation": 2.0})
        assert cli.main(["experiment", "-c", cfg]) == 0

    def test_search_steps_off_hamilton_experiment(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, trials=2, workers=1, model=ER_MODEL, property=KCONN,
                            budget={"search_steps": 5})
        assert cli.main(["experiment", "-c", cfg]) == 2
        assert "budget.search_steps" in capsys.readouterr().err

    def test_search_steps_off_hamilton_sweep(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        cfg = _write_config(tmp_path, trials=2, workers=1, model=ER_MODEL, property=KCONN,
                            sweep={"axis": "deviation", "values": [0]},
                            output={"summary": str(out)})
        assert cli.main(["sweep", "-c", cfg, "--search-steps", "5"]) == 2
        captured = capsys.readouterr()
        assert "--search-steps" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("named, change", [
        ("key 'q' at $.model", {"model": {**ER_MODEL, "q": "abc"}}),
        ("key 'trials' at $", {"trials": "x"}),
        ("key 'kind' at $.property", {"property": {"k": 1}}),
        ("$.model must be an object", {"model": [30]}),
        ("key 'search_steps' at $.budget", {"budget": {"search_steps": [1]}}),
        ("key 'values' at $.sweep", {"sweep": {"axis": "deviation", "values": "0,1"}}),
        ("key 'trials' at $", {"trials": 2.9}),
        ("key 'seed' at $", {"seed": True}),
        ("key 'n' at $.model", {"model": {**ER_MODEL, "n": "50"}}),
        ("key 'q' at $.model", {"model": {**ER_MODEL, "q": True}}),
        ("key 'timing' at $.output", {"output": {"timing": "no"}}),
    ], ids=["q", "trials", "kind", "model", "search_steps", "values", "trials_float",
            "seed_bool", "n_string", "q_bool", "timing_string"])
    def test_malformed_config_value(self, tmp_path, capsys, named, change):
        doc = {"trials": 2, "workers": 1, "model": ER_MODEL, "property": KCONN, **change}
        cfg = _write_config(tmp_path, **doc)
        assert cli.main(["experiment", "-c", cfg]) == 2
        assert named in capsys.readouterr().err

    def test_non_numeric_sweep_values_flag(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, trials=2, workers=1, model=ER_MODEL, property=KCONN)
        assert cli.main(["sweep", "-c", cfg, "--axis", "deviation", "--values", "a,b"]) == 2
        assert "--values" in capsys.readouterr().err

    @pytest.mark.parametrize("axis, values, flag, named", [
        ("n", ["1e2", 60], None, "key 'values' at $.sweep"),
        ("n", [True, 60], None, "key 'values' at $.sweep"),
        ("n", [60.7], None, "n values must be whole numbers"),
        ("k", None, "1.5,2", "k values must be whole numbers"),
    ], ids=["string", "bool", "fractional_n", "fractional_k_flag"])
    def test_bad_sweep_values(self, tmp_path, capsys, axis, values, flag, named):
        out = tmp_path / "s.json"
        sweep = {"axis": axis} if values is None else {"axis": axis, "values": values}
        cfg = _write_config(tmp_path, trials=2, workers=1, model=ER_MODEL, property=KCONN,
                            sweep=sweep, output={"summary": str(out)})
        argv = ["sweep", "-c", cfg] + ([] if flag is None else ["--values", flag])
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert named in captured.err
        assert captured.out == "" and not out.exists()  # no point ran

    def test_sweep_of_a_pair_without_law(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        cfg = _write_config(tmp_path, trials=2, workers=1, property={"kind": "hamilton"},
                            model={"family": "urig_er", "n": 30, "K": 8, "P": 200},
                            sweep={"axis": "deviation", "values": [0, 1]},
                            output={"summary": str(out)})
        assert cli.main(["sweep", "-c", cfg]) == 2
        assert "no hamilton_cycle law for urig_er" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, named", [
        (["solve", "--family", "urig", "--property", "kconn", "--n", "500", "--P", "5000",
          "--deviation", "nan"], "deviation must be a number"),
        (["solve", "--family", "er", "--property", "kconn", "--n", "100",
          "--deviation", "nan"], "deviation must be a number"),
        (["predict", "--family", "er", "--property", "kconn", "--deviation", "nan"],
         "deviation must be a number"),
        (["predict", "--family", "er", "--property", "kconn", "--n", "100", "--q", "1.5"],
         "q must lie in [0, 1]"),
        (["predict", "--family", "er", "--property", "kconn", "--n", "100", "--q", "nan"],
         "q must lie in [0, 1]"),
        (["predict", "--family", "brig", "--property", "kconn", "--n", "100", "--t", "2",
          "--P", "100"], "t must lie in [0, 1]"),
        (["predict", "--family", "urig", "--property", "kconn", "--n", "100", "--K", "5",
          "--P", "0"], "need 1 <= s <= K <= P"),
        (["solve", "--family", "brig", "--property", "kconn", "--n", "100", "--P", "0",
          "--deviation", "1"], "P must be >= 1"),
    ], ids=["solve_urig_nan", "solve_er_nan", "predict_nan", "predict_q_past_one",
            "predict_q_nan", "predict_t_past_one", "predict_empty_pool", "solve_empty_pool"])
    def test_law_query_rejected(self, capsys, argv, named):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert named in captured.err and captured.out == ""

    def test_nan_solve_deviation_in_config(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, trials=2, workers=1, property=KCONN,
                            model={"family": "urig", "n": 50, "P": 1000},
                            solve={"deviation": float("nan")})
        assert cli.main(["experiment", "-c", cfg]) == 2
        assert "deviation must be a number" in capsys.readouterr().err

    def test_nan_sweep_point_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        cfg = _write_config(tmp_path, trials=2, workers=1, property=KCONN,
                            model={"family": "urig", "n": 50, "P": 1000},
                            sweep={"axis": "deviation", "values": [0, float("nan")]},
                            output={"summary": str(out)})
        assert cli.main(["sweep", "-c", cfg]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("deviation=0: empirical")
        assert lines[1] == "deviation=nan: error: ParameterError: deviation must be a number, got nan"
        points = _strict_json(out.read_text())["points"]
        assert "summary" in points[0] and "deviation must be a number" in points[1]["error"]
        assert points[1]["value"] is None

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["experiment", "-c", str(tmp_path / "absent.json")]) == 4

    def test_undecodable_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"schema": "rig-lab/1", "label": "\xff"}')
        assert cli.main(["experiment", "-c", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config is not valid JSON") and "Traceback" not in err


class TestSeedFallback:
    def test_environment_seed(self, monkeypatch):
        monkeypatch.setenv("RIG_LAB_SEED", "77")
        assert cli._default_seed(None, None) == 77
        assert cli._default_seed(None, 3) == 3
        assert cli._default_seed(1, 3) == 1

    def test_no_seed_anywhere(self, monkeypatch):
        monkeypatch.delenv("RIG_LAB_SEED", raising=False)
        assert cli._default_seed(None, None) == 0

    def test_environment_seed_must_be_integer(self, monkeypatch):
        monkeypatch.setenv("RIG_LAB_SEED", "seven")
        with pytest.raises(ConfigError):
            cli._default_seed(None, None)
        assert cli.main(["generate", "--model", "er", "--n", "5", "--q", "0.5"]) == 2

    def test_environment_seed_reaches_experiment(self, tmp_path, monkeypatch):
        cfg = _write_config(tmp_path, trials=2, workers=1, model=ER_MODEL, property=KCONN)
        summaries = []
        for seed_args, env in ((["--seed", "41"], None), ([], "41")):
            if env is None:
                monkeypatch.delenv("RIG_LAB_SEED", raising=False)
            else:
                monkeypatch.setenv("RIG_LAB_SEED", env)
            out = tmp_path / "s.json"
            assert cli.main(["experiment", "-c", cfg, "--summary", str(out), *seed_args]) == 0
            summaries.append(json.loads(out.read_text()))
        assert summaries[0] == summaries[1]
        assert summaries[0]["seed"] == 41


class TestRemovedOptions:
    @pytest.mark.parametrize("argv", [
        ["predict", "--family", "er", "--property", "kconn", "--alpha", "0"],
        ["solve", "--family", "er", "--property", "kconn", "--n", "50", "--beta", "0"],
        ["sweep", "--csv", "t.csv"],
        ["sweep", "--timing"],
        ["check", "g.txt", "--property", "kconn", "--budget-nodes", "3"],
        ["experiment", "--budget-nodes", "3"],
        ["sweep", "--budget-nodes", "3"],
    ])
    def test_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_deviation_error_names_only_deviation(self, capsys):
        assert cli.main(["predict", "--family", "er", "--property", "kconn"]) == 2
        assert cli.main(["solve", "--family", "er", "--property", "kconn", "--n", "50"]) == 2
        err = capsys.readouterr().err
        assert "--deviation" in err and "--alpha" not in err

    def test_sweep_config_with_csv(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, trials=2, model={"family": "er", "n": 30},
                            property=KCONN, output={"csv": str(tmp_path / "t.csv")},
                            sweep={"axis": "deviation", "values": [0]})
        assert cli.main(["sweep", "-c", cfg]) == 2
        assert "only the JSON summary" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_sweep_config_with_timing(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, trials=2, model={"family": "er", "n": 30},
                            property=KCONN, output={"timing": True},
                            sweep={"axis": "deviation", "values": [0]})
        assert cli.main(["sweep", "-c", cfg]) == 2
        assert "output.timing" in capsys.readouterr().err

    @pytest.mark.parametrize("section, value, key", [
        ("solve", {"deviation": 0, "free": "q"}, "free"),
        ("budget", {"dp_state_limit": 1 << 21}, "dp_state_limit"),
        ("budget", {"max_enumeration_nodes": 24}, "max_enumeration_nodes"),
    ], ids=["solve.free", "budget.dp_state_limit", "budget.max_enumeration_nodes"])
    def test_config_key_rejected(self, tmp_path, capsys, section, value, key):
        cfg = _write_config(tmp_path, trials=2, model={"family": "er", "n": 30},
                            property=KCONN, **{section: value})
        assert cli.main(["experiment", "-c", cfg]) == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err


def _edge_list(tmp_path, g, name="g.txt"):
    path = tmp_path / name
    write_edge_list(g, path)
    return str(path)


class TestCheck:
    @pytest.mark.parametrize("graph, flags, expected", [
        (Graph.cycle(6), ["--property", "kconn", "--k", "2"], "true"),
        (Graph.cycle(6), ["--property", "kconn", "--k", "3"], "false"),
        (Graph.from_edges(4, [(0, 1), (2, 3)]), ["--property", "kconn"], "false"),
        (Graph.cycle(6), ["--property", "mindeg", "--k", "2"], "true"),
        (Graph.path(5), ["--property", "mindeg", "--k", "2"], "false"),
        (Graph.path(5), ["--property", "matching"], "true"),
        (Graph.star(3), ["--property", "matching"], "false"),
        (Graph.cycle(6), ["--property", "hamilton"], "true"),
        (Graph.path(5), ["--property", "hamilton"], "false"),
        # two K_13 sharing node 0: above the subset-DP cap, but the cut
        # vertex decides even after one search step
        (Graph.from_edges(25, [(u, v) for half in ([0, *range(1, 13)], [0, *range(13, 25)])
                               for i, u in enumerate(half) for v in half[i + 1:]]),
         ["--property", "hamilton", "--search-steps", "1"], "false"),
        (Graph.complete(4), ["--property", "robust", "--k", "2"], "true"),
        (Graph.cycle(30), ["--property", "robust", "--k", "1"], "true"),
    ], ids=["c6-kconn2", "c6-kconn3", "two_pairs-kconn1", "c6-mindeg2", "p5-mindeg2",
            "p5-matching", "star-matching", "c6-hamilton", "p5-hamilton",
            "two_k13-hamilton-steps1", "k4-robust2", "c30-robust1"])
    def test_verdict(self, tmp_path, capsys, graph, flags, expected):
        assert cli.main(["check", _edge_list(tmp_path, graph), *flags]) == 0
        assert capsys.readouterr().out == expected + "\n"

    def test_petersen_is_not_hamiltonian(self, tmp_path, capsys, petersen):
        assert cli.main(["check", _edge_list(tmp_path, petersen), "--property", "hamilton"]) == 0
        assert capsys.readouterr().out == "false\n"

    def test_robust_witness_violates_condition(self, tmp_path, capsys):
        c6 = Graph.cycle(6)
        assert cli.main(["check", _edge_list(tmp_path, c6), "--property", "robust",
                         "--k", "2"]) == 0
        verdict, line = capsys.readouterr().out.splitlines()
        assert verdict == "false"
        assert line.startswith("witness T = {") and line.endswith("}")
        witness = [int(v) for v in line[len("witness T = {"):-1].split(", ")]
        assert_violates_robustness(c6, 2, witness)

    @pytest.mark.parametrize("content", [b"3 2\n0 1\n", b"3 1\n0 1\xe9\n"],
                             ids=["malformed", "undecodable"])
    def test_bad_file(self, tmp_path, capsys, content):
        path = tmp_path / "g.txt"
        path.write_bytes(content)
        assert cli.main(["check", str(path), "--property", "kconn"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_missing_file(self, tmp_path):
        assert cli.main(["check", str(tmp_path / "absent.txt"), "--property", "kconn"]) == 4

    def test_search_steps_off_hamilton(self, tmp_path, capsys):
        path = _edge_list(tmp_path, Graph.complete(3))
        assert cli.main(["check", path, "--property", "robust", "--search-steps", "1"]) == 2
        captured = capsys.readouterr()
        assert "--search-steps" in captured.err and captured.out == ""

    def test_search_steps_exhausted(self, tmp_path, capsys):
        # 4-regular circulant C_30(1, 2): no certificate settles it and it
        # is above the subset DP cap, so only the search can
        g = Graph.from_edges(30, [(v, (v + d) % 30) for v in range(30) for d in (1, 2)])
        path = _edge_list(tmp_path, g)
        assert cli.main(["check", path, "--property", "hamilton", "--search-steps", "1"]) == 3
        assert "inconclusive" in capsys.readouterr().err
        assert cli.main(["check", path, "--property", "hamilton"]) == 0
        assert capsys.readouterr().out == "true\n"

    def test_search_steps_help_names_the_dp_cap(self, monkeypatch, capsys):
        from riglab import hamilton

        monkeypatch.setattr(hamilton, "_DP_MAX_NODES", 17)
        with pytest.raises(SystemExit):
            cli.main(["check", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "more than 17 nodes, the subset-DP cap" in help_text
        assert "cut vertex is decided false whatever the budget" in help_text


class TestPredict:
    @pytest.mark.parametrize("flags", [
        ["--family", "er", "--property", "kconn", "--deviation", "0"],
        ["--family", "urig", "--property", "kconn", "--k", "2", "--n", "1000",
         "--K", "10", "--P", "5000"],
    ], ids=["deviation", "parameters"])
    def test_json(self, capsys, flags):
        assert cli.main(["predict", *flags, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == SCHEMA
        assert 0.0 < doc["predicted_probability"] < 1.0

    @pytest.mark.parametrize("deviation, limit", [("inf", 1.0), ("-inf", 0.0)])
    def test_json_infinite_deviation_is_null(self, capsys, deviation, limit):
        assert cli.main(["predict", "--family", "er", "--property", "kconn",
                         f"--deviation={deviation}", "--json"]) == 0
        doc = _strict_json(capsys.readouterr().out)
        assert doc["deviation"] is None and doc["predicted_probability"] == limit


class TestNegativeValues:
    """A value that starts with a dash reaches its option without ``=``."""

    @pytest.mark.parametrize("command", ["predict", "solve"])
    @pytest.mark.parametrize("deviation", ["-inf", "-1e3"])
    def test_deviation(self, capsys, command, deviation):
        flags = ["--family", "er", "--property", "kconn", "--json"]
        if command == "solve":
            flags += ["--n", "100"]
        assert cli.main([command, *flags, f"--deviation={deviation}"]) == 0
        joined = capsys.readouterr().out
        assert cli.main([command, *flags, "--deviation", deviation]) == 0
        assert capsys.readouterr().out == joined

    def test_sweep_values(self, tmp_path):
        cfg = _write_config(tmp_path, trials=4, workers=2, seed=3, property=KCONN,
                            model={"family": "er", "n": 30})
        out = tmp_path / "sweep.json"
        assert cli.main(["sweep", "-c", cfg, "--axis", "deviation", "--values", "-2,-1",
                         "--summary", str(out)]) == 0
        points = json.loads(out.read_text())["points"]
        assert [(p["value"], p["summary"]["label"]) for p in points] == [
            (-2.0, "deviation=-2.0"), (-1.0, "deviation=-1.0")]

    def test_option_is_still_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["predict", "--family", "er", "--property", "kconn", "--deviation", "-x"])
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err


class TestGeometricRegionDefault:
    def test_solve_uses_torus_law(self, capsys):
        base = ["solve", "--family", "urig_rgg", "--property", "kconn", "--n", "2000",
                "--K", "10", "--P", "1000", "--deviation", "2", "--json"]
        assert cli.main(base) == 0
        bare = json.loads(capsys.readouterr().out)
        assert cli.main([*base, "--region", "torus"]) == 0
        assert json.loads(capsys.readouterr().out) == bare
        assert bare["family"] == "urig_rgg[torus]"

    def test_config_keeps_its_prediction(self, tmp_path):
        cfg = _write_config(tmp_path, trials=2, workers=1, property=KCONN,
                            model={"family": "urig_rgg", "n": 40, "K": 8, "P": 200, "r": 0.3})
        out = tmp_path / "s.json"
        assert cli.main(["experiment", "-c", cfg, "--summary", str(out)]) == 0
        summary = json.loads(out.read_text())
        assert summary["limit_form"] == "rgg_torus"
        assert summary["model"]["parts"][1] == {"family": "rgg", "n": 40, "r": 0.3,
                                                "region": "torus"}

    def test_sweep_of_a_family_without_law(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, trials=2, property=KCONN,
                            model={"family": "rgg", "n": 30},
                            sweep={"axis": "deviation", "values": [0, 1]})
        assert cli.main(["sweep", "-c", cfg]) == 2
        assert "no threshold scaling" in capsys.readouterr().err


def test_import_leaves_scipy_unloaded():
    code = ("import riglab, sys; "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.spatial', 'scipy.special') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "[]"


# One example per family of the table: generate flags, and the spec they denote.
GENERATE_CASES = {
    "er": (["--q", "0.3"], ErParams(12, 0.3)),
    "urig": (["--K", "4", "--P", "40", "--s", "2"], UniformRigParams(12, 4, 40, 2)),
    "brig": (["--t", "0.2", "--P", "30"], BinomialRigParams(12, 0.2, 30, 1)),
    "rgg": (["--r", "0.3"], RggParams(12, 0.3, "torus")),
    "urig_er": (["--K", "4", "--P", "40", "--q", "0.7"],
                IntersectionSpec((UniformRigParams(12, 4, 40, 1), ErParams(12, 0.7)))),
    "urig_rgg": (["--K", "4", "--P", "40", "--r", "0.4", "--region", "square"],
                 IntersectionSpec((UniformRigParams(12, 4, 40, 1),
                                   RggParams(12, 0.4, "square")))),
}


class TestGenerate:
    def test_every_family_has_a_case(self):
        assert set(GENERATE_CASES) == set(scaling.FAMILIES)

    @pytest.mark.parametrize("family", sorted(GENERATE_CASES))
    def test_writes_the_sampled_graph(self, family, capsys):
        flags, spec = GENERATE_CASES[family]
        assert cli.main(["generate", "--model", family, "--n", "12", *flags,
                         "--seed", "9", "--trial", "2"]) == 0
        expected = sample_model(spec, RngStream(9, 2))
        assert capsys.readouterr().out == to_edge_list_text(expected)
        args = cli.build_parser().parse_args(["generate", "--model", family, "--n", "12", *flags])
        built = scaling.build_model_spec(
            scaling.ModelFamily.named(family, args.s, args.region),
            cli._family_params(vars(args)),
        )
        assert built == spec

    @pytest.mark.parametrize("family", sorted(GENERATE_CASES))
    def test_describe_model_names_the_row(self, family):
        spec = GENERATE_CASES[family][1]
        row = scaling.FAMILIES[family]
        described = describe_model(spec)
        if isinstance(row.model, tuple):
            assert described["family"] == "intersection"
            assert tuple(p["family"] for p in described["parts"]) == row.model
        else:
            assert described["family"] == family
