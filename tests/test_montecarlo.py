import json
import multiprocessing
import os
import signal
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import pytest

from riglab import cli, montecarlo, scaling
from riglab.graphs import Graph, is_connected, write_edge_list
from riglab.models import ErParams, RggParams, sample_model
from riglab.montecarlo import ExperimentConfig, run_experiment, sweep, threshold_experiment
from riglab.errors import BudgetExceeded
from riglab.properties import PROPERTIES, DecisionBudget, PropertyKind
from riglab.rng import RngStream, mix64


@pytest.mark.parametrize("prop", [
    PropertyKind.k_connected(1), PropertyKind.k_connected(2), PropertyKind.k_connected(3),
    PropertyKind.hamilton_cycle(), PropertyKind.near_perfect_matching(),
    PropertyKind.min_degree_at_least(1), PropertyKind.k_robust(1),
], ids=PropertyKind.label)
def test_connected_column_is_connectivity(prop):
    # densities below, at and above the connectivity threshold of G(14, q)
    for q in (0.15, 0.25, 0.4):
        cfg = ExperimentConfig(model=ErParams(14, q), prop=prop, trials=12, seed=8)
        for r in run_experiment(cfg).records:
            assert r.connected == is_connected(sample_model(cfg.model, RngStream(cfg.seed, r.trial)))


def test_k_axis_keeps_per_point_errors():
    family = scaling.ModelFamily.named("urig_rgg")
    points = sweep(family, PropertyKind.k_connected(1), 30,
                   scaling.FamilyParams(n=30, K=8, P=200), "k", [1, 2], 2, 1)
    assert points[0].summary is not None
    assert points[1].summary is None and "no k_connected(k=2) law" in points[1].error


class _SerialPool:
    """Stands in for ProcessPoolExecutor: logs its start-ups and shut-downs
    by size, starts no process."""

    log: list = []

    def __init__(self, max_workers):
        self.size = max_workers
        self.log.append(("start", max_workers))

    def shutdown(self, wait=True):
        self.log.append(("shutdown", self.size, wait))

    def map(self, fn, batches):
        return map(fn, batches)


@pytest.fixture
def serial_pool(monkeypatch):
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "log", [])
    return _SerialPool.log


def _er_config(trials=4):
    return ExperimentConfig(model=ErParams(14, 0.3), prop=PropertyKind.k_connected(1),
                            trials=trials, seed=3)


def _outputs(result):
    return (montecarlo.records_to_csv(result.records),
            montecarlo.json_text(montecarlo.summary_to_json_dict(result.summary)))


def test_pool_never_larger_than_its_batches(serial_pool):
    cfg = _er_config()
    pooled, serial = run_experiment(cfg, workers=500), run_experiment(cfg, workers=1)
    assert serial_pool == [("start", 4)]
    assert _outputs(pooled) == _outputs(serial)
    assert pooled.summary == serial.summary


def test_calls_of_one_size_share_one_pool(serial_pool):
    cfg = _er_config(trials=8)
    first, second = run_experiment(cfg, workers=2), run_experiment(cfg, workers=2)
    assert serial_pool == [("start", 2)]
    assert _outputs(first) == _outputs(second) == _outputs(run_experiment(cfg, workers=1))


def test_call_of_another_size_shuts_the_old_pool_first(serial_pool):
    cfg = _er_config(trials=8)
    run_experiment(cfg, workers=2)
    run_experiment(cfg, workers=3)
    assert serial_pool == [("start", 2), ("shutdown", 2, True), ("start", 3)]


def test_pool_serves_the_call_after_a_budget_error():
    # trial 0 of ER(30, 0.5) at seed 0 reaches the Hamilton search, which one
    # step cannot settle
    cfg = ExperimentConfig(model=ErParams(30, 0.5), prop=PropertyKind.hamilton_cycle(),
                           trials=4, seed=0)
    with pytest.raises(BudgetExceeded, match=rf"trial 0 \(stream seed {RngStream(0, 0).key()}\)"):
        run_experiment(replace(cfg, budget=DecisionBudget(search_steps=1)), workers=2)
    pool = montecarlo._pool
    assert pool is not None
    assert _outputs(run_experiment(cfg, workers=2)) == _outputs(run_experiment(cfg, workers=1))
    assert montecarlo._pool is pool


def test_broken_pool_is_replaced():
    cfg = _er_config()
    run_experiment(cfg, workers=2)
    broken = montecarlo._pool[1]
    for worker in multiprocessing.active_children():
        os.kill(worker.pid, signal.SIGKILL)
    with pytest.raises(BrokenProcessPool):
        run_experiment(cfg, workers=2)
    assert montecarlo._pool is None
    assert _outputs(run_experiment(cfg, workers=2)) == _outputs(run_experiment(cfg, workers=1))
    assert montecarlo._pool is not None and montecarlo._pool[1] is not broken


def test_kept_pool_ends_with_the_interpreter():
    script = (
        "import multiprocessing\n"
        "from riglab.models import ErParams\n"
        "from riglab.montecarlo import ExperimentConfig, run_experiment\n"
        "from riglab.properties import PropertyKind\n"
        "cfg = ExperimentConfig(model=ErParams(14, 0.3), prop=PropertyKind.k_connected(1),\n"
        "                       trials=4, seed=3)\n"
        "run_experiment(cfg, workers=2)\n"
        "run_experiment(cfg, workers=2)\n"
        "print(*[p.pid for p in multiprocessing.active_children()])\n"
    )
    src = str(Path(montecarlo.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    workers = [int(pid) for pid in proc.stdout.split()]
    assert len(workers) == 2
    for pid in workers:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


@pytest.mark.parametrize("prop", [
    PropertyKind.k_connected(1), PropertyKind.k_robust(1), PropertyKind.k_robust(3),
], ids=PropertyKind.label)
def test_single_node_trials_pass_the_audit(prop):
    # One node is connected and vacuously robust with degree 0, so no
    # implication through the minimum degree applies to it.
    cfg = ExperimentConfig(model=ErParams(1, 0.5), prop=prop, trials=3, seed=1)
    summary = run_experiment(cfg).summary
    assert summary.successes == 3
    assert sum(summary.audit_violations.values()) == 0


@pytest.mark.parametrize("corrupt", [False, True])
def test_audit_checks_the_stored_hamilton_cycle(monkeypatch, corrupt):
    # ER(200, 0.08): trial 0 of seed 7 is decided by the rotation
    # search; a cycle with one node repeated must fail the audit
    from riglab import hamilton

    grow = hamilton._grow_cycle

    def grow_then_corrupt(adj, n, start, budget):
        cycle = grow(adj, n, start, budget)
        return cycle[:-1] + [cycle[0]] if corrupt and cycle is not None else cycle

    monkeypatch.setattr(hamilton, "_grow_cycle", grow_then_corrupt)
    monkeypatch.setattr(montecarlo, "is_k_connected", None)  # a stored cycle is audited alone
    rec = montecarlo._run_one_trial(ErParams(200, 0.08), PropertyKind.hamilton_cycle(),
                                    montecarlo.DEFAULT_BUDGET, 7, 0)
    assert rec.outcome
    assert rec.violations == (("hamilton_implies_biconnected",) if corrupt else ())


def test_config_without_a_law_writes_null_predictions():
    # the disk model is sampled only: no threshold law, so no prediction
    cfg = ExperimentConfig(model=RggParams(30, 0.2, "torus"), prop=PropertyKind.k_connected(1),
                           trials=3, seed=2)
    summary = run_experiment(cfg).summary
    assert summary.threshold is None
    doc = montecarlo.summary_to_json_dict(summary)
    for name in ("target_deviation", "implied_deviation", "predicted_probability", "limit_form"):
        assert doc[name] is None
    assert doc["side_conditions"] == []


def test_min_degree_count_only_for_parametric_rows():
    # the properties with a level k count the trials of minimum degree >= k
    counted = {"min_degree": True, "k_connected": True, "near_perfect_matching": False,
               "hamilton_cycle": False, "k_robust": True}
    assert set(counted) == set(PROPERTIES)
    for kind, parametric in counted.items():
        cfg = ExperimentConfig(model=ErParams(12, 0.4), prop=PropertyKind(kind), trials=3, seed=4)
        audits = montecarlo.summary_to_json_dict(run_experiment(cfg).summary)["audits"]
        assert (audits["min_degree_ge_k"] is not None) == parametric == PROPERTIES[kind].parametric


def test_sweep_point_is_the_experiment_at_its_derived_seed():
    family, prop = scaling.ModelFamily.er(), PropertyKind.k_connected(2)
    fixed = scaling.FamilyParams(n=40)
    values = [-1.0, 0.5, 2.0]
    points = sweep(family, prop, 40, fixed, "deviation", values, 5, 21)
    for i, (pt, dev) in enumerate(zip(points, values)):
        cfg = threshold_experiment(family, prop, 40, dev, fixed, 5, mix64(21, i),
                                   label=f"deviation={dev}")
        assert pt.value == dev and pt.error is None
        assert pt.summary == run_experiment(cfg).summary


@pytest.mark.parametrize("kind", list(PROPERTIES))
def test_every_row_is_a_check_property(kind, tmp_path, capsys):
    path = tmp_path / "c6.txt"
    write_edge_list(Graph.cycle(6), str(path))
    assert cli.main(["check", str(path), "--property", PROPERTIES[kind].cli]) == 0
    assert capsys.readouterr().out.splitlines()[0] in ("true", "false")


def test_json_text_is_strict_and_keeps_finite_documents():
    inf, nan = float("inf"), float("nan")
    doc = {"a": 1.5, "b": [0, inf, (nan, True)], "c": {"d": -inf, "e": None, "f": "x"}}
    assert montecarlo.json_text(doc) == json.dumps(
        {"a": 1.5, "b": [0, None, [None, True]], "c": {"d": None, "e": None, "f": "x"}},
        indent=2)
    finite = {"schema": montecarlo.SCHEMA, "p": [0.25, 1e-300, 3], "q": {"r": -2.0}}
    assert montecarlo.json_text(finite) == json.dumps(finite, indent=2)
