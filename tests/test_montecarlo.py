import pytest

from riglab import montecarlo, scaling
from riglab.graphs import is_connected
from riglab.models import ErParams, sample_model
from riglab.montecarlo import ExperimentConfig, run_experiment, sweep
from riglab.properties import PropertyKind
from riglab.rng import RngStream


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
    """Stands in for ProcessPoolExecutor: records its size, starts no process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, batches):
        return map(fn, batches)


def test_pool_never_larger_than_its_batches(monkeypatch):
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    cfg = ExperimentConfig(model=ErParams(14, 0.3), prop=PropertyKind.k_connected(1),
                           trials=4, seed=3)
    pooled, serial = run_experiment(cfg, workers=500), run_experiment(cfg, workers=1)
    assert _SerialPool.sizes == [4]
    assert montecarlo.records_to_csv(pooled.records) == montecarlo.records_to_csv(serial.records)
    assert pooled.summary == serial.summary


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

    search = hamilton._rotation_extension

    def search_then_corrupt(g, budget):
        cycle = search(g, budget)
        return cycle[:-1] + [cycle[0]] if corrupt else cycle

    monkeypatch.setattr(hamilton, "_rotation_extension", search_then_corrupt)
    monkeypatch.setattr(montecarlo, "is_k_connected", None)  # a stored cycle is audited alone
    rec = montecarlo._run_one_trial(ErParams(200, 0.08), PropertyKind.hamilton_cycle(),
                                    montecarlo.DEFAULT_BUDGET, 7, 0)
    assert rec.outcome
    assert rec.violations == (("hamilton_implies_biconnected",) if corrupt else ())
