"""A traced pass gives the same trials as run_experiment and charges
each span only for the time its children do not cover."""

import time

import riglab.graphs as graphs
import riglab.models as models
import riglab.montecarlo as montecarlo
import riglab.properties as properties
from riglab import DecisionBudget, FamilyParams, ModelFamily, PropertyKind, run_experiment, threshold_experiment
from tracing import DECISION_SPAN, TRIAL, Tracer, library_spans, traced_trial


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            time.sleep(0.02)
    self_ns = tracer.self_times_ns()
    assert self_ns["inner"] >= 20_000_000
    assert self_ns["outer"] < self_ns["inner"]
    assert self_ns["outer"] + self_ns["inner"] == tracer.total_ns("outer")


def test_library_spans_restore_the_library():
    wrapped = [(graphs.Graph, "__init__"), (graphs.Graph, "adjacency_lists"),
               (models, "sample_er"), (properties, "is_connected"),
               (montecarlo, "evaluate_property"), (montecarlo, "has_near_perfect_matching")]
    before = [getattr(owner, attr) for owner, attr in wrapped]
    with library_spans(Tracer()):
        assert all(getattr(o, a) is not fn for (o, a), fn in zip(wrapped, before))
    assert all(getattr(o, a) is fn for (o, a), fn in zip(wrapped, before))


def test_traced_trials_equal_run_experiment():
    cases = [
        (ModelFamily.uniform_rig_er(2), PropertyKind.k_connected(1),
         FamilyParams(n=60, P=2000, q=0.5), DecisionBudget()),
        (ModelFamily.er(), PropertyKind.hamilton_cycle(), FamilyParams(n=60),
         DecisionBudget(search_steps=100_000)),
        (ModelFamily.er(), PropertyKind.near_perfect_matching(), FamilyParams(n=60),
         DecisionBudget()),
    ]
    for family, prop, fixed, budget in cases:
        cfg = threshold_experiment(family, prop, 60, 1.0, fixed, 6, 7, budget)
        expected = [(r.outcome, r.edges, r.min_degree) for r in run_experiment(cfg).records]
        tracer = Tracer()
        with library_spans(tracer):
            got = [traced_trial(tracer, cfg, i) for i in range(cfg.trials)]
        assert got == expected
        names = [s[1] for s in tracer.spans]
        assert names.count(TRIAL) == cfg.trials
        assert names.count(DECISION_SPAN[prop.kind]) == cfg.trials
