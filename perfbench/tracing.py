"""Spans around the calls into each ``riglab`` layer, recorded from outside.

Nothing in ``riglab`` is instrumented. A traced trial is
``montecarlo._run_one_trial`` itself, run while the module attributes it
and the layers below it look up (the samplers, ``Graph`` construction and
adjacency lists, the searches, the decision and the audit checks) are
wrapped in spans; they are restored when the traced rounds end. A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import riglab.graphs as graphs
import riglab.hamilton as hamilton
import riglab.models as models
import riglab.montecarlo as montecarlo
import riglab.properties as properties
from riglab.properties import HAMILTON_CYCLE, K_CONNECTED, NEAR_PERFECT_MATCHING

TRIAL = "montecarlo.trial"

# Layer span names, in the order the per-layer metrics are reported.
LAYERS = (
    "models.assign",
    "models.build_rig",
    "models.sample_er",
    "graphs.graph_build",
    "graphs.intersect",
    "graphs.adjacency",
    "graphs.bfs",
    "properties.kconn",
    "hamilton.decide",
    "matching.decide",
    "montecarlo.audit",
)

DECISION_SPAN = {
    K_CONNECTED: "properties.kconn",
    HAMILTON_CYCLE: "hamilton.decide",
    NEAR_PERFECT_MATCHING: "matching.decide",
}


class Tracer:
    """In-memory span list: ``(id, name, parent id, start ns, end ns)``."""

    def __init__(self):
        self.spans: list[tuple[int, str, int, int, int]] = []
        self._stack: list[int] = [-1]

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append((sid, name, self._stack[-1], 0, 0))
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (sid, name, self.spans[sid][2], start, end)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def self_times_ns(self) -> dict[str, int]:
        """Total self time per span name."""
        out: dict[str, int] = {}
        child_ns = [0] * len(self.spans)
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for sid, name, _, start, end in self.spans:
            out[name] = out.get(name, 0) + (end - start) - child_ns[sid]
        return out

    def write(self, path) -> None:
        """One JSON array per line: id, name, parent id, start ns, end ns."""
        with open(path, "w", encoding="ascii") as fh:
            fh.writelines(json.dumps(list(span)) + "\n" for span in self.spans)

    def total_ns(self, name: str) -> int:
        return sum(end - start for _, n, _, start, end in self.spans if n == name)


def _decision(tracer: Tracer, fn):
    """``evaluate_property`` in the span of the property it decides."""
    def traced(g, prop, *args, **kwargs):
        with tracer.span(DECISION_SPAN[prop.kind]):
            return fn(g, prop, *args, **kwargs)
    return traced


@contextmanager
def library_spans(tracer: Tracer):
    """Wrap the calls a trial makes into each layer, restoring them afterwards."""
    def span(name):
        return lambda fn: tracer.wrap(name, fn)

    audit = span("montecarlo.audit")
    patches = [
        (models, "sample_uniform_assignment", span("models.assign")),
        (models, "build_rig", span("models.build_rig")),
        (models, "sample_er", span("models.sample_er")),
        (models, "intersect_graphs", span("graphs.intersect")),
        (graphs.Graph, "__init__", span("graphs.graph_build")),
        (graphs.Graph, "adjacency_lists", span("graphs.adjacency")),
        (properties, "is_connected", span("graphs.bfs")),
        (properties, "connected_components", span("graphs.bfs")),
        (hamilton, "is_connected", span("graphs.bfs")),
        (montecarlo, "evaluate_property", lambda fn: _decision(tracer, fn)),
        # The checks _run_one_trial makes after the decision.
        (montecarlo, "is_connected", lambda fn: audit(tracer.wrap("graphs.bfs", fn))),
        (montecarlo, "is_k_connected", audit),
        (montecarlo, "has_near_perfect_matching", audit),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, make in patches:
            setattr(owner, attr, make(getattr(owner, attr)))
        yield
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def traced_trial(tracer: Tracer, cfg, index: int) -> tuple[bool, int, int]:
    """Trial ``index`` of ``cfg`` in a TRIAL span, inside ``library_spans``;
    returns (outcome, edges, min degree)."""
    with tracer.span(TRIAL):
        rec = montecarlo._run_one_trial(cfg.model, cfg.prop, cfg.budget, cfg.seed, index)
    return rec.outcome, rec.edges, rec.min_degree
