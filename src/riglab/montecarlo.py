"""Seeded Monte Carlo harness comparing empirical property frequencies
against the threshold-law predictions.

Each trial samples one graph from the configured model and decides the
configured property exactly. Trial streams derive from
``(base_seed, trial_index)``, so a run is reproducible bit-for-bit no
matter how trials are spread over worker processes; results are ordered
by trial index before summarizing.

Runs with more than one worker share one process pool, kept for the
whole Python process: later calls, and every point of a sweep, reuse it
instead of starting their own. It is replaced when a call needs another
size, dropped when it breaks, and ends with the interpreter. Its workers
see the module state as it was when the pool started, not changes made
after.

Outputs: a CSV with one row per trial and a JSON summary document, both
schema-versioned ``rig-lab/1``. Per-trial wall time is measured and kept
on the in-memory records, but the reproducible output files write the
``millis`` column as 0 unless timing is explicitly requested, so that
reruns with different worker counts stay byte-identical.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass

from . import scaling
from .errors import BudgetExceeded, ParameterError
from .graphs import is_connected
from .hamilton import is_hamilton_cycle
from .models import IntersectionSpec, ModelSpec
from .properties import (
    DEFAULT_BUDGET,
    HAMILTON_CYCLE,
    K_CONNECTED,
    K_ROBUST,
    PROPERTIES,
    DecisionBudget,
    PropertyKind,
    evaluate_property,
    has_near_perfect_matching,
    is_k_connected,
)
from .rng import RngStream, mix64

SCHEMA = "rig-lab/1"

AUDIT_NAMES = (
    "k_connected_implies_min_degree",
    "hamilton_implies_biconnected",
    "hamilton_implies_matching",
    "robust_implies_min_degree",
    "robust_implies_connected",
)


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, clamped to [0, 1]."""
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ParameterError("successes must lie in [0, trials]")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class ThresholdContext:
    """The threshold-law prediction at an experiment's parameters; the
    target deviation is None when they were given, not solved for."""

    target_deviation: float | None
    implied_deviation: float
    predicted_probability: float | None
    limit_form: str
    side_conditions: tuple[scaling.SideCondition, ...]


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelSpec
    prop: PropertyKind
    trials: int
    seed: int
    budget: DecisionBudget = DEFAULT_BUDGET
    threshold: ThresholdContext | None = None
    label: str = ""

    def __post_init__(self):
        if self.trials < 1:
            raise ParameterError("trials must be >= 1")


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    seed: int
    outcome: bool
    edges: int
    min_degree: int
    millis: float
    connected: bool
    violations: tuple[str, ...] = ()


@dataclass(frozen=True)
class ExperimentSummary:
    label: str
    model: dict
    prop: PropertyKind
    trials: int
    seed: int
    successes: int
    empirical_probability: float
    wilson_95: tuple[float, float]
    threshold: ThresholdContext | None  # None for a family/property pair without a law
    audit_violations: dict[str, int]
    min_degree_ge_k: int | None
    connected_count: int


@dataclass(frozen=True)
class ExperimentResult:
    summary: ExperimentSummary
    records: tuple[TrialRecord, ...]


def describe_model(spec: ModelSpec) -> dict:
    if isinstance(spec, IntersectionSpec):
        return {"family": "intersection", "n": spec.n,
                "parts": [describe_model(p) for p in spec.parts]}
    for name, row in scaling.FAMILIES.items():
        if row.model is type(spec):
            return {"family": name, **asdict(spec)}
    raise ParameterError(f"unknown model spec {spec!r}")


# -- per-trial evaluation ------------------------------------------------------


def _run_one_trial(
    model: ModelSpec, prop: PropertyKind, budget: DecisionBudget, seed: int, index: int
) -> TrialRecord:
    from .models import sample_model  # local import keeps worker pickling light

    t0 = time.perf_counter()
    stream = RngStream(seed, index)
    g = sample_model(model, stream)
    try:
        outcome = evaluate_property(g, prop, budget)
    except BudgetExceeded as exc:
        raise BudgetExceeded(f"trial {index} (stream seed {stream.key()}): {exc}") from exc
    mind = g.min_degree()
    conn = is_connected(g)
    violations: list[str] = []
    if outcome and g.n > 1:  # one node is connected and robust at degree 0
        if prop.kind == K_CONNECTED and mind < prop.k:
            violations.append("k_connected_implies_min_degree")
        elif prop.kind == HAMILTON_CYCLE:
            # A Hamilton cycle certifies 2-connectivity: check the one the
            # search found, else (Dirac, forced edges, closure, DP) test directly.
            cycle = g._cache.get("hamilton_cycle")
            if not (is_k_connected(g, 2) if cycle is None else is_hamilton_cycle(g, cycle)):
                violations.append("hamilton_implies_biconnected")
            if not has_near_perfect_matching(g):
                violations.append("hamilton_implies_matching")
        elif prop.kind == K_ROBUST:
            if prop.k >= 2 and mind < prop.k:
                violations.append("robust_implies_min_degree")
            if prop.k == 1 and not conn:
                violations.append("robust_implies_connected")
    millis = (time.perf_counter() - t0) * 1000.0
    return TrialRecord(
        trial=index,
        seed=stream.key(),
        outcome=outcome,
        edges=g.m,
        min_degree=mind,
        millis=millis,
        connected=conn,
        violations=tuple(violations),
    )


def _trial_batch(args) -> list[TrialRecord]:
    model, prop, budget, seed, indices = args
    return [_run_one_trial(model, prop, budget, seed, i) for i in indices]


# -- experiment runner ---------------------------------------------------------


_pool: tuple[int, ProcessPoolExecutor] | None = None  # (size, pool) kept for the process


def _pool_of_size(size: int) -> ProcessPoolExecutor:
    """The kept pool, started anew when there is none or it has another size."""
    global _pool
    if _pool is None or _pool[0] != size:
        _drop_pool()
        _pool = (size, ProcessPoolExecutor(max_workers=size))
    return _pool[1]


def _drop_pool() -> None:
    """Shut the kept pool down, waiting for its workers, and keep none."""
    global _pool
    if _pool is not None:
        pool, _pool = _pool[1], None
        pool.shutdown(wait=True)


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Run all trials and summarize; deterministic for fixed (cfg, seed).

    ``workers`` only distributes work: records and summary are identical
    for every worker count. More than one worker runs the trials in the
    process pool kept for this process (see the module docstring), sized
    ``min(workers, batches)``. Budget errors abort the whole experiment; the
    error names the trial index and stream seed of the trial that raised it,
    and the pool stays in use for later calls.
    """
    indices = list(range(cfg.trials))
    if workers <= 1 or cfg.trials < 4:
        records = _trial_batch((cfg.model, cfg.prop, cfg.budget, cfg.seed, indices))
    else:
        chunk = max(1, (cfg.trials + workers * 4 - 1) // (workers * 4))
        batches = [
            (cfg.model, cfg.prop, cfg.budget, cfg.seed, indices[i:i + chunk])
            for i in range(0, cfg.trials, chunk)
        ]
        try:
            parts = list(_pool_of_size(min(workers, len(batches))).map(_trial_batch, batches))
        except BrokenProcessPool:
            _drop_pool()
            raise
        records = sorted((r for part in parts for r in part), key=lambda r: r.trial)
    return ExperimentResult(_summarize(cfg, records), tuple(records))


def _summarize(cfg: ExperimentConfig, records: list[TrialRecord]) -> ExperimentSummary:
    successes = sum(1 for r in records if r.outcome)
    lo, hi = wilson_interval(successes, cfg.trials)
    violations = {name: 0 for name in AUDIT_NAMES}
    for r in records:
        for v in r.violations:
            violations[v] += 1
    mind_ge_k = None
    if PROPERTIES[cfg.prop.kind].parametric:
        mind_ge_k = sum(1 for r in records if r.min_degree >= cfg.prop.k)
    return ExperimentSummary(
        label=cfg.label,
        model=describe_model(cfg.model),
        prop=cfg.prop,
        trials=cfg.trials,
        seed=cfg.seed,
        successes=successes,
        empirical_probability=successes / cfg.trials,
        wilson_95=(lo, hi),
        threshold=cfg.threshold,
        audit_violations=violations,
        min_degree_ge_k=mind_ge_k,
        connected_count=sum(1 for r in records if r.connected),
    )


# -- threshold-driven configs --------------------------------------------------


def threshold_context(
    family: scaling.ModelFamily,
    params: scaling.FamilyParams,
    prop: PropertyKind,
    target_deviation: float | None = None,
) -> ThresholdContext:
    """Prediction context for explicit parameters."""
    spec = scaling.threshold_spec(family, prop)
    implied = scaling.deviation_from_params(family, params, prop)
    return ThresholdContext(
        target_deviation=target_deviation,
        implied_deviation=implied,
        predicted_probability=scaling.limiting_probability(spec, implied),
        limit_form=spec.limit_form,
        side_conditions=scaling.side_conditions(family, params, prop),
    )


def threshold_experiment(
    family: scaling.ModelFamily,
    prop: PropertyKind,
    n: int,
    deviation: float,
    fixed: scaling.FamilyParams,
    trials: int,
    seed: int,
    budget: DecisionBudget = DEFAULT_BUDGET,
    label: str = "",
) -> ExperimentConfig:
    """Solve the scaling for the free parameter and build the experiment.

    Among the rounded candidates the one with implied deviation nearest
    the target is used; the context carries that implied deviation and the
    prediction evaluated at it.
    """
    result = scaling.solve_param(family, prop, n, deviation, fixed)
    cand = result.best()
    ctx = threshold_context(family, cand.params, prop, target_deviation=deviation)
    model = scaling.build_model_spec(family, cand.params)
    return ExperimentConfig(
        model=model, prop=prop, trials=trials, seed=seed,
        budget=budget, threshold=ctx, label=label,
    )


@dataclass(frozen=True)
class SweepPoint:
    value: float
    summary: ExperimentSummary | None
    error: str | None


def sweep(
    family: scaling.ModelFamily,
    prop: PropertyKind,
    n: int,
    fixed: scaling.FamilyParams,
    axis: str,
    values: list,
    trials: int,
    seed: int,
    budget: DecisionBudget = DEFAULT_BUDGET,
    workers: int = 1,
    deviation: float = 0.0,
) -> list[SweepPoint]:
    """One experiment per axis point (deviation | n | k), errors recorded.

    A family/property pair without a threshold law, a value that is not a
    number, or a fractional value on the n or k axis raises ParameterError
    before any point runs.

    Point i runs with base seed ``mix64(seed, i)`` so points are
    independent while the whole sweep stays reproducible from one seed.
    """
    if axis not in ("deviation", "n", "k"):
        raise ParameterError("axis must be one of deviation | n | k")
    if family.kind not in scaling.LAW_FAMILIES:
        raise ParameterError(f"{family.label()} has no threshold scaling to sweep")
    for value in values:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ParameterError(f"sweep value {value!r} is not a number")
        if axis != "deviation" and not float(value).is_integer():
            raise ParameterError(f"{axis} values must be whole numbers, got {value!r}")
    # On the k axis only some k may lack a law; those points record errors.
    scaling.threshold_spec(family, PropertyKind(prop.kind) if axis == "k" else prop)
    points: list[SweepPoint] = []
    for i, value in enumerate(values):
        dev, nn, pp = deviation, n, prop
        if axis == "deviation":
            dev = float(value)
        elif axis == "n":
            nn = int(value)
        else:
            pp = PropertyKind(prop.kind, int(value))
        try:
            cfg = threshold_experiment(
                family, pp, nn, dev, fixed, trials, mix64(seed, i), budget,
                label=f"{axis}={value}",
            )
            res = run_experiment(cfg, workers=workers)
            points.append(SweepPoint(float(value), res.summary, None))
        except (ParameterError, BudgetExceeded) as exc:
            points.append(SweepPoint(float(value), None, f"{type(exc).__name__}: {exc}"))
    return points


# -- output files ---------------------------------------------------------------


def records_to_csv(records, timing: bool = False) -> str:
    """CSV text, one row per trial. ``millis`` is 0 unless timing is on,
    keeping default output byte-identical across reruns."""
    lines = ["trial,seed,outcome,edges,min_degree,millis\n"]
    for r in records:
        ms = int(round(r.millis)) if timing else 0
        lines.append(
            f"{r.trial},{r.seed},{int(r.outcome)},{r.edges},{r.min_degree},{ms}\n"
        )
    return "".join(lines)


def write_trials_csv(records, path, timing: bool = False) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(records_to_csv(records, timing=timing))


def _prediction_json(ctx: ThresholdContext | None) -> dict:
    """A summary document's prediction fields, each null without a law;
    ``ThresholdContext`` lists its fields in the document's key order."""
    if ctx is None:
        return {"target_deviation": None, "implied_deviation": None,
                "predicted_probability": None, "limit_form": None, "side_conditions": []}
    return {**asdict(ctx), "side_conditions": [asdict(c) for c in ctx.side_conditions]}


def summary_to_json_dict(summary: ExperimentSummary) -> dict:
    return {
        "schema": SCHEMA,
        "label": summary.label,
        "model": summary.model,
        "property": {"kind": summary.prop.kind, "k": summary.prop.k},
        "trials": summary.trials,
        "seed": summary.seed,
        "successes": summary.successes,
        "empirical_probability": summary.empirical_probability,
        "wilson_95": list(summary.wilson_95),
        **_prediction_json(summary.threshold),
        "audits": {
            "violations": dict(summary.audit_violations),
            "min_degree_ge_k": summary.min_degree_ge_k,
            "connected_count": summary.connected_count,
        },
    }


def _finite_or_none(x):
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, dict):
        return {key: _finite_or_none(v) for key, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite_or_none(v) for v in x]
    return x


def json_text(doc: dict) -> str:
    """``doc`` as indented strict JSON (RFC 8259): an infinite or NaN float
    is written as ``null``, and ``allow_nan=False`` raises on any that slips
    past the mapping."""
    return json.dumps(_finite_or_none(doc), indent=2, allow_nan=False)


def write_json(doc: dict, path) -> None:
    """``doc`` as :func:`json_text` and a final newline: the summary and sweep files."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(json_text(doc) + "\n")
