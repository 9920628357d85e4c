"""Command-line front end: generate | check | predict | solve | experiment | sweep.

Experiments read a JSON config (schema ``rig-lab/1``, unknown keys
rejected); command-line flags override config values. The base seed falls
back to the ``RIG_LAB_SEED`` environment variable when neither a flag nor
the config provides one. The geometric families (``rgg``, ``urig_rgg``)
live on the unit torus unless a region is given. Human-readable numbers
print with 6 significant digits; machine output keeps full precision.

Exit codes: 0 ok, 2 parameter/config/parse error, 3 decision budget
exceeded, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass

from . import hamilton, montecarlo, scaling
from .errors import BudgetExceeded, ConfigError, EdgeListFormatError, ParameterError
from .graphs import read_edge_list, write_edge_list
from .models import SQUARE, TORUS, sample_model
from .properties import (
    HAMILTON_CYCLE,
    K_ROBUST,
    PROPERTIES,
    DecisionBudget,
    PropertyKind,
    evaluate_property,
    k_robust_witness,
)
from .rng import RngStream

_PROPERTY_NAMES = {row.cli: kind for kind, row in PROPERTIES.items()}


def _fmt(x: float | None) -> str:
    return "unspecified" if x is None else f"{x:.6g}"


def _default_seed(explicit: int | None, config_seed: int | None) -> int:
    if explicit is not None:
        return explicit
    if config_seed is not None:
        return config_seed
    env = os.environ.get("RIG_LAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"RIG_LAB_SEED must be an integer, got {env!r}") from exc
    return 0


def _property_from(kind: str, k: int) -> PropertyKind:
    if kind not in _PROPERTY_NAMES:
        raise ParameterError(
            f"unknown property {kind!r}; choose from {sorted(_PROPERTY_NAMES)}"
        )
    return PropertyKind(_PROPERTY_NAMES[kind], k)


# -- config handling -----------------------------------------------------------


_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "true or false"}


def _typed(value, kind):
    """``value`` if JSON gave it the type ``kind``; an integer also counts as
    a number (and becomes a float), a boolean only as a boolean."""
    allowed = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, allowed):
        raise TypeError
    return float(value) if kind is float else value


def _numbers(values) -> list:
    """A list of numbers, kept as written (sweep labels quote them)."""
    if not isinstance(values, list):
        raise TypeError
    for x in values:
        _typed(x, float)
    return values


# Each config section's keys and the JSON type of their values (None: any
# value, kept as written); a key naming a section below holds an object.
_CONFIG_KEYS = {
    "$": {"schema": None, "label": None, "seed": int, "trials": int, "workers": int},
    "$.property": {"kind": str, "k": int},
    "$.model": {"family": str, "n": int, "K": int, "P": int, "s": int,
                "t": float, "q": float, "r": float, "region": str},
    "$.solve": {"deviation": float},
    "$.budget": {"search_steps": int},
    "$.output": {"csv": str, "summary": str, "timing": bool},
    "$.sweep": {"axis": str, "values": _numbers},
}
_REQUIRED_KEYS = {"$.property": ("kind",), "$.model": ("n",)}


def _checked_section(doc, path: str) -> dict:
    """``doc`` with unknown keys rejected and every value type-checked."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must be an object")
    keys = _CONFIG_KEYS[path]
    out = {}
    for key, value in doc.items():
        if f"{path}.{key}" in _CONFIG_KEYS:
            out[key] = _checked_section(value, f"{path}.{key}")
            continue
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} at {path}")
        kind = keys[key]
        if kind is None or value is None:
            out[key] = value
        else:
            try:
                out[key] = kind(value) if kind is _numbers else _typed(value, kind)
            except TypeError as exc:
                what = "a list of numbers" if kind is _numbers else _TYPE_NAMES[kind]
                raise ConfigError(
                    f"key {key!r} at {path} must be {what}, got {value!r}"
                ) from exc
    for key in _REQUIRED_KEYS.get(path, ()):
        if out.get(key) is None:
            raise ConfigError(f"key {key!r} at {path} must be set")
    return out


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    doc = _checked_section(doc, "$")
    if doc.get("schema") != montecarlo.SCHEMA:
        raise ConfigError(
            f"key 'schema' must be {montecarlo.SCHEMA!r}, got {doc.get('schema')!r}"
        )
    return doc


def _family_params(m: dict) -> scaling.FamilyParams:
    """Model parameters from a config ``model`` section or ``vars(args)``."""
    return scaling.FamilyParams(**{k: m.get(k) for k in ("n", "K", "P", "t", "q", "r")})


def _budget_from(doc: dict | None, args, prop: PropertyKind) -> DecisionBudget:
    steps = _first_set(args.search_steps, (doc or {}).get("search_steps"))
    if steps is not None and prop.kind != HAMILTON_CYCLE:
        raise ConfigError("--search-steps (budget.search_steps) applies only to "
                          + PROPERTIES[HAMILTON_CYCLE].cli)
    return DecisionBudget() if steps is None else DecisionBudget(steps)


def _first_set(*values):
    """The first value that is not None (flag, then config, then default)."""
    return next((v for v in values if v is not None), None)


# -- subcommands -----------------------------------------------------------------


def _cmd_generate(args) -> int:
    family = scaling.ModelFamily.named(args.model, args.s, args.region)
    spec = scaling.build_model_spec(family, _family_params(vars(args)))
    seed = _default_seed(args.seed, None)
    g = sample_model(spec, RngStream(seed, args.trial))
    if args.out:
        write_edge_list(g, args.out)
        print(f"n={g.n} m={g.m} -> {args.out}")
    else:
        from .graphs import to_edge_list_text

        sys.stdout.write(to_edge_list_text(g))
        print(f"n={g.n} m={g.m}", file=sys.stderr)
    return 0


def _cmd_check(args) -> int:
    g = read_edge_list(args.graph)
    prop = _property_from(args.property, args.k)
    budget = _budget_from(None, args, prop)
    if prop.kind == K_ROBUST:
        witness = k_robust_witness(g, prop.k)
        print("true" if witness is None else "false")
        if witness is not None:
            print(f"witness T = {{{', '.join(map(str, witness))}}}")
        return 0
    verdict = evaluate_property(g, prop, budget)
    print("true" if verdict else "false")
    return 0


def _cmd_predict(args) -> int:
    prop = _property_from(args.property, args.k)
    family = scaling.ModelFamily.named(args.family, args.s, args.region)
    spec = scaling.threshold_spec(family, prop)
    doc: dict = {
        "schema": montecarlo.SCHEMA,
        "family": family.label(),
        "property": {"kind": prop.kind, "k": prop.k},
        "limit_form": spec.limit_form,
    }
    if args.n is not None:
        params = _family_params(vars(args))
        coupling = scaling.coupling_value(family, params)
        ctx = montecarlo.threshold_context(family, params, prop)
        prediction, conditions = ctx.predicted_probability, ctx.side_conditions
        doc.update({
            "coupling": coupling,
            "implied_deviation": ctx.implied_deviation,
            "predicted_probability": prediction,
            "side_conditions": [
                {"name": c.name, "value": c.value, "ok": c.ok}
                for c in conditions
            ],
        })
        if not args.json:
            print(f"coupling: {_fmt(coupling)}")
            print(f"implied deviation: {_fmt(ctx.implied_deviation)}")
    elif args.deviation is None:
        raise ParameterError("predict needs --deviation or full model "
                             "parameters with --n")
    else:
        prediction, conditions = scaling.limiting_probability(spec, args.deviation), ()
        doc.update(deviation=args.deviation, predicted_probability=prediction)
    if args.json:
        print(montecarlo.json_text(doc))
    else:
        print(f"limiting probability: {_fmt(prediction)}")
        _print_side_conditions(conditions)
    return 0


def _cmd_solve(args) -> int:
    prop = _property_from(args.property, args.k)
    family = scaling.ModelFamily.named(args.family, args.s, args.region)
    if args.deviation is None:
        raise ParameterError("solve needs --deviation")
    if args.n is None:
        raise ParameterError("solve needs --n")
    result = scaling.solve_param(
        family, prop, args.n, args.deviation, _family_params(vars(args))
    )
    spec = scaling.threshold_spec(family, prop)
    limits = [scaling.limiting_probability(spec, c.implied_deviation)
              for c in result.candidates]
    if args.json:
        print(montecarlo.json_text({
            "schema": montecarlo.SCHEMA,
            "family": family.label(),
            "property": {"kind": prop.kind, "k": prop.k},
            "parameter": result.param,
            "real_value": result.real_value,
            "clamped": result.clamped,
            "target_deviation": result.target_deviation,
            "candidates": [
                {
                    "value": c.value,
                    "implied_deviation": c.implied_deviation,
                    "predicted_probability": limit,
                }
                for c, limit in zip(result.candidates, limits)
            ],
        }))
        return 0
    print(f"{result.param} = {_fmt(result.real_value)}"
          + (" (clamped)" if result.clamped else ""))
    best = result.best()
    for c, limit in zip(result.candidates, limits):
        mark = " *" if c == best else ""
        print(f"  candidate {result.param} = {_fmt(c.value)}: "
              f"implied deviation {_fmt(c.implied_deviation)}, "
              f"limit {_fmt(limit)}{mark}")
    return 0


@dataclass(frozen=True)
class _Experiment:
    """An ``experiment`` or ``sweep`` resolved from flags, config and environment."""

    label: str
    trials: int
    seed: int
    workers: int
    budget: DecisionBudget
    prop: PropertyKind
    family: scaling.ModelFamily
    params: scaling.FamilyParams
    deviation: float | None  # solve target; None runs ``params`` as given
    json_path: str | None
    csv_path: str | None = None
    timing: bool = False
    axis: str | None = None
    values: list | None = None


def _resolve_experiment(args, need_sweep: bool) -> _Experiment:
    doc = load_config(args.config) if args.config else {"schema": montecarlo.SCHEMA}
    label = args.label if args.label is not None else doc.get("label", "")
    trials = _first_set(args.trials, doc.get("trials"))
    if trials is None:
        raise ConfigError("trials must be set (flag --trials or config key)")
    seed = _default_seed(args.seed, doc.get("seed"))
    workers = _first_set(args.workers, doc.get("workers"), os.cpu_count() or 1)
    prop_doc = doc.get("property")
    if args.property is not None:
        prop = _property_from(args.property, args.k)
    elif prop_doc is not None:
        prop = _property_from(prop_doc["kind"], _first_set(prop_doc.get("k"), 1))
    else:
        raise ConfigError("property must be set (flag --property or config key)")
    budget = _budget_from(doc.get("budget"), args, prop)
    model_doc = doc.get("model")
    if model_doc is None:
        raise ConfigError("config needs a 'model' section")
    family = scaling.ModelFamily.named(
        model_doc.get("family"), _first_set(model_doc.get("s"), 1), model_doc.get("region")
    )
    params = _family_params(model_doc)
    deviation = doc.get("solve", {}).get("deviation")
    out = doc.get("output", {})
    json_path = _first_set(args.summary, out.get("summary"))
    common = dict(label=label, trials=trials, seed=seed, workers=workers, budget=budget,
                  prop=prop, family=family, params=params, json_path=json_path)
    if not need_sweep:
        return _Experiment(
            **common, deviation=deviation,
            csv_path=_first_set(args.csv, out.get("csv")),
            timing=bool(out.get("timing", False)) or args.timing,
        )
    for key in ("csv", "timing"):
        if out.get(key) is not None:
            raise ConfigError(f"sweeps write only the JSON summary; remove output.{key}")
    sweep_doc = doc.get("sweep", {})
    axis = _first_set(args.axis, sweep_doc.get("axis"))
    values = sweep_doc.get("values")
    if args.values is not None:
        try:
            values = [float(x) for x in args.values.split(",")]
        except ValueError as exc:
            raise ConfigError(
                f"--values must be comma-separated numbers, got {args.values!r}"
            ) from exc
    if axis is None or values is None:
        raise ConfigError("sweep needs axis and values (flags or config)")
    return _Experiment(**common, deviation=deviation or 0.0, axis=axis, values=values)


def _print_side_conditions(conditions) -> None:
    for c in conditions:
        print(f"side condition {c.name}: {_fmt(c.value)} [{'ok' if c.ok else 'flagged'}]")


def _print_summary(summary) -> None:
    print(f"model: {summary.model}")
    print(f"property: {summary.prop.label()}")
    print(f"trials: {summary.trials}  successes: {summary.successes}")
    lo, hi = summary.wilson_95
    print(f"empirical probability: {_fmt(summary.empirical_probability)} "
          f"(wilson95 [{_fmt(lo)}, {_fmt(hi)}])")
    ctx = summary.threshold
    if ctx is not None:
        why = " (zero-one law at finite deviation)" if ctx.predicted_probability is None else ""
        print(f"implied deviation: {_fmt(ctx.implied_deviation)}")
        print(f"predicted limit: {_fmt(ctx.predicted_probability)}{why}")
        _print_side_conditions(ctx.side_conditions)
    bad = {k: v for k, v in summary.audit_violations.items() if v}
    print(f"audit violations: {bad if bad else 'none'}")


def _cmd_experiment(args) -> int:
    run = _resolve_experiment(args, need_sweep=False)
    if run.deviation is None:
        spec = scaling.build_model_spec(run.family, run.params)
        try:
            ctx = montecarlo.threshold_context(run.family, run.params, run.prop)
        except ParameterError:
            ctx = None  # family/property without a law: run without prediction
        cfg = montecarlo.ExperimentConfig(
            model=spec, prop=run.prop, trials=run.trials, seed=run.seed,
            budget=run.budget, threshold=ctx, label=run.label,
        )
    else:
        cfg = montecarlo.threshold_experiment(
            run.family, run.prop, run.params.n, run.deviation, run.params,
            run.trials, run.seed, run.budget, run.label,
        )
    result = montecarlo.run_experiment(cfg, workers=run.workers)
    if run.csv_path:
        montecarlo.write_trials_csv(result.records, run.csv_path, timing=run.timing)
    if run.json_path:
        montecarlo.write_json(montecarlo.summary_to_json_dict(result.summary), run.json_path)
    _print_summary(result.summary)
    return 0


def _cmd_sweep(args) -> int:
    run = _resolve_experiment(args, need_sweep=True)
    axis = run.axis
    points = montecarlo.sweep(
        run.family, run.prop, run.params.n, run.params, axis, run.values, run.trials,
        run.seed, budget=run.budget, workers=run.workers, deviation=run.deviation,
    )
    rows = []
    for pt in points:
        if pt.summary is None:
            print(f"{axis}={_fmt(pt.value)}: error: {pt.error}")
            rows.append({"axis": axis, "value": pt.value, "error": pt.error})
            continue
        s = pt.summary
        lo, hi = s.wilson_95
        pred = s.threshold.predicted_probability  # every sweep point solves its law
        print(f"{axis}={_fmt(pt.value)}: empirical {_fmt(s.empirical_probability)} "
              f"wilson95 [{_fmt(lo)}, {_fmt(hi)}] predicted {_fmt(pred)}")
        rows.append({
            "axis": axis, "value": pt.value,
            "summary": montecarlo.summary_to_json_dict(s),
        })
    if run.json_path:
        montecarlo.write_json({"schema": montecarlo.SCHEMA, "label": run.label, "points": rows},
                              run.json_path)
    return 0


# -- parser ----------------------------------------------------------------------


def _add_model_flags(p: argparse.ArgumentParser, n_required: bool) -> None:
    p.add_argument("--s", type=int, default=1, help="required ring overlap")
    p.add_argument("--region", choices=(TORUS, SQUARE), default=None)
    p.add_argument("--n", type=int, required=n_required, default=None)
    p.add_argument("--K", type=int, default=None)
    p.add_argument("--P", type=int, default=None)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--r", type=float, default=None)


def _add_property_flags(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--property", required=required, default=None,
                   choices=sorted(_PROPERTY_NAMES), help=" | ".join(_PROPERTY_NAMES))
    p.add_argument("--k", type=int, default=1)


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--search-steps", type=int, default=None,
                   help=f"step budget of the {PROPERTIES[HAMILTON_CYCLE].cli} "
                        "rotation-extension search "
                        "(default 200000); a graph with a cut vertex is decided "
                        "false whatever the budget, and any other graph it leaves "
                        "open exits 3 when it has more than "
                        f"{hamilton._DP_MAX_NODES} nodes, the subset-DP cap")


class _Parser(argparse.ArgumentParser):
    """Reads a token that starts with a dash and then a digit, a point,
    ``inf`` or ``nan`` as a value, not an option: argparse alone does so
    only for tokens like ``-1`` and ``-0.5``, so ``--deviation -inf``,
    ``--deviation -1e3`` and ``--values -2,-1`` never reached their option.
    No option here starts that way. Subcommand parsers are of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rig-lab",
        description="Random intersection graph lab: samplers, exact property "
                    "checkers and Monte Carlo threshold experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a graph and write its edge list")
    p.add_argument("--model", required=True, choices=tuple(scaling.FAMILIES))
    _add_model_flags(p, n_required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trial", type=int, default=0, help="trial index within the seed")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("check", help="decide a property of an edge-list file")
    p.add_argument("graph", help="edge-list file")
    _add_property_flags(p)
    _add_budget_flags(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("predict", help="limiting probability of a threshold law")
    p.add_argument("--family", required=True, choices=scaling.LAW_FAMILIES)
    _add_model_flags(p, n_required=False)
    _add_property_flags(p)
    p.add_argument("--deviation", type=float, default=None,
                   help="target deviation from the critical scaling")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("solve", help="solve the scaling for the free parameter")
    p.add_argument("--family", required=True, choices=scaling.LAW_FAMILIES)
    _add_model_flags(p, n_required=False)
    _add_property_flags(p)
    p.add_argument("--deviation", type=float, default=None,
                   help="target deviation from the critical scaling")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_solve)

    for name, helptext in (("experiment", "run a Monte Carlo experiment"),
                           ("sweep", "run experiments along an axis")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("-c", "--config", default=None, help="JSON config file")
        _add_property_flags(p, required=False)
        _add_budget_flags(p)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--label", default=None)
        p.add_argument("--summary", default=None, help="JSON summary output path")
        if name == "experiment":
            p.add_argument("--csv", default=None, help="per-trial CSV output path")
            p.add_argument("--timing", action="store_true",
                           help="write real per-trial millis (breaks byte-identical reruns)")
        else:
            p.add_argument("--axis", choices=("deviation", "n", "k"), default=None)
            p.add_argument("--values", default=None, help="comma-separated axis values")
        p.set_defaults(func=_cmd_experiment if name == "experiment" else _cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, ConfigError, EdgeListFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
