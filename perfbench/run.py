#!/usr/bin/env python3
"""Monte Carlo benchmark for riglab: trials per second through ``run_experiment``.

One run of one workload, from the root of the repository:

    python3 perfbench/run.py --workload kconn3-er-n300 --seed 1 --seconds 15 --trace 0

It runs whole rounds of the workload, each at ``workers=1`` and again at
``workers=2``, until the rounds have taken ``--seconds``, measures set-up
time in fresh interpreters between them, checks the outputs, and prints
one line per metric followed by a JSON object as the last line. ``--trace
1`` adds a traced pass over the same trials and reports the per-layer
metrics instead. Every time is reported at a reference host speed (see
``HostClock``).

Two sets of runs of the same code, with quartiles and the difference
between the sets against each metric's bound:

    python3 perfbench/run.py --stability --runs 10 --seconds 15
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 6  # fresh interpreters per run, spread over its rounds; the median is reported
WARM_UP_TRIALS = 2  # untimed, at workers=1 and at workers=2, before the first round
# calibration_s() on a quiet host of the kind the reference figures come from.
REFERENCE_CALIBRATION_S = 0.045


@functools.lru_cache(maxsize=1)
def calibration_inputs():
    """A fixed random graph as Python adjacency lists, and a fixed array."""
    import numpy as np

    rng = random.Random(0)
    adj: list[list[int]] = [[] for _ in range(20_000)]
    for _ in range(60_000):
        u, v = rng.randrange(20_000), rng.randrange(20_000)
        adj[u].append(v)
        adj[v].append(u)
    return adj, np.random.default_rng(0).random(100_000)


def calibration_s() -> float:
    """Time of a fixed load that calls no riglab code, made like a trial's
    work: a Python loop, a breadth-first search over Python lists, and a
    NumPy sort. It tells how fast the host runs at this moment."""
    import numpy as np

    adj, values = calibration_inputs()
    t0 = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i % 7
    seen = [False] * len(adj)
    seen[0] = True
    queue = [0]
    for u in queue:
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                queue.append(v)
    np.sort(values)
    return time.perf_counter() - t0


class HostClock:
    """Wall times of a run's passes, the CPUs they run on, and the factors
    that scale them to the reference host speed.

    The host's speed drifts by a fifth and more between one minute and the
    next, on each CPU apart, and that drift, not the program, then sets how
    a run's wall time repeats. So a run keeps to two CPUs: the passes in
    this process on the first, the ``workers=2`` pools and the set-up
    probes, which are child processes, on both. The calibration loop runs
    on each of the two before the first pass and after every pass, and
    every time the run reports is scaled by ``REFERENCE_CALIBRATION_S``
    over the median of the calibrations on the CPUs it used: a run made
    while the calibration ran 20% slow counts 20% less time. One
    calibration is too short to time the host alone; the median of a run's
    calibrations is not.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))[:2]
        os.sched_setaffinity(0, self.cpus)
        calibration_s()  # warm-up: the first call pays for NumPy's lazy set-up
        self.calibrations: dict[int, list[float]] = {cpu: [] for cpu in self.cpus}
        self._calibrate()

    def _calibrate(self) -> None:
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            self.calibrations[cpu].append(calibration_s())
        os.sched_setaffinity(0, self.cpus)

    def time(self, fn, *args, one_cpu: bool = False):
        """``fn(*args)`` and its wall time; on the first CPU alone if
        ``one_cpu``, else on both."""
        if one_cpu:
            os.sched_setaffinity(0, self.cpus[:1])
        t0 = time.perf_counter()
        out = fn(*args)
        wall = time.perf_counter() - t0
        self._calibrate()
        return out, wall

    def median_calibration_s(self, one_cpu: bool = False) -> float:
        cpus = self.cpus[:1] if one_cpu else self.cpus
        return statistics.median(c for cpu in cpus for c in self.calibrations[cpu])

    def factor(self, one_cpu: bool = False) -> float:
        return REFERENCE_CALIBRATION_S / self.median_calibration_s(one_cpu)


def setup_probe(workload: str, seed: int) -> dict:
    """Set-up of one fresh interpreter: import_s, solve_s and setup_s."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@dataclass
class Round:
    """One experiment of the run: its config and what each pass made of it."""

    cfg: object
    w1: object = None  # ExperimentResult, None if the round raised
    w1_s: float = 0.0
    w2: object = None
    w2_s: float = 0.0
    traced: list | None = None  # (outcome, edges, min degree) per trial
    traced_s: float = 0.0


def experiment(cfg, workers: int):
    """``run_experiment``, or None when a budget is exceeded, since
    ``run_experiment`` then keeps no records and the round fails."""
    from riglab import BudgetExceeded, run_experiment

    try:
        return run_experiment(cfg, workers=workers)
    except BudgetExceeded as exc:
        print(f"round seed={cfg.seed} workers={workers}: BudgetExceeded: {exc}")
        return None


def traced_round(tracer, cfg):
    """Run the round's trials again with spans; returns (outcome, edges, min
    degree) per trial, or None when a budget is exceeded."""
    from riglab import BudgetExceeded
    from tracing import library_spans, traced_trial

    try:
        with library_spans(tracer):
            return [traced_trial(tracer, cfg, i) for i in range(cfg.trials)]
    except BudgetExceeded as exc:
        print(f"round seed={cfg.seed} traced: BudgetExceeded: {exc}")
        return None


def output_checks(rounds: list[Round], trace: bool) -> list[str]:
    """Every check that applies to this workload, on the outputs of the run."""
    import checks
    from riglab import IntersectionSpec, RngStream, sample_model
    from riglab.matching import maximum_matching
    from riglab.montecarlo import records_to_csv, summary_to_json_dict
    from riglab.properties import HAMILTON_CYCLE, K_CONNECTED, NEAR_PERFECT_MATCHING

    problems = []
    done = [rnd for rnd in rounds if rnd.w1 is not None]
    for rnd in done:
        if rnd.w2 is not None:
            problems += checks.identical_outputs(
                records_to_csv(rnd.w1.records), records_to_csv(rnd.w2.records),
                json.dumps(summary_to_json_dict(rnd.w1.summary)),
                json.dumps(summary_to_json_dict(rnd.w2.summary)),
            )
        problems += checks.clean_audits(rnd.w1.summary.audit_violations)
        if trace and rnd.traced is not None:
            problems += checks.traced_matches(
                [(r.outcome, r.edges, r.min_degree) for r in rnd.w1.records], rnd.traced)
    if not done:
        return problems

    model, prop = rounds[0].cfg.model, rounds[0].cfg.prop
    trials = [(rnd.cfg, r) for rnd in done for r in rnd.w1.records]
    if isinstance(model, IntersectionSpec):
        rig, er = model.parts
        expected = checks.expected_composed_edges(rig.n, rig.K, rig.P, rig.s, er.q)
        problems += checks.edge_mean_close([r.edges for _, r in trials], expected)

    # Re-decide the first trial of each outcome on graphs sampled again
    # outside the timed sections.
    picked = []
    for outcome in (True, False):
        picked += [t for t in trials if t[1].outcome == outcome][:1]
    for cfg, rec in picked:
        g = sample_model(cfg.model, RngStream(cfg.seed, rec.trial))
        if prop.kind == K_CONNECTED:
            found = checks.connectivity_decision(g, prop.k, rec.outcome)
        elif prop.kind == HAMILTON_CYCLE:
            found = checks.hamilton_decision(g, rec.outcome)
        elif prop.kind == NEAR_PERFECT_MATCHING:
            mate = maximum_matching(g) if rec.outcome else None
            found = checks.matching_decision(g, rec.outcome, mate)
        else:
            found = [f"no output check for property {prop.kind}"]
        problems += [f"round seed={cfg.seed} trial {rec.trial}: {p}" for p in found]
    return problems


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from tracing import LAYERS, TRIAL, Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]

    # The first trials of a process pay once for what later trials reuse
    # (a compose trial took 1.4 s first and 0.7 s after), and the first
    # process pool for what later pools reuse; a user running many trials
    # pays that once, so it stays out of the timed rounds.
    warm_up = replace(wl.config(seed, 0), trials=WARM_UP_TRIALS)
    experiment(warm_up, 1)
    experiment(warm_up, 2)

    # Whole rounds until their passes have taken --seconds of wall time.
    # Each round runs at workers=1, again with spans in a traced run, and
    # again at workers=2, and the set-up probes are spread evenly over the
    # run, so that every measurement spreads over the whole run and phases
    # of a busy host touch them all alike.
    tracer = Tracer() if trace else None
    clock = HostClock()
    rounds: list[Round] = []
    probes: list[dict] = []
    rounds_s = 0.0
    while not rounds or rounds_s < seconds:
        while len(probes) < min(SETUP_PROBES, SETUP_PROBES * rounds_s / seconds):
            probes.append(clock.time(setup_probe, workload, seed)[0])
        rnd = Round(wl.config(seed, len(rounds)))
        rnd.w1, rnd.w1_s = clock.time(experiment, rnd.cfg, 1, one_cpu=True)
        if trace:
            rnd.traced, rnd.traced_s = clock.time(traced_round, tracer, rnd.cfg, one_cpu=True)
        rnd.w2, rnd.w2_s = clock.time(experiment, rnd.cfg, 2)
        rounds.append(rnd)
        rounds_s += rnd.w1_s + rnd.traced_s + rnd.w2_s
    while len(probes) < SETUP_PROBES:
        probes.append(clock.time(setup_probe, workload, seed)[0])
    # The workers=2 pools are child processes, so this is the peak of the
    # process that ran the workers=1 rounds.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    trials = sum(rnd.cfg.trials for rnd in rounds)
    failed_w1 = sum(rnd.cfg.trials for rnd in rounds if rnd.w1 is None)
    failed_w2 = sum(rnd.cfg.trials for rnd in rounds if rnd.w2 is None)
    attempted, failed = 2 * trials, failed_w1 + failed_w2
    if trace:
        attempted += trials
        failed += sum(rnd.cfg.trials for rnd in rounds if rnd.traced is None)
        RESULTS.mkdir(exist_ok=True)
        spans_path = RESULTS / f"spans-{workload}-{seed}.jsonl"
        tracer.write(spans_path)

    # Every time below is at the reference host speed: passes in this
    # process by the first CPU's factor, child processes by both CPUs'.
    factor_1, factor_2 = clock.factor(one_cpu=True), clock.factor()
    w1_s = factor_1 * sum(rnd.w1_s for rnd in rounds)
    w2_s = factor_2 * sum(rnd.w2_s for rnd in rounds)

    def probe_median(key: str) -> float:
        return factor_2 * statistics.median(p[key] for p in probes)

    problems = output_checks(rounds, trace)
    metrics: dict[str, tuple[float, str, int, int]] = {}  # value, unit, attempted, failed
    if not trace:
        metrics["trials_per_s"] = (
            (trials - failed_w1) / w1_s, "trials/s", trials, failed_w1)
        metrics["trials_per_s_w2"] = (
            (trials - failed_w2) / w2_s, "trials/s", trials, failed_w2)
        metrics["setup_s"] = (probe_median("setup_s"), "s", len(probes), 0)
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB", trials, failed_w1)
    else:
        self_ns = tracer.self_times_ns()
        for name in LAYERS:
            metrics[f"{name}_ms"] = (
                factor_1 * self_ns.get(name, 0) / trials / 1e6, "ms", trials, failed)
        millis = [factor_1 * r.millis for rnd in rounds if rnd.w1 is not None
                  for r in rnd.w1.records]
        metrics["montecarlo.trial_ms_p50"] = (statistics.median(millis), "ms", trials, failed_w1)
        metrics["montecarlo.trial_ms_p90"] = (
            statistics.quantiles(millis, n=10, method="inclusive")[8], "ms", trials, failed_w1)
        idle = [factor_2 * (rnd.w2_s - sum(r.millis for r in rnd.w2.records) / 2000.0)
                for rnd in rounds if rnd.w2 is not None]
        metrics["montecarlo.pool_idle_s"] = (statistics.mean(idle), "s", trials, failed_w2)
        metrics["setup.import_s"] = (probe_median("import_s"), "s", len(probes), 0)
        metrics["scaling.solve_ms"] = (probe_median("solve_s") * 1000.0, "ms", len(probes), 0)
        both = [rnd for rnd in rounds if rnd.w1 is not None and rnd.traced is not None]
        metrics["trace.overhead_pct"] = (  # share by which tracing lowers trials/s
            100.0 * (1.0 - sum(r.w1_s for r in both) / sum(r.traced_s for r in both)),
            "%", trials, failed)
        trial_ns = tracer.total_ns(TRIAL)
        metrics["trace.attributed_pct"] = (
            100.0 * (trial_ns - self_ns.get(TRIAL, 0)) / trial_ns, "%", trials, failed)

    print(f"workload {workload} seed {seed} rounds {len(rounds)} trials {trials}")
    if trace:
        print(f"spans {spans_path.relative_to(HERE.parent)}")
    print(f"calibration_s {clock.median_calibration_s()!r} first CPU "
          f"{clock.median_calibration_s(one_cpu=True)!r} CPUs {clock.cpus}")
    if not trace:  # the same times before the host-speed scaling
        print(f"wall_trials_per_s {factor_1 * (trials - failed_w1) / w1_s!r} "
              f"wall_trials_per_s_w2 {factor_2 * (trials - failed_w2) / w2_s!r} "
              f"wall_setup_s {probe_median('setup_s') / factor_2!r}")
    for name, (value, unit, count, bad) in metrics.items():
        print(f"{name} {value!r} {unit} attempted={count} failed={bad}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m[0], "unit": m[1]} for name, m in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--stability", action="store_true",
                        help="run two sets of runs and compare them against the bounds")
    parser.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    args = parser.parse_args(argv)

    if not (SRC / "riglab" / "__init__.py").is_file():
        print(f"perfbench: riglab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.stability:
        from stability import run_stability

        return run_stability(args.workload, args.runs, args.seconds)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    result = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
