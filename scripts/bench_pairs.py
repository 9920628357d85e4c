#!/usr/bin/env python3
"""Paired benchmark runs of a parent and a changed checkout, kept as BENCH_<tag>.json.

From the root of the repository, with the parent commit checked out in
one directory and the change in another:

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload compose-urig2-er-n2000 --pairs 10 --first-seed 41 --out BENCH_10.json

Pair i runs ``python3 perfbench/run.py --workload W --seed S+i --seconds 15
--trace 0`` once in each checkout, 15 being ``run_seconds`` in the change's
``BENCHMARK.json``. The parent runs first in even pairs and the change in
odd ones, so a drift of the host's speed favours neither side. Each run's
last output line is its JSON result. The output file keeps, per workload,
every run's metrics, ``correct`` and ``failed``, the parent and change
median and quartiles of each metric, the number of pairs in which the
change was better, the direction of "better" being read from the change's
``BENCHMARK.json``, and whether that meets the gain rule: at least ten
pairs, the change better in at least nine tenths of them, and the medians
further apart than the parent's quartiles. Each workload also records
the commit checked out on each side (``git rev-parse HEAD``) and whether
its tree had uncommitted changes that a run can see (``git status
--porcelain`` of ``src/``, ``BENCHMARK.json`` and the benchmark's
``paths``) when the runs began. A workload already in the output file is
replaced; the others are kept, so several workloads share one file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``; its JSON result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(lines[-1])


def checkout_state(checkout: Path) -> dict:
    """The commit checked out in ``checkout`` and whether its tree differs from
    it where a run can see: under ``src/``, in ``BENCHMARK.json`` and under the
    benchmark's own ``paths``. Documents elsewhere leave the tree clean."""
    def git(*args):
        proc = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"git {' '.join(args)} in {checkout} exited "
                               f"{proc.returncode}:\n{proc.stderr}")
        return proc.stdout

    commit = git("rev-parse", "HEAD").strip()
    paths = json.loads((checkout / "BENCHMARK.json").read_text())["paths"]
    return {"commit": commit,
            "dirty": bool(git("status", "--porcelain", "--", "src", "BENCHMARK.json", *paths))}


def summarise(runs: list[dict], better: dict[str, str]) -> dict:
    """Medians and quartiles per side, paired wins of the change, and the
    gain rule.

    ``runs`` holds one record per run, ``{"pair", "side", "seed", "correct",
    "failed", "metrics": {name: value}}``; ``better`` maps each metric to
    ``"higher"`` or ``"lower"``.
    """
    by_pair: dict[int, dict[str, dict]] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["metrics"]
    pairs = [p for p in by_pair.values() if all(side in p for side in SIDES)]
    summary: dict = {"pairs": len(pairs), "all_correct": all(
        r["correct"] and r["failed"] == 0 for r in runs), "metrics": {}}
    for name, direction in better.items():
        parent = statistics.median(p["parent"][name] for p in pairs)
        change = statistics.median(p["change"][name] for p in pairs)
        parent_q1, parent_q3 = np.percentile([p["parent"][name] for p in pairs], [25, 75])
        change_q1, change_q3 = np.percentile([p["change"][name] for p in pairs], [25, 75])
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (p["change"][name] - p["parent"][name]) > 0 for p in pairs)
        summary["metrics"][name] = {
            "better": direction,
            "parent_median": parent,
            "change_median": change,
            "parent_q1": float(parent_q1),
            "parent_q3": float(parent_q3),
            "change_q1": float(change_q1),
            "change_q3": float(change_q3),
            "change_over_parent": change / parent,
            "pairs_change_better": wins,
            "gain_rule_met": bool(len(pairs) >= 10 and 10 * wins >= 9 * len(pairs)
                                  and sign * (change - parent) > parent_q3 - parent_q1),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=41)
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<tag>.json to update")
    args = parser.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    checkouts = {"parent": checkout_state(args.parent), "change": checkout_state(args.change)}
    runs = []
    for pair in range(args.pairs):
        seed = args.first_seed + pair
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            result = run_once(checkout, args.workload, seed, seconds)
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            runs.append({"pair": pair, "side": side, "seed": seed,
                         "correct": result["correct"], "failed": result["failed"],
                         "metrics": metrics})
            print(f"pair {pair} {side} seed {seed}: {json.dumps(metrics)}", flush=True)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
    doc["workloads"][args.workload] = {
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed S "
                   f"--seconds {seconds:g} --trace 0",
        "first_seed": args.first_seed,
        "checkouts": checkouts,
        "summary": summarise(runs, better),
        "runs": runs,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(doc["workloads"][args.workload]["summary"], indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
