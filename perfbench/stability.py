"""Stability mode: two sets of runs of the same code, compared.

For each workload and end-to-end metric it reports each set's median and
quartiles, the spread (Q3 - Q1) / median, and how much worse the second
set's median is than the first's, as a share of the first, against the
metric's bound in BENCHMARK.json. Each run's calibration time is reported
with it, and next to each time's spread the spread the same runs have in
plain wall time, before ``HostClock`` scales them to the reference speed.
Set A uses seeds 1..runs and set B seeds runs+1..2*runs. The report is
printed and written to ``perfbench/results/stability.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 180


def one_run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                          cwd=HERE.parent, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["calibration_s"] = next(
        float(line.split()[1]) for line in lines if line.startswith("calibration_s "))
    # The same times in plain wall time, before the host-speed scaling.
    words = next(line for line in lines if line.startswith("wall_trials_per_s ")).split()
    result["wall"] = {k[len("wall_"):]: float(v) for k, v in zip(words[::2], words[1::2])}
    return result


def worse_share(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def run_stability(workload: str | None, runs: int, seconds: float) -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [workload] if workload else [w["name"] for w in bench["workloads"]]
    sets: list[dict[str, list[dict]]] = []
    for s in range(2):
        runs_by_workload: dict[str, list[dict]] = {w: [] for w in names}
        for j in range(runs):
            seed = s * runs + j + 1
            for w in names:
                res = one_run(w, seed, seconds)
                runs_by_workload[w].append(res)
                print(f"set {'AB'[s]} {w} seed {seed}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} calibration_s="
                      f"{res['calibration_s']:.4f} " + " ".join(
                          f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                      flush=True)
        sets.append(runs_by_workload)

    report, ok = {"runs": runs, "seconds": seconds, "workloads": {}}, True
    for w in names:
        rows = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            per_set = []
            for runs_by_workload in sets:
                values = [r["metrics"][name]["value"] for r in runs_by_workload[w]]
                q1, med, q3 = statistics.quantiles(values, n=4)
                per_set.append({"median": med, "q1": q1, "q3": q3,
                                "spread": (q3 - q1) / med, "values": values})
                if name in runs_by_workload[w][0]["wall"]:
                    wall = [r["wall"][name] for r in runs_by_workload[w]]
                    wq1, wmed, wq3 = statistics.quantiles(wall, n=4)
                    per_set[-1]["wall_spread"] = (wq3 - wq1) / wmed
            worse = worse_share(per_set[0]["median"], per_set[1]["median"], metric["better"])
            within = worse <= metric["bound"] and all(p["spread"] <= metric["bound"] for p in per_set)
            ok = ok and within
            rows[name] = {"sets": per_set, "worse_share": worse, "bound": metric["bound"],
                          "within_bound": within}
        calib = [statistics.quantiles([r["calibration_s"] for r in rs[w]], n=4) for rs in sets]
        fail_share = [sum(r["failed"] for r in rs[w]) / sum(r["attempted"] for r in rs[w])
                      for rs in sets]
        ok = ok and fail_share[0] == fail_share[1] and all(
            r["correct"] for rs in sets for r in rs[w])
        report["workloads"][w] = {"metrics": rows, "calibration_s": calib,
                                  "failed_share": fail_share}

    print(f"\n{'workload':24} {'metric':16} {'set':3} {'median':>11} {'q1':>11} "
          f"{'q3':>11} {'spread':>7} {'wall':>7} {'worse':>7} {'bound':>6}")
    for w, entry in report["workloads"].items():
        for name, row in entry["metrics"].items():
            for label, p in zip("AB", row["sets"]):
                tail = (f" {row['worse_share']:7.3f} {row['bound']:6.2f} "
                        f"{'ok' if row['within_bound'] else 'OUT'}") if label == "B" else ""
                wall = f"{p['wall_spread']:7.3f}" if "wall_spread" in p else " " * 7
                print(f"{w:24} {name:16} {label:3} {p['median']:11.5g} {p['q1']:11.5g} "
                      f"{p['q3']:11.5g} {p['spread']:7.3f} {wall}{tail}")
        for label, (q1, med, q3) in zip("AB", entry["calibration_s"]):
            print(f"{w:24} {'calibration_s':16} {label:3} {med:11.5g} {q1:11.5g} {q3:11.5g}")
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    (out / "stability.json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"stability: {'within bounds' if ok else 'OUT OF BOUNDS'}; report in {out / 'stability.json'}")
    return 0 if ok else 1
