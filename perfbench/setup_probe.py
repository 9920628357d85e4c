"""Set-up time of one fresh interpreter: ``import riglab`` plus the
workload's ``threshold_experiment``, up to a config that is ready to run.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
Prints one JSON object: import_s, solve_s, setup_s.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

t0 = time.perf_counter()
import riglab  # noqa: E402  (the import is what is timed)

t1 = time.perf_counter()
from workloads import WORKLOADS  # noqa: E402

cfg = WORKLOADS[sys.argv[1]].config(int(sys.argv[2]), 0)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "solve_s": t2 - t1, "setup_s": t2 - t0}))
