"""The CI workflow smoke-runs every benchmark workload, once each.

Reads ``BENCHMARK.json`` and ``.github/workflows/tests.yml`` and changes
neither, so a workload cannot be added without a CI step that runs it.
"""

import json
import re
from collections import Counter
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_SMOKE = re.compile(r"perfbench/run\.py\s+--workload\s+(\S+)")


def _workloads():
    return [w["name"] for w in json.loads((_ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _smoke_steps():
    """For each workflow step, the workloads its commands pass to ``perfbench/run.py``."""
    text = (_ROOT / ".github" / "workflows" / "tests.yml").read_text()
    steps = re.split(r"\n\s*- (?=name:|uses:)", text)[1:]
    return [set(_SMOKE.findall(step)) for step in steps]


class TestWorkflow:
    def test_each_workload_has_one_smoke_step(self):
        steps = Counter(name for names in _smoke_steps() for name in names)
        assert {w: steps[w] for w in _workloads()} == {w: 1 for w in _workloads()}

    def test_no_smoke_step_names_an_unknown_workload(self):
        named = set().union(*_smoke_steps())
        assert named and named <= set(_workloads())
