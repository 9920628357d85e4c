import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {"trials_per_s": "higher", "peak_rss_mb": "lower"}


def _run(pair, side, tps, rss, correct=True, failed=0):
    return {"pair": pair, "side": side, "seed": 41 + pair, "correct": correct,
            "failed": failed, "metrics": {"trials_per_s": tps, "peak_rss_mb": rss}}


class TestSummarise:
    def test_medians_and_paired_wins(self):
        runs = [
            _run(0, "parent", 3.0, 137.0), _run(0, "change", 9.0, 83.0),
            _run(1, "change", 8.0, 84.0), _run(1, "parent", 3.2, 136.0),
            _run(2, "parent", 3.1, 80.0), _run(2, "change", 2.0, 90.0),
        ]
        s = bench_pairs.summarise(runs, BETTER)
        assert s["pairs"] == 3 and s["all_correct"]
        tps = s["metrics"]["trials_per_s"]
        assert (tps["parent_median"], tps["change_median"]) == (3.1, 8.0)
        assert tps["change_over_parent"] == pytest.approx(8.0 / 3.1)
        assert tps["pairs_change_better"] == 2
        rss = s["metrics"]["peak_rss_mb"]
        assert (rss["parent_median"], rss["change_median"]) == (136.0, 84.0)
        assert rss["pairs_change_better"] == 2  # lower is better; pair 2 got worse

    def test_a_tie_is_not_a_win(self):
        runs = [_run(0, "parent", 5.0, 50.0), _run(0, "change", 5.0, 50.0)]
        metrics = bench_pairs.summarise(runs, BETTER)["metrics"]
        assert [m["pairs_change_better"] for m in metrics.values()] == [0, 0]

    def test_failed_run_marks_the_summary(self):
        runs = [_run(0, "parent", 3.0, 137.0), _run(0, "change", 9.0, 83.0, failed=1),
                _run(1, "parent", 3.0, 137.0, correct=False), _run(1, "change", 9.0, 83.0)]
        assert not bench_pairs.summarise(runs, BETTER)["all_correct"]

    def test_unpaired_run_is_left_out(self):
        runs = [_run(0, "parent", 3.0, 137.0), _run(0, "change", 9.0, 83.0),
                _run(1, "parent", 1.0, 500.0)]
        s = bench_pairs.summarise(runs, BETTER)
        assert s["pairs"] == 1
        assert s["metrics"]["trials_per_s"]["parent_median"] == 3.0
