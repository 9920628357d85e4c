import importlib.util
import json
import subprocess
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

    def test_quartiles_per_side(self):
        runs = [
            _run(0, "parent", 3.0, 137.0), _run(0, "change", 9.0, 83.0),
            _run(1, "change", 8.0, 84.0), _run(1, "parent", 3.2, 136.0),
            _run(2, "parent", 3.1, 80.0), _run(2, "change", 2.0, 90.0),
        ]
        tps = bench_pairs.summarise(runs, BETTER)["metrics"]["trials_per_s"]
        assert (tps["parent_q1"], tps["parent_q3"]) == pytest.approx((3.05, 3.15))
        assert (tps["change_q1"], tps["change_q3"]) == pytest.approx((5.0, 8.5))


def _pairs(parent, change):
    """One pair per (parent, change) value of both metrics."""
    return [run for i, (p, c) in enumerate(zip(parent, change))
            for run in (_run(i, "parent", p, p), _run(i, "change", c, c))]


class TestGainRule:
    PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]  # Q1 9.925, Q3 10.1

    def _met(self, change, parent=PARENT):
        metrics = bench_pairs.summarise(_pairs(parent, change), BETTER)["metrics"]
        return metrics["trials_per_s"]["gain_rule_met"], metrics["peak_rss_mb"]["gain_rule_met"]

    def test_nine_of_ten_wins_and_a_wide_gap(self):
        change = [11.0] * 9 + [9.0]
        assert self._met(change) == (True, False)  # lower is better for the RSS

    def test_eight_of_ten_wins_is_not_enough(self):
        assert self._met([11.0] * 8 + [9.0] * 2) == (False, False)

    def test_gap_within_the_parent_quartiles(self):
        # better in every pair, but the medians differ by 0.12 < 0.175
        change = [p + 0.12 for p in self.PARENT]
        assert self._met(change) == (False, False)

    def test_lower_is_better(self):
        assert self._met([9.0] * 10) == (False, True)

    def test_fewer_than_ten_pairs(self):
        assert self._met([11.0] * 9, parent=self.PARENT[:9]) == (False, False)


def _git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=repo,
                   check=True, capture_output=True)


def _repo(path, text):
    path.mkdir()
    (path / "BENCHMARK.json").write_text(text)
    _git(path, "init", "-q")
    _git(path, "add", "-A")
    _git(path, "commit", "-q", "-m", "c")
    return subprocess.run(["git", "rev-parse", "HEAD"], cwd=path, check=True,
                          capture_output=True, text=True).stdout.strip()


class TestCheckouts:
    BENCH = json.dumps({"run_seconds": 15, "paths": ["perfbench"], "end_to_end": [
        {"name": "trials_per_s", "better": "higher"}]})

    def test_commit_and_dirty_tree(self, tmp_path):
        repo = tmp_path / "r"
        head = _repo(repo, self.BENCH)
        assert bench_pairs.checkout_state(repo) == {"commit": head, "dirty": False}
        (repo / "NOTES.md").write_text("x")  # a document no run reads
        assert bench_pairs.checkout_state(repo) == {"commit": head, "dirty": False}
        (repo / "src").mkdir()
        (repo / "src" / "x.py").write_text("x")
        assert bench_pairs.checkout_state(repo) == {"commit": head, "dirty": True}

    def test_benchmark_paths_count_as_dirty(self, tmp_path):
        repo = tmp_path / "r"
        head = _repo(repo, self.BENCH)
        (repo / "perfbench").mkdir()
        (repo / "perfbench" / "run.py").write_text("x")
        assert bench_pairs.checkout_state(repo) == {"commit": head, "dirty": True}

    def test_not_a_checkout(self, tmp_path):
        with pytest.raises(RuntimeError, match="rev-parse"):
            bench_pairs.checkout_state(tmp_path)

    def test_output_names_both_checkouts(self, tmp_path, monkeypatch):
        parent_head = _repo(tmp_path / "parent", self.BENCH)
        change_head = _repo(tmp_path / "change", self.BENCH)
        (tmp_path / "change" / "BENCHMARK.json").write_text(self.BENCH + "\n")
        calls = []

        def fake_run(checkout, workload, seed, seconds):
            calls.append((checkout.name, seed))
            return {"correct": True, "failed": 0, "metrics": {"trials_per_s": {"value": 1.0}}}

        monkeypatch.setattr(bench_pairs, "run_once", fake_run)
        out = tmp_path / "BENCH_t.json"
        assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                                 str(tmp_path / "change"), "--workload", "w", "--pairs", "2",
                                 "--out", str(out)]) == 0
        assert calls == [("parent", 41), ("change", 41), ("change", 42), ("parent", 42)]
        entry = json.loads(out.read_text())["workloads"]["w"]
        assert entry["checkouts"] == {"parent": {"commit": parent_head, "dirty": False},
                                      "change": {"commit": change_head, "dirty": True}}
