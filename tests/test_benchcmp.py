"""The comparison driver: its gain rule, and one tiny run of HEAD against
itself."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

import benchcmp  # noqa: E402


def has_head() -> bool:
    if shutil.which("git") is None:
        return False
    probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True)
    return probe.returncode == 0


class TestGainRule:
    def test_ten_clear_wins_gain(self):
        pairs = [(100.0 + i, 150.0 + i) for i in range(10)]
        c = benchcmp.compare(pairs, "higher")
        assert c["gain"] and c["change_won"] == 10 and c["base_won"] == 0

    def test_lower_is_better(self):
        pairs = [(2.0 + 0.01 * i, 1.0) for i in range(10)]
        assert benchcmp.compare(pairs, "lower")["gain"]
        assert not benchcmp.compare(pairs, "higher")["gain"]

    def test_fewer_than_ten_pairs_never_gain(self):
        pairs = [(100.0, 200.0)] * 9
        assert not benchcmp.compare(pairs, "higher")["gain"]

    def test_two_losses_in_ten_do_not_gain(self):
        pairs = [(100.0, 150.0)] * 8 + [(150.0, 100.0)] * 2
        assert not benchcmp.compare(pairs, "higher")["gain"]

    def test_gap_within_the_base_spread_does_not_gain(self):
        # the change wins every pair, by less than the base's IQR
        pairs = [(100.0 + 10 * i, 101.0 + 10 * i) for i in range(10)]
        c = benchcmp.compare(pairs, "higher")
        assert c["change_won"] == 10 and not c["gain"]

    def test_ties_count_for_neither_side(self):
        c = benchcmp.compare([(1.0, 1.0), (1.0, 2.0)], "higher")
        assert (c["change_won"], c["base_won"]) == (1, 0)


class TestPairedRatio:
    def test_ratio_of_each_pair(self):
        c = benchcmp.compare([(1.0, 2.0), (2.0, 3.0), (4.0, 4.0)], "lower")
        assert c["ratio"] == benchcmp.side_stats([2.0, 1.5, 1.0])
        assert benchcmp.compare([(0.0, 1.0)], "lower")["ratio"] is None

    # per-pair ratio IQRs of the runs in BENCH_pr15_all.json, to 3 decimals
    COMMITTED_RATIO_IQR = {
        ("linear-modes", "wall_s"): 0.115,
        ("linear-modes", "ops_per_s"): 0.120,
        ("linear-modes", "setup_s"): 0.219,
        ("sim-full", "wall_s"): 0.053,
    }

    def test_committed_runs_give_the_paired_spread(self):
        report = json.loads((ROOT / "BENCH_pr15_all.json").read_text())
        metrics = json.loads(
            (ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        for (workload, name), iqr in self.COMMITTED_RATIO_IQR.items():
            runs = [r for r in report["runs"] if r["workload"] == workload]
            ratio = benchcmp.summarize(runs, metrics)[name]["ratio"]
            assert ratio["n"] == 8
            assert round(ratio["iqr"], 3) == iqr, (workload, name)


@pytest.mark.skipif(not has_head(), reason="needs a git checkout")
def test_head_against_itself_claims_no_win(tmp_path):
    worktrees = subprocess.run(
        ["git", "-C", str(ROOT), "worktree", "list", "--porcelain"],
        capture_output=True, text=True).stdout
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchcmp.py"), "--base", "HEAD",
         "--workload", "linear-modes", "--seeds", "1", "--pairs", "1",
         "--size", "tiny", "--tag", "smoke",
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True).stdout.strip()
    assert report["base"]["commit"] == report["change"]["commit"] == head
    names = [m["name"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    runs = report["runs"]
    assert sorted(r["side"] for r in runs) == ["base", "change"]
    for r in runs:
        assert r["correct"] and r["failed"] == 0 and r["attempted"] > 0
        assert r["cpu_s"] > 0 and r["machine"]["seed"] == 1
        assert all(r["metrics"][n] > 0 for n in names)
    for summary in (report["summary"]["linear-modes"]["all"],
                    report["summary"]["linear-modes"]["seeds"]["1"]):
        assert set(summary) == set(names) | {"cpu_s"}
        assert not any(summary[n]["gain"] for n in names)
        assert all(summary[n]["pairs"] == 1 for n in names)
    # the base checkout is gone again
    assert subprocess.run(
        ["git", "-C", str(ROOT), "worktree", "list", "--porcelain"],
        capture_output=True, text=True).stdout == worktrees
