"""The comparison driver: its gain rule, and one tiny run of HEAD against
itself."""

import json
import os
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
        c = benchcmp.compare(pairs, "higher", 0.25)
        assert c["gain"] and c["change_won"] == 10 and c["base_won"] == 0

    def test_lower_is_better(self):
        pairs = [(2.0 + 0.01 * i, 1.0) for i in range(10)]
        assert benchcmp.compare(pairs, "lower", 0.25)["gain"]
        assert not benchcmp.compare(pairs, "higher", 0.25)["gain"]

    def test_fewer_than_ten_pairs_never_gain(self):
        pairs = [(100.0, 200.0)] * 9
        assert not benchcmp.compare(pairs, "higher", 0.25)["gain"]

    def test_two_losses_in_ten_do_not_gain(self):
        pairs = [(100.0, 150.0)] * 8 + [(150.0, 100.0)] * 2
        assert not benchcmp.compare(pairs, "higher", 0.25)["gain"]

    def test_gap_within_the_base_spread_does_not_gain(self):
        # the change wins every pair, by less than the base's IQR
        pairs = [(100.0 + 10 * i, 101.0 + 10 * i) for i in range(10)]
        c = benchcmp.compare(pairs, "higher", 0.25)
        assert c["change_won"] == 10 and not c["gain"]

    def test_ties_count_for_neither_side(self):
        c = benchcmp.compare([(1.0, 1.0), (1.0, 2.0)], "higher", 0.25)
        assert (c["change_won"], c["base_won"]) == (1, 0)


class TestPairedRatio:
    def test_ratio_of_each_pair(self):
        c = benchcmp.compare([(1.0, 2.0), (2.0, 3.0), (4.0, 4.0)], "lower",
                             0.25)
        assert c["ratio"] == benchcmp.side_stats([2.0, 1.5, 1.0])
        none = benchcmp.compare([(0.0, 1.0)], "lower", 0.25)
        assert none["ratio"] is None and none["verdict"] is None

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


class TestVerdict:
    @pytest.mark.parametrize("better, change, verdict", [
        # ratio medians 1.3 and 0.7: worse than 1 by more than the bound
        ("lower", 1.3, "worse"), ("higher", 0.7, "worse"),
        # the same medians on the better side, and medians inside the bound
        ("higher", 1.3, "within"), ("lower", 0.7, "within"),
        ("lower", 1.2, "within"), ("higher", 0.8, "within"),
    ])
    def test_median_against_the_bound(self, better, change, verdict):
        pairs = [(1.0, change)] * 10
        assert benchcmp.compare(pairs, better, 0.25)["verdict"] == verdict

    def test_wide_ratio_spread_is_unresolved(self):
        # ratio median 1, IQR 0.5: not worse, but wider than the bound
        pairs = [(1.0, 0.75), (1.0, 0.75), (1.0, 1.0), (1.0, 1.25),
                 (1.0, 1.25)]
        c = benchcmp.compare(pairs, "lower", 0.25)
        assert c["ratio"]["median"] == 1.0 and c["ratio"]["iqr"] == 0.5
        assert c["verdict"] == "unresolved"
        # a worse median outranks the spread
        worse = [(b, 1.5 * c) for b, c in pairs]
        assert benchcmp.compare(worse, "lower", 0.25)["verdict"] == "worse"

    def test_committed_runs_are_within_their_bounds(self):
        report = json.loads((ROOT / "BENCH_pr15_all.json").read_text())
        metrics = json.loads(
            (ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        verdicts = {}
        for workload in sorted({r["workload"] for r in report["runs"]}):
            runs = [r for r in report["runs"] if r["workload"] == workload]
            summary = benchcmp.summarize(runs, metrics)
            for m in metrics:
                verdicts[workload, m["name"]] = summary[m["name"]]["verdict"]
        assert len(verdicts) == 16
        assert set(verdicts.values()) == {"within"}, verdicts


class TestResummarise:
    METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    def test_committed_ratio_iqrs_are_reproduced(self):
        summary, _ = benchcmp.resummarize(ROOT / "BENCH_pr15_all.json",
                                          self.METRICS)
        iqrs = TestPairedRatio.COMMITTED_RATIO_IQR
        for (workload, name), iqr in iqrs.items():
            ratio = summary[workload]["all"][name]["ratio"]
            assert ratio["n"] == 8
            assert round(ratio["iqr"], 3) == iqr, (workload, name)

    def test_a_committed_gain_is_still_a_gain(self, capsys):
        def listing():
            return {p: p.stat().st_mtime_ns for p in ROOT.iterdir()}

        before = listing()
        code = benchcmp.main(["--from", str(ROOT / "BENCH_pr18_all.json")])
        out = capsys.readouterr().out
        assert code == 0
        line = next(ln for ln in out.splitlines()
                    if ln.startswith("exact-sweep ops_per_s:"))
        assert line.endswith("change won 10 of 10 pairs  GAIN"), line
        # it ran nothing and wrote nothing
        assert "wrote" not in out and listing() == before

    def test_a_failed_run_gives_a_nonzero_exit(self):
        _, runs = benchcmp.resummarize(ROOT / "BENCH_pr15_all.json",
                                       self.METRICS)
        assert benchcmp.exit_code(runs) == 0
        failed = [dict(runs[0], correct=False), *runs[1:]]
        assert benchcmp.exit_code(failed) == 1 and benchcmp.exit_code([]) == 1

    def test_a_comparison_needs_its_arguments(self):
        with pytest.raises(SystemExit):
            benchcmp.main(["--base", "HEAD", "--tag", "x"])


@pytest.mark.skipif(not has_head(), reason="needs a git checkout")
def test_head_against_itself_claims_no_win(tmp_path):
    worktrees = subprocess.run(
        ["git", "-C", str(ROOT), "worktree", "list", "--porcelain"],
        capture_output=True, text=True).stdout
    temp = tmp_path / "temp"
    temp.mkdir()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchcmp.py"), "--base", "HEAD",
         "--workload", "linear-modes", "--seeds", "1", "--pairs", "1",
         "--size", "tiny", "--tag", "smoke",
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=600,
        env=dict(os.environ, TMPDIR=str(temp)))
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
        # the change side of a checkout with modified tracked files runs a
        # stash commit on top of HEAD
        ran = r["commit"]
        if r["side"] == "change" and report["change"]["modified"]:
            ran = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", f"{ran}^1"],
                capture_output=True, text=True).stdout.strip()
        assert ran == head
        assert r["correct"] and r["failed"] == 0 and r["attempted"] > 0
        assert r["cpu_s"] > 0 and r["machine"]["seed"] == 1
        assert all(r["metrics"][n] > 0 for n in names)
    for summary in (report["summary"]["linear-modes"]["all"],
                    report["summary"]["linear-modes"]["seeds"]["1"]):
        assert set(summary) == set(names) | {"cpu_s"}
        assert not any(summary[n]["gain"] for n in names)
        assert all(summary[n]["pairs"] == 1 for n in names)
    # both copies are gone again, and no worktree was added
    assert not any(temp.iterdir())
    assert subprocess.run(
        ["git", "-C", str(ROOT), "worktree", "list", "--porcelain"],
        capture_output=True, text=True).stdout == worktrees
