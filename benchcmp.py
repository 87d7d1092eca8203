"""Compare the benchmark of a base revision with that of this checkout.

    python3 benchcmp.py --base HEAD~1 --workload linear-modes \\
        --seeds 1 2 3 4 --pairs 3 --tag linear_modes

Both sides run from fresh copies made the same way, in one temporary
directory that is removed at the end: the base is ``git archive`` of the
revision, and the change is ``git archive`` of ``git stash create`` (the
tracked files as they are in this checkout, staged or not), or of HEAD when
no tracked file is modified.  Untracked files are not part of the change
side, and no side runs in the checkout itself.  ``perfbench/run.py`` runs
in both copies in alternating pairs: the side that runs first alternates from
one pair to the next, over the listed workloads and seeds.  Each run records
the commit its side ran (a copy is no git checkout, so the commit of its
``machine`` line reads unknown), the end-to-end metrics that
``BENCHMARK.json`` lists, ``correct`` and ``failed``, the ``machine`` line,
and the CPU time of the run and its workers as a
``getrusage(RUSAGE_CHILDREN)`` delta.  CPU time tells a machine that ran
slower apart from code that did more work; it is reported, not judged.

The result is ``BENCH_<tag>.json``: every run, and per workload (over all
seeds, and per seed) each metric's median and quartiles on both sides, the
median and quartiles of the per-pair ratio change/base (a pair shares its
seed, so the ratio drops the spread between seeds that do different work),
the pairs each side won (ties count for neither side), a verdict against the
metric's ``bound`` in ``BENCHMARK.json`` and whether the change gains.  The
verdict is ``worse`` if the ratio median is worse than 1 by more than the
bound, else ``unresolved`` if the ratio IQR exceeds the bound, else
``within``.  A gain needs at least ten pairs, the change winning at least nine
tenths of them, and medians further apart than the interquartile range of the
base's runs.  The exit code is 0 only if every run's checks passed.

    python3 benchcmp.py --from BENCH_pr18_all.json

re-summarises a committed result: it runs nothing and writes nothing, and
prints the summary of that file's runs by today's rules, with the same exit
code.
"""

from __future__ import annotations

import argparse
import json
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent
MIN_PAIRS = 10
WIN_SHARE = 0.9
# measuring time of a ``--size tiny`` run; full runs take BENCHMARK.json's
TINY_SECONDS = 0.1


def parse_args(argv, spec: dict):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--from", dest="source", type=Path,
                    help="re-summarise this BENCH_*.json; run nothing")
    ap.add_argument("--base", help="git revision to compare")
    ap.add_argument("--workload", nargs="+",
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=[1])
    ap.add_argument("--pairs", type=int, default=1,
                    help="base/change pairs per workload and seed")
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="full runs measure for BENCHMARK.json's run_seconds,"
                    f" tiny ones for {TINY_SECONDS} s")
    ap.add_argument("--tag", help="names BENCH_<tag>.json")
    ap.add_argument("--out-dir", type=Path, default=ROOT)
    args = ap.parse_args(argv)
    if args.source is not None:
        return args
    missing = [f"--{n}" for n in ("base", "workload", "tag")
               if getattr(args, n) is None]
    if missing:
        ap.error(f"{', '.join(missing)} required unless --from is given")
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", args.tag):
        ap.error("--tag may hold only letters, digits, '_', '.' and '-'")
    args.seconds = (spec["run_seconds"] if args.size == "full"
                    else TINY_SECONDS)
    return args


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(commit: str, dest: Path) -> Path:
    """The files of ``commit``, written into the new directory ``dest``."""
    dest.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def run_once(tree: Path, workload: str, seed: int, args) -> dict:
    """One ``perfbench/run.py`` run in ``tree``, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(args.seconds),
           "--size", args.size]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = sum(getattr(after, f) - getattr(before, f)
              for f in ("ru_utime", "ru_stime"))
    lines = proc.stdout.splitlines()
    run = {"exit_code": proc.returncode, "cpu_s": cpu}
    try:
        last = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return dict(run, correct=False, failed=None, attempted=None,
                    metrics={}, machine=None, error=proc.stderr[-2000:])
    machine = next((json.loads(ln[len("machine "):]) for ln in lines
                    if ln.startswith("machine ")), None)
    return dict(run, correct=last["correct"], failed=last["failed"],
                attempted=last["attempted"], machine=machine,
                metrics={k: v["value"] for k, v in last["metrics"].items()})


def side_stats(values: list) -> dict:
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "iqr": q3 - q1}


def verdict(ratio: dict, better: str, bound: float) -> str:
    """``worse``, ``unresolved`` or ``within``: the per-pair ``ratio``
    stats of a metric judged against its relative ``bound``."""
    med = ratio["median"]
    if (med > 1.0 + bound) if better == "lower" else (med < 1.0 - bound):
        return "worse"
    return "unresolved" if ratio["iqr"] > bound else "within"


def compare(pairs: list, better: str, bound: float) -> dict:
    """Both sides of one metric over ``pairs`` of (base, change) values,
    the per-pair ratio change/base (of the pairs with a nonzero base) and
    its verdict against the metric's ``bound``."""
    sign = 1.0 if better == "higher" else -1.0
    won = sum(sign * (c - b) > 0 for b, c in pairs)
    lost = sum(sign * (c - b) < 0 for b, c in pairs)
    base = side_stats([b for b, _ in pairs])
    change = side_stats([c for _, c in pairs])
    ratios = [c / b for b, c in pairs if b]
    ratio = side_stats(ratios) if ratios else None
    ahead = sign * (change["median"] - base["median"])
    gain = (len(pairs) >= MIN_PAIRS and won >= WIN_SHARE * len(pairs)
            and ahead > base["iqr"])
    return {"better": better, "pairs": len(pairs), "change_won": won,
            "base_won": lost, "base": base, "change": change,
            "change_over_base": change["median"] / base["median"]
            if base["median"] else None,
            "ratio": ratio, "gain": gain,
            "verdict": verdict(ratio, better, bound) if ratio else None}


def summarize(runs: list, metrics: list) -> dict:
    """Per metric comparison of the runs of one workload (any seeds)."""
    by_pair: dict = {}
    for r in runs:
        by_pair.setdefault((r["seed"], r["pair"]), {})[r["side"]] = r
    sides = [p for p in by_pair.values() if len(p) == 2]
    out = {}
    for m in metrics:
        pairs = [(p["base"]["metrics"].get(m["name"]),
                  p["change"]["metrics"].get(m["name"])) for p in sides]
        pairs = [(b, c) for b, c in pairs if b is not None and c is not None]
        if pairs:
            out[m["name"]] = compare(pairs, m["better"], m["bound"])
    if sides:
        out["cpu_s"] = {side: side_stats([p[side]["cpu_s"] for p in sides])
                        for side in ("base", "change")}
    return out


def summarize_all(runs: list, workloads: list, seeds: list,
                  metrics: list) -> dict:
    """Per workload, the summary over all seeds and per seed."""
    summary = {}
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        summary[workload] = {
            "all": summarize(mine, metrics),
            "seeds": {str(s): summarize([r for r in mine if r["seed"] == s],
                                        metrics) for s in seeds},
        }
    return summary


def print_summary(summary: dict) -> None:
    for workload, s in summary.items():
        for name, c in s["all"].items():
            if name == "cpu_s":
                continue
            ratio = (f"ratio {c['ratio']['median']:.4g} (IQR "
                     f"{c['ratio']['iqr']:.3g}) {c['verdict']}"
                     if c["ratio"] else "no ratio")
            print(f"{workload} {name}: base {c['base']['median']:.6g} "
                  f"change {c['change']['median']:.6g} "
                  f"(base IQR {c['base']['iqr']:.3g}), {ratio}; change won "
                  f"{c['change_won']} of {c['pairs']} pairs"
                  + ("  GAIN" if c["gain"] else ""))


def exit_code(runs: list) -> int:
    return 0 if runs and all(r["correct"] for r in runs) else 1


def resummarize(path: Path, metrics: list) -> tuple:
    """(summary, runs) of the runs recorded in ``path``, by today's rules."""
    report = json.loads(path.read_text())
    runs = report["runs"]
    workloads = list(dict.fromkeys(r["workload"] for r in runs))
    return summarize_all(runs, workloads, report["seeds"], metrics), runs


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec)
    if args.source is not None:
        summary, runs = resummarize(args.source, spec["end_to_end"])
        print_summary(summary)
        return exit_code(runs)
    base_commit = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    head = git("rev-parse", "HEAD")
    # a commit of the modified tracked files, or "" when there are none
    stash = git("stash", "create")
    # a terminated comparison still removes the copies
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    scratch = Path(tempfile.mkdtemp(prefix="benchcmp-"))
    runs, k = [], 0
    commits = {"base": base_commit, "change": stash or head}
    try:
        trees = {side: export(commit, scratch / side)
                 for side, commit in commits.items()}
        for workload in args.workload:
            for seed in args.seeds:
                for pair in range(args.pairs):
                    order = ("base", "change") if k % 2 == 0 else (
                        "change", "base")
                    k += 1
                    for side in order:
                        run = run_once(trees[side], workload, seed, args)
                        runs.append(dict(run, workload=workload, seed=seed,
                                         pair=pair, side=side,
                                         commit=commits[side]))
                        print(f"{workload} seed {seed} pair {pair} {side}: "
                              f"correct {run['correct']}  "
                              + "  ".join(f"{n} {v:.6g}" for n, v in
                                          run["metrics"].items()
                                          if v is not None),
                              flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    summary = summarize_all(runs, args.workload, args.seeds,
                            spec["end_to_end"])
    report = {
        "tag": args.tag,
        "command": ["python3", "benchcmp.py", *(argv or sys.argv[1:])],
        "base": {"rev": args.base, "commit": base_commit},
        "change": {"commit": head, "modified": bool(stash)},
        "seconds": args.seconds, "size": args.size, "seeds": args.seeds,
        "pairs_per_seed": args.pairs,
        "gain_rule": {"min_pairs": MIN_PAIRS, "win_share": WIN_SHARE,
                      "median_gap": "more than the base's IQR"},
        "summary": summary,
        "runs": runs,
    }
    args.out_dir.mkdir(parents=True, exist_ok=True)
    path = args.out_dir / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print_summary(summary)
    print(f"wrote {path}")
    return exit_code(runs)


if __name__ == "__main__":
    sys.exit(main())
