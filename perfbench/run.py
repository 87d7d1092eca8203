"""cglblow benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload sim-full --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Every repetition runs in a fresh
interpreter (``perfbench/worker.py``) that imports cglblow from ``src/`` with
the BLAS thread count pinned to one.  Repetitions go on until ``--seconds``
have passed and at least three have run.  The end-to-end metrics are the
medians over the repetitions (see ``end_to_end``), with the range of the
samples printed beside them.  With ``--trace 1`` untraced and traced repetitions
alternate, and the medians of the per-layer metrics of the traced ones are
printed with the tracing overhead (traced minus untraced wall time).

Every repetition's outputs are checked, against ``perfbench/reference.json``
among others.  The lines before the last describe the run (inputs, machine,
checks, every metric by name and unit); the last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only if every check passed.

Workloads, their reasons and the layer-to-metric mapping are listed in
``perfbench/layers.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import compare  # noqa: E402
from inputs import WORKLOADS, keyed_fingerprint, make_inputs  # noqa: E402
from machine import BLAS_ENV  # noqa: E402

CLOCK = time.monotonic
DEADLINE_S = 170.0      # the whole run, including its last repetition
# repetitions at least, by (size, trace): medians need three untraced ones
MIN_REPS = {("full", 0): 3, ("full", 1): 2, ("tiny", 0): 1, ("tiny", 1): 2}

# each workload's own name for its throughput, printed beside ops_per_s
OPS_NAMES = {
    "sim-full": "steps_per_s",
    "linear-modes": "steps_per_s",
    "shoot-probes": "probes_per_s",
    "exact-sweep": "param_sets_per_s",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: reduced inputs for the smoke test")
    return ap.parse_args(argv)


def spawn(payload: dict, workdir: Path, traced: bool, timeout: float) -> dict:
    """Run one repetition in a fresh interpreter; returns its report."""
    workdir.mkdir(parents=True)
    inp, out = workdir / "input.json", workdir / "output.json"
    inp.write_text(json.dumps(dict(payload, workdir=str(workdir))))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               **BLAS_ENV)
    t0 = CLOCK()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(inp), str(out),
         "1" if traced else "0"],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        # the session holds the worker and its shooting pool
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"repetition timed out after {timeout:.0f} s"}
    t1 = CLOCK()
    if not out.exists():
        return {"error": f"worker exited {proc.returncode}: {err[-2000:]}"}
    rep = json.loads(out.read_text())
    rep["t_spawn"], rep["t_exit"], rep["traced"] = t0, t1, traced
    if proc.returncode != 0 and "error" not in rep:
        rep["error"] = f"worker exited {proc.returncode}: {err[-2000:]}"
    return rep


def run_reps(args, inputs: dict, tmp: Path) -> list:
    reps, t_begin = [], CLOCK()
    min_reps = MIN_REPS[(args.size, args.trace)]
    while True:
        i = len(reps)
        elapsed = CLOCK() - t_begin
        if i >= min_reps and elapsed >= args.seconds:
            break
        longest = max((r["t_exit"] - r["t_spawn"] for r in reps), default=0.0)
        if i and elapsed + longest > DEADLINE_S:
            break
        payload = {"workload": args.workload, "rep": inputs["rep"],
                   "machine": i == 0}
        traced = bool(args.trace) and i % 2 == 1
        reps.append(spawn(payload, tmp / f"rep-{i}", traced,
                          DEADLINE_S - elapsed))
        if "error" in reps[-1]:
            break
    return reps


def _median(values):
    return statistics.median(values) if values else float("nan")


def completed(reps: list, traced: bool) -> list:
    """The repetitions of one kind that ran to the end without an error."""
    return [r for r in reps if r.get("traced") == traced and "error" not in r]


def end_to_end(reps: list) -> dict:
    """Medians over a run's untraced repetitions, with their samples.

    Every repetition does the same work in a fresh process, and the machine's
    speed drifts under load from its neighbours, so each time and rate is the
    median over the repetitions.  A rate is a repetition's operations over the
    time of its whole timed work.  Peak memory is the largest of any
    repetition.
    """
    plain = completed(reps, False)
    work = [r["marks"]["work_end"] - r["marks"]["work_start"] for r in plain]
    samples = {
        "setup_s": [r["marks"]["setup_end"] - r["t_spawn"] for r in plain],
        "wall_s": [r["t_exit"] - r["t_spawn"] for r in plain],
        "ops_per_s": [r["ops"] / w for r, w in zip(plain, work)],
        "steps_per_s": [r["steps"] / w for r, w in zip(plain, work)],
    }
    out = {k: _median(v) for k, v in samples.items()}
    out["peak_rss_mb"] = max((r["peak_rss_mb"] for r in plain),
                             default=float("nan"))
    out["samples"] = samples
    return out


def per_layer(reps: list) -> dict:
    traced = completed(reps, True)
    names = traced[0]["layers"] if traced else {}
    out = {k: _median([r["layers"][k] for r in traced]) for k in names}
    plain = [r["t_exit"] - r["t_spawn"] for r in completed(reps, False)]
    out["trace.overhead_s"] = (
        _median([r["t_exit"] - r["t_spawn"] for r in traced]) - _median(plain)
    )
    return out


def check_reps(args, config: dict, reps: list, reference: dict) -> list:
    checks = []
    for i, r in enumerate(reps):
        if "error" in r:
            checks.append((f"rep-{i}/completed", False, r["error"].strip()))
            continue
        checks += [(f"rep-{i}/{n}", ok, d) for n, ok, d in r.get("checks", [])]
        keyed = keyed_fingerprint(args.workload, args.size, config,
                                  r.get("fingerprint", {}))
        checks += [(f"rep-{i}/{n}", ok, d)
                   for n, ok, d in compare(args.workload, keyed, reference)]
    return checks


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cglblow" / "__init__.py").is_file():
        print(f"error: no cglblow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())
    inputs = make_inputs(args.workload, args.seed, args.size)
    tmp = HERE / ".tmp" / f"run-{os.getpid()}"
    try:
        reps = run_reps(args, inputs, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    checks = check_reps(args, inputs["rep"], reps, reference)
    correct = bool(reps) and all(ok for _, ok, _ in checks)
    attempted = max(1, sum(r.get("attempted", 1) for r in reps))
    failed = sum(r.get("failed", 1) for r in reps) if correct else attempted
    e2e = end_to_end(reps)
    machine = next((r["machine"] for r in reps if "machine" in r), {})

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"repetitions {len(reps)} ({sum(1 for r in reps if r.get('traced'))} traced)")
    print("inputs " + json.dumps(inputs["rep"]))
    print("machine " + json.dumps(dict(machine, seed=args.seed)))
    for name, ok, detail in checks:
        if not ok or name.startswith("rep-0/"):
            print(f"check {'PASS' if ok else 'FAIL'} {name}: {detail}")
    print(f"checks {sum(ok for _, ok, _ in checks)}/{len(checks)} passed")
    print(f"metric {OPS_NAMES[args.workload]} = {e2e['ops_per_s']:.6g} 1/s")
    if args.workload == "shoot-probes":
        print(f"metric steps_per_s = {e2e['steps_per_s']:.6g} 1/s")
    print(f"metric failed_frac = {failed / attempted:.6g} 1 "
          f"({failed} of {attempted} operations)")

    if args.trace:
        values, listed = per_layer(reps), spec["per_layer"]
    else:
        values, listed = e2e, spec["end_to_end"]
    metrics = {}
    for m in listed:
        value = values.get(m["name"], float("nan"))
        extra = ""
        v = [] if args.trace else e2e["samples"].get(m["name"], [])
        if v:
            extra = (f"  (median of {len(v)} repetitions, "
                     f"range {min(v):.6g} .. {max(v):.6g})")
        print(f"metric {m['name']} = {value:.6g} {m['unit']}{extra}")
        metrics[m["name"]] = {"value": None if value != value else value,
                              "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
