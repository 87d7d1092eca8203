"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/worker.py INPUT.json OUTPUT.json TRACE

INPUT.json holds the workload name, one repetition's configuration and a
scratch directory; OUTPUT.json receives the timestamps (monotonic clock,
shared with the parent process), the operation counts, the output checks,
a fingerprint of the outputs for the reference comparison, the peak memory
and a machine record.  With TRACE=1 the layer wrappers of
``perfbench/tracer.py`` are installed before anything is built, and the
per-layer metrics are added.

Set-up ends when the timed work can start: after the import, derive_params,
mu_critical and Simulator.__init__ on sim-full; after the import and the
constants step on shoot-probes; after the import on the other two.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

CLOCK = time.monotonic
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

SIM_CONFIG_KEYS = ("p", "delta", "grid.L", "grid.N", "ds", "s0", "s_end",
                   "K", "A", "M_track", "scheme")


def _c(v):
    """JSON form of a history value: [re, im] for complex numbers."""
    c = complex(v)
    return [c.real, c.imag]


def sim_full(rep: dict, work: Path, marks: dict) -> dict:
    from cglblow import cli
    from cglblow.simulate import Simulator

    import numpy as np

    init, run = Simulator.__init__, Simulator.run
    captured = {}

    def init_hook(self, *a, **k):
        init(self, *a, **k)
        marks["setup_end"] = CLOCK()

    def run_hook(self, *a, **k):
        t0 = CLOCK()
        res = run(self, *a, **k)
        captured["run"] = (t0, CLOCK(), res)
        return res

    Simulator.__init__, Simulator.run = init_hook, run_hook
    cfg_path = work / "run.cfg"
    cfg_path.write_text("".join(f"{k} = {rep[k]}\n" for k in SIM_CONFIG_KEYS))
    out_dir = work / "out"
    rc = cli.main([
        "simulate", "--config", str(cfg_path), "--output-dir", str(out_dir),
        "--d0-tilde", repr(rep["d0_tilde"]), "--d1-tilde", repr(rep["d1_tilde"]),
    ])
    checks = [("exit-code-0", rc == 0, f"rc = {rc}")]
    if "run" not in captured:
        return {"checks": checks, "attempted": 1, "failed": 1}
    t0, t1, res = captured["run"]
    marks["work_start"], marks["work_end"] = t0, t1
    h = res.history
    steps = len(h["s"]) - 1
    fails = int(sum(h["modulation_failed"]))
    finite = all(np.all(np.isfinite(np.asarray(v))) for v in h.values())
    finite &= bool(np.all(np.isfinite(res.state.w)))
    q0 = float(np.max(np.abs(np.asarray(h["q0"]))))
    csv = (out_dir / "simulate.csv").read_text().splitlines()
    rows = [ln for ln in csv if not ln.startswith("#")][1:]
    csv_ok = len(rows) == len(h["s"]) and all(
        math.isfinite(float(x)) for ln in rows for x in ln.split(",")
    )
    checks += [
        ("fields-finite", finite, "history and final field"),
        ("no-modulation-failures", fails == 0, f"{fails} of {steps} steps"),
        ("q0-pinned", q0 <= 1e-9, f"max |q0| = {q0:.2e} (<= 1e-9)"),
        ("trapped", res.report.exit_s is None,
         f"exit {res.report.exit_s} via {res.report.exit_component}"),
        ("csv-complete", csv_ok, f"{len(rows)} finite rows"),
    ]
    picks = (0, steps // 2, steps)
    fingerprint = {
        k: [_c(v[i]) for i in picks]
        for k, v in h.items() if k not in ("q0", "modulation_failed")
    }
    return {
        "checks": checks, "ops": steps, "steps": steps, "attempted": steps,
        "failed": fails, "fingerprint": fingerprint,
    }


def linear_modes(rep: dict, work: Path, marks: dict) -> dict:
    from cglblow.simulate import linear_eigenmode_error

    marks["setup_end"] = marks["work_start"] = CLOCK()
    checks, fingerprint, failed = [], {}, 0
    per_mode = int(round(rep["s_end"] / rep["ds"]))
    for n in rep["modes"]:
        rel, kerr = linear_eigenmode_error(
            n, rep["beta"], L=rep["L"], dy=rep["dy"], ds=rep["ds"],
            s_end=rep["s_end"], space_order=rep["space_order"],
            kernel_check=True,
        )
        ok = bool(rel < 1e-4 and kerr < 1e-6)
        failed += not ok
        checks.append((f"mode-{n}-criterion-7", ok,
                       f"decay {rel:.2e} (< 1e-4), kernel {kerr:.2e} (< 1e-6)"))
        fingerprint[str(n)] = [float(rel), float(kerr)]
    marks["work_end"] = CLOCK()
    steps = len(rep["modes"]) * per_mode
    return {
        "checks": checks, "ops": steps, "steps": steps,
        "attempted": len(rep["modes"]), "failed": failed,
        "fingerprint": fingerprint,
    }


def shoot_probes(rep: dict, work: Path, marks: dict) -> dict:
    from cglblow.constants import derive_params, mu_critical
    from cglblow.shooting import exit_sign_pattern, shoot
    from cglblow.simulate import SimConfig

    pm = derive_params(Fraction(rep["p"]), Fraction(rep["delta"]))
    pm = pm.with_mu(mu_critical(pm).mu)
    cfg = SimConfig(params=pm, L=rep["L"], N=rep["N"], ds=rep["ds"],
                    s0=rep["s0"], s_end=rep["s_end"], K=rep["K"], A=rep["A"])
    marks["setup_end"] = marks["work_start"] = CLOCK()
    res = shoot(cfg, grid_n=rep["grid_n"], refine=True,
                bisect_levels=rep["bisect_levels"], probe_N=rep["probe_N"],
                probe_ds=rep["probe_ds"], workers=rep["workers"])
    marks["work_end"] = CLOCK()
    probes = res.probes
    bad = [p for p in probes
           if not all(math.isfinite(v) for v in (p.exit_s, p.phi0, p.phi1))]
    corners = [p for p in probes if (abs(p.d0), abs(p.d1)) == (2.0, 2.0)]
    quads = exit_sign_pattern(corners)
    checks = [
        ("probes-finite", not bad, f"{len(bad)} of {len(probes)} non-finite"),
        ("corners-cover-quadrants", len(corners) == 4 and len(quads) == 4,
         f"{len(corners)} corners, quadrants {sorted(quads)}"),
        ("best-beats-corners",
         all(res.best.exit_s >= p.exit_s for p in corners),
         f"best exit {res.best.exit_s}"),
        ("refined", res.refined, "a quadrant cell was bisected"),
    ]
    steps = sum(int(round((p.exit_s - rep["s0"]) / rep["probe_ds"]))
                for p in probes)
    return {
        "checks": checks, "ops": len(probes), "steps": steps,
        "attempted": len(probes), "failed": len(bad),
        "fingerprint": [[p.d0, p.d1, p.exit_s, p.exit_component, p.phi0,
                         p.phi1] for p in probes],
        "probes": [[p.exit_s, rep["s0"], rep["probe_ds"]] for p in probes],
    }


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            out.update(_flatten(v, f"{prefix}{k}/"))
        return out
    return {prefix.rstrip("/"): obj}


def exact_sweep(rep: dict, work: Path, marks: dict) -> dict:
    from cglblow import cli

    marks["setup_end"] = marks["work_start"] = CLOCK()
    checks, fingerprint, rows, failed = [], {}, 0, 0
    for p, d in rep["pairs"]:
        key = f"p={p}:delta={d}"
        cfg_path = work / "pair.cfg"
        cfg_path.write_text(f"p = {p}\ndelta = {d}\n")
        out_dir = work / "out"
        rc_c = cli.main(["constants", "--config", str(cfg_path),
                         "--output-dir", str(out_dir)])
        rc_v = cli.main(["verify", "--config", str(cfg_path),
                         "--output-dir", str(out_dir)])
        lines = [ln for ln in (out_dir / "verify.txt").read_text().splitlines()
                 if ln.startswith("[")]
        fails = sum(1 for ln in lines if not ln.startswith("[PASS]"))
        rows += len(lines)
        failed += fails
        checks += [
            (f"{key}/exit-codes-0", rc_c == 0 and rc_v == 0,
             f"constants {rc_c}, verify {rc_v}"),
            (f"{key}/verify-all-pass", bool(lines) and fails == 0,
             f"{len(lines)} rows, {fails} not PASS"),
        ]
        payload = json.loads((out_dir / "constants.json").read_text())
        payload.pop("config", None)
        payload.pop("version", None)
        fingerprint[key] = _flatten(payload)
    marks["work_end"] = CLOCK()
    return {
        "checks": checks, "ops": len(rep["pairs"]), "steps": 0,
        "attempted": rows, "failed": failed, "fingerprint": fingerprint,
    }


WORKLOADS = {
    "sim-full": sim_full,
    "linear-modes": linear_modes,
    "shoot-probes": shoot_probes,
    "exact-sweep": exact_sweep,
}


def main(argv) -> int:
    inp_path, out_path, trace = argv[1], argv[2], argv[3] == "1"
    inp = json.loads(Path(inp_path).read_text())
    marks: dict = {}
    result: dict = {}
    try:
        tracer = None
        if trace:
            import tracer as tracing

            tracer = tracing.install(inp["workdir"])
        result = WORKLOADS[inp["workload"]](inp["rep"], Path(inp["workdir"]),
                                            marks)
        if tracer is not None:
            from layers import layer_metrics

            result["layers"] = layer_metrics(tracer.spans,
                                             result.pop("probes", None))
    except Exception:  # reported to the parent, which fails the run
        result["error"] = traceback.format_exc()
    result.pop("probes", None)
    result["marks"] = marks
    result["peak_rss_mb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0
    if inp.get("machine"):
        from machine import machine_record

        result["machine"] = machine_record()
    Path(out_path).write_text(json.dumps(result))
    return 1 if "error" in result else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
