"""Per-layer metrics computed from one traced workload run.

Times are totals in seconds (``_s``), means per call in milliseconds
(``_ms``) or microseconds (``_us``); counts are plain numbers.  "Per step"
counts take the calls made inside each ``Simulator.run`` from its first
``Simulator.step`` on, so the set-up calls before the loop are left out and
the count repeats exactly for a fixed input.
"""

from __future__ import annotations

import math

LAYERS = (
    "exact", "series", "constants", "spectral", "profilefield", "stepping",
    "simulate", "shooting", "verify", "cli",
)


def _percentile(values, q):
    if not values:
        return 0.0
    vals = sorted(values)
    k = (len(vals) - 1) * q
    lo, hi = math.floor(k), math.ceil(k)
    return vals[lo] + (vals[hi] - vals[lo]) * (k - lo)


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans: list, probes: list | None = None) -> dict:
    """Every per-layer metric from a span list (see ``perfbench/layers.json``).

    ``probes`` is the shooting result's probe list as ``(exit_s, s0, ds)``,
    used for the step count that each probe's exit time implies.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    children: list = [[] for _ in range(n)]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
            children[s[3]].append(i)
    by_name: dict = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def total(name):
        return sum(dur[i] for i in by_name.get(name, ()))

    def mean_ms(name, keep=None):
        ids = [i for i in by_name.get(name, ()) if keep is None or keep(i)]
        return 1e3 * _mean([dur[i] for i in ids])

    def count(name, keep=None):
        return sum(1 for i in by_name.get(name, ()) if keep is None or keep(i))

    def is_grid(i):
        return (spans[i][4] or 0) > 1

    # calls inside the step loops of every Simulator.run
    loop_steps = 0
    loop_calls = {"spectral.convert_Q": 0, "profilefield.phi": 0}

    def tally(i):
        name = spans[i][0]
        if name == "spectral.convert_Q" or (name == "profilefield.phi" and is_grid(i)):
            loop_calls[name] += 1
        for c in children[i]:
            tally(c)

    for r in by_name.get("simulate.Simulator.run", ()):
        steps = [k for k in children[r] if spans[k][0] == "simulate.Simulator.step"]
        if not steps:
            continue
        loop_steps += len(steps)
        for k in children[r]:
            if spans[k][1] >= spans[steps[0]][1]:
                tally(k)

    def per_step(key):
        return loop_calls[key] / loop_steps if loop_steps else 0.0

    mod_ids = by_name.get("simulate.Simulator.modulate", ())
    iters = [
        math.ceil(sum(1 for c in children[i]
                      if spans[c][0] == "spectral.convert_Q") / 2)
        for i in mod_ids
    ]
    solve_ids = by_name.get("stepping.solve", ())
    probe_ids = by_name.get("shooting.probe", ())
    # busy share of the pool workers: probe time over pool capacity
    capacity = sum(
        dur[i] * min(spans[i][4][0], spans[i][4][1])
        for i in by_name.get("shooting.scan", ())
        if spans[i][4] is not None
    )
    busy = sum(dur[i] for i in probe_ids)
    probes = probes or []

    out = {
        "constants.derive_params_s": total("constants.derive_params"),
        "constants.mu_critical_s": total("constants.mu_critical"),
        "constants.shrink_combo_s": total("constants.shrink_combo_constants"),
        "constants.projection_tables_calls": count("constants.projection_tables"),
        "spectral.build_basis_s": total("spectral.build_basis"),
        "spectral.convert_Q_calls_per_step": per_step("spectral.convert_Q"),
        "spectral.convert_Q_us": 1e3 * mean_ms("spectral.convert_Q"),
        "profilefield.phi_grid_calls_per_step": per_step("profilefield.phi"),
        "profilefield.phi_ms": mean_ms("profilefield.phi", is_grid),
        "profilefield.initial_data_ms": mean_ms("profilefield.initial_data"),
        "stepping.step_ms": mean_ms("stepping.Stepper.step"),
        "stepping.solve_ms": mean_ms("stepping.solve"),
        "stepping.rhs_ms": mean_ms("stepping.rhs"),
        "stepping.solve_bytes_computed": _mean(
            [spans[i][4] for i in solve_ids if spans[i][4] is not None]
        ),
        "stepping.steps": count("stepping.Stepper.step"),
        "simulate.init_s": total("simulate.Simulator.init"),
        "simulate.step_ms": mean_ms("simulate.Simulator.step"),
        "simulate.modulate_ms": mean_ms("simulate.Simulator.modulate"),
        "simulate.modulate_iters": _mean(iters),
        "simulate.modulation_failures": sum(
            1 for i in mod_ids if spans[i][4] is False
        ),
        "simulate.diagnose_ms": mean_ms("simulate.Simulator.diagnose"),
        "simulate.project_q_ms": mean_ms("simulate.Simulator.project_q"),
        "simulate.loop_steps": loop_steps,
        "shooting.probes": len(probes),
        "shooting.probe_steps": sum(
            int(round((exit_s - s0) / ds)) for exit_s, s0, ds in probes
        ),
        "shooting.probe_s_p50": _percentile([dur[i] for i in probe_ids], 0.5),
        "shooting.probe_s_p90": _percentile([dur[i] for i in probe_ids], 0.9),
        "shooting.probe_spans": len(probe_ids),
        "shooting.worker_init_s": total("shooting.init_worker"),
        "shooting.worker_busy_frac": busy / capacity if capacity else 0.0,
        "verify.report_s": total("verify.verification_report"),
        "verify.checks": sum(
            spans[i][4][0] for i in by_name.get("verify.verification_report", ())
        ),
        "trace.spans": n,
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            dur[i] - child[i] for i in range(n)
            if spans[i][0].split(".", 1)[0] == layer
        )
    return out
