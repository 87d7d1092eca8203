"""Seeded inputs of the four workloads.

Every input is drawn from a finite catalog with ``random.Random(seed)``, so
the same seed gives the same inputs and every input the seed can produce has
a recorded reference (``perfbench/reference.json``).  A seed draws one
repetition configuration, and every repetition of the run does that same
work.  The draws leave the amount of work unchanged, so runs with
different seeds are comparable.
``size="tiny"`` shrinks every workload for the smoke test.
"""

from __future__ import annotations

import os
import random

WORKLOADS = ("sim-full", "linear-modes", "shoot-probes", "exact-sweep")

# the (p, delta) acceptance samples (SAMPLES_22 of the test suite, which
# holds 21 pairs), as strings of exact rationals; constants plus verify make
# the same number of Python calls at each of them to within 1.3%
SAMPLES_22 = (
    [("3/2", d) for d in ("1/2", "1", "3/2", "2", "3")]
    + [("2", d) for d in ("1/3", "1", "2", "4")]
    + [("3", d) for d in ("1/2", "1", "2", "3", "7/2")]
    + [("4", d) for d in ("1", "3/2", "3")]
    + [("7", d) for d in ("1", "2", "3", "4")]
)

# (d0~, d1~) pairs that stay trapped over the sim-full window
D_TILDE = (-0.25, -0.125, 0.0, 0.125, 0.25)
LINEAR_BETAS = (0.25, 0.5, 1.0, 2.0)
# start times at which the search runs the same 31 probes (at s0 = 90 the
# bisection stops after one level, which would change the work by seed)
SHOOT_S0 = (95.0, 100.0, 105.0, 110.0)

SIZES = {
    "full": {
        "sim-full": {"N": 8192, "ds": 5e-4, "window": 0.1},
        "linear-modes": {"dy": 0.01, "ds": 1e-4, "s_end": 0.06},
        "shoot-probes": {"grid_n": 4, "bisect_levels": 3, "probe_N": 2048,
                         "probe_ds": 1e-3, "window": 0.2},
    },
    "tiny": {
        "sim-full": {"N": 1024, "ds": 1e-3, "window": 0.02},
        "linear-modes": {"dy": 0.01, "ds": 1e-4, "s_end": 0.002},
        "shoot-probes": {"grid_n": 2, "bisect_levels": 1, "probe_N": 512,
                         "probe_ds": 1e-3, "window": 0.01},
    },
}


def shoot_workers() -> int:
    """Pool size of the shooting workload: the CPU count, at most two."""
    return max(1, min(len(os.sched_getaffinity(0)), 2))


def _sim_rep(size, d0, d1):
    knobs = SIZES[size]["sim-full"]
    return {
        "p": "3", "delta": "1", "grid.L": "88", "grid.N": str(knobs["N"]),
        "ds": repr(knobs["ds"]), "s0": "100",
        "s_end": repr(100.0 + knobs["window"]), "K": "12", "A": "20",
        "M_track": "6", "scheme": "imex2", "d0_tilde": d0, "d1_tilde": d1,
    }


def _linear_rep(size, beta, modes):
    knobs = SIZES[size]["linear-modes"]
    return {"beta": beta, "modes": modes, "L": 16.0, "dy": knobs["dy"],
            "ds": knobs["ds"], "s_end": knobs["s_end"], "space_order": 4}


def _shoot_rep(size, s0):
    knobs = SIZES[size]["shoot-probes"]
    return {
        "p": "3", "delta": "1", "L": 88.0, "N": 8192, "ds": 5e-4,
        "s0": s0, "s_end": s0 + knobs["window"], "K": 12.0, "A": 20.0,
        "grid_n": knobs["grid_n"], "bisect_levels": knobs["bisect_levels"],
        "probe_N": knobs["probe_N"], "probe_ds": knobs["probe_ds"],
        "workers": shoot_workers(),
    }


def make_inputs(workload: str, seed: int, size: str = "full") -> dict:
    """The configuration that every repetition of one run uses.

    Returns ``{"workload", "size", "rep": config}``.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sim-full":
        rep = _sim_rep(size, rng.choice(D_TILDE), rng.choice(D_TILDE))
    elif workload == "linear-modes":
        modes = list(range(5))
        rng.shuffle(modes)
        rep = _linear_rep(size, rng.choice(LINEAR_BETAS), modes)
    elif workload == "shoot-probes":
        rep = _shoot_rep(size, rng.choice(SHOOT_S0))
    else:
        rep = {"pairs": [list(rng.choice(SAMPLES_22))]}
    return {"workload": workload, "size": size, "rep": rep}


def catalog(workload: str, size: str) -> list:
    """Every repetition configuration a seed can produce, for the reference."""
    if workload == "sim-full":
        return [_sim_rep(size, a, b) for a in D_TILDE for b in D_TILDE]
    if workload == "linear-modes":
        return [_linear_rep(size, beta, list(range(5))) for beta in LINEAR_BETAS]
    if workload == "shoot-probes":
        return [_shoot_rep(size, s0) for s0 in SHOOT_S0]
    return [{"pairs": [list(pd) for pd in SAMPLES_22]}]


def keyed_fingerprint(workload: str, size: str, rep: dict, fp) -> dict:
    """A repetition's output fingerprint under its ``reference.json`` keys."""
    if workload == "sim-full":
        return {f"{size}:d0={rep['d0_tilde']}:d1={rep['d1_tilde']}": fp}
    if workload == "linear-modes":
        return {f"{size}:beta={rep['beta']}:n={n}": v for n, v in fp.items()}
    if workload == "shoot-probes":
        return {f"{size}:s0={rep['s0']}": fp}
    return fp
