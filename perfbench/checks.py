"""Comparison of a repetition's outputs with the recorded reference values.

Tolerances admit a pivoted (LAPACK) banded solve and an exact rewrite of
the phase modulation: replacing the Newton iteration (tolerance 1e-11) by an
exact root moves the sim-full history by at most 6e-10 of each column's
largest value, far inside the 1e-7 allowed here, while any change of the
scheme, grid or step moves it by orders of magnitude more.
"""

from __future__ import annotations

import math

# sim-full: |a - b| <= SIM_RTOL * (largest |value| of the column) + ABS_FLOOR
SIM_RTOL = 1e-7
ABS_FLOOR = 1e-15
# linear-modes: the decay and kernel errors themselves (1e-14 .. 1e-9)
LINEAR_RTOL, LINEAR_ATOL = 1e-3, 1e-13
# shoot-probes: scaled exit values; exit times are step counts times ds
PHI_RTOL, PHI_ATOL, S_ATOL = 1e-6, 1e-9, 1e-9
# exact-sweep: floats printed from exact values
EXACT_RTOL = 1e-12


def _close(a, b, rtol, atol) -> bool:
    return abs(a - b) <= rtol * abs(b) + atol


def _sim(got: dict, want: dict):
    if set(got) != set(want):
        return False, f"columns differ: {sorted(set(got) ^ set(want))}"
    worst, where = 0.0, ""
    for col, rows in want.items():
        if len(got[col]) != len(rows):
            return False, f"{col}: {len(got[col])} rows, want {len(rows)}"
        scale = max(abs(x) for row in rows for x in row)
        tol = SIM_RTOL * scale + ABS_FLOOR
        for g, w in zip(got[col], rows):
            err = max(abs(gi - wi) for gi, wi in zip(g, w))
            if not err <= tol:
                return False, f"{col}: |diff| {err:.3e} > {tol:.3e}"
            share = err / (scale or 1.0)
            if share > worst:
                worst, where = share, col
    return True, f"worst {worst:.1e} of column scale ({where or 'exact'})"


def _linear(got, want):
    ok = all(_close(g, w, LINEAR_RTOL, LINEAR_ATOL) for g, w in zip(got, want))
    return ok, f"decay/kernel errors {got} vs {want}"


def _shoot(got, want):
    if len(got) != len(want):
        return False, f"{len(got)} probes, want {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        d0, d1, exit_s, comp, phi0, phi1 = g
        same = (
            _close(d0, w[0], 0.0, 1e-12) and _close(d1, w[1], 0.0, 1e-12)
            and _close(exit_s, w[2], 0.0, S_ATOL) and comp == w[3]
            and _close(phi0, w[4], PHI_RTOL, PHI_ATOL)
            and _close(phi1, w[5], PHI_RTOL, PHI_ATOL)
        )
        if not same:
            return False, f"probe {i}: {g} vs {w}"
    return True, f"{len(got)} probes match"


def _same_value(g, w) -> bool:
    if isinstance(w, float) and isinstance(g, (int, float)):
        if math.isnan(w):
            return math.isnan(g)
        return _close(g, w, EXACT_RTOL, 0.0)
    if isinstance(w, list) and isinstance(g, list):
        return len(g) == len(w) and all(_same_value(a, b) for a, b in zip(g, w))
    return g == w


def _exact(got: dict, want: dict):
    if set(got) != set(want):
        return False, f"fields differ: {sorted(set(got) ^ set(want))}"
    bad = [k for k in want if not _same_value(got[k], want[k])]
    if bad:
        return False, f"{len(bad)} fields differ, first {bad[0]}: {got[bad[0]]} vs {want[bad[0]]}"
    return True, f"{len(want)} fields match"


COMPARE = {
    "sim-full": _sim,
    "linear-modes": _linear,
    "shoot-probes": _shoot,
    "exact-sweep": _exact,
}


def compare(workload: str, keyed: dict, reference: dict) -> list:
    """One ``(name, ok, detail)`` check per reference key of a repetition."""
    table = reference.get(workload, {})
    out = []
    for key, got in keyed.items():
        if key not in table:
            out.append((f"reference/{key}", False, "no reference recorded"))
            continue
        ok, detail = COMPARE[workload](got, table[key])
        out.append((f"reference/{key}", ok, detail))
    return out
