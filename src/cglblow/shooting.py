"""Two-parameter shooting over the prepared initial data.

The exit map sends (d0~, d1~) to the scaled exit values of the two
expanding directions,

    Phi(d0~, d1~) = (s*^{7/4} Qt0(s*)/A,  s*^{3/2} qt1(s*)/A),

evaluated at the first shrinking-set exit (or the window end).  A coarse
grid over [-2, 2]^2 is scanned; a grid cell whose corners realize all four
sign quadrants of the map is then bisected on the quadrant pattern, and
the pair with the latest exit wins.

Probes are independent runs over immutable tables, so they fan out over a
process pool; the pool size is the ``workers`` argument, else
CGLBLOW_WORKERS, else the CPU count capped at 8.  A count below 1 is an
error.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .profilefield import InitialDataSpec
from .simulate import SimConfig, Simulator


@dataclass
class ProbeResult:
    d0: float
    d1: float
    exit_s: float
    exit_component: Optional[str]
    phi0: float      # scaled Qt0 at exit
    phi1: float      # scaled qt1 at exit


@dataclass
class ShootResult:
    probes: list
    best: ProbeResult
    corner_signs: dict
    refined: bool
    meta: dict


_WORKER_SIM = None


def _init_worker(cfg_payload):
    global _WORKER_SIM
    _WORKER_SIM = Simulator(cfg_payload)


def _run_probe(args):
    d0, d1 = args
    sim = _WORKER_SIM
    cfg = sim.config
    spec = InitialDataSpec(s0=cfg.s0, d0_tilde=d0, d1_tilde=d1,
                           K=cfg.K, A=cfg.A)
    res = sim.run(spec, stop_on_exit=True, exit_grace=0)
    h = res.history
    s_star = res.report.exit_s if res.report.exit_s is not None else cfg.s_end
    idx = int(np.argmin(np.abs(np.array(h["s"]) - s_star)))
    A = cfg.A
    return ProbeResult(
        d0=d0, d1=d1, exit_s=float(s_star),
        exit_component=res.report.exit_component,
        phi0=float(h["Qt0"][idx] * s_star**1.75 / A),
        phi1=float(h["qt1"][idx] * s_star**1.5 / A),
    )


def worker_count(workers: Optional[int] = None) -> int:
    """The pool size: ``workers``, else CGLBLOW_WORKERS, else min(CPUs, 8)."""
    if workers is None:
        env = os.environ.get("CGLBLOW_WORKERS", "").strip()
        if not env:
            return min(os.cpu_count() or 1, 8)
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(
                f"CGLBLOW_WORKERS must be an integer >= 1, got {env!r}"
            ) from None
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    return workers


def _scan(cfg: SimConfig, pairs, workers: int) -> list:
    if workers <= 1:
        _init_worker(cfg)
        return [_run_probe(p) for p in pairs]
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(cfg,)
    ) as pool:
        return list(pool.map(_run_probe, pairs))


QUADRANTS = {(-1, -1), (-1, 1), (1, -1), (1, 1)}


def _quadrant(pr: ProbeResult):
    s0 = 1 if pr.phi0 >= 0 else -1
    s1 = 1 if pr.phi1 >= 0 else -1
    return (s0, s1)


def _covers_quadrants(four) -> bool:
    return {_quadrant(p) for p in four} == QUADRANTS


def shoot(config: SimConfig, grid_n: int = 8, refine: bool = True,
          bisect_levels: int = 9,
          probe_N: Optional[int] = None, probe_ds: Optional[float] = None,
          workers: Optional[int] = None) -> ShootResult:
    """Coarse scan plus a quadrant-pattern bisection refinement.

    The coarse grid locates a cell whose four corner probes realize all
    four sign quadrants of the exit map (the trapped pair lies inside by
    the degree argument); the cell is then bisected, keeping a sub-cell
    with the full quadrant pattern, until ``bisect_levels`` halvings.

    ``probe_N``/``probe_ds`` allow cheaper probe runs than the certified
    configuration (recorded in the metadata); the returned best pair should
    be re-run at full resolution by the caller.
    """
    nworkers = worker_count(workers)
    cfg = replace(
        config,
        N=config.N if probe_N is None else probe_N,
        ds=config.ds if probe_ds is None else probe_ds,
    )
    cfg.validate()
    vals = np.linspace(-2.0, 2.0, grid_n)
    pairs = [(float(a), float(b)) for a in vals for b in vals]
    probes = _scan(cfg, pairs, nworkers)
    grid = {(round(p.d0, 12), round(p.d1, 12)): p for p in probes}

    corner_signs = {}
    for pr in probes:
        if (abs(pr.d0), abs(pr.d1)) == (2.0, 2.0):
            corner_signs[(pr.d0, pr.d1)] = (np.sign(pr.phi0), np.sign(pr.phi1))

    refined = False
    if refine:
        cell = None
        for i in range(grid_n - 1):
            for j in range(grid_n - 1):
                four = [
                    grid[(round(float(vals[i + a]), 12),
                          round(float(vals[j + b]), 12))]
                    for a in (0, 1) for b in (0, 1)
                ]
                if _covers_quadrants(four):
                    cell = (float(vals[i]), float(vals[i + 1]),
                            float(vals[j]), float(vals[j + 1]))
                    break
            if cell:
                break
        if cell:
            refined = True
            x0, x1, y0, y1 = cell
            for _ in range(bisect_levels):
                xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
                new_pts = [
                    (xm, ym), (x0, ym), (x1, ym), (xm, y0), (xm, y1)
                ]
                new_probes = _scan(cfg, new_pts, min(nworkers, len(new_pts)))
                probes.extend(new_probes)
                lut = {(round(p.d0, 12), round(p.d1, 12)): p
                       for p in probes}

                def P(x, y):
                    return lut[(round(x, 12), round(y, 12))]

                found = None
                for (a0, a1) in ((x0, xm), (xm, x1)):
                    for (b0, b1) in ((y0, ym), (ym, y1)):
                        four = [P(a0, b0), P(a0, b1), P(a1, b0), P(a1, b1)]
                        if _covers_quadrants(four):
                            found = (a0, a1, b0, b1)
                            break
                    if found:
                        break
                if not found:
                    break
                x0, x1, y0, y1 = found

    best = max(probes, key=lambda r: r.exit_s)
    meta = {
        "grid_n": grid_n,
        "workers": nworkers,
        "probe_N": cfg.N,
        "probe_ds": cfg.ds,
        "s_end": cfg.s_end,
        "bisect_levels": bisect_levels,
    }
    return ShootResult(probes=probes, best=best, corner_signs=corner_signs,
                       refined=refined, meta=meta)


def exit_sign_pattern(probes) -> set:
    """The set of strict sign quadrants of the exit map over the probes."""
    out = set()
    for pr in probes:
        s0, s1 = np.sign(pr.phi0), np.sign(pr.phi1)
        if s0 != 0 and s1 != 0:
            out.add((int(s0), int(s1)))
    return out
