"""Two-parameter shooting over the prepared initial data.

The exit map sends (d0~, d1~) to the scaled exit values of the two
expanding directions,

    Phi(d0~, d1~) = (s*^{7/4} Qt0(s*)/A,  s*^{3/2} qt1(s*)/A),

evaluated at the first shrinking-set exit (or the window end).  A coarse
grid over [-2, 2]^2 is scanned; a grid cell whose corners realize all four
sign quadrants of the map is then bisected on the quadrant pattern, and
the pair with the latest exit wins, ties going to the smallest |Phi|.
Probes are keyed by integer lattice indices: a coarse index times
2**bisect_levels, so every bisection midpoint is an integer halving.

``shoot`` owns its set-up: it checks its own arguments, and the one
``Simulator`` it builds validates the probe configuration and only then
derives mu, so a caller passes its configuration as it is.

A search builds one ``Simulator`` at probe resolution and every probe runs
on it.  A scan splits its probe list into min(workers, probes) contiguous
blocks; each block is stepped as one ``Simulator.run_block``, whose rows
equal the probes' single runs bit for bit, so the search does not depend
on the worker count.  The blocks fan out over a process pool whose workers
inherit the Simulator, one block per worker.  The worker count is the
``workers`` argument, else the number of CPUs the process may run on,
capped at 8; a count below 1 is an error.  The pool holds no more workers
than the search's largest scan has probes (grid_n**2 coarse probes, or 5
per bisection level when refining); ``meta.workers`` records its size.
One pool serves the coarse scan and every bisection level of a search; a
serial search runs each scan as one block in the calling process.  Each pool
worker sets the OpenBLAS that numpy and scipy bundle to one thread as it
starts, so the workers do not oversubscribe the cores; a serial search
leaves the caller's BLAS as it is.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
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

# set-threads entry points of the OpenBLAS builds that numpy (ILP64) and
# scipy (LP64) bundle
_BLAS_SET_THREADS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
)


def _loaded_openblas() -> list:
    """Paths of the OpenBLAS libraries mapped into this process (Linux)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return []
    return sorted(p for p in paths if p.startswith("/"))


def _pin_blas() -> None:
    """Run numpy's and scipy's OpenBLAS on one thread; skip what is absent."""
    for path in _loaded_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_SET_THREADS:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = (ctypes.c_int,), None
                fn(1)
                break


def _init_worker(sim: Simulator, pin_blas: bool = False):
    global _WORKER_SIM
    if pin_blas:
        _pin_blas()
    _WORKER_SIM = sim


def _run_probe(block) -> list:
    """The ProbeResults of a block of (d0, d1) pairs, in order, stepped as
    one block on the worker's Simulator."""
    sim = _WORKER_SIM
    cfg = sim.config
    runs = sim.run_block(
        [InitialDataSpec(d0_tilde=d0, d1_tilde=d1) for d0, d1 in block],
        stop_on_exit=True, exit_grace=0)
    out = []
    for (d0, d1), res in zip(block, runs):
        # without grace a run ends on its exit record, else at s_end
        h = res.history
        s_star = (res.report.exit_s if res.report.exit_s is not None
                  else cfg.s_end)
        out.append(ProbeResult(
            d0=d0, d1=d1, exit_s=float(s_star),
            exit_component=res.report.exit_component,
            phi0=float(h["Qt0"][-1] * s_star**1.75 / cfg.A),
            phi1=float(h["qt1"][-1] * s_star**1.5 / cfg.A),
        ))
    return out


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def worker_count(workers: Optional[int] = None) -> int:
    """The pool size: ``workers``, else min(usable CPUs, 8).  ``shoot``
    alone calls it, on its own argument."""
    if workers is None:
        return min(_usable_cpus(), 8)
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    return workers


def _pool(sim: Simulator, workers: int):
    """A process pool whose workers hold ``sim``; no pool when serial."""
    if workers <= 1:
        return contextlib.nullcontext()
    return ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(sim, True)
    )


def _scan(sim: Simulator, pairs, workers: int, *, pool) -> list:
    """Probe every pair, in min(workers, len(pairs)) contiguous blocks: one
    block in this process if serial (which then clears the worker slot),
    else one block per task on ``pool``."""
    global _WORKER_SIM
    if workers <= 1:
        _init_worker(sim)
        try:
            return _run_probe(pairs)
        finally:
            _WORKER_SIM = None
    n = min(workers, len(pairs))
    cuts = [len(pairs) * i // n for i in range(n + 1)]
    blocks = [pairs[a:b] for a, b in zip(cuts, cuts[1:])]
    return [pr for done in pool.map(_run_probe, blocks) for pr in done]


def _first_quadrant_cell(probes: dict, cells):
    """The first cell (i0, i1, j0, j1) whose corner probes cover all four
    strict sign quadrants (see ``exit_sign_pattern``), or None."""
    for i0, i1, j0, j1 in cells:
        four = [probes[i, j] for i in (i0, i1) for j in (j0, j1)]
        if exit_sign_pattern(four) == {(-1, -1), (-1, 1), (1, -1), (1, 1)}:
            return i0, i1, j0, j1
    return None


def shoot(config: SimConfig, grid_n: int = 8, refine: bool = True,
          bisect_levels: int = 9,
          probe_N: Optional[int] = None, probe_ds: Optional[float] = None,
          workers: Optional[int] = None) -> ShootResult:
    """Coarse scan plus a quadrant-pattern bisection refinement.

    The coarse grid locates a cell whose four corner probes realize all
    four sign quadrants of the exit map (the trapped pair lies inside by
    the degree argument); the cell is then bisected, keeping a sub-cell
    with the full quadrant pattern, until ``bisect_levels`` halvings.

    ``shoot`` checks its own arguments before any set-up: ``config``,
    then ``grid_n``, ``bisect_levels`` and the worker count.  One
    ``Simulator`` is then built for the probe configuration; it validates
    that configuration and only then derives mu, if ``config`` leaves it
    unset.  It is shared by every probe of every scan; with more than one
    worker, one process pool runs all the scans.
    ``probe_N``/``probe_ds`` allow cheaper probe runs than the certified
    configuration (recorded in the metadata); the returned best pair should
    be re-run at full resolution by the caller.
    """
    config.validate()
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n}")
    if bisect_levels < 0:
        raise ValueError(f"bisect_levels must be >= 0, got {bisect_levels}")
    # no more workers than the largest scan has probes
    nworkers = min(worker_count(workers),
                   max(grid_n**2, 5 if refine and bisect_levels else 0))
    sim = Simulator(replace(
        config,
        N=config.N if probe_N is None else probe_N,
        ds=config.ds if probe_ds is None else probe_ds,
    ))
    cfg = sim.config
    # lattice index -> d value; coarse index i sits at i * unit
    unit = 2**bisect_levels
    at = {i * unit: float(v)
          for i, v in enumerate(np.linspace(-2.0, 2.0, grid_n))}
    with _pool(sim, nworkers) as pool:
        keys = [(i, j) for i in at for j in at]
        probes = dict(zip(keys, _scan(sim, [(at[i], at[j]) for i, j in keys],
                                      nworkers, pool=pool)))
        last = (grid_n - 1) * unit
        corner_signs = {}
        for i in (0, last):
            for j in (0, last):
                pr = probes[i, j]
                corner_signs[(pr.d0, pr.d1)] = (np.sign(pr.phi0),
                                                np.sign(pr.phi1))

        cell = None
        if refine:
            cell = _first_quadrant_cell(probes, [
                (i, i + unit, j, j + unit)
                for i in range(0, last, unit) for j in range(0, last, unit)
            ])
        refined = cell is not None
        final_cell, levels_run = cell, 0
        for _ in range(bisect_levels):
            if cell is None:
                break
            levels_run += 1
            x0, x1, y0, y1 = cell
            xm, ym = (x0 + x1) // 2, (y0 + y1) // 2
            at[xm] = 0.5 * (at[x0] + at[x1])
            at[ym] = 0.5 * (at[y0] + at[y1])
            keys = [(xm, ym), (x0, ym), (x1, ym), (xm, y0), (xm, y1)]
            probes.update(zip(keys, _scan(
                sim, [(at[i], at[j]) for i, j in keys],
                min(nworkers, len(keys)), pool=pool)))
            cell = _first_quadrant_cell(probes, [
                (a0, a1, b0, b1)
                for a0, a1 in ((x0, xm), (xm, x1))
                for b0, b1 in ((y0, ym), (ym, y1))
            ])
            final_cell = cell or final_cell

    probes = list(probes.values())
    # the latest exit; among equal exits (probes that never exit all end at
    # s_end), the smallest |Phi|
    best = max(probes, key=lambda r: (r.exit_s, -math.hypot(r.phi0, r.phi1)))
    meta = {
        "grid_n": grid_n,
        "workers": nworkers,
        "probe_N": cfg.N,
        "probe_ds": cfg.ds,
        "s_end": cfg.s_end,
        "bisect_levels": bisect_levels,
        "levels_run": levels_run,
        # the last cell with all four sign quadrants at its corners, as
        # [[d0 lo, d0 hi], [d1 lo, d1 hi]]; None without one
        "final_cell": None if final_cell is None else [
            [at[final_cell[0]], at[final_cell[1]]],
            [at[final_cell[2]], at[final_cell[3]]],
        ],
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
