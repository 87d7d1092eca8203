"""Self-similar-variables simulator with phase modulation and mode tracking.

The integrated field is w(y, s) on a uniform grid; the tracked error is
q = exp(-i(nu sqrt(s) + mu log s + theta(s))) w - phi.  After every step
theta(s) is reset so the unit-mode coordinate q_0 of q vanishes; q_0 is
R-linear in exp(-i theta), so that condition reads a cos + b sin = g and is
solved in closed form (or reported as having no root).  Then the mode
coordinates, shrinking-set combinations and norms are recorded as one row
of the run's float table, whose columns ``Simulator.columns`` names.

Every projection is a fixed linear map built once per ``Simulator``: the
trapezoid projector onto the f_n, which holds the powers y^0 .. y^M of the
grid it was formed from, and the real matrix of the triangular change of
coordinates.  The real coordinates (q_n, qt_n) fold into the M+1 complex
monomial coefficients of sum q_n h_n + qt_n ht_n, and one real product
with the projector's powers evaluates them (``BasisFloats.reconstruct``,
which the initial data and ``project_sampled`` use too).  The projector
keeps only the band of grid points on which the complex Gaussian weight
is not negligible (1568 of 8192 at p=3, delta=1, L=88), so the
modulation needs phi on that band alone.  The full-grid phi is evaluated once per s, on one half of the
symmetric grid, and mirrored, phi being even in y; a step takes its
boundary value (one value for both ends) and the band's right part from
it, and evaluates phi only on the band's left part, whose y are the
mirrored ones up to rounding.  The modulation picks each row's root with
scalar ``math`` calls.

Both norms are the square root of a maximum of re^2 + im^2 times a squared
weight: (1 - chi)^2 on the outer points, where ``one_minus_chi0`` gives
1 - chi = u^3 (10 - 15 u + 6 u^2) with u = |y| / (K s^(1/4)) - 1 clipped
to [0, 1], and the fixed 1 / (1 + |y|^(M+1))^2 for the remainder.

A run's state is always a block: the fields of k runs on one s grid are
the rows of one (k, N) array, with one theta, one modulation flag and one
Adams-Bashforth history per row.  ``run_block`` advances such a block,
``run`` is its k = 1 case, and every helper (``modulate``, ``project_q``,
``diagnose``, ``step``) works on rows.  The s-only work of a step (phi on
the band and on the grid, the boundary value, the cutoff's weight) is done
once for the block, the elementwise work on the whole block, and the BLAS
products (the projector, the change of coordinates, the mode
reconstruction) row by row, since a BLAS product can round a column
differently at different batch widths.  So each row equals the run of its
pair alone, bit for bit, whatever block it is stepped in.  A row retires
at the first step from its exit on at which the block has taken more than
``exit_grace`` steps.  Shooting probes fan out over a process pool in
:mod:`cglblow.shooting`, one block per worker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from .constants import ProfileParams, mu_critical, shrink_combo_constants
from .profilefield import (
    FloatParams,
    InitialDataSpec,
    initial_data,
    one_minus_chi0,
    phi,
)
from .spectral import (BasisFloats, build_basis, hermite_f, powers_table,
                       semigroup_apply)
from .stepping import Stepper


@dataclass
class SimConfig:
    """Run configuration; invariants follow the trap construction."""

    params: ProfileParams
    L: float = 88.0
    N: int = 8192
    ds: float = 5e-4
    s0: float = 100.0
    s_end: float = 105.0
    K: float = 12.0
    A: float = 20.0
    M_track: int = 6
    space_order: int = 2

    def validate(self):
        if not 0.0 < self.ds <= 1e-3:
            raise ValueError(f"ds must be in (0, 1e-3], got {self.ds}")
        if not self.s0 > 1.0:
            raise ValueError(f"s0 must be > 1, got {self.s0}")
        if not (math.isfinite(self.K) and self.K >= 1.0):
            raise ValueError(f"K must be finite and >= 1, got {self.K}")
        if not (math.isfinite(self.A) and self.A > 0.0):
            raise ValueError(f"A must be finite and > 0, got {self.A}")
        if not (self.s_end - self.s0) / self.ds > 0.5:  # run takes round() steps
            raise ValueError(
                f"[s0, s_end] = [{self.s0}, {self.s_end}] holds no step of "
                f"ds = {self.ds}"
            )
        if self.space_order not in (2, 4):
            raise ValueError("space_order must be 2 or 4")
        n_min = 5 if self.space_order == 4 else 3
        if self.N < n_min:
            raise ValueError(
                f"N = {self.N} is below the {n_min}-point stencil of "
                f"space_order {self.space_order}"
            )
        if not (math.isfinite(self.L)
                and self.L >= 2 * self.K * self.s_end**0.25 + 10):
            raise ValueError(f"grid.L must be finite and cover the cutoff "
                             f"support plus margin, got {self.L}")
        if self.M_track < 6 or self.M_track % 2:
            raise ValueError("M_track must be an even integer >= 6")


@dataclass
class SimState:
    """A block of k runs: their fields w, shape (k, N), the common time s,
    and theta, shape (k,).  ``no_root``, shape (k,), marks the runs whose
    last modulation found no root (all of them until a modulation has
    run).  ``history``, shape (k, N), is the last step's reaction term, the
    Adams-Bashforth history: None before the first step."""

    w: np.ndarray
    s: float
    theta: np.ndarray
    no_root: np.ndarray
    history: Optional[np.ndarray] = None

    def take(self, keep) -> "SimState":
        """The rows ``keep`` selects (a boolean mask or indices)."""
        return SimState(self.w[keep], self.s, self.theta[keep],
                        self.no_root[keep],
                        None if self.history is None else self.history[keep])


@dataclass
class ShrinkReport:
    """Bound ratios of the shrinking set along the run.

    ``ratios`` has one row per history record and one column per name in
    ``names``, each ``|measurement| / (num / s**pow)``.
    """

    names: list
    ratios: np.ndarray            # shape (len(history["s"]), len(names))
    exit_s: Optional[float]
    exit_component: Optional[str]


@dataclass
class RunResult:
    """A run: ``history`` maps each name of ``Simulator.columns``, in that
    order, to its column view of the run's one float table; ``state`` is
    its last state, a one-row block without a history, so a step from it
    starts the two-step scheme afresh."""

    history: dict
    report: ShrinkReport
    config_meta: dict
    state: SimState


# the shrinking-set combinations name = x - (a / s + b / s**1.5 + c qt2 /
# sqrt(s)), as (name, x, a, b, c) with a, b, c named in the combination
# constants; a missing term is a zero, which adds exactly nothing
_COMBOS = (
    ("Qt0", "qt0", "At0", "Bt0", "Ct0"),
    ("Q2", "q2", "A2", "B2c", "C2c"),
    ("Qt2", "qt2", "At2", None, None),
    ("Q4", "q4", None, "B4", "C4"),
    ("Qt4", "qt4", None, "Bt4", "Ct4"),
)


def _nearest_root(a: float, b: float, g: float, shift: float,
                  prev: float) -> Optional[float]:
    """The root theta of a cos(theta + shift) + b sin(theta + shift) = g
    nearest ``prev``, or None when there is none.

    The roots are atan2(b, a) +- arccos(g / |(a, b)|) - shift, each moved
    by the multiple of 2 pi that brings it nearest ``prev``; the minus root
    is taken only when strictly nearer.
    """
    r = math.hypot(a, b)
    if not (abs(g) <= r and r != 0.0):
        return None
    mid, half = math.atan2(b, a), math.acos(g / r)
    best = None
    for root in (mid + half - shift, mid - half - shift):
        root += 2 * math.pi * round((prev - root) / (2 * math.pi))
        if best is None or abs(root - prev) < abs(best - prev):
            best = root
    return best


def _shrink_bounds(A: float, M: int, columns: list):
    """The shrinking-set bounds num / s**pow, fixed for a run.

    Returns the sorted component names, the index in ``columns`` of each
    component's measurement, and the numerators and powers of s of the
    bounds.
    """
    bounds = {
        "q0": (1.0, 1.5),
        "q1": (A**4, 1.5),
        "qt1": (A, 1.5),
        "q3": (A**3, 1.5),
        "qt3": (A**3, 1.5),
        "Q2": (A**8, 1.75),
        "Qt2": (A**10, 1.25),
        "Q4": (A**7, 1.75),
        "Qt4": (A**4, 1.75),
        "Qt0": (A, 1.75),
        "qe": (A ** (M + 2), 0.25),
        "qminus": (A ** (M + 1), (M + 2) / 4.0),
    }
    for j in range(5, M + 1):
        bounds[f"q{j}"] = bounds[f"qt{j}"] = (A**j, (j + 1) / 4.0)
    names = sorted(bounds)
    norms = {"qe": "qe_norm", "qminus": "qminus_norm"}
    return (
        names,
        np.array([columns.index(norms.get(k, k)) for k in names]),
        np.array([bounds[k][0] for k in names]),
        np.array([bounds[k][1] for k in names]),
    )


def _weighted_max_sq(z: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """max over each row of weight * |z|^2, 0 for an empty row."""
    sq = np.square(z.real)
    sq += np.square(z.imag)
    sq *= weight
    return np.max(sq, axis=1, initial=0.0)


class Simulator:
    """Precomputed machinery for runs at one parameter set.

    It owns its configuration's set-up: ``__init__`` validates ``config``
    and only then derives mu, when ``config.params.mu`` is None, so callers
    pass a ``SimConfig`` as it is and check nothing of it themselves.
    """

    def __init__(self, config: SimConfig):
        config.validate()
        self.config = config
        pm = config.params
        if pm.mu is None:
            pm = pm.with_mu(mu_critical(pm).mu)
        self.fp = FloatParams.from_exact(pm)
        self.y = np.linspace(-config.L, config.L, config.N)
        basis = build_basis(config.M_track, pm.p, pm.delta, pm.beta)
        self.bf = BasisFloats(basis)
        self.combos = shrink_combo_constants(pm, basis).float_map(
            self.fp.kappa)
        self._proj = self.bf.projector(self.y)
        self._y_half = self.y[config.N // 2:]
        # the band's points left of the middle, and its part of the right
        # half, where the grid profile holds phi at the same y
        band, mid = self._proj.band, config.N // 2
        self._y_band_left = self.y[band.start:max(band.start,
                                                  min(mid, band.stop))]
        self._band_right = slice(max(mid, band.start), band.stop)
        self._grid_s = self._grid = None
        # the squared weight of the qminus norm, 1 / (1 + |y|^(M+1))^2
        self._weight_sq = (1.0 + np.abs(self.y) ** (config.M_track + 1)) ** -2
        # the two outer slices |y| > K s0^(1/4) of the grid: chi = 1 inside
        # |y| <= K s^(1/4), which holds them for every s >= s0
        edge = config.K * config.s0**0.25
        self._outer = (
            slice(0, int(np.searchsorted(self.y, -edge, side="left"))),
            slice(int(np.searchsorted(self.y, edge, side="right")), None),
        )
        self._y_outer_abs = np.abs(
            np.concatenate([self.y[o] for o in self._outer]))
        M = config.M_track
        self.columns = (
            ["s", "theta", "theta_prime"]
            + [f"q{n}" for n in range(M + 1)]
            + [f"qt{n}" for n in range(M + 1)]
            + ["Qt0", "Q2", "Qt2", "Q4", "Qt4", "qe_norm", "qminus_norm",
               "modulation_failed"]
        )
        self.bound_names, self._bound_at, self._bound_num, self._bound_pow = (
            _shrink_bounds(config.A, M, self.columns)
        )
        self._combo_at, self._combo_of = (
            np.array([self.columns.index(c[j]) for c in _COMBOS])
            for j in (0, 1))
        self._combo_abc = np.array([
            [0.0 if c[j] is None else self.combos[c[j]] for c in _COMBOS]
            for j in (2, 3, 4)
        ])
        self.stepper = Stepper(self.y, config.ds, self.fp.beta,
                               reaction=(self.fp.p, self.fp.delta),
                               space_order=config.space_order)

    # -- field helpers -------------------------------------------------------

    def Phi(self, s: float, theta):
        return self.fp.nu * np.sqrt(s) + self.fp.mu * np.log(s) + theta

    def phi_grid(self, s: float) -> np.ndarray:
        """phi(y, s) on the grid, from its values on the half y >= 0.

        phi is even in y and the grid is symmetric up to rounding, so the
        left half is the right one mirrored (the middle point of an odd N is
        kept once).  The values at the last s asked for are kept, read-only:
        a step reads them three times (its boundary value, the modulation's
        band and the diagnostics).
        """
        if s != self._grid_s:
            right = phi(self._y_half, self.fp, s)
            grid = np.concatenate([right[::-1][: self.config.N // 2], right])
            grid.flags.writeable = False
            self._grid_s, self._grid = s, grid
        return self._grid

    def initial_state(self, spec: InitialDataSpec) -> SimState:
        """The initial data of the pair ``spec``, as a one-row block."""
        s0 = self.config.s0
        psi = initial_data(spec, self.config, self.combos, self.bf, self.y,
                           self._proj).psi
        w = np.exp(1j * self.Phi(s0, 0.0)) * (self.phi_grid(s0) + psi)
        return SimState(w=w[None], s=s0, theta=np.zeros(1),
                        no_root=np.ones(1, dtype=bool))

    # -- modulation ------------------------------------------------------------

    def modulate(self, state: SimState) -> bool:
        """Reset theta so the unit-mode coordinate q_0 of q vanishes, per row.

        The constraint is the full triangular coordinate q_0 (the h_0
        coefficient of the unique Jordan decomposition), not just the bare
        weighted integral; the difference is the higher-mode feed-down of
        the triangular change of basis.  With e = exp(-i Phi) the
        coordinate q_0 of e w - phi is R-linear in e, so q_0 = 0 reads
        a cos Phi + b sin Phi = g and has the two roots
        Phi = atan2(b, a) +- arccos(g / |(a, b)|); the one nearest the
        previous theta (up to a multiple of 2 pi) is taken.  A row has no
        root when |g| > |(a, b)| (w = 0, or a field far from the profile);
        it keeps its theta and is marked in ``state.no_root``.  Returns
        True if every row found a root.
        """
        s, w = state.s, state.w
        # phi on the band: its right part is the grid's, at the same y
        band_phi = np.concatenate([phi(self._y_band_left, self.fp, s),
                                   self.phi_grid(s)[self._band_right]])
        g = float(self.bf.convert_Q(self._proj.rows @ band_phi)[0][0])
        shift = float(self.Phi(s, 0.0))
        theta, found = state.theta.copy(), np.zeros(len(w), dtype=bool)
        for j, row in enumerate(w):
            Ww = self._proj @ row
            a = float(self.bf.convert_Q(Ww)[0][0])
            b = float(self.bf.convert_Q(-1j * Ww)[0][0])
            root = _nearest_root(a, b, g, shift, float(theta[j]))
            if root is not None:  # a row without a root keeps its theta
                theta[j], found[j] = root, True
        state.theta, state.no_root = theta, ~found
        return bool(found.all())

    # -- diagnostics -----------------------------------------------------------

    def project_q(self, state: SimState):
        """q of each row, shape (k, N); its coordinates (q_n) and (qt_n),
        each (k, M_track + 1); and its remainder past the tracked modes,
        shape (k, N)."""
        e = np.exp(-1j * self.Phi(state.s, state.theta))
        q = e[:, None] * state.w
        q -= self.phi_grid(state.s)
        M1 = self.config.M_track + 1
        qn, qtn = np.empty((len(q), M1)), np.empty((len(q), M1))
        qminus = np.empty_like(q)
        for j, row in enumerate(q):
            qn[j], qtn[j] = self.bf.convert_Q(self._proj @ row)
            self.bf.reconstruct(qn[j], qtn[j], self._proj.powers,
                                out=qminus[j])
            np.subtract(row, qminus[j], out=qminus[j])
        return q, qn, qtn, qminus

    def diagnose(self, state: SimState, theta_prime):
        """The history rows of ``state``, shape (k, len(columns)), and their
        bound ratios, shape (k, len(bound_names)); theta' is one value or
        one per row, and the modulation flag is ``state.no_root``."""
        s = state.s
        q, qn, qtn, qminus = self.project_q(state)
        M1 = qn.shape[1]
        row = np.empty((len(q), len(self.columns)))
        row[:, 0], row[:, 1], row[:, 2] = s, state.theta, theta_prime
        row[:, 3:3 + M1] = qn
        row[:, 3 + M1:3 + 2 * M1] = qtn
        # every combination of ``_COMBOS`` at once
        a, b, c = self._combo_abc
        row[:, self._combo_at] = row[:, self._combo_of] - (
            (a / s + b / s**1.5) + c * qtn[:, 2:3] / np.sqrt(s))
        # each norm is the sqrt of the largest weighted |.|^2; 1 - chi
        # vanishes on |y| <= K s^(1/4), so only the outer slices count, and
        # their points inside that radius add zeros to the max
        one_sq = one_minus_chi0(
            self._y_outer_abs / (self.config.K * s**0.25))
        one_sq *= one_sq
        left, right = self._outer
        qe_sq = np.maximum(
            _weighted_max_sq(q[:, left], one_sq[:left.stop]),
            _weighted_max_sq(q[:, right], one_sq[left.stop:]))
        row[:, -3] = np.sqrt(qe_sq)
        row[:, -2] = np.sqrt(_weighted_max_sq(qminus, self._weight_sq))
        row[:, -1] = state.no_root
        bound = self._bound_num / s**self._bound_pow
        ratios = np.abs(row[:, self._bound_at]) / bound
        return row, ratios

    # -- stepping ----------------------------------------------------------------

    def step(self, state: SimState):
        s_new = state.s + self.config.ds
        e = np.exp(1j * self.Phi(s_new, state.theta))
        # phi is even and y[-1] = -y[0] exactly, so the grid's end value
        # serves both ends; the product is numpy's scalar one, row by row,
        # which its vector loop can round differently in the last bit
        end = self.phi_grid(s_new)[-1]
        bc = np.array([x * end for x in e])
        w_new, history = self.stepper.step(state.w, state.history, bc, bc)
        if not np.isfinite(w_new.view(float)).all():
            raise FloatingPointError(f"scheme blow-up at s = {s_new}")
        state.w, state.s, state.history = w_new, s_new, history
        return state

    # -- the run loop --------------------------------------------------------------

    def run(self, spec: InitialDataSpec, stop_on_exit: bool = True,
            exit_grace: int = 10) -> RunResult:
        """Run the shooting pair ``spec``: ``run_block`` of the one pair."""
        return self.run_block([spec], stop_on_exit, exit_grace)[0]

    def run_block(self, specs, stop_on_exit: bool = True,
                  exit_grace: int = 10) -> list:
        """Run the shooting pairs ``specs`` from the config's s0 to its
        s_end as the rows of one field; one RunResult per pair, in order.

        Each run fills one float table, a row per step with the initial one
        first and a column per name in ``columns``, and beside it the table
        of bound ratios; the history and the report hold column views of
        the rows filled.  theta' is the slope of theta over the last (up to
        10) steps.  The exit is the first step past the initial record with
        a bound ratio above 1, named by its largest ratio.  With
        ``stop_on_exit`` a run ends, and its row leaves the block, once it
        has exited and taken more than ``exit_grace`` steps, so with
        ``exit_grace=0`` its last record is the exit's.  The block ends
        with its last row or at s_end.  Row j of the block is run
        ``runs[j]``, the one index of the runs still in it; each run's last
        field is its row of one (k, N) array ``final``, set as it retires
        or at the end, and its RunResult's state holds that row.
        """
        cfg = self.config
        starts = [self.initial_state(spec) for spec in specs]
        k = len(starts)
        state = SimState(w=np.concatenate([st.w for st in starts]),
                         s=starts[0].s,
                         theta=np.concatenate([st.theta for st in starts]),
                         no_root=np.concatenate([st.no_root for st in starts]))
        nsteps = int(round((cfg.s_end - cfg.s0) / cfg.ds))
        table = np.empty((k, nsteps + 1, len(self.columns)))
        ratios = np.empty((k, nsteps + 1, len(self.bound_names)))
        theta = table[:, :, self.columns.index("theta")]
        runs = np.arange(k)    # the runs still in the block, row by row
        filled = np.full(k, nsteps + 1)    # table rows of each run
        exit_at = np.zeros(k, dtype=int)   # step of each exit, 0 before it
        final = np.empty_like(state.w)     # each run's last field
        self.modulate(state)
        table[:, 0], ratios[:, 0] = self.diagnose(state, 0.0)
        for it in range(1, nsteps + 1):    # validate() ensures one step
            self.step(state)
            self.modulate(state)
            span = min(it, 10)
            tp = (state.theta - theta[runs, it - span]) / (span * cfg.ds)
            row, rat = self.diagnose(state, tp)
            table[runs, it], ratios[runs, it] = row, rat
            over = rat > 1.0
            if over.any():
                new = runs[over.any(axis=1) & (exit_at[runs] == 0)]
                exit_at[new] = it
            if stop_on_exit and it > exit_grace:
                done = exit_at[runs] > 0
                if done.any():
                    final[runs[done]] = state.w[done]
                    filled[runs[done]] = it + 1
                    runs = runs[~done]
                    state = state.take(~done)
                    if not len(runs):
                        break
        final[runs] = state.w
        meta = {"space_order": cfg.space_order, "mu": self.fp.mu}
        results = []
        for r in range(k):
            hist = dict(zip(self.columns, table[r, :filled[r]].T))
            hit = exit_at[r] > 0
            report = ShrinkReport(
                names=self.bound_names,
                ratios=ratios[r, :filled[r]],
                exit_s=float(hist["s"][exit_at[r]]) if hit else None,
                exit_component=self.bound_names[
                    np.argmax(ratios[r, exit_at[r]])] if hit else None,
            )
            end = SimState(w=final[r:r + 1], s=float(hist["s"][-1]),
                           theta=hist["theta"][-1:].copy(),
                           no_root=hist["modulation_failed"][-1:] == 1.0)
            results.append(RunResult(history=hist, report=report,
                                     config_meta=dict(meta), state=end))
        return results


def s0_scaling_study(config: SimConfig, s0_values=(50.0, 100.0, 200.0),
                     window: float = 1.0, N: int = 2048,
                     ds: float = 1e-3) -> dict:
    """Worst shrinking-set ratios of the centered run as s0 varies.

    The construction only promises a trap for s0 large enough; this runs
    the (d0~, d1~) = (0, 0) data over a fixed window at each s0 and
    reports the per-component worst bound ratios, so the s0-dependence is
    part of the shooting record rather than guesswork.  Each run is
    ``config`` (its parameters, K, A and M_track) on a grid sized
    for the cutoff radius at the end of the window.
    """
    out = {}
    for s0 in s0_values:
        s0 = float(s0)
        L = 2 * config.K * (s0 + window) ** 0.25 + 12.0
        cfg = replace(config, L=L, N=N, ds=ds, s0=s0, s_end=s0 + window)
        sim = Simulator(cfg)
        res = sim.run(InitialDataSpec(d0_tilde=0.0, d1_tilde=0.0),
                      stop_on_exit=False)
        worst = res.report.ratios.max(axis=0)
        out[s0] = {k: float(v) for k, v in zip(res.report.names, worst)}
    return out


def final_profile(x, params: ProfileParams) -> complex:
    """The limiting profile formula near the singular point (|x| < 1)."""
    x = np.asarray(x, dtype=float)
    if np.any((np.abs(x) >= 1) | (x == 0)):
        raise ValueError("final_profile needs 0 < |x| < 1")
    fp = FloatParams.from_exact(params)
    ll = 2.0 * np.abs(np.log(np.abs(x)))
    phase = np.exp(1j * fp.nu * np.sqrt(ll)) * np.exp(1j * fp.mu * np.log(ll))
    core = fp.b * x**2 / np.sqrt(ll)
    expo = -(1.0 + 1j * fp.delta) / (fp.p - 1.0)
    return phase * np.exp(expo * np.log(core))


# 2**-64 as a logarithm: the share of a term that the kernel check lets
# aliasing, or the integrand at the ends of the grid, carry
LOG_STRIDE_TOL = 64 * math.log(2.0)


def kernel_stride(s: float, y: np.ndarray, ev: np.ndarray,
                  values: np.ndarray, beta: float) -> int:
    """Stride m of the nodes of y that the kernel quadrature of e^{sL} v needs.

    At each evaluation point ``ev`` the integrand K(ev, x) v(x) of
    e^{sL} v is a Gaussian in x, of Fourier decay exp(-(1-e^{-s}) xi^2),
    times the sampled polynomial v.  The trapezoid rule on every m-th node,
    spacing H = m (y[1] - y[0]), then aliases with the factor
    exp(-(1-e^{-s}) (2 pi / H)^2) (Trefethen and Weideman, SIAM Rev. 56,
    2014); m is the largest divisor of len(y) - 1 that keeps it at most
    2**-64.  That bound needs the integrand to have decayed at the ends of
    the grid, so m = 1 unless, at every evaluation point, both end-node
    terms |K(ev, y[0]) v(y[0])| and |K(ev, y[-1]) v(y[-1])| are below
    2**-64 of the row's largest term on the strided nodes.  (The largest
    term, not the one at the node nearest e^{-s/2} ev: an odd mode
    vanishes at y = 0, which is a node.)
    """
    last = len(y) - 1
    decay = -math.expm1(-s)
    h_max = 2.0 * math.pi * math.sqrt(decay / LOG_STRIDE_TOL)
    h = y[1] - y[0]
    m = max((d for d in range(2, last + 1)
             if last % d == 0 and d * h <= h_max), default=1)
    if m == 1:
        return 1
    # log |K(ev, x) v(x)| up to the kernel's constant factor
    a = 1.0 / (4.0 * (1.0 + beta * beta) * decay)
    ye = np.asarray(ev) * math.exp(-s / 2.0)
    with np.errstate(divide="ignore"):
        log_v = np.log(np.abs(values))
    t = np.subtract.outer(ye, y[::m])
    t *= t
    t *= -a
    t += log_v[::m]
    # m divides len(y) - 1, so the end nodes are the first and last columns
    ends = np.maximum(t[:, 0], t[:, -1])
    return m if np.all(ends < t.max(axis=1) - LOG_STRIDE_TOL) else 1


def linear_eigenmode_error(n: int, beta: float, L: float = 16.0,
                           dy: float = 0.01, ds: float = 1e-4,
                           s_end: float = 1.0, space_order: int = 4,
                           kernel_check: bool = False):
    """Evolve f_n under the pure drift-diffusion flow and compare decays.

    Returns (relative error against exp(-n s/2) f_n on |y| <= 5, kernel-
    quadrature mismatch or None).  The grid holds N = round(2L / dy) + 1
    points on [-L, L], so its spacing is dy rounded to divide 2L.  Boundary
    values are pinned to the exact decaying eigenmode.  The kernel check
    compares the flow with the quadrature of e^{s_end L} f_n on every m-th
    grid node, m = ``kernel_stride`` (taken from the grid's own spacing),
    which keeps aliasing and the grid's end terms below 2**-64.
    """
    N = int(round(2 * L / dy)) + 1
    y = np.linspace(-L, L, N)
    fb = Fraction(beta).limit_denominator(10**6)
    f_vals = (np.array(hermite_f(n, fb).to_complex_coeffs())
              @ powers_table(y, n))
    stp = Stepper(y, ds, beta, reaction=None, space_order=space_order)
    w, prev = f_vals.astype(np.complex128), None
    s = 0.0
    nsteps = int(round(s_end / ds))
    for _ in range(nsteps):
        s += ds
        decay = np.exp(-0.5 * n * s)
        w, prev = stp.step(w, prev, decay * f_vals[0], decay * f_vals[-1])
    exact = np.exp(-0.5 * n * s_end) * f_vals
    mask = np.abs(y) <= 5.0
    rel = np.max(np.abs(w[mask] - exact[mask])) / np.max(np.abs(exact[mask]))
    kerr = None
    if kernel_check:
        m = kernel_stride(s_end, y, y[mask], f_vals, beta)
        ker = semigroup_apply(s_end, y[mask], y[::m], f_vals[::m], beta)
        kerr = np.max(np.abs(w[mask] - ker)) / np.max(np.abs(exact[mask]))
    return rel, kerr
