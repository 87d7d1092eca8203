"""Self-similar-variables simulator with phase modulation and mode tracking.

The integrated field is w(y, s) on a uniform grid; the tracked error is
q = exp(-i(nu sqrt(s) + mu log s + theta(s))) w - phi.  After every step
theta(s) is reset so the unit-mode coordinate q_0 of q vanishes; q_0 is
R-linear in exp(-i theta), so that condition reads a cos + b sin = g and is
solved in closed form (or reported as having no root).  Then the mode
coordinates, shrinking-set combinations and norms are recorded as one row
of the run's float table, whose columns ``Simulator.columns`` names.

Every projection is a fixed linear map built once per ``Simulator``: the
trapezoid projector onto the f_n, the sampled h_n / ht_n for the
reconstruction and the real matrix of the triangular change of coordinates.
The projector keeps only the band of grid points on which the complex
Gaussian weight is not negligible (1568 of 8192 at p=3, delta=1, L=88), so
the modulation evaluates phi on that band alone.  The full-grid phi of the
diagnostics is evaluated on one half of the symmetric grid and mirrored,
phi being even in y, and the boundary data of a step use one end value
for both ends.

A single run is sequential; shooting probes fan out over a process pool in
:mod:`cglblow.shooting`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .constants import ProfileParams, mu_critical, shrink_combo_constants
from .profilefield import (
    FloatParams,
    InitialDataSpec,
    cutoff_chi,
    initial_data,
    phi,
)
from .spectral import build_basis
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
    scheme: str = "imex2"
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
        if self.scheme not in ("imex1", "imex2"):
            raise ValueError(f"unknown scheme {self.scheme!r}")


@dataclass
class SimState:
    w: np.ndarray
    s: float
    theta: float


@dataclass
class ShrinkReport:
    """Bound ratios of the shrinking set along the run.

    ``ratios`` has one row per history record and one column per name in
    ``names``, each ``|measurement| / (num / s**pow)``; ``s`` is the
    history's s column.
    """

    names: list
    s: np.ndarray
    ratios: np.ndarray            # shape (len(s), len(names))
    exit_s: Optional[float]
    exit_component: Optional[str]


@dataclass
class RunResult:
    """A run: ``history`` maps each name of ``Simulator.columns``, in that
    order, to its column view of the run's one float table."""

    history: dict
    report: ShrinkReport
    config_meta: dict
    state: SimState


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


class Simulator:
    """Precomputed machinery for runs at one parameter set."""

    def __init__(self, config: SimConfig):
        config.validate()
        self.config = config
        pm = config.params
        if pm.mu is None:
            pm = pm.with_mu(mu_critical(pm).mu)
        self.params = pm
        self.fp = FloatParams.from_exact(pm)
        self.y = np.linspace(-config.L, config.L, config.N)
        self.basis = build_basis(
            config.M_track, pm.p, pm.delta, pm.beta
        )
        self.bf = self.basis.float_views()
        combos = shrink_combo_constants(pm, self.basis)
        self.combos = combos.float_map(self.fp.kappa)
        self._proj = self.bf.projector(self.y)
        self._y_band = self.y[self._proj.band]
        self._y_half = self.y[config.N // 2:]
        self._modes = self.bf.mode_samples(self.y)
        self._weight_pow = 1.0 + np.abs(self.y) ** (config.M_track + 1)
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
        self.stepper = Stepper(
            self.y, config.ds, self.fp.beta, self.fp.p, self.fp.delta,
            scheme=config.scheme, space_order=config.space_order,
        )

    # -- field helpers -------------------------------------------------------

    def Phi(self, s: float, theta: float) -> float:
        return self.fp.nu * np.sqrt(s) + self.fp.mu * np.log(s) + theta

    def phi_grid(self, s: float) -> np.ndarray:
        """phi(y, s) on the grid, from its values on the half y >= 0.

        phi is even in y and the grid is symmetric up to rounding, so the
        left half is the right one mirrored (the middle point of an odd N is
        kept once).
        """
        right = phi(self._y_half, self.fp, s)
        return np.concatenate([right[::-1][: self.config.N // 2], right])

    def initial_state(self, spec: InitialDataSpec) -> SimState:
        s0 = self.config.s0
        psi = initial_data(spec, self.config, self.combos, self.bf, self.y,
                           self._proj).psi
        w = np.exp(1j * self.Phi(s0, 0.0)) * (self.phi_grid(s0) + psi)
        return SimState(w=w, s=s0, theta=0.0)

    # -- modulation ------------------------------------------------------------

    def modulate(self, state: SimState) -> bool:
        """Reset theta so the unit-mode coordinate q_0 of q vanishes.

        The constraint is the full triangular coordinate q_0 (the h_0
        coefficient of the unique Jordan decomposition), not just the bare
        weighted integral; the difference is the higher-mode feed-down of
        the triangular change of basis.  With e = exp(-i Phi) the
        coordinate q_0 of e w - phi is R-linear in e, so q_0 = 0 reads
        a cos Phi + b sin Phi = g and has the two roots
        Phi = atan2(b, a) +- arccos(g / |(a, b)|); the one nearest the
        previous theta (up to a multiple of 2 pi) is taken.  Returns False,
        keeping theta, when |g| > |(a, b)| and there is no root (w = 0, or
        a field far from the profile).
        """
        s = state.s
        Ww = self._proj @ state.w
        Pphi = self._proj.rows @ phi(self._y_band, self.fp, s)
        a = self.bf.convert_Q(Ww)[0][0]
        b = self.bf.convert_Q(-1j * Ww)[0][0]
        g = self.bf.convert_Q(Pphi)[0][0]
        r = np.hypot(a, b)
        if not abs(g) <= r or r == 0.0:
            return False
        base = self.Phi(s, 0.0)
        half = np.arccos(g / r)
        roots = np.arctan2(b, a) + np.array([half, -half]) - base
        roots += 2 * np.pi * np.round((state.theta - roots) / (2 * np.pi))
        state.theta = float(roots[np.argmin(np.abs(roots - state.theta))])
        return True

    # -- diagnostics -----------------------------------------------------------

    def project_q(self, state: SimState):
        e = np.exp(-1j * self.Phi(state.s, state.theta))
        q = e * state.w - self.phi_grid(state.s)
        qn, qtn = self.bf.convert_Q(self._proj @ q)
        return q, qn, qtn, q - np.concatenate([qn, qtn]) @ self._modes

    def diagnose(self, state: SimState, theta_prime: float,
                 modulation_failed: bool = False):
        """The history row of ``state``, one value per name in ``columns``,
        and its bound ratios, in the order of ``bound_names``."""
        s = state.s
        cb = self.combos
        q, qn, qtn, qminus = self.project_q(state)
        rs = np.sqrt(s)
        Qt0 = qtn[0] - (cb["At0"] / s + cb["Bt0"] / s**1.5 + cb["Ct0"] * qtn[2] / rs)
        Q2 = qn[2] - (cb["A2"] / s + cb["B2c"] / s**1.5 + cb["C2c"] * qtn[2] / rs)
        Qt2 = qtn[2] - cb["At2"] / s
        Q4 = qn[4] - (cb["B4"] / s**1.5 + cb["C4"] * qtn[2] / rs)
        Qt4 = qtn[4] - (cb["Bt4"] / s**1.5 + cb["Ct4"] * qtn[2] / rs)
        # 1 - chi vanishes on |y| <= K s^(1/4), so only the outer rows count
        edge = self.config.K * s**0.25
        lo = np.searchsorted(self.y, -edge, side="left")
        hi = np.searchsorted(self.y, edge, side="right")
        qe_norm = 0.0
        for out in (slice(0, lo), slice(hi, None)):
            chi = cutoff_chi(self.y[out], s, self.config.K)
            qe_norm = max(qe_norm, float(np.max(np.abs(q[out] * (1.0 - chi)),
                                                initial=0.0)))
        qminus_norm = float(np.max(np.abs(qminus) / self._weight_pow))
        row = np.concatenate([
            [s, state.theta, theta_prime], qn, qtn,
            [Qt0, Q2, Qt2, Q4, Qt4, qe_norm, qminus_norm,
             float(modulation_failed)],
        ])
        bound = self._bound_num / s**self._bound_pow
        return row, np.abs(row[self._bound_at]) / bound

    # -- stepping ----------------------------------------------------------------

    def step(self, state: SimState):
        s_new = state.s + self.config.ds
        e = np.exp(1j * self.Phi(s_new, state.theta))
        # phi is even and y[-1] = -y[0] exactly, so one value serves both ends
        bc = e * phi(self.y[0], self.fp, s_new)
        w_new = self.stepper.step(state.w, bc, bc)
        if not np.all(np.isfinite(w_new)):
            raise FloatingPointError(f"scheme blow-up at s = {s_new}")
        state.w = w_new
        state.s = s_new
        return state

    # -- the full loop -------------------------------------------------------------

    def run(self, spec: InitialDataSpec, stop_on_exit: bool = True,
            exit_grace: int = 10) -> RunResult:
        """Run the shooting pair ``spec`` from the config's s0 to its s_end.

        The run fills one float table, a row per step with the initial one
        first and a column per name in ``columns``, and beside it the table
        of bound ratios; the history and the report hold column views of
        the rows filled.  theta' is the slope of theta over the last (up to
        10) steps.  The exit is the first step past the initial record with
        a bound ratio above 1, named by its largest ratio.  With
        ``stop_on_exit`` the run ends once it has exited and taken more
        than ``exit_grace`` steps, so with ``exit_grace=0`` its last record
        is the exit's.
        """
        cfg = self.config
        state = self.initial_state(spec)
        self.stepper.reset_history()
        converged = self.modulate(state)
        exit_s = exit_component = None
        nsteps = int(round((cfg.s_end - cfg.s0) / cfg.ds))
        table = np.empty((nsteps + 1, len(self.columns)))
        ratios = np.empty((nsteps + 1, len(self.bound_names)))
        theta = table[:, self.columns.index("theta")]
        table[0], ratios[0] = self.diagnose(state, 0.0, not converged)
        for it in range(1, nsteps + 1):
            self.step(state)
            converged = self.modulate(state)
            span = min(it, 10)
            tp = (state.theta - theta[it - span]) / (span * cfg.ds)
            table[it], ratios[it] = self.diagnose(state, tp, not converged)
            worst = int(np.argmax(ratios[it]))
            if ratios[it, worst] > 1.0 and exit_s is None:
                exit_s = state.s
                exit_component = self.bound_names[worst]
            if exit_s is not None and stop_on_exit and it > exit_grace:
                break
        n = it + 1  # rows filled; validate() ensures at least one step
        hist = dict(zip(self.columns, table[:n].T))
        report = ShrinkReport(
            names=self.bound_names,
            s=hist["s"],
            ratios=ratios[:n],
            exit_s=exit_s,
            exit_component=exit_component,
        )
        meta = {
            "scheme": cfg.scheme,
            "space_order": cfg.space_order,
            "M_track": cfg.M_track,
            "combo_flavor": "selfconsistent",
            "init_order": "first",
            "mu": self.fp.mu,
            "cutoff": "quintic C2 blend on [1, 2]",
        }
        return RunResult(history=hist, report=report, config_meta=meta,
                         state=state)


def s0_scaling_study(config: SimConfig, s0_values=(50.0, 100.0, 200.0),
                     window: float = 1.0, N: int = 2048,
                     ds: float = 1e-3) -> dict:
    """Worst shrinking-set ratios of the centered run as s0 varies.

    The construction only promises a trap for s0 large enough; this runs
    the (d0~, d1~) = (0, 0) data over a fixed window at each s0 and
    reports the per-component worst bound ratios, so the s0-dependence is
    part of the shooting record rather than guesswork.  Each run is
    ``config`` (its parameters, K, A, M_track and scheme) on a grid sized
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


def linear_eigenmode_error(n: int, beta: float, L: float = 16.0,
                           dy: float = 0.01, ds: float = 1e-4,
                           s_end: float = 1.0, scheme: str = "imex2",
                           space_order: int = 4, eval_halfwidth: float = 5.0,
                           kernel_check: bool = False):
    """Evolve f_n under the pure drift-diffusion flow and compare decays.

    Returns (relative error against exp(-n s/2) f_n on |y| <= halfwidth,
    kernel-quadrature mismatch or None).  Boundary values are pinned to the
    exact decaying eigenmode.
    """
    from .spectral import hermite_f, semigroup_apply
    from fractions import Fraction

    N = int(round(2 * L / dy)) + 1
    y = np.linspace(-L, L, N)
    fb = Fraction(beta).limit_denominator(10**6)
    fn = np.array(hermite_f(n, fb).to_complex_coeffs())
    f_vals = np.polyval(fn[::-1], y)
    stp = Stepper(y, ds, beta, 3.0, 1.0, scheme=scheme,
                  space_order=space_order, reaction=False)
    w = f_vals.astype(np.complex128)
    s = 0.0
    nsteps = int(round(s_end / ds))
    for _ in range(nsteps):
        s += ds
        decay = np.exp(-0.5 * n * s)
        w = stp.step(w, decay * f_vals[0], decay * f_vals[-1])
    exact = np.exp(-0.5 * n * s_end) * f_vals
    mask = np.abs(y) <= eval_halfwidth
    rel = np.max(np.abs(w[mask] - exact[mask])) / np.max(np.abs(exact[mask]))
    kerr = None
    if kernel_check:
        ker = semigroup_apply(s_end, y[mask], y, f_vals, beta)
        kerr = np.max(np.abs(w[mask] - ker)) / np.max(np.abs(exact[mask]))
    return rel, kerr
