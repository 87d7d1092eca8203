"""Double-precision evaluation of the profile and the linearization fields.

The working normalization keeps the profile core real:

    phi0(z) = kappa (1 + b z^2/(p-1))^(-(1+i delta)/(p-1)),

and all the mode-projection constants assume this kappa-real form.

Every field function takes the grid (or point) y first, then the float
parameters ``fp`` (a :class:`FloatParams`) and the slow time s > 1:
``phi(y, fp, s)``, ``potentials(y, fp, s)``, ``rest_R(y, fp, s)``,
``rest_Rstar(y, fp, s, theta_prime)`` and ``nonlinear_B(q, y, fp, s)``.

The rest term R is evaluated from closed-form derivatives of the power
expression; it is a near-cancellation of O(1) terms, so finite differences
would drown the 1/sqrt(s) law in noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import DomainError, ProfileParams
from .spectral import GridProjector


@dataclass(frozen=True)
class FloatParams:
    """The one float view of a :class:`ProfileParams`, used by the field
    routines.  mu is 0.0 until :func:`constants.mu_critical` has set it.

    The critical condition p - delta^2 - beta delta (p+1) = 0 is checked once
    here, relative to the size of its terms.
    """

    p: float
    delta: float
    beta: float
    b: float
    nu: float
    a: float
    mu: float
    kappa: float

    def __post_init__(self):
        cross = self.beta * self.delta * (self.p + 1)
        resid = self.p - self.delta**2 - cross
        scale = max(abs(self.p), self.delta**2, abs(cross))
        if not abs(resid) <= 1e-14 * scale:
            raise ValueError(f"critical condition violated by {resid:.3e}")

    @classmethod
    def from_exact(cls, params: ProfileParams):
        """The float view; a parameter beyond the double range (p = 1e400,
        the beta of delta = 1e-400, the kappa of p = 1.001) is a
        DomainError that names it."""
        def real(name, value):
            try:
                return complex(value()).real
            except (OverflowError, ZeroDivisionError):
                raise DomainError(f"{name} has no float value: it lies "
                                  "beyond the double range") from None

        pf = real("p", lambda: params.p)
        kappa = real("kappa", lambda: (pf - 1.0) ** (-1.0 / (pf - 1.0)))
        return cls(
            p=pf,
            delta=real("delta", lambda: params.delta),
            beta=real("beta", lambda: params.beta),
            b=real("b^2", lambda: params.b2) ** 0.5,
            nu=real("nu", lambda: params.nu),
            a=real("a", lambda: params.a.to_complex(kappa)),
            mu=0.0 if params.mu is None else real("mu", lambda: params.mu),
            kappa=kappa,
        )


@dataclass(frozen=True)
class InitialDataSpec:
    """The shooting pair (d0~, d1~), the only per-run knob of the data;
    s0, K and A are fixed before the shooting, in the run's SimConfig."""

    d0_tilde: float
    d1_tilde: float

    def __post_init__(self):
        if not (abs(self.d0_tilde) <= 2 and abs(self.d1_tilde) <= 2):
            raise ValueError("(d0~, d1~) must lie in [-2, 2]^2")


def phi0(z: np.ndarray, fp: FloatParams) -> np.ndarray:
    """The kappa-real profile core at the inner variable z."""
    base = 1.0 + fp.b * np.asarray(z, dtype=float) ** 2 / (fp.p - 1.0)
    expo = -(1.0 + 1j * fp.delta) / (fp.p - 1.0)
    return fp.kappa * np.exp(expo * np.log(base))


def phi(y: np.ndarray, fp: FloatParams, s: float) -> np.ndarray:
    """The slowly modulated approximate profile phi(y, s).

    phi0 at z = y / s^(1/4) plus (1 + i delta) a / sqrt(s), written as
    in-place passes over one real and one complex buffer: the base
    1 + y^2 b / ((p-1) sqrt s) and its logarithm, then the complex
    exponential of -(1 + i delta) / (p-1) times it, scaled by kappa and
    shifted.  A scalar y gives a scalar.
    """
    if not s > 1.0:  # a NaN s fails too
        raise ValueError("s must exceed 1")
    y = np.asarray(y, dtype=float)
    root = np.sqrt(s)
    t = np.multiply(y, y, out=np.empty(y.shape))
    t *= fp.b / ((fp.p - 1.0) * root)
    t += 1.0
    np.log(t, out=t)
    out = np.empty(y.shape, dtype=complex)
    expo = -(1.0 + 1j * fp.delta) / (fp.p - 1.0)
    np.multiply(t, expo.real, out=out.real)
    np.multiply(t, expo.imag, out=out.imag)
    np.exp(out, out=out)
    out *= fp.kappa
    out += (1.0 + 1j * fp.delta) * fp.a / root
    return out[()]


def potentials(y: np.ndarray, fp: FloatParams, s: float):
    """V1 and V2 from their exact definitions (no truncation)."""
    ph = phi(y, fp, s)
    mod2 = np.abs(ph) ** 2
    mod_pm1 = mod2 ** ((fp.p - 1.0) / 2.0)
    mod_pm3 = mod2 ** ((fp.p - 3.0) / 2.0)
    cd = 1.0 + 1j * fp.delta
    v1 = cd * (fp.p + 1.0) / 2.0 * (mod_pm1 - 1.0 / (fp.p - 1.0))
    v2 = cd * (fp.p - 1.0) / 2.0 * (mod_pm3 * ph**2 - 1.0 / (fp.p - 1.0))
    return v1, v2


def nonlinear_B(q: np.ndarray, y: np.ndarray, fp: FloatParams,
                s: float) -> np.ndarray:
    """Full nonlinear remainder after removing the linearization."""
    ph = phi(y, fp, s)
    cd = 1.0 + 1j * fp.delta
    mod2 = np.abs(ph) ** 2
    full = np.abs(ph + q) ** (fp.p - 1.0) * (ph + q)
    lin0 = mod2 ** ((fp.p - 1.0) / 2.0) * ph
    lin1 = mod2 ** ((fp.p - 1.0) / 2.0) * q
    lin2 = (
        (fp.p - 1.0)
        / 2.0
        * mod2 ** ((fp.p - 3.0) / 2.0)
        * ph
        * (ph * np.conj(q) + np.conj(ph) * q)
    )
    return cd * (full - lin0 - lin1 - lin2)


def _phi0_derivs(z: np.ndarray, fp: FloatParams):
    """phi0, z*phi0', phi0'' in closed form."""
    g = 1.0 + fp.b * z**2 / (fp.p - 1.0)
    gam = -(1.0 + 1j * fp.delta) / (fp.p - 1.0)
    lg = np.log(g)
    p0 = fp.kappa * np.exp(gam * lg)
    coeff = 2.0 * fp.b / (fp.p - 1.0)
    zp = fp.kappa * gam * np.exp((gam - 1.0) * lg) * coeff * z**2
    pzz = fp.kappa * (
        gam * np.exp((gam - 1.0) * lg) * coeff
        + gam * (gam - 1.0) * np.exp((gam - 2.0) * lg) * coeff**2 * z**2
    )
    return p0, zp, pzz


def rest_R(y: np.ndarray, fp: FloatParams, s: float) -> np.ndarray:
    """Defect of phi from solving the self-similar flow, closed form."""
    if not s > 1.0:  # a NaN s fails too
        raise ValueError("s must exceed 1")
    t = 1.0 / np.sqrt(s)
    z = np.asarray(y, dtype=float) * t**0.5
    p0, zp, pzz = _phi0_derivs(z, fp)
    cd = 1.0 + 1j * fp.delta
    cb = 1.0 + 1j * fp.beta
    ph = p0 + cd * fp.a * t
    mod_pm1_phi = np.abs(ph) ** (fp.p - 1.0) * ph
    mod_pm1_phi0 = np.abs(p0) ** (fp.p - 1.0) * p0
    return (
        0.25 * t**2 * zp
        + 0.5 * cd * fp.a * t**3
        + cb * t * pzz
        - cd**2 * fp.a * t / (fp.p - 1.0)
        + cd * (mod_pm1_phi - mod_pm1_phi0)
    )


def rest_Rstar(y: np.ndarray, fp: FloatParams, s: float,
               theta_prime: float = 0.0) -> np.ndarray:
    """R - i (nu/(2 sqrt s) + mu/s + theta') phi."""
    drift = fp.nu / (2.0 * np.sqrt(s)) + fp.mu / s + theta_prime
    return rest_R(y, fp, s) - 1j * drift * phi(y, fp, s)


def bound_M(fp: FloatParams) -> int:
    """The even truncation degree demanded by the spectral-gap bound.

    M must dominate 4(sqrt(1+delta^2) + 1 + 2 sup |V_i|); the supremum is
    taken as the max of the analytic |y| -> infinity limits and a dense
    scan over the inner variable |z| <= 50 and a log-spaced sweep of
    s >= 1.  The default tracked truncation (M_track = 6) is a cheaper
    diagnostic choice recorded in run metadata.
    """
    cd = abs(1.0 + 1j * fp.delta)
    limit_v1 = cd * (fp.p + 1.0) / (2.0 * (fp.p - 1.0))
    limit_v2 = cd / 2.0
    sup = max(limit_v1, limit_v2)
    for s in np.logspace(0.0, 6.0, 25):
        y = np.linspace(0.0, 50.0 * s**0.25, 1501)
        v1, v2 = potentials(y, fp, max(s, 1.0 + 1e-9))
        sup = max(sup, np.max(np.abs(v1)), np.max(np.abs(v2)))
    raw = 4.0 * (np.sqrt(1.0 + fp.delta**2) + 1.0 + 2.0 * sup)
    M = int(np.ceil(raw))
    return M + (M % 2)


def one_minus_chi0(xi: np.ndarray) -> np.ndarray:
    """1 - chi0(xi) = u^3 (10 - 15 u + 6 u^2), u = xi - 1 clipped to [0, 1].

    Exactly 0 for xi <= 1 and exactly 1 for xi >= 2, with no masks; a NaN
    stays NaN.  The cube is two products, not a power.
    """
    u = np.clip(np.asarray(xi, dtype=float) - 1.0, 0.0, 1.0)
    cube = u * u
    out = 10.0 - 15.0 * u
    out += 6.0 * cube
    cube *= u
    out *= cube
    return out


def cutoff_chi0(xi: np.ndarray) -> np.ndarray:
    """C^2 monotone cutoff: 1 below 1, 0 above 2, quintic blend between."""
    return 1.0 - one_minus_chi0(xi)


def cutoff_chi(y: np.ndarray, s: float, K: float) -> np.ndarray:
    """chi on the self-similar scale: 1 inside |y| < K s^(1/4)."""
    if K < 1:
        raise ValueError("K must be >= 1")
    return cutoff_chi0(np.abs(np.asarray(y, dtype=float)) / (K * s**0.25))


@dataclass
class InitialData:
    """Prepared initial field with the projection bookkeeping."""

    psi: np.ndarray
    d0: float


def initial_data(
    spec: InitialDataSpec,
    config,
    combos: dict,
    basis_floats,
    proj: GridProjector,
) -> InitialData:
    """The shooting initial field psi at the run's initial time on the grid
    y of ``proj``.

    ``spec`` is the shooting pair; the initial time s0, the cutoff radius K
    and the bound scale A are read from ``config``, the run's
    ``simulate.SimConfig``.  ``combos`` is the float map of the
    shrinking-set combination constants; ``basis_floats`` the float basis
    views and ``proj`` their ``basis_floats.projector(y)`` (``proj @ q`` is
    Q).  psi is built from the projector alone: its polynomial body is
    ``basis_floats.reconstruct`` of its coordinates (q_2 on h_2; qt_0,
    qt_1, qt_2 on ht_0, ht_1, ht_2) on ``proj.powers``, and its cutoff
    reads y as the row y^1 of ``proj.powers``.  d0 is solved from the unit
    projection constraint P_{0,M}(psi) = 0.

    Only the first-order slow-drift offsets are seeded; the s0^(-3/2)
    refinements are dropped.  At desk scales the degree-4 refinement terms
    are pointwise large at the cutoff edge (the asymptotic ordering needs
    far larger s0), and seeding them detonates the nonlinearity; the
    dropped offsets are far inside their shrinking-set bounds either way.
    """
    s0, A = config.s0, config.A
    chi2 = cutoff_chi(2.0 * proj.powers[1], s0, config.K)
    bf = basis_floats

    q, qt = np.zeros(bf.M + 1), np.zeros(bf.M + 1)
    q[2] = combos["A2"] / s0
    qt[:3] = (A / s0**1.75 * spec.d0_tilde + combos["At0"] / s0,
              A / s0**1.5 * spec.d1_tilde,
              combos["At2"] / s0)
    body = bf.reconstruct(q, qt, proj.powers)

    # d0 solves P_{0,M}(psi) = 0 for the h_0 direction
    def p0(field):
        return bf.convert_Q(proj @ field)[0][0]

    proj_chi = p0(1j * chi2)
    if abs(proj_chi) < 1e-8:
        raise ValueError("degenerate unit projector: s0 too small")
    d0 = -p0(body * chi2) / proj_chi
    psi = (body + d0 * 1j) * chi2
    return InitialData(psi=psi, d0=float(d0))
