"""Exact derivation of every profile constant and cancellation identity.

Everything here is driven by two rational inputs (p, delta) with p > 1 and
delta inside the critical window.  The critical coupling fixes beta, a
no-logarithm condition fixes the square of the profile coefficient b, and a
slow-time expansion of the linearized flow produces the coefficient tables
that the simulator consumes.  Two independent routes are kept for the key
objects:

* closed forms transcribed from the reference tables, and
* regeneration from scratch by exact truncated series expansion,

and the verification layer insists they agree (a handful of documented
typos in the printed tables are tracked in ``PRINTED_DEVIATIONS``).

kappa = (p-1)^(-1/(p-1)) is kept symbolic through the grading machinery;
the only place its value is used is the identity |kappa|^(p-1) = 1/(p-1)
inside modulus powers, where it enters the regeneration engine stripped of
grading (the series below are all written per unit kappa).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache
from typing import Optional

from .exact import (
    ExtScalar,
    GaussComplex,
    KappaGraded,
    MixedKappaGrade,
    Poly,
    imag_part,
    is_zero,
    kappa_unit,
    real_part,
    to_complex,
)
from .series import TSeries
from .spectral import BasisTable, build_basis

F = Fraction


class DomainError(ValueError):
    """Parameters outside the regime where the construction exists."""


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


def critical_beta(p, delta) -> Fraction:
    """beta solving p - delta^2 - beta*delta*(p+1) = 0."""
    p, delta = F(p), F(delta)
    if delta == 0:
        raise DomainError("delta must be nonzero (beta is undetermined)")
    return (p - delta**2) / ((p + 1) * delta)


def p_critical_sq(p) -> Optional[Fraction]:
    """Square of the critical delta threshold; None means +infinity."""
    p = F(p)
    if p > 2:
        return p * (2 * p - 1) / (p - 2)
    return None


def b_critical(p, delta) -> Fraction:
    """b^2 from the direct closed form; positive inside the window."""
    p, delta = F(p), F(delta)
    if delta == 0:
        raise DomainError("delta must be nonzero")
    pc2 = p_critical_sq(p)
    if pc2 is not None and delta**2 >= pc2:
        raise DomainError("delta outside (-p_cri, p_cri)")
    den = (
        16
        * (1 + delta**2)
        * (p * (2 * p - 1) - (p - 2) * delta**2)
        * ((p + 3) * delta**2 + p * (3 * p + 1))
    )
    return (p - 1) ** 4 * (p + 1) ** 2 * delta**2 / den


def b_critical_formal(p, delta) -> Fraction:
    """b^2 via the quartic-in-delta form; identical to b_critical."""
    p, delta = F(p), F(delta)
    L = (
        (p**2 + p - 6) * delta**4
        + p * (p**2 - 10 * p + 1) * delta**2
        + p**2 * (-6 * p**2 + p + 1)
    )
    if L >= 0:
        raise DomainError("delta outside (-p_cri, p_cri)")
    return (p - 1) ** 4 * (p + 1) ** 2 * delta**2 / (-16 * (1 + delta**2) * L)


def b_pskk_sq(delta) -> Fraction:
    """The cubic-nonlinearity (p=3) literature value of b^2."""
    delta = F(delta)
    if not 0 < delta**2 < 15:
        raise DomainError("delta^2 must lie in (0, 15) for p = 3")
    return 8 * delta**2 / (3 * (1 + delta**2) * (15 - delta**2) * (delta**2 + 5))


@dataclass(frozen=True)
class ProfileParams:
    """All scalar parameters derived from (p, delta), exact only; their one
    float view is :class:`profilefield.FloatParams`.

    mu is populated by :func:`mu_critical`; until then it is None.  The
    cached exact stages are keyed on the parameters with mu unset, and mu
    enters the tables only as an exact affine shift (see :class:`_Assembly`).
    """

    p: Fraction
    delta: Fraction
    beta: Fraction
    b2: Fraction
    b: ExtScalar
    nu: ExtScalar
    a: KappaGraded
    kappa: KappaGraded
    p_cri2: Optional[Fraction]
    mu: Optional[ExtScalar] = None

    def with_mu(self, mu: ExtScalar) -> "ProfileParams":
        return replace(self, mu=mu)

    def ext(self, x) -> ExtScalar:
        """Lift a rational/Gaussian scalar into the b-extension."""
        if isinstance(x, ExtScalar):
            if x.modulus != self.b2:
                raise ValueError("foreign extension modulus")
            return x
        return ExtScalar(x, 0, self.b2)


def derive_params(p, delta) -> ProfileParams:
    """Populate the full parameter set from (p, delta)."""
    p, delta = F(p), F(delta)
    if p <= 1:
        raise DomainError("p must be > 1")
    beta = critical_beta(p, delta)
    b2 = b_critical(p, delta)
    if b2 != b_critical_formal(p, delta):
        raise AssertionError("the two closed forms of b^2 disagree")
    assert p - delta**2 - beta * delta * (p + 1) == 0
    return _profile_params(p, delta, beta, b2, ExtScalar(0, 1, b2),
                           p_critical_sq(p))


def _profile_params(p, delta, beta, b2, b, p_cri2) -> ProfileParams:
    """The parameter set on a given b, with nu, kappa and a derived from it."""
    nu = (F(-4) * beta * (1 + delta**2) / (p - 1) ** 2) * b
    kap = kappa_unit(b2)
    a = kap * (2 * (1 - beta * delta) / (p - 1) ** 2) * b
    return ProfileParams(
        p=p, delta=delta, beta=beta, b2=b2, b=b, nu=nu, a=a,
        kappa=kap, p_cri2=p_cri2,
    )


# ---------------------------------------------------------------------------
# regeneration engine: slow-time series of the potentials and the rest term
# ---------------------------------------------------------------------------


def _gamma1(params) -> GaussComplex:
    # exponent of the profile power: -(1+i delta)/(p-1)
    return GaussComplex(-1, -params.delta) * (1 / (params.p - 1))


def _a_hat(params) -> ExtScalar:
    # a per unit kappa
    return (2 * (1 - params.beta * params.delta) / (params.p - 1) ** 2) * params.b


def _profile_series(params, tmax: int):
    """g = (1 + (b/(p-1)) y^2 t)^gamma1 and friends, in the (t, y) ring."""
    w = TSeries.term(params.b * (1 / (params.p - 1)), 1, 2, tmax)
    gam1 = _gamma1(params)

    def gpow(gamma):
        return w.binom_pow(gamma)

    g = gpow(gam1)
    gc = g.conj()
    t = TSeries.term(params.ext(1), 1, 0, tmax)
    ah = _a_hat(params)
    cd = GaussComplex(1, params.delta)
    cdbar = GaussComplex(1, -params.delta)
    fmod = g * gc + (ah * t) * (cdbar * g + cd * gc) + (
        ah * ah * (1 + params.delta**2)
    ) * t * t
    return w, g, gc, t, fmod, gpow


def potential_series(params):
    """V1, V2 as (t, y) series to t-order 2; exact, per the definitions."""
    p, delta = params.p, params.delta
    w, g, gc, t, fmod, gpow = _profile_series(params, 2)
    u = fmod - 1
    cd = GaussComplex(1, delta)
    ah = _a_hat(params)
    v1 = (cd * ((p + 1) / (2 * (p - 1)))) * (u.binom_pow((p - 1) / 2) - 1)
    phi_hat = g + (ah * cd) * t
    v2 = (cd * F(1, 2)) * (
        u.binom_pow((p - 3) / 2) * phi_hat * phi_hat - 1
    )
    return v1, v2


@dataclass
class WTables:
    """Quadratic/quartic potential expansion coefficients, both routes."""

    W11: Poly
    W12: Poly
    W21: Poly
    W22: Poly
    matches: dict


def _transcribed_W(params) -> dict:
    """The printed quadratic/quartic potential coefficients, repaired.

    W22 carries the underlying modulus-power expansion's y^4 bracket
    (p-1+2i delta); the table prints (p-2+2i delta), which W22_printed
    keeps.  The two differ by one y^4 term.
    """
    p, d, beta = params.p, params.delta, params.beta
    b = params.b
    cd = GaussComplex(1, d)
    y2 = Poly.monomial(2, params.ext(1))
    y4 = Poly.monomial(4, params.ext(1))
    one = Poly([params.ext(1)])
    W11 = (cd * F(-1, 1) * (p + 1) / (2 * (p - 1) ** 2)) * b * (
        y2 - (2 * (1 - d * beta)) * one
    )
    W12 = (cd * ((p + 1) / (2 * (p - 1) ** 4))) * (b * b) * (
        (p - 1) * y4
        - (2 * (1 - d * beta) * (p - 2 + d**2)) * y2
        + (2 * (p - 2 + d**2) * (1 - d * beta) ** 2) * one
    )
    W21 = (cd * F(-1, 2) / (p - 1) ** 2) * b * (
        GaussComplex(p - 1, 2 * d) * (y2 - (2 * (1 - d * beta)) * one)
    )
    bracket0 = (
        cd * cd * ((p + 1) * (p - 1) / 2)
        + GaussComplex((p + 1) * (p - 3) * (1 + d**2))
        + GaussComplex(1, -d) ** 2 * ((p - 3) * (p - 5) / 2)
    )
    w22_scale = (cd * F(1, 2) / (p - 1) ** 4) * (b * b)
    W22 = w22_scale * (
        GaussComplex(p - 1, 2 * d) * GaussComplex(p - 1, d) * y4
        - GaussComplex(
            2 * (p - 1) * (p - 2) + (2 * p - 10) * d**2, (8 * p - 16) * d
        ) * ((1 - d * beta)) * y2
        + ((1 - d * beta) ** 2 * bracket0) * one
    )
    W22_printed = W22 - w22_scale * (GaussComplex(p - 1, d) * y4)
    return {"W11": W11, "W12": W12, "W21": W21, "W22": W22,
            "W22_printed": W22_printed}


@cache
def potential_polys(params) -> WTables:
    """W_{i,j}, regenerated from the definitions and checked against print.

    Computed once per process and key; callers must not modify the result.
    """
    v1, v2 = potential_series(params)
    reg = {
        "W11": v1.t_coefficient(1),
        "W12": v1.t_coefficient(2),
        "W21": v2.t_coefficient(1),
        "W22": v2.t_coefficient(2),
    }
    tr = _transcribed_W(params)
    matches = {k: reg[k] == tr[k] for k in reg}
    matches["W22_printed"] = reg["W22"] == tr["W22_printed"]
    return WTables(
        W11=reg["W11"], W12=reg["W12"], W21=reg["W21"], W22=reg["W22"],
        matches=matches,
    )


def rest_series(params, mu: ExtScalar):
    """The rest term (per unit kappa) and the phase-derivative multiplier.

    Returns (rstar_hat, theta_hat): R* = kappa * rstar_hat + theta'(s) *
    kappa * theta_hat with t = s^(-1/2), exactly to t-order 4.  The
    phase mu log s enters exactly as theta' does, through mu/s: rstar_hat
    is affine in mu with slope t^2 * theta_hat.  :func:`rest_expansion`
    uses that; this direct form at one mu is the second route.
    """
    p, delta, beta = params.p, params.delta, params.beta
    w, g, gc, t, fmod, gpow = _profile_series(params, 4)
    gam1 = _gamma1(params)
    cd = GaussComplex(1, delta)
    cb = GaussComplex(1, beta)
    ci = GaussComplex(0, 1)
    ah = _a_hat(params)
    bq = params.b * (1 / (p - 1))
    zsq = TSeries.term(params.ext(1), 1, 2, 4)

    z_dz_g = (2 * gam1 * bq) * (zsq * gpow(gam1 - 1))
    g_zz = (2 * gam1 * bq) * gpow(gam1 - 1) + (
        4 * gam1 * (gam1 - 1) * bq * bq
    ) * (zsq * gpow(gam1 - 2))

    phi_hat = g + (ah * cd) * t
    fterm = (cd * (1 / (p - 1))) * (
        (fmod - 1).binom_pow((p - 1) / 2) * phi_hat - gpow(GaussComplex(-1)) * g
    )

    rstar = (
        F(1, 4) * (t * t * z_dz_g)
        + (F(1, 2) * ah * cd) * (t * t * t)
        + cb * (t * g_zz)
        - (cd * cd * ah * (1 / (p - 1))) * t
        + fterm
        - ci * ((params.nu * F(1, 2)) * t + mu * (t * t)) * phi_hat
    )
    theta_hat = -ci * phi_hat
    return rstar, theta_hat


@dataclass
class RestTables:
    """Projections of the rest-term expansion onto the Jordan basis.

    R[(k, j)] multiplies h_k at order s^-(j+1)/..., i.e. the t-order is
    j+1; Theta[(k, j)] the analogous theta'-multiplier coefficients.  All
    entries carry kappa-grade one.  R and Rt are affine in mu with the
    exact slopes R_mu and Rt_mu; :meth:`at` reads them at a given mu from
    the mu = 0 tables that :func:`rest_expansion` returns.
    """

    R: dict
    Rt: dict
    Theta: dict
    Theta_t: dict
    R_mu: dict
    Rt_mu: dict

    def at(self, mu: ExtScalar) -> "RestTables":
        """The tables at mu, R + mu R_mu (Theta does not depend on mu)."""
        m = KappaGraded(mu, 0)
        return replace(
            self,
            R={k: v + m * self.R_mu[k] for k, v in self.R.items()},
            Rt={k: v + m * self.Rt_mu[k] for k, v in self.Rt.items()},
        )


def _graded_poly(p: Poly, grade: int, params) -> Poly:
    return Poly([KappaGraded(params.ext(c), grade) for c in p.coeffs])


def _rest_modes(params, basis: BasisTable, rstar) -> tuple:
    """(R, Rt): the t-orders 1..4 of a rest series over the Jordan basis."""
    R: dict = {}
    Rt: dict = {}
    for j in range(0, 4):
        pj = rstar.t_coefficient(j + 1)
        if pj.degree > 2 * j:
            raise MixedKappaGrade(
                f"rest expansion order {j} has degree {pj.degree} > {2 * j}"
            )
        if any(k % 2 == 1 and not is_zero(c) for k, c in enumerate(pj.coeffs)):
            raise AssertionError("rest expansion produced odd powers")
        modes = basis.decompose(_graded_poly(pj, 1, params))
        for k in range(0, 2 * j + 1):
            R[(k, j)] = modes.q[k]
            Rt[(k, j)] = modes.q_tilde[k]
    return R, Rt


@cache
def rest_expansion(params, basis: BasisTable) -> RestTables:
    """Regenerate the rest-term tables by exact series expansion.

    Returns the tables at mu = 0 with their exact mu slopes, the same
    decomposition applied to t^2 * theta_hat (see :func:`rest_series`).
    Computed once per process and key; callers ask with mu unset, as for
    :func:`projection_tables`, and must not modify the tables.
    """
    rstar, theta_hat = rest_series(params, params.ext(0))
    R, Rt = _rest_modes(params, basis, rstar)
    t = TSeries.term(params.ext(1), 1, 0, rstar.tmax)
    R_mu, Rt_mu = _rest_modes(params, basis, t * t * theta_hat)
    Theta: dict = {}
    Theta_t: dict = {}
    for j in (0, 1):
        pj = theta_hat.t_coefficient(j + 1)
        modes = basis.decompose(_graded_poly(pj, 1, params))
        for k in range(0, min(2 * (j + 1), basis.M) + 1):
            Theta[(k, j)] = modes.q[k]
            Theta_t[(k, j)] = modes.q_tilde[k]
    return RestTables(R=R, Rt=Rt, Theta=Theta, Theta_t=Theta_t,
                      R_mu=R_mu, Rt_mu=Rt_mu)


@dataclass
class ProjTables:
    """Potential and phase projection constants over the Jordan basis."""

    C: dict
    D: dict
    E: dict
    Ff: dict
    Ct: dict
    Dt: dict
    Et: dict
    Ft: dict
    K: dict
    L: dict
    Kt: dict
    Lt: dict


# The power of b in each letter table: W11 and W21 are b times a b-free
# polynomial, W12 and W22 b^2 times one (see :func:`_transcribed_W`), and
# the phase sources i h_j, i ht_j do not contain b.
_B_POWER = {"C": 1, "D": 1, "Ct": 1, "Dt": 1, "E": 2, "Ff": 2, "Et": 2,
            "Ft": 2, "K": 0, "L": 0, "Kt": 0, "Lt": 0}


def _checked_potentials(params) -> WTables:
    """:func:`potential_polys`, raising unless both routes of W agree."""
    wt = potential_polys(params)
    bad = [k for k in ("W11", "W12", "W21", "W22") if not wt.matches[k]]
    if bad:
        raise AssertionError(f"potential transcription mismatch: {bad}")
    return wt


@cache
def _unit_projection_tables(unit, basis: BasisTable) -> ProjTables:
    """The letter tables at the rational unit b = 1 (``unit`` is such a
    parameter set), computed once per process and (p, delta, basis).

    Each entry is proved real here, and free of a b-part, once.
    """
    wt = _checked_potentials(unit)
    out = {name: {} for name in _B_POWER}

    def put(name, key, value):
        if not is_zero(imag_part(value)):
            raise AssertionError(f"{name}{key} has a nonzero imaginary part")
        if isinstance(value, ExtScalar) and not is_zero(value.c1):
            raise AssertionError(f"{name}{key} has a b-part at unit b")
        out[name][key] = real_part(value)

    ns = range(0, min(basis.M, 6) + 1, 2)
    for j in (0, 2, 4):
        hj = basis.h[j]
        tj = basis.h_tilde[j]
        sources = {
            ("C", "Ct"): wt.W11 * hj + wt.W21 * hj.conj(),
            ("D", "Dt"): wt.W11 * tj + wt.W21 * tj.conj(),
            ("E", "Et"): wt.W12 * hj + wt.W22 * hj.conj(),
            ("Ff", "Ft"): wt.W12 * tj + wt.W22 * tj.conj(),
            ("K", "Kt"): GaussComplex(0, 1) * hj,
            ("L", "Lt"): GaussComplex(0, 1) * tj,
        }
        for (plain, tilde), poly in sources.items():
            m = basis.decompose(poly)
            for n in ns:
                put(plain, (n, j), m.q[n])
                put(tilde, (n, j), m.q_tilde[n])
    return ProjTables(**out)


@cache
def projection_tables(params, basis: BasisTable) -> ProjTables:
    """All letter tables; entries are proved real by the exactness check.

    Odd (n, j) combinations vanish by parity, so only even indices are
    tabulated; each source polynomial is decomposed once and read off for
    every n.  The tables are homogeneous in b, so they are decomposed once
    per (p, delta, basis) at unit b (:func:`_unit_projection_tables`) and
    each family is scaled here by its power b^k: k = 1 for C, D, Ct, Dt,
    k = 2 for E, Ff, Et, Ft and k = 0 for K, L, Kt, Lt.  Both routes of W
    are still checked against each other at this b.  The result is cached
    per process and key, and callers must not modify it; it does not
    depend on mu, so :class:`_Assembly` asks for it with mu unset.
    """
    _checked_potentials(params)
    unit = _unit_projection_tables(_params_with_rational_b(params, F(1)),
                                   basis)
    scale = {0: None, 1: params.b, 2: params.b * params.b}
    out = {}
    for name, k in _B_POWER.items():
        table, bk = getattr(unit, name), scale[k]
        out[name] = table if bk is None else {
            key: bk * v.c0 if isinstance(v, ExtScalar) else v
            for key, v in table.items()
        }
    return ProjTables(**out)


@dataclass
class BQuadTables:
    """Quadratic-interaction projections onto the null direction."""

    quad: dict
    Btilde2: KappaGraded
    B1: KappaGraded
    B2: KappaGraded


@cache
def _quad_kernels(basis: BasisTable) -> dict:
    """The quadratic kernels projected on ht_2, per unit 1/kappa.

    They are built from the basis polynomials and (p, delta) alone, so they
    are computed once per process and basis.
    """
    p, d = basis.p, basis.delta
    cd = GaussComplex(1, d)
    names = {"qt0": basis.h_tilde[0], "q2": basis.h[2], "qt2": basis.h_tilde[2]}

    def quad_poly(e1: Poly, e2: Poly) -> Poly:
        return (
            (p - 3) * (e1.conj() * e2.conj())
            + (p + 1) * (e1 * e2.conj() + e2 * e1.conj())
            + (p + 1) * (e1 * e2)
        )

    quad: dict = {}
    keys = list(names)
    for i, ki in enumerate(keys):
        for kj in keys[i:]:
            poly = quad_poly(names[ki], names[kj])
            if ki != kj:
                # unordered cross pairs appear twice in the square
                poly = 2 * poly
            quad[(ki, kj)] = basis.decompose((cd * F(1, 8)) * poly).q_tilde[2]
    return quad


@cache
def b_quadratic_constants(params, basis: BasisTable) -> BQuadTables:
    """Quadratic term constants, regenerated from the second-order expansion.

    The quadratic kernel at the profile's core value kappa is
      (1+i delta)/(8 kappa) [ (p-3) qbar^2 + 2(p+1) q qbar + (p+1) q^2 ],
    projected on ht_2 after substituting the slowly forced modes A2 =
    R_{2,1} and At0 = -R~_{0,1}.  Neither moves with mu: at that t-order
    the mu slope is the constant -i, whose decomposition is all R_{0,1}.
    The kernels do not contain b and are computed once per basis
    (:func:`_quad_kernels`); B1 and B2 read the rest tables, which are
    not homogeneous in b, so these constants are cached per process and
    key, with mu unset.
    """
    rest = rest_expansion(params, basis)
    if not (is_zero(rest.R_mu[(2, 1)]) and is_zero(rest.Rt_mu[(0, 1)])):
        raise AssertionError("R_{2,1} or R~_{0,1} depends on mu")
    quad = {k: KappaGraded(params.ext(v), -1)
            for k, v in _quad_kernels(basis).items()}

    A2 = rest.R[(2, 1)]
    At0 = -rest.Rt[(0, 1)]
    Btilde2 = quad[("qt2", "qt2")]
    B1 = quad[("q2", "qt2")] * A2 + quad[("qt0", "qt2")] * At0
    B2 = (
        quad[("q2", "q2")] * A2 * A2
        + quad[("qt0", "q2")] * At0 * A2
        + quad[("qt0", "qt0")] * At0 * At0
    )
    return BQuadTables(quad=quad, Btilde2=Btilde2, B1=B1, B2=B2)


# ---------------------------------------------------------------------------
# the null-mode ODE: cancellations, Htilde1, Htilde2, mu
# ---------------------------------------------------------------------------


@dataclass
class OdeCoefficients:
    """Targeted coefficients of the null-mode ODE plus both H constants.

    Htilde1_selfconsistent is assembled with the regenerated projection
    L~_{0,2}; Htilde1 is that value shifted to the printed L~_{0,2} (see
    :class:`_Assembly` and PRINTED_DEVIATIONS["Lt02"]) and agrees with the
    reference closed form.  Htilde2 and the four cancellation coefficients
    do not involve L~_{0,2}.
    """

    coef_1_over_s: KappaGraded
    coef_q2_over_sqrt_s: KappaGraded
    coef_q2sq: KappaGraded
    coef_s32: KappaGraded
    Htilde1: KappaGraded
    Htilde1_closed: Fraction
    Htilde1_selfconsistent: KappaGraded
    Htilde2: KappaGraded
    b2_root: Fraction


@dataclass
class ShrinkCombos:
    """Constants of the mode combinations monitored by the shrinking set."""

    c2: Fraction
    c4: Fraction
    A2: KappaGraded
    At0: KappaGraded
    At2: KappaGraded
    B2c: KappaGraded
    Bt0: KappaGraded
    B4: KappaGraded
    Bt4: KappaGraded
    C2c: KappaGraded
    Ct0: KappaGraded
    C4: KappaGraded
    Ct4: KappaGraded
    X2: KappaGraded
    Xt0: KappaGraded
    theta32: KappaGraded

    def float_map(self, kappa: float) -> dict:
        out = {}
        for name in (
            "A2 At0 At2 B2c Bt0 B4 Bt4 C2c Ct0 C4 Ct4 X2 Xt0 theta32".split()
        ):
            v = getattr(self, name)
            out[name] = to_complex(v, kappa).real
        out["c2"] = float(self.c2)
        out["c4"] = float(self.c4)
        return out


def htilde1_closed_form(p, delta) -> Fraction:
    p, d = F(p), F(delta)
    num = (
        d**8
        + (1 - 2 * p) * d**6
        + (36 - 8 * p - 5 * p**2) * d**4
        + (-6 * p + 61 * p**2 - 6 * p**3) * d**2
        + 36 * p**4 - 6 * p**3 - 6 * p**2
    )
    den = (
        (-p + 6 - p**2) * d**4
        + (-p + 10 * p**2 - p**3) * d**2
        - p**2 + 6 * p**4 - p**3
    )
    return -F(1, 4) * num / den


def htilde1_plus_32_closed_form(p, delta) -> Fraction:
    p, d = F(p), F(delta)
    num = d**2 * (1 + d**2) * (d**2 - p) ** 2
    den = ((p - 2) * d**2 - p * (2 * p - 1)) * ((p + 3) * d**2 + p * (3 * p + 1))
    return F(1, 4) * num / den


class _Assembly:
    """One full exact pass of the table pipeline at a fixed mu.

    The projection, rest and quadratic stages are cached per (params,
    basis) with mu unset, and their b-free parts (the unit-b projection
    tables and the quadratic kernels) once per (p, delta, basis); this is
    the one place mu enters them, as the affine shift of the rest tables
    (:meth:`RestTables.at`).  The assemblies at mu = 0, 1 and 2 are built
    once per key by :func:`_mu_fit`.

    Everything is assembled with the regenerated L~_{0,2} = -beta(1+delta^2)
    (self-consistent with the basis tables and with the printed L_{0,2}).
    The printed -2 delta + delta^2 beta - beta, with which the reference
    closed form of the null-mode decay constant was evidently assembled,
    reaches Htilde1 only through Dt_{2,0} Ct0; so Htilde1_printed is
    Htilde1 shifted by Dt_{2,0} nu (L~_{0,2} printed - regenerated) / 2,
    and ``mu_target`` holds the mu target of each convention.
    """

    def __init__(self, params: ProfileParams, basis: BasisTable, mu: ExtScalar):
        if params.beta == 0:
            raise DomainError(
                "beta = 0 (delta^2 = p): the Jordan coupling c_2 vanishes "
                "and the null-mode machinery degenerates"
            )
        self.params = params
        self.basis = basis
        self.mu = mu
        key = params.with_mu(None)
        self.proj = projection_tables(key, basis)
        self.rest = rest_expansion(key, basis).at(mu)
        self.bq = b_quadratic_constants(key, basis)
        self._assemble()

    def _assemble(self):
        pm = self.params
        p, d, beta = pm.p, pm.delta, pm.beta
        nu, b, kap, mu = pm.nu, pm.b, pm.kappa, self.mu
        pr, rs = self.proj, self.rest
        c2 = 2 * beta * (1 + d**2)
        c4 = 12 * beta * (1 + d**2)
        if self.basis.c[2] != c2 or self.basis.c[4] != c4:
            raise AssertionError("Jordan couplings disagree with closed form")
        R21, Rt21 = rs.R[(2, 1)], rs.Rt[(2, 1)]
        R01, Rt01 = rs.R[(0, 1)], rs.Rt[(0, 1)]
        R22, Rt22 = rs.R[(2, 2)], rs.Rt[(2, 2)]
        R02, Rt02 = rs.R[(0, 2)], rs.Rt[(0, 2)]
        R42, Rt42 = rs.R[(4, 2)], rs.Rt[(4, 2)]
        Rt23 = rs.Rt[(2, 3)]
        Th00, Tht00 = rs.Theta[(0, 0)], rs.Theta_t[(0, 0)]
        Th20 = rs.Theta[(2, 0)]

        # mode-combination constants of the shrinking set
        C2c = pr.D[(2, 2)] - nu * (1 + d**2) / 2 + c4 * pr.Dt[(4, 2)] + (
            Th20 * c2 / kap
        )
        lt02 = pm.ext(pr.Lt[(0, 2)])
        Ct0 = nu * lt02 / 2 - pr.Dt[(0, 2)] - Tht00 * c2 / kap
        C4 = KappaGraded(F(1, 2) * pr.D[(4, 2)], 0)
        Ct4 = KappaGraded(pr.Dt[(4, 2)], 0)
        X2 = R22 + (pr.C[(2, 2)] - d * nu / 2) * R21 + Th20 * R01 / kap
        Xt0 = -(d * nu / 2 + pr.Dt[(0, 0)]) * Rt01 + Tht00 * R01 / kap + Rt02
        B2c = X2 + c4 * (pr.Ct[(4, 2)] * R21 + Rt42) - pr.D[(2, 0)] * Rt01
        Bt0 = -Xt0 + nu * pr.Kt[(0, 2)] * R21 / 2 - pr.Ct[(0, 2)] * R21
        B4 = F(1, 2) * (pr.C[(4, 2)] * R21 + R42)
        Bt4 = pr.Ct[(4, 2)] * R21 + Rt42
        A2 = R21
        At0 = -Rt01
        At2 = -R01 / self.params.ext(c2)

        # s^(-3/2) bracket of the modulation equation
        theta32 = (
            nu * (1 + d**2) * Rt01 / 2
            - nu * pr.K[(0, 2)] * R21 / 2
            - pr.D[(0, 0)] * Rt01
            + pr.C[(0, 2)] * R21
            + R02
            + Th00 * R01 / kap
        )

        self.combos = ShrinkCombos(
            c2=c2, c4=c4, A2=A2, At0=At0, At2=At2, B2c=B2c, Bt0=Bt0,
            B4=B4, Bt4=Bt4, C2c=C2c, Ct0=Ct0, C4=C4, Ct4=Ct4,
            X2=X2, Xt0=Xt0, theta32=theta32,
        )

        # targeted cancellation coefficients of the null-mode ODE
        self.coef_q2_sqrt = KappaGraded(
            nu * d / 2 + pr.Dt[(2, 2)] - c2 * d / (p - 1) ** 2 * b, 0
        )
        self.coef_q2sq = KappaGraded(pm.ext(c2 * d), -1) + self.bq.Btilde2
        self.coef_1_over_s = Rt21
        self.coef_s32 = (
            nu / 2 * R21
            + pr.Ct[(2, 2)] * R21
            - pr.Dt[(2, 0)] * Rt01
            - (d / (p - 1) ** 2) * b * R01
            + Rt22
        )

        bracket_mu = (p + 1) * d * (12 - 6 * d * beta + 6 * beta**2)
        self.Htilde1 = (
            KappaGraded(nu * pm.ext(F(1, 2)), 0) * self.combos.C2c
            - KappaGraded(nu * pm.ext(F(1, 2)), 0)
            * (pr.Kt[(2, 4)] * C4 + pr.Lt[(2, 4)] * Ct4)
            + KappaGraded(mu * d, 0)
            + c2 * R21 / kap
            + d * R01 / kap
            + pr.Dt[(2, 0)] * Ct0
            + pr.Ct[(2, 2)] * C2c
            + pr.Ct[(2, 4)] * C4
            + pr.Dt[(2, 4)] * Ct4
            + KappaGraded(pr.Ft[(2, 2)], 0)
            + self.bq.B1
            - KappaGraded((d / (p - 1) ** 2) * b, 0)
            * (
                KappaGraded(pr.D[(0, 2)], 0)
                - KappaGraded(nu * pr.L[(0, 2)] / 2, 0)
                + Th00 * c2 / kap
            )
            + KappaGraded(
                b * b * (c2 * bracket_mu / (2 * (p - 1) ** 4)), 0
            )
        )

        self.Htilde2 = (
            (KappaGraded(nu * pm.ext(F(1, 2)), 0) + pr.Ct[(2, 2)]) * B2c
            - KappaGraded(nu * pm.ext(F(1, 2)), 0)
            * (pr.Kt[(2, 4)] * B4 + pr.Lt[(2, 4)] * Bt4)
            + KappaGraded(mu, 0) * R21
            + R01 * R21 / kap
            + pr.Dt[(2, 0)] * Bt0
            + pr.Ct[(2, 4)] * B4
            + pr.Dt[(2, 4)] * Bt4
            + pr.Et[(2, 2)] * R21
            - pr.Ft[(2, 0)] * Rt01
            + self.bq.B2
            - KappaGraded((d / (p - 1) ** 2) * b, 0) * theta32
            + Rt23
            + KappaGraded(b * b * (bracket_mu / (2 * (p - 1) ** 4)), 0) * R01
        )

        lt02_printed = pm.ext(-2 * d + d**2 * beta - beta)
        self.Htilde1_printed = (
            self.Htilde1 + pr.Dt[(2, 0)] * nu * (lt02_printed - lt02) / 2
        )

        self.mu_target = {
            "selfconsistent": At2 * (self.Htilde1 + 1) + self.Htilde2,
            "printed": At2 * (self.Htilde1_printed + 1) + self.Htilde2,
        }


def _odd_cubic_root(f1, f2, what: str) -> Fraction:
    """The root -alpha/gamma of alpha + gamma b^2, for the odd cubic
    f(b) = alpha b + gamma b^3 with f(1) = f1 and f(2) = f2; a zero gamma
    raises ``DomainError`` naming the degenerate ``what``."""
    gamma = (f2 - 2 * f1) / 6
    if gamma == 0:
        raise DomainError(f"degenerate {what}")
    return -(f1 - gamma) / gamma


def _b2_root_from_s32(params, basis) -> Fraction:
    """Solve the s^(-3/2) cancellation for b^2 without assuming it.

    The coefficient is an odd cubic alpha*b + gamma*b^3 in the profile
    coefficient; evaluating the assembly at two synthetic rational values
    of b recovers (alpha, gamma) and hence the root of alpha + gamma b^2.
    """
    vals = {}
    for bval in (F(1), F(2)):
        pm2 = _params_with_rational_b(params, bval)
        asm = _Assembly(pm2, basis, pm2.ext(0))
        v = asm.coef_s32.value
        if not is_zero(v.c1) or not is_zero(imag_part(v)):
            raise AssertionError("s^(-3/2) coefficient not a real rational")
        vals[bval] = v.c0.re
    return _odd_cubic_root(vals[F(1)], vals[F(2)],
                           "cubic in the b-determination")


def _params_with_rational_b(params, bval: Fraction) -> ProfileParams:
    """A synthetic parameter set with b replaced by a rational dummy.

    Used only to probe polynomial-in-b structure; modulus becomes bval^2 so
    the extension collapses to rationals embedded on the c0 component.
    """
    b2 = bval**2
    return _profile_params(params.p, params.delta, params.beta, b2,
                           ExtScalar(bval, 0, b2), params.p_cri2)


def ode_coefficients(params) -> OdeCoefficients:
    """The four targeted cancellations plus Htilde1/Htilde2, all exact.

    Independence from mu is verified on the assemblies at mu = 0 and 1 of
    :func:`_mu_fit`.
    """
    basis = build_basis(6, params.p, params.delta, params.beta)
    asm0, asm1, _ = _mu_fit(params.with_mu(None), basis)
    for name in ("coef_q2_sqrt", "coef_q2sq", "coef_1_over_s", "coef_s32",
                 "Htilde1", "Htilde1_printed", "Htilde2"):
        if getattr(asm0, name) != getattr(asm1, name):
            raise AssertionError(f"{name} unexpectedly depends on mu")
    return OdeCoefficients(
        coef_1_over_s=asm0.coef_1_over_s,
        coef_q2_over_sqrt_s=asm0.coef_q2_sqrt,
        coef_q2sq=asm0.coef_q2sq,
        coef_s32=asm0.coef_s32,
        Htilde1=asm0.Htilde1_printed,
        Htilde1_closed=htilde1_closed_form(params.p, params.delta),
        Htilde1_selfconsistent=asm0.Htilde1,
        Htilde2=asm0.Htilde2,
        b2_root=_b2_root_from_s32(params, basis),
    )


@dataclass
class MuResult:
    mu: ExtScalar
    a0: KappaGraded
    residual: KappaGraded


@cache
def _mu_fit(params, basis: BasisTable) -> tuple:
    """The assemblies at mu = 0, 1 and 2, built once per process and key
    (callers ask with mu unset) and shared by :func:`mu_critical`, for
    both flavors, and :func:`ode_coefficients`."""
    return tuple(_Assembly(params, basis, params.ext(m)) for m in (0, 1, 2))


def mu_critical(params, flavor: str = "selfconsistent") -> MuResult:
    """The unique mu killing the s^-2 forcing of the null-mode combination.

    The target is affine in mu: its values at mu = 0, 1 and 2 come from
    the three assemblies of :func:`_mu_fit`, built once per (p, delta) for
    both flavors.  They give the affine map, and their second difference
    guards against hidden quadratic terms.  The root is substituted back
    for a final exact zero residual, the one assembly this call builds.
    ``flavor``, "selfconsistent" or "printed", picks the L~_{0,2}
    convention entering Htilde1 (see :class:`_Assembly`).
    """
    basis = build_basis(6, params.p, params.delta, params.beta)
    f0, f1, f2 = (asm.mu_target[flavor]
                  for asm in _mu_fit(params.with_mu(None), basis))
    if not (f2 - 2 * f1 + f0).is_zero():
        raise AssertionError("mu target is not affine in mu")
    a0 = f1 - f0
    if a0.is_zero():
        raise DomainError("a0 = 0: the mu equation is degenerate")
    mu_graded = -f0 / a0
    if mu_graded.grade != 0:
        raise MixedKappaGrade("mu should carry kappa-grade 0")
    mu = mu_graded.value
    if not is_zero(imag_part(mu)):
        raise AssertionError("mu came out non-real")
    residual = _Assembly(params, basis, mu).mu_target[flavor]
    return MuResult(mu=mu, a0=a0, residual=residual)


def shrink_combo_constants(params,
                           basis: Optional[BasisTable] = None) -> ShrinkCombos:
    """Shrinking-set combination constants at params.mu (derived if unset).

    ``basis`` defaults to the degree-6 table; the simulator passes its own
    table of degree M_track.
    """
    basis = basis or build_basis(6, params.p, params.delta, params.beta)
    mu = params.mu if params.mu is not None else mu_critical(params).mu
    return _Assembly(params, basis, mu).combos


# ---------------------------------------------------------------------------
# the formal matched-expansion pipeline (log-free conditions)
# ---------------------------------------------------------------------------


@dataclass
class FormalResult:
    """Outputs of the matched-expansion replica.

    mu_bracket is the coefficient of b^2/(p-1)^4 in the formal mu as it
    comes out of the fourth-order phase equation; mu_bracket_printed is the
    reference's printed version, whose delta^2*beta term reads (4p+8) where
    the assembly (verified independently, piece by piece) gives 8p.  The
    two coincide exactly at p = 2.
    """

    b2_root: Fraction
    C_coefficient_of_P: tuple       # at b = 1 and b = 3; zero if C cancels
    mu_bracket: Fraction            # multiplies b^2/(p-1)^4
    mu_bracket_printed: Fraction
    mu_C_coefficient: Fraction      # multiplies the free constant
    mu_assembled_matches: bool
    mu_bracket_matches_printed: bool


def _formal_P(p: Fraction, d: Fraction, beta: Fraction, b: Fraction,
              C: Fraction) -> Fraction:
    """The log coefficient assembled from the second-order matching."""
    A1 = -2 * b * (d * beta - 1) / (p - 1)
    B1 = C
    At0 = -2 * d * b / (p - 1)
    At1 = 4 * beta * (1 + d**2) * b**2 / (p - 1) ** 2
    Bt1 = 4 * b**2 / (p - 1) ** 2 * ((p + 3) * d + beta * (2 * p + d**2 * (p - 3))) \
        + 2 * (p - 1) * d * C
    Q12 = -b / (2 * (p - 1))
    Q21 = -2 * p * b * A1 / (p - 1) - beta * Bt1 - beta * At0 * A1
    Q22 = (
        -10 * p * B1 * b / (p - 1)
        - 2 * At0 * At1
        + 4 * beta * At1 * b / (p - 1)
        - 4 * beta * At0 * B1
        + 2 * beta * At1 * b
        - beta * At0 * B1
    )
    Q31 = p * (p - 1) * A1**2 / 2
    Q32 = (
        4 * p * (2 * p - 1) * A1 * b**2 / (p - 1) ** 2
        - 2 * At0 * Bt1
        - At0**2 * A1
        + 4 * p * beta * Bt1 * b / (p - 1)
        + 2 * (3 * p - 1) * beta * At0 * A1 * b / (p - 1)
        + p * (p - 1) * A1 * B1
    )
    return (
        Q12
        - b * Q21 / (p - 1) ** 2
        + Q22 / (p - 1)
        - 2 * b * Q31 / (p - 1) ** 3
        + Q32 / (p - 1) ** 2
    )


def _formal_mu_assembled(p, d, beta, b, C):
    """mu from the fourth-order phase equation at the origin, piecewise."""
    phi1_dd = (
        4 * b**2 / (p - 1) ** 4 * ((p + 3) * d + beta * (3 * p - 1 + d**2 * (2 * p - 4)))
        + 2 * d * C / (p - 1)
    )
    t_R1dd = 4 * p * beta * (d * beta - 1) * b**2 / (p - 1) ** 4 + 2 * beta * C / (p - 1)
    t_R0dd = -4 * beta * (d * beta - 1) * b**2 / (p - 1) ** 4
    t_R2 = (
        2 * d**2 * beta * C / (p - 1)
        - 2 * d * C / (p - 1)
        + b**2 / (p - 1) ** 4 * (
            4 * (p + 3) * d**2 * beta
            + d * beta**2 * (12 * p - 4 + d**2 * (8 * p - 16))
            - (d * beta - 1) * (2 * p * d + (2 * p - 4) * d**2 * beta)
        )
    )
    t_R1sq = 2 * (p - 2) * d * (d * beta - 1) ** 2 * b**2 / (p - 1) ** 4
    return phi1_dd + t_R1dd + t_R0dd + t_R2 + t_R1sq


def formal_pipeline(p, delta) -> FormalResult:
    """Replicate the matched-expansion determination of b^2 and mu.

    The free integration constant stays a formal parameter; it must drop
    out of the log coefficient (under the critical coupling), and the
    root of the odd cubic must coincide with the rigorous b^2.  P is affine
    in C, so its coefficient of C is measured as P(C = 1) - P(C = 0), at
    two probe values of b, and returned for the caller to judge.
    """
    p, d = F(p), F(delta)
    beta = critical_beta(p, d)

    C_coeff = tuple(
        _formal_P(p, d, beta, bval, F(1)) - _formal_P(p, d, beta, bval, F(0))
        for bval in (F(1), F(3))
    )
    P1 = _formal_P(p, d, beta, F(1), F(0))
    P2 = _formal_P(p, d, beta, F(2), F(0))
    P3 = _formal_P(p, d, beta, F(3), F(0))
    # an odd cubic through P1 and P2 takes 4 P2 - 5 P1 at b = 3
    if P3 != 4 * P2 - 5 * P1:
        raise AssertionError("P is not an odd cubic in b")
    b2_root = _odd_cubic_root(P1, P2, "formal cubic")

    mu_bracket = (
        8 * (p + 1) * d
        + 8 * p * beta
        + 8 * p * d**2 * beta
        + (16 * p - 8) * d * beta**2
        + (8 * p - 16) * d**3 * beta**2
    )
    mu_bracket_printed = (
        8 * (p + 1) * d
        + 8 * p * beta
        + (4 * p + 8) * d**2 * beta
        + (16 * p - 8) * d * beta**2
        + (8 * p - 16) * d**3 * beta**2
    )
    mu_C_coeff = 2 * beta * (1 + d**2) / (p - 1)
    # assembled mu must be affine in C with this slope and intercept
    ok = True
    for bval in (F(1), F(2)):
        m0 = _formal_mu_assembled(p, d, beta, bval, F(0))
        m1 = _formal_mu_assembled(p, d, beta, bval, F(1))
        ok &= m0 == mu_bracket * bval**2 / (p - 1) ** 4
        ok &= (m1 - m0) == mu_C_coeff
    return FormalResult(
        b2_root=b2_root,
        C_coefficient_of_P=C_coeff,
        mu_bracket=mu_bracket,
        mu_bracket_printed=mu_bracket_printed,
        mu_C_coefficient=mu_C_coeff,
        mu_assembled_matches=bool(ok),
        mu_bracket_matches_printed=mu_bracket == mu_bracket_printed,
    )


# ---------------------------------------------------------------------------
# printed-table transcriptions (the "other route") and deviations
# ---------------------------------------------------------------------------

# Printed forms that provably disagree with the regenerated (and
# cancellation-consistent) values.  Keyed by constant name; the note says
# what the printed text has.
PRINTED_DEVIATIONS = {
    "Dt22": "printed denominator (p-1); the sqrt-s cancellation forces (p-1)^2",
    "R00": "printed with +kappa*nu/2; the expansion gives -kappa*nu/2 "
           "(the value is exactly zero by the choice of nu)",
    "W22": "printed y^4 bracket (p-2+2i delta); the underlying expansion "
           "has (p-1+2i delta)",
    # The deepest one.  The printed L~_{0,2} (= -2d + d^2 b - b) is not the
    # projection of i*ht_2 in the printed basis: the exact decomposition
    # gives -beta(1+delta^2), consistent with the printed L_{0,2}.
    # L~_{0,2} enters the decay constant only through Dt_{2,0} Ct0, so the
    # printed value shifts the self-consistent assembly (exactly -3/2) by
    # Dt_{2,0} nu (printed - regenerated) / 2; the shifted value reproduces
    # the reference closed form exactly (checked for every sample).  Both
    # are exposed; the closed form is kept as the contract value.
    "Lt02": "printed -2d+d^2*beta-beta; the exact projection of i*ht_2 is "
            "-beta(1+delta^2)",
    "formal_mu_bracket": "printed delta^2*beta coefficient (4p+8); the "
                         "printed component pieces sum to 8p (equal only "
                         "at p = 2)",
    "basis_degree6_constants": "the printed y^0 coefficients of h_6 and "
                               "ht_6 are off by polynomials vanishing at "
                               "delta = 1; the constructed tables satisfy "
                               "the Jordan relations exactly (see "
                               "verify.printed_basis_corrections)",
}


def transcribed_constants(params, mu: ExtScalar) -> dict:
    """Closed forms of the printed projection/rest constants.

    Returned as graded scalars on the same footing as the regenerated
    tables, for the comparison report.
    """
    p, d, beta = params.p, params.delta, params.beta
    b, nu, kap, a = params.b, params.nu, params.kappa, params.a
    e = params.ext
    out = {}
    out["Dt42"] = e(b * ((d**2 - p) / (p - 1) ** 2))
    out["D22"] = e(
        -b
        * F(1, 2)
        / (p - 1) ** 2
        * (
            -24 * p * d + 56 * d**3 + 64 * d**2 * beta + 32 * d
            + 24 * p * d**2 * beta + 40 * d**4 * beta
        )
    )
    out["Dt22"] = e(b * (4 * d * beta * (1 + d**2) / (p - 1)))
    out["Lt24"] = e(6 * d**2 * beta - 12 * d - 6 * beta)
    out["D42"] = e(b * (-2 * d * (1 + d**2) / (p - 1) ** 2))
    out["Dt20"] = e(-b * ((2 * p - 2 * d**2) / (2 * (p - 1) ** 2)))
    out["Lt02"] = e(-2 * d + d**2 * beta - beta)
    out["Dt02"] = e(
        -b
        * F(1, 2)
        / (p - 1) ** 2
        * (
            -32 * d * beta - 12 * p * beta**2 + 12 * d**2 * beta**2
            - 16 * d**2 + 16 * p - 4 * d**4 * beta**2
            + 4 * p * d**2 * beta**2 - 32 * p * d * beta
        )
    )
    out["Ct22"] = e(
        -b * F(1, 2) / (p - 1) ** 2 * (-14 * d**2 * beta + 2 * p * beta - 12 * beta)
    )
    out["Ct24"] = e(
        -b
        * F(1, 2)
        / (p - 1) ** 2
        * (
            96 * p * beta + 224 * d**3 * beta**2 - 288 * d**2 * beta
            - 128 * p * d * beta**2 - 192 * beta + 96 * d * beta**2
        )
    )
    out["Dt24"] = e(
        -b
        * F(1, 2)
        / (p - 1) ** 2
        * (
            -96 * p * d**2 * beta**2 - 168 * p * d * beta + 96 * p
            - 528 * d * beta - 96 * d**2 + 216 * d**2 * beta**2
            - 168 * p * beta**2 + 144 * d**4 * beta**2 - 360 * d**3 * beta
        )
    )
    out["Ft22"] = e(
        (b * b)
        * F(1, 2)
        / (p - 1) ** 4
        * (
            -240 * p + 276 * p**2 - 312 * p * d**2 - 204 * d**4
            + (-288 * p - 552 * p**2 + 696) * d * beta
            + (432 - 144 * p) * d**3 * beta
            + 144 * d**5 * beta
            + (180 * p - 180 * p**2) * beta**2
            + (96 * p**2 + 288 * p - 96) * d**2 * beta**2
            + (108 + 36 * p) * d**4 * beta**2
        )
    )
    out["D02"] = e(
        -b
        * F(1, 2)
        / (p - 1) ** 2
        * (
            32 * d + 24 * d**5 * beta**2 + 64 * d**2 * beta
            + 48 * d**3 * beta**2 + 64 * d**4 * beta + 32 * d**3
            + 24 * d * beta**2 + 96 * p * d**3 * beta**2
            + 96 * p * d * beta**2
        )
    )
    out["L02"] = e(4 * d * beta + 4 * d**3 * beta)

    out = {k: KappaGraded(v, 0) for k, v in out.items()}

    kapE = KappaGraded(e(1), 1)
    out["Rt00"] = a - kapE * (2 * (1 - beta * d) / (p - 1) ** 2) * b
    out["R00"] = kapE * (nu * F(1, 2)) - kapE * (
        2 * beta * (1 + d**2) / (p - 1) ** 2
    ) * b
    out["Rt21"] = (
        (d**2 - p) * a * b - kapE * (d * F(1, 2)) * nu * b
    ) * (1 / (p - 1) ** 2)
    out["R21"] = ((1 + d**2) / (2 * (p - 1) ** 2)) * (
        kapE * nu * b - 4 * d * a * b
    ) + kapE * (6 * (p + 1) * d * (1 + beta**2) / (p - 1) ** 4) * (b * b)
    out["Rt01"] = (
        (a * a * (p - d**2) + kapE * (d) * nu * a) / (2 * kapE)
        + ((1 - d * beta) / (p - 1) ** 2)
        * (2 * (d**2 - p) * a * b - kapE * d * nu * b)
        - ((1 + d**2) * beta / (2 * (p - 1) ** 2)) * (kapE * nu * b - 4 * d * a * b)
        - kapE * (6 * (p + 1) * d * beta * (1 + beta**2) / (p - 1) ** 4) * (b * b)
    )
    out["R01"] = (
        ((1 + d * beta) * (1 + d**2) / (p - 1) ** 2) * (kapE * nu * b - 4 * d * a * b)
        + kapE * (12 * (p + 1) * d * (1 + d * beta) * (1 + beta**2) / (p - 1) ** 4)
        * (b * b)
        + ((1 + d**2) / 8) * (8 * d * a * a - 4 * kapE * nu * a) / kapE
        - kapE * KappaGraded(mu, 0)
    )
    out["Rt22"] = (
        kapE
        * (5 * (p + 1) * d * (1 + beta**2) / (p - 1) ** 6)
        * (b * b * b)
        * (12 * d - 6 * d**2 * beta + 6 * (2 * p - 1) * beta)
        + kapE * (F(1, 4) * (p + 1) * d * (12 - 6 * d * beta + 6 * beta**2)
                  / (p - 1) ** 4) * nu * (b * b)
        + a * (b * b) * (F(1, 2) / (p - 1) ** 4) * (
            24 * p**2 - 24 * p + (30 - 6 * p - 24 * p**2) * d * beta
            - 24 * p * d**2 - 24 * d**4 + (18 - 6 * p) * d**3 * beta
            + 12 * d**5 * beta
        )
        - kapE * (F(1, 2) / (p - 1) ** 2) * b
        - kapE * KappaGraded(mu, 0) * (d / (p - 1) ** 2) * b
        - (a * a * b) * (F(1, 8) / (p - 1) ** 2) * (4 * p**2 - 8 * p - 12 * d**4) / kapE
    )
    out["Th00"] = kapE * (4 * (1 + d**2) * d * beta / (p - 1) ** 2) * b
    out["Tht00"] = -kapE * (beta * (1 + d**2) / (p - 1) ** 2) * b
    out["Tht20"] = -kapE * (d / (p - 1) ** 2) * b
    out["Th20"] = kapE * ((1 + d**2) / (p - 1) ** 2) * b
    out["Tht21"] = -kapE * (
        3 * d * (p + 1) * (-(beta**2) + beta * d - 2) / (p - 1) ** 4
    ) * (b * b)
    out["Btilde2"] = KappaGraded(
        e(4 * (p - d**2) - d * beta * (6 + 4 * p + 2 * d**2)), -1
    )
    return out


def transcription_report(params) -> dict:
    """Compare regenerated tables against the printed closed forms.

    Returns name -> (match: bool, expected_match: bool).  A False match
    with expected_match False is a documented deviation of the printed
    text; anything else failing indicates a genuine regression.
    """
    basis = build_basis(6, params.p, params.delta, params.beta)
    mu = params.ext(0)
    tr = transcribed_constants(params, mu)
    key = params.with_mu(None)
    pr = projection_tables(key, basis)
    rs = rest_expansion(key, basis)
    reg = {
        "Dt42": KappaGraded(pr.Dt[(4, 2)], 0),
        "D22": KappaGraded(pr.D[(2, 2)], 0),
        "Dt22": KappaGraded(pr.Dt[(2, 2)], 0),
        "Lt24": KappaGraded(params.ext(pr.Lt[(2, 4)]), 0),
        "D42": KappaGraded(pr.D[(4, 2)], 0),
        "Dt20": KappaGraded(pr.Dt[(2, 0)], 0),
        "Lt02": KappaGraded(params.ext(pr.Lt[(0, 2)]), 0),
        "Dt02": KappaGraded(pr.Dt[(0, 2)], 0),
        "Ct22": KappaGraded(pr.Ct[(2, 2)], 0),
        "Ct24": KappaGraded(pr.Ct[(2, 4)], 0),
        "Dt24": KappaGraded(pr.Dt[(2, 4)], 0),
        "Ft22": KappaGraded(pr.Ft[(2, 2)], 0),
        "D02": KappaGraded(pr.D[(0, 2)], 0),
        "L02": KappaGraded(params.ext(pr.L[(0, 2)]), 0),
        "Rt00": rs.Rt[(0, 0)],
        "R00": rs.R[(0, 0)],
        "Rt21": rs.Rt[(2, 1)],
        "R21": rs.R[(2, 1)],
        "Rt01": rs.Rt[(0, 1)],
        "R01": rs.R[(0, 1)],
        "Rt22": rs.Rt[(2, 2)],
        "Th00": rs.Theta[(0, 0)],
        "Tht00": rs.Theta_t[(0, 0)],
        "Tht20": rs.Theta_t[(2, 0)],
        "Th20": rs.Theta[(2, 0)],
        "Tht21": rs.Theta_t[(2, 1)],
        "Btilde2": b_quadratic_constants(key, basis).Btilde2,
    }
    report = {}
    for name, rv in reg.items():
        want = tr[name]
        report[name] = (is_zero(rv - want), name not in PRINTED_DEVIATIONS)
    # both routes of W were compared when projection_tables built them
    report["W22"] = (potential_polys(key).matches["W22_printed"],
                     "W22" not in PRINTED_DEVIATIONS)
    return report
