"""Named identity checks behind the ``verify`` command and the test suite.

Each check returns (name, passed, detail).  The documented misprints of
the reference tables are expected to disagree and are reported as such
without failing the run; anything else failing is a real regression.
"""

from __future__ import annotations

from fractions import Fraction as F

from .constants import (
    PRINTED_DEVIATIONS,
    b_critical,
    b_critical_formal,
    b_pskk_sq,
    derive_params,
    formal_pipeline,
    htilde1_plus_32_closed_form,
    mu_critical,
    ode_coefficients,
    transcription_report,
)
from .exact import GaussComplex, Poly, is_zero
from .spectral import apply_L, build_basis, integrate_poly


def printed_basis_table(p, delta, beta):
    """The degree <= 6 Jordan vectors exactly as printed."""
    d, b = F(delta), F(beta)
    i = GaussComplex(0, 1)
    cd = GaussComplex(1, d)

    def P(*coeffs):
        return Poly(list(coeffs))

    h = {
        0: P(i),
        1: P(0, i),
        2: P(GaussComplex(b, -(2 + d * b)), 0, i),
        4: P(
            GaussComplex(-4 * b * (3 + b * d), 12 - 6 * b**2 + 12 * b * d + 2 * b**2 * d**2),
            0,
            GaussComplex(6 * b, -6 * (2 + b * d)),
            0,
            i,
        ),
        6: P(
            GaussComplex(
                180 * b + 120 * d * b**2 - 45 * b**3 + 15 * b**3 * d,
                -180 * b * d + 55 * d * b**3 - 60 * d**2 * b**2
                - 5 * b**3 * d**2 + 180 * b**2 - 120,
            ),
            0,
            GaussComplex(-60 * b * (3 + d * b), -90 * b**2 + 180 + 180 * b * d + 30 * b**2 * d**2),
            0,
            GaussComplex(15 * b, -15 * (2 + b * d)),
            0,
            i,
        ),
    }
    ht = {
        0: P(cd),
        1: P(0, cd),
        2: P(cd * (-2 + 2 * b * d), 0, cd),
        4: P(
            GaussComplex(
                6 * b**2 * (1 + d**2) - 12 * (b * d - 1),
                -6 * b**2 * d * (3 * d**2 + 7) - 12 * d * (b * d + 1),
            ),
            0,
            GaussComplex(12 * (b * d - 1), 0),
            0,
            cd,
        ),
        6: P(
            GaussComplex(
                -20 * b**2 * (1 + d**2) * (11 * b * d + 21)
                + 120 * (b * d - 1) * (-2 * b**2 + b * d + 1),
                270 * b * (1 + d**2) * (2 + b * d)
                + b**2 * (1 + d**2) * (140 * b * d**2 - 180 * b * d + 390 * d)
                + 60 * (b * d - 1) * (2 * b**2 * d - b * d**2 + 9 * b - 4 * d),
            ),
            0,
            GaussComplex(
                90 * b**2 * (1 + d**2) - 180 * (b * d - 1),
                -90 * b * (1 + d**2) * (3 * b * d + 4)
                + 180 * (b * d - 1) * (d - 2 * b),
            ),
            0,
            GaussComplex(30 * (b * d - 1), 0),
            0,
            cd,
        ),
    }
    return h, ht


def printed_basis_corrections(beta, delta):
    """Exact corrections of the three misprinted degree-6 constants.

    The printed y^0 coefficients of h_6 and ht_6 differ from the (unique,
    Jordan-relation-verified) constructed ones by polynomials that vanish
    at delta = 1, where the reference tables were evidently spot-checked:

        c_{6,0}:  + 15 beta^3 delta (delta - 1)
        d_{6,0}:  -  5 beta^3 delta^2 (delta - 1)
        dt_{6,0}: + 180 beta^3 (delta - 1)(delta^2 + 1)
    """
    b, d = F(beta), F(delta)
    return {
        ("h", 6, 0): GaussComplex(
            15 * b**3 * d * (d - 1), -5 * b**3 * d**2 * (d - 1)
        ),
        ("ht", 6, 0): GaussComplex(0, 180 * b**3 * (d - 1) * (d**2 + 1)),
    }


def basis_checks(p, delta) -> list:
    """Printed-table fidelity plus the exact eigen and Jordan relations."""
    pm = derive_params(p, delta)
    basis = build_basis(6, pm.p, pm.delta, pm.beta)
    checks = []
    h_printed, ht_printed = printed_basis_table(pm.p, pm.delta, pm.beta)
    corr = printed_basis_corrections(pm.beta, pm.delta)

    def matches(kind, table, constructed):
        for n, printed in table.items():
            want = printed
            fix = corr.get((kind, n, 0))
            if fix is not None:
                want = want + Poly([fix])
            if constructed[n] != want:
                return False
        return True

    ok = matches("h", h_printed, basis.h)
    checks.append(
        ("basis/h-tables-match-print", ok,
         "h_0..h_6 (degree-6 constant corrected per documented misprint)")
    )
    ok = matches("ht", ht_printed, basis.h_tilde)
    checks.append(
        ("basis/ht-tables-match-print", ok,
         "ht_0..ht_6 (degree-6 constant corrected per documented misprint)")
    )
    cn_ok = all(
        basis.c[n] == n * (n - 1) * pm.beta * (1 + pm.delta**2)
        for n in range(7)
    )
    checks.append(
        ("basis/jordan-coupling", cn_ok, "c_n = n(n-1) beta (1+delta^2)")
    )
    lt2 = apply_L(basis.h_tilde[2], pm.beta, pm.delta)
    checks.append(
        ("basis/L-ht2", lt2 == Poly([GaussComplex(0, 2 * pm.beta * (1 + pm.delta**2))]),
         "L ht_2 = 2 i beta (1+delta^2)"))
    lt4 = apply_L(basis.h_tilde[4], pm.beta, pm.delta)
    want = -1 * basis.h_tilde[4] + (12 * pm.beta * (1 + pm.delta**2)) * basis.h[2]
    checks.append(("basis/L-ht4", lt4 == want, "L ht_4 = -ht_4 + c_4 h_2"))
    from .spectral import hermite_f

    orth = True
    fs = [hermite_f(n, pm.beta) for n in range(11)]
    for n in range(11):
        for m in range(n):
            if not is_zero(integrate_poly(fs[n] * fs[m], pm.beta)):
                orth = False
    checks.append(("basis/orthogonality-f", orth, "f_n f_m weighted, n,m <= 10"))
    return checks


def verification_report(p, delta) -> list:
    """Every named identity at one parameter pair."""
    checks = []
    p, delta = F(p), F(delta)
    pm = derive_params(p, delta)
    checks.append(
        ("b2/cross-formula", b_critical(p, delta) == b_critical_formal(p, delta),
         f"b^2 = {pm.b2}")
    )
    if p == 3:
        checks.append(
            ("b2/matches-cubic-literature", b_critical(p, delta) == b_pskk_sq(delta),
             "p = 3 closed form")
        )
    checks.extend(basis_checks(p, delta))

    ode = ode_coefficients(pm)
    for name in ("coef_1_over_s", "coef_q2_over_sqrt_s", "coef_q2sq", "coef_s32"):
        checks.append(
            (f"ode/{name}-vanishes", is_zero(getattr(ode, name)), "exact")
        )
    checks.append(
        ("ode/b2-root", ode.b2_root == pm.b2, f"root {ode.b2_root}")
    )
    h1 = ode.Htilde1.value.c0.re
    checks.append(
        ("htilde1/matches-closed-form", h1 == ode.Htilde1_closed, f"H1 = {h1}")
    )
    checks.append(
        ("htilde1/quotient-identity",
         h1 + F(3, 2) == htilde1_plus_32_closed_form(p, delta), "exact")
    )
    checks.append(("htilde1/sign", h1 <= F(-3, 2), f"{h1} <= -3/2"))
    checks.append(
        ("htilde1/selfconsistent-value",
         ode.Htilde1_selfconsistent.value.c0.re == F(-3, 2),
         "regenerated tables give exactly -3/2")
    )

    for flavor in ("selfconsistent", "printed"):
        mu = mu_critical(pm, flavor=flavor)
        checks.append(
            (f"mu/{flavor}/a0-nonzero", not mu.a0.is_zero(), str(mu.a0))
        )
        checks.append(
            (f"mu/{flavor}/real", is_zero(mu.mu.imag_part()),
             f"mu = {mu.mu.c0.re}")
        )
        checks.append(
            (f"mu/{flavor}/residual-vanishes", mu.residual.is_zero(), "exact")
        )

    fr = formal_pipeline(p, delta)
    checks.append(("formal/C-cancels-from-P",
                   not any(fr.C_coefficient_of_P), "exact"))
    checks.append(
        ("formal/b2-root", fr.b2_root == pm.b2, f"root {fr.b2_root}")
    )
    checks.append(
        ("formal/mu-pieces-assemble", fr.mu_assembled_matches,
         "component sum matches the corrected bracket")
    )
    rep = transcription_report(pm)
    for name, (match, expected) in sorted(rep.items()):
        if expected:
            checks.append((f"print/{name}", match, "regenerated == printed"))
        else:
            # documented misprints; at degenerate parameters the two
            # forms can coincide (e.g. the (p-1) exponent at p = 2)
            state = "coincides here" if match else "deviates here"
            checks.append(
                (f"print/{name}-documented-deviation", True,
                 f"{state}; {PRINTED_DEVIATIONS.get(name, '')}")
            )
    state = (
        "coincides here" if fr.mu_bracket_matches_printed else "deviates here"
    )
    checks.append(
        ("print/formal-mu-bracket-documented-deviation", True,
         f"{state}; {PRINTED_DEVIATIONS['formal_mu_bracket']}")
    )
    return checks
