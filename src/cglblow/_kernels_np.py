"""Stepping kernels: factor-once banded solves and the IMEX right side.

The implicit matrix is constant, so it is LU-factored once with LAPACK's
pivoted banded routines (``zgttrf`` for the tridiagonal 2nd-order operator,
``zgbtrf`` for the pentadiagonal 4th-order one) and every step only runs
the matching back-substitution.  Bands are given in the diagonal-ordered
layout of ``scipy.linalg.solve_banded``: entry (i, j) at row nb + i - j.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack


def _check(routine: str, info: int):
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{routine}: zero pivot at row {info}; the implicit matrix is singular"
        )
    if info < 0:
        raise ValueError(f"{routine}: argument {-info} is invalid")


def tri_factor(bands):
    """LU factors of a tridiagonal matrix given as (3, n) bands."""
    *fact, info = lapack.zgttrf(bands[2, :-1], bands[1], bands[0, 1:])
    _check("zgttrf", info)
    return tuple(fact)


def tri_solve_factored(fact, rhs):
    x, info = lapack.zgttrs(*fact, rhs)
    _check("zgttrs", info)
    return x


def penta_factor(bands):
    """LU factors of a pentadiagonal matrix given as (5, n) bands."""
    # zgbtrf needs kl = 2 extra rows on top for the fill-in of pivoting
    ab = np.zeros((7, bands.shape[1]), dtype=np.complex128)
    ab[2:] = bands
    lu, ipiv, info = lapack.zgbtrf(ab, 2, 2, overwrite_ab=True)
    _check("zgbtrf", info)
    return lu, ipiv


def penta_solve_factored(fact, rhs):
    lu, ipiv = fact
    x, info = lapack.zgbtrs(lu, 2, 2, rhs, ipiv)
    _check("zgbtrs", info)
    return x


def cn_rhs(w, prev, y, h, p, delta, beta, half_ds, c_new, c_old, order,
           reaction):
    n = len(w)
    cb = 1.0 + 1j * beta
    lin = np.zeros(n, dtype=np.complex128)
    h2 = h * h
    if order == 4 and n >= 5:
        lin[2:-2] = cb * (
            -w[:-4] + 16 * w[1:-3] - 30 * w[2:-2] + 16 * w[3:-1] - w[4:]
        ) / (12 * h2) - 0.5 * y[2:-2] * (
            w[:-4] - 8 * w[1:-3] + 8 * w[3:-1] - w[4:]
        ) / (12 * h)
        for i in (1, n - 2):
            lin[i] = cb * (w[i - 1] - 2 * w[i] + w[i + 1]) / h2 - 0.5 * y[i] * (
                w[i + 1] - w[i - 1]
            ) / (2 * h)
    else:
        lin[1:-1] = cb * (w[:-2] - 2 * w[1:-1] + w[2:]) / h2 - 0.5 * y[1:-1] * (
            w[2:] - w[:-2]
        ) / (2 * h)
    react = np.zeros(n, dtype=np.complex128)
    if reaction:
        cd = 1.0 + 1j * delta
        mod2 = w.real**2 + w.imag**2
        pm1h = (p - 1.0) / 2.0
        pw = mod2 if pm1h == 1.0 else mod2**pm1h
        inner = cd * (pw - 1.0 / (p - 1.0)) * w
        react[1:-1] = inner[1:-1]
    rhs = w + half_ds * lin + c_new * react + c_old * prev
    rhs[0] = w[0]
    rhs[-1] = w[-1]
    return rhs, react
