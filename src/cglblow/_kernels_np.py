"""Stepping kernels: factor-once banded solves and the IMEX right side.

The implicit matrix is constant, so it is LU-factored once with LAPACK's
pivoted banded routines (``zgttrf`` for the tridiagonal 2nd-order operator,
``zgbtrf`` for the pentadiagonal 4th-order one) and every step only runs
the matching back-substitution.  Bands are given in the diagonal-ordered
layout of ``scipy.linalg.solve_banded``: entry (i, j) at row nb + i - j.

The four routines come from scipy's f2py LAPACK extension,
``scipy/linalg/_flapack``, which is loaded straight from its file.
``from scipy.linalg import lapack`` would give the same routine objects,
but it first runs scipy.linalg's package init, which clones the numpy
namespace and with it imports numpy.f2py, numpy.testing and numpy.ma:
about 0.3 s and 28 MB in every fresh process, against about 10 ms and
2.5 MB for the extension alone.  If the file is not where the installed
scipy keeps it, or does not load on its own (a build that sets its
library paths in ``scipy/__init__``), the package import is the fallback.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os

import numpy as np


def _flapack_path():
    """File of the installed scipy's ``linalg._flapack`` extension, or None.

    ``find_spec`` of a top-level package locates it without importing it.
    """
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    for root in spec.submodule_search_locations:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                return path
    return None


def _load_lapack(locate=_flapack_path):
    """The module that holds zgttrf/zgttrs/zgbtrf/zgbtrs.

    ``locate`` finds the extension file; when it finds none, or the file
    does not load, ``scipy.linalg.lapack`` is used.  The extension loads
    under its own name, so a later ``import scipy.linalg`` reuses it.
    """
    path = locate()
    if path is not None:
        name = "scipy.linalg._flapack"
        loader = importlib.machinery.ExtensionFileLoader(name, path)
        spec = importlib.util.spec_from_file_location(name, path,
                                                      loader=loader)
        try:
            module = importlib.util.module_from_spec(spec)
            loader.exec_module(module)
            return module
        except (ImportError, OSError):
            pass
    from scipy.linalg import lapack

    return lapack


lapack = _load_lapack()


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


def _scale(z, r):
    """z *= r in place for a complex array z and a real r = 1 / c.

    numpy divides a complex number by the real c (as c + 0i, Smith's rule)
    as (re * (1 / c), im * (1 / c)), so scaling the float64 view by 1 / c
    gives the bits of ``z / c`` without the slow complex division loop.
    """
    v = z.view(np.float64)
    v *= r


def cn_rhs(w, prev, y, h, p, delta, beta, half_ds, c_new, c_old, order,
           reaction):
    """Explicit side of one IMEX step and the reaction term it used.

    The stencils are written in place (``out=``) with the roundings of the
    expression form, e.g. ``cb * (w[:-2] - 2 * w[1:-1] + w[2:]) / h2 -
    0.5 * y[1:-1] * (w[2:] - w[:-2]) / (2 * h)`` at 2nd order, in the same
    order, so the result is bit-identical to it.
    """
    n = len(w)
    cb = 1.0 + 1j * beta
    lin = np.empty(n, dtype=np.complex128)
    lin[0] = lin[-1] = 0.0
    h2 = h * h
    if order == 4 and n >= 5:
        w0, w1, w2, w3, w4 = w[:-4], w[1:-3], w[2:-2], w[3:-1], w[4:]
        diff = lin[2:-2]
        tmp = np.empty(n - 4, dtype=np.complex128)
        np.negative(w0, out=diff)
        diff += np.multiply(16, w1, out=tmp)
        diff -= np.multiply(30, w2, out=tmp)
        diff += np.multiply(16, w3, out=tmp)
        diff -= w4
        np.multiply(cb, diff, out=diff)
        _scale(diff, 1.0 / (12 * h2))
        np.multiply(8, w1, out=tmp)
        np.subtract(w0, tmp, out=tmp)
        tmp += np.multiply(8, w3)
        tmp -= w4
        np.multiply(0.5 * y[2:-2], tmp, out=tmp)
        _scale(tmp, 1.0 / (12 * h))
        diff -= tmp
        for i in (1, n - 2):
            lin[i] = cb * (w[i - 1] - 2 * w[i] + w[i + 1]) / h2 - 0.5 * y[i] * (
                w[i + 1] - w[i - 1]
            ) / (2 * h)
    else:
        wl, wc, wr = w[:-2], w[1:-1], w[2:]
        diff = lin[1:-1]
        tmp = np.empty(n - 2, dtype=np.complex128)
        np.multiply(2, wc, out=diff)
        np.subtract(wl, diff, out=diff)
        diff += wr
        np.multiply(cb, diff, out=diff)
        _scale(diff, 1.0 / h2)
        np.subtract(wr, wl, out=tmp)
        np.multiply(0.5 * y[1:-1], tmp, out=tmp)
        _scale(tmp, 1.0 / (2 * h))
        diff -= tmp
    react = np.zeros(n, dtype=np.complex128)
    if reaction:
        cd = 1.0 + 1j * delta
        mod2 = w.real**2
        mod2 += w.imag**2
        pm1h = (p - 1.0) / 2.0
        pw = mod2 if pm1h == 1.0 else mod2**pm1h
        pw -= 1.0 / (p - 1.0)
        inner = react[1:-1]
        np.multiply(cd, pw[1:-1], out=inner)
        inner *= w[1:-1]
    rhs = lin
    rhs *= half_ds
    rhs += w
    term = np.empty(n, dtype=np.complex128)
    rhs += np.multiply(c_new, react, out=term)
    rhs += np.multiply(c_old, prev, out=term)
    rhs[0] = w[0]
    rhs[-1] = w[-1]
    return rhs, react
