"""Stepping kernels: factor-once banded solves and the IMEX right side.

Both sides of the step read the stepper's one spatial operator L_h, held
as bands in the diagonal-ordered layout of ``scipy.linalg.solve_banded``:
entry (i, j) at row nb + i - j.  The implicit matrix I - wgt L_h is
constant, so it is LU-factored once with LAPACK's pivoted banded routines
(``zgttrf`` for the tridiagonal 2nd-order operator, ``zgbtrf`` for the
pentadiagonal 4th-order one).  Every step then solves with those factors,
for one right side or for the k columns of an (n, k) array in one call:
``zgttrs`` for the tridiagonal matrix; for the pentadiagonal one, the row
interchanges of ``zgbtrf`` in order, with banded triangular solves
(``ztbtrs``) between them, which is ``zgbtrs``'s arithmetic bit for bit
without its per-column rank-1 updates.  The explicit side, ``cn_rhs``,
applies L_h itself as a banded product in difference form.

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
    """The module that holds zgttrf/zgttrs/zgbtrf/ztbtrs.

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
    """Solve with the factors of ``tri_factor``; rhs is (n,) or (n, k)."""
    x, info = lapack.zgttrs(*fact, rhs)
    _check("zgttrs", info)
    return x


def penta_factor(bands):
    """LU factors of a pentadiagonal matrix given as (5, n) bands.

    ``zgbtrf`` leaves U in rows 0-4 of its 7-row array (rows 0-1 hold the
    fill-in of pivoting), the multipliers of the unit lower factor in rows
    5-6 and its row interchanges in ``ipiv``.  ``zgbtrs`` solves L by
    running, for j = 0 .. n-2, the interchange of rows j and ipiv[j] and
    then the update of rows j+1, j+2 from row j; between two interchanges
    that is a unit-lower banded solve.  So the factors are kept as
    ``(segments, upper)``.  A segment ``(start, stop, pivot, band)`` swaps
    rows ``start`` and ``pivot`` and solves rows start .. stop-1 with the
    multipliers ``band`` (lower band storage, kd = 2).  A segment that ends
    at the next interchange c solves through row c+1 with the multiplier
    of row c+1 in column c set to zero: rows c and c+1 then hold every
    update ``zgbtrs`` makes to them before its interchange at c, and the
    next segment, starting at c, makes the rest.  ``upper`` is U in upper
    band storage, kd = 2 when the fill-in rows are zero and 4 otherwise.
    Every band is Fortran-ordered, so ``ztbtrs`` reads it without a copy.
    """
    n = bands.shape[1]
    # zgbtrf needs kl = 2 extra rows on top for the fill-in of pivoting
    ab = np.zeros((7, n), dtype=np.complex128)
    ab[2:] = bands
    lu, ipiv, info = lapack.zgbtrf(ab, 2, 2, overwrite_ab=True)
    _check("zgbtrf", info)
    lower = lu[4:]  # the diagonal row is unread under diag="U"
    swapped = np.flatnonzero(ipiv != np.arange(n))
    starts = [0] + [int(c) for c in swapped if c > 0]
    segments = []
    for start, end in zip(starts, starts[1:] + [n]):
        stop = min(n, end + 2)
        band = np.array(lower[:, start:stop], order="F")
        if end < n:
            band[1, end - start] = 0.0
        segments.append((start, stop, int(ipiv[start]), band))
    upper = np.asfortranarray(lu[:5] if lu[:2].any() else lu[2:5])
    return tuple(segments), upper


def penta_solve_factored(fact, rhs):
    """Solve with the factors of ``penta_factor``; rhs is (n,) or (n, k).

    The same steps as ``zgbtrs`` in the same order, so the result equals
    it bit for bit: the lower segments in turn, then U by back-substitution.
    """
    segments, upper = fact
    x = np.array(rhs, dtype=np.complex128, order="F")
    for start, stop, pivot, band in segments:
        if pivot != start:
            x[[start, pivot]] = x[[pivot, start]]
        part = x[start:stop]
        out, info = lapack.ztbtrs(band, part, uplo="L", diag="U",
                                  overwrite_b=1)
        _check("ztbtrs", info)
        if out is not part:  # a row slice of an (n, k) array is copied
            part[...] = out
    x, info = lapack.ztbtrs(upper, x, overwrite_b=1)
    _check("ztbtrs", info)
    return x


def cn_rhs(w, prev, op, half_ds, c_new, c_old, reaction):
    """Explicit side of one Crank-Nicolson / Adams-Bashforth 2 step,
    ``w + half_ds L_h w + c_new react + c_old prev``, and its reaction term.

    ``w`` holds one field per row, shape (..., n); the operator's bands
    broadcast over the rows.  ``op`` is the spatial operator L_h in the band
    layout above.  Its rows sum to zero, so the linear part is applied in
    difference form, ``sum_k op(i, i+k) (w[i+k] - w[i])`` over the
    off-diagonal bands: the diagonal is never read, and a constant field
    gives exactly zero.  ``reaction`` is the stepper's (p, delta) or None.
    Zero terms are skipped: the reaction term (returned as None) without
    ``reaction``, and ``prev`` when it is None.  The boundary rows of L_h
    and of the reaction term are zero, so for a finite ``w`` the boundary
    values of the result are ``w``'s; the stepper overwrites them.
    """
    n, nb = w.shape[-1], len(op) // 2
    rhs = np.zeros(w.shape, dtype=np.complex128)
    term = np.empty(w.shape, dtype=np.complex128)
    diff = np.empty(w.shape, dtype=np.complex128)
    for k in range(1, nb + 1):
        # d[j] = w[j+k] - w[j] serves row j (entry (j, j+k) at row nb - k)
        # and, negated, row j+k (entry (j+k, j) at row nb + k)
        d = np.subtract(w[..., k:], w[..., :-k], out=diff[..., :n - k])
        rhs[..., :-k] += np.multiply(op[nb - k, k:], d,
                                     out=term[..., :n - k])
        rhs[..., k:] -= np.multiply(op[nb + k, :-k], d,
                                    out=term[..., :n - k])
    rhs *= half_ds
    rhs += w
    react = None
    if reaction is not None:
        p, delta = reaction
        react = np.zeros(w.shape, dtype=np.complex128)
        cd = 1.0 + 1j * delta
        mod2 = w.real**2
        mod2 += w.imag**2
        pm1h = (p - 1.0) / 2.0
        pw = mod2 if pm1h == 1.0 else mod2**pm1h
        pw -= 1.0 / (p - 1.0)
        inner = react[..., 1:-1]
        np.multiply(cd, pw[..., 1:-1], out=inner)
        inner *= w[..., 1:-1]
        rhs += np.multiply(c_new, react, out=term)
    if prev is not None:
        rhs += np.multiply(c_old, prev, out=term)
    return rhs, react
