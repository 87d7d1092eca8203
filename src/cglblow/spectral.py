"""Spectral machinery for the drift-diffusion operator with complex diffusivity.

The operator L_beta q = (1+i beta) q'' - y q'/2 is formally self-adjoint
against the complex Gaussian weight

    rho_beta(y) = exp(-y^2 / (4(1+i beta))) / (4 pi (1+i beta))^(1/2).

Its polynomial eigenfunctions f_n (monic, L_beta f_n = -n/2 f_n) follow the
classical monic-Hermite recurrence with complex variance 2(1+i beta).  The
perturbed operator L_{beta,delta} q = L_beta q + (1+i delta) Re q is only
R-linear; it admits a Jordan-type polynomial basis

    L h_n = -(n/2) h_n,            h_n  = i y^n + lower order,
    L ht_n = (1-n/2) ht_n + c_n h_{n-2},   ht_n = (1+i delta) y^n + lower,

with real c_n.  Both families come exactly out of one top-down triangular
solve, ``_jordan_vector``; ``c_n`` comes out of the solve rather than being
assumed.

Everything exact lives on GaussComplex coefficients; the numeric entry
points (sampled projections, the semigroup kernel) use numpy.  A
polynomial is put on a float grid one way only: its monomial coefficients
times ``powers_table``, the rows y^0 .. y^M of the grid, which the grid's
projector holds beside its rows.

Both numeric quadratures are the trapezoid rule on the sampling grid,
written as banded matrix products that drop only what rounding would lose
anyway.  The grid projector keeps the columns where the Gaussian weight is
above 2**-52 / N of its row's largest entry.  The semigroup quadrature
``semigroup_apply`` takes the evaluation points in blocks; for each block
it evaluates the heat kernel only on the contiguous band of columns where
some row's term |K w v| is above 2**-52 / N of that row's largest term, a
test made in real arithmetic on the logarithm of the term.  Either way
the dropped terms of a row add up to at most 2**-52 of its largest term,
below the rounding of the dot product itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Optional

import numpy as np

from .exact import (
    GaussComplex,
    Poly,
    imag_part,
    is_zero,
    real_part,
    to_complex,
)


class GridTooNarrow(ValueError):
    """Sampling grid does not cover the weight's support to tolerance."""


# largest |rho| allowed at either end of a sampling grid
TAIL_TOL = 1e-14


def rho_weight(y: np.ndarray, beta: float) -> np.ndarray:
    """rho_beta on a float grid."""
    c = 1.0 + 1j * beta
    return np.exp(-np.asarray(y) ** 2 / (4.0 * c)) / np.sqrt(4.0 * np.pi * c)


def _check_grid_edge(y: np.ndarray, beta: float):
    """Raise GridTooNarrow unless |rho| <= TAIL_TOL at both ends of y."""
    tail = np.abs(rho_weight(np.array([y[0], y[-1]]), beta)).max()
    if not tail <= TAIL_TOL:  # a NaN edge fails too
        raise GridTooNarrow(
            f"|rho| = {tail:.2e} at the grid edge exceeds {TAIL_TOL:.0e}"
        )


def hermite_f(n: int, beta: Fraction) -> Poly:
    """Monic eigenfunction f_n of L_beta, exactly.

    Recurrence for monic orthogonal polynomials of a Gaussian with variance
    2(1+i beta):  f_{n+1} = y f_n - 2(1+i beta) n f_{n-1}.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    var2 = GaussComplex(2, 2 * Fraction(beta))
    fs = [Poly([GaussComplex(1)]), Poly([GaussComplex(0), GaussComplex(1)])]
    y = Poly.monomial(1, GaussComplex(1))
    for k in range(1, n):
        fs.append(y * fs[k] - (k * var2) * fs[k - 1])
    return fs[n]


def gaussian_moment(k: int, beta: Fraction) -> GaussComplex:
    """Exact moment integral of y^k against rho_beta (normalized weight)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k % 2 == 1:
        return GaussComplex(0)
    var2 = GaussComplex(2, 2 * Fraction(beta))
    m = GaussComplex(1)
    # (k-1)!! * var2^(k/2)
    for j in range(1, k, 2):
        m = m * j
    return m * var2 ** (k // 2)


def integrate_poly(p: Poly, beta: Fraction):
    """Exact integral of a polynomial against rho_beta."""
    acc = 0
    for k, c in enumerate(p.coeffs):
        if is_zero(c):
            continue
        acc = acc + c * gaussian_moment(k, beta)
    return acc


def f_norm(n: int, beta: Fraction) -> GaussComplex:
    """Exact value of the self-inner-product of f_n against rho_beta."""
    var2 = GaussComplex(2, 2 * Fraction(beta))
    fact = 1
    for j in range(2, n + 1):
        fact *= j
    return fact * var2**n


def apply_L(p: Poly, beta: Fraction, delta: Optional[Fraction] = None) -> Poly:
    """Exact image under L_beta, or under L_{beta,delta} when delta given."""
    one_ib = GaussComplex(1, Fraction(beta))
    y = Poly.monomial(1, GaussComplex(1))
    out = one_ib * p.deriv().deriv() - Fraction(1, 2) * (y * p.deriv())
    if delta is not None:
        out = out + GaussComplex(1, Fraction(delta)) * p.real_part()
    return out


def _htilde_free_im(n: int, beta: Fraction, delta: Fraction) -> Fraction:
    # The Jordan partner ht_n is unique only up to a real multiple of
    # h_{n-2}.  This pins the conventional representative: ht_2 is the
    # (1+i delta)-multiple of a real polynomial, higher ones have a real
    # y^(n-2) coefficient.
    if n == 2:
        return 2 * delta * (beta * delta - 1)
    return Fraction(0)


def _jordan_vector(n: int, beta: Fraction, delta: Fraction,
                   h_lower: Optional[Poly] = None):
    """h_n, or ht_n and c_n given h_lower = h_{n-2}, matched from the top down.

    At degree k the unknown coefficient x + i y solves (1 + m) x = u and
    delta x + m y = v.  Here u + i v is -(1+i beta)(k+2)(k+1) times the
    degree-(k+2) coefficient, plus c_n times that of h_{n-2} for ht_n, and
    m = (n-k)/2 - shift, with shift 0 for h_n and 1 for ht_n.  Only ht_n
    reaches m = 0, at k = n-2, where the leading coefficient of h_{n-2} is
    i: x = u is forced, the imaginary balance gives c_n = delta x - v, and
    the free imaginary part is the convention of ``_htilde_free_im``.
    """
    one_ib = GaussComplex(1, beta)
    coeffs: list = [GaussComplex(0)] * (n + 1)
    if h_lower is None:
        coeffs[n], shift = GaussComplex(0, 1), 0
    else:
        coeffs[n], shift = GaussComplex(1, delta), 1
    cn = Fraction(0)
    for k in range(n - 2, -1, -2):
        rhs = -(one_ib * ((k + 2) * (k + 1))) * coeffs[k + 2]
        m = Fraction(n - k, 2) - shift
        if m == 0:
            x = rhs.re
            cn = delta * x - rhs.im
            coeffs[k] = GaussComplex(x, _htilde_free_im(n, beta, delta))
            continue
        if h_lower is not None:
            rhs = rhs + cn * h_lower.coeff(k)
        x = rhs.re / (m + 1)
        coeffs[k] = GaussComplex(x, (rhs.im - delta * x) / m)
    if h_lower is None:
        return Poly(coeffs)
    return Poly(coeffs), cn


@dataclass
class ModeCoeffs:
    """Decomposition of a field over the Jordan basis.

    q/q_tilde are the real coordinates along h_n/ht_n, Q the complex
    coordinates along the f_n, remainder whatever is left (exact Poly for
    polynomial input, sampled residual for grid input).
    """

    q: list
    q_tilde: list
    Q: list
    remainder: object = None


class BasisTable:
    """Exact Jordan basis up to degree M; ``BasisFloats(table)`` holds its
    float views for the solver."""

    def __init__(self, M: int, p: Fraction, delta: Fraction, beta: Fraction):
        if M < 2 or M % 2 != 0:
            raise ValueError("M must be an even integer >= 2")
        self.M = M
        self.p = Fraction(p)
        self.delta = Fraction(delta)
        self.beta = Fraction(beta)
        self.f = [hermite_f(n, beta) for n in range(M + 1)]
        self.fnorm = [f_norm(n, beta) for n in range(M + 1)]
        self.h: list[Poly] = []
        self.h_tilde: list[Poly] = []
        self.c: list[Fraction] = []
        for n in range(M + 1):
            self.h.append(_jordan_vector(n, beta, self.delta))
            h_lower = self.h[n - 2] if n >= 2 else Poly.zero()
            ht, cn = _jordan_vector(n, beta, self.delta, h_lower)
            self.h_tilde.append(ht)
            self.c.append(cn)
        self._verify()
        # f-basis expansions of h/ht, used by the triangular conversion.
        self.h_in_f = [self._f_expand_gc(hn) for hn in self.h]
        self.ht_in_f = [self._f_expand_gc(hn) for hn in self.h_tilde]

    # -- exact checks ------------------------------------------------------

    def _verify(self):
        for n in range(self.M + 1):
            img = apply_L(self.h[n], self.beta, self.delta)
            if not (img + Fraction(n, 2) * self.h[n]).is_zero():
                raise ArithmeticError(f"h_{n} eigen-relation failed")
            img = apply_L(self.h_tilde[n], self.beta, self.delta)
            want = (1 - Fraction(n, 2)) * self.h_tilde[n]
            if n >= 2:
                want = want + self.c[n] * self.h[n - 2]
            if not (img - want).is_zero():
                raise ArithmeticError(f"ht_{n} Jordan relation failed")

    # -- exact projections ---------------------------------------------------

    def _f_expand_gc(self, p: Poly) -> list:
        """Coefficients of p over the monic f-basis (exact, any scalar kind)."""
        out = [0] * (p.degree + 1 if not p.is_zero() else 0)
        rem = p
        while not rem.is_zero():
            n = rem.degree
            c = rem.coeff(n)
            out[n] = c
            fn = self.f[n] if n <= self.M else hermite_f(n, self.beta)
            rem = rem - c * fn
            if not rem.is_zero() and rem.degree >= n:
                raise ArithmeticError("f-expansion failed to reduce degree")
        return out

    def decompose(self, p: Poly) -> ModeCoeffs:
        """Exact P = sum(q_n h_n + qt_n ht_n) + remainder over the table.

        The remainder is the exact part of the f-expansion beyond degree M
        (zero whenever deg P <= M).
        """
        Q = self._f_expand_gc(p)
        rem = Poly.zero()
        for n in range(self.M + 1, len(Q)):
            if not is_zero(Q[n]):
                rem = rem + Q[n] * hermite_f(n, self.beta)
        Q = list(Q) + [0] * max(0, self.M + 1 - len(Q))
        q, qt = self.coordinates(Q[: self.M + 1])
        return ModeCoeffs(q=q, q_tilde=qt, Q=list(Q[: self.M + 1]), remainder=rem)

    def coordinates(self, Q: list):
        """Exact triangular (Q_n) -> (q_n, qt_n) back-substitution."""
        adj = list(Q)
        q = [0] * (self.M + 1)
        qt = [0] * (self.M + 1)
        for n in range(self.M, -1, -1):
            a = adj[n]
            qt_n = real_part(a)
            q_n = imag_part(a) - self.delta * qt_n
            q[n] = q_n
            qt[n] = qt_n
            for j in range(n):
                adj[j] = (adj[j] - q_n * self.h_in_f[n][j]
                          - qt_n * self.ht_in_f[n][j])
        return q, qt

    def reconstruct(self, modes: ModeCoeffs) -> Poly:
        acc = Poly.zero()
        for n in range(self.M + 1):
            acc = acc + modes.q[n] * self.h[n] + modes.q_tilde[n] * self.h_tilde[n]
        if isinstance(modes.remainder, Poly):
            acc = acc + modes.remainder
        return acc


@cache
def build_basis(M: int, p, delta, beta) -> BasisTable:
    """The Jordan basis table for the given parameters, built once per process.

    The key is the exact inputs, so int and Fraction arguments of the same
    value share one table; callers must not modify it.
    """
    return BasisTable(M, Fraction(p), Fraction(delta), Fraction(beta))


def trapezoid_weights(y: np.ndarray) -> np.ndarray:
    """Weights w with sum(w * f) the trapezoid rule of f on the grid y."""
    d = np.diff(y)
    w = np.zeros(len(y))
    w[:-1] += d
    w[1:] += d
    return 0.5 * w


def powers_table(y: np.ndarray, M: int) -> np.ndarray:
    """(M+1) x len(y) rows y^0 .. y^M: a polynomial's values on y are its
    monomial coefficients times this table."""
    y = np.asarray(y, dtype=float)
    rows = np.empty((M + 1, len(y)))
    rows[0] = 1.0
    for k in range(1, M + 1):
        np.multiply(rows[k - 1], y, out=rows[k])
    return rows


@dataclass(frozen=True)
class GridProjector:
    """The columns ``band`` of a grid projector; ``proj @ q`` is Q.

    ``rows`` is (M+1) x (band length) and acts on ``q[band]``, so q is a
    field on the whole grid.  ``powers`` is ``powers_table(y, M)`` of the
    whole grid y, from which the rows were formed; every polynomial on
    that grid (``BasisFloats.reconstruct``) is evaluated on it.
    """

    rows: np.ndarray
    band: slice
    powers: np.ndarray

    def __matmul__(self, q: np.ndarray) -> np.ndarray:
        return self.rows @ q[self.band]


def _coeff_table(polys: list, M: int) -> np.ndarray:
    """Row n: the monomial coefficients c_0 .. c_M of polys[n], complex."""
    out = np.zeros((len(polys), M + 1), dtype=complex)
    for row, poly in zip(out, polys):
        c = poly.to_complex_coeffs()
        row[:len(c)] = c
    return out


class BasisFloats:
    """Float-precision basis data for grid projections.

    ``f_table`` holds the monomial coefficients of f_0 .. f_M, one row
    each; ``monomials`` those of h_0 .. h_M, ht_0 .. ht_M.  On a grid both
    are evaluated as a product with the grid's ``powers_table``.

    The triangular change of coordinates (Q_n) -> (q_n, qt_n) is R-linear;
    it is stored as one real matrix acting on (Re Q, Im Q), whose columns
    are the exact coordinates of the unit vectors and of i times them,
    each rounded once.
    """

    def __init__(self, table: BasisTable):
        self.M = table.M
        self.beta = float(table.beta)
        self.f_table = _coeff_table(table.f, self.M)
        self.fnorm = np.array([complex(v) for v in table.fnorm])
        n = range(self.M + 1)
        cols = [
            table.coordinates([unit if j == k else 0 for j in n])
            for unit in (GaussComplex(1), GaussComplex(0, 1))
            for k in n
        ]
        self.convert = np.array([
            [to_complex(v).real for v in q + qt] for q, qt in cols
        ]).T
        # row j holds the monomial coefficients of h_0 .. h_M, ht_0 .. ht_M
        # as (Re c_0 .. Re c_M, Im c_0 .. Im c_M), so real coordinates
        # (q, qt) fold into those of their sum by one real product
        modes = _coeff_table(table.h + table.h_tilde, self.M)
        self.monomials = np.concatenate([modes.real, modes.imag], axis=1)

    def projector(self, y: np.ndarray) -> GridProjector:
        """Trapezoid-rule projector on the grid y: ``projector(y) @ q`` is Q.

        The full matrix has the rows w rho f_n / <f_n, f_n>, with w the
        trapezoid weights: ``f_table`` times ``powers_table(y, M)``, which
        the projector keeps as its ``powers``, scaled by the weights and
        the norms.  Only the weight's support is kept: the contiguous band
        of its columns in which some entry exceeds 2**-52 / N times its
        row's largest entry (N = len(y)).  No dropped entry exceeds that
        share, so for any q the dropped terms of row n add up to at most
        2**-52 max_j |P_nj| max|q|, one rounding of the largest term the
        row can have.  Raises GridTooNarrow when y does not cover the
        weight's support.
        """
        _check_grid_edge(y, self.beta)
        powers = powers_table(y, self.M)
        rows = self.f_table @ powers
        rows *= trapezoid_weights(y) * rho_weight(y, self.beta)
        rows /= self.fnorm[:, None]
        mag = np.abs(rows)
        cut = (2.0**-52 / len(y)) * mag.max(axis=1, keepdims=True)
        band = _band(mag > cut)
        return GridProjector(rows[:, band].copy(), band, powers)

    def convert_Q(self, Q: np.ndarray):
        """Triangular (Q_n) -> (q_n, qt_n) change of coordinates."""
        Q = np.asarray(Q)
        x = self.convert @ np.concatenate([Q.real, Q.imag])
        return x[: self.M + 1], x[self.M + 1:]

    def reconstruct(self, q: np.ndarray, qt: np.ndarray, powers: np.ndarray,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
        """sum_n q_n h_n + qt_n ht_n on the grid of ``powers``.

        ``powers`` is ``powers_table(y, M)``.  The real coordinates fold
        into the M+1 complex monomial coefficients of the sum, which one
        real (len(y), M+1) x (M+1, 2) product evaluates into the real and
        imaginary parts of ``out`` (a new complex array if None).
        """
        c = (np.concatenate([q, qt]) @ self.monomials).reshape(2, self.M + 1)
        if out is None:
            out = np.empty(powers.shape[1], dtype=complex)
        np.matmul(powers.T, c.T, out=out.view(float).reshape(-1, 2))
        return out


def project_sampled(
    samples: np.ndarray, y: np.ndarray, bf: BasisFloats
) -> ModeCoeffs:
    """Numeric projection of grid samples onto the Jordan basis.

    The trapezoid rule on the grid y (``bf.projector(y)``), spectrally
    accurate for the exponentially decaying integrand; the remainder is the
    samples less ``bf.reconstruct`` on the projector's ``powers``, the
    simulator's reconstruction.  Raises GridTooNarrow when |rho| at an end
    of y exceeds ``TAIL_TOL``.
    """
    y = np.asarray(y, dtype=float)
    q_arr = np.asarray(samples, dtype=complex)
    proj = bf.projector(y)
    Q = proj @ q_arr
    q, qt = bf.convert_Q(Q)
    recon = bf.reconstruct(q, qt, proj.powers)
    return ModeCoeffs(
        q=list(q), q_tilde=list(qt), Q=list(Q), remainder=q_arr - recon
    )


def semigroup_kernel(s: float, y, x, beta: float):
    """Heat kernel of L_beta: value of e^{s L}(y, x), s > 0."""
    if s <= 0:
        raise ValueError("s must be > 0")
    cd = (1.0 + 1j * beta) * (1.0 - np.exp(-s))
    z = np.asarray(x) - np.asarray(y) * np.exp(-s / 2.0)
    z *= z
    out = np.exp(z * (-0.25 / cd))
    out *= 1.0 / np.sqrt(4.0 * np.pi * cd)
    return out


def _band(keep: np.ndarray) -> slice:
    """The contiguous band of columns of ``keep`` in which some row is True.

    ``slice(0, 0)`` when no entry is.
    """
    cols = np.flatnonzero(keep.any(axis=0))
    if not len(cols):
        return slice(0, 0)
    return slice(int(cols[0]), int(cols[-1]) + 1)


# log of the drop share 2**-52: with N columns, a row's dropped terms add
# up to at most 2**-52 of its largest term
LOG_DROP = 52 * np.log(2.0)


def kernel_bands(s: float, y: np.ndarray, x: np.ndarray, wv: np.ndarray,
                 beta: float):
    """Yield ``(rows, cols)``: blocks of y and the columns each block keeps.

    The term |e^{sL}(y_i, x_j) wv_j| is |C| exp(-a (x_j - y_i e^{-s/2})^2)
    |wv_j| with a = Re 1/(4(1+i beta)(1-e^{-s})), so its logarithm is found
    in real arithmetic.  ``cols`` is the contiguous band of columns in which
    some row of the block has a term above 2**-52 / N of that row's largest
    term (N = len(x)); every dropped term is at most that share, so a row's
    dropped terms add up to at most 2**-52 of its largest term.  Blocks hold
    about 2**14 / N rows, which bounds the temporaries at 2**14 entries; a
    block whose terms are all zero keeps no column.
    """
    n = len(x)
    a = 1.0 / (4.0 * (1.0 - np.exp(-s)) * (1.0 + beta * beta))
    with np.errstate(divide="ignore"):
        log_wv = np.log(np.abs(wv))
    cut = LOG_DROP + np.log(n)
    ye = np.asarray(y) * np.exp(-s / 2.0)
    step = max(1, 2**14 // n)
    for i in range(0, len(ye), step):
        t = np.subtract.outer(ye[i:i + step], x)
        t *= t
        t *= -a
        t += log_wv
        cols = _band(t > t.max(axis=1, keepdims=True) - cut)
        del t  # the caller builds the block's kernel next
        yield slice(i, i + step), cols


def semigroup_apply(
    s: float, y: np.ndarray, x: np.ndarray, values: np.ndarray, beta: float
) -> np.ndarray:
    """Quadrature of the kernel against sampled data: (e^{s L} v)(y).

    The trapezoid rule on x, as the banded product ``K @ wv`` with
    ``wv = trapezoid_weights(x) * values``: each block of rows of y
    evaluates the kernel only on the band of columns that ``kernel_bands``
    keeps.  Raises ValueError, before any work, unless s > 0, x holds at
    least two strictly increasing points, values matches x and every input
    is finite.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    values = np.asarray(values)
    if not (np.isfinite(s) and s > 0):
        raise ValueError("s must be finite and > 0")
    if not np.isfinite(beta):
        raise ValueError("beta must be finite")
    if x.ndim != 1 or len(x) < 2:
        raise ValueError("x must hold at least 2 points")
    if not (np.all(np.isfinite(x)) and np.all(np.diff(x) > 0)):
        raise ValueError("x must be finite and strictly increasing")
    if values.shape != x.shape:
        raise ValueError("values must hold one entry per point of x")
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    if y.ndim != 1 or not np.all(np.isfinite(y)):
        raise ValueError("y must be a finite 1-d array")
    wv = trapezoid_weights(x) * values
    out = np.empty(len(y), dtype=complex)
    for rows, cols in kernel_bands(s, y, x, wv, beta):
        # einsum, not ``@``: it starts no BLAS threads, which made these
        # small products 8-16x slower when another process held a core
        out[rows] = np.einsum("ij,j->i", semigroup_kernel(
            s, y[rows, None], x[cols], beta), wv[cols])
    return out
