"""Bivariate truncated series in (t, y) with exact coefficients.

Used to regenerate the slow-time expansions of the potential and rest
terms: t plays the role of the inverse square root of the self-similar
time, y is the space variable, and everything beyond a fixed t-order is
discarded (t-order 2 for the potential, 4 for the rest term).
Coefficients live in the exact tower of :mod:`cglblow.exact`, and
``t_coefficient`` reads one t-order back as a :class:`Poly` in y.
"""

from __future__ import annotations

from .exact import Poly, binomial_coefficient, is_zero


class TSeries:
    """Sum of c[(jt, jy)] * t**jt * y**jy, truncated at t-order ``tmax``."""

    __slots__ = ("terms", "tmax")

    def __init__(self, terms: dict, tmax: int):
        self.terms = {
            k: v for k, v in terms.items() if k[0] <= tmax and not is_zero(v)
        }
        self.tmax = tmax

    @classmethod
    def const(cls, value, tmax: int) -> "TSeries":
        return cls({(0, 0): value}, tmax)

    @classmethod
    def term(cls, value, jt: int, jy: int, tmax: int) -> "TSeries":
        return cls({(jt, jy): value}, tmax)

    def is_zero(self) -> bool:
        return not self.terms

    def min_t_order(self) -> int:
        if not self.terms:
            return self.tmax + 1
        return min(k[0] for k in self.terms)

    def __add__(self, other):
        if not isinstance(other, TSeries):
            other = TSeries.const(other, self.tmax)
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out[k] + v if k in out else v
        return TSeries(out, self.tmax)

    __radd__ = __add__

    def __neg__(self):
        return TSeries({k: -v for k, v in self.terms.items()}, self.tmax)

    def __sub__(self, other):
        if not isinstance(other, TSeries):
            other = TSeries.const(other, self.tmax)
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if not isinstance(other, TSeries):
            return TSeries(
                {k: v * other for k, v in self.terms.items()}, self.tmax
            )
        out: dict = {}
        for (at, ay), av in self.terms.items():
            for (bt, by), bv in other.terms.items():
                jt = at + bt
                if jt > self.tmax:
                    continue
                key = (jt, ay + by)
                prod = av * bv
                out[key] = out[key] + prod if key in out else prod
        return TSeries(out, self.tmax)

    def __rmul__(self, other):
        return TSeries({k: other * v for k, v in self.terms.items()}, self.tmax)

    def binom_pow(self, gamma) -> "TSeries":
        """(1 + self)**gamma for a series with no t-order-0 part."""
        if self.min_t_order() < 1:
            raise ValueError("binom_pow needs every term to carry t >= 1")
        acc = TSeries.const(1, self.tmax)
        upow = TSeries.const(1, self.tmax)
        for k in range(1, self.tmax + 1):
            upow = upow * self
            if upow.is_zero():
                break
            acc = acc + binomial_coefficient(gamma, k) * upow
        return acc

    def conj(self) -> "TSeries":
        from .exact import conj

        return TSeries({k: conj(v) for k, v in self.terms.items()}, self.tmax)

    def t_coefficient(self, jt: int) -> Poly:
        """The y-polynomial multiplying t**jt."""
        if jt > self.tmax:
            raise ValueError("beyond truncation order")
        deg = max((jy for (kt, jy) in self.terms if kt == jt), default=-1)
        coeffs = [0] * (deg + 1)
        for (kt, jy), v in self.terms.items():
            if kt == jt:
                coeffs[jy] = coeffs[jy] + v
        return Poly(coeffs)

    def __repr__(self):
        keys = sorted(self.terms)
        return f"TSeries({len(keys)} terms, tmax={self.tmax})"
