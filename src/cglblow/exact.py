"""Exact scalar tower and univariate polynomial algebra.

The tower has four levels, each closed under field operations where that
makes sense:

    Fraction                     rationals (stdlib)
    GaussComplex                 (a + b*i)/d with plain ints a, b, d
    ExtScalar                    c0 + c1*B where B**2 is a fixed rational
    KappaGraded                  value * kappa**grade, kappa kept symbolic

A GaussComplex is kept in one integer normal form, d > 0 and
gcd(a, b, d) == 1, so each operation is integer arithmetic plus one gcd
reduction, and equality compares three ints.  Its parts read back as
Fractions (``re``, ``im``).  Equal values hash alike across the levels: a
real GaussComplex like its Fraction, an ExtScalar without B-part like its
c0, a KappaGraded of grade 0 (or of value zero) like its value.

``B`` stands for the profile coefficient whose square is rational but which
is itself irrational; a degree-2 extension is enough for every identity we
verify.  ``kappa`` is never evaluated: products add grades, and sums demand
equal grades, so any inhomogeneous formula raises instead of silently mixing
scales.  Addition with an exact zero is grade-agnostic.

``Poly`` is a polynomial in the real variable y with coefficients from any
level of the tower (they are promoted on contact).  Nothing here takes
Python complex or float in; float values leave the tower through
``to_complex`` and ``Poly.to_complex_coeffs``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence, Union

RationalLike = Union[int, Fraction]


class DivideByZero(ZeroDivisionError):
    """Division by an exact zero scalar."""


class MixedKappaGrade(ValueError):
    """Sum of kappa-graded scalars with different grades."""


class KindMismatch(TypeError):
    """Operation between scalars that cannot be promoted to a common kind."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise KindMismatch(f"expected rational, got {type(x).__name__}")


class GaussComplex:
    """Gaussian rational (a + b*i)/d, held as three plain ints.

    The form is canonical: d > 0, gcd(a, b, d) == 1, and zero is (0, 0, 1),
    so equality compares the three ints.  Every operation does its integer
    arithmetic and reduces once with a gcd of the parts (a sum of unequal
    denominators reduces against their common factor only, see ``_sum``);
    a product with an exact-zero factor returns the canonical zero at once.
    ``re`` and ``im`` read the parts back as ``Fraction``.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        re, im = _as_fraction(re), _as_fraction(im)
        p, q = re.denominator, im.denominator
        # over the least common denominator, reduced parts give gcd 1
        g = gcd(p, q)
        d = p // g * q
        _set_a(self, re.numerator * (d // p))
        _set_b(self, im.numerator * (d // q))
        _set_d(self, d)

    def __setattr__(self, *a):
        raise AttributeError("GaussComplex is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self._a == 0 and self._b == 0

    def conj(self) -> "GaussComplex":
        return _gauss_raw(self._a, -self._b, self._d)

    def real_part(self) -> "GaussComplex":
        return _gauss(self._a, 0, self._d)

    def imag_part(self) -> "GaussComplex":
        return _gauss(self._b, 0, self._d)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _sum(self._a, self._b, self._d, *o)

    __radd__ = __add__

    def __neg__(self):
        return _gauss_raw(-self._a, -self._b, self._d)

    def __sub__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        return _sum(self._a, self._b, self._d, -a, -b, d)

    def __rsub__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _sum(*o, -self._a, -self._b, self._d)

    def __mul__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        sa, sb = self._a, self._b
        if not (sa or sb) or not (a or b):
            return _ZERO
        if b == 0:
            return _gauss(sa * a, sb * a, self._d * d)
        return _gauss(sa * a - sb * b, sa * b + sb * a, self._d * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _divide(self._a, self._b, self._d, *o)

    def __rtruediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _divide(*o, self._a, self._b, self._d)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0 and self.is_zero():
            raise DivideByZero("division by zero GaussComplex")
        a, b, k = self._a, self._b, abs(n)
        # (a + b i)**k by squaring on the Gaussian integer, d**k beside it
        ra, rb = 1, 0
        while k:
            if k & 1:
                ra, rb = ra * a - rb * b, ra * b + rb * a
            k >>= 1
            if k:
                a, b = a * a - b * b, 2 * a * b
        d = self._d ** abs(n)
        if n < 0:
            return _gauss(ra * d, -rb * d, ra * ra + rb * rb)
        return _gauss(ra, rb, d)

    def __eq__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return self._a == o[0] and self._b == o[1] and self._d == o[2]

    def __hash__(self):
        # a real value hashes like its Fraction (and an int), as it compares
        if self._b == 0:
            return hash(self.re)
        return hash((self._a, self._b, self._d))

    def __complex__(self):
        return complex(self._a / self._d, self._b / self._d)

    def __reduce__(self):
        return (GaussComplex, (self.re, self.im))

    def __repr__(self):
        return f"GaussComplex({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


_set_a = GaussComplex._a.__set__
_set_b = GaussComplex._b.__set__
_set_d = GaussComplex._d.__set__
_new = object.__new__


def _gauss_raw(a: int, b: int, d: int) -> GaussComplex:
    """(a + b*i)/d from ints already in canonical form."""
    x = _new(GaussComplex)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    return x


def _gauss(a: int, b: int, d: int) -> GaussComplex:
    """(a + b*i)/d from ints with d > 0, reduced by one gcd."""
    # d first: it is the smallest part as a rule, and gcd stops at 1
    g = gcd(d, a, b)
    if g != 1:
        a //= g
        b //= g
        d //= g
    return _gauss_raw(a, b, d)


def _parts(x):
    """(a, b, d) of a scalar that promotes to GaussComplex, else None."""
    if isinstance(x, GaussComplex):
        return x._a, x._b, x._d
    if isinstance(x, int):
        return int(x), 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    return None


def _sum(a1: int, b1: int, d1: int, a2: int, b2: int, d2: int):
    """(a1 + b1 i)/d1 + (a2 + b2 i)/d2.

    Over the least common denominator g*s*t (d1 = g*s, d2 = g*t), a prime
    of s or t cannot divide both numerator parts, so only g can share a
    factor with them: the reducing gcd runs on g, never on the large
    denominator of a long sum.
    """
    if d1 == d2:
        return _gauss(a1 + a2, b1 + b2, d1)
    g = gcd(d1, d2)
    if g == 1:
        return _gauss_raw(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)
    s, t = d1 // g, d2 // g
    a, b = a1 * t + a2 * s, b1 * t + b2 * s
    g = gcd(g, a, b)
    if g != 1:
        a //= g
        b //= g
        d2 //= g
    return _gauss_raw(a, b, s * d2)


def _divide(a1: int, b1: int, d1: int, a2: int, b2: int, d2: int):
    """(a1 + b1 i)/d1 divided by (a2 + b2 i)/d2."""
    if b2 == 0:
        if a2 == 0:
            raise DivideByZero("division by zero GaussComplex")
        if a2 < 0:
            a2, d2 = -a2, -d2
        return _gauss(a1 * d2, b1 * d2, d1 * a2)
    # multiply through by the conjugate; the norm a2^2 + b2^2 is positive
    return _gauss(
        (a1 * a2 + b1 * b2) * d2,
        (b1 * a2 - a1 * b2) * d2,
        d1 * (a2 * a2 + b2 * b2),
    )


def _plus(x: GaussComplex, y: GaussComplex) -> GaussComplex:
    """x + y, passing one operand through when the other is zero."""
    if not (y._a or y._b):
        return x
    if not (x._a or x._b):
        return y
    return _sum(x._a, x._b, x._d, y._a, y._b, y._d)


def _minus(x: GaussComplex, y: GaussComplex) -> GaussComplex:
    """x - y, passing one operand through when the other is zero."""
    if not (y._a or y._b):
        return x
    if not (x._a or x._b):
        return _gauss_raw(-y._a, -y._b, y._d)
    return _sum(x._a, x._b, x._d, -y._a, -y._b, y._d)


# the plain scalars below ExtScalar; GaussComplex and int come first, since
# an isinstance test against Fraction (an ABC) is a Python-level call
_SCALARS = (GaussComplex, int, Fraction)


class ExtScalar:
    """Element c0 + c1*B of the quadratic extension with B**2 = modulus.

    ``modulus`` must be a positive rational; B is taken as the positive
    square root when converting to float.  Mixing two ExtScalars with
    different moduli is a KindMismatch, unless one of them is an exact zero,
    which takes the other's modulus.

    The arithmetic does only the integer work the nonzero parts need: a sum
    or difference passes a part through when the other operand's part is
    zero, a product forms only the terms whose two factors are nonzero, and
    an int, Fraction or GaussComplex operand acts on c0 and c1 as it is,
    never promoted to a two-part ExtScalar first.  The parts keep the
    GaussComplex normal form, so results, equality and hashes are those of
    the full two-part formulas.
    """

    __slots__ = ("c0", "c1", "modulus")

    def __init__(self, c0, c1=0, modulus: RationalLike = None):
        if modulus is None:
            raise KindMismatch("ExtScalar requires an explicit modulus")
        object.__setattr__(self, "c0", _gc(c0))
        object.__setattr__(self, "c1", _gc(c1))
        object.__setattr__(self, "modulus", _as_fraction(modulus))

    def __setattr__(self, *a):
        raise AttributeError("ExtScalar is immutable")

    def is_zero(self) -> bool:
        c0, c1 = self.c0, self.c1
        return not (c0._a or c0._b or c1._a or c1._b)

    def conj(self) -> "ExtScalar":
        return _ext(self.c0.conj(), self.c1.conj(), self.modulus)

    def real_part(self) -> "ExtScalar":
        # B itself is real, so Re(c0 + c1 B) = Re(c0) + Re(c1) B.
        return _ext(self.c0.real_part(), self.c1.real_part(), self.modulus)

    def imag_part(self) -> "ExtScalar":
        return _ext(self.c0.imag_part(), self.c1.imag_part(), self.modulus)

    def _modulus(self, x: "ExtScalar") -> Fraction:
        """Modulus of a result of ``self`` and the ExtScalar ``x``.

        That is ``x``'s when the moduli agree or ``self`` is zero, and
        ``self``'s when only ``x`` is zero; two nonzero operands with
        different moduli are a KindMismatch.
        """
        m = x.modulus
        # identity first: operands of one computation share the modulus
        # object, and Fraction equality is a Python-level call
        if m is self.modulus or m == self.modulus or self.is_zero():
            return m
        if x.is_zero():
            return self.modulus
        raise KindMismatch("ExtScalar moduli differ")

    def _coerce(self, x):
        """``x`` as an ExtScalar of the result's modulus, or None."""
        if isinstance(x, ExtScalar):
            m = self._modulus(x)
            return x if m is x.modulus else _ext(x.c0, x.c1, m)
        if isinstance(x, _SCALARS):
            return _ext(_gc(x), _ZERO, self.modulus)
        return None

    def __add__(self, other):
        if isinstance(other, ExtScalar):
            return _ext(_plus(self.c0, other.c0), _plus(self.c1, other.c1),
                        self._modulus(other))
        if isinstance(other, _SCALARS):
            return _ext(self.c0 + other, self.c1, self.modulus)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _ext(-self.c0, -self.c1, self.modulus)

    def __sub__(self, other):
        if isinstance(other, ExtScalar):
            return _ext(_minus(self.c0, other.c0), _minus(self.c1, other.c1),
                        self._modulus(other))
        if isinstance(other, _SCALARS):
            return _ext(self.c0 - other, self.c1, self.modulus)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _SCALARS):
            return _ext(other - self.c0, -self.c1, self.modulus)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, ExtScalar):
            m = self._modulus(other)
            a0, a1, b0, b1 = self.c0, self.c1, other.c0, other.c1
            # (a0 + a1 B)(b0 + b1 B) = a0 b0 + a1 b1 m + (a0 b1 + a1 b0) B,
            # without the terms of a zero part (a zero factor of a
            # GaussComplex product costs no arithmetic)
            if not (a1._a or a1._b):
                return _ext(a0 * b0, a0 * b1, m)
            if not (b1._a or b1._b):
                return _ext(a0 * b0, a1 * b0, m)
            if not (a0._a or a0._b):
                return _ext(a1 * b1 * m, a1 * b0, m)
            if not (b0._a or b0._b):
                return _ext(a1 * b1 * m, a0 * b1, m)
            return _ext(a0 * b0 + a1 * b1 * m, a0 * b1 + a1 * b0, m)
        if isinstance(other, _SCALARS):
            return _ext(self.c0 * other, self.c1 * other, self.modulus)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "ExtScalar":
        c0, c1 = self.c0, self.c1
        if not (c1._a or c1._b):
            if not (c0._a or c0._b):
                raise DivideByZero("division by zero ExtScalar")
            return _ext(_ONE / c0, _ZERO, self.modulus)
        # (c0 + c1 B)(c0 - c1 B) = c0^2 - c1^2 m lies in the Gaussian field.
        n = c0 * c0 - c1 * c1 * self.modulus
        if n.is_zero():
            raise DivideByZero("non-invertible ExtScalar (norm vanishes)")
        return _ext(c0 / n, -c1 / n, self.modulus)

    def __truediv__(self, other):
        if isinstance(other, ExtScalar):
            # differing moduli are reported before an inverse can fail
            self._modulus(other)
            return self * other.inverse()
        if isinstance(other, _SCALARS):
            if is_zero(other):
                raise DivideByZero("division by zero ExtScalar")
            return _ext(self.c0 / other, self.c1 / other, self.modulus)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _SCALARS):
            return self.inverse() * other
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = _ext(_ONE, _ZERO, self.modulus)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, ExtScalar):
            try:
                self._modulus(other)
            except KindMismatch:
                return False
            return self.c0 == other.c0 and self.c1 == other.c1
        if isinstance(other, _SCALARS):
            return self.c1.is_zero() and self.c0 == other
        return NotImplemented

    def __hash__(self):
        # with no B-part it equals c0 (whatever the modulus), so hash alike
        if self.c1.is_zero():
            return hash(self.c0)
        return hash((self.c0, self.c1, self.modulus))

    def __complex__(self):
        root = float(self.modulus) ** 0.5
        return complex(self.c0) + complex(self.c1) * root

    def __reduce__(self):
        return (ExtScalar, (self.c0, self.c1, self.modulus))

    def __repr__(self):
        return f"ExtScalar({self.c0!r}, {self.c1!r}, modulus={self.modulus!r})"

    def __str__(self):
        return format_scalar(self)


_set_c0 = ExtScalar.c0.__set__
_set_c1 = ExtScalar.c1.__set__
_set_modulus = ExtScalar.modulus.__set__


def _ext(c0: GaussComplex, c1: GaussComplex, modulus: Fraction) -> ExtScalar:
    """ExtScalar from parts that are already GaussComplex and Fraction."""
    x = _new(ExtScalar)
    _set_c0(x, c0)
    _set_c1(x, c1)
    _set_modulus(x, modulus)
    return x


# the ungraded levels of the tower, ExtScalar first
_UNGRADED = (ExtScalar, *_SCALARS)


class KappaGraded:
    """value * kappa**grade with kappa purely symbolic.

    Addition insists on equal grades (exact zeros are grade-agnostic), which
    turns every verified identity into a homogeneity check for free.  A
    product or quotient with an ExtScalar, GaussComplex, Fraction or int
    hands that operand to the value's own arithmetic as it is, at grade 0,
    without wrapping it first.
    """

    __slots__ = ("value", "grade")

    def __init__(self, value: ExtScalar, grade: int = 0):
        if not isinstance(value, ExtScalar):
            raise KindMismatch("KappaGraded wraps an ExtScalar")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "grade", int(grade))

    def __setattr__(self, *a):
        raise AttributeError("KappaGraded is immutable")

    def is_zero(self) -> bool:
        return self.value.is_zero()

    def conj(self) -> "KappaGraded":
        return _kappa(self.value.conj(), self.grade)

    def real_part(self) -> "KappaGraded":
        return _kappa(self.value.real_part(), self.grade)

    def imag_part(self) -> "KappaGraded":
        return _kappa(self.value.imag_part(), self.grade)

    def _coerce(self, x):
        if isinstance(x, KappaGraded):
            return x
        if isinstance(x, _UNGRADED):
            return _kappa(self.value._coerce(x), 0)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero():
            return o
        if o.is_zero():
            return self
        if self.grade != o.grade:
            raise MixedKappaGrade(
                f"kappa grades differ: {self.grade} vs {o.grade}"
            )
        return _kappa(self.value + o.value, self.grade)

    __radd__ = __add__

    def __neg__(self):
        return _kappa(-self.value, self.grade)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, KappaGraded):
            return _kappa(self.value * other.value, self.grade + other.grade)
        if isinstance(other, _UNGRADED):
            return _kappa(self.value * other, self.grade)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, KappaGraded):
            return _kappa(self.value / other.value, self.grade - other.grade)
        if isinstance(other, _UNGRADED):
            return _kappa(self.value / other, self.grade)
        return NotImplemented

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except KindMismatch:
            return False
        if o is None:
            return NotImplemented
        if self.is_zero() and o.is_zero():
            return True
        return self.grade == o.grade and self.value == o.value

    def __hash__(self):
        # grade 0 equals its ungraded value, and zero equals zero at any grade
        if self.grade == 0 or self.value.is_zero():
            return hash(self.value)
        return hash((self.value, self.grade))

    def to_complex(self, kappa: float) -> complex:
        return complex(self.value) * kappa**self.grade

    def __reduce__(self):
        return (KappaGraded, (self.value, self.grade))

    def __repr__(self):
        return f"KappaGraded({self.value!r}, grade={self.grade})"

    def __str__(self):
        return format_scalar(self)


_set_value = KappaGraded.value.__set__
_set_grade = KappaGraded.grade.__set__


def _kappa(value: ExtScalar, grade: int) -> KappaGraded:
    """KappaGraded from an ExtScalar and an int grade."""
    x = _new(KappaGraded)
    _set_value(x, value)
    _set_grade(x, grade)
    return x


def _gc(x) -> GaussComplex:
    if isinstance(x, GaussComplex):
        return x
    return GaussComplex(x)


_ZERO = GaussComplex(0)
_ONE = GaussComplex(1)


def kappa_unit(modulus: RationalLike) -> KappaGraded:
    """kappa itself: unit value at grade one, tied to the given B-modulus."""
    return KappaGraded(ExtScalar(1, 0, modulus), grade=1)


def conj(x):
    """Complex conjugate across the tower."""
    if isinstance(x, (int, Fraction)):
        return x
    return x.conj()


def real_part(x):
    if isinstance(x, (int, Fraction)):
        return x
    return x.real_part()


def imag_part(x):
    if isinstance(x, (int, Fraction)):
        return 0 * x
    return x.imag_part()


def is_zero(x) -> bool:
    if isinstance(x, (GaussComplex, ExtScalar, KappaGraded)):
        return x.is_zero()
    return x == 0


def to_complex(x, kappa: float = None) -> complex:
    """Float view of any tower scalar; kappa needed for graded values."""
    if isinstance(x, KappaGraded):
        if x.grade != 0 and not x.is_zero() and kappa is None:
            raise KindMismatch("graded scalar needs a kappa value")
        return x.to_complex(1.0 if kappa is None else kappa)
    return complex(x)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


class Poly:
    """Univariate polynomial in y; coefficients from the exact tower.

    Coefficient index = power of y.  Trailing zeros are trimmed, so
    ``degree`` is len-1 for nonzero polynomials and -1 for the zero one.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = list(coeffs)
        while cs and is_zero(cs[-1]):
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls) -> "Poly":
        return cls([])

    @classmethod
    def monomial(cls, k: int, coeff) -> "Poly":
        return cls([0] * k + [coeff])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __add__(self, other):
        o = other if isinstance(other, Poly) else Poly([other])
        n = max(len(self.coeffs), len(o.coeffs))
        return Poly([self.coeff(k) + o.coeff(k) for k in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        o = other if isinstance(other, Poly) else Poly([other])
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly([c * other for c in self.coeffs])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            if is_zero(a):
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    def __rmul__(self, other):
        return Poly([other * c for c in self.coeffs])

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        if len(self.coeffs) != len(other.coeffs):
            return False
        return all(
            is_zero(a - b) for a, b in zip(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash(self.coeffs)

    def deriv(self) -> "Poly":
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def eval(self, y0):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * y0 + c
        return acc

    def conj(self) -> "Poly":
        # y is real, so conjugation acts on coefficients only.
        return Poly([conj(c) for c in self.coeffs])

    def real_part(self) -> "Poly":
        return Poly([real_part(c) for c in self.coeffs])

    def to_complex_coeffs(self) -> list:
        return [to_complex(c) for c in self.coeffs]

    def __reduce__(self):
        return (Poly, (list(self.coeffs),))

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self):
        return format_poly(self)


def binomial_coefficient(gamma, k: int):
    """Generalized C(gamma, k) = gamma (gamma-1) ... (gamma-k+1) / k!."""
    num = 1
    for j in range(k):
        num = num * (gamma - j)
    den = 1
    for j in range(2, k + 1):
        den *= j
    return num * Fraction(1, den)


# ---------------------------------------------------------------------------
# textual dump / parse
# ---------------------------------------------------------------------------
#
# Scalars print as "a/b + (c/d)i [+ (e/f + (g/h)i) b] [k^n]", polynomials as
# "+"-joined "coef * y^k" terms.  parse_poly(format_poly(P)) round-trips.


def _fmt_frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _fmt_gc(g: GaussComplex) -> str:
    return f"{_fmt_frac(g.re)} + ({_fmt_frac(g.im)})i"


def format_scalar(x) -> str:
    if isinstance(x, (int, Fraction)):
        return _fmt_frac(_as_fraction(x))
    if isinstance(x, GaussComplex):
        return _fmt_gc(x)
    if isinstance(x, ExtScalar):
        return f"{_fmt_gc(x.c0)} + ({_fmt_gc(x.c1)}) b"
    if isinstance(x, KappaGraded):
        return f"{format_scalar(x.value)} k^{x.grade}"
    raise KindMismatch(f"cannot format {type(x).__name__}")


def format_poly(p: Poly) -> str:
    if p.is_zero():
        return "0"
    terms = []
    for k, c in enumerate(p.coeffs):
        if is_zero(c):
            continue
        terms.append(f"[{format_scalar(c)}] * y^{k}")
    return " + ".join(terms)


import re as _re

_FRAC = r"(-?\d+)/(\d+)"
_GC = rf"{_FRAC} \+ \({_FRAC}\)i"
_SCALAR_RE = _re.compile(
    rf"^(?P<c0>{_GC})(?: \+ \((?P<c1>{_GC})\) b)?(?: k\^(?P<grade>-?\d+))?$"
)
_GC_RE = _re.compile(rf"^{_GC}$")


def _parse_gc(s: str) -> GaussComplex:
    m = _GC_RE.match(s.strip())
    if not m:
        raise ValueError(f"bad GaussComplex literal: {s!r}")
    a, b, c, d = (int(g) for g in m.groups())
    return GaussComplex(Fraction(a, b), Fraction(c, d))


def parse_scalar(s: str, modulus: Fraction = None):
    m = _SCALAR_RE.match(s.strip())
    if not m:
        raise ValueError(f"bad scalar literal: {s!r}")
    c0 = _parse_gc(m.group("c0"))
    c1 = _parse_gc(m.group("c1")) if m.group("c1") else None
    grade = m.group("grade")
    if c1 is None and grade is None and modulus is None:
        return c0
    if modulus is None:
        raise ValueError("extension literal needs a modulus to parse")
    ext = ExtScalar(c0, c1 if c1 is not None else 0, modulus)
    if grade is None:
        return ext
    return KappaGraded(ext, int(grade))


def parse_poly(s: str, modulus: Fraction = None) -> Poly:
    s = s.strip()
    if s == "0":
        return Poly.zero()
    coeffs: dict[int, object] = {}
    for term in s.split(" + ["):
        term = term.strip()
        if term.startswith("["):
            term = term[1:]
        body, _, power = term.rpartition("* y^")
        body = body.strip()
        if not body.endswith("]"):
            raise ValueError(f"bad poly term: {term!r}")
        k = int(power)
        coeffs[k] = parse_scalar(body[:-1], modulus=modulus)
    n = max(coeffs) + 1
    return Poly([coeffs.get(k, 0) for k in range(n)])
