"""Exact scalar tower and polynomial algebra."""

import operator
import pickle
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cglblow.exact import (
    DivideByZero,
    ExtScalar,
    GaussComplex,
    KappaGraded,
    KindMismatch,
    MixedKappaGrade,
    Poly,
    format_poly,
    format_scalar,
    imag_part,
    is_zero,
    kappa_unit,
    parse_poly,
    parse_scalar,
    real_part,
)
from cglblow.series import TSeries

MOD = F(1, 63)


def gc(a, b=0):
    return GaussComplex(F(a), F(b))


# every fraction whose reduced denominator is <= 50; cheaper to draw than
# st.fractions(max_denominator=50), which spans the same values
rationals = st.builds(F, st.integers(), st.integers(1, 50))


def ext(c0re, c0im=0, c1re=0, c1im=0):
    return ExtScalar(GaussComplex(F(c0re), F(c0im)),
                     GaussComplex(F(c1re), F(c1im)), MOD)


# which parts of an ExtScalar operand are nonzero: the pipeline's operands
# are almost all exact zeros, pure c0 or pure c1*B
SHAPES = ("zero", "c0", "c1", "both")
OPS = (operator.add, operator.sub, operator.mul, operator.truediv)


def shaped(qs, shape):
    """ExtScalar from four rationals, with the parts ``shape`` drops zero."""
    c0 = GaussComplex(qs[0], qs[1]) if shape in ("c0", "both") else 0
    c1 = GaussComplex(qs[2], qs[3]) if shape in ("c1", "both") else 0
    return ExtScalar(c0, c1, MOD)


class TestScalarArith:
    def test_half_times_i(self):
        assert gc(1, 0) / 2 * gc(0, 1) == gc(0, F(1, 2))

    def test_b_squares_to_modulus(self):
        b = ExtScalar(0, 1, MOD)
        assert b * b == ExtScalar(MOD, 0, MOD)

    def test_mixed_kappa_grade_raises(self):
        x = KappaGraded(ext(1), 1)
        y = KappaGraded(ext(1), 0)
        with pytest.raises(MixedKappaGrade):
            x + y

    def test_grade_zero_sum_allowed_with_exact_zero(self):
        z = KappaGraded(ext(0), 1)
        y = KappaGraded(ext(2), 0)
        assert (z + y) == y

    def test_divide_by_zero(self):
        with pytest.raises(DivideByZero):
            gc(1) / gc(0)
        with pytest.raises(DivideByZero):
            ext(1).__truediv__(ext(0))

    def test_kappa_grades_multiply(self):
        k = kappa_unit(MOD)
        assert (k * k).grade == 2
        assert (k / k).grade == 0
        assert (ext(3) * k).grade == 1

    @given(st.lists(rationals, min_size=12, max_size=12))
    @settings(max_examples=1000, deadline=None)
    def test_gausscomplex_field_axioms(self, qs):
        a = GaussComplex(qs[0], qs[1])
        b = GaussComplex(qs[2], qs[3])
        c = GaussComplex(qs[4], qs[5])
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not b.is_zero():
            assert (a / b) * b == a

    @given(st.lists(rationals, min_size=8, max_size=8))
    @settings(max_examples=1000, deadline=None)
    def test_extscalar_field_axioms(self, qs):
        a = ExtScalar(GaussComplex(qs[0], qs[1]), GaussComplex(qs[2], qs[3]), MOD)
        b = ExtScalar(GaussComplex(qs[4], qs[5]), GaussComplex(qs[6], qs[7]), MOD)
        assert a * b == b * a
        assert a * (a + b) == a * a + a * b
        if not b.is_zero():
            try:
                assert (a / b) * b == a
            except DivideByZero:
                # norm can vanish for nonzero elements only if the modulus
                # is a square in the Gaussian field; 1/63 is not
                raise

    @given(st.lists(rationals, min_size=8, max_size=8),
           st.sampled_from(SHAPES), st.sampled_from(SHAPES),
           st.sampled_from(OPS))
    @settings(max_examples=200, deadline=None)
    def test_extscalar_reduction_oracle(self, qs, sa, sb, op):
        # re-expand (c0 + c1 B) op (d0 + d1 B) by hand, on the Fraction-pair
        # reference, for every pattern of zero parts
        a, b = shaped(qs[:4], sa), shaped(qs[4:], sb)
        for x, y in ((a, b), (b, a)):
            check_two_part(op, x, y, MOD)


class TestExtScalarModuli:
    OPS = (operator.add, operator.sub, operator.mul, operator.truediv)

    def test_equal_but_distinct_moduli(self):
        a = ExtScalar(gc(1, 2), gc(3, -1), F(7, 3))
        b = ExtScalar(gc(-1, 1), gc(1, 1), F(14, 6))
        assert b.modulus == a.modulus and b.modulus is not a.modulus
        for op in self.OPS:
            for x, y in ((a, b), (b, a)):
                got = op(x, y)
                want = op(x, ExtScalar(y.c0, y.c1, x.modulus))
                assert (got.c0, got.c1, got.modulus) == (want.c0, want.c1,
                                                         want.modulus)
                assert abs(complex(got) - op(complex(x), complex(y))) < 1e-12

    def test_exact_zero_takes_the_other_modulus(self):
        z = ExtScalar(0, 0, F(5))
        x = ExtScalar(gc(1, -2), gc(2, 1), F(3))
        cases = [
            (z + x, x), (x + z, x), (x - z, x), (z - x, -x),
            (x * z, z), (z * x, z), (z / x, z),
        ]
        for got, want in cases:
            assert got == want
            assert abs(complex(got) - complex(want)) < 1e-12
            if not want.is_zero():
                assert got.modulus == F(3)
        with pytest.raises(DivideByZero):
            x / z
        with pytest.raises(KindMismatch):
            x + ExtScalar(1, 1, F(5))


class TestPoly:
    def test_derivative(self):
        p = Poly([gc(-2, -1), gc(0), gc(1)])  # y^2 - 2(1+i/2)
        assert p.deriv() == Poly([gc(0), gc(2)])

    def test_product(self):
        iy2 = Poly.monomial(2, gc(0, 1))
        y = Poly.monomial(1, gc(1))
        assert iy2 * y == Poly.monomial(3, gc(0, 1))

    def test_eval(self):
        p = Poly([gc(-2, -1), gc(0), gc(1)])
        assert p.eval(gc(0)) == gc(-2, -1)

    def test_trailing_zeros_trimmed(self):
        assert Poly([gc(1), gc(0)]).degree == 0
        assert Poly([]).is_zero()


class TestBinomialSeries:
    """``TSeries.binom_pow``: (1 + u)**gamma truncated at the t-order."""

    def test_geometric(self):
        t = TSeries.term(gc(1), 1, 0, 2)
        got = t.binom_pow(gc(-1))
        assert got.terms == {(0, 0): gc(1), (1, 0): gc(-1), (2, 0): gc(1)}

    def test_half_complex_exponent(self):
        t = TSeries.term(gc(1), 1, 0, 1)
        got = t.binom_pow(gc(F(1, 2), F(1, 2)))
        assert got.terms == {(0, 0): gc(1), (1, 0): gc(F(1, 2), F(1, 2))}

    def test_requires_zero_constant_term(self):
        u = TSeries.const(gc(1), 3) + TSeries.term(gc(1), 1, 0, 3)
        with pytest.raises(ValueError):
            u.binom_pow(gc(1))

    @given(rationals, rationals, st.integers(2, 6))
    @settings(max_examples=60, deadline=None)
    def test_composed_with_inverse_is_identity(self, a, b, order):
        gamma = GaussComplex(a, b)
        u = (TSeries.term(gc(1), 1, 0, order)
             + TSeries.term(gc(0, 1), 2, 1, order))
        fwd = u.binom_pow(gamma)
        bwd = u.binom_pow(-gamma)
        assert (fwd * bwd).terms == {(0, 0): gc(1)}


class TestDumpParse:
    def test_scalar_roundtrip(self):
        for v in (gc(3, -2), ext(1, 2, F(3, 4), -5), KappaGraded(ext(1, 0, 2), -1)):
            s = format_scalar(v)
            back = parse_scalar(s, modulus=MOD)
            if isinstance(v, GaussComplex):
                assert back == ExtScalar(v, 0, MOD) or back == v
            else:
                assert back == v

    def test_poly_roundtrip(self):
        p = Poly([ext(1, 2), ext(0), ext(F(-7, 3), 0, 1)])
        s = format_poly(p)
        assert parse_poly(s, modulus=MOD) == p

    def test_zero_poly(self):
        assert parse_poly(format_poly(Poly([]))).is_zero()


class TestProfilePowerExpansion:
    def test_matches_term_by_term_derivatives(self):
        # (1 + (b/(p-1)) z^2)^gamma to order z^4, with the z^2 and z^4
        # coefficients checked against the derivative oracle at z = 0:
        # gamma*w and gamma(gamma-1)/2 * w^2 for w = b/(p-1); z is the
        # series variable t
        p = F(3)
        b = F(1, 8)  # any rational probe works here
        w = b / (p - 1)
        for gamma in (GaussComplex(F(-1, 2)), GaussComplex(F(-1, 2), F(-1, 2))):
            u = TSeries.term(GaussComplex(w), 2, 0, 4)
            series = u.binom_pow(gamma)
            assert series.t_coefficient(2).coeff(0) == gamma * w
            assert series.t_coefficient(4).coeff(0) == (
                gamma * (gamma - GaussComplex(1)) * F(1, 2) * w**2)


class RefGauss:
    """The Fraction-pair Gaussian rational that GaussComplex replaced.

    Kept as a reference: every operation of the integer form must give the
    value this one gives.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", F(re))
        object.__setattr__(self, "im", F(im))

    @staticmethod
    def _coerce(x):
        if isinstance(x, RefGauss):
            return x
        if isinstance(x, (int, F)):
            return RefGauss(x)
        return None

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def conj(self):
        return RefGauss(self.re, -self.im)

    def real_part(self):
        return RefGauss(self.re)

    def imag_part(self):
        return RefGauss(self.im)

    def __add__(self, other):
        o = self._coerce(other)
        return RefGauss(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return RefGauss(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        return RefGauss(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return RefGauss(self.re * o.re - self.im * o.im,
                        self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise DivideByZero("division by zero GaussComplex")
        return RefGauss((self.re * o.re + self.im * o.im) / n,
                        (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, n):
        if n < 0:
            return RefGauss(1) / self ** (-n)
        out, base = RefGauss(1), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __complex__(self):
        return complex(float(self.re), float(self.im))


def ref(x):
    return RefGauss(x.re, x.im) if isinstance(x, GaussComplex) else x


def assert_canonical(x):
    a, b, d = x._a, x._b, x._d
    assert type(a) is int and type(b) is int and type(d) is int
    assert d > 0 and gcd(a, b, d) == 1


def assert_same(x, r):
    assert isinstance(x, GaussComplex)
    assert_canonical(x)
    assert (x.re, x.im) == (r.re, r.im)
    assert type(x.re) is F and type(x.im) is F


# wide denominators reach every branch of the sum (equal, coprime, and
# sharing a factor) and large enough parts to exercise the reductions
wide = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
parts = st.one_of(rationals, wide)
gaussians = st.builds(GaussComplex, parts, parts)
operands = st.one_of(gaussians, st.integers(-30, 30), parts)


class TestAgainstFractionPair:
    @given(gaussians, operands)
    @settings(max_examples=300, deadline=None)
    def test_arithmetic(self, x, y):
        rx, ry = ref(x), ref(y)
        for op in (operator.add, operator.sub, operator.mul):
            assert_same(op(x, y), op(rx, ry))
            assert_same(op(y, x), op(ry, rx))
        for num, den, rnum, rden in ((x, y, rx, ry), (y, x, ry, rx)):
            if is_zero(den):
                with pytest.raises(DivideByZero):
                    num / den
            else:
                assert_same(num / den, rnum / rden)

    @given(gaussians, st.integers(-7, 7))
    @settings(max_examples=200, deadline=None)
    def test_powers(self, x, n):
        if x.is_zero() and n < 0:
            with pytest.raises(DivideByZero):
                x ** n
            return
        assert_same(x ** n, ref(x) ** n)

    @given(gaussians)
    @settings(max_examples=200, deadline=None)
    def test_unary(self, x):
        rx = ref(x)
        assert_same(-x, -rx)
        assert_same(x.conj(), rx.conj())
        assert_same(real_part(x), rx.real_part())
        assert_same(imag_part(x), rx.imag_part())
        assert x.is_zero() == rx.is_zero()
        assert complex(x) == complex(rx)

    @given(gaussians, st.one_of(st.integers(-30, 30), parts))
    @settings(max_examples=200, deadline=None)
    def test_equality_with_rationals(self, x, q):
        assert (x == q) == (ref(x) == q)
        assert (q == x) == (x == q)
        assert GaussComplex(q) == q and q == GaussComplex(q)
        assert GaussComplex(q, 1) != q
        assert (x == GaussComplex(x.re, x.im)) and not (x != x + 0)

    @given(gaussians)
    @settings(max_examples=200, deadline=None)
    def test_pickle_roundtrip(self, x):
        back = pickle.loads(pickle.dumps(x))
        assert_canonical(back)
        assert back == x and hash(back) == hash(x)
        assert x.__reduce__() == (GaussComplex, (x.re, x.im))

    @given(gaussians)
    @settings(max_examples=200, deadline=None)
    def test_format_parse_roundtrip(self, x):
        rx = ref(x)
        s = format_scalar(x)
        assert s == (f"{rx.re.numerator}/{rx.re.denominator} + "
                     f"({rx.im.numerator}/{rx.im.denominator})i")
        back = parse_scalar(s)
        assert_canonical(back)
        assert back == x
        assert repr(x) == f"GaussComplex({rx.re!r}, {rx.im!r})"

    def test_zero_is_canonical(self):
        for z in (GaussComplex(), GaussComplex(F(0, 7), 0), gc(F(1, 3)) - F(1, 3),
                  gc(F(1, 2), F(1, 2)) * 0):
            assert (z._a, z._b, z._d) == (0, 0, 1)

    def test_immutable(self):
        x = gc(1, 2)
        with pytest.raises(AttributeError):
            x.re = F(3)
        with pytest.raises(AttributeError):
            x._a = 3


@st.composite
def tower_values(draw):
    """One small Gaussian value in a random level of the tower."""
    re = draw(st.sampled_from([0, 1, -1, 3, F(1, 2), F(-3, 2)]))
    im = draw(st.sampled_from([0, 0, 1, F(1, 2)]))
    kinds = ["gauss", "ext", "kappa"]
    if im == 0:
        kinds += ["fraction"] + (["int"] if re == int(re) else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "int":
        return int(re)
    if kind == "fraction":
        return F(re)
    g = GaussComplex(re, im)
    if kind == "gauss":
        return g
    c1 = GaussComplex(draw(st.sampled_from([0, 0, 1, F(-1, 2)])))
    e = ExtScalar(g, c1, draw(st.sampled_from([MOD, F(2)])))
    if kind == "ext":
        return e
    return KappaGraded(e, draw(st.sampled_from([0, 0, 1, -1])))


class TestHashAgreesWithEquality:
    def test_reported_cases(self):
        assert len({GaussComplex(3), 3}) == 1
        assert hash(GaussComplex(F(1, 2))) == hash(F(1, 2))
        assert hash(ExtScalar(0, 0, 2)) == hash(ExtScalar(0, 0, 3))
        c0 = gc(1, 2)
        assert ExtScalar(c0, 0, MOD) == c0
        assert hash(ExtScalar(c0, 0, MOD)) == hash(c0)
        z1, z2 = KappaGraded(ext(0), 1), KappaGraded(ext(0), 2)
        assert z1 == z2 and hash(z1) == hash(z2)

    def test_unequal_moduli_compare_unequal(self):
        a = KappaGraded(ExtScalar(1, 0, 2), 0)
        assert a != ExtScalar(1, 0, 3) and ExtScalar(1, 0, 3) != a
        with pytest.raises(KindMismatch):
            a + ExtScalar(1, 0, 3)

    @given(tower_values(), tower_values())
    @settings(max_examples=300, deadline=None)
    def test_equal_values_hash_equal(self, a, b):
        if a == b:
            assert b == a
            assert hash(a) == hash(b)


def two_part(x):
    """(c0, c1) of an ungraded tower value, as Fraction-pair references."""
    if isinstance(x, ExtScalar):
        return ref(x.c0), ref(x.c1)
    return (ref(x) if isinstance(x, GaussComplex) else RefGauss(x)), RefGauss(0)


def oracle(op, x, y, m):
    """op(x, y) by the full two-part formulas, as a reference (c0, c1)."""
    (a0, a1), (b0, b1) = two_part(x), two_part(y)
    if op is operator.add:
        return a0 + b0, a1 + b1
    if op is operator.sub:
        return a0 - b0, a1 - b1
    if op is operator.truediv:
        # times the inverse (b0 - b1 B)/n; a zero norm raises DivideByZero
        n = b0 * b0 - b1 * b1 * m
        b0, b1 = b0 / n, -b1 / n
    return a0 * b0 + a1 * b1 * m, a0 * b1 + a1 * b0


def built(want, m):
    """The ExtScalar of reference parts, made by the public constructor."""
    return ExtScalar(GaussComplex(want[0].re, want[0].im),
                     GaussComplex(want[1].re, want[1].im), m)


def assert_ext(got, want, m):
    """got is the canonical ExtScalar of the reference parts, modulus m."""
    assert type(got) is ExtScalar
    assert_same(got.c0, want[0])
    assert_same(got.c1, want[1])
    assert type(got.modulus) is F and got.modulus == m
    full = built(want, m)
    assert got == full and full == got and hash(got) == hash(full)
    if got.c1.is_zero():
        assert got == full.c0 and hash(got) == hash(full.c0)


def check_two_part(op, x, y, m):
    """op(x, y) against the oracle, or the DivideByZero the oracle raises."""
    try:
        want = oracle(op, x, y, m)
    except DivideByZero:
        with pytest.raises(DivideByZero):
            op(x, y)
        return
    assert_ext(op(x, y), want, m)


@st.composite
def ext_operands(draw, moduli=(MOD,)):
    """An ExtScalar of a random zero pattern over wide Gaussian parts."""
    shape = draw(st.sampled_from(SHAPES))
    c0 = draw(gaussians) if shape in ("c0", "both") else 0
    c1 = draw(gaussians) if shape in ("c1", "both") else 0
    return ExtScalar(c0, c1, draw(st.sampled_from(moduli)))


class TestSparseParts:
    """ExtScalar and KappaGraded arithmetic on operands shaped as the
    pipeline's: single-part ExtScalars, exact zeros, and plain scalars that
    are used without promotion (ExtScalar pairs of every zero pattern are
    in ``TestScalarArith.test_extscalar_reduction_oracle``)."""

    @given(ext_operands(), operands, st.sampled_from(OPS))
    @settings(max_examples=100, deadline=None)
    def test_ext_with_scalar_either_side(self, x, s, op):
        check_two_part(op, x, s, MOD)
        check_two_part(op, s, x, MOD)
        assert (x == s) == (x.c1.is_zero() and x.c0 == s) == (s == x)

    @given(ext_operands(moduli=(MOD, F(2, 126), F(2))),
           ext_operands(moduli=(MOD, F(2, 126), F(2))),
           st.sampled_from(OPS))
    @settings(max_examples=100, deadline=None)
    def test_moduli_rules(self, x, y, op):
        # F(2, 126) equals MOD as a distinct object; F(2) differs
        if not x.is_zero() and not y.is_zero() and x.modulus != y.modulus:
            with pytest.raises(KindMismatch):
                op(x, y)
            assert x != y and y != x
            return
        # an exact zero takes the other operand's modulus
        m = x.modulus if y.is_zero() and not x.is_zero() else y.modulus
        check_two_part(op, x, y, m)

    @given(ext_operands(), st.integers(-1, 2),
           st.one_of(operands, ext_operands(),
                     st.builds(KappaGraded, ext_operands(), st.integers(-1, 2))),
           st.sampled_from(OPS))
    @settings(max_examples=120, deadline=None)
    def test_kappa_with_each_kind(self, v, g, s, op):
        a = (KappaGraded(v, g), v, g)
        b = (s, s.value, s.grade) if isinstance(s, KappaGraded) else (s, s, 0)
        for (x, xv, xg), (y, yv, yg) in ((a, b), (b, a)):
            try:
                want = oracle(op, xv, yv, MOD)
            except DivideByZero:
                with pytest.raises(DivideByZero):
                    op(x, y)
                continue
            if op in (operator.mul, operator.truediv):
                grade = xg + yg if op is operator.mul else xg - yg
            elif is_zero(xv) or is_zero(yv):
                grade = yg if is_zero(xv) else xg
            elif xg != yg:
                with pytest.raises(MixedKappaGrade):
                    op(x, y)
                continue
            else:
                grade = xg
            got = op(x, y)
            assert type(got) is KappaGraded
            assert_ext(got.value, want, MOD)
            full = KappaGraded(built(want, MOD), grade)
            assert got == full and hash(got) == hash(full)
            if not got.is_zero():
                assert got.grade == grade
