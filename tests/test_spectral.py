"""Spectral machinery: eigenfunctions, Jordan basis, projections, kernel."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from conftest import poly_values

from cglblow.exact import GaussComplex, Poly, is_zero
from cglblow.spectral import (
    BasisFloats,
    GridTooNarrow,
    apply_L,
    build_basis,
    f_norm,
    gaussian_moment,
    hermite_f,
    integrate_poly,
    kernel_bands,
    powers_table,
    project_sampled,
    rho_weight,
    semigroup_apply,
    semigroup_kernel,
    trapezoid_weights,
)


def gc(a, b=0):
    return GaussComplex(F(a), F(b))


def hermite_oracle(n, beta):
    """Physicists' Hermite H_n rescaled to monic in y/(2 sqrt(1+i beta)).

    H_n has parity n, so the surviving powers satisfy n - j even and the
    rescaling factors (4(1+i beta))^((n-j)/2) / 2^n stay Gaussian rational.
    """
    hs = [[F(1)], [F(0), F(2)]]
    for k in range(1, n):
        nxt = [F(0)] * (k + 2)
        for j, c in enumerate(hs[k]):
            nxt[j + 1] += 2 * c
        for j, c in enumerate(hs[k - 1]):
            nxt[j] -= 2 * k * c
        hs.append(nxt)
    scale = gc(4, 4 * F(beta))  # 4(1+i beta)
    out = [gc(0)] * (n + 1)
    for j, c in enumerate(hs[n]):
        if c == 0:
            continue
        assert (n - j) % 2 == 0
        out[j] = F(c) * scale ** ((n - j) // 2) * F(1, 2**n)
    return Poly(out)


class TestEigenfunctions:
    def test_f0_f2_f4(self):
        assert hermite_f(0, F(1, 2)) == Poly([gc(1)])
        assert hermite_f(2, F(1, 2)) == Poly([gc(-2, -1), gc(0), gc(1)])
        assert hermite_f(4, F(0)) == Poly([gc(12), gc(0), gc(-12), gc(0), gc(1)])

    @pytest.mark.parametrize("n", range(7))
    @pytest.mark.parametrize("beta", [F(0), F(1, 2), F(-3, 7)])
    def test_matches_hermite_oracle(self, n, beta):
        assert hermite_f(n, beta) == hermite_oracle(n, beta)

    @pytest.mark.parametrize("n", range(9))
    def test_eigenrelation_exact(self, n):
        beta = F(1, 2)
        fn = hermite_f(n, beta)
        assert (apply_L(fn, beta) + F(n, 2) * fn).is_zero()


class TestMoments:
    def test_normalization(self):
        assert gaussian_moment(0, F(1, 2)) == gc(1)

    def test_second_moment(self):
        assert gaussian_moment(2, F(1, 2)) == gc(2, 1)

    def test_fourth_moment_real(self):
        assert gaussian_moment(4, F(0)) == gc(12)

    def test_odd_vanish(self):
        assert gaussian_moment(3, F(2, 3)) == gc(0)

    @pytest.mark.parametrize("k", [0, 2, 4, 6])
    def test_quadrature_oracle(self, k):
        beta = 0.5
        y = np.linspace(-60, 60, 200001)
        val = np.trapezoid(y**k * rho_weight(y, beta), y)
        assert abs(val - complex(gaussian_moment(k, F(1, 2)))) < 1e-10

    def test_f_norm(self):
        beta = F(1, 3)
        for n in range(6):
            fn = hermite_f(n, beta)
            assert integrate_poly(fn * fn, beta) == f_norm(n, beta)

    def test_orthogonality(self):
        beta = F(2, 5)
        fs = [hermite_f(n, beta) for n in range(8)]
        for n in range(8):
            for m in range(n):
                assert is_zero(integrate_poly(fs[n] * fs[m], beta))


class TestJordanBasis:
    def test_apply_L_variants(self):
        beta, delta = F(1, 2), F(1)
        f2 = hermite_f(2, beta)
        assert apply_L(f2, beta) == -1 * f2
        basis = build_basis(6, F(3), delta, beta)
        assert apply_L(basis.h[6], beta, delta) == F(-3) * basis.h[6]
        one = Poly([gc(1)])
        assert apply_L(one, beta, delta) == Poly([gc(1, 1)])

    def test_printed_h2(self):
        basis = build_basis(6, F(3), F(1), F(1, 2))
        assert basis.h[2] == Poly([gc(F(1, 2), F(-5, 2)), gc(0), gc(0, 1)])

    def test_int_and_fraction_share_one_table(self):
        assert build_basis(6, 3, 1, F(1, 2)) is build_basis(6, F(3), F(1), F(1, 2))

    def test_jordan_relations_all_n(self):
        basis = build_basis(8, F(2), F(1), F(1, 3))
        for n in range(9):
            img = apply_L(basis.h[n], F(1, 3), F(1))
            assert (img + F(n, 2) * basis.h[n]).is_zero()
            img = apply_L(basis.h_tilde[n], F(1, 3), F(1))
            want = (1 - F(n, 2)) * basis.h_tilde[n]
            if n >= 2:
                want = want + basis.c[n] * basis.h[n - 2]
            assert (img - want).is_zero()


class TestProjectPoly:
    def setup_method(self):
        self.basis = build_basis(6, F(3), F(1), F(1, 2))

    def test_eigenfunction_projects_to_single_Q(self):
        m = self.basis.decompose(self.basis.f[2])
        assert m.Q[2] == gc(1)
        assert all(is_zero(m.Q[n]) for n in range(7) if n != 2)

    def test_iy2_example(self):
        m = self.basis.decompose(Poly.monomial(2, gc(0, 1)))
        assert m.q[2] == gc(1) and m.q[0] == gc(3) and m.q_tilde[0] == gc(F(-1, 2))

    def test_basis_element(self):
        m = self.basis.decompose(self.basis.h_tilde[5])
        assert m.q_tilde[5] == gc(1)
        assert sum(1 for v in m.q + m.q_tilde if not is_zero(v)) == 1

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(12):
            coeffs = [gc(int(a), int(b)) for a, b in
                      rng.integers(-9, 9, size=(7, 2))]
            p = Poly(coeffs)
            m = self.basis.decompose(p)
            assert self.basis.reconstruct(m) == p

    def test_excess_degree_goes_to_remainder(self):
        p = Poly.monomial(8, gc(1))
        m = self.basis.decompose(p)
        assert not m.remainder.is_zero()
        assert self.basis.reconstruct(m) == p


class TestProjectSampled:
    def setup_method(self):
        self.basis = build_basis(6, F(3), F(1), F(1, 2))
        self.y = np.linspace(-40, 40, 8001)
        self.bf = BasisFloats(self.basis)

    def test_consistency_with_exact(self):
        f3 = poly_values(self.basis.f[3], self.y)
        m = project_sampled(f3, self.y, self.bf)
        assert abs(m.Q[3] - 1.0) < 1e-8
        assert max(abs(m.Q[n]) for n in range(7) if n != 3) < 1e-8

    def test_identity_decomposition(self):
        g = np.exp(-self.y**2).astype(complex)
        m = project_sampled(g, self.y, self.bf)
        recon = np.zeros_like(g)
        for n in range(7):
            recon += m.q[n] * poly_values(self.basis.h[n], self.y)
            recon += m.q_tilde[n] * poly_values(self.basis.h_tilde[n], self.y)
        resid = np.abs(recon + m.remainder - g)
        # roundoff scales with the high-degree basis values at the far edge
        assert np.max(resid[np.abs(self.y) <= 10]) < 1e-10
        assert np.max(resid) < 1e-8

    def test_trapezoid_matches_closed_form(self):
        # g = e^{-y^2/8} (1 + 0.3 i y^2) against rho_beta is a Gaussian
        # integral: int y^(2k) e^{-c y^2} dy = Gamma(k + 1/2) c^-(k + 1/2)
        # with c = 1/8 + 1/(4(1+i beta)), principal branch
        beta = 0.5
        g = np.exp(-(self.y**2) / 8.0) * (1.0 + 0.3j * self.y**2)
        m = project_sampled(g, self.y, self.bf)
        c = 0.125 + 0.25 / (1.0 + 1j * beta)
        pref = 1.0 / np.sqrt(4.0 * np.pi * (1.0 + 1j * beta))
        want = []
        for n in range(7):
            integrand = np.polymul(
                np.array(self.basis.f[n].to_complex_coeffs())[::-1],
                [0.3j, 0, 1])
            Q = sum(
                a * math.gamma(j / 2 + 0.5) * c ** -(j / 2 + 0.5)
                for j, a in enumerate(integrand[::-1]) if j % 2 == 0
            )
            want.append(pref * Q / self.bf.fnorm[n])
        want = np.array(want)
        err = np.max(np.abs(np.array(m.Q) - want))
        assert err <= 1e-13 * np.max(np.abs(want))

    def test_narrow_grid_rejected(self):
        y = np.linspace(-3, 3, 301)
        with pytest.raises(GridTooNarrow):
            project_sampled(np.ones_like(y, dtype=complex), y, self.bf)

    def test_nan_grid_rejected(self):
        # a NaN edge compares false against the tolerance either way round
        y = np.linspace(-np.nan, np.nan, 301)
        with pytest.raises(GridTooNarrow):
            self.bf.projector(y)

    def test_profile_unit_mode(self):
        # the profile core times the unit direction: qt0 -> kappa as s grows
        from cglblow.constants import derive_params
        from cglblow.profilefield import FloatParams, phi0

        pm = derive_params(3, 1)
        fp = FloatParams.from_exact(pm)
        s = 1e4
        samples = phi0(self.y / s**0.25, fp).astype(complex)
        m = project_sampled(samples, self.y, self.bf)
        assert abs(m.q_tilde[0] - fp.kappa) < 0.05 * fp.kappa

    def test_weighted_remainder_bound(self):
        # analog of the weighted projector bound: fitted constant is stable
        rng = np.random.default_rng(5)
        consts = []
        for _ in range(10):
            coeffs = rng.uniform(-1, 1, 8) + 1j * rng.uniform(-1, 1, 8)
            vals = np.polyval(coeffs, self.y)
            m = project_sampled(vals, self.y, self.bf)
            wt = 1.0 + np.abs(self.y) ** 7
            consts.append(
                np.max(np.abs(m.remainder) / wt) / np.max(np.abs(vals) / wt)
            )
        consts = np.array(consts)
        # C depends on the truncation degree (the excess eigenfunction has
        # large low-order coefficients); what matters is stability
        assert consts.max() < 2000.0
        assert consts.max() <= 4.0 * np.median(consts)


class TestGridProjector:
    """The projector's band against the full trapezoid matrix, whose rows
    w rho f_n / <f_n, f_n> evaluate the exact f_n by the per-mode oracle."""

    @pytest.fixture(scope="class", params=[
        (3, 1), (F(3, 2), F(1, 2)), (7, 4), (2, F(1, 3)),
    ], ids=lambda pd: f"p={pd[0]},delta={pd[1]}")
    def table(self, request):
        from cglblow.constants import derive_params

        pm = derive_params(*request.param)
        return build_basis(6, pm.p, pm.delta, pm.beta)

    @pytest.fixture(scope="class")
    def bf(self, table):
        return BasisFloats(table)

    @staticmethod
    def full_matrix(table, bf, y):
        rows = np.array([poly_values(f, y) for f in table.f])
        rows *= trapezoid_weights(y) * rho_weight(y, bf.beta)
        return rows / bf.fnorm[:, None]

    @pytest.mark.parametrize("N", [1024, 8192, 1001])
    def test_band_is_the_support(self, table, bf, N):
        y = np.linspace(-88.0, 88.0, N)
        full = self.full_matrix(table, bf, y)
        proj = bf.projector(y)
        assert np.array_equal(proj.powers, powers_table(y, 6))
        # the rows are the oracle's to rounding: the product with the
        # powers and Horner's rule each round at the row's largest entry
        err = np.abs(proj.rows - full[:, proj.band]).max(axis=1)
        assert np.all(err <= 4e-15 * np.abs(full).max(axis=1))
        assert proj.band.start == N - proj.band.stop
        mag = np.abs(full)
        cut = (2.0**-52 / N) * mag.max(axis=1)
        dropped = np.ones(N, dtype=bool)
        dropped[proj.band] = False
        assert np.all(mag[:, dropped] <= cut[:, None])
        # the band is the smallest one: both end columns are needed
        for j in (proj.band.start, proj.band.stop - 1):
            assert np.any(mag[:, j] > cut)

    @pytest.mark.parametrize("N", [1024, 8192, 1001])
    def test_band_Q_matches_full_matrix(self, table, bf, N):
        # to the rounding scale of a dot product: 1e-15 of the row's
        # absolute sum times max|q|
        y = np.linspace(-88.0, 88.0, N)
        full = self.full_matrix(table, bf, y)
        proj = bf.projector(y)
        row_sum = np.abs(full).sum(axis=1)
        rng = np.random.default_rng(N)
        noise = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        # the second field grows like the Jordan modes beyond the band
        for q in (noise, noise * (1.0 + np.abs(y)) ** 7):
            err = np.abs(proj @ q - full @ q)
            assert np.all(err <= 1e-15 * row_sum * np.max(np.abs(q)))


def convert_Q_loop(table, Q):
    """Float back-substitution (Q_n) -> (q_n, qt_n), the reference loop."""
    from cglblow.exact import to_complex

    M, delta = table.M, float(table.delta)
    h_in_f = [[to_complex(c) for c in row] for row in table.h_in_f]
    ht_in_f = [[to_complex(c) for c in row] for row in table.ht_in_f]
    adj = np.array(Q, dtype=complex)
    q, qt = np.zeros(M + 1), np.zeros(M + 1)
    for n in range(M, -1, -1):
        qt[n] = adj[n].real
        q[n] = adj[n].imag - delta * adj[n].real
        for j in range(n):
            hf = h_in_f[n][j] if j < len(h_in_f[n]) else 0.0
            tf = ht_in_f[n][j] if j < len(ht_in_f[n]) else 0.0
            adj[j] -= q[n] * hf + qt[n] * tf
    return q, qt


class TestConvertQ:
    @pytest.fixture(params=[6, 8])
    def table(self, request):
        return build_basis(request.param, F(3), F(1), F(1, 2))

    def test_matches_back_substitution(self, table):
        bf = BasisFloats(table)
        rng = np.random.default_rng(7)
        for _ in range(20):
            Q = rng.standard_normal(table.M + 1) + 1j * rng.standard_normal(table.M + 1)
            want = np.concatenate(convert_Q_loop(table, Q))
            got = np.concatenate(bf.convert_Q(Q))
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_matches_exact_decompose(self, table):
        bf = BasisFloats(table)
        rng = np.random.default_rng(8)
        for _ in range(5):
            coeffs = [gc(int(a), int(b)) for a, b in
                      rng.integers(-9, 9, size=(table.M + 1, 2))]
            m = table.decompose(Poly(coeffs))
            Q = np.array([complex(v) for v in m.Q])
            want = np.array([complex(v).real for v in m.q + m.q_tilde])
            got = np.concatenate(bf.convert_Q(Q))
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_real_linear(self, table):
        bf = BasisFloats(table)
        rng = np.random.default_rng(9)
        Q1, Q2 = rng.standard_normal((2, table.M + 1)) + 1j * rng.standard_normal(
            (2, table.M + 1))
        a, b = 0.7, -2.3
        got = np.concatenate(bf.convert_Q(a * Q1 + b * Q2))
        want = (a * np.concatenate(bf.convert_Q(Q1))
                + b * np.concatenate(bf.convert_Q(Q2)))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestSemigroupKernel:
    def test_point_value(self):
        v = semigroup_kernel(np.log(2.0), 0.0, 0.0, 0.0)
        assert abs(v - (2 * np.pi) ** -0.5) < 1e-14

    def test_long_time_limit(self):
        x = np.linspace(-3, 3, 7)
        v = semigroup_kernel(60.0, 1.7, x, 0.5)
        assert np.max(np.abs(v - rho_weight(x, 0.5))) < 1e-12

    def test_normalization(self):
        x = np.linspace(-60, 60, 40001)
        for s, yv in [(0.3, 0.0), (1.0, 2.5), (2.0, -4.0)]:
            val = np.trapezoid(semigroup_kernel(s, yv, x, 0.5), x)
            assert abs(val - 1.0) < 1e-10

    def test_eigen_decay_by_quadrature(self):
        beta = F(1, 2)
        x = np.linspace(-60, 60, 24001)
        f2 = np.polyval(hermite_f(2, beta).to_complex_coeffs()[::-1], x)
        y = np.linspace(-2, 2, 9)
        out = semigroup_apply(0.7, y, x, f2, 0.5)
        want = np.exp(-0.7) * np.polyval(
            hermite_f(2, beta).to_complex_coeffs()[::-1], y
        )
        assert np.max(np.abs(out - want)) < 1e-8


def semigroup_apply_loop(s, y, x, values, beta):
    """The per-row trapezoid loop, the reference for the banded product.

    ``values`` may stack several fields along its first axis; row i of the
    result holds their quadratures at y[i].
    """
    out = np.empty((len(y),) + np.shape(values)[:-1], dtype=complex)
    for i, yi in enumerate(y):
        out[i] = np.trapezoid(semigroup_kernel(s, yi, x, beta) * values, x)
    return out


def check_banded_quadrature(s, y, x, fields, beta):
    """Compare semigroup_apply with the row loop; check what the band drops.

    ``fields`` stacks one or more sampled fields on x.  For each, the
    banded product agrees with the loop to 1e-13 of each row's absolute sum
    of terms |K_ij w_j v_j|.  Every dropped term is at most 2**-52 / len(x)
    of its row's largest term (to rounding of the term itself), and both end
    columns of each band hold a term above that share in some row of the
    block.  Returns the banded results, one row per field.
    """
    y, x = np.asarray(y, dtype=float), np.asarray(x, dtype=float)
    fields = np.atleast_2d(fields)
    got = np.array([semigroup_apply(s, y, x, v, beta) for v in fields])
    want = semigroup_apply_loop(s, y, x, fields, beta).T
    wvs = trapezoid_weights(x) * fields
    row_sum = np.zeros(got.shape)
    # the blocks are the same for every field: one kernel per block
    for blocks in zip(*(kernel_bands(s, y, x, wv, beta) for wv in wvs)):
        rows = blocks[0][0]
        k = np.abs(semigroup_kernel(s, y[rows, None], x, beta))
        for m, (wv, (_, cols)) in enumerate(zip(wvs, blocks)):
            terms = k * np.abs(wv)
            row_sum[m, rows] = terms.sum(axis=1)
            cut = (2.0**-52 / len(x)) * terms.max(axis=1, keepdims=True)
            dropped = np.ones(len(x), dtype=bool)
            dropped[cols] = False
            assert np.all(terms[:, dropped] <= cut * (1 + 1e-9))
            if cols.stop > cols.start:
                for j in (cols.start, cols.stop - 1):
                    assert np.any(terms[:, j:j + 1] > cut * (1 - 1e-9))
            else:
                assert not np.any(terms)
    assert got.shape == want.shape == (len(fields), len(y))
    assert np.all(np.abs(got - want) <= 1e-13 * row_sum)
    return got


def f_samples(n, beta, x):
    coeffs = hermite_f(n, F(beta)).to_complex_coeffs()
    return np.polyval(np.array(coeffs)[::-1], x)


# the linear-modes grid: L = 16, dy = 0.01, evaluated on |y| <= 5
LINEAR_X = np.linspace(-16.0, 16.0, 3201)
LINEAR_Y = LINEAR_X[np.abs(LINEAR_X) <= 5.0]


class TestBandedSemigroupQuadrature:
    """semigroup_apply against the per-row trapezoid loop it replaced."""

    @pytest.mark.parametrize("s", [0.06, 0.5, 1.0])
    @pytest.mark.parametrize("beta", [0.25, 0.5, 1.0, 2.0])
    def test_linear_modes_grid(self, beta, s):
        # every fourth evaluation point keeps the row loop short
        modes = [f_samples(n, beta, LINEAR_X) for n in range(5)]
        check_banded_quadrature(s, LINEAR_Y[::4], LINEAR_X, modes, beta)

    def test_linear_modes_call(self):
        # the kernel check of the linear-modes run, point for point
        modes = [f_samples(n, 0.5, LINEAR_X) for n in range(5)]
        check_banded_quadrature(0.06, LINEAR_Y, LINEAR_X, modes, 0.5)

    def test_values_with_exact_zeros(self):
        x = np.linspace(-12.0, 12.0, 1201)
        f = f_samples(3, 0.5, x)
        f[x < -1.0] = 0.0
        f[::7] = 0.0
        check_banded_quadrature(0.3, np.linspace(-4, 4, 81), x, f, 0.5)

    def test_all_zero_values(self):
        x = np.linspace(-12.0, 12.0, 1201)
        y = np.linspace(-4, 4, 81)
        zero = np.zeros(len(x), dtype=complex)
        (got,) = check_banded_quadrature(0.3, y, x, zero, 0.5)
        assert np.array_equal(got, np.zeros(len(y)))
        for _, cols in kernel_bands(0.3, y, x, zero, 0.5):
            assert cols.stop == cols.start

    def test_non_uniform_x(self):
        x = 4.0 * np.sinh(np.linspace(-2.0, 2.0, 1501))
        f = f_samples(2, 1.0, x)
        check_banded_quadrature(0.7, np.linspace(-3, 3, 61), x, f, 1.0)

    @pytest.mark.parametrize("y", [[], [1.25]], ids=["no-point", "one-point"])
    def test_few_evaluation_points(self, y):
        x = np.linspace(-12.0, 12.0, 1201)
        check_banded_quadrature(0.5, y, x, f_samples(4, 2.0, x), 2.0)

    @pytest.mark.parametrize("bad", [
        {"s": 0.0}, {"s": -0.5}, {"s": np.nan}, {"s": np.inf},
        {"x": np.array([0.0]), "values": np.ones(1)},
        {"x": np.array([0.0, 1.0, 1.0, 2.0]), "values": np.ones(4)},
        {"x": np.linspace(1, -1, 5)},
        {"x": np.array([0.0, np.nan, 2.0]), "values": np.ones(3)},
        {"values": np.ones(4)},
        {"values": np.array([1.0, np.nan, 1.0, 1.0, 1.0])},
        {"y": np.array([0.0, np.inf])},
        {"beta": np.nan},
    ], ids=["s=0", "s<0", "s=nan", "s=inf", "one-point", "repeated-point",
            "decreasing", "nan-point", "values-short", "nan-value",
            "inf-y", "nan-beta"])
    def test_bad_input_raises_before_work(self, monkeypatch, bad):
        import cglblow.spectral as spectral

        def no_work(*a, **k):
            raise AssertionError("work started before validation")

        for name in ("trapezoid_weights", "kernel_bands", "semigroup_kernel"):
            monkeypatch.setattr(spectral, name, no_work)
        args = dict(s=0.5, y=np.zeros(3), x=np.linspace(-1, 1, 5),
                    values=np.ones(5), beta=0.5)
        with pytest.raises(ValueError):
            spectral.semigroup_apply(**dict(args, **bad))

    def test_good_input_passes_the_checks(self):
        got = semigroup_apply(0.5, np.zeros(3), np.linspace(-1, 1, 5),
                              np.ones(5), 0.5)
        assert got.shape == (3,) and np.all(np.isfinite(got))


class TestPrintedTableFidelity:
    @pytest.mark.parametrize("p,d", [
        (F(3), F(1)), (F(2), F(1)), (F(3, 2), F(2)), (F(3), F(2)),
        (F(7), F(3)), (F(4), F(3, 2)),
    ])
    def test_constructed_equals_printed_with_documented_corrections(self, p, d):
        from cglblow.constants import derive_params
        from cglblow.verify import (
            printed_basis_corrections,
            printed_basis_table,
        )

        pm = derive_params(p, d)
        basis = build_basis(6, pm.p, pm.delta, pm.beta)
        hp, htp = printed_basis_table(pm.p, pm.delta, pm.beta)
        corr = printed_basis_corrections(pm.beta, pm.delta)
        for n, printed in hp.items():
            want = printed + (Poly([corr[("h", 6, 0)]]) if n == 6 else Poly([]))
            assert basis.h[n] == want
        for n, printed in htp.items():
            want = printed + (Poly([corr[("ht", 6, 0)]]) if n == 6 else Poly([]))
            assert basis.h_tilde[n] == want
        if d == 1:
            # the misprints vanish at delta = 1: literal fidelity there
            assert basis.h[6] == hp[6] and basis.h_tilde[6] == htp[6]
