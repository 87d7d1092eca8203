"""Float evaluation of the profile, potentials, nonlinearity and rest term."""

from dataclasses import replace

import numpy as np
import pytest
from conftest import poly_values

from cglblow.constants import derive_params, mu_critical, shrink_combo_constants
from cglblow.profilefield import (
    FloatParams,
    InitialData,
    InitialDataSpec,
    cutoff_chi,
    cutoff_chi0,
    initial_data,
    nonlinear_B,
    one_minus_chi0,
    phi,
    phi0,
    potentials,
    rest_R,
    rest_Rstar,
)
from cglblow.simulate import SimConfig
from cglblow.spectral import BasisFloats, build_basis


@pytest.fixture(scope="module")
def pm():
    pm = derive_params(3, 1)
    return pm.with_mu(mu_critical(pm).mu)


@pytest.fixture(scope="module")
def fp(pm):
    return FloatParams.from_exact(pm)


def _phi0_bare(z, fp):
    """(p-1+b z^2)^(-(1+i delta)/(p-1)), the bare power normalization."""
    base = fp.p - 1.0 + fp.b * np.asarray(z, dtype=float) ** 2
    return np.exp(-(1.0 + 1j * fp.delta) / (fp.p - 1.0) * np.log(base))


class TestFloatParams:
    def test_off_critical_beta_raises(self, fp):
        with pytest.raises(ValueError, match="critical condition"):
            replace(fp, beta=fp.beta * (1.0 + 1e-12))

    @pytest.mark.parametrize("field", [phi, rest_R])
    @pytest.mark.parametrize("s", [1.0, float("nan")])
    def test_s_must_exceed_one(self, fp, field, s):
        with pytest.raises(ValueError, match="s must exceed 1"):
            field(np.array([0.0]), fp, s)


class TestProfile:
    def test_bare_value_at_zero(self, fp):
        v = _phi0_bare(0.0, fp)
        want = (fp.p - 1.0) ** (-(1.0 + 1j * fp.delta) / (fp.p - 1.0))
        assert abs(v - want) < 1e-15
        assert abs(abs(v) - fp.kappa) < 1e-15

    def test_working_value_at_zero_is_kappa(self, fp):
        assert abs(phi0(0.0, fp) - fp.kappa) < 1e-15

    def test_same_modulus_both_normalizations(self, fp):
        z = np.linspace(0, 30, 301)
        assert np.max(np.abs(np.abs(phi0(z, fp)) - np.abs(_phi0_bare(z, fp)))) < 1e-14

    def test_modulus_law(self, fp):
        # |phi0|^2 = 1/(2 + b z^2) at the cubic nonlinearity
        z = np.linspace(0, 20, 101)
        got = np.abs(phi0(z, fp)) ** 2
        assert np.max(np.abs(got - 1.0 / (2.0 + fp.b * z**2))) < 1e-14

    def test_decay(self, fp):
        vals = np.abs(phi(np.array([0.0, 10.0, 40.0, 80.0]), fp, 100.0))
        assert np.all(np.diff(vals) < 0)

    def test_profile_equation_residual(self, fp):
        # phi0 solves the stationary inner equation to near machine precision
        z = np.linspace(-10, 10, 2001)
        h = z[1] - z[0]
        p0 = phi0(z, fp)
        dz = np.gradient(p0, h)
        cd = 1.0 + 1j * fp.delta
        resid = (
            -0.5 * z * dz
            - cd / (fp.p - 1.0) * p0
            + cd * np.abs(p0) ** (fp.p - 1.0) * p0
        )
        # central-difference error dominates: O(h^2 phi''')
        assert np.max(np.abs(resid[2:-2])) < 5e-6
        # and exactly (closed-form derivative) at a few points
        from cglblow.profilefield import _phi0_derivs

        p0v, zp, _ = _phi0_derivs(z, fp)
        resid2 = (
            -0.5 * zp - cd / (fp.p - 1.0) * p0v
            + cd * np.abs(p0v) ** (fp.p - 1.0) * p0v
        )
        assert np.max(np.abs(resid2)) < 1e-12


class TestPotentials:
    def test_large_s_limit(self, fp):
        v1, v2 = potentials(np.array([0.0, 1.0]), fp, 1e8)
        assert np.max(np.abs(v1)) < 1e-3

    def test_far_field_limit(self, fp):
        v1, _ = potentials(np.array([1e6]), fp, 100.0)
        want = -(1.0 + 1j * fp.delta) * (fp.p + 1.0) / (2.0 * (fp.p - 1.0))
        assert abs(v1[0] - want) < 1e-3

    @pytest.mark.parametrize("i", [0, 1])
    def test_taylor_envelope(self, pm, fp, i):
        # |V_i - W_i1/sqrt(s) - W_i2/s| <= C (1+|y|^6)/s^(3/2), C stable
        from cglblow.constants import potential_polys
        from cglblow.exact import to_complex

        wt = potential_polys(pm)
        W1 = (wt.W11, wt.W21)[i]
        W2 = (wt.W12, wt.W22)[i]
        consts = []
        for s in (1e3, 1e4, 1e5):
            y = np.linspace(0, 0.98 * s**0.25, 400)
            v = potentials(y, fp, s)[i]
            t1 = np.polyval(np.array(W1.to_complex_coeffs())[::-1], y)
            t2 = np.polyval(np.array(W2.to_complex_coeffs())[::-1], y)
            resid = np.abs(v - t1 / np.sqrt(s) - t2 / s)
            consts.append(np.max(resid * s**1.5 / (1.0 + np.abs(y) ** 6)))
        consts = np.array(consts)
        assert consts.max() <= 2.0 * consts.min()


class TestNonlinearB:
    def test_zero_at_zero(self, fp):
        B = nonlinear_B(np.zeros(3, complex), np.zeros(3), fp, 100.0)
        assert B.tolist() == [0, 0, 0]

    def test_quadratic_bound_inner(self, fp):
        rng = np.random.default_rng(0)
        K = 12.0
        y = np.linspace(-2 * K * 100**0.25, 2 * K * 100**0.25, 2001)
        consts = []
        for amp in (1e-3, 1e-2, 1e-1, 1.0):
            q = amp * (rng.uniform(-1, 1, len(y)) + 1j * rng.uniform(-1, 1, len(y)))
            B = nonlinear_B(q, y, fp, 100.0)
            consts.append(np.max(np.abs(B) / np.abs(q) ** 2))
        assert max(consts) < 50.0
        assert max(consts) <= 5.0 * min(consts)

    def test_outer_power_bound(self, fp):
        # |B| <= C |q|^min(p,2) in the outer region
        y = np.linspace(1.2 * 100**0.25, 50, 501)
        for amp in (1e-2, 1e-1):
            q = amp * np.exp(1j * y)
            B = nonlinear_B(q, y, fp, 100.0)
            pbar = min(fp.p, 2.0)
            assert np.max(np.abs(B) / np.abs(q) ** pbar) < 50.0


class TestRest:
    def test_sqrt_s_law(self, fp):
        vals = []
        for s in (25.0, 100.0, 400.0):
            y = np.linspace(-80, 80, 4001)
            vals.append(np.sqrt(s) * np.max(np.abs(rest_R(y, fp, s))))
        vals = np.array(vals)
        assert vals.max() <= 2.0 * vals.min()

    def test_rstar_bound(self, fp):
        for s in (25.0, 100.0):
            for tp in (0.0, 1e-3):
                y = np.linspace(-60, 60, 2001)
                bound = 2.0 * (vmax := np.max(np.abs(rest_R(y, fp, s)))) + abs(tp)
                assert np.max(np.abs(rest_Rstar(y, fp, s, tp))) <= bound + 1e-12

    def test_expansion_envelope(self, pm, fp):
        # R* minus its two leading orders obeys the (1+y^4)/s^(3/2) envelope
        from cglblow.constants import rest_series
        from cglblow.exact import to_complex

        rstar, theta_hat = rest_series(pm, pm.mu)
        kap = fp.kappa
        p0 = np.array(rstar.t_coefficient(1).to_complex_coeffs()) * kap
        p1 = np.array(rstar.t_coefficient(2).to_complex_coeffs()) * kap
        consts = []
        for s in (1e3, 1e4, 1e5):
            y = np.linspace(0, 0.98 * s**0.25, 300)
            r = rest_Rstar(y, fp, s)
            lead = (
                np.polyval(p0[::-1], y) / np.sqrt(s)
                + np.polyval(p1[::-1], y) / s
            )
            resid = np.abs(r - lead)
            consts.append(np.max(resid * s**1.5 / (1.0 + y**4)))
        consts = np.array(consts)
        assert consts.max() <= 2.0 * consts.min()

    def test_theta_prime_multiplier(self, pm, fp):
        # d R*/d theta' = -i phi, and its expansion starts at -i kappa
        y = np.linspace(-5, 5, 11)
        diff = (rest_Rstar(y, fp, 400.0, 1e-4)
                - rest_Rstar(y, fp, 400.0, 0.0)) / 1e-4
        assert np.max(np.abs(diff + 1j * phi(y, fp, 400.0))) < 1e-10


class TestCutoff:
    def test_plateau_and_support(self):
        assert cutoff_chi0(np.array([0.0, 0.5, 1.0])).tolist() == [1, 1, 1]
        assert cutoff_chi0(np.array([2.0, 3.0])).tolist() == [0, 0]
        mid = cutoff_chi0(np.array([1.5]))[0]
        assert 0 < mid < 1

    def test_monotone(self):
        xs = np.linspace(0, 3, 301)
        vals = cutoff_chi0(xs)
        assert np.all(np.diff(vals) <= 1e-14)

    def test_scaled(self):
        s, K = 100.0, 12.0
        y = np.array([0.5 * K * s**0.25, 2.5 * K * s**0.25])
        v = cutoff_chi(y, s, K)
        assert v[0] == 1.0 and v[1] == 0.0

    def test_K_validation(self):
        with pytest.raises(ValueError):
            cutoff_chi(np.array([0.0]), 100.0, 0.5)

    @pytest.mark.parametrize("s", [100.0, 100.37, 104.9995])
    def test_squared_complement_matches_the_masked_form(self, s):
        # the oracle is the masked form: 1 on xi <= 1, 0 on xi >= 2 and
        # 1 - u^3 (10 - 15 u + 6 u^2) on the blend, then 1 - chi
        K = 12.0
        y = np.linspace(0.0, 3.0 * K * s**0.25, 200001)
        xi = y / (K * s**0.25)
        got = one_minus_chi0(xi) ** 2
        assert np.all(got[xi <= 1.0] == 0.0)
        assert np.all(got[xi >= 2.0] == 1.0)
        blend = (xi > 1.0) & (xi < 2.0)
        u = xi[blend] - 1.0
        chi = 1.0 - u**3 * (10.0 - 15.0 * u + 6.0 * u**2)
        # 1 - chi is formed at the scale of 1, so compare on it
        eps = np.finfo(float).eps
        assert np.max(np.abs(got[blend] - (1.0 - chi) ** 2)) <= 4 * eps

    def test_complement_of_nan_and_scalars(self):
        assert np.isnan(one_minus_chi0(np.array([np.nan]))[0])
        assert one_minus_chi0(0.5) == 0.0 and one_minus_chi0(2.5) == 1.0


@pytest.fixture(scope="module")
def machinery(pm):
    basis = build_basis(6, pm.p, pm.delta, pm.beta)
    combos = shrink_combo_constants(pm, basis)
    fp = FloatParams.from_exact(pm)
    bf = BasisFloats(basis)
    y = np.linspace(-88, 88, 4097)
    cfg = SimConfig(params=pm, s0=100.0, K=12.0, A=20.0)
    return cfg, combos.float_map(fp.kappa), bf, y


class TestInitialData:

    def test_unit_projection_killed(self, machinery):
        cfg, combos, bf, y = machinery
        from cglblow.spectral import project_sampled

        spec = InitialDataSpec(d0_tilde=0.7, d1_tilde=-0.4)
        data = initial_data(spec, cfg, combos, bf, y, bf.projector(y))
        q0 = project_sampled(data.psi, y, bf).q[0]
        assert abs(q0) < 1e-10

    def test_outer_support_empty(self, machinery):
        cfg, combos, bf, y = machinery
        spec = InitialDataSpec(d0_tilde=1.0, d1_tilde=1.0)
        data = initial_data(spec, cfg, combos, bf, y, bf.projector(y))
        outside = np.abs(y) > 12.0 * 100.0**0.25
        assert np.max(np.abs(data.psi[outside])) == 0.0

    def test_d0_decays_with_s0(self, machinery):
        cfg, combos, bf, y = machinery
        spec = InitialDataSpec(d0_tilde=1.0, d1_tilde=1.0)
        d0s = []
        for s0 in (100.0, 400.0):
            d0s.append(abs(initial_data(spec, replace(cfg, s0=s0), combos, bf,
                                        y, bf.projector(y)).d0))
        assert d0s[1] < d0s[0]

    @pytest.mark.parametrize("d0t, d1t", [(0.7, -0.4), (-2.0, 2.0)])
    def test_psi_matches_the_oracle(self, machinery, pm, d0t, d1t):
        # the body written out mode by mode on the exact basis, and d0 from
        # the same projector
        cfg, combos, bf, y = machinery
        basis = build_basis(6, pm.p, pm.delta, pm.beta)
        s0, A = cfg.s0, cfg.A
        body = (
            (A / s0**1.75 * d0t + combos["At0"] / s0)
            * poly_values(basis.h_tilde[0], y)
            + A / s0**1.5 * d1t * poly_values(basis.h_tilde[1], y)
            + combos["At2"] / s0 * poly_values(basis.h_tilde[2], y)
            + combos["A2"] / s0 * poly_values(basis.h[2], y)
        )
        chi2 = cutoff_chi(2.0 * y, s0, cfg.K)
        proj = bf.projector(y)

        def p0(field):
            return bf.convert_Q(proj @ field)[0][0]

        want = (body - 1j * p0(body * chi2) / p0(1j * chi2)) * chi2
        got = initial_data(InitialDataSpec(d0t, d1t), cfg, combos, bf, y,
                           proj).psi
        assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(want))

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            InitialDataSpec(d0_tilde=3.0, d1_tilde=0.0)
