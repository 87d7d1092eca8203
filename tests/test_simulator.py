"""Time stepping, modulation, diagnostics, shooting, final profile."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from conftest import poly_values

from cglblow.constants import derive_params, mu_critical
from cglblow.profilefield import InitialDataSpec, cutoff_chi, phi, rest_Rstar
from cglblow.simulate import (
    SimConfig,
    SimState,
    Simulator,
    _nearest_root,
    final_profile,
    kernel_stride,
    linear_eigenmode_error,
)
from cglblow.stepping import KERNELS, Stepper
from cglblow.spectral import (
    GridTooNarrow,
    build_basis,
    hermite_f,
    powers_table,
    project_sampled,
    semigroup_apply,
)


@pytest.fixture(scope="module")
def pm():
    pm = derive_params(3, 1)
    return pm.with_mu(mu_critical(pm).mu)


def cn_rhs_expression(w, prev, y, h, beta, half_ds, c_new, c_old, order,
                      reaction):
    """The explicit side written out from the stencils, the oracle for
    ``cn_rhs``, which reads the same operator from the Stepper's bands."""
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
    if reaction is not None:
        p, delta = reaction
        cd = 1.0 + 1j * delta
        mod2 = w.real**2 + w.imag**2
        pm1h = (p - 1.0) / 2.0
        pw = mod2 if pm1h == 1.0 else mod2**pm1h
        inner = cd * (pw - 1.0 / (p - 1.0)) * w
        react[1:-1] = inner[1:-1]
    if prev is None:  # no previous step's reaction term
        prev = np.zeros(n, dtype=np.complex128)
    rhs = w + half_ds * lin + c_new * react + c_old * prev
    rhs[0] = w[0]
    rhs[-1] = w[-1]
    return rhs, react


# ids of the stepping cases: the scheme they run, by its config name, then
# the space order
IMEX2_IDS = ["imex2-2", "imex2-4"]


def small_config(pm, **kw):
    defaults = dict(
        params=pm, L=88.0, N=2048, ds=1e-3, s0=100.0, s_end=100.5,
        K=12.0, A=20.0,
    )
    defaults.update(kw)
    return SimConfig(**defaults)


def one_row(w, s, theta):
    """The field ``w`` at s as a one-row block, before any modulation."""
    return SimState(w=w[None], s=s, theta=np.array([theta]),
                    no_root=np.ones(1, dtype=bool))


class TestStepper:
    def test_scheme_order(self):
        # global error ratio on the decaying eigenmode reference
        errs = [
            linear_eigenmode_error(2, 0.5, L=12.0, dy=0.02, ds=ds, s_end=0.5,
                                   space_order=4)[0]
            for ds in (4e-3, 2e-3)
        ]
        r2 = errs[0] / errs[1]
        assert 3.2 < r2 < 4.8

    def test_reaction_has_no_default(self):
        with pytest.raises(TypeError, match="reaction"):
            Stepper(np.linspace(-1.0, 1.0, 9), 1e-3, 0.5)

    @pytest.mark.parametrize("space_order", [2, 4], ids=IMEX2_IDS)
    def test_factored_solve_matches_solve_banded(self, space_order):
        from scipy.linalg import solve_banded

        y = np.linspace(-30, 30, 801)
        w0 = np.exp(-(y**2) / 4.0).astype(complex)
        stp = Stepper(y, 1e-3, 0.5, reaction=(3.0, 1.0),
                      space_order=space_order)
        ref = Stepper(y, 1e-3, 0.5, reaction=(3.0, 1.0),
                      space_order=space_order)
        nb, bands = space_order // 2, ref._bands()
        ref._solve = lambda fact, rhs: solve_banded((nb, nb), bands, rhs)
        w = w_ref = w0
        prev = prev_ref = None
        for _ in range(50):
            w, prev = stp.step(w, prev, 0.1, -0.2j)
            w_ref, prev_ref = ref.step(w_ref, prev_ref, 0.1, -0.2j)
        assert np.max(np.abs(w - w_ref)) < 1e-12

    @pytest.mark.parametrize("space_order", [2, 4])
    def test_bands_match_explicit_stencil(self, space_order):
        # Crank-Nicolson: (I - ds/2 L) w + (I + ds/2 L) w = 2 w on the
        # interior rows, with the implicit side read from the bands and the
        # explicit side from cn_rhs
        rng = np.random.default_rng(3)
        y = np.linspace(-30, 30, 801)
        w = rng.standard_normal(len(y)) + 1j * rng.standard_normal(len(y))
        stp = Stepper(y, 1e-3, 0.5, reaction=None,
                      space_order=space_order)
        nb, bands = space_order // 2, stp._bands()
        implicit = np.zeros_like(w)
        for k in range(-nb, nb + 1):  # entries (i, i + k) sit at row nb - k
            if k >= 0:
                implicit[:len(w) - k] += bands[nb - k, k:] * w[k:]
            else:
                implicit[-k:] += bands[nb - k, :k] * w[:k]
        explicit, _ = KERNELS.cn_rhs(w, 0 * w, stp._op, 0.5e-3, 0.0, 0.0,
                                     None)
        assert np.max(np.abs(implicit + explicit - 2 * w)[1:-1]) < 1e-12
        assert np.array_equal(implicit[[0, -1]], w[[0, -1]])

    @pytest.mark.parametrize("space_order", [2, 4])
    def test_cn_rhs_keeps_a_constant_field(self, space_order):
        # every row of L_h sums to zero, so its action on a constant is
        # exactly zero and the reaction-free explicit side is the identity
        # (a product that also reads the diagonal leaves rounding residue
        # on this grid at both orders)
        y = np.linspace(-16, 16, 3201)
        stp = Stepper(y, 1e-3, 0.5, reaction=None,
                      space_order=space_order)
        w = np.full(len(y), 0.7 - 1.3j)
        rhs, react = KERNELS.cn_rhs(w, 0 * w, stp._op, 0.5e-3, 0.0, 0.0,
                                    None)
        assert np.array_equal(rhs, w)
        assert react is None

    @pytest.mark.parametrize("reaction", [
        (3.0, 1.0), (2.0, 1.0), (1.5, 1.0), None,
    ], ids=["3.0", "2.0", "1.5", "no-reaction"])
    @pytest.mark.parametrize("space_order", [2, 4], ids=IMEX2_IDS)
    def test_cn_rhs_matches_expression_form(self, space_order, reaction,
                                            monkeypatch):
        # every call of a short run (a first step, then Adams-Bashforth
        # steps) agrees with the expression form to rounding; the reaction
        # term is the same to the bit, and absent (None) without reaction
        diffs = []
        banded = KERNELS.cn_rhs
        y = np.linspace(-30, 30, 801)

        def both(w, prev, op, half_ds, c_new, c_old, reaction):
            rhs, react = banded(w, prev, op, half_ds, c_new, c_old, reaction)
            want, want_react = cn_rhs_expression(
                w, prev, y, y[1] - y[0], 0.5, half_ds, c_new, c_old,
                space_order, reaction)
            if reaction is not None:
                assert np.array_equal(react, want_react)
            else:
                assert react is None
            diffs.append(np.max(np.abs(rhs - want)) / np.max(np.abs(want)))
            return rhs, react

        monkeypatch.setattr(KERNELS, "cn_rhs", both)
        rng = np.random.default_rng(4)
        w = np.exp(-(y**2) / 16.0) * (1.0 + 0.3j) + 0.1 * (
            rng.standard_normal(len(y)) + 1j * rng.standard_normal(len(y))
        )
        stp = Stepper(y, 1e-3, 0.5, reaction=reaction,
                      space_order=space_order)
        prev = None
        for _ in range(3):
            w, prev = stp.step(w, prev, 0.1, -0.2j)
        assert len(diffs) == 3 and max(diffs) <= 1e-15

    @pytest.mark.parametrize("factor, rows", [
        (KERNELS.tri_factor, 3), (KERNELS.penta_factor, 5),
    ])
    def test_singular_matrix_raises(self, factor, rows):
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            factor(np.zeros((rows, 8), dtype=np.complex128))

    def test_linear_eigen_decay(self):
        rel, _ = linear_eigenmode_error(2, 0.5, L=12.0, dy=0.02, ds=1e-3,
                                        s_end=1.0)
        assert rel < 1e-4


class TestBlockStepping:
    """A (k, N) field steps each row as its own 1-D field would, bit for bit."""

    @pytest.mark.parametrize("space_order", [2, 4], ids=IMEX2_IDS)
    def test_rows_step_as_single_fields(self, space_order):
        rng = np.random.default_rng(7)
        y = np.linspace(-30, 30, 801)
        k = 4
        w = np.exp(-(y**2) / 40.0) * (
            1.0 + 0.1 * rng.standard_normal((k, len(y)))
            + 0.1j * rng.standard_normal((k, len(y))))

        # one Stepper steps the block and every row alone
        stp = Stepper(y, 1e-3, 0.5, reaction=(3.0, 1.0),
                      space_order=space_order)
        alone, alone_prev, prev = list(w), [None] * k, None
        rows = np.arange(k)
        for it in range(6):  # AB2 history on both sides of the drop
            bc = 0.1 * (rows + 1) - 0.2j
            w, prev = stp.step(w, prev, bc, -bc)
            for j, r in enumerate(rows):
                alone[r], alone_prev[r] = stp.step(alone[r], alone_prev[r],
                                                   bc[j], -bc[j])
                assert np.array_equal(w[j], alone[r]), (it, r)
            if it == 2:
                keep = rows != 1
                rows, w = rows[keep], w[keep]
                prev = None if prev is None else prev[keep]
        assert w.shape == (k - 1, len(y)) and w.flags.c_contiguous


class TestRunBlock:
    """``run_block`` steps runs as the rows of one field; each row is the
    pair's run alone, bit for bit."""

    # (2, 2) exits on step 1, (1, 0) on step 2, the midline pairs stay in
    PAIRS = [(2.0, 2.0), (0.0, 0.0), (1.0, 0.0), (0.0, 0.5), (0.0, 0.0)]

    @pytest.fixture(scope="class")
    def sim(self, pm):
        return Simulator(small_config(pm, N=1024, s_end=100.03))

    @pytest.mark.parametrize("stop_on_exit", [True, False])
    def test_rows_equal_single_runs(self, sim, stop_on_exit):
        specs = [InitialDataSpec(*d) for d in self.PAIRS]
        block = sim.run_block(specs, stop_on_exit)
        assert len(block) == len(specs)
        for spec, got in zip(specs, block):
            want = sim.run(spec, stop_on_exit)
            assert list(got.history) == list(want.history) == sim.columns
            for name in sim.columns:
                assert np.array_equal(got.history[name], want.history[name],
                                      equal_nan=True), (spec, name)
            assert np.array_equal(got.report.ratios, want.report.ratios)
            assert got.report.exit_s == want.report.exit_s
            assert got.report.exit_component == want.report.exit_component
            assert got.state.w.shape == (1, sim.config.N)
            assert np.array_equal(got.state.w, want.state.w)
            assert got.state.s == want.state.s
            assert np.array_equal(got.state.theta, want.state.theta)
        lengths = [len(r.history["s"]) for r in block]
        if stop_on_exit:
            # the exiting rows left the block on their exit records
            assert lengths[0] == 2 and lengths[2] == 3
            assert lengths[1] == lengths[3] == lengths[4] == 31
        else:
            assert lengths == [31] * len(specs)
        assert block[0].report.exit_s == 100.001

    def test_step_after_runs_equals_a_fresh_step(self, pm):
        # the two-step history is the state's, so runs of other pairs, one
        # alone or three in a block, leave nothing behind for a new state
        cfg = small_config(pm, N=1024, s_end=100.03)

        def first_step(sim):
            st = sim.initial_state(InitialDataSpec(0.0, 0.0))
            sim.modulate(st)
            return sim.step(st).w

        want = first_step(Simulator(cfg))
        used = Simulator(cfg)
        used.run(InitialDataSpec(0.0, 0.5))
        assert np.array_equal(first_step(used), want)
        used.run_block([InitialDataSpec(*d) for d in self.PAIRS[1:4]])
        assert np.array_equal(first_step(used), want)

    def test_no_root_row_fails_alone(self, sim, monkeypatch):
        # row 1 starts at w = 0, where q_0 = -(unit coordinate of phi)
        # has no root for any theta
        zero = InitialDataSpec(0.0, 0.5)
        start = sim.initial_state
        monkeypatch.setattr(sim, "initial_state", lambda spec: one_row(
            np.zeros(sim.config.N, dtype=complex), sim.config.s0, 0.0)
            if spec is zero else start(spec))
        pair = InitialDataSpec(0.0, 0.0)
        ok, failed = sim.run_block([pair, zero], stop_on_exit=False)
        assert not ok.history["modulation_failed"].any()
        assert failed.history["modulation_failed"][:3].all()
        assert np.all(failed.history["theta"][:3] == 0.0)
        want = sim.run(pair, stop_on_exit=False)
        for name in sim.columns:
            assert np.array_equal(ok.history[name], want.history[name])

    def test_modulate_marks_the_row_without_a_root(self, sim):
        w = sim.initial_state(InitialDataSpec(0.0, 0.5)).w[0]
        single = one_row(w.copy(), sim.config.s0, 0.0)
        assert sim.modulate(single) is True
        block = SimState(w=np.stack([w, np.zeros_like(w)]), s=sim.config.s0,
                         theta=np.array([0.0, 0.3]),
                         no_root=np.ones(2, dtype=bool))
        assert sim.modulate(block) is False
        assert list(block.no_root) == [False, True]
        assert block.theta[0] == single.theta[0] and block.theta[1] == 0.3
        # the diagnostics read the flag off the state
        row, _ = sim.diagnose(block, 0.0)
        assert list(row[:, sim.columns.index("modulation_failed")]) == [0, 1]

    def test_non_finite_row_raises(self, sim, monkeypatch):
        bad = InitialDataSpec(0.0, 0.5)
        start = sim.initial_state

        def nan_row(spec):
            st = start(spec)
            if spec is bad:
                st.w[0, sim.config.N // 2] = np.nan
            return st

        monkeypatch.setattr(sim, "initial_state", nan_row)
        with pytest.raises(FloatingPointError, match="blow-up"):
            sim.run_block([InitialDataSpec(0.0, 0.0), bad])


def scipy_lapack_solve(bands, rhs):
    """Factor and solve with ``scipy.linalg.lapack`` imported the usual way."""
    from scipy.linalg import lapack

    if len(bands) == 3:
        *fact, info = lapack.zgttrf(bands[2, :-1], bands[1], bands[0, 1:])
        assert info == 0
        x, info = lapack.zgttrs(*fact, rhs)
    else:
        ab = np.zeros((7, bands.shape[1]), dtype=np.complex128)
        ab[2:] = bands
        lu, ipiv, info = lapack.zgbtrf(ab, 2, 2)
        assert info == 0
        x, info = lapack.zgbtrs(lu, 2, 2, rhs, ipiv)
    assert info == 0
    return x


class TestLapackLoader:
    def test_run_path_leaves_scipy_linalg_unimported(self):
        code = """if True:
            import sys
            import cglblow.cli, cglblow.simulate, cglblow.shooting
            from cglblow.stepping import Stepper
            import numpy as np

            y = np.linspace(-10, 10, 201)
            for order in (2, 4):
                stp = Stepper(y, 1e-3, 0.5, reaction=(3.0, 1.0),
                              space_order=order)
                w, _ = stp.step(np.exp(-y**2).astype(complex), None, 0.1,
                                -0.2j)
                assert np.all(np.isfinite(w))
            assert "scipy.linalg" not in sys.modules
        """
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    @staticmethod
    def solves(space_order):
        """(rhs, Stepper solve) pairs on a Stepper's own bands."""
        rng = np.random.default_rng(5)
        y = np.linspace(-30, 30, 801)
        stp = Stepper(y, 1e-3, 0.5, reaction=(3.0, 1.0),
                      space_order=space_order)
        out = []
        for _ in range(3):
            rhs = rng.standard_normal(len(y)) + 1j * rng.standard_normal(len(y))
            out.append((rhs, stp._solve(stp._fact, rhs)))
        return stp._bands(), out

    @pytest.mark.parametrize("space_order", [2, 4])
    def test_solves_match_scipy_lapack_bit_for_bit(self, space_order):
        bands, solved = self.solves(space_order)
        for rhs, x in solved:
            assert np.array_equal(x, scipy_lapack_solve(bands, rhs))

    @pytest.mark.parametrize("shape", ["one right side", "three"])
    def test_penta_solve_matches_zgbtrs_under_interior_interchanges(self,
                                                                    shape):
        # a Stepper's bands interchange at most row 0; random bands
        # interchange rows all along and fill U's two extra bands
        from scipy.linalg import lapack

        rng = np.random.default_rng(11)
        for n in (9, 120, 401):
            bands = (rng.standard_normal((5, n))
                     + 1j * rng.standard_normal((5, n)))
            bands[2, rng.random(n) < 0.5] *= 8.0
            ab = np.zeros((7, n), dtype=np.complex128)
            ab[2:] = bands
            _, ipiv, _ = lapack.zgbtrf(ab, 2, 2)
            assert np.count_nonzero(ipiv[1:] != np.arange(1, n)) >= n // 5
            size = (n,) if shape == "one right side" else (n, 3)
            rhs = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            x = KERNELS.penta_solve_factored(KERNELS.penta_factor(bands), rhs)
            assert np.array_equal(x, scipy_lapack_solve(bands, rhs))

    @pytest.mark.parametrize("space_order", [2, 4])
    @pytest.mark.parametrize("found", ["nothing", "a broken file"])
    def test_fallback_gives_the_same_solves(self, space_order, found,
                                            tmp_path, monkeypatch):
        from scipy.linalg import lapack

        located = None
        if found == "a broken file":
            broken = tmp_path / "_flapack.so"
            broken.write_bytes(b"not a shared object")
            located = str(broken)
        fallback = KERNELS._load_lapack(lambda: located)
        assert fallback is lapack and KERNELS.lapack is not lapack
        direct = self.solves(space_order)[1]
        monkeypatch.setattr(KERNELS, "lapack", fallback)
        via_fallback = self.solves(space_order)[1]
        for (rhs, x), (rhs_f, x_f) in zip(direct, via_fallback):
            assert np.array_equal(rhs, rhs_f) and np.array_equal(x, x_f)


def test_fourth_order_needs_five_points(pm):
    with pytest.raises(ValueError, match="stencil"):
        Simulator(small_config(pm, N=4, space_order=4))


@pytest.mark.parametrize("N", [16, 64, 128])
def test_unresolved_grid_rejected(pm, N):
    # these grids cover the weight's support on [-88, 88] but are too
    # coarse for the projector to give back the f_n
    with pytest.raises(GridTooNarrow, match="does not resolve"):
        Simulator(small_config(pm, N=N))


@pytest.mark.parametrize("name, value", [
    ("A", -20.0), ("A", 0.0), ("A", float("inf")), ("A", float("nan")),
    ("K", 0.5), ("K", float("inf")), ("s0", 1.0), ("s0", 0.5),
])
def test_validate_rejects_bad_trap_parameters(pm, name, value):
    # caught before the exact set-up and the Simulator build
    with pytest.raises(ValueError, match=f"^{name} must"):
        small_config(pm, **{name: value}).validate()


class TestSingleStep:
    def test_profile_residual_oracle(self, pm):
        # one step from the pure profile moves w by about ds * ||R*||
        cfg = small_config(pm)
        sim = Simulator(cfg)
        w = np.exp(1j * sim.Phi(cfg.s0, 0.0)) * sim.phi_grid(cfg.s0)
        st = one_row(w, cfg.s0, 0.0)
        sim.step(st)
        q = (
            np.exp(-1j * sim.Phi(st.s, 0.0)) * st.w[0]
            - sim.phi_grid(st.s)
        )
        rnorm = np.max(np.abs(rest_Rstar(sim.y, sim.fp, cfg.s0)))
        dq = np.max(np.abs(q))
        assert 0.2 * cfg.ds * rnorm < dq < 5.0 * cfg.ds * rnorm

    def test_state_keeps_the_reaction_term(self, pm):
        # a step leaves its reaction term in the state, and the next step
        # reads it
        cfg = small_config(pm, N=1024)
        sim = Simulator(cfg)
        st = sim.initial_state(InitialDataSpec(0.0, 0.5))
        w0 = st.w
        sim.step(st)
        _, react = KERNELS.cn_rhs(w0, None, sim.stepper._op, 0.5 * cfg.ds,
                                  cfg.ds, 0.0, (sim.fp.p, sim.fp.delta))
        assert np.array_equal(st.history, react)
        restart = SimState(st.w.copy(), st.s, st.theta.copy(),
                           st.no_root.copy())
        assert not np.array_equal(sim.step(st).w, sim.step(restart).w)


def test_nonlinear_time_order(pm):
    # self-convergence of the full run (reaction, modulation, boundary
    # phase) in ds: the differences of successive halvings shrink by 2^2
    ratio = 4.0
    ends = []
    for ds in (1e-3, 5e-4, 2.5e-4):
        cfg = small_config(pm, N=1024, ds=ds, s_end=100.05)
        res = Simulator(cfg).run(InitialDataSpec(0.5, 0.5), stop_on_exit=False)
        ends.append((res.state.w[0], res.history["Qt0"][-1]))
    (w1, q1), (w2, q2), (w3, q3) = ends
    dw = np.max(np.abs(w1 - w2)) / np.max(np.abs(w2 - w3))
    dq = abs(q1 - q2) / abs(q2 - q3)
    assert 0.9 * ratio < dw < 1.1 * ratio
    assert 0.9 * ratio < dq < 1.1 * ratio


@pytest.mark.parametrize("space_order, ratio", [(2, 4.0), (4, 16.0)])
def test_nonlinear_space_order(pm, space_order, ratio):
    # self-convergence of the full run in y: N - 1 doubles, so the grid
    # spacing halves exactly and y = 0 stays a grid point; the differences
    # of successive refinements shrink by 2^space_order
    ends = []
    for N in (1025, 2049, 4097):
        cfg = small_config(pm, N=N, ds=1e-3, s_end=100.05,
                           space_order=space_order)
        res = Simulator(cfg).run(InitialDataSpec(0.5, 0.5), stop_on_exit=False)
        ends.append(np.array([res.history["Qt0"][-1], res.history["qt2"][-1],
                              res.state.w[0][N // 2]]))
    e1, e2, e3 = ends
    for got in np.abs(e1 - e2) / np.abs(e2 - e3):
        assert 0.9 * ratio < got < 1.1 * ratio


class TestProfileOnTheGrid:
    @pytest.mark.parametrize("N", [2048, 2047])
    def test_phi_grid_is_even_and_matches_phi(self, pm, N):
        sim = Simulator(small_config(pm, N=N))
        for s in (100.0, 100.37, 104.9):
            g = sim.phi_grid(s)
            want = phi(sim.y, sim.fp, s)
            assert np.array_equal(g, g[::-1])
            assert np.array_equal(g[N // 2:], want[N // 2:])
            # the grid is symmetric to a rounding of its end points, which
            # moves the mirrored half by a few ulp
            assert np.all(np.abs(g - want) <= 16 * np.spacing(np.abs(want)))

    @pytest.mark.parametrize("N", [2048, 2047, 8192])
    def test_boundary_values_equal(self, pm, N):
        sim = Simulator(small_config(pm, N=N))
        assert sim.y[-1] == -sim.y[0]
        for s in (100.001, 100.37, 104.9):
            assert phi(sim.y[0], sim.fp, s) == phi(sim.y[-1], sim.fp, s)
            # a step reads its boundary value off the grid profile
            assert sim.phi_grid(s)[-1] == phi(sim.y[0], sim.fp, s)


class TestModulation:
    # past the first case the previous theta sits 1e-2 away, across +-pi
    # for the last two, so the choice of root and the 2 pi shift are both
    # exercised
    @pytest.mark.parametrize("theta_star, theta_prev", [
        (0.137, 0.0),
        (0.137, 0.127),
        (np.pi - 1e-3, np.pi + 9e-3),
        (-np.pi + 1e-3, -np.pi - 9e-3),
    ])
    def test_phase_recovery(self, pm, theta_star, theta_prev):
        from cglblow.profilefield import initial_data

        cfg = small_config(pm)
        sim = Simulator(cfg)
        spec = InitialDataSpec(d0_tilde=0.3, d1_tilde=-0.2)
        psi = initial_data(spec, cfg, sim.combos, sim.bf,
                           sim.bf.projector(sim.y)).psi
        w = np.exp(1j * (sim.Phi(cfg.s0, theta_star))) * (
            sim.phi_grid(cfg.s0) + psi
        )
        st = one_row(w, cfg.s0, theta_prev)
        assert sim.modulate(st)
        assert abs(st.theta[0] - theta_star) < 1e-9
        _, (qn,), _, _ = sim.project_q(st)
        assert abs(qn[0]) < 1e-9

    def test_no_root_keeps_theta(self, pm):
        # w = 0: q_0 = -(unit coordinate of phi) for every theta
        cfg = small_config(pm)
        sim = Simulator(cfg)
        st = one_row(np.zeros(cfg.N, dtype=complex), cfg.s0, 0.3)
        assert not sim.modulate(st)
        assert st.theta[0] == 0.3

    def test_run_records_failed_modulation(self, pm, monkeypatch):
        cfg = small_config(pm, N=512, s_end=100.003)
        sim = Simulator(cfg)
        monkeypatch.setattr(sim, "initial_state", lambda spec: one_row(
            np.zeros(cfg.N, dtype=complex), cfg.s0, 0.0))
        spec = InitialDataSpec(d0_tilde=0.0, d1_tilde=0.0)
        res = sim.run(spec, stop_on_exit=False)
        assert list(res.history["modulation_failed"]) == [1.0] * 4
        assert list(res.history["theta"]) == [0.0] * 4

    def test_q0_held_at_zero_along_run(self, pm):
        cfg = small_config(pm, s_end=100.2)
        sim = Simulator(cfg)
        spec = InitialDataSpec(d0_tilde=0.0, d1_tilde=0.0)
        res = sim.run(spec)
        assert max(abs(v) for v in res.history["q0"]) < 1e-9


class TestDiagnose:
    def test_zero_error_state(self, pm):
        # q = 0: every raw mode vanishes; the null combination shows the
        # pure drift offset |At2|/s scaled by its bound
        cfg = small_config(pm)
        sim = Simulator(cfg)
        w = np.exp(1j * sim.Phi(cfg.s0, 0.0)) * sim.phi_grid(cfg.s0)
        st = one_row(w, cfg.s0, 0.0)
        (row,), (ratios,) = sim.diagnose(st, 0.0)
        record = dict(zip(sim.columns, row))
        assert abs(record["qt2"]) < 1e-12
        want = abs(sim.combos["At2"]) / cfg.s0 * cfg.s0**1.25 / cfg.A**10
        got = ratios[sim.bound_names.index("Qt2")]
        assert abs(got - want) < 1e-12 + 0.01 * want
        assert record["qe_norm"] < 1e-12

    def test_project_q_matches_project_sampled(self, pm):
        cfg = small_config(pm)
        sim = Simulator(cfg)
        spec = InitialDataSpec(d0_tilde=0.2, d1_tilde=-0.1)
        st = sim.initial_state(spec)
        sim.modulate(st)
        (q,), (qn,), (qtn,), (qminus,) = sim.project_q(st)
        m = project_sampled(q, sim.y, sim.bf)
        assert np.max(np.abs(qn - m.q)) < 1e-12
        assert np.max(np.abs(qtn - m.q_tilde)) < 1e-12
        assert np.max(np.abs(qminus - m.remainder)) < 1e-12 * np.max(np.abs(qminus))

    def test_null_mode_combination(self, pm):
        cfg = small_config(pm)
        sim = Simulator(cfg)
        spec = InitialDataSpec(d0_tilde=0.0, d1_tilde=0.0)
        st = sim.initial_state(spec)
        sim.modulate(st)
        (row,), _ = sim.diagnose(st, 0.0)
        record = dict(zip(sim.columns, row))
        # Qt2 = qt2 - At2/s starts at the cutoff-truncation level
        assert abs(record["Qt2"]) < 1e-6


def vectorized_root_choice(a, b, g, shift, prev):
    """The modulation's root choice written over arrays, the oracle for
    ``_nearest_root``: (found, the root nearest prev where found)."""
    r = np.hypot(a, b)
    found = (abs(g) <= r) & (r != 0.0)
    half = np.arccos(g[found] / r[found])[:, None]
    roots = (np.arctan2(b[found], a[found])[:, None]
             + half * np.array([1.0, -1.0]) - shift[found][:, None])
    before = prev[found][:, None]
    roots += 2 * np.pi * np.rint((before - roots) / (2 * np.pi))
    gap = np.abs(roots - before)
    return found, np.where(gap[:, 1] < gap[:, 0], roots[:, 1], roots[:, 0])


class TestPerStepBookkeeping:
    """The per-step reconstruction, norms and root choice against the
    plainer formulas they replace."""

    def test_powers_reconstruction_matches_polyval(self, pm):
        # a real run's coordinates on the default grid (N = 8192, L = 88)
        sim = Simulator(SimConfig(params=pm, s_end=100.01))
        st = sim.run(InitialDataSpec(0.3, -0.2), stop_on_exit=False).state
        (_,), (qn,), (qtn,), (qminus,) = sim.project_q(st)
        basis = build_basis(6, pm.p, pm.delta, pm.beta)
        want = sum(qn[n] * poly_values(basis.h[n], sim.y)
                   + qtn[n] * poly_values(basis.h_tilde[n], sim.y)
                   for n in range(7))
        got = sim.bf.reconstruct(qn, qtn, powers_table(sim.y, 6))
        # both sums round at the size of the basis values at |y| = 88,
        # which is the size of the remainder there
        assert np.max(np.abs(got - want)) <= 4e-15 * np.max(np.abs(qminus))

    @pytest.mark.parametrize("k", [1, 3])
    def test_norms_match_the_abs_formula(self, pm, k):
        sim = Simulator(small_config(pm, s_end=100.03))
        pairs = [(0.0, 0.0), (0.3, -0.2), (2.0, 2.0)][:k]
        runs = sim.run_block([InitialDataSpec(*d) for d in pairs],
                             stop_on_exit=False)
        st = SimState(w=np.concatenate([r.state.w for r in runs]),
                      s=runs[0].state.s,
                      theta=np.concatenate([r.state.theta for r in runs]),
                      no_root=np.zeros(k, dtype=bool))
        rows, _ = sim.diagnose(st, 0.0)
        q, _, _, qminus = sim.project_q(st)
        one = 1.0 - cutoff_chi(sim.y, st.s, sim.config.K)
        want_qe = np.max(np.abs(q * one), axis=1)
        want_qminus = np.max(
            np.abs(qminus) / (1.0 + np.abs(sim.y) ** 7), axis=1)
        for name, want in (("qe_norm", want_qe),
                           ("qminus_norm", want_qminus)):
            got = rows[:, sim.columns.index(name)]
            assert np.all(want > 0.0)
            assert np.max(np.abs(got / want - 1.0)) <= 1e-15, name

    def test_scalar_root_matches_the_vectorized_choice(self):
        rng = np.random.default_rng(5)
        n = 4000
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        g = rng.uniform(-1.1, 1.1, n) * np.hypot(a, b)
        shift = rng.uniform(-400.0, 400.0, n)
        prev = rng.uniform(-3.5, 3.5, n)   # across +-pi
        a[7] = b[7] = 0.0                  # no root inside the block
        found, want = vectorized_root_choice(a, b, g, shift, prev)
        got = [_nearest_root(*map(float, v))
               for v in zip(a, b, g, shift, prev)]
        assert [x is not None for x in got] == list(found)
        assert not found[7] and 0.05 < found.mean() < 0.95
        got = np.array([x for x in got if x is not None])
        # math's acos/atan2/hypot and numpy's vector loops may differ in
        # the last bit; the root then moves by the rounding of
        # atan2 +- acos - shift
        ulp = np.spacing(np.abs(shift[found]) + 2 * np.pi)
        assert np.all(np.abs(got - want) <= 2 * ulp)


@pytest.fixture(scope="module")
def run(pm):
    cfg = small_config(pm, s_end=101.5)
    sim = Simulator(cfg)
    spec = InitialDataSpec(d0_tilde=0.0, d1_tilde=0.05)
    return cfg, sim, sim.run(spec)


class TestRunLaws:

    def test_no_exit(self, run):
        cfg, sim, res = run
        assert res.report.exit_s is None

    def test_expanding_mode_odes(self, run):
        # |Qt0' - Qt0| <= C/s^(7/4) and |qt1' - qt1/2| <= C/s^(3/2)
        cfg, sim, res = run
        h = res.history
        s = np.array(h["s"])
        Qt0 = np.array(h["Qt0"])
        qt1 = np.array(h["qt1"])
        ds = s[1] - s[0]
        sl = slice(200, -1)
        dQt0 = np.gradient(Qt0, ds)
        dqt1 = np.gradient(qt1, ds)
        c0 = np.max(np.abs(dQt0 - Qt0)[sl] * s[sl] ** 1.75)
        c1 = np.max(np.abs(dqt1 - 0.5 * qt1)[sl] * s[sl] ** 1.5)
        assert c0 < 1.0
        assert c1 < 1.0

    def test_null_mode_targets_drift(self, run):
        cfg, sim, res = run
        h = res.history
        qt2s = np.array(h["qt2"]) * np.array(h["s"])
        At2 = sim.combos["At2"]
        assert abs(qt2s[-1] - At2) < 0.2 * abs(At2)

    def test_theta_prime_envelope(self, run):
        cfg, sim, res = run
        h = res.history
        s = np.array(h["s"])
        tp = np.abs(np.array(h["theta_prime"]))[50:]
        envelope = cfg.A**10 / s[50:] ** 1.25
        assert np.all(tp <= envelope)

    def test_report_is_the_history(self, run):
        # one record per step, the initial one included, and one ratio row
        # per record in bound_names order
        cfg, sim, res = run
        rep = res.report
        assert rep.ratios.shape == (len(res.history["s"]),
                                    len(sim.bound_names))

    def test_exit_ends_the_run_on_its_record(self, pm):
        # with A = 1/2 the Q2 bound is below its measurement from the first
        # step on; the run stops on that step
        cfg = small_config(pm, N=512, s_end=100.01, A=0.5)
        res = Simulator(cfg).run(InitialDataSpec(d0_tilde=0.0, d1_tilde=0.0))
        rep, s = res.report, res.history["s"]
        assert len(s) == 2
        assert rep.exit_s == s[1]
        worst = int(np.argmax(rep.ratios[1]))
        assert rep.ratios[1, worst] > 1.0
        assert rep.exit_component == rep.names[worst]

    def test_determinism(self, pm):
        cfg = small_config(pm, s_end=100.05)
        spec = InitialDataSpec(d0_tilde=0.1, d1_tilde=0.1)
        h1 = Simulator(cfg).run(spec).history
        h2 = Simulator(cfg).run(spec).history
        for k in h1:
            assert np.array_equal(np.array(h1[k]), np.array(h2[k])), k


def eigenmode_on_grid(n, beta, L, dy):
    """The grid of ``linear_eigenmode_error`` and f_n sampled on it."""
    y = np.linspace(-L, L, int(round(2 * L / dy)) + 1)
    fn = np.array(hermite_f(n, Fraction(beta)).to_complex_coeffs())
    return y, np.polyval(fn[::-1], y)


class TestKernelCrossCheck:
    def test_flow_matches_kernel_quadrature(self):
        rel, kerr = linear_eigenmode_error(
            2, 0.5, L=14.0, dy=0.01, ds=2e-4, s_end=0.5, kernel_check=True
        )
        assert kerr < 1e-6

    def test_perturbed_flow_fails_the_kernel_gate(self, monkeypatch):
        step = Stepper.step

        def nudged(self, w, prev, bc_left, bc_right):
            w, prev = step(self, w, prev, bc_left, bc_right)
            return w * (1.0 + 4e-9), prev  # 2500 steps: 1e-5 off at the end

        monkeypatch.setattr(Stepper, "step", nudged)
        _, kerr = linear_eigenmode_error(
            2, 0.5, L=14.0, dy=0.01, ds=2e-4, s_end=0.5, kernel_check=True
        )
        assert kerr > 1e-6

    # the benchmark's four betas at its s = 0.06, criterion 7 and the
    # cross-check test above
    @pytest.mark.parametrize("beta, L, s, m", [
        (0.25, 16.0, 0.06, 20), (0.5, 16.0, 0.06, 20), (1.0, 16.0, 0.06, 20),
        (2.0, 16.0, 0.06, 20), (0.5, 16.0, 1.0, 64), (0.5, 14.0, 0.5, 56),
    ])
    def test_strided_quadrature_matches_all_nodes(self, beta, L, s, m):
        for n in range(5):
            y, f = eigenmode_on_grid(n, beta, L, 0.01)
            ev = y[np.abs(y) <= 5.0]
            assert kernel_stride(s, y, ev, f, beta) == m
            full = semigroup_apply(s, ev, y, f, beta)
            strided = semigroup_apply(s, ev, y[::m], f[::m], beta)
            scale = np.exp(-0.5 * n * s) * np.max(np.abs(f[np.abs(y) <= 5.0]))
            assert np.max(np.abs(strided - full)) <= 1e-14 * scale

    def test_no_stride_while_the_integrand_reaches_the_grid_ends(self):
        # aliasing alone allows m = 64 at s = 1 (as for beta = 0.5), but at
        # beta = 2 the kernel is wide enough that even the all-node
        # quadrature misses e^{sL} f_4 by more than 1e-5
        y, f = eigenmode_on_grid(4, 2.0, 16.0, 0.01)
        mask = np.abs(y) <= 5.0
        assert kernel_stride(1.0, y, y[mask], f, 2.0) == 1
        exact = np.exp(-2.0) * f[mask]
        full = semigroup_apply(1.0, y[mask], y, f, 2.0)
        assert np.max(np.abs(full - exact)) > 1e-5 * np.max(np.abs(exact))

    @pytest.mark.parametrize("dy", [0.01, 0.0101, 0.013])
    def test_stride_is_the_largest_divisor_within_the_bound(self, dy):
        # the spacing is the grid's own, 2L / (N - 1), not dy
        s = 0.06
        y, f = eigenmode_on_grid(0, 0.5, 16.0, dy)
        m = kernel_stride(s, y, y[np.abs(y) <= 5.0], f, 0.5)
        h, last = y[1] - y[0], len(y) - 1

        def alias(d):
            return np.exp(np.expm1(-s) * (2 * np.pi / (d * h)) ** 2)

        assert m > 1 and last % m == 0 and alias(m) <= 2.0**-64
        assert all(alias(d) > 2.0**-64
                   for d in range(m + 1, last + 1) if last % d == 0)


class TestFinalProfile:
    def test_phase_modulus(self, pm):
        x = np.array([1e-4])
        v = final_profile(x, pm)
        ll = 2.0 * abs(np.log(1e-4))
        from cglblow.profilefield import FloatParams

        fp = FloatParams.from_exact(pm)
        core = fp.b * x**2 / np.sqrt(ll)
        assert abs(abs(v[0]) - core ** (-1.0 / (fp.p - 1.0))) < 1e-10

    def test_power_law_ratio(self, pm):
        from cglblow.profilefield import FloatParams

        fp = FloatParams.from_exact(pm)
        for x in (1e-3, 1e-4):
            r = abs(final_profile(np.array([x]), pm)[0]) / abs(
                final_profile(np.array([x / 2]), pm)[0]
            )
            want = (
                (fp.b * x**2 / np.sqrt(2 * abs(np.log(x))))
                / (fp.b * (x / 2) ** 2 / np.sqrt(2 * abs(np.log(x / 2))))
            ) ** (-1.0 / (fp.p - 1.0))
            assert abs(r / want - 1.0) < 0.05

    def test_log_slope(self, pm):
        xs = np.array([1e-6, 1e-7, 1e-8])
        vals = np.abs(final_profile(xs, pm))
        slopes = np.diff(np.log(vals)) / np.diff(np.log(xs))
        assert abs(slopes[-1] - (-1.0)) < 0.05  # -2/(p-1) = -1 at p = 3

    def test_domain(self, pm):
        with pytest.raises(ValueError):
            final_profile(np.array([1.5]), pm)


class TestShooting:
    def test_corner_quadrants_and_monotonicity(self, pm):
        from cglblow.shooting import exit_sign_pattern, shoot

        cfg = small_config(pm, N=1024, s_end=100.6)
        res = shoot(cfg, grid_n=4, refine=False, workers=1)
        corners = [
            p for p in res.probes if (abs(p.d0), abs(p.d1)) == (2.0, 2.0)
        ]
        assert exit_sign_pattern(corners) == {(-1, -1), (-1, 1), (1, -1), (1, 1)}
        # exit-map second component increases with d1 at fixed d0
        by_d0 = {}
        for p in res.probes:
            by_d0.setdefault(p.d0, []).append((p.d1, p.phi1))
        for d0, rows in by_d0.items():
            rows.sort()
            vals = [v for _, v in rows]
            assert all(a < b for a, b in zip(vals, vals[1:]))
        # the trapped direction survives longest
        assert res.best.exit_s > min(p.exit_s for p in corners)

    @pytest.mark.parametrize("bad, match", [
        (dict(grid_n=1), "grid_n"), (dict(grid_n=0), "grid_n"),
        (dict(bisect_levels=-1), "bisect_levels"),
    ])
    def test_degenerate_lattice_is_rejected_before_set_up(self, pm, bad,
                                                          match, monkeypatch):
        import cglblow.shooting as shooting

        def no_setup(config):
            raise AssertionError("Simulator built")

        monkeypatch.setattr(shooting, "Simulator", no_setup)
        with pytest.raises(ValueError, match=match):
            shooting.shoot(small_config(pm), workers=1, **bad)

    def test_worker_count_does_not_change_the_search(self, pm):
        from cglblow.shooting import shoot

        cfg = small_config(pm, N=1024, s_end=100.6)
        # three workers split the 9 coarse and the 5 bisection probes into
        # uneven blocks
        one, two, three = (
            shoot(cfg, grid_n=3, refine=True, bisect_levels=2, workers=w)
            for w in (1, 2, 3)
        )
        assert one.refined and two.refined and three.refined
        # both bisection levels ran: 3 x 3 coarse probes plus 5 per level
        assert len(one.probes) == 9 + 2 * 5
        assert one.meta["levels_run"] == 2
        for other in (two, three):
            assert one.probes == other.probes
            assert one.best == other.best
            assert one.corner_signs == other.corner_signs
            assert one.meta["final_cell"] == other.meta["final_cell"]
        # the final cell is a probed cell whose corners show all four sign
        # quadrants, one or two halvings of a coarse cell of width 2
        from cglblow.shooting import exit_sign_pattern

        d0s, d1s = one.meta["final_cell"]
        assert d0s[1] - d0s[0] == d1s[1] - d1s[0] in (1.0, 0.5)
        at = {(p.d0, p.d1): p for p in one.probes}
        assert exit_sign_pattern([at[a, b] for a in d0s for b in d1s]) == {
            (-1, -1), (-1, 1), (1, -1), (1, 1)}

    def test_no_refinement_runs_no_level(self, pm):
        from cglblow.shooting import shoot

        cfg = small_config(pm, N=1024, s_end=100.02)
        res = shoot(cfg, grid_n=3, refine=False, bisect_levels=2, workers=1)
        assert not res.refined and len(res.probes) == 9
        assert res.meta["levels_run"] == 0
        assert res.meta["final_cell"] is None
        assert res.meta["bisect_levels"] == 2

    def test_tied_exits_go_to_the_smallest_exit_value(self, pm, monkeypatch):
        from cglblow import shooting

        cfg = small_config(pm, N=1024, s_end=100.02)
        blocks = []

        def synthetic(block):
            # probes with |d0|, |d1| <= 1 never exit, the others exit
            # early; the exit value is smallest at (0, 0), which is not the
            # first of the tied probes in the probe list
            blocks.append(list(block))
            out = []
            for d0, d1 in block:
                inside = abs(d0) <= 1 and abs(d1) <= 1
                out.append(shooting.ProbeResult(
                    d0=d0, d1=d1, exit_s=cfg.s_end if inside else 100.001,
                    exit_component=None if inside else "qt1",
                    phi0=d0 - 0.3, phi1=d1 + 0.1))
            return out

        monkeypatch.setattr(shooting, "_run_probe", synthetic)
        res = shooting.shoot(cfg, grid_n=5, refine=False, workers=1)
        # one serial scan is one block
        assert len(blocks) == 1 and len(blocks[0]) == 25
        tied = [p for p in res.probes if p.exit_s == cfg.s_end]
        assert len(tied) == 9 and (tied[0].d0, tied[0].d1) == (-1.0, -1.0)
        assert (res.best.d0, res.best.d1) == (0.0, 0.0)

    def test_pool_initializer_pins_blas_to_one_thread(self):
        # a fresh process without the BLAS thread variables, so OpenBLAS
        # starts on all cores; the serial path must leave it there
        code = """if True:
            import ctypes, json
            import numpy, scipy.linalg
            from cglblow import shooting

            def threads():
                out = []
                for path in shooting._loaded_openblas():
                    lib = ctypes.CDLL(path)
                    for name in ("scipy_openblas_get_num_threads64_",
                                 "scipy_openblas_get_num_threads"):
                        fn = getattr(lib, name, None)
                        if fn is not None:
                            fn.argtypes, fn.restype = (), ctypes.c_int
                            out.append(fn())
                            break
                return out

            before = threads()
            shooting._init_worker(None)
            serial = threads()
            shooting._init_worker(None, True)
            print(json.dumps([before, serial, threads()]))
        """
        env = {k: v for k, v in os.environ.items() if k not in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        before, serial, pinned = json.loads(proc.stdout)
        if not before:
            pytest.skip("no OpenBLAS get-threads symbol in this process")
        assert serial == before
        assert pinned == [1] * len(before)

    def test_one_simulator_per_search(self, pm, monkeypatch):
        from cglblow.shooting import shoot

        built = []
        init = Simulator.__init__

        def counted(self, config):
            built.append(config)
            init(self, config)

        monkeypatch.setattr(Simulator, "__init__", counted)
        cfg = small_config(pm, N=1024, s_end=100.6)
        res = shoot(cfg, grid_n=3, refine=True, bisect_levels=2, workers=1)
        assert len(res.probes) == 9 + 2 * 5
        assert len(built) == 1

    def test_serial_search_releases_its_simulator(self):
        from cglblow import shooting

        cfg = SimConfig(params=derive_params(3, 1), s_end=100.01)
        first, second = (
            shooting.shoot(cfg, grid_n=2, probe_N=512, probe_ds=1e-3,
                           workers=1)
            for _ in range(2))
        assert shooting._WORKER_SIM is None
        assert first.probes == second.probes

    def test_one_pool_per_search(self, pm, monkeypatch):
        from cglblow import shooting

        pools = []

        class Counted(shooting.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(shooting, "ProcessPoolExecutor", Counted)
        cfg = small_config(pm, N=1024, s_end=100.6)
        res = shooting.shoot(cfg, grid_n=3, refine=True, bisect_levels=2,
                             workers=2)
        # the coarse scan and both bisection levels ran
        assert res.refined and len(res.probes) == 9 + 2 * 5
        assert len(pools) == 1
        assert pools[0]["max_workers"] == 2

    @pytest.mark.parametrize("grid_n, refine, workers, size", [
        (2, True, 50, 5), (3, True, 12, 9), (2, False, 7, 4),
    ])
    def test_pool_holds_no_more_workers_than_the_largest_scan(
            self, pm, monkeypatch, grid_n, refine, workers, size):
        # the largest scan is grid_n**2 coarse probes, or 5 per bisection
        # level; a fake pool records its size and runs each block here
        from cglblow import shooting

        sizes = []

        class InProcess:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(initargs[0])  # without BLAS pinning

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, blocks):
                return [fn(block) for block in blocks]

        monkeypatch.setattr(shooting, "_WORKER_SIM", None)
        cfg = small_config(pm, N=1024, s_end=100.6)
        serial = shooting.shoot(cfg, grid_n=grid_n, refine=refine,
                                bisect_levels=1, workers=1)
        monkeypatch.setattr(shooting, "ProcessPoolExecutor", InProcess)
        res = shooting.shoot(cfg, grid_n=grid_n, refine=refine,
                             bisect_levels=1, workers=workers)
        assert sizes == [size] and res.meta["workers"] == size
        assert res.probes == serial.probes and res.best == serial.best

    def test_default_worker_count_follows_the_affinity_mask(self,
                                                            monkeypatch):
        from cglblow.shooting import worker_count

        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        assert worker_count() == 2
        # without an affinity call, the machine's count, capped at 8
        monkeypatch.delattr(os, "sched_getaffinity")
        assert worker_count() == 8


class TestNullModeDecayRate:
    def test_tracks_decay_constant(self, pm):
        # displace the null combination and fit its decay exponent; the
        # construction predicts Qt2' ~ H1 Qt2 / s with H1 = -3/2, tracked
        # within 25 percent past s0 + 2
        import numpy as np
        from cglblow.profilefield import cutoff_chi

        cfg = small_config(pm, s_end=104.0)
        sim = Simulator(cfg)
        spec = InitialDataSpec(d0_tilde=0.0, d1_tilde=0.0)
        st = sim.initial_state(spec)
        chi = cutoff_chi(2 * sim.y, cfg.s0, cfg.K)
        st.w = st.w + np.exp(1j * sim.Phi(cfg.s0, st.theta)) * 1e-4 * (
            poly_values(build_basis(6, pm.p, pm.delta, pm.beta).h_tilde[2],
                        sim.y) * chi
        )
        sim.modulate(st)
        ss, qq = [], []
        nsteps = int(round((cfg.s_end - cfg.s0) / cfg.ds))
        for it in range(nsteps):
            sim.step(st)
            sim.modulate(st)
            if it % 50 == 0:
                (row,), _ = sim.diagnose(st, 0.0)
                rec = dict(zip(sim.columns, row))
                ss.append(rec["s"])
                qq.append(rec["Qt2"])
        ss, qq = np.array(ss), np.array(qq)
        mask = ss >= cfg.s0 + 2.0
        slope = np.polyfit(np.log(ss[mask]), np.log(np.abs(qq[mask])), 1)[0]
        assert abs(slope - (-1.5)) <= 0.25 * 1.5
