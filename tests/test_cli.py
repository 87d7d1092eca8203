"""Command-line interface: config handling, outputs, exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

from cglblow.cli import main, parse_config


def write_cfg(tmp_path, text) -> str:
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return str(p)


class TestConfig:
    def test_defaults(self):
        cfg = parse_config(None)
        assert cfg["p"] == "3" and cfg["scheme"] == "imex2"

    def test_unknown_key_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "p = 3\nwibble = 1\n")
        with pytest.raises(ValueError):
            parse_config(path)

    def test_comments_and_overrides(self, tmp_path):
        path = write_cfg(tmp_path, "# hi\np = 2\ndelta = 1/3\n")
        cfg = parse_config(path)
        assert cfg["p"] == "2" and cfg["delta"] == "1/3"

    def test_repeated_key_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "p = 3\np = 2\ndelta = 1\n")
        with pytest.raises(ValueError) as exc:
            parse_config(path)
        assert str(exc.value) == f"{path}:2: repeated key 'p'"


@pytest.fixture
def no_mu(monkeypatch):
    """mu_critical of the Simulator's set-up raises: a test that exits 2
    with it shows that the rejection came before mu."""
    import cglblow.simulate as simulate

    def no_mu(pm, **kw):
        raise AssertionError("mu_critical ran")

    monkeypatch.setattr(simulate, "mu_critical", no_mu)


class TestExitCodes:
    def test_domain_error_is_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "p = 3\ndelta = 4\n")
        assert main(["constants", "--config", path,
                     "--output-dir", str(tmp_path / "o")]) == 2

    def test_unknown_key_is_2(self, tmp_path):
        path = write_cfg(tmp_path, "nope = 1\n")
        assert main(["constants", "--config", path]) == 2

    def test_repeated_key_is_2(self, tmp_path, capsys):
        path = write_cfg(
            tmp_path, f"ds = 1e-3\nds = 5e-4\noutput.dir = {tmp_path / 'o'}\n"
        )
        assert main(["simulate", "--config", path]) == 2
        assert "repeated key 'ds'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("bad", [
        "ds = 0", "ds = -1e-3", "s_end = 100", "s_end = 99",
        "s_end = 100.0001", "s_end = inf", "grid.N = 2",
        "A = -20", "A = 0", "K = 0.5", "s0 = 1", "grid.L = nan",
        "grid.L = inf", "p = 3/0", "delta = 1/0", "scheme = imex1",
        "scheme = wibble", "A = 1e300", "A = 1e-300",
    ])
    def test_bad_step_config_is_2(self, tmp_path, capsys, no_mu, bad):
        path = write_cfg(tmp_path, f"{bad}\noutput.dir = {tmp_path / 'o'}\n")
        assert main(["simulate", "--config", path]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["constants", "simulate", "profile"])
    @pytest.mark.parametrize("bad, name", [("p = 1e400", "p"),
                                           ("delta = 1e-400", "beta"),
                                           ("p = 1.001", "kappa")])
    def test_parameter_without_a_float_is_2(self, tmp_path, capsys, command,
                                            bad, name):
        # exact, these are critical pairs; but p, the beta of this delta or
        # the kappa of this p overflows a double: a domain error, not a
        # failed check
        path = write_cfg(tmp_path, f"{bad}\noutput.dir = {tmp_path / 'o'}\n")
        assert main([command, "--config", path]) == 2
        assert (f"domain error: {name} has no float value"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["0", "-2", "abc"],
                             ids=lambda v: f"flag-{v}")
    def test_bad_worker_count_is_2(self, tmp_path, no_mu, value):
        path = write_cfg(
            tmp_path,
            f"grid.N = 64\ns_end = 100.001\noutput.dir = {tmp_path / 'o'}\n",
        )
        argv = ["shoot", "--config", path, "--grid-n", "2", "--no-refine",
                "--workers", value]
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects a non-integer flag
            rc = exc.code
        assert rc == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("bad, message", [
        ("ds = 0", "ds must be in (0, 1e-3]"),
        ("s_end = 100", "holds no step"),
        ("grid.N = 2", "N = 2 is below the 3-point stencil"),
        ("scheme = imex1", "unknown scheme 'imex1'"),
    ])
    def test_bad_shoot_config_is_2(self, tmp_path, capsys, no_mu, bad,
                                   message):
        # shoot validates the config it is given, not only the probe config
        # that replaces its N and ds, before anything else
        path = write_cfg(tmp_path, f"{bad}\noutput.dir = {tmp_path / 'o'}\n")
        assert main(["shoot", "--config", path, "--workers", "1",
                     "--probe-N", "1024", "--probe-ds", "1e-3"]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("grid_n", ["0", "1", "-3"])
    def test_grid_without_a_cell_is_2(self, tmp_path, capsys, no_mu, grid_n):
        # rejected before mu is derived
        path = write_cfg(
            tmp_path,
            f"grid.N = 64\ns_end = 100.001\noutput.dir = {tmp_path / 'o'}\n",
        )
        assert main(["shoot", "--config", path, "--grid-n", grid_n]) == 2
        assert "grid_n must be >= 2" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--d0-tilde", "3"), ("--d1-tilde", "-2.5"), ("--d0-tilde", "nan"),
    ])
    def test_pair_outside_the_square_is_2(self, tmp_path, monkeypatch,
                                          capsys, flag, value):
        # rejected before the constants or the Simulator are built
        import cglblow.cli as cli

        def no_setup(cfg):
            raise AssertionError("set-up ran")

        monkeypatch.setattr(cli, "_sim_config", no_setup)
        path = write_cfg(tmp_path, f"output.dir = {tmp_path / 'o'}\n")
        assert main(["simulate", "--config", path, flag, value]) == 2
        assert "[-2, 2]^2" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--probe-ds", "1", "ds must be in (0, 1e-3]"),
        ("--probe-N", "2", "N = 2 is below the 3-point stencil"),
    ])
    def test_bad_probe_grid_is_2(self, tmp_path, capsys, no_mu, flag, value,
                                 message):
        # the probe Simulator rejects its config before it derives mu
        path = write_cfg(tmp_path, f"output.dir = {tmp_path / 'o'}\n")
        argv = ["shoot", "--config", path, "--workers", "1", flag, value]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unresolved_grid_is_2(self, tmp_path, capsys):
        # 64 points on [-88, 88] cover the weight's support but do not
        # resolve it; the projector is built after mu, before any output
        path = write_cfg(tmp_path,
                         f"grid.N = 64\noutput.dir = {tmp_path / 'o'}\n")
        assert main(["simulate", "--config", path]) == 2
        assert "does not resolve the weight" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("bad, message", [
        ("grid.L = nan", "grid.L must be finite and > 0"),
        ("grid.L = inf", "grid.L must be finite and > 0"),
        ("grid.L = -88", "grid.L must be finite and > 0"),
        ("grid.N = 0", "grid.N must be >= 2"),
        ("s0 = nan", "s0 must be finite and > 1"),
        ("s0 = inf", "s0 must be finite and > 1"),
        ("s0 = 1", "s0 must be finite and > 1"),
    ])
    def test_bad_profile_grid_is_2(self, tmp_path, capsys, bad, message):
        path = write_cfg(tmp_path, f"{bad}\noutput.dir = {tmp_path / 'o'}\n")
        assert main(["profile", "--config", path]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


@pytest.fixture(scope="module")
def cfgfile(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    path = tmp / "run.cfg"
    path.write_text(
        "p = 3\ndelta = 1\ngrid.N = 1024\nds = 1e-3\ns_end = 100.05\n"
        f"output.dir = {tmp / 'out'}\n"
    )
    return str(path), tmp / "out"


class TestOutputs:

    def test_constants_json(self, cfgfile):
        path, out = cfgfile
        assert main(["constants", "--config", path]) == 0
        data = json.loads((out / "constants.json").read_text())
        assert data["params"]["b2"] == "1/63"
        assert data["ode"]["Htilde1_closed"] == "-379/252"
        assert data["params"]["mu_selfconsistent"]["exact"].startswith("-124/1323")
        assert data["ode"]["cancellations_zero"] is True

    @pytest.mark.parametrize("field", [
        "coef_1_over_s", "coef_q2_over_sqrt_s", "coef_q2sq", "coef_s32",
    ])
    def test_cancellations_zero_reads_the_coefficients(self, tmp_path,
                                                       monkeypatch, field):
        # one nonzero cancellation coefficient turns the flag false
        from dataclasses import replace

        import cglblow.cli as cli
        from cglblow.exact import KappaGraded

        real = cli.ode_coefficients

        def one_nonzero(pm):
            ode = real(pm)
            one = KappaGraded(pm.ext(1), getattr(ode, field).grade)
            return replace(ode, **{field: one})

        monkeypatch.setattr(cli, "ode_coefficients", one_nonzero)
        path = write_cfg(tmp_path, f"output.dir = {tmp_path / 'o'}\n")
        assert main(["constants", "--config", path]) == 0
        data = json.loads((tmp_path / "o" / "constants.json").read_text())
        assert data["ode"]["cancellations_zero"] is False

    def test_basis_golden_roundtrip(self, cfgfile):
        path, out = cfgfile
        assert main(["basis", "--config", path]) == 0
        text = (out / "basis.txt").read_text()
        assert "h_2 = " in text
        from cglblow.exact import parse_poly
        from cglblow.spectral import build_basis
        from fractions import Fraction as F

        basis = build_basis(6, F(3), F(1), F(1, 2))
        for line in text.splitlines():
            if line.startswith("h_2 = "):
                assert parse_poly(line[6:]) == basis.h[2]

    def test_profile_csv(self, cfgfile):
        path, out = cfgfile
        assert main(["profile", "--config", path]) == 0
        lines = (out / "profile.csv").read_text().splitlines()
        header = [ln for ln in lines if ln.startswith("#")]
        assert any("p = 3" in ln for ln in header)
        cols, *rows = [ln for ln in lines if not ln.startswith("#")]
        assert cols == "y,re_phi,im_phi,abs_R,abs_V1,abs_V2"
        # the rows read back exactly to the fields on the same grid
        from cglblow.constants import derive_params
        from cglblow.profilefield import (
            FloatParams, phi, potentials, rest_R,
        )

        fp = FloatParams.from_exact(derive_params(3, 1))
        y = np.linspace(-88.0, 88.0, 1024)
        ph = phi(y, fp, 100.0)
        mods = [[abs(v) for v in f] for f in (rest_R(y, fp, 100.0),
                                              *potentials(y, fp, 100.0))]
        data = np.array([[float(v) for v in r.split(",")] for r in rows])
        want = np.column_stack([y, ph.real, ph.imag] + mods)
        assert data.shape == want.shape
        assert np.array_equal(data, want)

    def test_profile_derives_no_mu(self, tmp_path, monkeypatch):
        # phi, the potentials and the rest never read mu
        import cglblow.cli as cli

        def no_mu(pm, **kw):
            raise AssertionError("mu_critical ran")

        monkeypatch.setattr(cli, "mu_critical", no_mu)
        path = write_cfg(tmp_path, f"grid.N = 64\noutput.dir = {tmp_path}\n")
        assert main(["profile", "--config", path]) == 0
        assert (tmp_path / "profile.csv").exists()

    def test_shoot_s0_study_matches_a_preset_mu(self, tmp_path, monkeypatch):
        # the study's Simulators derive mu themselves; their ratios equal
        # those of the same study with mu preset
        import functools
        from dataclasses import replace

        import cglblow.cli as cli
        from cglblow import simulate
        from cglblow.constants import mu_critical

        small = functools.partial(simulate.s0_scaling_study,
                                  s0_values=(50.0, 100.0), window=0.01, N=512)
        monkeypatch.setattr(simulate, "s0_scaling_study", small)
        out = tmp_path / "o"
        # 64 points on [-88, 88] do not resolve the weight; 256 do
        path = write_cfg(
            tmp_path, f"grid.N = 256\ns_end = 100.001\noutput.dir = {out}\n")
        assert main(["shoot", "--config", path, "--grid-n", "2",
                     "--no-refine", "--workers", "1", "--s0-study"]) == 0
        got = json.loads((out / "shoot.json").read_text())["s0_scaling"]
        sc = cli._sim_config(parse_config(path))
        pm = sc.params.with_mu(mu_critical(sc.params).mu)
        want = small(replace(sc, params=pm))
        assert got == json.loads(json.dumps(want))
        assert set(got) == {"50.0", "100.0"}

    def test_simulate_deterministic(self, cfgfile):
        path, out = cfgfile
        assert main(["simulate", "--config", path]) == 0
        first = (out / "simulate.csv").read_bytes()
        assert main(["simulate", "--config", path]) == 0
        second = (out / "simulate.csv").read_bytes()
        assert first == second

    def test_simulate_header_names_each_key_once(self, cfgfile):
        path, out = cfgfile
        assert main(["simulate", "--config", path]) == 0
        lines = (out / "simulate.csv").read_text().splitlines()
        keys = [ln.split(" = ")[0] for ln in lines
                if ln.startswith("# ") and " = " in ln]
        assert {"# scheme", "# M_track", "# mu"} <= set(keys)
        assert not {"# combo_flavor", "# init_order", "# cutoff"} & set(keys)
        assert sorted({k for k in keys if keys.count(k) > 1}) == []

    def test_verify_passes(self, cfgfile):
        path, out = cfgfile
        assert main(["verify", "--config", path]) == 0
        text = (out / "verify.txt").read_text()
        assert "FAIL" not in text


@pytest.mark.parametrize("p, delta", [(101, 3), (1001, 5)])
def test_large_p_critical_pair(tmp_path, p, delta):
    # the float criticality check is relative: these exact critical pairs
    # leave a rounding residual above 1e-14 in absolute terms
    out = tmp_path / "o"
    path = write_cfg(
        tmp_path, f"p = {p}\ndelta = {delta}\ngrid.N = 64\noutput.dir = {out}\n"
    )
    assert main(["constants", "--config", path]) == 0
    assert main(["profile", "--config", path]) == 0
    params = json.loads((out / "constants.json").read_text())["params"]
    assert np.isfinite([params["b_float"], params["kappa_float"]]).all()
    rows = [ln for ln in (out / "profile.csv").read_text().splitlines()
            if not ln.startswith("#")][1:]
    data = np.array([[float(v) for v in r.split(",")] for r in rows])
    assert data.shape == (64, 6) and np.isfinite(data).all()


def _string_fields(obj, prefix=""):
    """The str leaves of a nested dict, keyed by their '/'-joined path."""
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            out.update(_string_fields(v, f"{prefix}{k}/"))
        return out
    return {prefix.rstrip("/"): obj} if isinstance(obj, str) else {}


@pytest.mark.parametrize("p, delta", [
    ("3/2", "1/2"), ("2", "1/3"), ("3", "7/2"), ("7", "4"),
])
def test_constants_match_the_benchmark_fingerprints(tmp_path, p, delta):
    # the exact strings of constants.json against the exact-sweep
    # fingerprints the benchmark stores; floats are left out, since
    # full_M_bound and the float views may move with the numpy version
    ref_path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    want = _string_fields(
        json.loads(ref_path.read_text())["exact-sweep"][f"p={p}:delta={delta}"]
    )
    out = tmp_path / "o"
    path = write_cfg(tmp_path, f"p = {p}\ndelta = {delta}\noutput.dir = {out}\n")
    assert main(["constants", "--config", path]) == 0
    data = json.loads((out / "constants.json").read_text())
    data.pop("config")
    data.pop("version")
    got = _string_fields(data)
    assert len(want) >= 15
    assert got == want


class TestSimulateCsv:
    """simulate.csv is the run's history, column for column, plus its flags."""

    @staticmethod
    def check_csv(tmp_path, monkeypatch, extra, pair, no_root=False):
        from cglblow.simulate import Simulator

        runs = []
        run = Simulator.run

        def keep(self, *a, **k):
            runs.append(run(self, *a, **k))
            return runs[-1]

        monkeypatch.setattr(Simulator, "run", keep)
        path = write_cfg(
            tmp_path,
            f"grid.N = 1024\nds = 1e-3\ns_end = 100.05\n{extra}"
            f"output.dir = {tmp_path / 'o'}\n",
        )
        assert main(["simulate", "--config", path, *pair]) == 0
        (res,) = runs
        assert (res.report.exit_s is None) == (not pair)
        lines = (tmp_path / "o" / "simulate.csv").read_text().splitlines()
        names, *rows = [ln for ln in lines if not ln.startswith("#")]
        names = names.split(",")
        table = np.array([[float(x) for x in ln.split(",")] for ln in rows])
        flags = [f"VA_{k}" for k in res.report.names]
        cols = list(res.history)
        assert names == cols + flags
        for j, name in enumerate(cols):
            assert np.array_equal(table[:, j], res.history[name]), name
        flagged = table[:, len(cols):]
        assert np.array_equal(flagged, res.report.ratios > 1.0)
        assert flagged.any() == bool(pair)
        # the modulation flag is an integer column, counted in the header
        failed = res.history["modulation_failed"]
        assert failed.all() if no_root else not failed.any()
        assert f"# modulation_failures = {int(failed.sum())}" in lines
        j = cols.index("modulation_failed")
        assert [ln.split(",")[j] for ln in rows] == [
            str(int(f)) for f in failed]

    @pytest.mark.parametrize("extra, pair", [
        ("", []),                                                # trapped
        ("A = 2\n", ["--d0-tilde", "1.5", "--d1-tilde", "1.5"]),  # exits
    ])
    def test_csv_reads_back_as_the_run(self, tmp_path, monkeypatch, extra,
                                       pair):
        self.check_csv(tmp_path, monkeypatch, extra, pair)

    def test_csv_ends_on_the_exit_record(self, tmp_path, capsys):
        # (7, 4) exits on an early step and overflows a few steps later, so
        # the run ends on its exit record, which is the CSV's last row
        path = write_cfg(
            tmp_path,
            "p = 7\ndelta = 4\ngrid.N = 1024\nds = 1e-3\ns_end = 100.05\n"
            f"output.dir = {tmp_path / 'o'}\n",
        )
        assert main(["simulate", "--config", path]) == 0
        printed = capsys.readouterr().out.split("shrinking-set exit at s = ")
        exit_s = float(printed[1].split()[0])
        lines = (tmp_path / "o" / "simulate.csv").read_text().splitlines()
        names, *rows = [ln for ln in lines if not ln.startswith("#")]
        last = dict(zip(names.split(","), rows[-1].split(",")))
        assert float(last["s"]) == exit_s < 100.05
        assert any(v == "1" for k, v in last.items() if k.startswith("VA_"))

    def test_csv_records_failed_modulation(self, tmp_path, monkeypatch):
        from cglblow.simulate import Simulator

        monkeypatch.setattr(Simulator, "modulate", lambda self, st: False)
        self.check_csv(tmp_path, monkeypatch, "", [], no_root=True)


class TestFailurePaths:
    def test_numerical_failure_is_3(self, tmp_path, monkeypatch):
        from cglblow import simulate

        def boom(self, spec, **kw):
            raise FloatingPointError("scheme blow-up at s = 100.1")

        monkeypatch.setattr(simulate.Simulator, "run", boom)
        path = write_cfg(
            tmp_path,
            f"p = 3\ndelta = 1\ngrid.N = 512\nds = 1e-3\ns_end = 100.01\n"
            f"output.dir = {tmp_path / 'o'}\n",
        )
        assert main(["simulate", "--config", path]) == 3

    def test_verification_failure_is_4(self, tmp_path, monkeypatch):
        import cglblow.verify as verify

        monkeypatch.setattr(
            verify, "verification_report",
            lambda p, d, full=True: [("synthetic", False, "forced failure")],
        )
        path = write_cfg(
            tmp_path, f"p = 3\ndelta = 1\noutput.dir = {tmp_path / 'o'}\n"
        )
        assert main(["verify", "--config", path]) == 4

    def test_non_cancelling_C_in_P_is_4(self, tmp_path, monkeypatch, capsys):
        from cglblow import constants

        real = constants._formal_P
        monkeypatch.setattr(constants, "_formal_P",
                            lambda p, d, beta, b, C: real(p, d, beta, b, C)
                            + C * b)
        path = write_cfg(tmp_path, f"output.dir = {tmp_path / 'o'}\n")
        assert main(["verify", "--config", path]) == 4
        assert "[FAIL] formal/C-cancels-from-P" in capsys.readouterr().out

    def test_singular_implicit_matrix_is_3(self, tmp_path, monkeypatch,
                                           capsys):
        from cglblow import _kernels_np, simulate

        def singular(self, spec, **kw):
            _kernels_np._check("zgttrf", 3)

        monkeypatch.setattr(simulate.Simulator, "run", singular)
        path = write_cfg(
            tmp_path,
            f"p = 3\ndelta = 1\ngrid.N = 512\nds = 1e-3\ns_end = 100.01\n"
            f"output.dir = {tmp_path / 'o'}\n",
        )
        assert main(["simulate", "--config", path]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["numerical failure: zgttrf: zero pivot at row 3; "
                       "the implicit matrix is singular"]

    @pytest.mark.parametrize("command", ["constants", "verify"])
    def test_failed_exact_cross_check_is_4(self, tmp_path, monkeypatch,
                                           capsys, command):
        from cglblow import constants

        # derive_params checks b^2 against its second closed form
        formal = constants.b_critical_formal
        monkeypatch.setattr(constants, "b_critical_formal",
                            lambda p, d: formal(p, d) + 1)
        path = write_cfg(
            tmp_path, f"p = 3\ndelta = 1\noutput.dir = {tmp_path / 'o'}\n"
        )
        assert main([command, "--config", path]) == 4
        err = capsys.readouterr().err.splitlines()
        assert err == ["verification failure: "
                       "the two closed forms of b^2 disagree"]

    def test_failed_basis_identity_is_4(self, tmp_path, monkeypatch, capsys):
        import functools

        from cglblow import spectral

        # a fresh table cache, so the table is built (and checked) here
        monkeypatch.setattr(spectral, "build_basis",
                            functools.cache(spectral.build_basis.__wrapped__))
        apply_L = spectral.apply_L
        monkeypatch.setattr(spectral, "apply_L",
                            lambda h, beta, delta: apply_L(h, beta, delta) + 1)
        path = write_cfg(
            tmp_path, f"p = 3\ndelta = 1\noutput.dir = {tmp_path / 'o'}\n"
        )
        assert main(["basis", "--config", path]) == 4
        err = capsys.readouterr().err.splitlines()
        assert err == ["verification failure: h_0 eigen-relation failed"]


def test_console_scripts_resolve():
    import importlib

    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name
