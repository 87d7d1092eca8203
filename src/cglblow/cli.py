"""Command-line entry points.

Subcommands: constants, verify, basis, profile, simulate, shoot.  A
line-oriented ``key = value`` configuration file supplies the knobs; every
output file starts with a header block echoing the resolved configuration.

Exit codes: 0 success; 2 domain error or invalid input; 3 numerical
failure (a non-finite field, or a singular implicit matrix); 4 verification
failure (a FAIL row of ``verify``, or an exact cross-check of the constant
pipeline that does not hold, which ends the command with a one-line
message).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .constants import (
    DomainError,
    derive_params,
    formal_pipeline,
    mu_critical,
    ode_coefficients,
    shrink_combo_constants,
)
from .exact import format_poly, is_zero, to_complex

CONFIG_KEYS = {
    "p": "3",
    "delta": "1",
    "grid.L": "88",
    "grid.N": "8192",
    "ds": "5e-4",
    "s0": "100",
    "s_end": "105",
    "K": "12",
    "A": "20",
    "M_track": "6",
    "scheme": "imex2",
    "output.dir": "out",
}


def parse_config(path) -> dict:
    cfg = dict(CONFIG_KEYS)
    if path is None:
        return cfg
    text = Path(path).read_text()
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ValueError(f"{path}:{lineno}: repeated key {key!r}")
        seen.add(key)
        cfg[key] = value.strip()
    return cfg


def _frac(cfg: dict, key: str) -> Fraction:
    """The config value ``key`` as a fraction; 1/0 is invalid input."""
    try:
        return Fraction(cfg[key])
    except ZeroDivisionError:
        raise ValueError(f"{key} = {cfg[key]}: zero denominator") from None


def header_lines(cfg: dict, extra: dict = None) -> list:
    lines = [f"# cglblow {__version__}"]
    for k in sorted(cfg):
        lines.append(f"# {k} = {cfg[k]}")
    for k, v in sorted((extra or {}).items()):
        lines.append(f"# {k} = {v}")
    return lines


def _scalar_json(v, kappa: float) -> dict:
    c = to_complex(v, kappa)
    out = {"float_re": c.real, "float_im": c.imag}
    val = v.value if hasattr(v, "grade") else v
    if hasattr(val, "c0"):
        out["exact"] = str(val)
        if hasattr(v, "grade"):
            out["kappa_grade"] = v.grade
    return out


def _output_path(cfg: dict, name: str) -> Path:
    """The file ``name`` in the output directory, which is made if missing."""
    out = Path(cfg["output.dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _params_for(cfg) -> "ProfileParams":
    return derive_params(_frac(cfg, "p"), _frac(cfg, "delta"))


def cmd_constants(cfg, args) -> int:
    from .profilefield import FloatParams, bound_M

    pm = _params_for(cfg)
    ode = ode_coefficients(pm)
    mu_sc = mu_critical(pm)
    mu_pr = mu_critical(pm, flavor="printed")
    pm = pm.with_mu(mu_sc.mu)
    combos = shrink_combo_constants(pm)
    fr = formal_pipeline(pm.p, pm.delta)
    fp = FloatParams.from_exact(pm)
    kap = fp.kappa
    payload = {
        "version": __version__,
        "config": cfg,
        "params": {
            "p": str(pm.p), "delta": str(pm.delta), "beta": str(pm.beta),
            "b2": str(pm.b2), "b_float": fp.b,
            "nu": _scalar_json(pm.nu, kap), "a": _scalar_json(pm.a, kap),
            "kappa_float": kap,
            "p_cri2": None if pm.p_cri2 is None else str(pm.p_cri2),
            "mu_selfconsistent": _scalar_json(mu_sc.mu, kap),
            "mu_printed_flavor": _scalar_json(mu_pr.mu, kap),
        },
        "ode": {
            "Htilde1": _scalar_json(ode.Htilde1, kap),
            "Htilde1_closed": str(ode.Htilde1_closed),
            "Htilde1_selfconsistent": _scalar_json(ode.Htilde1_selfconsistent, kap),
            "Htilde2": _scalar_json(ode.Htilde2, kap),
            "b2_root": str(ode.b2_root),
            "cancellations_zero": all(is_zero(c) for c in (
                ode.coef_1_over_s, ode.coef_q2_over_sqrt_s, ode.coef_q2sq,
                ode.coef_s32)),
        },
        "shrink_combos": {
            k: v for k, v in combos.float_map(kap).items()
        },
        "full_M_bound": bound_M(fp),
        "formal": {
            "b2_root": str(fr.b2_root),
            "mu_bracket": str(fr.mu_bracket),
            "mu_bracket_printed": str(fr.mu_bracket_printed),
            "mu_C_coefficient": str(fr.mu_C_coefficient),
        },
    }
    path = _output_path(cfg, "constants.json")
    path.write_text(json.dumps(payload, indent=2))
    print(f"wrote {path}")
    return 0


def cmd_verify(cfg, args) -> int:
    from .verify import verification_report

    checks = verification_report(_frac(cfg, "p"), _frac(cfg, "delta"))
    path = _output_path(cfg, "verify.txt")
    failures = 0
    with path.open("w") as fh:
        for line in header_lines(cfg):
            fh.write(line + "\n")
        for name, ok, detail in checks:
            mark = "PASS" if ok else "FAIL"
            fh.write(f"[{mark}] {name}: {detail}\n")
            print(f"[{mark}] {name}: {detail}")
            failures += not ok
    print(f"wrote {path} ({len(checks)} checks, {failures} failures)")
    return 4 if failures else 0


def cmd_basis(cfg, args) -> int:
    from .spectral import build_basis

    pm = _params_for(cfg)
    M = int(cfg["M_track"])
    basis = build_basis(M, pm.p, pm.delta, pm.beta)
    path = _output_path(cfg, "basis.txt")
    with path.open("w") as fh:
        for line in header_lines(cfg):
            fh.write(line + "\n")
        for n in range(M + 1):
            fh.write(f"h_{n} = {format_poly(basis.h[n])}\n")
            fh.write(f"ht_{n} = {format_poly(basis.h_tilde[n])}\n")
            fh.write(f"c_{n} = {basis.c[n]}\n")
    print(f"wrote {path}")
    return 0


def cmd_profile(cfg, args) -> int:
    from .profilefield import FloatParams, phi, potentials, rest_R

    L, N = float(cfg["grid.L"]), int(cfg["grid.N"])
    s = float(cfg["s0"])
    if not (math.isfinite(L) and L > 0.0):
        raise ValueError(f"grid.L must be finite and > 0, got {L}")
    if N < 2:
        raise ValueError(f"grid.N must be >= 2, got {N}")
    if not (math.isfinite(s) and s > 1.0):
        raise ValueError(f"s0 must be finite and > 1, got {s}")
    fp = FloatParams.from_exact(_params_for(cfg))
    y = np.linspace(-L, L, N)
    ph = phi(y, fp, s)
    v1, v2 = potentials(y, fp, s)
    R = rest_R(y, fp, s)
    path = _output_path(cfg, "profile.csv")
    # np.hypot, not np.abs: numpy's vectorised complex abs can differ from
    # the correctly rounded modulus in the last bit
    mods = [np.hypot(f.real, f.imag) for f in (R, v1, v2)]
    with path.open("w") as fh:
        np.savetxt(
            fh, np.column_stack([y, ph.real, ph.imag] + mods),
            delimiter=",", fmt="%.17g", comments="",
            header="\n".join(header_lines(cfg, {"s": s})
                              + ["y,re_phi,im_phi,abs_R,abs_V1,abs_V2"]),
        )
    print(f"wrote {path}")
    return 0


def _sim_config(cfg):
    """The run's SimConfig, with mu unset: the Simulator built on it
    validates it and only then derives mu."""
    from .simulate import SimConfig

    if cfg["scheme"] != "imex2":
        raise ValueError(f"unknown scheme {cfg['scheme']!r} (only imex2, "
                         "Crank-Nicolson / Adams-Bashforth 2, runs)")
    return SimConfig(
        params=_params_for(cfg),
        L=float(cfg["grid.L"]),
        N=int(cfg["grid.N"]),
        ds=float(cfg["ds"]),
        s0=float(cfg["s0"]),
        s_end=float(cfg["s_end"]),
        K=float(cfg["K"]),
        A=float(cfg["A"]),
        M_track=int(cfg["M_track"]),
    )


def cmd_simulate(cfg, args) -> int:
    from .profilefield import InitialDataSpec
    from .simulate import Simulator

    # the pair is checked before the costly set-up
    spec = InitialDataSpec(d0_tilde=args.d0_tilde, d1_tilde=args.d1_tilde)
    sim = Simulator(_sim_config(cfg))
    res = sim.run(spec)
    # simulate.csv holds every history column, then the bound flags
    h = res.history
    flags = res.report.ratios > 1.0
    extra = {"space_order": sim.config.space_order, "mu": sim.fp.mu,
             "d0_tilde": args.d0_tilde, "d1_tilde": args.d1_tilde,
             "modulation_failures": int(h["modulation_failed"].sum())}
    names = list(h) + [f"VA_{k}" for k in res.report.names]
    fmt = ["%d" if k == "modulation_failed" else "%.17g" for k in h]
    path = _output_path(cfg, "simulate.csv")
    with path.open("w") as fh:
        np.savetxt(
            fh, np.column_stack(list(h.values()) + [flags]), delimiter=",",
            fmt=fmt + ["%d"] * flags.shape[1], comments="",
            header="\n".join(header_lines(cfg, extra) + [",".join(names)]),
        )
    print(f"wrote {path}")
    if res.report.exit_s is not None:
        print(
            f"shrinking-set exit at s = {res.report.exit_s} "
            f"via {res.report.exit_component}"
        )
    return 0


def cmd_shoot(cfg, args) -> int:
    from .shooting import exit_sign_pattern, shoot

    sc = _sim_config(cfg)
    res = shoot(
        sc, grid_n=args.grid_n, refine=not args.no_refine,
        probe_N=args.probe_N, probe_ds=args.probe_ds,
        workers=args.workers,
    )
    payload = {
        "version": __version__,
        "config": cfg,
        "meta": res.meta,
        "best": vars(res.best),
        "corner_signs": {
            f"{k[0]},{k[1]}": [v[0], v[1]] for k, v in res.corner_signs.items()
        },
        "quadrants": sorted(exit_sign_pattern(res.probes)),
        "probes": [vars(p) for p in res.probes],
    }
    if args.s0_study:
        from .simulate import s0_scaling_study

        payload["s0_scaling"] = s0_scaling_study(sc)
    path = _output_path(cfg, "shoot.json")
    path.write_text(json.dumps(payload, indent=2, default=float))
    print(f"wrote {path}")
    print(
        f"best pair: ({res.best.d0:.6g}, {res.best.d1:.6g}) "
        f"exit s = {res.best.exit_s:.6g}"
    )
    return 0


COMMANDS = {
    "constants": cmd_constants,
    "verify": cmd_verify,
    "basis": cmd_basis,
    "profile": cmd_profile,
    "simulate": cmd_simulate,
    "shoot": cmd_shoot,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="cglblow", description=__doc__)
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--config", help="key = value configuration file")
    ap.add_argument("--output-dir", help="override output.dir")
    ap.add_argument("--d0-tilde", type=float, default=0.0,
                    help="simulate: unit-mode shooting knob in [-2, 2]")
    ap.add_argument("--d1-tilde", type=float, default=0.0,
                    help="simulate: degree-one shooting knob in [-2, 2]")
    ap.add_argument("--grid-n", type=int, default=8, help="shoot: grid size")
    ap.add_argument("--no-refine", action="store_true",
                    help="shoot: skip the refinement round")
    ap.add_argument("--probe-N", type=int, default=None,
                    help="shoot: cheaper probe grid size")
    ap.add_argument("--probe-ds", type=float, default=None,
                    help="shoot: cheaper probe step")
    ap.add_argument("--workers", type=int, default=None,
                    help="shoot: worker count >= 1 (default min(CPUs in the "
                         "affinity mask, 8))")
    ap.add_argument("--s0-study", action="store_true",
                    help="shoot: record bound-ratio scaling over s0 in {50,100,200}")
    args = ap.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.output_dir:
            cfg["output.dir"] = args.output_dir
        return COMMANDS[args.command](cfg, args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    # a singular implicit matrix is a ValueError, and a non-finite field an
    # ArithmeticError: both are numerical, so they go before those
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, ArithmeticError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
