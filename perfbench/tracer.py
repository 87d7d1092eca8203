"""Span and count tracing around the public entry points of each cglblow layer.

The wrappers are installed from outside the package, before any object that
binds a wrapped function is built (``Stepper`` binds its solve routine at
construction, ``simulate`` imports ``phi`` by name): every cglblow module
attribute that is a wrapped function is rebound to its wrapper.

Each span is ``[name, start, end, parent_index, info]`` on the monotonic
clock, which is shared by all processes of the machine, and is kept in memory
until the run ends.  Shooting probes run in forked pool workers; each worker
starts an empty record and, after its initializer and after every probe,
writes the spans it holds to a file in ``ship_dir``; the wrapper around
``shoot`` merges those files when the search returns.  The program's
outputs are unchanged.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

CLOCK = time.monotonic

MODULES = (
    "exact", "series", "constants", "spectral", "profilefield", "stepping",
    "_kernels_np", "simulate", "shooting", "verify", "cli",
)


def _size(args, out):
    return int(getattr(args[0], "size", 1))


def _solve_bytes(args, out):
    # computed, not measured: banded factor + right side + solution
    fact, rhs = args
    return int(getattr(fact, "nbytes", 0) + rhs.nbytes + out.nbytes)


def _returned(args, out):
    return out


def _check_rows(args, out):
    return (len(out), sum(1 for _, ok, _ in out if not ok))


def _scan_width(args, out):
    cfg, pairs, workers = args
    return (int(workers), len(pairs))


# (module, attribute, span name, info); the kernel module is the one the
# stepping layer selected at import
FUNCTIONS = (
    ("constants", "derive_params", "constants.derive_params", None),
    ("constants", "mu_critical", "constants.mu_critical", None),
    ("constants", "shrink_combo_constants", "constants.shrink_combo_constants", None),
    ("constants", "projection_tables", "constants.projection_tables", None),
    ("constants", "ode_coefficients", "constants.ode_coefficients", None),
    ("constants", "formal_pipeline", "constants.formal_pipeline", None),
    ("constants", "transcription_report", "constants.transcription_report", None),
    ("spectral", "build_basis", "spectral.build_basis", None),
    ("spectral", "project_sampled", "spectral.project_sampled", None),
    ("spectral", "semigroup_apply", "spectral.semigroup_apply", None),
    ("profilefield", "phi", "profilefield.phi", _size),
    ("profilefield", "cutoff_chi", "profilefield.cutoff_chi", None),
    ("profilefield", "initial_data", "profilefield.initial_data", None),
    ("KERNELS", "cn_rhs", "stepping.rhs", None),
    ("KERNELS", "tri_solve_factored", "stepping.solve", _solve_bytes),
    ("KERNELS", "penta_solve_factored", "stepping.solve", _solve_bytes),
    ("simulate", "linear_eigenmode_error", "simulate.linear_eigenmode_error", None),
    ("shooting", "shoot", "shooting.shoot", None),
    ("shooting", "_scan", "shooting.scan", _scan_width),
    ("shooting", "_init_worker", "shooting.init_worker", None),
    ("shooting", "_run_probe", "shooting.probe", None),
    ("verify", "verification_report", "verify.verification_report", _check_rows),
    ("verify", "basis_checks", "verify.basis_checks", None),
    ("cli", "cmd_constants", "cli.cmd_constants", None),
    ("cli", "cmd_verify", "cli.cmd_verify", None),
    ("cli", "cmd_simulate", "cli.cmd_simulate", None),
)

# (module, class, method, span name, info)
METHODS = (
    ("exact", "Poly", "__add__", "exact.Poly.add", None),
    ("exact", "Poly", "__mul__", "exact.Poly.mul", None),
    ("series", "TSeries", "__add__", "series.TSeries.add", None),
    ("series", "TSeries", "__mul__", "series.TSeries.mul", None),
    ("series", "TSeries", "binom_pow", "series.TSeries.binom_pow", None),
    ("series", "TSeries", "t_coefficient", "series.TSeries.t_coefficient", None),
    ("spectral", "BasisFloats", "convert_Q", "spectral.convert_Q", None),
    ("stepping", "Stepper", "__init__", "stepping.Stepper.init", None),
    ("stepping", "Stepper", "step", "stepping.Stepper.step", None),
    ("simulate", "Simulator", "__init__", "simulate.Simulator.init", None),
    ("simulate", "Simulator", "initial_state", "simulate.Simulator.initial_state", None),
    ("simulate", "Simulator", "run", "simulate.Simulator.run", None),
    ("simulate", "Simulator", "step", "simulate.Simulator.step", None),
    ("simulate", "Simulator", "modulate", "simulate.Simulator.modulate", _returned),
    ("simulate", "Simulator", "diagnose", "simulate.Simulator.diagnose", None),
    ("simulate", "Simulator", "project_q", "simulate.Simulator.project_q", None),
)


class Tracer:
    """In-memory span record of one process."""

    def __init__(self, ship_dir):
        self.ship_dir = ship_dir
        self.root_pid = os.getpid()
        self.pid = self.root_pid
        self.spans: list = []
        self._stack: list = []
        self._shipped = 0

    def wrap(self, name, fn, info=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = CLOCK()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = CLOCK()
                stack.pop()
            if info is not None:
                rec[4] = info(args, out)
            return out

        return traced

    def adopt_process(self):
        """Start an empty record in a forked child (lists cleared in place)."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self._shipped = 0
            del self.spans[:]
            del self._stack[:]

    def ship(self):
        """In a forked worker: write the spans held so far and drop them."""
        if os.getpid() == self.root_pid:
            return
        self._shipped += 1
        path = os.path.join(self.ship_dir, f"spans-{self.pid}-{self._shipped}.json")
        with open(path, "w") as fh:
            json.dump(self.spans, fh)
        del self.spans[:]

    def collect(self):
        """In the parent: merge every file the workers shipped."""
        for name in sorted(os.listdir(self.ship_dir)):
            if name.startswith("spans-"):
                path = os.path.join(self.ship_dir, name)
                with open(path) as fh:
                    self.merge(json.load(fh))
                os.remove(path)

    def merge(self, shipped: list):
        """Append spans shipped from another process, keeping their tree."""
        base = len(self.spans)
        for name, t0, t1, parent, info in shipped:
            self.spans.append(
                [name, t0, t1, parent + base if parent >= 0 else -1, info]
            )


def _rebind(original, wrapper):
    """Point every cglblow module attribute that is ``original`` at ``wrapper``."""
    for modname, mod in list(sys.modules.items()):
        if modname != "cglblow" and not modname.startswith("cglblow."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
    from cglblow import cli

    for key, value in list(cli.COMMANDS.items()):
        if value is original:
            cli.COMMANDS[key] = wrapper


def install(ship_dir) -> Tracer:
    """Import every layer, wrap its entry points, and return the tracer."""
    mods = {m: importlib.import_module(f"cglblow.{m}") for m in MODULES}
    mods["KERNELS"] = mods["stepping"].KERNELS
    tracer = Tracer(ship_dir)
    for mod, attr, name, info in FUNCTIONS:
        original = getattr(mods[mod], attr)
        wrapper = tracer.wrap(name, original, info)
        if attr == "_init_worker":
            wrapper = _worker_side(tracer, wrapper, adopt=True)
        elif attr == "_run_probe":
            wrapper = _worker_side(tracer, wrapper, adopt=False)
        elif attr == "shoot":
            wrapper = _collecting(tracer, wrapper)
        _rebind(original, wrapper)
    for mod, cls_name, meth, name, info in METHODS:
        cls = getattr(mods[mod], cls_name)
        setattr(cls, meth, tracer.wrap(name, getattr(cls, meth), info))
    return tracer


def _worker_side(tracer, fn, adopt):
    @functools.wraps(fn)
    def call(*args):
        if adopt:
            tracer.adopt_process()
        out = fn(*args)
        tracer.ship()
        return out

    return call


def _collecting(tracer, fn):
    @functools.wraps(fn)
    def shoot(*args, **kwargs):
        res = fn(*args, **kwargs)
        tracer.collect()
        return res

    return shoot
