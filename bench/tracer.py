"""Span tracing around voltvar's public functions, from outside the package.

:class:`Tracer` replaces each traced function by a wrapper at every place
a caller looks it up: the defining module, the package namespace, and the
modules that import it by name (``cli`` and ``dynamics``).  ``powerflow``
calls ``distflow_sweep`` through its module global and ``_DistflowPlant``
resolves it when the plant is built, so patching the module covers both.
``CurveBundle`` methods are patched on the class, and the cached
``Feeder.descendant_matrix`` property is replaced by one that times its
first access on each feeder.

Spans stay in memory as parallel lists (name, parent span, request,
start, end) plus per-span attributes, and are written out by
:meth:`Tracer.write`.  Self time is a span's duration minus the durations
of its direct children.
"""

from __future__ import annotations

import functools
import hashlib
import os
import time

import numpy as np

import voltvar
import voltvar.cli
import voltvar.control
import voltvar.dynamics
import voltvar.feeder_io
import voltvar.network
import voltvar.powerflow

_MODULES = {
    "cli": voltvar.cli,
    "control": voltvar.control,
    "dynamics": voltvar.dynamics,
    "feeder_io": voltvar.feeder_io,
    "network": voltvar.network,
    "powerflow": voltvar.powerflow,
}

# span name -> modules (besides the defining one and the package) that
# import the function by name
FUNCTIONS = {
    "feeder_io.load_feeder": ("cli",),
    "network.build_feeder": ("feeder_io",),
    "network.sensitivity_matrices": ("cli", "dynamics", "powerflow"),
    "network.explicit_inverse_x": (),
    "powerflow.distflow_sweep": (),
    "powerflow.linearization_error": (),
    "dynamics.simulate": ("cli",),
    "dynamics.solve_equilibrium": ("cli",),
    "dynamics.check_d1_condition": ("cli",),
    "dynamics.d3_stepsize_bound": ("cli",),
    "dynamics.d2_regret_bound_check": (),
    "cli.main": (),
    "cli.write_trajectory_csv": (),
}
METHODS = ("evaluate", "inverse", "cost")  # of control.CurveBundle

LAW_PLANT_PATHS = (
    "d1.linear.untracked",
    "d2.linear.untracked",
    "d3.linear.untracked",
    "d2.linear.tracked",
    "d3.distflow.untracked",
)
VERDICTS = ("converged", "oscillating", "max_iterations")
COMPUTED = ("network.dense_bytes", "powerflow.bytes_per_iteration")


def feeder_key(feeder):
    """Content key of a feeder, so rebuilt copies of one feeder match."""
    h = hashlib.blake2b(digest_size=16)
    for a in (feeder.parent, feeder.r, feeder.x, feeder.p_c, feeder.q_c, feeder.p_g,
              feeder.v_nom):
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(repr((feeder.v0, sorted(feeder.inverters.items()))).encode())
    return h.hexdigest()


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


class Tracer:
    def __init__(self):
        self.name, self.parent, self.request, self.start, self.end = [], [], [], [], []
        self.attrs = {}
        self.request_id = -1
        self._stack = []
        self._saved = []

    # -- recording -----------------------------------------------------
    def _wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.name)
            self.name.append(name)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.request.append(self.request_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.start[idx], self.end[idx] = t0, t1
            if hook is not None:
                self.attrs[idx] = hook(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for span, importers in FUNCTIONS.items():
            home, attr = span.split(".")
            original = getattr(_MODULES[home], attr)
            wrapped = self._wrap(span, original, _HOOKS.get(span))
            targets = [_MODULES[home], *(_MODULES[m] for m in importers)]
            if getattr(voltvar, attr, None) is original:
                targets.append(voltvar)
            for mod in targets:
                if getattr(mod, attr) is not original:
                    raise RuntimeError(f"{mod.__name__}.{attr} is not {span}")
                self._saved.append((mod, attr, original))
                setattr(mod, attr, wrapped)
        bundle = voltvar.control.CurveBundle
        for meth in METHODS:
            original = bundle.__dict__[meth]
            self._saved.append((bundle, meth, original))
            setattr(bundle, meth, self._wrap(f"control.CurveBundle.{meth}", original))
        feeder_cls = voltvar.network.Feeder
        original = feeder_cls.__dict__["descendant_matrix"]
        prop = functools.cached_property(
            self._wrap("network.descendant_matrix", original.func, _dense_hook))
        prop.__set_name__(feeder_cls, "descendant_matrix")
        self._saved.append((feeder_cls, "descendant_matrix", original))
        setattr(feeder_cls, "descendant_matrix", prop)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path, header):
        with open(path, "w") as fh:
            fh.write(f"# {header}\n")
            fh.write("span\tparent\trequest\tname\tstart_us\tdur_us\tattrs\n")
            t0 = self.start[0] if self.start else 0.0
            for i, name in enumerate(self.name):
                fh.write(f"{i}\t{self.parent[i]}\t{self.request[i]}\t{name}\t"
                         f"{(self.start[i] - t0) * 1e6:.1f}\t"
                         f"{(self.end[i] - self.start[i]) * 1e6:.1f}\t"
                         f"{self.attrs.get(i, '')}\n")

    # -- per-layer metrics ---------------------------------------------
    def metrics(self):
        dur = np.array(self.end) - np.array(self.start)
        names = np.array(self.name, dtype=object)
        child = np.zeros(len(dur))
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        selfdur = dur - child

        def idx(name):
            return np.flatnonzero(names == name)

        def busy(name):
            return float(dur[idx(name)].sum())

        def attr(i, key, default=0):
            # a span whose call raised has no attributes
            return self.attrs.get(i, {}).get(key, default)

        def attr_sum(name, key):
            return sum(attr(i, key) for i in idx(name))

        out = {}
        for name in ("feeder_io.load_feeder", "network.sensitivity_matrices",
                     "powerflow.distflow_sweep", "control.CurveBundle.evaluate",
                     "dynamics.simulate", "dynamics.solve_equilibrium", "cli.main"):
            out[f"{name}.calls"] = (len(idx(name)), "count")
        for name in ("feeder_io.load_feeder", "network.build_feeder",
                     "network.sensitivity_matrices", "network.explicit_inverse_x",
                     "powerflow.distflow_sweep", "powerflow.linearization_error",
                     "control.CurveBundle.evaluate", "control.CurveBundle.inverse",
                     "control.CurveBundle.cost", "dynamics.simulate",
                     "dynamics.solve_equilibrium", "dynamics.check_d1_condition",
                     "dynamics.d3_stepsize_bound", "dynamics.d2_regret_bound_check",
                     "cli.write_trajectory_csv"):
            out[f"{name}.busy_s"] = (busy(name), "s")
        out["dynamics.simulate.self_s"] = (float(selfdur[idx("dynamics.simulate")].sum()), "s")
        out["cli.main.self_s"] = (float(selfdur[idx("cli.main")].sum()), "s")

        loads = [attr(i, "key") for i in idx("feeder_io.load_feeder")]
        out["feeder_io.loads_per_feeder"] = (
            len(loads) / len(set(loads)) if loads else 0.0, "loads/feeder")
        builds = [attr(i, "feeder") for i in idx("network.sensitivity_matrices")]
        out["network.sensitivity_matrices.builds_per_feeder"] = (
            len(builds) / len(set(builds)) if builds else 0.0, "builds/feeder")
        first = idx("network.descendant_matrix")
        out["network.descendant_matrix.first_s"] = (float(dur[first].sum()), "s")
        dense = {}
        for name in ("network.sensitivity_matrices", "network.explicit_inverse_x",
                     "network.descendant_matrix"):
            for i in idx(name):
                dense.setdefault(attr(i, "feeder"), {})[name] = attr(i, "bytes")
        out["network.dense_bytes"] = (
            max((sum(d.values()) for d in dense.values()), default=0), "B")

        sweeps = idx("powerflow.distflow_sweep")
        iters = attr_sum("powerflow.distflow_sweep", "iterations")
        out["powerflow.distflow_sweep.p50_us"] = (
            float(np.median(dur[sweeps])) * 1e6 if sweeps.size else 0.0, "us")
        out["powerflow.distflow_sweep.iterations_per_call"] = (
            iters / sweeps.size if sweeps.size else 0.0, "iterations")
        # per iteration: two matvecs with the descendant matrix and one with
        # its transpose, plus about 16 length-n vectors
        moved = sum(attr(i, "iterations") * (24 * attr(i, "n") ** 2 + 128 * attr(i, "n"))
                    for i in sweeps)
        out["powerflow.bytes_per_iteration"] = (moved / iters if iters else 0.0, "B")

        sims = idx("dynamics.simulate")
        out["dynamics.simulate.steps"] = (attr_sum("dynamics.simulate", "steps"), "steps")
        for path in LAW_PLANT_PATHS:
            sel = [i for i in sims if attr(i, "path") == path]
            steps = sum(attr(i, "steps") for i in sel)
            out[f"dynamics.simulate.us_per_step.{path}"] = (
                float(dur[sel].sum()) / steps * 1e6 if steps else 0.0, "us")
        for verdict in VERDICTS:
            out[f"dynamics.simulate.verdict.{verdict}"] = (
                sum(1 for i in sims if attr(i, "verdict") == verdict), "count")
        out["dynamics.solve_equilibrium.iterations"] = (
            attr_sum("dynamics.solve_equilibrium", "iterations"), "iterations")
        out["cli.write_trajectory_csv.bytes"] = (
            attr_sum("cli.write_trajectory_csv", "bytes"), "B")
        return out

    def counts(self):
        """Span counts by name, for the run's deterministic record."""
        return dict(sorted((n, self.name.count(n)) for n in set(self.name)))


def _load_hook(args, kwargs, result):
    source = _arg(args, kwargs, 0, "source")
    knobs = tuple(sorted((k, v) for k, v in kwargs.items() if k != "source"))
    return {"key": (source if isinstance(source, str) else id(source), args[1:], knobs)}


def _sens_hook(args, kwargs, result):
    return {"feeder": feeder_key(result.feeder), "bytes": result.R.nbytes + result.X.nbytes}


def _inverse_hook(args, kwargs, result):
    return {"feeder": feeder_key(_arg(args, kwargs, 0, "feeder")), "bytes": result.nbytes}


def _dense_hook(args, kwargs, result):
    return {"feeder": feeder_key(args[0]), "bytes": result.nbytes}


def _sweep_hook(args, kwargs, result):
    return {"iterations": result.iterations, "n": _arg(args, kwargs, 0, "feeder").n}


def _simulate_hook(args, kwargs, result):
    plant = _arg(args, kwargs, 2, "plant", "linear")
    plant = plant if isinstance(plant, str) else plant.kind
    tracked = "tracked" if _arg(args, kwargs, 7, "track_objective", False) else "untracked"
    law = _arg(args, kwargs, 1, "config").kind
    return {"path": f"{law}.{plant}.{tracked}", "steps": result.steps, "verdict": result.verdict}


def _equilibrium_hook(args, kwargs, result):
    return {"iterations": result.iterations}


def _csv_hook(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


_HOOKS = {
    "feeder_io.load_feeder": _load_hook,
    "network.sensitivity_matrices": _sens_hook,
    "network.explicit_inverse_x": _inverse_hook,
    "powerflow.distflow_sweep": _sweep_hook,
    "dynamics.simulate": _simulate_hook,
    "dynamics.solve_equilibrium": _equilibrium_hook,
    "cli.write_trajectory_csv": _csv_hook,
}
