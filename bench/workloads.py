"""The three benchmark workloads.

Each workload offers

* ``setup(seed)``: import-to-ready work (feeder load or generation, build,
  sensitivity matrices), timed by the set-up probe;
* ``prepare(seed, workdir)``: ``setup`` plus the seeded request pool and
  the set-up checks;
* ``request(state, i)``: request ``i`` of the closed loop, with its
  correctness checks.  It returns the samples the end-to-end metrics are
  built from and raises :class:`CheckFailed` when an output is wrong.

Library calls go through ``vv.<name>`` and ``cli.<name>`` at call time,
so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
from types import SimpleNamespace

import numpy as np

import synth
import voltvar as vv
import voltvar.cli as cli

SCE42 = "builtin:sce42"


class CheckFailed(AssertionError):
    """An output of the program failed a correctness check."""


def check(ok, message):
    if not ok:
        raise CheckFailed(message)


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def samples(request_s, points=1, steps=0, sim_s=0.0, eq_ms=()):
    return {"request_s": request_s, "points": points, "steps": steps,
            "sim_s": sim_s, "eq_ms": list(eq_ms)}


class Sce42Sweep:
    """In-process ``voltvar sweep`` calls on builtin:sce42, one at a time.

    Every grid point of a sweep reloads the feeder and rebuilds X, which is
    about half of a point's time; caching, batching or in-process sweeps
    show here.  Each sweep is checked against the library: every grid point
    is re-solved with ``solve_equilibrium`` and re-run with ``simulate``,
    and those calls give this workload's equilibrium and step samples.
    """

    name = "sce42-sweep"
    trace_requests = 40
    POOL = 32
    PARAMS = ("alpha", "load_scale", "gamma2", "gamma3")
    GRID_POINTS = 3
    MAX_ITER = 2000
    TOL = 1e-6

    def setup(self, seed):
        feeder = vv.load_feeder(SCE42)
        return feeder, vv.sensitivity_matrices(feeder)

    def prepare(self, seed, workdir):
        feeder, mats = self.setup(seed)
        rng = np.random.default_rng(seed)
        pool = [self._grid(rng, self.PARAMS[i % len(self.PARAMS)]) for i in range(self.POOL)]
        return SimpleNamespace(pool=pool, feeders={1.0: (feeder, mats)}, first_text={},
                               out=str(workdir / "sweep.csv"))

    def _grid(self, rng, param):
        n = self.GRID_POINTS
        alpha = None
        if param == "alpha":
            values = rng.uniform(2.0, 60.0, n)
        elif param == "load_scale":
            values = rng.uniform(0.5, 1.5, n)
            alpha = float(rng.uniform(5.0, 20.0))
        elif param == "gamma2":
            values = np.exp(rng.uniform(math.log(3e-3), math.log(3e-2), n))
        else:
            values = rng.uniform(0.1, 0.9, n)
            alpha = float(rng.uniform(10.0, 30.0))
        return SimpleNamespace(param=param, values=sorted(float(v) for v in values), alpha=alpha)

    def _feeder(self, state, load_scale):
        if load_scale not in state.feeders:
            feeder = vv.load_feeder(SCE42, load_scale=load_scale)
            state.feeders[load_scale] = (feeder, vv.sensitivity_matrices(feeder))
        return state.feeders[load_scale]

    def request(self, state, i):
        g = state.pool[i % len(state.pool)]
        argv = ["sweep", g.param, "--grid", ",".join(repr(v) for v in g.values),
                "--max-iter", str(self.MAX_ITER), "--tol", repr(self.TOL),
                "--jobs", "1", "--out", state.out]
        if g.alpha is not None:
            argv += ["--alpha", repr(g.alpha)]
        stdout = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        request_s = time.perf_counter() - t0
        check(code == 0, f"sweep exited {code}")
        with open(state.out) as fh:
            text = fh.read()
        check(stdout.getvalue() == text, "sweep stdout differs from its --out file")
        seen = state.first_text.setdefault(i % len(state.pool), text)
        check(seen == text, f"sweep output changed on a repeat of grid {i % len(state.pool)}")

        lines = text.splitlines()
        check(lines[0] == f"{g.param},eq_max_deviation,verdict,sigma", "bad sweep header")
        rows = [ln.split(",") for ln in lines[1:]]
        check(len(rows) == len(g.values), f"{len(rows)} rows for {len(g.values)} grid points")

        steps, sim_s, eq_ms, devs = 0, 0.0, [], []
        for value, row in zip(g.values, rows):
            check(len(row) == 4 and float(row[0]) == value, f"bad sweep row {row}")
            feeder, mats = self._feeder(state, value if g.param == "load_scale" else 1.0)
            kind, gamma2, gamma3 = "d1", None, None
            alpha = value if g.param == "alpha" else g.alpha
            if g.param == "gamma2":
                kind, gamma2 = "d2", value
            elif g.param == "gamma3":
                kind, gamma3 = "d3", value
            config = vv.ControllerConfig.from_feeder(
                feeder, kind, alpha=alpha, gamma2=gamma2, gamma3=gamma3)
            sigma = vv.check_d1_condition(config.bundle, mats.X).sigma
            eq, dt = timed(vv.solve_equilibrium, feeder, curves=config.curves,
                           q_min=config.q_min, q_max=config.q_max, mats=mats)
            eq_ms.append(dt * 1e3)
            traj, dt = timed(vv.simulate, feeder, config, plant="linear", tol=self.TOL,
                             max_iter=self.MAX_ITER, mats=mats, record_every=self.MAX_ITER)
            sim_s += dt
            steps += traj.steps
            dev = float(np.abs(eq.v_star - feeder.v_nom).max())
            devs.append(dev)
            expect = [repr(value), repr(dev), traj.verdict, repr(float(sigma))]
            check(row == expect, f"sweep row {row} differs from the library's {expect}")
        if g.param == "alpha":
            check(all(b <= a + 1e-12 for a, b in zip(devs, devs[1:])),
                  f"equilibrium deviation grows with alpha: {devs}")
        return samples(request_s, points=len(g.values), steps=steps, sim_s=sim_s, eq_ms=eq_ms)


class Sce42Regret:
    """Long fixed-length subgradient runs on sce42's linear plant.

    Each request solves the equilibrium, runs d2 untracked (the scalar
    path) and tracked (the array path), audits the tracked run against the
    running-average bound, exports it as CSV, and runs d3 to convergence.
    Set-up is negligible next to the control-step kernel.
    """

    name = "sce42-regret"
    trace_requests = 12
    POOL = 8
    UNTRACKED_STEPS = 10000
    TRACKED_STEPS = 500
    RECORD_EVERY = 10
    EQ_TOL = 1e-9

    def setup(self, seed):
        feeder = vv.load_feeder(SCE42)
        return feeder, vv.sensitivity_matrices(feeder)

    def prepare(self, seed, workdir):
        feeder, mats = self.setup(seed)
        rng = np.random.default_rng(seed)
        pool = []
        for _ in range(self.POOL):
            alpha = float(rng.uniform(15.0, 35.0))
            gamma2 = float(np.exp(rng.uniform(math.log(1e-3), math.log(1e-2))))
            config = vv.ControllerConfig.from_feeder(feeder, "d2", alpha=alpha, gamma2=gamma2)
            grad_bound = vv.estimate_gradient_bound(
                mats, config.curves, config.q_min, config.q_max, seed=0)
            pool.append(SimpleNamespace(config=config, gamma2=gamma2, grad_bound=grad_bound,
                                        gamma3_share=float(rng.uniform(0.3, 0.9))))
        return SimpleNamespace(feeder=feeder, mats=mats, pool=pool,
                               out=str(workdir / "regret.csv"))

    def request(self, state, i):
        sc = state.pool[i % len(state.pool)]
        feeder, mats, config = state.feeder, state.mats, sc.config
        t0 = time.perf_counter()
        eq, eq_s = timed(vv.solve_equilibrium, feeder, curves=config.curves,
                         q_min=config.q_min, q_max=config.q_max, tol=self.EQ_TOL, mats=mats)
        check(eq.fixed_point_residual < self.EQ_TOL, "equilibrium residual above tolerance")
        sigma = vv.check_d1_condition(config.bundle, mats.X).sigma
        check(math.isfinite(sigma), "non-finite feedback modulus")
        gamma3 = sc.gamma3_share * vv.d3_stepsize_bound(config.bundle, mats.X)

        untracked, s1 = timed(vv.simulate, feeder, config, mats=mats, tol=0.0,
                              max_iter=self.UNTRACKED_STEPS, record_every=self.UNTRACKED_STEPS,
                              oscillation_window=None)
        check(untracked.steps == self.UNTRACKED_STEPS
              and untracked.verdict == "max_iterations"
              and np.isfinite(untracked.q_average).all(), "untracked d2 run misbehaved")

        tracked, s2 = timed(vv.simulate, feeder, config, mats=mats, tol=0.0,
                            max_iter=self.TRACKED_STEPS, record_every=self.RECORD_EVERY,
                            track_objective=True, oscillation_window=None)
        audit = vv.d2_regret_bound_check(tracked, eq.q_star, eq.objective, sc.gamma2,
                                         sc.grad_bound)
        check(audit.standard_holds, "running-average bound violated")
        cli.write_trajectory_csv(tracked, state.out)
        with open(state.out) as fh:
            rows = fh.read().splitlines()
        check(len(rows) == tracked.times.size + 1 and rows[0].endswith(",residual,F"),
              "trajectory CSV has the wrong shape")

        d3 = vv.ControllerConfig(kind="d3", curves=config.curves, q_min=config.q_min,
                                 q_max=config.q_max, gamma3=gamma3)
        run3, s3 = timed(vv.simulate, feeder, d3, mats=mats, tol=self.EQ_TOL, max_iter=20000)
        check(run3.verdict == "converged", f"d3 run ended {run3.verdict}")
        check(float(np.abs(run3.final_v - eq.v_star).max()) <= 1e-5,
              "d3 run converged away from the equilibrium")
        request_s = time.perf_counter() - t0
        return samples(request_s, steps=untracked.steps + tracked.steps + run3.steps,
                       sim_s=s1 + s2 + s3, eq_ms=[eq_s * 1e3])


class Radial1kDistflow:
    """Seeded 1000-bus radial feeder on the full branch-flow plant.

    ``network`` and ``powerflow`` dominate: set-up builds dense n x n
    operators, and each plant step runs several dense sweeps.  Half the
    inverters use table curves, so control's per-element path runs too.
    """

    name = "radial1k-distflow"
    trace_requests = 12
    POOL = 8
    STEPS = 10
    EQ_TOL = 1e-6

    def setup(self, seed):
        buses, lines, inverters, specs, v0 = synth.radial_records(seed)
        feeder = vv.build_feeder(
            [vv.Bus(**b) for b in buses],
            [vv.Line(a, b, r=r, x=x) for a, b, r, x in lines],
            inverters={b: vv.Inverter(s=s, p=p) for b, (s, p) in inverters.items()},
            slack_label=0, v0=v0, curve_specs=specs,
        )
        mats = vv.sensitivity_matrices(feeder)
        return feeder, mats, vv.explicit_inverse_x(feeder)

    def prepare(self, seed, workdir):
        feeder, mats, x_inv = self.setup(seed)
        rng = np.random.default_rng(seed)
        z = rng.normal(size=feeder.n)
        err = float(np.abs(x_inv @ (mats.X @ z) - z).max())
        check(err <= 1e-8 * float(np.abs(z).max()), f"explicit inverse off by {err:.3e}")
        base = vv.ControllerConfig.from_feeder(feeder, "d1")
        eq = vv.solve_equilibrium(feeder, curves=base.curves, q_min=base.q_min,
                                  q_max=base.q_max, tol=self.EQ_TOL, mats=mats)
        v_flat = vv.distflow_sweep(feeder, np.zeros(feeder.n)).v
        synth.check_shape(feeder, v_flat, eq.iterations)
        pool = [SimpleNamespace(alpha_scale=float(rng.uniform(0.7, 1.3)),
                                gamma3_share=float(rng.uniform(0.3, 0.7)),
                                q0=0.5 * rng.uniform(base.q_min, base.q_max))
                for _ in range(self.POOL)]
        return SimpleNamespace(feeder=feeder, mats=mats, pool=pool,
                               q_min=base.q_min, q_max=base.q_max)

    def request(self, state, i):
        sc = state.pool[i % len(state.pool)]
        feeder, mats = state.feeder, state.mats
        t0 = time.perf_counter()
        curves = {}
        for k, spec in feeder.curve_specs.items():
            if spec["type"] == "droop":
                curves[k] = vv.DroopCurve(alpha=spec["alpha"] * sc.alpha_scale,
                                          deadband=spec["deadband"])
            else:
                curves[k] = vv.curve_from_spec(spec)
        gamma3 = sc.gamma3_share * vv.d3_stepsize_bound(curves, mats.X)
        eq, eq_s = timed(vv.solve_equilibrium, feeder, curves=curves, q_min=state.q_min,
                         q_max=state.q_max, tol=self.EQ_TOL, mats=mats)
        act = np.array(sorted(curves))
        target = np.clip(vv.CurveBundle(curves).evaluate((eq.v_star - feeder.v_nom)[act]),
                         state.q_min[act], state.q_max[act])
        check(eq.fixed_point_residual < self.EQ_TOL
              and float(np.abs(eq.q_star[act] - target).max()) < self.EQ_TOL,
              "equilibrium certificate fails")

        config = vv.ControllerConfig(kind="d3", curves=curves, q_min=state.q_min,
                                     q_max=state.q_max, gamma3=gamma3)
        traj, sim_s = timed(vv.simulate, feeder, config, plant="distflow", q0=sc.q0, tol=0.0,
                            max_iter=self.STEPS, record_every=self.STEPS,
                            oscillation_window=None)
        check(traj.steps == self.STEPS and np.isfinite(traj.v).all(),
              "distflow d3 run misbehaved")
        rep = vv.linearization_error(feeder, eq.q_star, mats=mats)
        check(math.isfinite(rep.max_abs) and rep.max_abs < 0.05,
              f"linearization error {rep.max_abs} out of range")
        request_s = time.perf_counter() - t0
        return samples(request_s, steps=traj.steps, sim_s=sim_s, eq_ms=[eq_s * 1e3])


WORKLOADS = {w.name: w for w in (Sce42Sweep(), Sce42Regret(), Radial1kDistflow())}
