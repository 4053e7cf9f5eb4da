"""Closed-loop Volt/VAR dynamics, convergence tests and the equilibrium solver.

Three feedback laws act on the reactive injections of the buses that carry
control curves:

* ``d1`` replaces the injection with the curve output each step,
* ``d2`` takes a projected subgradient step on the equilibrium objective,
* ``d3`` blends the previous injection with the curve output (projected
  pseudo-gradient step).

Buses whose feasible set is a singleton stay pinned throughout.
"""

from __future__ import annotations

import linecache
import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import powerflow
from .control import (DEFAULT_DEADBAND, CurveBundle, _read_curves, curve_from_spec,
                      limits_arrays, validate_box)
from .exceptions import DimensionMismatch, InvalidRecord, MaxIterations
from .network import (SensitivityMatrices, _check_count, _check_tol, _deviation_terms,
                      _floats, _model, _real, _shown, _vector, sensitivity_matrices)

CONTROLLER_KINDS = ("d1", "d2", "d3")
PLANT_KINDS = ("linear", "distflow")
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 10000
_STEPSIZE_LAWS = {"gamma2": "d2", "gamma3": "d3"}  # each stepsize and the law that takes it
OSCILLATION_WINDOW = 50


@dataclass(frozen=True, eq=False)
class ControllerConfig:
    """Which feedback law runs, with its stepsizes, curves and box limits.

    ``curves`` is given as a mapping of bus positions to curves and kept as
    its checked :class:`CurveBundle`, a read-only mapping that every solver
    and spectral check takes as it is; ``bundle`` is the same object.
    """

    kind: str
    curves: CurveBundle
    q_min: np.ndarray
    q_max: np.ndarray
    gamma2: float | None = None
    gamma3: float | None = None

    def __post_init__(self):
        if self.kind not in CONTROLLER_KINDS:
            raise InvalidRecord(f"controller kind must be one of {CONTROLLER_KINDS}")
        for name, kind in _STEPSIZE_LAWS.items():
            if self.kind == kind:
                _real(name, getattr(self, name), "positive")
        lo, hi = validate_box(self.q_min, self.q_max)
        # keep the checked float arrays, so step and simulate index them
        object.__setattr__(self, "q_min", lo)
        object.__setattr__(self, "q_max", hi)
        bundle = _read_curves(self.curves, lo.size)
        object.__setattr__(self, "curves", bundle)
        object.__setattr__(self, "bundle", bundle)

    @classmethod
    def from_feeder(cls, feeder, kind, alpha=None, deadband=None, gamma2=None, gamma3=None):
        """Materialize curves from the feeder's stored specs.

        ``alpha``/``deadband`` override stored droop parameters; inverter
        buses without a stored spec get a droop curve when ``alpha`` is
        given.
        """
        default = {"type": "droop", "deadband": DEFAULT_DEADBAND}
        curves = {}
        for k in feeder.inverters:
            spec = feeder.curve_specs.get(k, default)
            if spec is default and alpha is None:
                raise InvalidRecord(
                    f"bus {feeder.labels[k]} has an inverter but no curve; "
                    "provide alpha or a curve spec"
                )
            curves[k] = curve_from_spec(spec, alpha=alpha, deadband=deadband)
        q_min, q_max = limits_arrays(feeder)
        return cls(kind=kind, curves=curves, q_min=q_min, q_max=q_max,
                   gamma2=gamma2, gamma3=gamma3)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded states of one closed-loop run.

    ``times[i]`` indexes the recorded state ``q[i]``/``v[i]``;
    ``residuals[i]`` is the step change into that state.  When the
    objective is tracked, ``cum_objective[i]`` holds the sum of objective
    values over the first ``times[i]`` states (the running-average
    numerator).  ``q_average`` averages the states entering each of the
    ``steps`` updates.  ``sweep_iterations`` totals the power-flow sweep
    iterations of a distflow run, and is None on the linear plant.
    """

    times: np.ndarray
    q: np.ndarray
    v: np.ndarray
    residuals: np.ndarray
    verdict: str
    steps: int
    converged_at: int | None = None
    objective: np.ndarray | None = None
    cum_objective: np.ndarray | None = None
    q_average: np.ndarray | None = None
    sweep_iterations: int | None = None

    @property
    def final_q(self):
        return self.q[-1]

    @property
    def final_v(self):
        return self.v[-1]


def _d2_subgradient(qa, verr, bundle):
    """The d2 law's subgradient of the objective on the active coordinates.

    ``verr - inverse(qa)`` off zero; at a zero injection, the voltage error
    less the deadband edge it lies beyond, or the error itself inside.
    """
    lo, hi = bundle.lo, bundle.hi
    return verr - np.where(
        qa != 0.0,
        bundle.inverse(qa),
        np.where(verr > hi, hi, np.where(verr < lo, lo, 0.0)),
    )


def _active_update(kind, qa, u, verr, bundle, lo_box, hi_box, gamma2=None, gamma3=None):
    """One update of the active coordinates at voltage error ``verr``; ``u``
    is the curve output there, evaluated here when None.  d2 reads no curve
    output, so it evaluates none.

    ``ndarray.clip`` is what ``np.clip`` calls, without its wrapper's
    per-call overhead.
    """
    if kind == "d2":
        return (qa - gamma2 * _d2_subgradient(qa, verr, bundle)).clip(lo_box, hi_box)
    if u is None:
        u = bundle.evaluate(verr)
    if kind == "d1":
        return u.clip(lo_box, hi_box)
    return ((1.0 - gamma3) * qa + gamma3 * u).clip(lo_box, hi_box)


def step(q, v, config, v_nom):
    """One update of ``config.kind``'s law from injections ``q`` at voltages ``v``.

    Buses without a curve are projected onto their box and otherwise kept;
    d2 takes the subgradient selection of ``_d2_subgradient``, with no
    smoothing at the kink.  ``q``, ``v`` and ``v_nom`` must be finite
    numeric vectors of the box's length: InvalidRecord or DimensionMismatch
    otherwise.
    """
    q = _vector("q", q, config.q_min.size)
    v = _vector("v", v, config.q_min.size)
    v_nom = _vector("v_nom", v_nom, config.q_min.size)
    bundle = config.curves
    act = bundle.positions
    verr = (v - v_nom)[act]
    qa = q[act]
    nxt = q.clip(config.q_min, config.q_max)
    nxt[act] = _active_update(
        config.kind, qa, None, verr, bundle, config.q_min[act], config.q_max[act],
        config.gamma2, config.gamma3,
    )
    return nxt


_FLOAT_KERNEL_LIMIT = 16


def _array_kernel(kind, verr_of, qa, bundle, lo_box, hi_box, gamma2, gamma3, f_active,
                  q_sum, tol):
    """Vectorized step under the protocol of ``_iterate``.

    The generator first yields state 0; each ``send(target)`` then steps
    until step ``target`` or until a residual drops below ``tol``, and
    yields ``(t, qa, residual, v_full, objective, low, cum)`` there:
    ``low`` is the smallest residual of the states stepped through and
    ``cum`` the objective summed over the states before ``t``.
    ``verr_of(qa)`` gives (active voltage error, full voltages or None) and
    runs once per state; each state the loop advances from is added into
    ``q_sum``.
    """
    t = target = 0
    res, low, cum = 0.0, math.inf, 0.0
    while True:
        verr, v_full = verr_of(qa)
        obj = f_active(qa) if f_active is not None else None
        if t == target or res < tol:
            target = yield t, qa, res, v_full, obj, low, cum
            low = math.inf
        q_sum += qa
        if obj is not None:
            cum += obj
        nxt = _active_update(kind, qa, None, verr, bundle, lo_box, hi_box, gamma2, gamma3)
        res = float(np.abs(nxt - qa).max())
        qa = nxt
        t += 1
        if res < low:
            low = res


def _float_kernel(kind, x_aa, base_err, bundle, slopes, qa0, lo_box, hi_box, gamma2, gamma3,
                  q_sum, tol, const_obj=None):
    """Plain-float step for small systems of one-segment-per-side curves on
    the linear plant; ``slopes`` are ``bundle.end_slopes()``, the slope
    magnitudes and cost curvatures on both sides of the plateaus.

    Same protocol and yields as ``_array_kernel``, with ``q_sum`` a list
    written at each yield, from straight-line code that ``_float_step``
    generates once per law, curve-bus count and tracked flag in each
    process (about 0.2-6 ms on first use).  numpy's per-call overhead
    dominates on five-dimensional arrays, and a generator that runs
    straight to its next decision step spends no switch on the steps in
    between; the states are bit-identical to those of an indexed double
    loop over lists that yields every state (``reference_float_kernel`` in
    the tests).  Given ``const_obj``, the objective less its curve-bus
    terms, each state comes with
    ``const_obj + sum_i [cost_i(q_i) + q_i ((x_aa q)_i / 2 + base_err_i)]``.
    """
    kernel = _float_step(kind, qa0.size, const_obj is not None)
    return kernel(*(np.asarray(a, dtype=float).tolist() for a in (
        x_aa, base_err, *slopes, bundle.lo, bundle.hi, lo_box, hi_box, qa0)),
        gamma2, gamma3, q_sum, tol, const_obj)


@cache
def _float_step(kind, m, tracked):
    """The compiled step generator of ``_float_step_source``, under a file
    name that gives its shape, such as ``<voltvar float kernel d2 m=5
    tracked>``, so profiles and tracebacks name it."""
    src = _float_step_source(kind, m, tracked)
    where = f"<voltvar float kernel {kind} m={m} {'tracked' if tracked else 'untracked'}>"
    linecache.cache[where] = (len(src), None, src.splitlines(True), where)
    namespace = {"inf": math.inf}
    exec(compile(src, where, "exec"), namespace)
    return namespace["kernel"]


def _float_step_source(kind, m, tracked):
    """Source text of ``kind``'s step generator on ``m`` curve buses, which
    also yields each state's objective when ``tracked``.

    The text depends on the shape alone: state i lives in the local ``q{i}``,
    its running sum in ``s{i}``, row i of ``x`` in ``x{i}_{j}``, and every
    coefficient, ``tol`` included, is unpacked from the arguments, never
    written into the code.
    """
    rng = range(m)

    def names(prefix):  # "prefix0, prefix1, ...,": a tuple target or value
        return "".join(f"{prefix}{i}, " for i in rng)

    def x_times_q(i):
        return " + ".join(f"x{i}_{j} * q{j}" for j in rng)

    out = [
        "def kernel(x, base, a_lo, a_hi, c_lo, c_hi, lo, hi, lob, hib, q, gamma2, gamma3,",
        "           q_sum, tol, const_obj):",
        "    " + "".join(f"({names(f'x{i}_')}), " for i in rng) + "= x",
    ]
    for local, arg in (("b", "base"), ("al", "a_lo"), ("ah", "a_hi"), ("cl", "c_lo"),
                       ("ch", "c_hi"), ("lo", "lo"), ("hi", "hi"), ("lb", "lob"),
                       ("hb", "hib"), ("q", "q")):
        out.append(f"    {names(local)}= {arg}")
    if kind == "d3":
        out.append("    g3c = 1.0 - gamma3")
    out += ["    " + "".join(f"s{i} = " for i in rng) + "res = cum = 0.0",
            "    t = target = 0",
            "    low = inf",
            "    while True:"]
    if tracked:
        out.append("        obj = const_obj")
        for i in rng:
            out += [f"        xq = 0.0 + {x_times_q(i)}",
                    f"        obj += q{i} * (0.5 * xq + b{i})",
                    f"        if q{i} > 0.0:",
                    f"            obj += (-lo{i} + cl{i} * q{i}) * q{i}",
                    f"        elif q{i} < 0.0:",
                    f"            z = -q{i}",
                    f"            obj += (hi{i} + ch{i} * z) * z"]
    out += ["        if t == target or res < tol:",
            f"            q_sum[:] = {names('s')}",
            f"            target = yield t, ({names('q')}), res, None, "
            f"{'obj' if tracked else 'None'}, low, cum",
            "            low = inf"]
    if tracked:
        out.append("        cum += obj")
    out.append("        res = 0.0")
    for i in rng:
        out += [f"        s{i} += q{i}",
                f"        v = b{i} + {x_times_q(i)}"]
        # v - hi > 0.0 exactly when v > hi, so the plateau tests skip the difference
        if kind == "d2":
            # q / a - hi is the reference's -(-q / a + hi) exactly, as rounding is symmetric
            out += [f"        if q{i} != 0.0:",
                    f"            if q{i} < 0.0:",
                    f"                g = (q{i} / ah{i} - hi{i}) + v",
                    "            else:",
                    f"                g = (q{i} / al{i} - lo{i}) + v",
                    f"        elif v > hi{i}:",
                    f"            g = v - hi{i}",
                    f"        elif v < lo{i}:",
                    f"            g = v - lo{i}",
                    "        else:",
                    "            g = v",
                    f"        n{i} = q{i} - gamma2 * g"]
        else:
            u = (f"(-ah{i} * (v - hi{i}) if v > hi{i} else 0.0)"
                 f" + (al{i} * (lo{i} - v) if v < lo{i} else 0.0)")
            out.append(f"        n{i} = {u}" if kind == "d1" else
                       f"        n{i} = g3c * q{i} + gamma3 * ({u})")
        # |n - q| by a branch: q - n is -(n - q) exactly
        out += [f"        if n{i} < lb{i}:",
                f"            n{i} = lb{i}",
                f"        elif n{i} > hb{i}:",
                f"            n{i} = hb{i}",
                f"        d = n{i} - q{i} if n{i} > q{i} else q{i} - n{i}",
                "        if d > res:",
                "            res = d"]
    out += [f"        {names('q')}= {names('n')}",
            "        t += 1",
            "        if res < low:",
            "            low = res"]
    return "\n".join(out) + "\n"


def _iterate(states, tol, max_iter, record_every, window):
    """The closed-loop time loop over a kernel generator ``states``.

    Owns the verdicts, the thinned records and the objective records.  It
    takes state 0 from ``next(states)`` and then sends the kernel the next
    step at which it must decide something: the next multiple of
    ``record_every``, the next multiple of ``window`` when one is set, or
    ``max_iter``, whichever comes first.  The kernel runs straight there,
    or stops early at a residual below ``tol``, and yields
    ``(t, q, res, v, obj, low, cum)``; ``low``, the smallest residual since
    the last yield, feeds the window minimum, and ``cum`` is the objective
    summed over the states before ``t``.  So every verdict and record is
    the one a step-by-step loop gives.  Returns the Trajectory fields on
    the active coordinates as a dict, with ``v`` None unless the kernel
    yields full voltages and ``q_average`` left to the caller; the
    generator is closed on return.
    """
    times, qs, vs, residuals, objective, cum_objective = [], [], [], [], [], []
    verdict, converged_at = "max_iterations", None
    win_min, prev_win_min = np.inf, None
    t, q, res, v, obj, low, cum = next(states)
    while True:
        stop = t == max_iter
        if t > 0 and res < tol:
            verdict, converged_at, stop = "converged", t, True
        elif t > 0 and window and not stop:
            if low < win_min:
                win_min = low
            if t % window == 0:
                if prev_win_min is not None and win_min >= prev_win_min and win_min >= tol:
                    verdict, stop = "oscillating", True
                prev_win_min, win_min = win_min, np.inf
        if stop or t % record_every == 0:
            times.append(t)
            qs.append(np.array(q))
            vs.append(v)
            residuals.append(res)
            if obj is not None:
                objective.append(obj)
                cum_objective.append(cum)
        if stop:
            break
        target = t - t % record_every + record_every
        if window and t - t % window + window < target:
            target = t - t % window + window
        if target > max_iter:
            target = max_iter
        t, q, res, v, obj, low, cum = states.send(target)
    states.close()
    return dict(
        times=np.array(times, dtype=int),
        q=np.array(qs),
        v=np.array(vs) if v is not None else None,
        residuals=np.array(residuals),
        verdict=verdict,
        steps=t,
        converged_at=converged_at,
        objective=np.array(objective) if objective else None,
        cum_objective=np.array(cum_objective) if objective else None,
    )


def simulate(
    feeder,
    config,
    plant="linear",
    q0=None,
    tol=DEFAULT_TOL,
    max_iter=DEFAULT_MAX_ITER,
    record_every=1,
    track_objective=False,
    oscillation_window=OSCILLATION_WINDOW,
    mats=None,
):
    """Iterate the configured feedback law against the chosen plant.

    ``plant`` is ``"linear"`` (``v = X q + vtilde`` from ``mats``, built
    when omitted) or ``"distflow"`` (the full branch-flow sweep, solved to
    1e-10 every step and warm-started from the previous step's solution);
    anything else raises InvalidRecord, as does a nan or negative ``tol``.
    Buses without a curve stay at their projected ``q0``.

    Returns a Trajectory whose verdict is ``converged`` once the step change
    drops below ``tol``, ``oscillating`` when the smallest residual of the
    latest window stopped improving on the previous window's (both above
    tolerance), and ``max_iterations`` otherwise.  ``record_every`` thins
    the stored states; the initial and final states are always kept.
    ``oscillation_window=None`` disables the detector.  A non-finite final
    ``q`` or ``v`` raises InvalidRecord instead.  So do ``max_iter`` or
    ``record_every`` other than integers of at least 1, and an
    ``oscillation_window`` other than None or such an integer, and a
    non-numeric or non-finite ``q0``, and a ``mats`` that is not the
    feeder's own model; a ``q0`` or a box of ``config`` whose length is
    not ``feeder.n`` raises DimensionMismatch.

    Linear-plant runs iterate on the curve buses only, through the reduced
    model of ``_curve_block``, and systems of at most 16 curve buses whose
    curves have one segment per side of the plateau (droops) step with a
    plain-float kernel, tracked or not, so long runs on feeders with few
    inverters stay cheap.  That kernel is straight-line code generated once
    per law, curve-bus count and tracked flag in each process, at about
    0.2-6 ms on first use; its states are bit-identical to those of the
    indexed reference loop in the tests.  Tracking the objective leaves
    the states unchanged.  Either kernel runs under one time loop,
    ``_iterate``, which owns every verdict and record: it sends the kernel
    the next step at which it must decide something (the next record, the
    next oscillation-window boundary or ``max_iter``), and the kernel steps
    straight there, or stops at the first residual below ``tol``, so the
    steps in between cost no generator switch.
    """
    _check_count("record_every", record_every, 1)
    _check_count("max_iter", max_iter, 1)
    if oscillation_window is not None:
        _check_count("oscillation_window", oscillation_window, 1)
    _check_tol(tol)
    if not (isinstance(plant, str) and plant in PLANT_KINDS):
        raise InvalidRecord(f"plant must be one of {PLANT_KINDS}, got {_shown(plant)}")
    linear = plant == "linear"
    if mats is not None:
        _model(mats, feeder)
    elif linear or track_objective:
        mats = sensitivity_matrices(feeder)
    bundle = config.curves
    act = bundle.positions
    if act.size == 0:
        raise InvalidRecord("no controllable buses: nothing to simulate")
    n = feeder.n
    q_min, q_max = validate_box(config.q_min, config.q_max, n)

    q = (np.zeros(n) if q0 is None else _vector("q0", q0, n)).clip(q_min, q_max)
    qa = q[act].copy()
    lo_box, hi_box = q_min[act], q_max[act]

    if linear or track_objective:
        q_o = _scatter(q, act, 0.0)
        x_aa, base_err, xq_o = _curve_block(mats, act, q_o)

    f_active = const_obj = None
    if track_objective:
        # the constant part: the quadratic and linear terms at q with act zeroed
        const_obj = sum(_objective_terms(mats, None, q_o, xq_o))

        def f_active(qa):
            return float(
                bundle.cost(qa).sum() + 0.5 * qa @ (x_aa @ qa) + qa @ base_err + const_obj
            )

    slopes = bundle.end_slopes()
    if linear and slopes is not None and act.size <= _FLOAT_KERNEL_LIMIT:
        q_sum = [0.0] * act.size
        states = _float_kernel(config.kind, x_aa, base_err, bundle, slopes, qa, lo_box,
                               hi_box, config.gamma2, config.gamma3, q_sum, tol, const_obj)
    else:
        if linear:
            def verr_of(qa):
                return x_aa @ qa + base_err, None
        else:
            sol, sweep_iterations = None, 0

            def verr_of(qa):
                # each state's solution warm-starts the next state's sweep
                nonlocal sol, sweep_iterations
                sol = powerflow.distflow_sweep(feeder, _scatter(q, act, qa), tol=1e-10,
                                               start=sol)
                sweep_iterations += sol.iterations
                return (sol.v - feeder.v_nom)[act], sol.v

        q_sum = np.zeros(act.size)
        states = _array_kernel(config.kind, verr_of, qa, bundle, lo_box, hi_box,
                               config.gamma2, config.gamma3, f_active, q_sum, tol)
    run = _iterate(states, tol, max_iter, record_every, oscillation_window)

    q_full = np.tile(q, (len(run["q"]), 1))
    q_full[:, act] = run["q"]
    q_avg = q.copy()
    q_avg[act] = np.array(q_sum) / max(run["steps"], 1)
    run["q"], run["q_average"] = q_full, q_avg
    if linear:
        run["v"] = mats.voltage(q_full)
    else:
        run["sweep_iterations"] = sweep_iterations
    _require_finite(q_full[-1], run["v"][-1], "simulate")
    return Trajectory(**run)


def _require_finite(q, v, where):
    # the verdicts compare residuals, and every comparison with NaN is false
    if not (np.isfinite(q).all() and np.isfinite(v).all()):
        raise _non_finite(where)


def _non_finite(where):
    return InvalidRecord(f"{where} reached a non-finite state; "
                         "check the feeder's loads and impedances")


def _scatter(q, act, qa):
    out = q.copy()
    out[act] = qa
    return out


@dataclass(frozen=True, eq=False)
class ConditionReport:
    """Spectral convergence test for the non-incremental law."""

    sigma: float
    sufficient: bool
    corollary_value: float
    corollary_holds: bool
    uniform_alpha_limit: float


def _spectral_block(curves, X):
    """The bundle of ``curves`` and ``X``, the linear model or a dense
    reactance matrix, on its curve buses: every spectrum reads X here.  A
    dense X must be square, numeric, and finite on the curve buses it reads.
    """
    if isinstance(X, SensitivityMatrices):
        bundle = _read_curves(curves, X.feeder.n)
        return bundle, X.block(bundle.positions)
    X = _floats("X", X)
    if X.ndim != 2 or len(X) != X.shape[1]:
        raise DimensionMismatch(f"expected X of shape (n, n), got {X.shape}")
    bundle = _read_curves(curves, len(X))
    sub = X[np.ix_(bundle.positions, bundle.positions)]
    if not np.isfinite(sub).all():
        raise InvalidRecord("X must be finite on the curve buses")
    return bundle, sub


def check_d1_condition(curves, X):
    """Evaluate the contraction condition of the non-incremental law.

    ``sigma`` is the feedback modulus (largest singular value of
    ``diag(alpha_bar) X`` over the controllable block); the corollary value
    is the row-sum sufficient test, which upper-bounds sigma by the norm
    interpolation inequality and is therefore more conservative.  ``X`` is
    the linear model or a dense reactance matrix.  With no curve the loop
    is open: sigma and the corollary value are 0, both tests hold and the
    uniform-slope limit is inf.
    """
    bundle, sub = _spectral_block(curves, X)
    if len(bundle) == 0:
        return ConditionReport(0.0, True, 0.0, True, math.inf)
    sigma = float(np.linalg.svd(bundle.alpha_bar[:, None] * sub, compute_uv=False).max())
    corollary = float(bundle.alpha_bar.max() * np.abs(sub).sum(axis=1).max())
    return ConditionReport(
        sigma=sigma,
        sufficient=sigma < 1.0,
        corollary_value=corollary,
        corollary_holds=corollary < 1.0,
        uniform_alpha_limit=float(1.0 / np.linalg.svd(sub, compute_uv=False).max()),
    )


def lipschitz_constant(curves, X):
    """Modulus of the voltage-to-control feedback map, the ``sigma`` of
    :func:`check_d1_condition`: buses with a singleton feasible set neither
    move nor respond, so they drop out of the feedback loop."""
    return check_d1_condition(curves, X).sigma


def d3_stepsize_bound(curves, X):
    """Largest safe pseudo-gradient stepsize: ``2 / (1 + lambda_max)``.

    ``lambda_max`` is the top eigenvalue of ``diag(alpha_bar) X`` on the
    controllable block, computed through the symmetric similar matrix
    ``diag(s) X diag(s)`` with ``s = sqrt(alpha_bar)``, whose eigenvalues
    are real and non-negative.  ``X`` is the linear model or a dense
    reactance matrix; with no curve the bound is 2.
    """
    bundle, sub = _spectral_block(curves, X)
    return _d3_bound(bundle, sub) if len(bundle) else 2.0


def _d3_bound(bundle, sub):
    """``2 / (1 + lambda_max)`` from ``sub``, X on the curve buses."""
    s = np.sqrt(bundle.alpha_bar)
    lam = float(np.linalg.eigvalsh(s[:, None] * sub * s).max())
    return 2.0 / (1.0 + lam)


def _curve_block(mats, act, q_o):
    """The linear model on the curve buses ``act``, with the other buses held
    at ``q_o``, whose entries at ``act`` are zero:
    ``v[act] - v_nom[act] = x_aa @ q[act] + base_err``.

    Returns ``x_aa = X[act, act]``, the base error
    ``(X q_o + vtilde - v_nom)[act]`` and ``X q_o``; none needs the dense X.
    """
    xq_o = mats.x_times(q_o)
    return mats.block(act), (xq_o + mats.vtilde - mats.feeder.v_nom)[act], xq_o


def _objective_terms(mats, bundle, q, xq):
    """The objective's (cost, quadratic, linear) terms at a checked ``q``,
    given ``xq = X q``; a ``bundle`` of None adds no curve cost."""
    cost = float(bundle.cost(q[bundle.positions]).sum()) if bundle else 0.0
    quad = float(0.5 * q @ xq)
    linear = float(q @ (mats.vtilde - mats.feeder.v_nom))
    return cost, quad, linear


def objective_terms(mats, curves, q):
    """The three terms of the equilibrium objective at q, a finite length-n vector."""
    bundle = _read_curves(curves, _model(mats).feeder.n)
    q = _vector("q", q, mats.feeder.n)
    return _objective_terms(mats, bundle, q, mats.x_times(q))


def objective_f(mats, curves, q):
    """Equilibrium objective: curve costs + quadratic + linear voltage term."""
    return sum(objective_terms(mats, curves, q))


def objective_tradeoff(mats, curves, q):
    """Equivalent cost-versus-deviation form of the objective.

    Returns ``(cost, deviation, constant)`` with ``deviation`` the
    half-quadratic of ``v - v_nom`` under the inverse reactance matrix and
    ``constant`` the q-independent offset; ``cost + deviation - constant``
    equals :func:`objective_f`.  Both quadratics are sums over the tree's
    lines (``X`` inverse is the grounded tree Laplacian), O(n) on a slack
    of any degree.
    """
    cost = objective_terms(mats, curves, q)[0]
    feeder = mats.feeder
    deviation = 0.5 * sum(_deviation_terms(feeder, mats.voltage(q) - feeder.v_nom))
    constant = 0.5 * sum(_deviation_terms(feeder, mats.vtilde - feeder.v_nom))
    return cost, deviation, constant


def objective_subgradient(mats, curves, q):
    """A subgradient of the objective at q (selection used by the d2 law)."""
    bundle = _read_curves(curves, _model(mats).feeder.n)
    q = _vector("q", q, mats.feeder.n)
    g = mats.voltage(q) - mats.feeder.v_nom
    act = bundle.positions
    if act.size:
        g[act] = _d2_subgradient(q[act], g[act], bundle)
    return g


def estimate_gradient_bound(mats, curves, q_min, q_max, seed=None):
    """Bound on the objective subgradient norm over the box ``[q_min, q_max]``.

    ``X >= 0`` elementwise and ``-curve^{-1}`` is non-decreasing, so both
    ends of each component's subdifferential are non-decreasing in every
    coordinate of q, and the d2 selection lies between them.  On a box with
    ``q_min < 0 < q_max`` at the curve buses the subgradients at the two
    corners are single-valued, so ``g(q_min) <= g(q) <= g(q_max)``
    componentwise and ``|| max(|g(q_min)|, |g(q_max)|) ||`` bounds ``||g||``
    on the whole box.
    ``seed`` is accepted for older callers and ignored.
    """
    q_min, q_max = validate_box(q_min, q_max, _model(mats).feeder.n)
    bundle = _read_curves(curves, mats.feeder.n)
    low = np.abs(objective_subgradient(mats, bundle, q_min))
    high = np.abs(objective_subgradient(mats, bundle, q_max))
    return float(np.linalg.norm(np.maximum(low, high)))


@dataclass(frozen=True, eq=False)
class EquilibriumReport:
    """Solved equilibrium with its optimality certificate."""

    q_star: np.ndarray
    v_star: np.ndarray
    objective: float
    cost_term: float
    quadratic_term: float
    linear_term: float
    fixed_point_residual: float
    iterations: int


def solve_equilibrium(feeder, curves=None, q_min=None, q_max=None, tol=DEFAULT_TOL,
                      max_iter=50000, mats=None):
    """Find the unique closed-loop equilibrium on the linearized plant.

    Solves ``F(q) = q - [curve(v(q) - v_nom)]_box = 0`` on the curve buses
    by semismooth Newton steps: with every curve piecewise linear, F is
    piecewise affine, and a step lands on the root once it sees the right
    active pattern.  A Newton candidate is kept only if its residual is at
    most half the smallest one seen so far; otherwise the iterate takes one
    pseudo-gradient (d3) step at 0.9 times its safe stepsize bound, which
    converges from anywhere.  The solver stops once the fixed-point
    residual ``max |F|`` drops below ``tol``; the residual doubles as the
    optimality certificate of the equivalent convex problem.  A nan or
    negative ``tol``, a ``max_iter`` other than an integer of at least 0,
    a curve position outside ``[0, n)`` and a ``mats`` that is not the
    feeder's own model raise InvalidRecord; each omitted bound of the box
    comes from the feeder's inverter limits.
    ``iterations`` counts the updates, Newton or d3, that it took; when
    ``max_iter`` updates leave the residual at or above ``tol``, the solver
    raises MaxIterations.  A non-finite residual, from a NaN or overflow in
    the model, raises InvalidRecord at once.
    """
    _check_tol(tol)
    _check_count("max_iter", max_iter, 0)
    mats = sensitivity_matrices(feeder) if mats is None else _model(mats, feeder)
    if curves is None:
        curves = ControllerConfig.from_feeder(feeder, "d1").curves
    if q_min is None or q_max is None:  # each omitted bound from the feeder's limits
        lo, hi = limits_arrays(feeder)
        q_min = lo if q_min is None else q_min
        q_max = hi if q_max is None else q_max
    q_min, q_max = validate_box(q_min, q_max, feeder.n)
    bundle = _read_curves(curves, feeder.n)
    act = bundle.positions

    q = np.zeros(feeder.n).clip(q_min, q_max)
    qa = q[act].copy()
    x_aa, base_a, _ = _curve_block(mats, act, _scatter(q, act, 0.0))
    lo_box, hi_box = q_min[act], q_max[act]
    eye = np.eye(act.size)

    def state(qa):
        verr = x_aa @ qa + base_a
        u = bundle.evaluate(verr)
        res = qa - u.clip(lo_box, hi_box)
        return verr, u, res, float(np.abs(res).max()) if act.size else 0.0

    verr, u, res, residual = state(qa)
    best, gamma3, it = residual, None, 0
    # an exact root ends the solve at tol = 0; a nan residual never does
    while not (residual < tol or residual == 0.0):
        if not math.isfinite(residual):
            raise _non_finite("solve_equilibrium")
        if it == max_iter:
            raise MaxIterations(f"equilibrium solver still at residual {residual:.3e} "
                                f"after {max_iter} iterations")
        it += 1
        # J = I + diag(d) x_aa, d = -curve' where the output is inside the box
        d = np.where((u > lo_box) & (u < hi_box), -bundle.slope(verr), 0.0)
        cand = qa - np.linalg.solve(eye + d[:, None] * x_aa, res)
        trial = state(cand)
        if trial[3] <= 0.5 * best:
            qa, (verr, u, res, residual) = cand, trial
        else:
            if gamma3 is None:
                gamma3 = 0.9 * _d3_bound(bundle, x_aa)
            qa = _active_update("d3", qa, u, None, bundle, lo_box, hi_box, gamma3=gamma3)
            verr, u, res, residual = state(qa)
        best = min(best, residual)
    q[act] = qa
    xq = mats.x_times(q)
    v_star = xq + mats.vtilde  # mats.voltage(q), sharing X q with the objective
    _require_finite(q, v_star, "solve_equilibrium")
    cost, quad, linear = _objective_terms(mats, bundle, q, xq)
    return EquilibriumReport(
        q_star=q,
        v_star=v_star,
        objective=cost + quad + linear,
        cost_term=cost,
        quadratic_term=quad,
        linear_term=linear,
        fixed_point_residual=residual,
        iterations=it,
    )


@dataclass(frozen=True, eq=False)
class RegretAudit:
    """Running-average objective audit of a subgradient trajectory.

    ``standard_bound`` is the running-average guarantee the telescoping
    subgradient argument yields: ``|q1 - q*|^2 / (2 gamma t) + gamma G^2/2``.
    ``tight_bound`` rescales both terms by ``2 gamma``; it is recorded for
    comparison but is not implied by the argument and generally fails for
    small stepsizes.
    """

    times: np.ndarray
    average_gap: np.ndarray
    standard_bound: np.ndarray
    tight_bound: np.ndarray
    standard_holds: bool
    tight_holds: bool
    first_standard_violation: int | None
    first_tight_violation: int | None


def d2_regret_bound_check(trajectory, q_star, f_star, gamma2, grad_bound):
    """Verify the running-average inequality at every recorded time.

    The trajectory must have been produced with ``track_objective=True``.
    A NaN fails every comparison and would certify any run, so ``q_star``
    must be a finite state, ``f_star`` finite, ``gamma2`` positive and
    finite and ``grad_bound`` finite and at least 0.
    """
    if trajectory.cum_objective is None:
        raise InvalidRecord("trajectory was not recorded with track_objective=True")
    q_star = _vector("q_star", q_star, trajectory.q.shape[1])
    f_star = _real("f_star", f_star)
    gamma2 = _real("gamma2", gamma2, "positive")
    grad_bound = _real("grad_bound", grad_bound, "nonnegative")
    mask = trajectory.times > 0
    t = trajectory.times[mask].astype(float)
    cum = trajectory.cum_objective[mask]
    avg_gap = cum / t - f_star
    d1sq = float(np.linalg.norm(trajectory.q[0] - q_star) ** 2)
    standard = d1sq / (2.0 * gamma2 * t) + gamma2 * grad_bound**2 / 2.0
    tight = d1sq / t + gamma2**2 * grad_bound**2
    viol_std = np.flatnonzero(avg_gap > standard)
    viol_tight = np.flatnonzero(avg_gap > tight)
    return RegretAudit(
        times=t.astype(int),
        average_gap=avg_gap,
        standard_bound=standard,
        tight_bound=tight,
        standard_holds=viol_std.size == 0,
        tight_holds=viol_tight.size == 0,
        first_standard_violation=int(t[viol_std[0]]) if viol_std.size else None,
        first_tight_violation=int(t[viol_tight[0]]) if viol_tight.size else None,
    )
