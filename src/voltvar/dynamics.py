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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import powerflow
from .control import (
    DEFAULT_DEADBAND,
    CurveBundle,
    _modulus,
    _spectral_block,
    curve_from_spec,
    limits_arrays,
    project_box,
    validate_box,
)
from .exceptions import DimensionMismatch, InvalidRecord, MaxIterations
from .network import _deviation_terms, sensitivity_matrices

CONTROLLER_KINDS = ("d1", "d2", "d3")
PLANT_KINDS = ("linear", "distflow")
DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 10000
OSCILLATION_WINDOW = 50


@dataclass(frozen=True, eq=False)
class ControllerConfig:
    """Which feedback law runs, with its stepsizes, curves and box limits."""

    kind: str
    curves: dict
    q_min: np.ndarray
    q_max: np.ndarray
    gamma2: float | None = None
    gamma3: float | None = None

    def __post_init__(self):
        if self.kind not in CONTROLLER_KINDS:
            raise InvalidRecord(f"controller kind must be one of {CONTROLLER_KINDS}")
        if self.kind == "d2" and not (self.gamma2 and 0 < self.gamma2 < np.inf):
            raise InvalidRecord(f"d2 requires a positive finite gamma2, got {self.gamma2}")
        if self.kind == "d3" and not (self.gamma3 and 0 < self.gamma3 < np.inf):
            raise InvalidRecord(f"d3 requires a positive finite gamma3, got {self.gamma3}")
        validate_box(self.q_min, self.q_max)

    @cached_property
    def bundle(self):
        return CurveBundle(self.curves)

    @classmethod
    def from_feeder(cls, feeder, kind, alpha=None, deadband=None, gamma2=None, gamma3=None):
        """Materialize curves from the feeder's stored specs.

        ``alpha``/``deadband`` override stored droop parameters; inverter
        buses without a stored spec get a droop curve when ``alpha`` is
        given.
        """
        curves = {}
        for k in feeder.inverters:
            spec = feeder.curve_specs.get(k)
            if spec is not None:
                curves[k] = curve_from_spec(spec, alpha=alpha, deadband=deadband)
            elif alpha is not None:
                curves[k] = curve_from_spec(
                    {"type": "droop", "alpha": alpha, "deadband": DEFAULT_DEADBAND},
                    deadband=deadband,
                )
            else:
                raise InvalidRecord(
                    f"bus {feeder.labels[k]} has an inverter but no curve; "
                    "provide alpha or a curve spec"
                )
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
    """One update of the active coordinates; ``u`` is the curve output.

    ``ndarray.clip`` is what ``np.clip`` calls, without its wrapper's
    per-call overhead.
    """
    if kind == "d1":
        return u.clip(lo_box, hi_box)
    if kind == "d3":
        return ((1.0 - gamma3) * qa + gamma3 * u).clip(lo_box, hi_box)
    return (qa - gamma2 * _d2_subgradient(qa, verr, bundle)).clip(lo_box, hi_box)


def step(q, v, config, v_nom):
    """One update of ``config.kind``'s law from injections ``q`` at voltages ``v``.

    Buses without a curve are projected onto their box and otherwise kept;
    d2 takes the subgradient selection of ``_d2_subgradient``, with no
    smoothing at the kink.
    """
    bundle = config.bundle
    act = bundle.positions
    verr = (np.asarray(v, float) - v_nom)[act]
    qa = np.asarray(q, float)[act]
    nxt = project_box(q, config.q_min, config.q_max)
    nxt[act] = _active_update(
        config.kind, qa, bundle.evaluate(verr), verr, bundle, config.q_min[act],
        config.q_max[act], config.gamma2, config.gamma3,
    )
    return nxt


_FLOAT_KERNEL_LIMIT = 16


def _array_kernel(kind, verr_of, qa, bundle, lo_box, hi_box, gamma2, gamma3, f_active,
                  q_sum):
    """Vectorized step: yields ``(qa, residual, v_full, objective)`` per state.

    ``verr_of(qa)`` gives (active voltage error, full voltages or None);
    each state the loop advances from is added into ``q_sum``.
    """
    res = 0.0
    while True:
        verr, v_full = verr_of(qa)
        yield qa, res, v_full, f_active(qa) if f_active is not None else None
        q_sum += qa
        nxt = _active_update(kind, qa, bundle.evaluate(verr), verr, bundle, lo_box, hi_box,
                             gamma2, gamma3)
        res = float(np.abs(nxt - qa).max())
        qa = nxt


def _float_kernel(kind, x_aa, base_err, bundle, slopes, qa0, lo_box, hi_box, gamma2, gamma3,
                  q_sum, const_obj=None):
    """Plain-float step for small systems of one-segment-per-side curves on
    the linear plant; ``slopes`` are the (left, right) slope magnitudes.

    Same yields and arithmetic as ``_array_kernel``; numpy's per-call
    overhead dominates on five-dimensional arrays, and million-step
    subgradient runs need the ~10x headroom.  ``q_sum`` is a list: indexing
    an ndarray per element costs about a quarter of the step.  Given
    ``const_obj``, the objective less its curve-bus terms, each state comes
    with ``const_obj + sum_i [cost_i(q_i) + q_i ((x_aa q)_i / 2 + base_err_i)]``.
    """
    m = qa0.size
    rows, base, a_lo, a_hi, lo, hi, lob, hib, q = (
        np.asarray(a, dtype=float).tolist()
        for a in (x_aa, base_err, *slopes, bundle.lo, bundle.hi, lo_box, hi_box, qa0))
    if const_obj is not None:
        # hinges[i]: the (tau_j, tau_j Q_j, a_j, b_j) of curve i's two hinges
        h = bundle._hinges
        hinges = np.stack((h.tq, h.tkq, h.a, h.b), axis=-1).transpose(1, 0, 2).tolist()
    rng = range(m)
    res = 0.0
    while True:
        obj = None
        if const_obj is not None:
            obj = const_obj
            for i in rng:
                row = rows[i]
                xq = 0.0
                for j in rng:
                    xq += row[j] * q[j]
                qi = q[i]
                obj += qi * (0.5 * xq + base[i])
                for tq, tkq, a, b in hinges[i]:
                    z = tq * qi - tkq
                    if z > 0.0:
                        obj += (a + b * z) * z
        yield q, res, None, obj
        res = 0.0
        nxt = [0.0] * m
        for i in rng:
            q_sum[i] += q[i]
            row = rows[i]
            verr = base[i]
            for j in rng:
                verr += row[j] * q[j]
            qi = q[i]
            d_hi = verr - hi[i]
            d_lo = lo[i] - verr
            u = ((-a_hi[i] * d_hi if d_hi > 0.0 else 0.0)
                 + (a_lo[i] * d_lo if d_lo > 0.0 else 0.0))
            if kind == "d1":
                val = u
            elif kind == "d3":
                val = (1.0 - gamma3) * qi + gamma3 * u
            else:
                if qi != 0.0:
                    finv = -qi / a_hi[i] + hi[i] if qi < 0.0 else -qi / a_lo[i] + lo[i]
                    grad = -finv + verr
                elif d_hi > 0.0:
                    grad = d_hi
                elif d_lo > 0.0:
                    grad = verr - lo[i]
                else:
                    grad = verr
                val = qi - gamma2 * grad
            if val < lob[i]:
                val = lob[i]
            elif val > hib[i]:
                val = hib[i]
            nxt[i] = val
            d = val - qi
            if d < 0.0:
                d = -d
            if d > res:
                res = d
        q = nxt


def _iterate(states, tol, max_iter, record_every, window):
    """The closed-loop time loop over a kernel's ``states``.

    Owns the verdicts, the thinned records and the running objective sum;
    returns the Trajectory fields on the active coordinates as a dict, with
    ``v`` None unless the kernel yields full voltages and ``q_average`` left
    to the caller.
    """
    times, qs, vs, residuals, objective, cum_objective = [], [], [], [], [], []
    verdict, converged_at = "max_iterations", None
    cum = 0.0
    win_min, prev_win_min = np.inf, None
    for t, (q, res, v, obj) in enumerate(states):
        stop = t == max_iter
        if t > 0 and res < tol:
            verdict, converged_at, stop = "converged", t, True
        elif t > 0 and window and not stop:
            if res < win_min:
                win_min = res
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
        if obj is not None:
            cum += obj
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
    ``q`` or ``v`` raises InvalidRecord instead.

    Linear-plant runs iterate on the curve buses only, through the reduced
    model of ``_curve_block``, and small systems whose curves have one
    segment per side of the plateau (droops) step with a plain-float
    kernel, tracked or not, so long runs on feeders with few inverters stay
    cheap.  Tracking the objective leaves the states unchanged.  Either
    kernel runs under one time loop.
    """
    if record_every < 1 or max_iter < 1:
        raise InvalidRecord("record_every and max_iter must be at least 1")
    if not tol >= 0.0:  # a nan tol fails this too
        raise InvalidRecord(f"tol must be a non-negative number, got {tol}")
    if not (isinstance(plant, str) and plant in PLANT_KINDS):
        raise InvalidRecord(f"plant must be one of {PLANT_KINDS}, got {plant!r}")
    linear = plant == "linear"
    if (linear or track_objective) and mats is None:
        mats = sensitivity_matrices(feeder)
    bundle = config.bundle
    act = bundle.positions
    if act.size == 0:
        raise InvalidRecord("no controllable buses: nothing to simulate")
    n = feeder.n

    q = np.zeros(n) if q0 is None else np.asarray(q0, dtype=float).copy()
    if q.shape != (n,):
        raise DimensionMismatch(f"expected q0 of shape ({n},), got {q.shape}")
    if not np.isfinite(q).all():
        raise InvalidRecord("q0 must be finite")
    q = project_box(q, config.q_min, config.q_max)
    qa = q[act].copy()
    lo_box, hi_box = config.q_min[act], config.q_max[act]

    if linear or track_objective:
        x_aa, base_err = _curve_block(mats, act, q)

    f_active = const_obj = None
    if track_objective:
        # the constant part: the quadratic and linear terms at q with act zeroed
        const_obj = objective_f(mats, {}, _scatter(q, act, 0.0))

        def f_active(qa):
            return float(
                bundle.cost(qa).sum() + 0.5 * qa @ (x_aa @ qa) + qa @ base_err + const_obj
            )

    slopes = bundle.end_slopes()
    if linear and slopes is not None and act.size <= _FLOAT_KERNEL_LIMIT:
        q_sum = [0.0] * act.size
        states = _float_kernel(config.kind, x_aa, base_err, bundle, slopes, qa, lo_box,
                               hi_box, config.gamma2, config.gamma3, q_sum, const_obj)
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
                               config.gamma2, config.gamma3, f_active, q_sum)
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
        raise InvalidRecord(f"{where} reached a non-finite state; "
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


def check_d1_condition(curves, X):
    """Evaluate the contraction condition of the non-incremental law.

    ``sigma`` is the feedback modulus (largest singular value of
    ``diag(alpha_bar) X`` over the controllable block); the corollary value
    is the row-sum sufficient test, which upper-bounds sigma by the norm
    interpolation inequality and is therefore more conservative.  ``X`` is
    the linear model or a dense reactance matrix.
    """
    bundle = CurveBundle.of(curves)
    sub = _spectral_block(bundle, X)
    sigma = _modulus(bundle, sub)
    corollary = float(bundle.alpha_bar.max() * np.abs(sub).sum(axis=1).max())
    return ConditionReport(
        sigma=sigma,
        sufficient=sigma < 1.0,
        corollary_value=corollary,
        corollary_holds=corollary < 1.0,
        uniform_alpha_limit=float(1.0 / np.linalg.svd(sub, compute_uv=False).max()),
    )


def d3_stepsize_bound(curves, X):
    """Largest safe pseudo-gradient stepsize: ``2 / (1 + lambda_max)``.

    ``lambda_max`` is the top eigenvalue of ``diag(alpha_bar) X`` on the
    controllable block, computed through the symmetric similar matrix
    ``diag(s) X diag(s)`` with ``s = sqrt(alpha_bar)``, whose eigenvalues
    are real and non-negative.  ``X`` is the linear model or a dense
    reactance matrix.
    """
    bundle = CurveBundle.of(curves)
    if len(bundle) == 0:
        return 2.0
    return _d3_bound(bundle, _spectral_block(bundle, X))


def _d3_bound(bundle, sub):
    """``2 / (1 + lambda_max)`` from ``sub``, X on the curve buses."""
    s = np.sqrt(bundle.alpha_bar)
    lam = float(np.linalg.eigvalsh(s[:, None] * sub * s).max())
    return 2.0 / (1.0 + lam)


def _curve_block(mats, act, q):
    """The linear model on the curve buses ``act``, with the other buses held
    at ``q``: ``v[act] - v_nom[act] = x_aa @ q[act] + base_err``.

    Returns ``x_aa = X[act, act]`` and the base error
    ``(X q_o + vtilde - v_nom)[act]``, where ``q_o`` is ``q`` with ``act``
    zeroed; neither needs the dense X.
    """
    base = mats.voltage(_scatter(q, act, 0.0))
    return mats.block(act), (base - mats.feeder.v_nom)[act]


def objective_terms(mats, curves, q):
    """The three terms of the equilibrium objective at q."""
    bundle = CurveBundle.of(curves)
    q = np.asarray(q, dtype=float)
    cost = float(bundle.cost(q[bundle.positions]).sum()) if len(bundle) else 0.0
    quad = float(0.5 * q @ mats.x_times(q))
    linear = float(q @ (mats.vtilde - mats.feeder.v_nom))
    return cost, quad, linear


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
    feeder = mats.feeder
    cost = objective_terms(mats, curves, q)[0]
    deviation = 0.5 * sum(_deviation_terms(feeder, mats.voltage(q) - feeder.v_nom))
    constant = 0.5 * sum(_deviation_terms(feeder, mats.vtilde - feeder.v_nom))
    return cost, deviation, constant


def objective_subgradient(mats, curves, q):
    """A subgradient of the objective at q (selection used by the d2 law)."""
    bundle = CurveBundle.of(curves)
    q = np.asarray(q, dtype=float)
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
    low = np.abs(objective_subgradient(mats, curves, q_min))
    high = np.abs(objective_subgradient(mats, curves, q_max))
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
    residual ``max |F|`` drops below ``tol`` (a nan or negative ``tol``
    raises InvalidRecord); the residual doubles as the optimality
    certificate of the equivalent convex problem.
    ``iterations`` counts the updates, Newton or d3, that it took; when
    ``max_iter`` updates leave the residual at or above ``tol``, the solver
    raises MaxIterations.
    """
    if not tol >= 0.0:
        raise InvalidRecord(f"tol must be a non-negative number, got {tol}")
    if mats is None:
        mats = sensitivity_matrices(feeder)
    if curves is None:
        curves = ControllerConfig.from_feeder(feeder, "d1").curves
    if q_min is None or q_max is None:
        q_min, q_max = limits_arrays(feeder)
    q_min, q_max = validate_box(q_min, q_max, feeder.n)
    bundle = CurveBundle.of(curves)
    act = bundle.positions

    q = np.zeros(feeder.n).clip(q_min, q_max)
    qa = q[act].copy()
    x_aa, base_a = _curve_block(mats, act, q)
    lo_box, hi_box = q_min[act], q_max[act]
    eye = np.eye(act.size)

    def state(qa):
        verr = x_aa @ qa + base_a
        u = bundle.evaluate(verr)
        res = qa - u.clip(lo_box, hi_box)
        return verr, u, res, float(np.abs(res).max()) if act.size else 0.0

    verr, u, res, residual = state(qa)
    best, gamma3, it = residual, None, 0
    while not residual < tol:  # a nan residual never counts as converged
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
    v_star = mats.voltage(q)
    _require_finite(q, v_star, "solve_equilibrium")
    cost, quad, linear = objective_terms(mats, bundle, q)
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
    """
    if trajectory.cum_objective is None:
        raise InvalidRecord("trajectory was not recorded with track_objective=True")
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
