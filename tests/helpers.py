"""Shared builders and independent oracles for the test suite."""

import numpy as np

import voltvar as vv
from voltvar import dynamics
from voltvar.network import Bus, Line

# every exception class of voltvar.exceptions derives from one of these
PACKAGE_ERRORS = (vv.FeederValidationError, vv.DimensionMismatch, vv.ParseError,
                  vv.PowerFlowError, vv.MaxIterations)
# non-finite, zero, negative, huge, non-integral, numpy integer and string values, and an
# int of more digits than Python will turn into a string
NUMBERS = (np.nan, np.inf, -np.inf, 0, -3, -0.5, 1e308, 2.5, np.int64(20), "5", "x", 10**5000)


def package_outcome(call):
    """``call()``, or None when it raises an exception of the package; any
    other exception fails the test."""
    try:
        return call()
    except PACKAGE_ERRORS:
        return None


def two_bus_feeder(r=0.1, x=0.5, v0=1.05, p_c=0.0, q_c=0.0, inverter=None):
    """Single-line feeder; default inverter is effectively unconstrained."""
    if inverter is None:
        inverter = vv.Inverter(s=1e6, p=0.0)
    return vv.build_feeder(
        [Bus(0), Bus(1, p_c=p_c, q_c=q_c)],
        [Line(0, 1, r=r, x=x)],
        inverters={1: inverter},
        slack_label=0,
        v0=v0,
    )


def random_tree_records(rng, n, degree_one_root=False, z_lo=0.01, z_hi=1.0):
    """Random recursive tree on buses 0..n with uniform impedances."""
    buses = [Bus(i) for i in range(n + 1)]
    lines = []
    for i in range(1, n + 1):
        if i == 1:
            parent = 0
        elif degree_one_root:
            parent = int(rng.integers(1, i))
        else:
            parent = int(rng.integers(0, i))
        lines.append(
            Line(parent, i, r=float(rng.uniform(z_lo, z_hi)), x=float(rng.uniform(z_lo, z_hi)))
        )
    return buses, lines


def random_feeder(rng, n, degree_one_root=False, **kwargs):
    buses, lines = random_tree_records(rng, n, degree_one_root, **kwargs)
    return vv.build_feeder(buses, lines, slack_label=0)


def brute_force_sensitivities(feeder):
    """O(n^3) oracle: enumerate the explicit line sets of every root path
    and sum impedances over pairwise intersections."""
    paths = []
    for k in range(feeder.n):
        lines = set()
        node = k
        while node >= 0:
            lines.add(node)
            node = int(feeder.parent[node])
        paths.append(lines)
    X = np.zeros((feeder.n, feeder.n))
    R = np.zeros((feeder.n, feeder.n))
    for i in range(feeder.n):
        for j in range(feeder.n):
            common = paths[i] & paths[j]
            X[i, j] = sum(feeder.x[l] for l in common)
            R[i, j] = sum(feeder.r[l] for l in common)
    return R, X


def d3_oracle(feeder, curves, q_min, q_max, mats, tol=1e-15):
    """The equilibrium the closed loop reaches under the d3 law at 0.9 times
    its stepsize bound, run until the step change drops below ``tol``."""
    config = vv.ControllerConfig(
        kind="d3", curves=curves, q_min=q_min, q_max=q_max,
        gamma3=0.9 * vv.d3_stepsize_bound(curves, mats.X),
    )
    traj = vv.simulate(feeder, config, mats=mats, tol=tol, max_iter=10**6,
                       record_every=10**6, oscillation_window=None)
    assert traj.verdict == "converged"
    return traj


def single_line_distflow_oracle(r, x, p_net, q_net, v0=1.0):
    """Exact one-line solution by bisection on the current fixed point."""

    def gap(ell):
        p = p_net + r * ell
        q = q_net + x * ell
        return (p * p + q * q) / v0**2 - ell

    lo, hi = 0.0, 1.0
    while gap(hi) > 0:
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("no solvable operating point")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0:
            lo = mid
        else:
            hi = mid
    ell = 0.5 * (lo + hi)
    p = p_net + r * ell
    q = q_net + x * ell
    v1sq = v0**2 - 2 * (r * p + x * q) + (r * r + x * x) * ell
    return np.sqrt(v1sq), ell


def reference_distflow_sweep(feeder, q, tol, max_iter, start=None):
    """Reference ``powerflow.distflow_sweep``: the plain sweep loop, one
    whole-array expression per quantity, in preorder, with the tree sums
    written out.  ``start`` is an ``(ell, v)`` pair in model order, or None
    for the flat start.  Returns ``(v, P, Q, ell, iterations)`` in model
    order, or raises NegativeSquaredVoltage or NoConvergence as the library
    does."""
    order, pos, end = feeder.preorder
    n = feeder.n

    def subtree_sum(y):
        prefix = np.add.accumulate(y, axis=-1)
        return prefix[..., end - 1] - (prefix - y)

    def path_sum(y):
        return np.add.accumulate(y - np.bincount(end, y, n + 1)[:-1])

    r, x = rx = np.array((feeder.r, feeder.x))[:, order]
    z2 = r * r + x * x
    net_p = feeder.p_c - feeder.injected_real_power()
    load = np.array((net_p, feeder.q_c - np.asarray(q, dtype=float)))[:, order]
    v0sq = feeder.v0**2
    if start is None:
        ell, v = np.zeros(n), feeder.v0
    else:
        ell, v = np.array(start, dtype=float)[:, order]
    change = np.inf
    for it in range(1, max_iter + 1):
        P, Q = subtree_sum(load + rx * ell)
        drop = 2.0 * (r * P + x * Q) - z2 * ell
        v2 = v0sq - path_sum(drop)
        if v2.min() <= 0.0:
            raise vv.NegativeSquaredVoltage(
                f"squared voltage non-positive at bus positions "
                f"{np.sort(order[v2 <= 0.0]).tolist()}"
            )
        ell = (P * P + Q * Q) / (v2 + drop)
        v_new = np.sqrt(v2)
        change = float(np.abs(v_new - v).max())
        v = v_new
        if change < tol:
            v, P, Q, ell = np.array((v, P, Q, ell))[:, pos]
            return v, P, Q, ell, it
    raise vv.NoConvergence(max_iter, change)


def numpy_hinge_sides(lo, hi, left, right):
    """Reference hinge table of a curve with plateau ``[lo, hi]``, built
    with whole-array numpy steps: the rows of ``_Hinges`` as one array, the
    slope bound and the plateau edges.  ``left`` and ``right`` are the
    ``(knot, value, slope)`` lists of ``ControlCurve._set_sides``."""
    rows = []
    for sigma, edge, side in ((-1.0, lo, left), (1.0, hi, right)):
        tau = -sigma
        knot, value, prev = side[0]
        rows.append((sigma, sigma * knot, sigma * prev, tau, tau * value,
                     tau * prev, edge, -tau * edge))
        for knot, value, slope in side[1:]:
            if 1.0 / slope != 1.0 / prev:
                rows.append((sigma, sigma * knot, sigma * (slope - prev), tau,
                             tau * value, tau / (1.0 / slope - 1.0 / prev), 0.0, 0.0))
                prev = slope
    table = np.array(rows).T
    table = np.vstack([table, -table[3] / (2.0 * table[5])])
    slopes = [s for side in (left, right) for _, _, s in side]
    return table, -float(min(slopes)), (float(lo), float(hi))


def numpy_droop_table(alpha, deadband):
    """Reference ``numpy_hinge_sides`` of ``DroopCurve(alpha, deadband)``."""
    h = deadband / 2.0
    return numpy_hinge_sides(-h, h, [(-h, 0.0, -alpha)], [(h, 0.0, -alpha)])


def numpy_hinge_table(points):
    """Reference ``numpy_hinge_sides`` of ``TableCurve(points)``, checked
    with numpy array tests and ``np.interp`` at zero.  It raises
    InvalidRecord with the library's messages, except that it does not
    require the points to span ``v_err = 0``."""
    pts = sorted((float(v), float(u)) for v, u in points)
    if len(pts) < 2:
        raise vv.InvalidRecord("table curve needs at least two points")
    v = np.array([p[0] for p in pts])
    u = np.array([p[1] for p in pts])
    if not (np.isfinite(v).all() and np.isfinite(u).all()):
        raise vv.InvalidRecord("table breakpoints must be finite")
    if np.any(np.diff(v) <= 0):
        raise vv.InvalidRecord("table v_err values must be strictly increasing")
    if np.any(np.diff(u) > 1e-15):
        raise vv.InvalidRecord("table curve must be non-increasing")
    slopes = np.diff(u) / np.diff(v)
    if not np.isfinite(slopes).all():
        raise vv.InvalidRecord("table segment slopes must be finite")
    flat = slopes > -1e-15
    if np.any(flat & ((u[:-1] != 0.0) | (u[1:] != 0.0))):
        raise vv.InvalidRecord("flat table segments are only allowed at zero output")
    if flat[0] or flat[-1]:
        raise vv.InvalidRecord("end segments must be strictly decreasing")
    if abs(float(np.interp(0.0, v, u))) > 1e-12 or u[0] < 0 or u[-1] > 0:
        raise vv.InvalidRecord("table curve must be zero at zero voltage error")
    p = max(np.count_nonzero(u > 0), 1)
    n = int(np.argmax(u < 0)) if u[-1] < 0 else len(u) - 1
    lo = v[p - 1] - u[p - 1] / slopes[p - 1] if u[0] > 0 else v[0]
    hi = v[n] - u[n] / slopes[n - 1] if u[-1] < 0 else v[-1]
    left = [(lo, 0.0, slopes[p - 1])]
    left += [(v[i], u[i], slopes[i - 1]) for i in range(p - 1, 0, -1)]
    right = [(hi, 0.0, slopes[n - 1])]
    right += [(v[i], u[i], slopes[i]) for i in range(n, len(v) - 1)]
    return numpy_hinge_sides(lo, hi, left, right)


def reference_float_kernel(kind, x_aa, base_err, bundle, slopes, qa0, lo_box, hi_box, gamma2,
                           gamma3, q_sum, const_obj=None):
    """Reference ``dynamics._float_kernel``: the same step as an indexed
    double loop over Python lists, with the same arguments and yields.  Given
    ``const_obj``, each state comes with its objective
    ``const_obj + sum_i [cost_i(q_i) + q_i ((x_aa q)_i / 2 + base_err_i)]``."""
    m = qa0.size
    rows, base, a_lo, a_hi, lo, hi, lob, hib, q = (
        np.asarray(a, dtype=float).tolist()
        for a in (x_aa, base_err, *slopes[:2], bundle.lo, bundle.hi, lo_box, hi_box, qa0))
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


def reference_array_kernel(kind, verr_of, qa, bundle, lo_box, hi_box, gamma2, gamma3, f_active,
                           q_sum):
    """Reference ``dynamics._array_kernel``: a per-step numpy loop that yields
    ``(qa, residual, v_full, objective)`` at every state and adds each state
    it advances from into ``q_sum``."""
    res = 0.0
    while True:
        verr, v_full = verr_of(qa)
        yield qa, res, v_full, f_active(qa) if f_active is not None else None
        q_sum += qa
        nxt = dynamics._active_update(kind, qa, None, verr, bundle, lo_box, hi_box, gamma2,
                                      gamma3)
        res = float(np.abs(nxt - qa).max())
        qa = nxt


def reference_iterate(states, tol, max_iter, record_every, window):
    """Reference ``dynamics._iterate``: the time loop that takes every state
    of a kernel that yields ``(q, residual, v, objective)`` per step, and
    decides the verdict, the records and the objective sum at each."""
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


def reference_simulate(feeder, config, plant="linear", q0=None, tol=1e-6, max_iter=10000,
                       record_every=1, track_objective=False, oscillation_window=50, mats=None):
    """Reference ``simulate`` for valid arguments and finite runs: the same
    set-up and kernel choice, with ``reference_float_kernel`` or
    ``reference_array_kernel`` stepping under ``reference_iterate``."""
    linear = plant == "linear"
    if mats is None:
        mats = vv.sensitivity_matrices(feeder)
    bundle = config.curves
    act = bundle.positions
    q = (np.zeros(feeder.n) if q0 is None else np.asarray(q0, dtype=float)).clip(
        config.q_min, config.q_max)
    qa = q[act].copy()
    lo_box, hi_box = config.q_min[act], config.q_max[act]
    q_o = q.copy()
    q_o[act] = 0.0
    x_aa, base_err, xq_o = dynamics._curve_block(mats, act, q_o)
    f_active = const_obj = None
    if track_objective:
        const_obj = sum(dynamics._objective_terms(mats, None, q_o, xq_o))

        def f_active(qa):
            return float(
                bundle.cost(qa).sum() + 0.5 * qa @ (x_aa @ qa) + qa @ base_err + const_obj
            )

    slopes = bundle.end_slopes()
    if linear and slopes is not None and act.size <= dynamics._FLOAT_KERNEL_LIMIT:
        q_sum = [0.0] * act.size
        states = reference_float_kernel(config.kind, x_aa, base_err, bundle, slopes, qa,
                                        lo_box, hi_box, config.gamma2, config.gamma3, q_sum,
                                        const_obj)
    else:
        sweeps = []
        if linear:
            def verr_of(qa):
                return x_aa @ qa + base_err, None
        else:
            def verr_of(qa):
                full = q.copy()
                full[act] = qa
                sol = vv.distflow_sweep(feeder, full, tol=1e-10,
                                        start=sweeps[-1] if sweeps else None)
                sweeps.append(sol)
                return (sol.v - feeder.v_nom)[act], sol.v

        q_sum = np.zeros(act.size)
        states = reference_array_kernel(config.kind, verr_of, qa, bundle, lo_box, hi_box,
                                        config.gamma2, config.gamma3, f_active, q_sum)
    run = reference_iterate(states, tol, max_iter, record_every, oscillation_window)
    q_full = np.tile(q, (len(run["q"]), 1))
    q_full[:, act] = run["q"]
    q_avg = q.copy()
    q_avg[act] = np.array(q_sum) / max(run["steps"], 1)
    run["q"], run["q_average"] = q_full, q_avg
    if linear:
        run["v"] = mats.voltage(q_full)
    else:
        run["sweep_iterations"] = sum(sol.iterations for sol in sweeps)
    return vv.Trajectory(**run)
