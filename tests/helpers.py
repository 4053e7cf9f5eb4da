"""Shared builders and independent oracles for the test suite."""

import numpy as np

import voltvar as vv
from voltvar.network import Bus, Line


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
