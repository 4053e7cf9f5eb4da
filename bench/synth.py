"""Seeded synthetic radial feeder for the radial1k-distflow workload.

The generator uses only numpy and returns plain records (buses, lines,
inverters, curve specs, slack voltage); voltvar sees nothing but those
records.  Shape:

* a complete ternary tree on ``N_BUSES`` non-slack buses behind one
  substation line (depth 7); line impedances fall with the square root of
  the subtree a line feeds, as conductors thicken towards the substation;
* a load and a PV unit at every bus.  The nine subtrees two levels below
  the first bus are zones whose PV output follows the fixed ladder
  ``ZONE_PV`` (net importers to net exporters) plus per-bus noise, and
  total PV plus inverter output matches total load;
* inverters on ``INVERTER_SHARE`` of the buses of every zone, alternating
  droop curves and six-point table curves that saturate ``CURVE_REACH``
  beyond the deadband;
* the slack voltage centres the lossless q = 0 profile at 1 p.u., so both
  deadband edges are crossed.

The seed draws every impedance, load and PV value, the inverter sites
within each zone, and the inverter sizes and curves.  The shape is fixed
because it sets the cost of a run: on random recursive trees the
power-flow and equilibrium iteration counts, and with them every timing,
moved by 20-40% from one seed to the next.

:func:`check_shape` asserts the properties that keep the workload
non-trivial.  Uniform impedances with small PV leave every bus inside the
deadband, and then the equilibrium solver and the curves do no work.
"""

from __future__ import annotations

import numpy as np

N_BUSES = 1000
BRANCHING = 3  # children per bus: a complete ternary tree, depth 7
INVERTER_SHARE = 0.1
DEPTH_RANGE = (6, 12)
DEADBAND = 0.04  # total width, as voltvar's default droop deadband
LINE_Z = 0.58  # r and x of a line feeding one bus; thinner by sqrt(subtree size)
LOAD_P = 0.003  # mean real load per bus, p.u.
LOAD_Q_RATIO = 0.3
PV_SWING = 0.9  # a zone's PV is (1 + PV_SWING * ZONE_PV[zone]) times its load
ZONE_PV = (-1.0, 1.0, -0.75, 0.75, -0.5, 0.5, -0.25, 0.25, 0.0)
PV_SPREAD = 0.2  # std of a bus's own PV noise, relative to its load
INVERTER_CAP = 0.003  # mean inverter nameplate, p.u.
CURVE_REACH = 0.06  # voltage error beyond the deadband where a curve saturates


class ShapeError(RuntimeError):
    """The generated feeder lacks a property the workload relies on."""


def radial_records(seed, n=N_BUSES):
    """Return ``(buses, lines, inverters, curve_specs, v0)`` as plain data.

    ``buses`` are dicts with ``id, p_c, q_c, p_g``; ``lines`` are
    ``(from, to, r, x)``; ``inverters`` map a bus id to ``(s, p)``; bus 0
    is the slack.
    """
    rng = np.random.default_rng(seed)
    parent = np.zeros(n + 1, dtype=int)
    parent[2:] = (np.arange(2, n + 1) - 2) // BRANCHING + 1
    zone = np.zeros(n + 1, dtype=int)  # 0: upstream of the zones
    first = 2 + BRANCHING
    zone[first:first + BRANCHING**2] = np.arange(1, BRANCHING**2 + 1)
    for i in range(first + BRANCHING**2, n + 1):
        zone[i] = zone[parent[i]]
    size = np.ones(n + 1)
    for i in range(n, 1, -1):
        size[parent[i]] += size[i]
    r = rng.uniform(0.8, 1.2, n + 1) * LINE_Z / np.sqrt(size)
    x = rng.uniform(0.8, 1.2, n + 1) * LINE_Z / np.sqrt(size)
    p_c = rng.uniform(0.5, 1.5, n + 1) * LOAD_P
    q_c = LOAD_Q_RATIO * p_c

    # the same number of inverters in every zone, at seeded buses; none
    # upstream of the zones, where the slack is
    inv_bus = np.sort(np.concatenate([
        rng.choice(members, round(INVERTER_SHARE * members.size), replace=False)
        for members in (np.flatnonzero(zone == z) for z in range(1, BRANCHING**2 + 1))
    ]))
    cap = np.zeros(n + 1)
    cap[inv_bus] = rng.uniform(0.5, 1.5, inv_bus.size) * INVERTER_CAP
    ladder = np.array((0.0,) + ZONE_PV)
    p_g = p_c * np.clip(1.0 + PV_SWING * ladder[zone] + rng.normal(0.0, PV_SPREAD, n + 1),
                        0.0, None)
    p_g *= (p_c[1:].sum() - cap.sum()) / p_g[1:].sum()

    inverters, specs = {}, {}
    for j, b in enumerate(inv_bus.tolist()):
        s, p = 1.1 * cap[b], cap[b]
        inverters[b] = (float(s), float(p))
        q_avail = float(np.sqrt(s * s - p * p))
        if j % 2 == 0:
            alpha = q_avail / CURVE_REACH * rng.uniform(0.8, 1.2)
            specs[b] = {"type": "droop", "alpha": float(alpha), "deadband": DEADBAND}
        else:
            q1 = q_avail * rng.uniform(0.8, 1.0)
            h = DEADBAND / 2.0
            e = h + CURVE_REACH
            specs[b] = {"type": "table", "points": [
                [-e, q1], [-h - 0.04, 0.6 * q1], [-h, 0.0],
                [h, 0.0], [h + 0.04, -0.6 * q1], [e, -q1],
            ]}

    # lossless DistFlow at q = 0 with v0 = 1; the slack voltage then
    # centres the profile's median at 1 p.u.
    net_p = p_c - p_g - cap
    net_q = q_c.copy()
    for i in range(n, 1, -1):
        net_p[parent[i]] += net_p[i]
        net_q[parent[i]] += net_q[i]
    v2 = np.ones(n + 1)
    for i in range(1, n + 1):
        v2[i] = v2[parent[i]] - 2.0 * (r[i] * net_p[i] + x[i] * net_q[i])
    v0 = 2.0 - float(np.median(np.sqrt(v2[1:])))

    buses = [{"id": 0, "p_c": 0.0, "q_c": 0.0, "p_g": 0.0}] + [
        {"id": i, "p_c": float(p_c[i]), "q_c": float(q_c[i]), "p_g": float(p_g[i])}
        for i in range(1, n + 1)
    ]
    lines = [(int(parent[i]), i, float(r[i]), float(x[i])) for i in range(1, n + 1)]
    return buses, lines, inverters, specs, v0


def depth_of(parent_positions):
    """Depth of every bus from model-space parent positions (-1 = slack)."""
    parent = np.asarray(parent_positions)
    depth = np.zeros(parent.size, dtype=int)
    for k in range(parent.size):
        d, j = 0, k
        while j >= 0:
            d += 1
            j = parent[j]
        depth[k] = d
    return depth


def check_shape(feeder, v_flat, eq_iterations):
    """Raise ShapeError unless the feeder keeps the workload non-trivial.

    ``v_flat`` are the full-model voltages at q = 0 and ``eq_iterations``
    the equilibrium solver's iteration count on the stored curves.
    """
    if feeder.n != N_BUSES:
        raise ShapeError(f"expected {N_BUSES} non-slack buses, got {feeder.n}")
    depth = int(depth_of(feeder.parent).max())
    if not DEPTH_RANGE[0] <= depth <= DEPTH_RANGE[1]:
        raise ShapeError(f"depth {depth} outside {DEPTH_RANGE}")
    outside = float(np.mean(np.abs(np.asarray(v_flat) - feeder.v_nom) > DEADBAND / 2.0))
    if outside <= 0.0:
        raise ShapeError("every bus sits inside the deadband at q = 0")
    if eq_iterations <= 0:
        raise ShapeError("the equilibrium solver did no iterations")
    return {"depth": depth, "outside_share": outside, "eq_iterations": int(eq_iterations)}
