"""Bus voltages from reactive injections: linearized model and full sweep.

Both solvers share the sign conventions of the branch-flow recursion:
``P[k]``/``Q[k]`` are the sending-end flows on the line into bus
``labels[k]``, consumption counts positive, and ``ell[k]`` is the squared
current magnitude on that line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatch, InvalidRecord, NegativeSquaredVoltage, NoConvergence
from .network import _path_sum, _subtree_sum, sensitivity_matrices

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 100


@dataclass(frozen=True, eq=False)
class VoltageSolution:
    """Voltages plus per-line flows for one operating point."""

    v: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    ell: np.ndarray
    model: str
    iterations: int = 0


def branch_flows(feeder, net_p, net_q, ell=None):
    """Sending-end line flows for given net consumptions and line currents.

    With ``ell`` omitted this is the lossless accumulation: each line
    carries the net consumption of its subtree.  Otherwise every line adds
    its own loss ``r ell`` (resp. ``x ell``) and those of its subtree.
    """
    load = np.stack((net_p, net_q))
    if ell is not None:
        load = load + np.stack((feeder.r, feeder.x)) * ell
    P, Q = feeder.subtree_sum(load)
    return P, Q


def _net_consumption(feeder, q):
    q = np.asarray(q, dtype=float)
    if q.shape != (feeder.n,):
        raise DimensionMismatch(f"expected q of shape ({feeder.n},), got {q.shape}")
    if not np.isfinite(q).all():
        raise InvalidRecord(
            f"reactive injections must be finite; non-finite at bus positions "
            f"{np.flatnonzero(~np.isfinite(q)).tolist()}"
        )
    return feeder.net_p, feeder.q_c - q


def linear_voltage(mats, q):
    """Open-loop voltages of the linearized model: ``v = X q + vtilde``."""
    feeder = mats.feeder
    net_p, net_q = _net_consumption(feeder, q)
    P, Q = branch_flows(feeder, net_p, net_q)
    return VoltageSolution(
        v=mats.voltage(q),
        P=P,
        Q=Q,
        ell=np.zeros(feeder.n),
        model="linear",
    )


def distflow_sweep(feeder, q, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER, start=None):
    """Solve the full branch-flow recursion by backward/forward sweeps.

    Starts flat (``ell = 0``, ``v = v0``), or from the ``ell`` and ``v`` of
    ``start``, an earlier VoltageSolution of the same feeder, and
    alternates flow accumulation, voltage propagation and current updates
    until the largest voltage change drops below ``tol``.  A start near the
    solution, such as the previous step's solution in a closed loop, needs
    fewer sweeps to the same stopping rule.

    Raises
    ------
    DimensionMismatch
        ``q``, ``start.v`` or ``start.ell`` is not of shape ``(n,)``.
    InvalidRecord
        ``q`` is not finite, or ``start`` holds a non-finite ``ell``/``v``
        or a ``v <= 0``.
    NoConvergence
        Iteration budget exhausted; the loading may be beyond the solvable
        region.
    NegativeSquaredVoltage
        A squared voltage went non-positive: infeasible operating point.
    """
    net_p, net_q = _net_consumption(feeder, q)
    # the sweep runs in preorder coordinates, where subtrees are intervals
    order = feeder.order
    end = feeder.preorder_end
    rx, z2 = feeder.preorder_lines
    r, x = rx
    load = np.array((net_p, net_q)).take(order, axis=1)
    v0sq = feeder.v0**2

    if start is None:
        ell = np.zeros(feeder.n)
        v = feeder.v0  # flat start
    else:
        ell, v = _start_point(feeder, start)
    change = np.inf
    for it in range(1, max_iter + 1):
        P, Q = _subtree_sum(load + rx * ell, end)
        drop = 2.0 * (r * P + x * Q) - z2 * ell
        v2 = v0sq - _path_sum(drop, end)
        if v2.min() <= 0.0:
            raise NegativeSquaredVoltage(
                f"squared voltage non-positive at bus positions "
                f"{np.sort(order[v2 <= 0.0]).tolist()}"
            )
        # the sending end of line k is its parent bus, whose squared
        # voltage lacks only line k's own drop
        ell = (P * P + Q * Q) / (v2 + drop)
        v_new = np.sqrt(v2)
        change = float(np.abs(v_new - v).max())
        v = v_new
        if change < tol:
            pos = feeder.intervals[0]
            v, P, Q, ell = np.array((v, P, Q, ell)).take(pos, axis=1)
            return VoltageSolution(v=v, P=P, Q=Q, ell=ell, model="distflow", iterations=it)
    raise NoConvergence(max_iter, change)


def _start_point(feeder, start):
    """The checked ``(ell, v)`` of a warm start, taken into preorder."""
    ell = np.asarray(start.ell, dtype=float)
    v = np.asarray(start.v, dtype=float)
    if not ell.shape == v.shape == (feeder.n,):
        raise DimensionMismatch(
            f"expected start.ell and start.v of shape ({feeder.n},), "
            f"got {ell.shape} and {v.shape}"
        )
    if not (np.isfinite(ell).all() and np.isfinite(v).all() and v.min() > 0.0):
        raise InvalidRecord("a warm start needs finite ell and v with v > 0")
    return ell.take(feeder.order), v.take(feeder.order)


@dataclass(frozen=True, eq=False)
class LinearizationReport:
    """Per-bus gap between the full sweep and the linearized model."""

    error: np.ndarray  # v_distflow - v_linear
    max_abs: float
    mean_abs: float
    v_linear: np.ndarray
    v_distflow: np.ndarray


def linearization_error(feeder, q, mats=None):
    """Quantify the linearization gap at injection ``q`` (sweep at its defaults)."""
    if mats is None:
        mats = sensitivity_matrices(feeder)
    lin = linear_voltage(mats, q)
    full = distflow_sweep(feeder, q)
    err = full.v - lin.v
    return LinearizationReport(
        error=err,
        max_abs=float(np.abs(err).max()),
        mean_abs=float(np.abs(err).mean()),
        v_linear=lin.v,
        v_distflow=full.v,
    )
