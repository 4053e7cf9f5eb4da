"""Bus voltages from reactive injections: linearized model and full sweep.

Both solvers share the sign conventions of the branch-flow recursion:
``P[k]``/``Q[k]`` are the sending-end flows on the line into bus
``labels[k]``, consumption counts positive, and ``ell[k]`` is the squared
current magnitude on that line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidRecord, NegativeSquaredVoltage, NoConvergence
from .network import (_check_count, _check_tol, _model, _path_sum, _subtree_sum, _vector,
                      sensitivity_matrices)

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


def linear_voltage(mats, q):
    """Open-loop voltages of the linearized model: ``v = X q + vtilde``, with
    the lossless line flows, each line carrying its subtree's net load."""
    feeder = _model(mats).feeder
    q = _vector("q", q, feeder.n)
    P, Q = feeder.subtree_sum(np.array((feeder.net_p, feeder.q_c - q)))
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
        ``q`` is not a finite numeric array, ``start`` is not a
        VoltageSolution or holds a non-numeric or non-finite ``ell``/``v``
        or a ``v <= 0``, ``tol`` is nan or negative, or ``max_iter`` is not
        an integer of at least 1.
    NoConvergence
        Iteration budget exhausted; the loading may be beyond the solvable
        region.
    NegativeSquaredVoltage
        A squared voltage went non-positive: infeasible operating point.
    """
    _check_tol(tol)
    _check_count("max_iter", max_iter, 1)
    q = _vector("q", q, feeder.n)
    # the sweep runs in preorder coordinates, where subtrees are intervals
    order, pos, end = feeder.preorder
    rx, z2 = feeder.preorder_lines
    r, x = rx
    load = np.array((feeder.net_p, feeder.q_c - q)).take(order, axis=1)
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
            v, P, Q, ell = np.array((v, P, Q, ell)).take(pos, axis=1)
            return VoltageSolution(v=v, P=P, Q=Q, ell=ell, model="distflow", iterations=it)
    raise NoConvergence(max_iter, change)


def _start_point(feeder, start):
    """The checked ``(ell, v)`` of a warm start, taken into preorder."""
    if not isinstance(start, VoltageSolution):
        raise InvalidRecord(f"start must be a VoltageSolution, got {type(start).__name__}")
    ell = _vector("start.ell", start.ell, feeder.n)
    v = _vector("start.v", start.v, feeder.n)
    if not (v > 0.0).all():
        raise InvalidRecord("a warm start needs finite ell and v with v > 0")
    return np.array((ell, v)).take(feeder.preorder[0], axis=1)


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
    mats = sensitivity_matrices(feeder) if mats is None else _model(mats, feeder)
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
