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
from .network import (_check_count, _check_tol, _model, _path_sum, _readonly, _subtree_sum,
                      _vector, sensitivity_matrices)

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 100


@dataclass(frozen=True, eq=False)
class VoltageSolution:
    """Voltages plus per-line flows for one operating point.

    The arrays of a solution that :func:`linear_voltage` or
    :func:`distflow_sweep` returns are read-only.  A sweep's solution also
    carries its feeder and its ``(ell, v)`` in preorder, so that a sweep of
    that same feeder which starts from it skips the start's check; a
    ``dataclasses.replace`` copy, a ``copy`` or a pickled one carries
    nothing and is checked.
    """

    v: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    ell: np.ndarray
    model: str
    iterations: int = 0
    # distflow_sweep sets (feeder, ell, v) here; no field, so that replace,
    # asdict and fields() pass it by
    _warm = None

    def __getstate__(self):
        # a feeder does not pickle, and a copy needs no carried start
        return {k: a for k, a in self.__dict__.items() if k != "_warm"}


def linear_voltage(mats, q):
    """Open-loop voltages of the linearized model: ``v = X q + vtilde``, with
    the lossless line flows, each line carrying its subtree's net load."""
    feeder = _model(mats).feeder
    q = _vector("q", q, feeder.n)
    P, Q = _readonly(feeder.subtree_sum(np.array((feeder.net_p, feeder.q_c - q))))
    return VoltageSolution(
        v=_readonly(mats.voltage(q)),
        P=P,
        Q=Q,
        ell=_readonly(np.zeros(feeder.n)),
        model="linear",
    )


def distflow_sweep(feeder, q, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER, start=None):
    """Solve the full branch-flow recursion by backward/forward sweeps.

    Starts flat (``ell = 0``, ``v = v0``), or from the ``ell`` and ``v`` of
    ``start``, an earlier VoltageSolution of the same feeder, and
    alternates flow accumulation, voltage propagation and current updates
    until the largest voltage change drops below ``tol``.  A start near the
    solution, such as the previous step's solution in a closed loop, needs
    fewer sweeps to the same stopping rule.  A start that this function
    returned for this same feeder object is taken as it was solved; any
    other start is checked first.

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
    n = feeder.n
    q = _vector("q", q, n)
    # the sweep runs in preorder coordinates, where subtrees are intervals
    order, pos, end = feeder.preorder
    (r, x), z2, rx_pairs = feeder.preorder_lines
    net_p, q_c = feeder.preorder_loads
    v0sq = feeder.v0**2
    # The flows (P, Q) of a bus travel as one complex number: complex sums
    # add the two parts apart, so one sum over P + iQ gives the bits of the
    # two real sums in one pass.  Products stay real, on the (n, 2) float
    # view whose columns are P and Q.  Each in-place update rounds as the
    # expression in the comment above it.  Every buffer is this call's own:
    # the solution carries the final ell and v rows.
    y, flow, square = np.empty((3, n), dtype=complex)
    pairs, square_pairs = flow.view(float).reshape(n, 2), square.view(float).reshape(n, 2)
    y_p, y_q, sq_p, sq_q = y.real, y.imag, square.real, square.imag
    state = np.empty((3, n))
    ell, v, v_new = state
    drop, tmp, v2, load_q = np.empty((4, n))
    np.subtract(q_c, q.take(order), out=load_q)
    if start is None:
        ell.fill(0.0)
        v.fill(feeder.v0)  # flat start
    else:
        ell[:], v[:] = _start_point(feeder, start)
    change = np.inf
    for it in range(1, max_iter + 1):
        # y = (net_p, q_c - q) + rx * ell
        np.add(np.multiply(r, ell, out=y_p), net_p, out=y_p)
        np.add(np.multiply(x, ell, out=y_q), load_q, out=y_q)
        _subtree_sum(y, end, out=flow)
        # drop = 2 (r P + x Q) - z2 ell
        np.multiply(rx_pairs, pairs, out=square_pairs)
        np.add(sq_p, sq_q, out=drop)
        drop *= 2.0
        drop -= np.multiply(z2, ell, out=tmp)
        # v2 = v0^2 - path sums of drop
        np.subtract(v0sq, _path_sum(drop, end), out=v2)
        if v2.min() <= 0.0:
            raise NegativeSquaredVoltage(
                f"squared voltage non-positive at bus positions "
                f"{np.sort(order[v2 <= 0.0]).tolist()}"
            )
        # ell = (P^2 + Q^2) / (v2 + drop): the sending end of line k is its
        # parent bus, whose squared voltage lacks only line k's own drop
        np.multiply(pairs, pairs, out=square_pairs)
        np.add(sq_p, sq_q, out=ell)
        ell /= np.add(v2, drop, out=tmp)
        np.sqrt(v2, out=v_new)
        change = float(np.abs(np.subtract(v_new, v, out=tmp), out=tmp).max())
        v, v_new = v_new, v
        if change < tol:
            state.setflags(write=False)
            out = _readonly(np.array((v, flow.real, flow.imag, ell)).take(pos, axis=1))
            sol = VoltageSolution(*out, model="distflow", iterations=it)
            object.__setattr__(sol, "_warm", (feeder, ell, v))
            return sol
    raise NoConvergence(max_iter, change)


def _start_point(feeder, start):
    """The ``(ell, v)`` of a warm start in preorder: as carried, when
    :func:`distflow_sweep` solved ``start`` on this very feeder, and checked
    and gathered otherwise."""
    if not isinstance(start, VoltageSolution):
        raise InvalidRecord(f"start must be a VoltageSolution, got {type(start).__name__}")
    if start._warm is not None and start._warm[0] is feeder:
        return start._warm[1:]
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
