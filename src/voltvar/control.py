"""Volt/VAR control curves, inverter capability sets and projection.

A control curve maps the local voltage error ``v - v_nom`` (per unit) to a
reactive-power command.  Curves are non-increasing, zero on a plateau
``[lo, hi]`` around zero, strictly decreasing off it, and carry a bound
``alpha_bar`` on the magnitude of their slope.

Every curve is piecewise linear and stored in one hinge form.  Hinge j
sits at knot ``k_j`` on side ``sigma_j`` of the plateau (-1 left, +1
right) and adds the slope change ``w_j``::

    u(v) = sum_j w_j max(sigma_j (v - k_j), 0)

The inverse has the same form in q, with knots ``Q_j = u(k_j)`` and sides
``tau_j = -sigma_j``, plus the plateau edge (``lo`` for q > 0, ``hi`` for
q < 0, 0 at q = 0); the cost is its exact integral, a quadratic in
``z_j = max(tau_j (q - Q_j), 0)``.  One kernel evaluates the form for a
single curve and for a :class:`CurveBundle`, whose curves are padded with
zero-weight hinges to a common count.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import InvalidRecord
from .network import (Inverter, _check_positions, _doc_float,  # noqa: F401  Inverter: re-export
                      _real, _shown, _vector)

DEFAULT_DEADBAND = 0.04  # total width, i.e. a 0.98..1.02 p.u. band


def reactive_limits(inverter):
    """Reactive capability interval (q_min, q_max) of one inverter.

    The headroom is the tighter of the power-factor cone ``p tan(rho)`` and
    the capacity circle ``sqrt(s^2 - p^2)``; ``None`` means no inverter, a
    singleton at zero.
    """
    if inverter is None:
        return 0.0, 0.0
    cap = math.sqrt(max(inverter.s**2 - inverter.p**2, 0.0))
    if inverter.rho is not None:
        cap = min(cap, inverter.p * math.tan(inverter.rho))
    return -cap, cap


def limits_arrays(feeder):
    """Per-bus (q_min, q_max) arrays; buses without inverters get {0}."""
    q_min = np.zeros(feeder.n)
    q_max = np.zeros(feeder.n)
    for k, inv in feeder.inverters.items():
        q_min[k], q_max[k] = reactive_limits(inv)
    return q_min, q_max


def validate_box(q_min, q_max, n=None):
    """The box ``[q_min, q_max]`` as float arrays, once it is checked.

    Both bounds must be finite numeric vectors of one length, ``n`` when
    given: InvalidRecord or DimensionMismatch otherwise, and InvalidRecord
    unless ``q_min <= q_max``.
    """
    lo = _vector("q_min", q_min, n)
    hi = _vector("q_max", q_max, lo.size)
    if not (lo <= hi).all():
        raise InvalidRecord("q_min and q_max must be finite with q_min <= q_max")
    return lo, hi


def project_box(q, q_min, q_max):
    """Componentwise projection onto the box [q_min, q_max].

    The box is checked by :func:`validate_box`: a non-finite or inverted
    box raises InvalidRecord.  ``q`` must be a finite numeric vector of the
    box's length: InvalidRecord or DimensionMismatch otherwise.
    """
    q_min, q_max = validate_box(q_min, q_max)
    return _vector("q", q, q_min.size).clip(q_min, q_max)


class _Hinges(NamedTuple):
    """Hinge form, one row per hinge: shape ``(J, 1)`` for one curve and
    ``(J, m)`` for a bundle, whose column k holds curve k.  Inputs come laid
    out on the same grid, or as a flat array that broadcasts against it."""

    sv: np.ndarray  # sigma_j: -1 left of the plateau, +1 right of it
    skv: np.ndarray  # sigma_j * k_j
    w: np.ndarray  # slope increments in v
    tq: np.ndarray  # tau_j = -sigma_j
    tkq: np.ndarray  # tau_j * Q_j
    d: np.ndarray  # the inverse gains z_j / d_j (inf adds nothing) ...
    e: np.ndarray  # ... and e_j once z_j > 0: the plateau edge on first hinges
    a: np.ndarray  # cost = sum_j (a_j + b_j z_j) z_j
    b: np.ndarray


# a hinge that contributes nothing: zero weights, finite knots
_PAD = np.array(
    _Hinges(sv=1.0, skv=0.0, w=0.0, tq=1.0, tkq=0.0, d=np.inf, e=0.0, a=0.0, b=0.0)
)


def _evaluate(h, v):
    return np.add.reduce(h.w * np.maximum(h.sv * v - h.skv, 0.0), 0)


def _slope(h, v):
    """The curve's derivative in v; at a knot, the slope on its inner side."""
    return np.add.reduce(h.w * h.sv * (h.sv * v > h.skv), 0)


def _hinge_z(h, q):
    return np.maximum(h.tq * q - h.tkq, 0.0)


def _inverse(h, q):
    z = _hinge_z(h, q)
    return np.add.reduce(z / h.d + h.e * np.sign(z), 0)


def _cost(h, q):
    z = _hinge_z(h, q)
    return np.add.reduce((h.a + h.b * z) * z, 0)


class ControlCurve:
    """A Volt/VAR curve in hinge form; subclasses validate and build it.

    ``__call__``, ``inverse`` and ``cost`` take a scalar or an array.  The
    inverse maps 0 to 0 on the plateau by convention, and the cost is minus
    the integral of the inverse from 0 to q, convex with cost(0) = 0.
    """

    def _set_sides(self, lo, hi, left, right):
        """Store the hinge form of a curve with plateau ``[lo, hi]``.

        ``left`` and ``right`` list ``(knot, value, slope)`` outward from the
        plateau: a breakpoint, the curve's value there and its slope beyond
        it, all builtin floats.  A breakpoint where the inverse slope does
        not change adds no hinge.
        """
        rows = []  # one per hinge, in _Hinges field order
        for sigma, edge, side in ((-1.0, lo, left), (1.0, hi, right)):
            tau = -sigma
            knot, value, prev = side[0]
            d = tau * prev
            rows.append((sigma, sigma * knot, sigma * prev, tau, tau * value,
                         d, edge, -tau * edge, -tau / (2.0 * d)))
            for knot, value, slope in side[1:]:
                if 1.0 / slope != 1.0 / prev:
                    d = tau / (1.0 / slope - 1.0 / prev)
                    rows.append((sigma, sigma * knot, sigma * (slope - prev), tau,
                                 tau * value, d, 0.0, 0.0, -tau / (2.0 * d)))
                    prev = slope
        # order="F" makes the transpose C-contiguous, one row per field
        table = np.array(rows, order="F").T
        slopes = [s for side in (left, right) for _, _, s in side]
        # object.__setattr__ because DroopCurve is a frozen dataclass
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "alpha_bar", -min(slopes))
        object.__setattr__(self, "deadband_edges", (lo, hi))

    def _apply(self, kernel, x):
        x = np.asarray(x, dtype=float)
        out = kernel(_Hinges(*self._table[:, :, None]), x.reshape(-1)).reshape(x.shape)
        return float(out) if out.ndim == 0 else out

    def __call__(self, v_err):
        return self._apply(_evaluate, v_err)

    def inverse(self, q):
        return self._apply(_inverse, q)

    def cost(self, q):
        return self._apply(_cost, q)


@dataclass(frozen=True)
class DroopCurve(ControlCurve):
    """Piecewise-linear droop with slope -alpha outside a symmetric deadband
    of total width ``deadband``."""

    alpha: float
    deadband: float = 0.0

    def __post_init__(self):
        a = -_real("alpha", self.alpha, "positive")
        h = _real("deadband", self.deadband, "nonnegative") / 2.0
        self._set_sides(-h, h, [(-h, 0.0, a)], [(h, 0.0, a)])


class TableCurve(ControlCurve):
    """Monotone curve given as breakpoints [(v_err, q), ...].

    Points and segment slopes must be finite; points must be strictly
    increasing in v_err, span v_err = 0 with zero output there (outputs of
    one sign fail, however small), and be non-increasing in q; the only flat
    stretch allowed is the zero-output deadband, and the end segments
    extrapolate with their own slopes so the curve keeps strictly
    decreasing toward +-infinity.  The checks and the hinge table run on
    plain floats: numpy's per-call cost dominates at a handful of points.
    """

    def __init__(self, points):
        try:
            pts = sorted((_doc_float(v), _doc_float(u)) for v, u in points)
        except (TypeError, ValueError, OverflowError) as exc:  # an int past float range
            raise InvalidRecord(
                f"table points must be [v_err, q] number pairs: {exc}"
            ) from exc
        if len(pts) < 2:
            raise InvalidRecord("table curve needs at least two points")
        v, u = zip(*pts)
        if not all(map(math.isfinite, v + u)):
            raise InvalidRecord("table breakpoints must be finite")
        dv = [b - a for a, b in zip(v, v[1:])]
        du = [b - a for a, b in zip(u, u[1:])]
        if min(dv) <= 0:
            raise InvalidRecord("table v_err values must be strictly increasing")
        if max(du) > 1e-15:
            raise InvalidRecord("table curve must be non-increasing")
        slopes = [a / b for a, b in zip(du, dv)]
        if not all(map(math.isfinite, slopes)):
            raise InvalidRecord("table segment slopes must be finite")
        flat = [s > -1e-15 for s in slopes]
        if any(f and (a != 0.0 or b != 0.0) for f, a, b in zip(flat, u, u[1:])):
            raise InvalidRecord("flat table segments are only allowed at zero output")
        if flat[0] or flat[-1]:
            raise InvalidRecord("end segments must be strictly decreasing")
        if not v[0] <= 0.0 <= v[-1]:
            raise InvalidRecord("table v_err values must span zero")
        # the value at zero as np.interp computes it, from the segment
        # [v[j], v[j + 1]) holding zero
        j = bisect.bisect_right(v, 0.0) - 1
        at_zero = u[j] if v[j] == 0.0 else slopes[j] * -v[j] + u[j]
        # outputs of one sign are nonzero at zero, however small
        if abs(at_zero) > 1e-12 or u[0] < 0.0 or u[-1] > 0.0:
            raise InvalidRecord("table curve must be zero at zero voltage error")
        # the sides start where the curve leaves zero output; p - 1 is the
        # last positive point (else the first) and n the first negative one
        # (else the last)
        p = max(sum(x > 0 for x in u), 1)
        n = next(i for i, x in enumerate(u) if x < 0) if u[-1] < 0 else len(u) - 1
        lo = v[p - 1] - u[p - 1] / slopes[p - 1] if u[0] > 0 else v[0]
        hi = v[n] - u[n] / slopes[n - 1] if u[-1] < 0 else v[-1]
        left = [(lo, 0.0, slopes[p - 1])]
        left += [(v[i], u[i], slopes[i - 1]) for i in range(p - 1, 0, -1)]
        right = [(hi, 0.0, slopes[n - 1])]
        right += [(v[i], u[i], slopes[i]) for i in range(n, len(v) - 1)]
        self._set_sides(lo, hi, left, right)


def curve_from_spec(spec, alpha=None, deadband=None):
    """Materialize a curve from its JSON description.

    ``{"type": "droop", "alpha": a, "deadband": d}`` or
    ``{"type": "table", "points": [[v_err, q], ...]}``; the keyword
    arguments override the stored droop parameters.
    """
    if not isinstance(spec, Mapping):
        raise InvalidRecord(f"a curve spec must be a mapping, got {type(spec).__name__}")
    kind = spec.get("type")
    if kind == "droop":
        return DroopCurve(
            alpha=_spec_number(spec, "alpha", alpha),
            deadband=_spec_number(spec, "deadband", deadband, default=0.0),
        )
    if kind == "table":
        if alpha is not None or deadband is not None:
            raise InvalidRecord("alpha/deadband overrides apply to droop curves only")
        if "points" not in spec:
            raise InvalidRecord("table curve spec needs 'points'")
        return TableCurve(spec["points"])
    raise InvalidRecord(f"unknown curve type {_shown(kind)}")


def _spec_number(spec, key, override, default=None):
    raw = override if override is not None else spec.get(key, default)
    if raw is None:
        raise InvalidRecord(f"droop curve spec needs {_shown(key)}")
    try:
        return _doc_float(raw)
    except (TypeError, ValueError, OverflowError) as exc:  # an int past float range
        raise InvalidRecord(
            f"droop curve {key} must be a number, got {_shown(raw)}") from exc


class CurveBundle(Mapping):
    """The curves of the controllable buses, stacked for vectorized use.

    A read-only mapping from bus position to curve, iterated in position
    order; it compares like a mapping and is not hashable.  ``positions``
    are the model-space indices carrying a curve, sorted; the evaluation
    methods act on arrays over exactly those positions.
    Column k holds the hinges of curve k, left side then right side, each
    nearest the plateau first, padded with zero-weight hinges to a common
    height.  ``curves`` must map non-negative integer positions (no bools)
    to :class:`ControlCurve` s: InvalidRecord otherwise.
    """

    def __init__(self, curves):
        if not isinstance(curves, Mapping):
            raise InvalidRecord(f"curves must be a mapping of bus positions to curves, "
                                f"got {type(curves).__name__}")
        curves = dict(curves)
        _check_positions("curve positions", curves)
        bad = {k: type(c).__name__ for k, c in curves.items()
               if not isinstance(c, ControlCurve)}
        if bad:
            raise InvalidRecord(f"curves must map bus positions to ControlCurves, got {bad}")
        self._curves = {k: curves[k] for k in sorted(curves)}
        self.positions = np.array(list(self._curves), dtype=int)
        ordered = list(self._curves.values())
        self.alpha_bar = np.array([c.alpha_bar for c in ordered])
        self.lo = np.array([c.deadband_edges[0] for c in ordered])
        self.hi = np.array([c.deadband_edges[1] for c in ordered])
        height = max((c._table.shape[1] for c in ordered), default=0)
        table = np.empty((len(_PAD), height, len(ordered)))
        table[:] = _PAD[:, None, None]
        for k, c in enumerate(ordered):
            table[:, :c._table.shape[1], k] = c._table
        self._hinges = _Hinges(*table)
        # gathers an input over the hinge grid: cheaper than broadcasting
        self._grid = np.empty((height, len(ordered)), dtype=int)
        self._grid[:] = np.arange(len(ordered))

    def __getitem__(self, position):
        return self._curves[position]

    def __iter__(self):
        return iter(self._curves)

    def __len__(self):
        return len(self._curves)

    def end_slopes(self):
        """``(a_lo, a_hi, c_lo, c_hi)``, or None unless every curve has one
        segment per side: its slope magnitudes left and right of the plateau
        ``[lo, hi]``, and its cost ``(-lo + c_lo q) q`` for q > 0 and
        ``(hi + c_hi z) z``, ``z = -q``, for q < 0."""
        h = self._hinges
        if h.w.shape[0] != 2:
            return None
        return h.w[0], -h.w[1], h.b[0], h.b[1]

    def evaluate(self, v_err):
        return _evaluate(self._hinges, np.asarray(v_err)[self._grid])

    def slope(self, v_err):
        return _slope(self._hinges, np.asarray(v_err)[self._grid])

    def inverse(self, q):
        return _inverse(self._hinges, np.asarray(q)[self._grid])

    def cost(self, q):
        return _cost(self._hinges, np.asarray(q)[self._grid])


def _read_curves(curves, n):
    """The :class:`CurveBundle` of ``curves``, a mapping of bus positions to
    :class:`ControlCurve` s or a bundle already, which checked its own
    mapping; InvalidRecord unless every position is below ``n`` too."""
    bundle = curves if isinstance(curves, CurveBundle) else CurveBundle(curves)
    if len(bundle) and bundle.positions[-1] >= n:
        _check_positions("curve positions", bundle.positions, n)
    return bundle
