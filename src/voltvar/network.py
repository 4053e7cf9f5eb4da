"""Radial feeder model and voltage-sensitivity matrices.

Array conventions used throughout the package:

* "model space" vectors have length ``n`` and cover the non-slack buses in
  label-sorted order; position ``k`` corresponds to ``feeder.labels[k]``.
* per-line quantities are aligned with their downstream bus: entry ``k`` is
  the line between bus ``labels[k]`` and its parent.
* ``parent[k]`` is the model-space position of the upstream bus, or ``-1``
  when the upstream bus is the slack.

All public types are immutable after construction; operations are pure
functions of their inputs.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .exceptions import (
    CycleDetected,
    DimensionMismatch,
    Disconnected,
    DuplicateId,
    InvalidRecord,
    NonPositiveImpedance,
    RootDegreeNotOne,
)

DEFAULT_NOMINAL_VOLTAGE = 1.0

# number types for the boundary checks, builtins first: on a 2-vCPU Xeon VM
# an isinstance check against a numbers ABC takes 0.4-0.6 us, and these
# tuples under 0.1 us for builtin ints and floats
_REAL = (float, int, numbers.Real)
_INTEGRAL = (int, numbers.Integral)

# the domains of _real: the least float in each (next above a bound it excludes), and its text
_DOMAINS = {"finite": (math.nextafter(-math.inf, 0.0), "a finite number"),
            "nonnegative": (0.0, "a finite number of at least 0"),
            "positive": (math.nextafter(0.0, 1.0), "a positive finite number")}


def _is_number(value, kinds=_REAL):
    """isinstance(value, kinds), but a bool, which Python counts as an int, is no number."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _real(name, value, domain="finite"):
    """``value`` as a float once it is a real number in ``domain``, a key of ``_DOMAINS``;
    InvalidRecord whose message starts with ``name`` otherwise.  Floats skip the type tests."""
    least, text = _DOMAINS[domain]
    if type(value) is float:
        if least <= value < math.inf:
            return value
    elif _is_number(value):
        try:
            return _real(name, float(value), domain)
        except OverflowError:  # an int past float range
            pass
    raise InvalidRecord(f"{name} must be {text}, got {value!r}")


def _check_tol(tol):
    """Raise InvalidRecord unless ``tol`` is a non-negative number; nan is not."""
    if not (_is_number(tol) and tol >= 0.0):
        raise InvalidRecord(f"tol must be a non-negative number, got {tol!r}")


def _check_count(name, value, least):
    """Raise InvalidRecord unless ``value`` is an integer, a numpy one
    included, of at least ``least``."""
    if not (_is_number(value, _INTEGRAL) and value >= least):
        raise InvalidRecord(f"{name} must be an integer of at least {least}, got {value!r}")


def _floats(name, value):
    """``value`` as a float array; InvalidRecord naming ``name`` when numpy
    cannot read it as floats."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidRecord(f"{name} must be a numeric array: {exc}") from exc


def _vector(name, value, n=None):
    """``value`` as a finite float array of shape ``(n,)``, or of any one
    length when ``n`` is None.

    Raises InvalidRecord when numpy cannot read ``value`` as floats or an
    entry is not finite, and DimensionMismatch on any other shape; each
    message names the argument ``name``.
    """
    a = _floats(name, value)
    if a.ndim != 1 or (n is not None and a.size != n):
        raise DimensionMismatch(
            f"expected {name} of shape ({'n' if n is None else n},), got {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidRecord(f"{name} must be finite; non-finite at positions "
                            f"{np.flatnonzero(~np.isfinite(a)).tolist()}")
    return a


def _check_positions(name, keys, n=None):
    """Raise InvalidRecord naming ``name`` unless every bus position in
    ``keys`` is an integer, numpy's included but not a bool, in ``[0, n)``,
    or in numpy's index range when ``n`` is None: numpy would wrap a
    negative position onto another bus and truncate a fractional one."""
    bound = sys.maxsize if n is None else n
    try:
        bad = [k for k in (keys.tolist() if isinstance(keys, np.ndarray) else keys)
               if not (_is_number(k, _INTEGRAL) and 0 <= k < bound)]
    except TypeError as exc:
        raise InvalidRecord(f"{name} must be a sequence of bus positions: {exc}") from exc
    if bad:
        where = "non-negative integers" if n is None else f"integers in [0, {n})"
        raise InvalidRecord(f"{name} must be {where}, got {bad}")


@dataclass(frozen=True)
class Bus:
    """One bus record: loads and non-inverter generation in per unit."""

    id: int
    v_nom: float = DEFAULT_NOMINAL_VOLTAGE
    p_c: float = 0.0
    q_c: float = 0.0
    p_g: float = 0.0


@dataclass(frozen=True)
class Line:
    """One line record; orientation is derived, not taken from the record."""

    from_bus: int
    to_bus: int
    r: float
    x: float


@dataclass(frozen=True)
class Bases:
    """System base quantities; ``z_ohm`` defaults to v^2/s."""

    v_kv: float
    s_kva: float
    z_ohm: float = 0.0

    def __post_init__(self):
        v_kv = _real("v_kv", self.v_kv, "positive")
        s_kva = _real("s_kva", self.s_kva, "positive")
        if _real("z_ohm", self.z_ohm, "nonnegative") == 0.0:
            try:
                z_ohm = (v_kv * 1e3) ** 2 / (s_kva * 1e3)
            except OverflowError:  # float ** raises where * gives inf
                z_ohm = np.inf
            if not 0 < z_ohm < np.inf:
                raise InvalidRecord(f"bases v_kv={v_kv}, s_kva={s_kva} give z_ohm={z_ohm}")
            object.__setattr__(self, "z_ohm", z_ohm)


@dataclass(frozen=True)
class Inverter:
    """Inverter operating point: apparent capacity s, real output p, and an
    optional power-factor angle limit rho (radians); rho=None means the
    capacity circle alone bounds reactive output."""

    s: float
    p: float
    rho: float | None = None

    def __post_init__(self):
        s, p = _real("s", self.s, "nonnegative"), _real("p", self.p, "nonnegative")
        if self.rho is not None and not 0.0 <= _real("rho", self.rho) <= np.pi / 2:
            raise InvalidRecord(f"rho must lie in [0, pi/2], got {self.rho}")
        if not p <= s:
            raise InvalidRecord(f"inverter requires 0 <= p <= s < inf, got p={self.p}, s={self.s}")
        if s * s == np.inf:  # control.reactive_limits squares s
            raise InvalidRecord(f"inverter capacity s={self.s} is too large to square")


def _readonly(a, dtype=float):
    a = np.asarray(a, dtype=dtype)
    a.setflags(write=False)
    return a


def _subtree_sum(y, end):
    """Subtree sums in preorder coordinates: entry a sums ``y[..., a:end[a]]``."""
    prefix = np.add.accumulate(y, axis=-1)
    return prefix.take(end - 1, axis=-1) - (prefix - y)


def _path_sum(y, end):
    """Root-path sums in preorder coordinates: entry b sums ``y[..., a]`` over
    every a whose subtree ``[a, end[a])`` contains b.

    Entry a joins the running sum at a and leaves it at ``end[a]``.  Stacked
    rows are laid end to end, each with its own ``n + 1`` bins, so one
    ``bincount`` serves them all.
    """
    if y.ndim == 1:
        return np.add.accumulate(y - np.bincount(end, y, y.size + 1)[:-1])
    n = y.shape[-1]
    rows = y.reshape(-1, n)
    bins = (end + (n + 1) * np.arange(len(rows))[:, None]).ravel()
    leave = np.bincount(bins, rows.ravel(), rows.size + len(rows)).reshape(-1, n + 1)
    return np.add.accumulate(rows - leave[:, :-1], axis=-1).reshape(y.shape)


@dataclass(frozen=True, eq=False)
class Feeder:
    """A validated radial feeder rooted at the slack bus.

    Construct with :func:`build_feeder`; most fields are documented there.
    Its walk of the tree also lays out two read-only fields:

    * ``preorder = (order, pos, end)``, the depth-first preorder:
      ``order[a]`` is the bus at preorder position a, bus k sits at
      ``pos[k]``, and the subtree of the bus at position a fills the
      positions ``[a, end[a])``.  Parents come before children, and
      siblings in position order.
    * ``depth``, the line impedances summed over each bus's root path:
      ``depth[0]`` sums x (the diagonal of X) and ``depth[1]`` sums r.

    A ``dataclasses.replace`` copy that changes loads keeps both; one that
    changes the tree (``parent``, ``r`` or ``x``) is not supported.
    """

    slack_label: int
    labels: tuple
    parent: np.ndarray
    r: np.ndarray
    x: np.ndarray
    p_c: np.ndarray
    q_c: np.ndarray
    p_g: np.ndarray
    v_nom: np.ndarray
    v0: float
    inverters: MappingProxyType
    curve_specs: MappingProxyType
    preorder: tuple
    depth: np.ndarray
    bases: Bases | None = None
    meta: MappingProxyType = field(default_factory=lambda: MappingProxyType({}))

    @property
    def n(self):
        return len(self.labels)

    @cached_property
    def position(self):
        """Map bus label -> model-space position."""
        return MappingProxyType({lab: k for k, lab in enumerate(self.labels)})

    @cached_property
    def preorder_lines(self):
        """Line impedances in preorder coordinates, read-only: the stacked
        ``(r, x)`` and ``z2 = r^2 + x^2``."""
        r, x = rx = np.array((self.r, self.x)).take(self.preorder[0], axis=1)
        return _readonly(rx), _readonly(r * r + x * x)

    def subtree_sum(self, y):
        """``D @ y`` along the last axis of ``y``: each bus's subtree sum, O(n)."""
        order, pos, end = self.preorder
        return _subtree_sum(np.asarray(y, dtype=float)[..., order], end)[..., pos]

    def path_sum(self, y):
        """``D.T @ y`` along the last axis of ``y``: each bus's root-path sum, O(n)."""
        order, pos, end = self.preorder
        return _path_sum(np.asarray(y, dtype=float)[..., order], end)[..., pos]

    @cached_property
    def descendant_matrix(self):
        """D[j, k] = 1 when bus k lies in the subtree of line j (beta(j))."""
        _, pos, end = self.preorder
        return _readonly((pos[None, :] >= pos[:, None]) & (pos[None, :] < end[pos][:, None]))

    def injected_real_power(self):
        """Total fixed real generation: bus p_g plus inverter operating power."""
        p = self.p_g.copy()
        for k, inv in self.inverters.items():
            p[k] += inv.p
        return p

    @cached_property
    def net_p(self):
        """Net real consumption ``p_c - injected_real_power()``, read-only."""
        return _readonly(self.p_c - self.injected_real_power())


@dataclass(frozen=True, eq=False)
class SensitivityMatrices:
    """The linearized branch-flow model ``v = X q + vtilde`` of a feeder.

    X maps reactive injections to bus voltages; R plays the same role for
    real power.  :meth:`voltage` and :meth:`x_times` apply the model, and
    :meth:`block` gives X on a set of buses, all without the dense n-by-n
    matrices; ``X`` and ``R`` are built on first access only.
    """

    vtilde: np.ndarray
    feeder: Feeder

    def _row_copy(self, dep):
        """The n-by-n matrix whose entry (i, j) is ``dep`` at the deepest
        common bus of the root paths of i and j (0 when only the slack is
        shared).  Row k copies its parent's row, the common path with any
        bus outside beta(k), and sets beta(k) to k's depth sum."""
        feeder = self.feeder
        order, _, end = feeder.preorder
        parent = feeder.parent.tolist()
        out = np.zeros((feeder.n, feeder.n))
        for a, (k, b) in enumerate(zip(order.tolist(), end.tolist())):
            if parent[k] >= 0:
                out[k] = out[parent[k]]
            out[k, order[a:b]] = dep[k]
        return _readonly(out)

    @cached_property
    def X(self):
        """The dense reactance sensitivity matrix, built on first access."""
        return self._row_copy(self.feeder.depth[0])

    @cached_property
    def R(self):
        """The dense resistance sensitivity matrix, built on first access."""
        return self._row_copy(self.feeder.depth[1])

    def block(self, act):
        """``X[act, act]`` for distinct bus positions ``act``, read-only, in
        O(n + m^2) without the dense X.

        For buses i and j at preorder positions ``a < b``, ``X[i, j]`` is the
        x-depth of their deepest common bus, the smallest parent depth that
        a preorder walk passes over positions ``(a, b]``.  The result for the
        last ``act`` is kept, since a run asks for the same block repeatedly.
        A repeated bus, or one that is not an integer in ``[0, n)``, raises
        :class:`InvalidRecord`.
        """
        _check_positions("act", act, self.feeder.n)
        act = np.asarray(act, dtype=int)
        memo = self.__dict__.get("_block_memo")
        if memo is not None and np.array_equal(memo[0], act):
            return memo[1]
        m = act.size
        order, pos, _ = self.feeder.preorder
        pos = pos.take(act)
        # act's places in preorder, by one pass over the feeder
        place = np.full(self.feeder.n, -1)
        place[pos] = np.arange(m)
        srt = place[place >= 0]
        if srt.size < m:
            raise InvalidRecord(f"block needs distinct buses, got {act.tolist()}")
        rank = np.empty(m, dtype=int)
        rank[srt] = np.arange(m)
        a = pos[srt]
        # gap[b] is the common x-depth of the buses at sorted places b - 1 and
        # b: the least x-depth of a parent (0 for the slack) on the walk
        gap = np.full(m, np.inf)
        if m > 1:
            parent = self.feeder.parent.take(order[:a[-1] + 1])
            walk = np.where(parent >= 0, self.feeder.depth[0].take(parent), 0.0)
            gap[1:] = np.minimum.reduceat(walk, a[:-1] + 1)
        upper = np.where(np.arange(m)[:, None] < np.arange(m), gap, np.inf)
        upper = np.minimum.accumulate(upper, axis=1)
        sorted_block = np.minimum(upper, upper.T)
        np.fill_diagonal(sorted_block, self.feeder.depth[0].take(act[srt]))
        out = _readonly(sorted_block.take(rank, axis=0).take(rank, axis=1))
        self.__dict__["_block_memo"] = (act.copy(), out)
        return out

    def x_times(self, q):
        """The product ``X q`` along the last axis of ``q``, in O(n) through
        ``X = D.T diag(x) D``: the flow each line carries, weighted by its
        reactance and summed along every root path."""
        feeder = self.feeder
        q = np.asarray(q, dtype=float)
        if q.shape[-1:] != (feeder.n,):
            raise DimensionMismatch(f"expected q with last axis {feeder.n}, got {q.shape}")
        return feeder.path_sum(feeder.x * feeder.subtree_sum(q))

    def voltage(self, q):
        """The linearized model's voltages ``X q + vtilde``, in O(n)."""
        return self.x_times(q) + self.vtilde


def _model(mats, feeder=None):
    """``mats`` once it is a :class:`SensitivityMatrices`, and the model of
    ``feeder`` itself when one is given; InvalidRecord naming ``mats``
    otherwise, since a model of another feeder answers for that feeder."""
    if not isinstance(mats, SensitivityMatrices):
        raise InvalidRecord(f"mats must be a SensitivityMatrices, got {type(mats).__name__}")
    if feeder is not None and mats.feeder is not feeder:
        raise InvalidRecord("mats must be the model of the feeder passed with it")
    return mats


def build_feeder(
    buses,
    lines,
    inverters=None,
    bases=None,
    slack_label=0,
    v0=1.0,
    curve_specs=None,
    meta=None,
):
    """Validate records and orient the tree away from the slack bus.

    Parameters
    ----------
    buses : iterable of Bus
        Must include the slack bus; the slack may carry no load, generation
        or inverter.  The other buses need finite loads and generation and
        a positive finite ``v_nom``.
    lines : iterable of Line
        Exactly one line per non-slack bus; endpoint order is irrelevant.
    inverters : dict, optional
        Bus label -> :class:`Inverter`; any other value raises InvalidRecord.
    bases : Bases, optional
    slack_label : int
        Label of the fixed-voltage substation bus.
    v0 : float
        Slack-bus voltage in per unit, positive and finite.
    curve_specs : dict, optional
        Bus label -> control-curve description (kept verbatim, see control
        module for the schema).
    meta : dict, optional
        Free-form provenance (unit conversions applied, power factor, ...).

    Raises
    ------
    DuplicateId, Disconnected, CycleDetected, NonPositiveImpedance, InvalidRecord
    """
    buses = list(buses)
    lines = list(lines)
    inverters = dict(inverters or {})
    curve_specs = dict(curve_specs or {})

    if not _is_number(slack_label, _INTEGRAL):
        raise InvalidRecord(f"the slack label must be an integer, got {slack_label!r}")
    # per field, builtin type first: all() over a generator costs 6x more
    for b in buses:
        if not ((type(b.id) is int or _is_number(b.id, _INTEGRAL))
                and (type(b.p_c) is float or _is_number(b.p_c))
                and (type(b.q_c) is float or _is_number(b.q_c))
                and (type(b.p_g) is float or _is_number(b.p_g))
                and (type(b.v_nom) is float or _is_number(b.v_nom))):
            raise InvalidRecord(f"bus {b.id!r} needs an integer id and numeric p_c, q_c, p_g "
                                f"and v_nom, got {b.p_c!r}, {b.q_c!r}, {b.p_g!r}, {b.v_nom!r}")
    ids = [b.id for b in buses]
    if len(set(ids)) != len(ids):
        raise DuplicateId("duplicate bus ids")
    by_id = {b.id: b for b in buses}
    if slack_label not in by_id:
        raise Disconnected(f"slack bus {slack_label} not among bus records")

    slack = by_id[slack_label]
    if slack.p_c or slack.q_c or slack.p_g or slack_label in inverters:
        raise InvalidRecord(
            f"slack bus {slack_label} must carry no load, generation or inverter"
        )

    adj = {i: [] for i in ids}
    seen_pairs = set()
    for ln in lines:
        if not ((type(ln.from_bus) is int or _is_number(ln.from_bus, _INTEGRAL))
                and (type(ln.to_bus) is int or _is_number(ln.to_bus, _INTEGRAL))
                and (type(ln.r) is float or _is_number(ln.r))
                and (type(ln.x) is float or _is_number(ln.x))):
            raise InvalidRecord(f"line ({ln.from_bus!r}, {ln.to_bus!r}) needs integer ends "
                                f"and numeric r and x, got {ln.r!r}, {ln.x!r}")
        if ln.from_bus not in by_id or ln.to_bus not in by_id:
            raise Disconnected(
                f"line ({ln.from_bus}, {ln.to_bus}) references an unknown bus"
            )
        if not (0 < ln.r < np.inf and 0 < ln.x < np.inf):
            raise NonPositiveImpedance(
                f"line ({ln.from_bus}, {ln.to_bus}) has r={ln.r}, x={ln.x}; "
                "both must be positive and finite"
            )
        pair = frozenset((ln.from_bus, ln.to_bus))
        if len(pair) == 1 or pair in seen_pairs:
            raise CycleDetected(f"repeated or self line ({ln.from_bus}, {ln.to_bus})")
        seen_pairs.add(pair)
        adj[ln.from_bus].append((ln.to_bus, ln))
        adj[ln.to_bus].append((ln.from_bus, ln))

    nonslack = sorted(i for i in ids if i != slack_label)
    n = len(nonslack)
    if len(lines) > n:
        raise CycleDetected(
            f"{n} non-slack buses admit at most {n} lines, got {len(lines)}"
        )

    # one depth-first walk from the slack orients each line, and its pops
    # are the preorder: a bus pushes its children in descending label
    # order, so they pop in position order.  Depth sums grow as the walk
    # goes; index -1 stands for the slack, whose sums are 0.
    pos = {lab: k for k, lab in enumerate(nonslack)}
    pos[slack_label] = -1
    parent = [-1] * n
    r, x = [0.0] * n, [0.0] * n
    dx, dr = [0.0] * (n + 1), [0.0] * (n + 1)
    came_in = {slack_label: None}
    order = []
    stack = [slack_label]
    while stack:
        u = stack.pop()
        p = pos[u]
        order.append(p)
        nbrs = adj[u]
        if len(nbrs) > 1 + (p >= 0):  # two children or more, besides the line in
            nbrs.sort(reverse=True)  # by label: distinct, so lines are never compared
        for w, ln in nbrs:
            if ln is came_in[u]:
                continue
            if w in came_in:
                raise CycleDetected(
                    f"cycle through line ({ln.from_bus}, {ln.to_bus})"
                )
            came_in[w] = ln
            k = pos[w]
            parent[k] = p
            r[k] = rk = float(ln.r)  # a numpy float32 would sum in single precision
            x[k] = xk = float(ln.x)
            dx[k] = xk + dx[p]
            dr[k] = rk + dr[p]
            stack.append(w)
    if len(came_in) != len(ids):
        unreached = set(ids) - came_in.keys()
        # off-tree lines join unreached buses only: n lines leave them a cycle
        if len(lines) == n:
            raise CycleDetected(
                f"buses {sorted(unreached)} form a cycle detached from the slack"
            )
        raise Disconnected(
            f"buses {sorted(unreached)} unreachable from slack {slack_label}"
        )
    order = order[1:]  # the slack popped first
    size = [1] * (n + 1)  # size[-1]: the slack's
    for k in reversed(order):  # children before parents
        size[parent[k]] += size[k]
    at = np.empty(n, dtype=int)
    at[order] = np.arange(n)
    end = np.arange(n) + np.take(size, order)

    for lab in list(inverters) + list(curve_specs):
        if lab not in by_id or lab == slack_label:
            raise InvalidRecord(f"inverter/curve attached to invalid bus {lab}")
    for lab, inv in inverters.items():
        if not isinstance(inv, Inverter):
            raise InvalidRecord(f"the inverter at bus {lab} must be an Inverter, got {inv!r}")

    p_c = np.array([by_id[lab].p_c for lab in nonslack])
    q_c = np.array([by_id[lab].q_c for lab in nonslack])
    p_g = np.array([by_id[lab].p_g for lab in nonslack])
    v_nom = np.array([by_id[lab].v_nom for lab in nonslack])
    bad = ~np.isfinite((p_c, q_c, p_g, v_nom)).all(axis=0) | ~(v_nom > 0.0)
    if bad.any():
        b = by_id[nonslack[int(np.argmax(bad))]]
        raise InvalidRecord(f"bus {b.id} has p_c={b.p_c}, q_c={b.q_c}, p_g={b.p_g}, "
                            f"v_nom={b.v_nom}: all must be finite, and v_nom positive")
    v0 = _real("v0", v0, "positive")

    return Feeder(
        slack_label=slack_label,
        labels=tuple(nonslack),
        parent=_readonly(parent, int),
        r=_readonly(r),
        x=_readonly(x),
        p_c=_readonly(p_c),
        q_c=_readonly(q_c),
        p_g=_readonly(p_g),
        v_nom=_readonly(v_nom),
        v0=v0,
        inverters=MappingProxyType({pos[lab]: inv for lab, inv in inverters.items()}),
        curve_specs=MappingProxyType(
            {pos[lab]: dict(spec) for lab, spec in curve_specs.items()}
        ),
        preorder=(_readonly(order, int), _readonly(at, int), _readonly(end, int)),
        depth=_readonly((dx[:n], dr[:n])),
        bases=bases,
        meta=MappingProxyType(dict(meta or {})),
    )


def sensitivity_matrices(feeder):
    """The linearized model of ``feeder``, in O(n) time and memory.

    ``X[i, j]`` sums line reactances over the common root path of buses i
    and j (likewise R with resistances).  ``vtilde`` collects the effect of
    the fixed injections, ``v0 - R net_p - X q_c``, and is computed as the
    path sums of each line's impedance times its subtree's load.  The
    dense X and R are built only when first read.
    """
    loads = feeder.subtree_sum(np.array((feeder.net_p, feeder.q_c)))
    rp, xq = feeder.path_sum(np.array((feeder.r, feeder.x)) * loads)
    return SensitivityMatrices(vtilde=_readonly(feeder.v0 - rp - xq), feeder=feeder)


def explicit_inverse_x(feeder):
    """Closed-form inverse of the reactance matrix.

    The inverse is the weighted Laplacian of the tree with reciprocal line
    reactances, plus ``1/x`` on the diagonal entry of each bus adjacent to
    the slack.  Subtrees hanging off the slack decouple, so a slack of
    degree greater than one simply yields a block-diagonal result in the
    same index space.
    """
    w = 1.0 / feeder.x
    k = np.flatnonzero(feeder.parent >= 0)
    p = feeder.parent[k]
    out = np.diag(w)
    np.add.at(out, (p, p), w[k])
    out[k, p] = out[p, k] = -w[k]
    return out


def _deviation_terms(feeder, dev):
    """The grounded-Laplacian quadratic ``dev^T X^{-1} dev`` in O(n), split
    into ``(slack_term, line_term)``: ``dev_k^2 / x_k`` summed over the
    buses adjacent to the slack, and ``(dev_k - dev_parent)^2 / x_k`` over
    the internal lines."""
    root = feeder.parent < 0
    k = np.flatnonzero(~root)
    slack_term = np.sum(dev[root] ** 2 / feeder.x[root])
    line_term = np.sum((dev[k] - dev[feeder.parent[k]]) ** 2 / feeder.x[k])
    return float(slack_term), float(line_term)


def voltage_deviation_form(feeder, q, mats=None):
    """Split the voltage-deviation quadratic into root and neighbor terms.

    Returns ``(root_term, neighbor_term)`` where ``root_term`` is
    ``(v_1 - v_nom)^2 / x`` for the single bus adjacent to the slack and
    ``neighbor_term`` sums ``(v_i - v_j)^2 / x_ij`` over internal lines.
    Half their sum equals ``0.5 (v - v_nom)^T X^{-1} (v - v_nom)``.

    Raises ``RootDegreeNotOne`` when the slack has several children.
    """
    mats = sensitivity_matrices(feeder) if mats is None else _model(mats, feeder)
    degree = int(np.count_nonzero(feeder.parent < 0))
    if degree != 1:
        raise RootDegreeNotOne(
            f"slack bus has degree {degree}; the two-part "
            "decomposition requires degree one"
        )
    return _deviation_terms(feeder, mats.voltage(_vector("q", q, feeder.n)) - feeder.v_nom)
