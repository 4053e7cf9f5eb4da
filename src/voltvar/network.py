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
        if self.z_ohm == 0.0:
            object.__setattr__(
                self, "z_ohm", (self.v_kv * 1e3) ** 2 / (self.s_kva * 1e3)
            )


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

    Construct with :func:`build_feeder`; fields are documented there.
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
    def children(self):
        """children[k] lists positions whose parent is k; roots() for the slack."""
        kids = [[] for _ in range(self.n)]
        for k, p in enumerate(self.parent):
            if p >= 0:
                kids[p].append(k)
        return tuple(tuple(c) for c in kids)

    @cached_property
    def roots(self):
        """Positions whose parent is the slack bus (its children)."""
        return tuple(int(k) for k in np.flatnonzero(self.parent == -1))

    @cached_property
    def order(self):
        """Depth-first preorder (parents before children), read-only."""
        out = []
        stack = list(reversed(self.roots))
        while stack:
            k = stack.pop()
            out.append(k)
            stack.extend(reversed(self.children[k]))
        return _readonly(out, int)

    @cached_property
    def intervals(self):
        """Preorder intervals ``(pos, end)`` of the subtrees.

        Bus k sits at ``order[pos[k]]`` and its subtree, beta(k), fills the
        preorder positions ``[pos[k], end[k])``.
        """
        pos = np.empty(self.n, dtype=int)
        pos[self.order] = np.arange(self.n)
        parent = self.parent.tolist()
        end = (pos + 1).tolist()
        for k in reversed(self.order.tolist()):  # children before parents
            p = parent[k]
            if p >= 0 and end[k] > end[p]:
                end[p] = end[k]
        return _readonly(pos, int), _readonly(end, int)

    @cached_property
    def preorder_end(self):
        """The subtree ends of ``intervals`` in preorder coordinates: the
        subtree of the bus at preorder position a fills ``[a, preorder_end[a])``."""
        return _readonly(self.intervals[1].take(self.order), int)

    @cached_property
    def preorder_lines(self):
        """Line impedances in preorder coordinates, read-only: the stacked
        ``(r, x)`` and ``z2 = r^2 + x^2``."""
        r, x = rx = np.array((self.r, self.x)).take(self.order, axis=1)
        return _readonly(rx), _readonly(r * r + x * x)

    @cached_property
    def depth(self):
        """Line impedances summed over each bus's root path, read-only:
        ``depth[0]`` sums x (the diagonal of X) and ``depth[1]`` sums r.

        Each bus adds its own line to its parent's sum, in preorder.
        """
        parent = self.parent.tolist()
        x, r = self.x.tolist(), self.r.tolist()
        dx, dr = x[:], r[:]
        for k in self.order.tolist():
            p = parent[k]
            if p >= 0:
                dx[k] += dx[p]
                dr[k] += dr[p]
        return _readonly((dx, dr))

    def subtree_sum(self, y):
        """``D @ y`` along the last axis of ``y``: each bus's subtree sum, O(n)."""
        y = np.asarray(y, dtype=float)[..., self.order]
        return _subtree_sum(y, self.preorder_end)[..., self.intervals[0]]

    def path_sum(self, y):
        """``D.T @ y`` along the last axis of ``y``: each bus's root-path sum, O(n)."""
        y = np.asarray(y, dtype=float)[..., self.order]
        return _path_sum(y, self.preorder_end)[..., self.intervals[0]]

    @cached_property
    def descendant_matrix(self):
        """D[j, k] = 1 when bus k lies in the subtree of line j (beta(j))."""
        pos, end = self.intervals
        return _readonly((pos[None, :] >= pos[:, None]) & (pos[None, :] < end[:, None]))

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
        order = feeder.order
        parent = feeder.parent.tolist()
        out = np.zeros((feeder.n, feeder.n))
        for a, (k, b) in enumerate(zip(order.tolist(), feeder.preorder_end.tolist())):
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
        A repeated bus raises :class:`InvalidRecord`.
        """
        act = np.asarray(act, dtype=int)
        memo = self.__dict__.get("_block_memo")
        if memo is not None and np.array_equal(memo[0], act):
            return memo[1]
        m = act.size
        pos = self.feeder.intervals[0].take(act)
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
            parent = self.feeder.parent.take(self.feeder.order[:a[-1] + 1])
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
        Bus label -> Inverter.
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

    pos = {lab: k for k, lab in enumerate(nonslack)}
    parent = np.full(n, -2, dtype=int)
    r = np.zeros(n)
    x = np.zeros(n)
    visited = {slack_label}
    came_in = {slack_label: None}
    stack = [slack_label]
    while stack:
        u = stack.pop()
        for w, ln in adj[u]:
            if ln is came_in[u]:
                continue
            if w in visited:
                raise CycleDetected(
                    f"cycle through line ({ln.from_bus}, {ln.to_bus})"
                )
            visited.add(w)
            came_in[w] = ln
            k = pos[w]
            parent[k] = -1 if u == slack_label else pos[u]
            r[k] = ln.r
            x[k] = ln.x
            stack.append(w)
    if len(visited) != len(ids):
        unreached = set(ids) - visited
        stray = sum(
            1 for ln in lines if ln.from_bus in unreached and ln.to_bus in unreached
        )
        if stray >= len(unreached):
            raise CycleDetected(
                f"buses {sorted(unreached)} form a cycle detached from the slack"
            )
        raise Disconnected(
            f"buses {sorted(unreached)} unreachable from slack {slack_label}"
        )

    for lab in list(inverters) + list(curve_specs):
        if lab not in by_id or lab == slack_label:
            raise InvalidRecord(f"inverter/curve attached to invalid bus {lab}")

    p_c = np.array([by_id[lab].p_c for lab in nonslack])
    q_c = np.array([by_id[lab].q_c for lab in nonslack])
    p_g = np.array([by_id[lab].p_g for lab in nonslack])
    v_nom = np.array([by_id[lab].v_nom for lab in nonslack])
    bad = ~np.isfinite((p_c, q_c, p_g, v_nom)).all(axis=0) | ~(v_nom > 0.0)
    if bad.any():
        b = by_id[nonslack[int(np.argmax(bad))]]
        raise InvalidRecord(f"bus {b.id} has p_c={b.p_c}, q_c={b.q_c}, p_g={b.p_g}, "
                            f"v_nom={b.v_nom}: all must be finite, and v_nom positive")
    v0 = float(v0)
    if not 0.0 < v0 < np.inf:
        raise InvalidRecord(f"slack voltage v0 must be positive and finite, got {v0}")
    parent.setflags(write=False)

    return Feeder(
        slack_label=slack_label,
        labels=tuple(nonslack),
        parent=parent,
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
    if mats is None:
        mats = sensitivity_matrices(feeder)
    if len(feeder.roots) != 1:
        raise RootDegreeNotOne(
            f"slack bus has degree {len(feeder.roots)}; the two-part "
            "decomposition requires degree one"
        )
    q = np.asarray(q, dtype=float)
    if q.shape != (feeder.n,):
        raise DimensionMismatch(f"expected q of shape ({feeder.n},), got {q.shape}")
    return _deviation_terms(feeder, mats.voltage(q) - feeder.v_nom)
