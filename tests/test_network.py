import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import voltvar as vv
from voltvar.network import Bus, Line

from helpers import (
    NUMBERS,
    brute_force_sensitivities,
    package_outcome,
    random_feeder,
    random_tree_records,
    two_bus_feeder,
)


def test_smallest_tree():
    f = two_bus_feeder()
    assert f.n == 1
    assert f.labels == (1,)
    assert np.flatnonzero(f.descendant_matrix[0]).tolist() == [0]
    assert f.parent[0] == -1


def test_orientation_is_derived_not_given():
    # path 0-1-2 given with the second record reversed
    f = vv.build_feeder(
        [Bus(0), Bus(1), Bus(2)],
        [Line(0, 1, r=0.1, x=0.2), Line(2, 1, r=0.3, x=0.4)],
        slack_label=0,
    )
    k1, k2 = f.position[1], f.position[2]
    assert f.parent[k1] == -1
    assert f.parent[k2] == k1
    assert f.x[k2] == 0.4


def test_duplicate_id_rejected():
    with pytest.raises(vv.DuplicateId):
        vv.build_feeder([Bus(0), Bus(1), Bus(1)], [Line(0, 1, 0.1, 0.1)])


def test_cycle_rejected():
    with pytest.raises(vv.CycleDetected):
        vv.build_feeder(
            [Bus(0), Bus(1), Bus(2)],
            [Line(0, 1, 0.1, 0.1), Line(1, 2, 0.1, 0.1), Line(2, 0, 0.1, 0.1)],
        )


def test_detached_cycle_rejected():
    with pytest.raises(vv.CycleDetected):
        vv.build_feeder(
            [Bus(0), Bus(1), Bus(2), Bus(3)],
            [Line(1, 2, 0.1, 0.1), Line(2, 3, 0.1, 0.1), Line(3, 1, 0.1, 0.1)],
        )


def test_disconnected_rejected():
    with pytest.raises(vv.Disconnected):
        vv.build_feeder(
            [Bus(0), Bus(1), Bus(2)],
            [Line(0, 1, 0.1, 0.1)],
        )


@pytest.mark.parametrize("buses, lines, kw, error", [
    ([Bus(1), Bus(2)], [Line(1, 2, 0.1, 0.1)], {}, vv.Disconnected),
    ([Bus(0), Bus(1)], [Line(0, 7, 0.1, 0.1)], {}, vv.Disconnected),
    ([Bus(0), Bus(1)], [Line(1, 1, 0.1, 0.1)], {}, vv.CycleDetected),
    ([Bus(i) for i in range(5)],
     [Line(0, 1, 0.1, 0.1), Line(1, 2, 0.1, 0.1), Line(2, 3, 0.1, 0.1), Line(3, 1, 0.1, 0.1)],
     {}, vv.CycleDetected),
    ([Bus(0), Bus(1)], [Line(0, 1, 0.1, 0.1)],
     {"curve_specs": {5: {"type": "droop", "alpha": 1.0}}}, vv.InvalidRecord),
    # non-numeric records once raised a bare TypeError or ValueError, and a
    # float label was kept
    ([Bus(0), Bus(1, p_c="0.5")], [Line(0, 1, 0.1, 0.5)], {}, vv.InvalidRecord),
    ([Bus(0), Bus(1, v_nom=None)], [Line(0, 1, 0.1, 0.5)], {}, vv.InvalidRecord),
    ([Bus(0, q_c=[]), Bus(1)], [Line(0, 1, 0.1, 0.5)], {}, vv.InvalidRecord),
    ([Bus(0), Bus(1)], [Line(0, 1, "0.1", 0.5)], {}, vv.InvalidRecord),
    ([Bus(0), Bus(1)], [Line(0, 1, 0.1, None)], {}, vv.InvalidRecord),
    ([Bus(0), Bus("a")], [Line(0, "a", 0.1, 0.5)], {}, vv.InvalidRecord),
    ([Bus(0), Bus(1.5)], [Line(0, 1.5, 0.1, 0.5)], {}, vv.InvalidRecord),
    ([Bus(0), Bus(1)], [Line(0, [1], 0.1, 0.5)], {}, vv.InvalidRecord),
    ([Bus(0), Bus(1)], [Line(0, 1, 0.1, 0.5)], {"slack_label": [0]}, vv.InvalidRecord),
    ([Bus(0), Bus(1)], [Line(0, 1, 0.1, 0.5)], {"v0": "1.0"}, vv.InvalidRecord),
    # a bool is no number: each once built, with 1.0 or bus 1 in its place
    ([Bus(0), Bus(1, p_c=True)], [Line(0, 1, 0.1, 0.5)], {}, vv.InvalidRecord),
    ([Bus(0), Bus(1, v_nom=True)], [Line(0, 1, 0.1, 0.5)], {}, vv.InvalidRecord),
    ([Bus(0), Bus(1)], [Line(0, 1, True, 0.5)], {}, vv.InvalidRecord),
    ([Bus(0), Bus(True)], [Line(0, True, 0.1, 0.5)], {}, vv.InvalidRecord),
    ([Bus(0), Bus(1)], [Line(0, 1, 0.1, 0.5)], {"slack_label": True}, vv.InvalidRecord),
], ids=["no-slack", "unknown-bus", "self-line", "cycle-from-slack", "curve-on-unknown-bus",
        "string-load", "none-v_nom", "list-slack-load", "string-r", "none-x", "string-id",
        "float-id", "list-end", "list-slack", "string-v0", "bool-load", "bool-v_nom", "bool-r",
        "bool-id", "bool-slack"])
def test_malformed_records_rejected(buses, lines, kw, error):
    with pytest.raises(error):
        vv.build_feeder(buses, lines, **kw)


def test_nonpositive_impedance_rejected():
    with pytest.raises(vv.NonPositiveImpedance):
        vv.build_feeder([Bus(0), Bus(1)], [Line(0, 1, 0.1, 0.0)])
    with pytest.raises(vv.NonPositiveImpedance):
        vv.build_feeder([Bus(0), Bus(1)], [Line(0, 1, -0.1, 0.5)])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nonfinite_impedance_rejected(bad):
    for r, x in ((bad, 0.5), (0.1, bad)):
        with pytest.raises(vv.NonPositiveImpedance):
            vv.build_feeder([Bus(0), Bus(1)], [Line(0, 1, r, x)])


@pytest.mark.parametrize("field, bad", [
    ("p_c", math.inf), ("q_c", math.nan), ("q_c", -math.inf), ("p_g", math.nan),
    ("v_nom", math.nan), ("v_nom", math.inf), ("v_nom", 0.0), ("v_nom", -1.0),
])
def test_bad_bus_values_rejected(field, bad):
    with pytest.raises(vv.InvalidRecord, match=f"{field}={bad}"):
        vv.build_feeder([Bus(0), Bus(1, **{field: bad})], [Line(0, 1, 0.1, 0.5)])


@pytest.mark.parametrize("v0", [math.nan, math.inf, 0.0, -1.05])
def test_bad_slack_voltage_rejected(v0):
    with pytest.raises(vv.InvalidRecord, match="v0"):
        two_bus_feeder(v0=v0)


def test_nan_load_fails_at_the_boundary():
    # a nan load once reached the closed loop, whose nan residuals never
    # compare below tol: the float kernel reported converged at step 1
    with pytest.raises(vv.InvalidRecord, match="p_c=nan"):
        two_bus_feeder(p_c=math.nan)


@pytest.mark.parametrize("kw", [dict(v_kv=0.0, s_kva=1000.0), dict(v_kv=12.35, s_kva=0.0),
                                dict(v_kv="12.35", s_kva=1000.0),
                                dict(v_kv=12.35, s_kva=1000.0, z_ohm=math.nan)])
def test_bad_bases_rejected(kw):
    # a zero base once divided by zero while deriving z_ohm
    with pytest.raises(vv.InvalidRecord, match=r"^(v_kv|s_kva|z_ohm) must be a"):
        vv.Bases(**kw)


def test_bases_derive_z_ohm():
    assert vv.Bases(v_kv=12.35, s_kva=1000.0).z_ohm == 152.5225
    for v_kv in (1e200, 1e-200):  # v^2/s overflows to inf, or underflows to 0
        with pytest.raises(vv.InvalidRecord, match="z_ohm"):
            vv.Bases(v_kv=v_kv, s_kva=1000.0)


def test_inverter_must_be_an_inverter():
    # a tuple once built, and sensitivity_matrices raised a bare AttributeError
    with pytest.raises(vv.InvalidRecord, match="bus 1"):
        vv.build_feeder([Bus(0), Bus(1)], [Line(0, 1, 0.1, 0.5)], inverters={1: (1.0, 0.5)})
    assert vv.Inverter is vv.control.Inverter is vv.network.Inverter


# the fields of build_feeder's records, and the other arguments
RECORD_FIELDS = {"bus": ("id", "v_nom", "p_c", "q_c", "p_g"),
                 "line": ("from_bus", "to_bus", "r", "x"), "inverter": ("s", "p", "rho")}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_records_raise_only_package_errors(sce42, data):
    # sce42's records with up to three fields, v0 or the slack label
    # perturbed either raise an exception of the package or build a finite
    # feeder
    labels = (sce42.slack_label, *sce42.labels)
    buses = [Bus(sce42.slack_label)] + [
        Bus(lab, float(sce42.v_nom[k]), float(sce42.p_c[k]), float(sce42.q_c[k]),
            float(sce42.p_g[k])) for k, lab in enumerate(sce42.labels)]
    lines = [Line(labels[p + 1], lab, float(sce42.r[k]), float(sce42.x[k]))
             for k, (lab, p) in enumerate(zip(sce42.labels, sce42.parent))]
    inverters = {sce42.labels[k]: inv for k, inv in sce42.inverters.items()}
    kw = dict(slack_label=sce42.slack_label, v0=sce42.v0)
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        where = data.draw(st.sampled_from(("bus", "line", "inverter", "v0", "slack_label")))
        value = data.draw(st.sampled_from(NUMBERS + (None, True, [])), label="value")
        if where in kw:
            kw[where] = value
            continue
        field = data.draw(st.sampled_from(RECORD_FIELDS[where]))
        if where == "inverter":
            lab = data.draw(st.sampled_from(sorted(inverters)))
            inverter = package_outcome(
                lambda: dataclasses.replace(inverters[lab], **{field: value}))
            if inverter is None:  # the record itself rejects the value
                continue
            inverters[lab] = inverter
        else:
            recs = buses if where == "bus" else lines
            i = data.draw(st.integers(0, len(recs) - 1))
            recs[i] = dataclasses.replace(recs[i], **{field: value})
    feeder = package_outcome(lambda: vv.build_feeder(buses, lines, inverters=inverters, **kw))
    if feeder is not None:
        for a in (feeder.r, feeder.x, feeder.p_c, feeder.q_c, feeder.p_g, feeder.v_nom,
                  *vv.limits_arrays(feeder)):
            assert np.isfinite(a).all()
        assert math.isfinite(feeder.v0)


def test_slack_must_be_passive():
    with pytest.raises(vv.InvalidRecord):
        vv.build_feeder([Bus(0, p_c=1.0), Bus(1)], [Line(0, 1, 0.1, 0.1)])


def test_sensitivities_single_line():
    mats = vv.sensitivity_matrices(two_bus_feeder(r=0.1, x=0.5))
    np.testing.assert_allclose(mats.X, [[0.5]], rtol=1e-15)
    np.testing.assert_allclose(mats.R, [[0.1]], rtol=1e-15)


def test_sensitivities_path():
    x1, x2 = 0.3, 0.7
    f = vv.build_feeder(
        [Bus(0), Bus(1), Bus(2)],
        [Line(0, 1, r=0.1, x=x1), Line(1, 2, r=0.1, x=x2)],
    )
    mats = vv.sensitivity_matrices(f)
    np.testing.assert_allclose(mats.X, [[x1, x1], [x1, x1 + x2]], rtol=1e-15)


def test_sce42_matches_path_enumeration_oracle(sce42, sce42_mats):
    R, X = brute_force_sensitivities(sce42)
    np.testing.assert_allclose(sce42_mats.X, X, rtol=0, atol=1e-15)
    np.testing.assert_allclose(sce42_mats.R, R, rtol=0, atol=1e-15)


def test_positive_definite_on_random_trees():
    rng = np.random.default_rng(7)
    for _ in range(30):
        f = random_feeder(rng, int(rng.integers(2, 40)))
        mats = vv.sensitivity_matrices(f)
        assert np.linalg.eigvalsh(mats.X).min() > 0
        assert np.linalg.eigvalsh(mats.R).min() > 0


def test_block_structure_for_forked_root():
    # two subtrees below the slack decouple
    f = vv.build_feeder(
        [Bus(i) for i in range(5)],
        [
            Line(0, 1, 0.1, 0.2),
            Line(1, 2, 0.1, 0.2),
            Line(0, 3, 0.1, 0.2),
            Line(3, 4, 0.1, 0.2),
        ],
    )
    mats = vv.sensitivity_matrices(f)
    left = [f.position[1], f.position[2]]
    right = [f.position[3], f.position[4]]
    assert np.all(mats.X[np.ix_(left, right)] == 0)
    assert np.all(mats.X[np.ix_(right, left)] == 0)
    assert np.linalg.eigvalsh(mats.X).min() > 0


def test_entry_bounds():
    rng = np.random.default_rng(11)
    f = random_feeder(rng, 25)
    X = vv.sensitivity_matrices(f).X
    assert np.all(X >= 0)
    assert np.all(np.diag(X)[:, None] >= X - 1e-15)


def test_vtilde_of_quiet_feeder_is_v0():
    rng = np.random.default_rng(3)
    f = random_feeder(rng, 12)
    mats = vv.sensitivity_matrices(f)
    np.testing.assert_array_equal(mats.vtilde, np.full(f.n, f.v0))


def test_explicit_inverse_path_formula():
    x1, x2 = 0.3, 0.7
    f = vv.build_feeder(
        [Bus(0), Bus(1), Bus(2)],
        [Line(0, 1, r=0.1, x=x1), Line(1, 2, r=0.1, x=x2)],
    )
    inv = vv.explicit_inverse_x(f)
    expect = np.array([[1 / x1 + 1 / x2, -1 / x2], [-1 / x2, 1 / x2]])
    np.testing.assert_allclose(inv, expect, rtol=1e-15)


def test_explicit_inverse_single_line():
    inv = vv.explicit_inverse_x(two_bus_feeder(x=0.5))
    np.testing.assert_allclose(inv, [[2.0]], rtol=1e-15)


def test_explicit_inverse_matches_dense_inversion():
    rng = np.random.default_rng(5)
    f = random_feeder(rng, 20, degree_one_root=True)
    X = vv.sensitivity_matrices(f).X
    np.testing.assert_allclose(vv.explicit_inverse_x(f), np.linalg.inv(X), atol=1e-8)


def test_explicit_inverse_handles_forked_root():
    rng = np.random.default_rng(9)
    f = random_feeder(rng, 15, degree_one_root=False)
    X = vv.sensitivity_matrices(f).X
    resid = np.abs(X @ vv.explicit_inverse_x(f) - np.eye(f.n)).sum(axis=1).max()
    assert resid < 1e-8


def test_deviation_form_zero_at_nominal():
    f = two_bus_feeder(v0=1.0)
    root, neighbors = vv.voltage_deviation_form(f, np.zeros(1))
    assert root == 0.0 and neighbors == 0.0


def test_deviation_form_single_line_arithmetic():
    f = two_bus_feeder(r=0.1, x=0.5, v0=1.05)
    root, neighbors = vv.voltage_deviation_form(f, np.array([-0.02]))  # v1 = 1.04
    assert root == pytest.approx(0.04**2 / 0.5, rel=1e-12)  # 0.0032
    assert neighbors == 0.0
    assert 0.5 * (root + neighbors) == pytest.approx(0.0016, rel=1e-12)


def test_deviation_form_equals_quadratic_form(sce42, sce42_mats):
    rng = np.random.default_rng(17)
    q_min, q_max = vv.limits_arrays(sce42)
    inv = vv.explicit_inverse_x(sce42)
    for _ in range(5):
        q = rng.uniform(q_min, q_max)
        root, neighbors = vv.voltage_deviation_form(sce42, q, mats=sce42_mats)
        dev = sce42_mats.X @ q + sce42_mats.vtilde - sce42.v_nom
        quad = 0.5 * dev @ (inv @ dev)
        assert 0.5 * (root + neighbors) == pytest.approx(quad, rel=1e-10)


def test_deviation_form_rejects_wrong_shape():
    with pytest.raises(vv.DimensionMismatch):
        vv.voltage_deviation_form(two_bus_feeder(), np.zeros(2))


def test_deviation_form_requires_single_root_child():
    f = vv.build_feeder(
        [Bus(0), Bus(1), Bus(2)],
        [Line(0, 1, 0.1, 0.2), Line(0, 2, 0.1, 0.2)],
    )
    with pytest.raises(vv.RootDegreeNotOne):
        vv.voltage_deviation_form(f, np.zeros(2))


def test_feeder_arrays_are_readonly(sce42):
    with pytest.raises(ValueError):
        sce42.x[0] = 1.0


# ---------------------------------------------------------------------------
# Property tests of the preorder-interval tree layer against oracles that do
# not use it: the dense descendant matrix and path enumeration.

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
FORKED_ROOT = vv.build_feeder(
    [Bus(i) for i in range(6)],
    [Line(0, 1, 0.1, 0.2), Line(0, 2, 0.3, 0.1), Line(2, 3, 0.2, 0.2),
     Line(0, 4, 0.1, 0.4), Line(2, 5, 0.5, 0.3)],
)


@st.composite
def trees(draw):
    """A random recursive tree on up to 40 buses; the slack may fork.  The
    line records come shuffled with random ends first, and the labels,
    negative ones included, are not in tree order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    _, tree = random_tree_records(rng, n, degree_one_root=draw(st.booleans()))
    label = (rng.choice(4 * (n + 1), n + 1, replace=False) - n).tolist()
    lines = []
    for i in rng.permutation(n):
        ends = label[tree[i].from_bus], label[tree[i].to_bus]
        lines.append(Line(*ends[::rng.choice((1, -1))], tree[i].r, tree[i].x))
    return vv.build_feeder([Bus(lab) for lab in label], lines, slack_label=label[0])


class TestTreePrimitives:
    @PROPERTY
    @given(f=trees())
    @example(f=FORKED_ROOT)
    def test_preorder_matches_recursive_walk(self, f):
        # the oracle recurses over each bus's children in position order
        # and counts a subtree by walking every bus's ancestors
        def walk(k):
            return [k] + [b for c in np.flatnonzero(f.parent == k) for b in walk(c)]

        order, pos, end = f.preorder
        np.testing.assert_array_equal(
            order, [b for c in np.flatnonzero(f.parent == -1) for b in walk(c)])
        np.testing.assert_array_equal(order[pos], np.arange(f.n))
        size = np.zeros(f.n, dtype=int)
        for k in range(f.n):
            while k >= 0:
                size[k] += 1
                k = f.parent[k]
        np.testing.assert_array_equal(end, np.arange(f.n) + size[order])
        # the depth sums add each root path's lines from the root down
        depth = np.zeros((2, f.n))
        for k in range(f.n):
            path = [k]
            while f.parent[path[-1]] >= 0:
                path.append(f.parent[path[-1]])
            for j in reversed(path):
                depth[:, k] += (f.x[j], f.r[j])
        np.testing.assert_array_equal(f.depth, depth)
        for a in (*f.preorder, f.depth):
            assert not a.flags.writeable

    @PROPERTY
    @given(f=trees(), lead=st.sampled_from([(), (2,), (3, 2)]), seed=st.integers(0, 2**32 - 1))
    @example(f=FORKED_ROOT, lead=(2,), seed=0)
    def test_sums_match_descendant_matrix(self, f, lead, seed):
        y = np.random.default_rng(seed).uniform(-1.0, 1.0, lead + (f.n,))
        D = f.descendant_matrix
        # differences of prefix sums: error relative to the row's l1 norm
        scale = 1e-15 * np.abs(y).sum(axis=-1, keepdims=True)
        assert f.subtree_sum(y).shape == y.shape == f.path_sum(y).shape
        assert np.all(np.abs(f.subtree_sum(y) - y @ D.T) <= scale)
        assert np.all(np.abs(f.path_sum(y) - y @ D) <= scale)

    @PROPERTY
    @given(f=trees(), k=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
    @example(f=FORKED_ROOT, k=3, seed=0)
    def test_stacked_rows_equal_single_rows(self, f, k, seed):
        y = np.random.default_rng(seed).uniform(-1.0, 1.0, (k, f.n))
        for tree_sum in (f.path_sum, f.subtree_sum):
            expect = np.array([tree_sum(row) for row in y]).reshape(k, f.n)
            np.testing.assert_array_equal(tree_sum(y), expect)
            np.testing.assert_array_equal(tree_sum(y.reshape(1, k, f.n)), expect[None])

    @PROPERTY
    @given(f=trees())
    @example(f=FORKED_ROOT)
    def test_sensitivities_match_path_enumeration(self, f):
        mats = vv.sensitivity_matrices(f)
        R, X = brute_force_sensitivities(f)
        np.testing.assert_allclose(mats.X, X, rtol=1e-14, atol=0)
        np.testing.assert_allclose(mats.R, R, rtol=1e-14, atol=0)

    @PROPERTY
    @given(f=trees())
    @example(f=FORKED_ROOT)
    def test_explicit_inverse_inverts_x(self, f):
        X = vv.sensitivity_matrices(f).X
        resid = np.abs(vv.explicit_inverse_x(f) @ X - np.eye(f.n)).sum(axis=1).max()
        assert resid < 1e-8

    @PROPERTY
    @given(f=trees(), seed=st.integers(0, 2**32 - 1))
    @example(f=FORKED_ROOT, seed=0)
    def test_linear_model_matches_path_enumeration(self, f, seed):
        rng = np.random.default_rng(seed)
        f = with_loads(f, rng)
        mats = vv.sensitivity_matrices(f)
        R, X = brute_force_sensitivities(f)
        vtilde = f.v0 + R @ (f.injected_real_power() - f.p_c) - X @ f.q_c
        q = rng.uniform(-1.0, 1.0, (2, f.n))
        # differences of prefix sums: error relative to the l1 norm of |X| |q|
        scale = 1e-14 * (np.abs(q) @ X).sum(axis=-1, keepdims=True)
        assert np.all(np.abs(mats.x_times(q) - q @ X) <= scale)
        assert np.all(np.abs(mats.voltage(q[0]) - (X @ q[0] + vtilde))
                      <= scale[0] + 1e-14 * np.abs(vtilde))
        with pytest.raises(vv.DimensionMismatch):
            mats.x_times(np.zeros(f.n + 1))

    @PROPERTY
    @given(f=trees(), seed=st.integers(0, 2**32 - 1))
    @example(f=FORKED_ROOT, seed=0)
    def test_vtilde_matches_dense_model(self, f, seed):
        f = with_loads(f, np.random.default_rng(seed))
        mats = vv.sensitivity_matrices(f)
        expect = f.v0 - mats.R @ f.net_p - mats.X @ f.q_c
        # relative to the largest term: v0 or a bus's load drop
        scale = f.v0 + (mats.R @ np.abs(f.net_p) + mats.X @ np.abs(f.q_c)).max()
        assert np.all(np.abs(mats.vtilde - expect) <= 1e-15 * scale)

    @PROPERTY
    @given(f=trees(), seed=st.integers(0, 2**32 - 1))
    @example(f=FORKED_ROOT, seed=0)
    def test_block_equals_dense_gather(self, f, seed):
        rng = np.random.default_rng(seed)
        sizes = (0, 1, int(rng.integers(0, f.n + 1)), f.n)
        acts = [rng.permutation(f.n)[:m] for m in sizes] + [np.arange(m) for m in sizes]
        mats = vv.sensitivity_matrices(f)
        blocks = []
        for act in acts:
            blocks.append(mats.block(act))
            assert mats.block(act) is blocks[-1]  # kept for a repeated act
            assert not blocks[-1].flags.writeable
        assert "X" not in mats.__dict__
        R, X = brute_force_sensitivities(f)
        for act, block in zip(acts, blocks):
            sub = np.ix_(act, act)
            np.testing.assert_array_equal(block, mats.X[sub])
            np.testing.assert_allclose(block, X[sub], rtol=1e-14, atol=0)
        with pytest.raises(vv.InvalidRecord):  # a repeated bus has no place of its own
            mats.block(np.append(acts[3], acts[3][-1]))

    @PROPERTY
    @given(f=trees(), seed=st.integers(0, 2**32 - 1))
    @example(f=FORKED_ROOT, seed=0)
    def test_tradeoff_identity_on_any_slack(self, f, seed):
        rng = np.random.default_rng(seed)
        f = with_loads(f, rng)
        mats = vv.sensitivity_matrices(f)
        act = rng.choice(f.n, size=int(rng.integers(1, f.n + 1)), replace=False)
        curves = {int(k): vv.DroopCurve(alpha=float(rng.uniform(1.0, 50.0)), deadband=0.04)
                  for k in act}
        q = rng.uniform(-0.5, 0.5, f.n)
        cost, deviation, constant = vv.objective_tradeoff(mats, curves, q)
        # the tree-Laplacian sums against the dense closed-form inverse
        x_inv = vv.explicit_inverse_x(f)
        for dev, value in ((mats.voltage(q) - f.v_nom, deviation),
                           (mats.vtilde - f.v_nom, constant)):
            assert value == pytest.approx(0.5 * dev @ x_inv @ dev, rel=1e-12, abs=1e-14)
        scale = abs(cost) + deviation + constant
        assert cost + deviation - constant == pytest.approx(
            vv.objective_f(mats, curves, q), rel=0, abs=1e-12 * scale)


def with_loads(f, rng):
    """``f`` with random loads, so that ``vtilde`` is not flat."""
    return dataclasses.replace(f, p_c=rng.uniform(0.0, 0.1, f.n), q_c=rng.uniform(0.0, 0.05, f.n))
