import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import voltvar as vv
from voltvar.control import CurveBundle

from helpers import numpy_droop_table, numpy_hinge_table, random_feeder


@pytest.fixture
def droop():
    return vv.DroopCurve(alpha=10.0, deadband=0.04)


class TestDroopEval:
    def test_inside_deadband(self, droop):
        assert droop(0.01) == 0.0
        assert droop(-0.019) == 0.0
        assert droop(0.02) == 0.0  # edge belongs to the deadband

    def test_high_voltage_absorbs(self, droop):
        assert droop(0.05) == pytest.approx(-0.3, rel=1e-15)

    def test_odd_symmetry(self, droop):
        assert droop(-0.05) == pytest.approx(0.3, rel=1e-15)
        grid = np.linspace(-0.5, 0.5, 101)
        np.testing.assert_allclose(droop(grid), -droop(-grid), atol=1e-15)

    def test_non_increasing_on_dense_grid(self, droop):
        grid = np.linspace(-0.8, 0.8, 4001)
        assert np.all(np.diff(droop(grid)) <= 1e-15)


class TestDroopInverse:
    def test_zero_maps_to_zero(self, droop):
        assert droop.inverse(0.0) == 0.0

    def test_negative_branch(self, droop):
        assert droop.inverse(-0.3) == pytest.approx(0.05, rel=1e-15)

    def test_round_trip_off_deadband(self, droop):
        for v_err in (-0.31, -0.06, 0.04, 0.27):
            assert droop.inverse(droop(v_err)) == pytest.approx(v_err, rel=1e-12)

    def test_one_sided_limits_jump_over_deadband(self, droop):
        assert droop.inverse(1e-12) <= -0.02
        assert droop.inverse(-1e-12) >= 0.02


class TestDroopCost:
    def test_zero(self, droop):
        assert droop.cost(0.0) == 0.0

    def test_closed_form_value(self, droop):
        assert droop.cost(0.5) == pytest.approx(0.0225, rel=1e-15)

    def test_quadrature_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            alpha = float(rng.uniform(0.5, 50.0))
            deadband = float(rng.uniform(0.0, 0.1))
            q = float(rng.uniform(-2.0, 2.0))
            curve = vv.DroopCurve(alpha=alpha, deadband=deadband)
            s = np.linspace(math.copysign(1e-12, q), q, 2001)
            quad = np.trapezoid(-curve.inverse(s), s)
            assert quad == pytest.approx(curve.cost(q), abs=1e-9)

    def test_convex_midpoint(self, droop):
        rng = np.random.default_rng(29)
        for _ in range(100):
            a, b = rng.uniform(-2, 2, size=2)
            lhs = droop.cost(0.5 * (a + b))
            rhs = 0.5 * (droop.cost(a) + droop.cost(b))
            assert lhs <= rhs + 1e-12

    def test_derivative_is_minus_inverse(self, droop):
        h = 1e-6
        for q in (-1.3, -0.2, 0.15, 0.9):
            num = (droop.cost(q + h) - droop.cost(q - h)) / (2 * h)
            assert num == pytest.approx(-droop.inverse(q), abs=1e-8)


class TestReactiveLimits:
    def test_no_headroom_at_full_output(self):
        inv = vv.Inverter(s=1.0, p=1.0, rho=math.pi / 2)
        assert vv.reactive_limits(inv) == (0.0, 0.0)

    def test_capacity_circle_binds(self):
        inv = vv.Inverter(s=1.0, p=0.6, rho=math.pi / 2)
        lo, hi = vv.reactive_limits(inv)
        assert hi == pytest.approx(0.8, rel=1e-12)
        assert lo == pytest.approx(-0.8, rel=1e-12)

    def test_power_factor_binds(self):
        inv = vv.Inverter(s=1.0, p=0.5, rho=math.atan(1.0))
        lo, hi = vv.reactive_limits(inv)
        assert (lo, hi) == pytest.approx((-0.5, 0.5), rel=1e-12)

    def test_missing_inverter_is_singleton(self):
        assert vv.reactive_limits(None) == (0.0, 0.0)

    def test_invalid_operating_point(self):
        with pytest.raises(vv.InvalidRecord):
            vv.Inverter(s=1.0, p=1.2)
        with pytest.raises(vv.InvalidRecord):
            vv.Inverter(s=math.inf, p=0.5)
        with pytest.raises(vv.InvalidRecord):
            vv.Inverter(s=1.0, p=0.5, rho=2.0)
        with pytest.raises(vv.InvalidRecord, match="square"):
            vv.Inverter(s=1e308, p=0.5)  # once an OverflowError in reactive_limits
        # each once a bare TypeError from comparing a string with a number
        for kw in (dict(s="1", p=0), dict(s=1.0, p=None), dict(s=1.0, p=0.5, rho="0.3")):
            with pytest.raises(vv.InvalidRecord, match="must be a finite number"):
                vv.Inverter(**kw)


class TestProjection:
    def test_feasible_is_fixed_point(self):
        q = np.array([0.1, -0.2, 0.0])
        lims = (np.full(3, -0.3), np.full(3, 0.3))
        np.testing.assert_array_equal(vv.project_box(q, *lims), q)

    def test_clamp(self):
        out = vv.project_box(np.array([1.0]), np.array([-0.3]), np.array([0.3]))
        assert out == pytest.approx([0.3])

    def test_non_expansive(self):
        rng = np.random.default_rng(31)
        lo, hi = -rng.uniform(0.1, 1, 8), rng.uniform(0.1, 1, 8)
        for _ in range(100):
            a, b = rng.normal(size=(2, 8)) * 3
            pa, pb = vv.project_box(a, lo, hi), vv.project_box(b, lo, hi)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12

    def test_inverted_box_rejected(self):
        with pytest.raises(vv.InvalidRecord):
            vv.project_box(np.zeros(2), np.array([-0.3, 0.2]), np.array([0.3, 0.1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_box_rejected(self, bad):
        # a NaN bound used to pass through np.clip into the projected q
        with pytest.raises(vv.InvalidRecord):
            vv.project_box(np.zeros(2), np.array([-0.3, bad]), np.array([0.3, 0.3]))
        with pytest.raises(vv.InvalidRecord):
            vv.project_box(np.zeros(2), np.array([-0.3, -0.3]), np.array([bad, 0.3]))


class TestLipschitzConstant:
    def test_scalar_product(self):
        curves = {0: vv.DroopCurve(alpha=3.0)}
        assert vv.lipschitz_constant(curves, np.array([[0.5]])) == pytest.approx(1.5)

    def test_scales_linearly_in_slope(self, sce42, sce42_mats):
        m1 = vv.lipschitz_constant(
            {k: vv.DroopCurve(alpha=5.0, deadband=0.04) for k in sce42.inverters},
            sce42_mats.X,
        )
        m2 = vv.lipschitz_constant(
            {k: vv.DroopCurve(alpha=15.0, deadband=0.04) for k in sce42.inverters},
            sce42_mats.X,
        )
        assert m2 / m1 == pytest.approx(3.0, rel=1e-12)

    def test_bounds_feedback_differences_on_random_feeder(self):
        rng = np.random.default_rng(37)
        f = random_feeder(rng, 15)
        mats = vv.sensitivity_matrices(f)
        curves = {
            k: vv.DroopCurve(alpha=float(rng.uniform(0.5, 4)), deadband=0.04)
            for k in range(0, 15, 3)
        }
        bundle = CurveBundle(curves)
        act = bundle.positions
        m = vv.lipschitz_constant(bundle, mats.X)
        span = rng.uniform(0.2, 1.0, f.n)
        for _ in range(200):
            qa, qb = rng.uniform(-span, span, size=(2, f.n))
            qa[np.setdiff1d(np.arange(f.n), act)] = 0.0
            qb[np.setdiff1d(np.arange(f.n), act)] = 0.0
            fa = bundle.evaluate((mats.X @ qa + mats.vtilde - f.v_nom)[act])
            fb = bundle.evaluate((mats.X @ qb + mats.vtilde - f.v_nom)[act])
            lhs = np.linalg.norm(fa - fb)
            assert lhs <= m * np.linalg.norm(qa - qb) * (1 + 1e-12) + 1e-15


class TestTableCurve:
    def points(self):
        return [[-0.5, 4.8], [-0.02, 0.0], [0.02, 0.0], [0.5, -4.8]]

    def test_matches_equivalent_droop(self):
        table = vv.TableCurve(self.points())
        droop = vv.DroopCurve(alpha=10.0, deadband=0.04)
        grid = np.linspace(-0.9, 0.9, 361)  # extrapolation included
        np.testing.assert_allclose(table(grid), droop(grid), atol=1e-13)
        qs = np.linspace(-3.0, 3.0, 41)
        np.testing.assert_allclose(table.inverse(qs), droop.inverse(qs), atol=1e-13)
        np.testing.assert_allclose(table.cost(qs), droop.cost(qs), atol=1e-13)
        assert table.deadband_edges == pytest.approx((-0.02, 0.02))
        assert table.alpha_bar == pytest.approx(10.0)

    def test_zero_convention(self):
        table = vv.TableCurve(self.points())
        assert table.inverse(0.0) == 0.0

    def test_rejects_increasing_output(self):
        with pytest.raises(vv.InvalidRecord):
            vv.TableCurve([[-0.1, -1.0], [0.1, 1.0]])
        # a rise of 5e-15 is past the 1e-15 tolerance
        with pytest.raises(vv.InvalidRecord, match="non-increasing"):
            vv.TableCurve([[-0.1, 1.0], [0.0, 0.0], [0.05, 5e-15], [0.1, -1.0]])

    def test_rejects_offset_plateau(self):
        with pytest.raises(vv.InvalidRecord):
            vv.TableCurve([[-0.2, 3.0], [-0.1, 1.0], [0.1, 1.0], [0.2, 0.5]])

    def test_rejects_flat_ends(self):
        with pytest.raises(vv.InvalidRecord):
            vv.TableCurve([[-0.1, 0.0], [0.1, 0.0]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_points(self, bad):
        for v, u in ((bad, 1.0), (-0.5, bad)):
            with pytest.raises(vv.InvalidRecord):
                vv.TableCurve([[v, u], [0.0, 0.0], [0.5, -1.0]])

    @pytest.mark.parametrize("points", [
        [[0.0, 0.0]],
        [[-0.1, 1.0], [-0.1, 0.5], [0.1, -1.0]],
        [[-0.1, 1.0], [0.1, -0.5]],
        [[0.1, 0.0], [0.2, -1.0]],
        [[-0.3, 1.0], [-0.1, 0.0]],
        # outputs of one sign, small enough to pass the 1e-12 test at zero
        [[-0.3, 1e-13], [0.1, 5e-15]],
        [[-0.1, -5e-15], [0.3, -1e-13]],
        # finite points whose differences overflow: slope -inf / inf = nan
        [[-1e308, 1e308], [1e308, -1e308]],
    ], ids=["one-point", "repeated-v_err", "nonzero-at-zero", "right-of-zero", "left-of-zero",
            "tiny-all-positive", "tiny-all-negative", "overflowing-slope"])
    def test_rejects_degenerate_points(self, points):
        with pytest.raises(vv.InvalidRecord):
            vv.TableCurve(points)

    def test_rejects_malformed_points(self):
        with pytest.raises(vv.InvalidRecord):
            vv.TableCurve([[-0.5, 1.0], [0.0], [0.5, -1.0]])
        with pytest.raises(vv.InvalidRecord):
            vv.TableCurve([[-0.5, "one"], [0.5, -1.0]])
        with pytest.raises(vv.InvalidRecord, match="boolean"):  # once read as 0 and 1
            vv.TableCurve([(-1.0, 0.5), (False, 0.0), (True, -0.5)])
        vv.TableCurve([("-1", "0.5"), ("0", 0), (1, -0.5)])  # numeric strings read, as in documents


@pytest.mark.parametrize(
    "alpha, deadband",
    [(0.0, 0.04), (-1.0, 0.04), (math.nan, 0.04), (math.inf, 0.04),
     (10.0, -0.01), (10.0, math.nan), (10.0, math.inf),
     ("5", 0.04), (10.0, "0.04")],  # strings once raised a bare TypeError
)
def test_droop_rejects_bad_parameters(alpha, deadband):
    with pytest.raises(vv.InvalidRecord):
        vv.DroopCurve(alpha=alpha, deadband=deadband)


def test_curve_from_spec_roundtrip():
    spec = {"type": "droop", "alpha": 7.0, "deadband": 0.02}
    curve = vv.curve_from_spec(spec)
    assert isinstance(curve, vv.DroopCurve)
    assert (curve.alpha, curve.deadband) == (7.0, 0.02)
    override = vv.curve_from_spec(spec, alpha=9.0)
    assert (override.alpha, override.deadband) == (9.0, 0.02)
    table = vv.curve_from_spec({"type": "table", "points": [[-0.1, 1.0], [0.0, 0.0], [0.1, -1.0]]})
    assert isinstance(table, vv.TableCurve)
    with pytest.raises(vv.InvalidRecord):
        vv.curve_from_spec({"type": "spline"})


@pytest.mark.parametrize(
    "spec",
    [
        {"type": "droop", "alpha": "nan"},
        {"type": "droop", "alpha": "inf", "deadband": 0.04},
        {"type": "droop", "alpha": 10.0, "deadband": "nan"},
        {"type": "droop", "alpha": "ten"},
        {"type": "droop", "deadband": 0.04},
        {"type": "table"},
        {"type": "table", "points": [[-0.1, "nan"], [0.0, 0.0], [0.1, -1.0]]},
        {"type": "table", "points": [[-1.0, 0.5], [False, 0.0], [True, -0.5]]},
        {"type": "droop", "alpha": True},
        # not a mapping at all
        "droop",
        ["type", "droop"],
        None,
    ],
)
def test_curve_from_spec_rejects_bad_input(spec):
    with pytest.raises(vv.InvalidRecord):
        vv.curve_from_spec(spec)


@pytest.mark.parametrize("override", [{"alpha": 10.0}, {"deadband": 0.02}])
def test_table_spec_rejects_droop_overrides(override):
    spec = {"type": "table", "points": [[-0.1, 1.0], [0.0, 0.0], [0.1, -1.0]]}
    with pytest.raises(vv.InvalidRecord):
        vv.curve_from_spec(spec, **override)


def test_inverter_without_curve_or_alpha_is_invalid_record(sce42):
    doc = vv.feeder_to_dict(sce42)
    del doc["inverters"][0]["curve"]
    feeder = vv.load_feeder(doc)
    with pytest.raises(vv.InvalidRecord):
        vv.ControllerConfig.from_feeder(feeder, "d1")
    assert 0 in vv.ControllerConfig.from_feeder(feeder, "d1", alpha=10.0).curves


def test_feeder_curve_without_alpha_is_invalid_record(sce42):
    doc = vv.feeder_to_dict(sce42)
    doc["inverters"][0]["curve"] = {"type": "droop", "deadband": 0.04}
    feeder = vv.load_feeder(doc)
    with pytest.raises(vv.InvalidRecord):
        vv.ControllerConfig.from_feeder(feeder, "d1")


def test_inverter_without_curve_gets_the_default_droop(sce42):
    doc = vv.feeder_to_dict(sce42)
    del doc["inverters"][0]["curve"]
    feeder = vv.load_feeder(doc)
    curve = vv.ControllerConfig.from_feeder(feeder, "d1", alpha=7.0).curves[0]
    assert (curve.alpha, curve.deadband) == (7.0, vv.DEFAULT_DEADBAND)
    curve = vv.ControllerConfig.from_feeder(feeder, "d1", alpha=7.0, deadband=0.02).curves[0]
    assert (curve.alpha, curve.deadband) == (7.0, 0.02)
    with pytest.raises(vv.InvalidRecord, match="^bus 2 has an inverter but no curve; "):
        vv.ControllerConfig.from_feeder(feeder, "d1", deadband=0.02)


# ---------------------------------------------------------------------------
# Property tests of the hinge kernel against oracles that do not use it:
# np.interp with end-slope extrapolation for the curve, bisection on that
# interpolant for the inverse, and trapezoid quadrature of the bisection
# inverse over its breakpoints for the cost.

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
_side = st.lists(
    st.tuples(st.floats(1e-3, 0.2), st.floats(0.1, 50.0)), min_size=1, max_size=4
)


@st.composite
def tables(draw):
    """A valid monotone table: plateau [lo, hi] and (width, slope) segments
    stepping outward on each side.  Returns (points, lo, hi)."""
    lo = draw(st.floats(-0.1, 0.0, allow_subnormal=False))
    hi = draw(st.floats(0.0, 0.1, allow_subnormal=False))
    pts = [(lo, 0.0)] if lo == hi else [(lo, 0.0), (hi, 0.0)]
    v, u = lo, 0.0
    for dv, a in draw(_side):
        v, u = v - dv, u + a * dv
        pts.insert(0, (v, u))
    v, u = hi, 0.0
    for dv, a in draw(_side):
        v, u = v + dv, u - a * dv
        pts.append((v, u))
    return pts, lo, hi


@st.composite
def droops_as_tables(draw):
    """A droop curve with the equivalent table.  Returns (curve, points, lo, hi)."""
    alpha = draw(st.floats(0.1, 50.0))
    deadband = draw(st.sampled_from([0.0, 0.04])) if draw(st.booleans()) else draw(
        st.floats(0.0, 0.2)
    )
    h = deadband / 2.0
    pts = [(-h - 1.0, alpha), (-h, 0.0), (h, 0.0), (h + 1.0, -alpha)]
    if h == 0.0:
        del pts[1]
    return vv.DroopCurve(alpha=alpha, deadband=deadband), pts, -h, h


@st.composite
def curves(draw):
    """(curve, points, lo, hi) for a random table or droop curve."""
    if draw(st.booleans()):
        return draw(droops_as_tables())
    pts, lo, hi = draw(tables())
    return vv.TableCurve(pts), pts, lo, hi


def _interp_oracle(pts, v):
    xs, us = np.array(pts).T
    out = np.interp(v, xs, us)
    s0 = (us[1] - us[0]) / (xs[1] - xs[0])
    s1 = (us[-1] - us[-2]) / (xs[-1] - xs[-2])
    out = np.where(v < xs[0], us[0] + s0 * (v - xs[0]), out)
    return np.where(v > xs[-1], us[-1] + s1 * (v - xs[-1]), out)


def _bisect_inverse(pts, lo, hi, q):
    if q == 0.0:
        return 0.0
    a, b = (lo, lo) if q > 0 else (hi, hi)
    step = 1.0
    while _interp_oracle(pts, a) < q:
        a -= step
        step *= 2
    step = 1.0
    while _interp_oracle(pts, b) > q:
        b += step
        step *= 2
    for _ in range(200):
        mid = 0.5 * (a + b)
        if _interp_oracle(pts, mid) > q:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def _quadrature_cost(pts, lo, hi, q):
    """Trapezoid rule for -int_0^q inverse, exact on a grid holding every
    breakpoint of the piecewise-linear inverse."""
    us = np.array(pts)[:, 1]
    grid = np.unique(np.concatenate([[0.0, q], us[(us > min(q, 0)) & (us < max(q, 0))]]))
    vals = np.array([_bisect_inverse(pts, lo, hi, x) for x in grid])
    vals[grid == 0.0] = lo if q > 0 else hi  # the one-sided limit at q = 0
    return -np.trapezoid(vals, grid) if q > 0 else np.trapezoid(vals, grid)


_q = st.floats(-5.0, 5.0, allow_subnormal=False)


class TestCurveProperties:
    @PROPERTY
    @given(curves(), st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=20))
    def test_evaluate_matches_interpolation(self, drawn, vs):
        curve, pts, lo, hi = drawn
        v = np.array(vs)
        np.testing.assert_allclose(curve(v), _interp_oracle(pts, v), rtol=1e-12, atol=1e-12)
        assert curve.deadband_edges == pytest.approx((lo, hi), abs=1e-12)

    @PROPERTY
    @given(curves(), _q)
    def test_inverse_matches_bisection(self, drawn, q):
        curve, pts, lo, hi = drawn
        assert curve.inverse(q) == pytest.approx(_bisect_inverse(pts, lo, hi, q), abs=1e-9)

    @PROPERTY
    @given(curves(), _q)
    def test_cost_matches_quadrature(self, drawn, q):
        curve, pts, lo, hi = drawn
        expect = _quadrature_cost(pts, lo, hi, q)
        assert curve.cost(q) == pytest.approx(expect, rel=1e-9, abs=1e-9)

    @PROPERTY
    @given(curves(), _q.filter(lambda q: abs(q) > 1e-3))
    def test_cost_derivative_is_minus_inverse(self, drawn, q):
        curve = drawn[0]
        h = 1e-6
        num = (curve.cost(q + h) - curve.cost(q - h)) / (2 * h)
        assert num == pytest.approx(-curve.inverse(q), abs=1e-4)

    @PROPERTY
    @given(curves(), _q, _q)
    def test_cost_is_convex(self, drawn, a, b):
        curve = drawn[0]
        mid = curve.cost(0.5 * (a + b))
        assert mid <= 0.5 * (curve.cost(a) + curve.cost(b)) + 1e-12 * (1 + abs(mid))

    @PROPERTY
    @given(st.lists(curves(), min_size=1, max_size=6), st.data())
    def test_bundle_rows_equal_single_curves(self, drawn, data):
        bundle = CurveBundle({k: c[0] for k, c in enumerate(drawn)})
        m = len(drawn)
        v = np.array(data.draw(st.lists(st.floats(-1.5, 1.5), min_size=m, max_size=m)))
        q = np.array(data.draw(st.lists(_q, min_size=m, max_size=m)))
        q[::3] = 0.0
        for method, x in (("evaluate", v), ("inverse", q), ("cost", q)):
            single = np.array([
                (c[0] if method == "evaluate" else getattr(c[0], method))(x[k])
                for k, c in enumerate(drawn)
            ])
            np.testing.assert_array_equal(getattr(bundle, method)(x), single)

    @PROPERTY
    @given(st.lists(curves(), min_size=1, max_size=6), st.data())
    def test_slope_matches_finite_differences(self, drawn, data):
        bundle = CurveBundle({k: c[0] for k, c in enumerate(drawn)})
        m = len(drawn)
        v = np.array(data.draw(st.lists(st.floats(-1.5, 1.5), min_size=m, max_size=m)))
        h = 1e-6
        # central differences are exact up to rounding once no knot lies within h
        knots = [np.array([p[0] for p in pts] + [lo, hi]) for _, pts, lo, hi in drawn]
        away = np.array([np.abs(knots[k] - v[k]).min() > 10 * h for k in range(m)])
        assume(away.any())
        num = (bundle.evaluate(v + h) - bundle.evaluate(v - h)) / (2 * h)
        np.testing.assert_allclose(bundle.slope(v)[away], num[away], rtol=1e-6, atol=1e-6)

    @PROPERTY
    @given(st.floats(0.1, 50.0), st.floats(0.0, 0.2), st.lists(_q, min_size=1, max_size=20))
    def test_droop_matches_closed_form_bitwise(self, alpha, deadband, xs):
        curve = vv.DroopCurve(alpha=alpha, deadband=deadband)
        x = np.array(xs + [deadband / 2, -deadband / 2, 0.0])
        h = deadband / 2.0
        u = -alpha * np.maximum(x - h, 0.0) + alpha * np.maximum(-x - h, 0.0)
        inv = np.where(x < 0, -x / alpha + h, np.where(x > 0, -x / alpha - h, 0.0))
        np.testing.assert_array_equal(curve(x), u)
        np.testing.assert_array_equal(curve.inverse(x), inv)
        np.testing.assert_allclose(
            curve.cost(x), x * x / (2.0 * alpha) + h * np.abs(x), rtol=1e-14, atol=0
        )


# ---------------------------------------------------------------------------
# The hinge tables are built on plain floats; they must equal, bit for bit,
# the whole-array numpy construction kept in helpers as a reference.

def _assert_same_table(curve, reference):
    table, alpha_bar, edges = reference
    assert curve._table.flags.c_contiguous
    assert curve._table.shape == table.shape
    assert curve._table.tobytes() == table.tobytes()
    assert np.float64(curve.alpha_bar).tobytes() == np.float64(alpha_bar).tobytes()
    assert np.array(curve.deadband_edges).tobytes() == np.array(edges).tobytes()


def _synthetic_tables(seed, count):
    """Six-point tables that saturate past a 0.04 deadband, as on the
    seeded synthetic feeders: q1 at 0.06 beyond each plateau edge."""
    rng = np.random.default_rng(seed)
    h, e = 0.02, 0.08
    for q1 in rng.uniform(1e-4, 2.0, count):
        yield [[-e, q1], [-h - 0.04, 0.6 * q1], [-h, 0.0],
               [h, 0.0], [h + 0.04, -0.6 * q1], [e, -q1]]


@st.composite
def near_tables(draw):
    """Breakpoints near the edge of validity: distinct v_err that may miss
    zero, q mostly non-increasing, with zeros, tiny values and repeats."""
    v = draw(st.lists(st.sampled_from([-0.3, -0.1, -0.02, -1e-9, 0.0, 1e-9, 0.02, 0.1, 0.3]),
                      min_size=1, max_size=6, unique=True))
    u = draw(st.lists(st.sampled_from([-2.0, -1.0, -1e-13, 0.0, 0.0, 5e-15, 1e-13, 0.5, 1.0, 2.0]),
                      min_size=len(v), max_size=len(v)))
    if draw(st.integers(0, 4)):
        u.sort(reverse=True)
    return list(zip(sorted(v), u))


class TestHingeTableOracle:
    @PROPERTY
    @given(tables())
    def test_tables_match_numpy_construction(self, drawn):
        pts = drawn[0]
        _assert_same_table(vv.TableCurve(pts), numpy_hinge_table(pts))

    @PROPERTY
    @given(droops_as_tables())
    def test_droops_match_numpy_construction(self, drawn):
        curve, pts = drawn[:2]
        _assert_same_table(curve, numpy_droop_table(curve.alpha, curve.deadband))
        _assert_same_table(vv.TableCurve(pts), numpy_hinge_table(pts))

    def test_synthetic_feeder_tables_match_numpy_construction(self):
        for pts in _synthetic_tables(seed=7, count=200):
            _assert_same_table(vv.TableCurve(pts), numpy_hinge_table(pts))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(near_tables())
    def test_rejections_match_numpy_construction(self, pts):
        """The same tables fail with the same message, except that the
        library also rejects points that do not span v_err = 0."""
        try:
            reference = numpy_hinge_table(pts)
        except vv.InvalidRecord as exc:
            reference = str(exc)
        vs = sorted(v for v, _ in pts)
        # the span test runs last but one, just before zero-at-zero
        if not vs[0] <= 0.0 <= vs[-1] and (
            not isinstance(reference, str)
            or reference == "table curve must be zero at zero voltage error"
        ):
            reference = "table v_err values must span zero"
        if isinstance(reference, str):
            with pytest.raises(vv.InvalidRecord) as exc:
                vv.TableCurve(pts)
            assert str(exc.value) == reference
        else:
            _assert_same_table(vv.TableCurve(pts), reference)
