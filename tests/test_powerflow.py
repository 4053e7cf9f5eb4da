import copy
import dataclasses
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import voltvar as vv

from helpers import (
    random_feeder,
    random_tree_records,
    reference_distflow_sweep,
    single_line_distflow_oracle,
    two_bus_feeder,
)


class TestLinearVoltage:
    def test_zero_injection_gives_vtilde(self, sce42, sce42_mats):
        sol = vv.linear_voltage(sce42_mats, np.zeros(sce42.n))
        np.testing.assert_array_equal(sol.v, sce42_mats.vtilde)
        assert sol.model == "linear"
        assert np.all(sol.ell == 0)

    def test_single_line_arithmetic(self):
        mats = vv.sensitivity_matrices(two_bus_feeder(x=0.5, v0=1.05))
        sol = vv.linear_voltage(mats, np.array([-0.02]))
        assert sol.v == pytest.approx([1.04], rel=1e-14)

    def test_unit_injection_extracts_matrix_column(self, sce42, sce42_mats):
        for j in (0, 7, 40):
            e = np.zeros(sce42.n)
            e[j] = 1.0
            sol = vv.linear_voltage(sce42_mats, e)
            np.testing.assert_allclose(sol.v - sce42_mats.vtilde, sce42_mats.X[:, j], atol=1e-14)

    def test_dimension_check(self, sce42_mats):
        with pytest.raises(vv.DimensionMismatch):
            vv.linear_voltage(sce42_mats, np.zeros(3))

    def test_monotone_in_injections(self, sce42, sce42_mats):
        rng = np.random.default_rng(2)
        q = rng.normal(size=sce42.n) * 0.1
        base = vv.linear_voltage(sce42_mats, q).v
        for j in (3, 19):
            bumped = q.copy()
            bumped[j] += 0.05
            assert np.all(vv.linear_voltage(sce42_mats, bumped).v >= base - 1e-15)


class TestDistflowSweep:
    def test_quiet_network_is_flat(self):
        rng = np.random.default_rng(13)
        f = random_feeder(rng, 10)
        sol = vv.distflow_sweep(f, np.zeros(10))
        np.testing.assert_array_equal(sol.v, np.full(10, f.v0))
        np.testing.assert_array_equal(sol.ell, np.zeros(10))

    def test_single_line_against_bisection_oracle(self):
        r, x, p_c = 0.1, 0.5, 0.1
        f = two_bus_feeder(r=r, x=x, v0=1.0, p_c=p_c)
        sol = vv.distflow_sweep(f, np.zeros(1), tol=1e-14)
        v_expect, ell_expect = single_line_distflow_oracle(r, x, p_c, 0.0)
        assert sol.v[0] == pytest.approx(v_expect, abs=1e-10)
        assert sol.ell[0] == pytest.approx(ell_expect, abs=1e-10)

    def test_sce42_close_to_linear_at_peak(self, sce42, sce42_mats):
        sol = vv.distflow_sweep(sce42, np.zeros(sce42.n))
        gap = np.abs(sol.v - sce42_mats.vtilde).max()
        assert gap <= 0.02  # a fraction of a percent on this feeder

    def test_flow_conservation_at_solution(self, sce42):
        rng = np.random.default_rng(41)
        q_min, q_max = vv.limits_arrays(sce42)
        q = rng.uniform(q_min, q_max)
        sol = vv.distflow_sweep(sce42, q, tol=1e-13)
        net_p = sce42.p_c - sce42.injected_real_power()
        net_q = sce42.q_c - q
        for k in range(sce42.n):
            kids = np.flatnonzero(sce42.parent == k)
            res_p = sol.P[k] - net_p[k] - sce42.r[k] * sol.ell[k] - sum(sol.P[c] for c in kids)
            res_q = sol.Q[k] - net_q[k] - sce42.x[k] * sol.ell[k] - sum(sol.Q[c] for c in kids)
            assert abs(res_p) < 1e-12 and abs(res_q) < 1e-12

    def test_losses_explain_gap_to_lossless_flows(self, sce42, sce42_mats):
        q = np.zeros(sce42.n)
        full = vv.distflow_sweep(sce42, q, tol=1e-13)
        lossless = vv.linear_voltage(sce42_mats, q)
        extra_p = full.P - lossless.P
        expect = sce42.descendant_matrix @ (sce42.r * full.ell)
        np.testing.assert_allclose(extra_p, expect, atol=1e-12)

    def test_infeasible_point_raises(self):
        f = two_bus_feeder(p_c=1e4)
        with pytest.raises(vv.NegativeSquaredVoltage):
            vv.distflow_sweep(f, np.zeros(1))

    def test_budget_exhaustion_raises(self):
        f = two_bus_feeder(p_c=0.5)
        with pytest.raises(vv.NoConvergence):
            vv.distflow_sweep(f, np.zeros(1), tol=1e-16, max_iter=1)

    # max_iter 2.5 once raised a bare TypeError from range, and a nan tol
    # spent the whole budget before NoConvergence
    @pytest.mark.parametrize("kwargs", [
        {"max_iter": 2.5}, {"max_iter": 0}, {"max_iter": "100"},
        {"tol": np.nan}, {"tol": -1e-8}, {"tol": "1e-8"},
    ], ids=["fractional-max_iter", "zero-max_iter", "string-max_iter", "nan-tol",
            "negative-tol", "string-tol"])
    def test_bad_run_arguments_rejected(self, sce42, kwargs):
        with pytest.raises(vv.InvalidRecord):
            vv.distflow_sweep(sce42, np.zeros(sce42.n), **kwargs)

    def test_numpy_integer_budget_accepted(self, sce42):
        plain = vv.distflow_sweep(sce42, np.zeros(sce42.n), max_iter=100)
        numpy = vv.distflow_sweep(sce42, np.zeros(sce42.n), max_iter=np.int32(100))
        np.testing.assert_array_equal(numpy.v, plain.v)


class TestWarmStart:
    def test_restart_from_solution_takes_one_iteration(self, sce42):
        q_min, q_max = vv.limits_arrays(sce42)
        q = np.random.default_rng(5).uniform(q_min, q_max)
        sol = vv.distflow_sweep(sce42, q, tol=1e-13)
        again = vv.distflow_sweep(sce42, q, tol=1e-12, start=sol)
        assert again.iterations == 1
        np.testing.assert_allclose(again.v, sol.v, rtol=0, atol=1e-12)
        np.testing.assert_allclose(again.ell, sol.ell, rtol=1e-12)

    def test_nearby_start_saves_iterations(self, sce42):
        q_min, q_max = vv.limits_arrays(sce42)
        rng = np.random.default_rng(7)
        q1 = rng.uniform(q_min, q_max)
        q2 = q1 + 0.01 * (rng.uniform(q_min, q_max) - q1)
        cold = vv.distflow_sweep(sce42, q2, tol=1e-10)
        warm = vv.distflow_sweep(sce42, q2, tol=1e-10,
                                 start=vv.distflow_sweep(sce42, q1, tol=1e-10))
        assert warm.iterations < cold.iterations
        np.testing.assert_allclose(warm.v, cold.v, rtol=0, atol=1e-10)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 15), st.floats(0.0, 0.05),
           st.floats(0.95, 1.05))
    def test_matches_cold_sweep_on_random_trees(self, seed, n, scale, v0):
        rng = np.random.default_rng(seed)
        buses, lines = random_tree_records(rng, n, z_hi=0.1)
        loaded = [buses[0]] + [
            vv.Bus(b.id, p_c=float(rng.uniform(0.0, scale)), q_c=float(rng.uniform(0.0, scale)))
            for b in buses[1:]
        ]
        f = vv.build_feeder(loaded, lines, slack_label=0, v0=v0)
        q1, q2 = rng.uniform(-scale, scale, size=(2, n))
        cold = vv.distflow_sweep(f, q2, tol=1e-12)
        warm = vv.distflow_sweep(f, q2, tol=1e-12, start=vv.distflow_sweep(f, q1, tol=1e-12))
        for a, b in ((warm.v, cold.v), (warm.ell, cold.ell), (warm.P, cold.P),
                     (warm.Q, cold.Q)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)

    def test_linear_solution_is_a_valid_start(self, sce42, sce42_mats):
        q = np.zeros(sce42.n)
        warm = vv.distflow_sweep(sce42, q, tol=1e-12, start=vv.linear_voltage(sce42_mats, q))
        cold = vv.distflow_sweep(sce42, q, tol=1e-12)
        np.testing.assert_allclose(warm.v, cold.v, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("field, size", [("v", 3), ("ell", 3), ("v", 0)])
    def test_wrong_shape_start_rejected(self, sce42, field, size):
        sol = vv.distflow_sweep(sce42, np.zeros(sce42.n))
        bad = replace(sol, **{field: np.ones(size)})
        with pytest.raises(vv.DimensionMismatch):
            vv.distflow_sweep(sce42, np.zeros(sce42.n), start=bad)

    @pytest.mark.parametrize("field, value", [
        ("v", np.nan), ("v", np.inf), ("v", 0.0), ("v", -1.0),
        ("ell", np.nan), ("ell", np.inf), ("ell", -np.inf),
    ])
    def test_nonfinite_or_nonpositive_start_rejected(self, sce42, field, value):
        sol = vv.distflow_sweep(sce42, np.zeros(sce42.n))
        arr = getattr(sol, field).copy()
        arr[4] = value
        bad = replace(sol, **{field: arr})
        with pytest.raises(vv.InvalidRecord):
            vv.distflow_sweep(sce42, np.zeros(sce42.n), start=bad, max_iter=1)


def _outcome(call):
    """``call()`` as ``(v, P, Q, ell, iterations)`` with the arrays as bytes, or
    the type, message and residual bits of the power-flow error it raised."""
    try:
        out = call()
    except vv.PowerFlowError as exc:
        return type(exc), str(exc), float(getattr(exc, "residual", 0.0)).hex()
    if isinstance(out, vv.VoltageSolution):
        out = (out.v, out.P, out.Q, out.ell, out.iterations)
    *arrays, iterations = out
    return tuple(np.asarray(a, dtype=float).tobytes() for a in arrays), iterations


def _loaded_feeder(rng, n, scale, v0):
    buses, lines = random_tree_records(rng, n, z_hi=0.1)
    loaded = [buses[0]] + [
        vv.Bus(b.id, p_c=float(rng.uniform(0.0, scale)), q_c=float(rng.uniform(0.0, scale)))
        for b in buses[1:]
    ]
    return vv.build_feeder(loaded, lines, slack_label=0, v0=v0)


class TestReferenceLoop:
    """The sweep against ``helpers.reference_distflow_sweep``, bit for bit."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 20),
           st.sampled_from((0.0, 0.01, 0.05, 2.0, 50.0)), st.floats(0.95, 1.05),
           st.sampled_from((0.0, 1e-12, 1e-8, 1e-3)), st.integers(1, 40))
    def test_cold_and_warm_sweeps_are_the_reference_loop(self, seed, n, scale, v0, tol,
                                                         max_iter):
        # scale 2 and 50 push many feeders past the solvable region, tol 0 and
        # small budgets run out: the errors must match as well
        rng = np.random.default_rng(seed)
        f = _loaded_feeder(rng, n, scale, v0)
        q1, q2 = rng.uniform(-0.05, 0.05, size=(2, n))
        assert _outcome(lambda: vv.distflow_sweep(f, q2, tol, max_iter)) == _outcome(
            lambda: reference_distflow_sweep(f, q2, tol, max_iter))
        try:
            start = vv.distflow_sweep(f, q1, tol=1e-12)
        except vv.PowerFlowError:
            return
        want = _outcome(lambda: reference_distflow_sweep(f, q2, tol, max_iter,
                                                         start=(start.ell, start.v)))
        # a carried start, and a replace copy, which is checked and gathered
        for s in (start, replace(start)):
            assert _outcome(lambda: vv.distflow_sweep(f, q2, tol, max_iter, start=s)) == want

    def test_carried_start_outlives_later_sweeps(self, sce42):
        # every call owns its buffers: sweeps after the start's own leave it as solved
        q_min, q_max = vv.limits_arrays(sce42)
        q1, q2, q3 = np.random.default_rng(11).uniform(q_min, q_max, size=(3, sce42.n))
        first = vv.distflow_sweep(sce42, q1, tol=1e-10)
        state = (first.ell.copy(), first.v.copy())
        vv.distflow_sweep(sce42, q2, tol=1e-10, start=first)
        vv.distflow_sweep(sce42, q3, tol=1e-10)
        assert _outcome(lambda: vv.distflow_sweep(sce42, q3, 1e-10, 100, start=first)) == (
            _outcome(lambda: reference_distflow_sweep(sce42, q3, 1e-10, 100, start=state)))

    def test_start_from_another_feeder_is_checked(self):
        # same n, another tree: the start's carried preorder is not this
        # feeder's, so its model-order ell and v are gathered anew
        rng = np.random.default_rng(23)
        a, b = (_loaded_feeder(rng, 12, 0.05, 1.0) for _ in range(2))
        assert not np.array_equal(a.preorder[0], b.preorder[0])
        q = rng.uniform(-0.05, 0.05, 12)
        start = vv.distflow_sweep(a, q, tol=1e-12)
        assert _outcome(lambda: vv.distflow_sweep(b, q, 1e-12, 100, start=start)) == _outcome(
            lambda: reference_distflow_sweep(b, q, 1e-12, 100, start=(start.ell, start.v)))
        bad = replace(start, v=np.full(12, -1.0))
        with pytest.raises(vv.InvalidRecord):
            vv.distflow_sweep(b, q, start=bad)

    def test_copies_carry_nothing(self, sce42):
        # the carried feeder would not pickle or asdict; every copy takes the
        # checked path
        q = np.zeros(sce42.n)
        sol = vv.distflow_sweep(sce42, q, tol=1e-12)
        want = _outcome(lambda: vv.distflow_sweep(sce42, q, 1e-13, 100, start=sol))
        assert dataclasses.asdict(sol).keys() == dataclasses.asdict(replace(sol)).keys()
        for copied in (pickle.loads(pickle.dumps(sol)), copy.deepcopy(sol), copy.copy(sol),
                       replace(sol)):
            assert copied._warm is None
            np.testing.assert_array_equal(copied.v, sol.v)
            assert _outcome(lambda: vv.distflow_sweep(sce42, q, 1e-13, 100, start=copied)) == want

    def test_returned_arrays_are_read_only(self, sce42, sce42_mats):
        q = np.zeros(sce42.n)
        for sol in (vv.distflow_sweep(sce42, q), vv.linear_voltage(sce42_mats, q)):
            for a in (sol.v, sol.P, sol.Q, sol.ell):
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = 1.0


class TestLinearizationError:
    def test_zero_for_quiet_feeder(self):
        rng = np.random.default_rng(47)
        f = random_feeder(rng, 8)
        report = vv.linearization_error(f, np.zeros(8))
        assert report.max_abs == 0.0

    def test_sce42_peak_is_small(self, sce42, sce42_mats):
        report = vv.linearization_error(sce42, np.zeros(sce42.n), mats=sce42_mats)
        assert report.max_abs <= 0.02
        assert report.mean_abs <= report.max_abs

    def test_error_shrinks_with_load_when_loads_dominate(self):
        # generation off so scaling loads scales every flow
        errs = []
        for scale in (1.0, 0.5, 0.25):
            f = vv.load_feeder("builtin:sce42", load_scale=scale, pv_operating_fraction=0.0)
            errs.append(vv.linearization_error(f, np.zeros(f.n)).max_abs)
        assert errs[0] > errs[1] > errs[2]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_q_rejected(sce42, sce42_mats, bad):
    q = np.zeros(sce42.n)
    q[3] = bad
    with pytest.raises(vv.InvalidRecord):
        vv.linear_voltage(sce42_mats, q)
    with pytest.raises(vv.InvalidRecord):
        vv.distflow_sweep(sce42, q)
