from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import voltvar as vv
from voltvar.powerflow import branch_flows

from helpers import (
    random_feeder,
    random_tree_records,
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
            kids = sce42.children[k]
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

    def test_lossless_flows_match_linear_on_random_trees(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            f = random_feeder(rng, int(rng.integers(2, 20)))
            net_p = rng.normal(size=f.n) * 0.1
            net_q = rng.normal(size=f.n) * 0.1
            p_zero_ell, q_zero_ell = branch_flows(f, net_p, net_q, ell=np.zeros(f.n))
            p_lossless, q_lossless = branch_flows(f, net_p, net_q)
            np.testing.assert_array_equal(p_zero_ell, p_lossless)
            np.testing.assert_array_equal(q_zero_ell, q_lossless)

    def test_infeasible_point_raises(self):
        f = two_bus_feeder(p_c=1e4)
        with pytest.raises(vv.NegativeSquaredVoltage):
            vv.distflow_sweep(f, np.zeros(1))

    def test_budget_exhaustion_raises(self):
        f = two_bus_feeder(p_c=0.5)
        with pytest.raises(vv.NoConvergence):
            vv.distflow_sweep(f, np.zeros(1), tol=1e-16, max_iter=1)


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
