import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import voltvar as vv
from voltvar import dynamics
from voltvar.control import CurveBundle

from helpers import d3_oracle, random_feeder, random_tree_records, two_bus_feeder


def two_bus_config(kind="d1", alpha=1.0, deadband=0.04, **kw):
    curves = {0: vv.DroopCurve(alpha=alpha, deadband=deadband)}
    return vv.ControllerConfig(
        kind=kind, curves=curves,
        q_min=np.array([-1e6]), q_max=np.array([1e6]), **kw,
    )


# sweep iterations of the sce42 d1 run (alpha 10, distflow, tol 1e-8):
# every state swept flat, and each warm-started from the previous state
SCE42_D1_COLD_SWEEPS = 134
SCE42_D1_WARM_SWEEPS = 86


@pytest.fixture
def feeder2():
    return two_bus_feeder(r=0.1, x=0.5, v0=1.05)


class TestStepD1:
    def test_deadband_everywhere_gives_zero(self, feeder2):
        cfg = two_bus_config()
        out = vv.step(np.array([0.3]), feeder2.v_nom.copy(), cfg, feeder2.v_nom)
        assert out == pytest.approx([0.0])

    def test_single_step_from_flat(self, feeder2):
        cfg = two_bus_config()
        out = vv.step(np.zeros(1), np.array([1.05]), cfg, feeder2.v_nom)
        assert out == pytest.approx([-0.03], rel=1e-14)

    def test_iterated_fixed_point(self, feeder2):
        cfg = two_bus_config()
        traj = vv.simulate(feeder2, cfg, tol=1e-12, max_iter=500)
        assert traj.verdict == "converged"
        assert traj.final_q == pytest.approx([-0.02], abs=1e-11)
        assert traj.final_v == pytest.approx([1.04], abs=1e-11)


class TestStepD2:
    def test_zero_injection_inside_deadband_moves_by_voltage_error(self, feeder2):
        cfg = two_bus_config("d2", gamma2=0.1)
        out = vv.step(np.zeros(1), np.array([1.015]), cfg, feeder2.v_nom)
        assert out == pytest.approx([-0.1 * 0.015], rel=1e-12)

    def test_inverse_branch_case(self, feeder2):
        gamma2 = 0.25
        cfg = two_bus_config("d2", gamma2=gamma2)
        out = vv.step(np.array([-0.03]), np.array([1.035]), cfg, feeder2.v_nom)
        # subgradient: -(0.03 + 0.02) + 0.035 = -0.015
        assert out == pytest.approx([-0.03 + gamma2 * 0.015], rel=1e-12)

    def test_zero_injection_beyond_deadband_cases(self, feeder2):
        cfg = two_bus_config("d2", gamma2=1.0)
        high = vv.step(np.zeros(1), np.array([1.05]), cfg, feeder2.v_nom)
        assert high == pytest.approx([-(0.05 - 0.02)], rel=1e-12)
        low = vv.step(np.zeros(1), np.array([0.95]), cfg, feeder2.v_nom)
        assert low == pytest.approx([0.05 - 0.02], rel=1e-12)

    def test_interior_equilibrium_is_fixed(self, feeder2):
        cfg = two_bus_config("d2", gamma2=0.5)
        q_star = np.array([-0.02])
        v_star = np.array([1.05 + 0.5 * -0.02])
        out = vv.step(q_star, v_star, cfg, feeder2.v_nom)
        assert out == pytest.approx(q_star, abs=1e-15)


class TestStepD3:
    def test_unit_weight_equals_d1(self, feeder2):
        rng = np.random.default_rng(53)
        cfg1 = two_bus_config("d1")
        cfg3 = two_bus_config("d3", gamma3=1.0)
        for _ in range(25):
            q = rng.normal(size=1)
            v = 1.0 + rng.normal(size=1) * 0.05
            a = vv.step(q, v, cfg1, feeder2.v_nom)
            b = vv.step(q, v, cfg3, feeder2.v_nom)
            np.testing.assert_array_equal(a, b)

    def test_zero_weight_freezes(self, feeder2):
        cfg = two_bus_config("d3", gamma3=1e-300)
        q = np.array([0.17])
        out = vv.step(q, np.array([1.05]), cfg, feeder2.v_nom)
        assert out == pytest.approx(q, rel=1e-12)

    def test_stepsize_splits_convergence(self, feeder2):
        # alpha x = 1.5 > 1: d1 diverges, d3 with gamma below 0.8 contracts
        cfg = two_bus_config("d3", alpha=3.0, deadband=0.0, gamma3=0.5)
        traj = vv.simulate(feeder2, cfg, tol=1e-10, max_iter=2000)
        assert traj.verdict == "converged"
        # multiplier 1 - 0.5 * 2.5 = -0.25; fixed point -3*0.05/2.5
        assert traj.final_q == pytest.approx([-0.06], abs=1e-9)


class TestSimulate:
    def test_sce42_d1_converges_with_monotone_residuals(self, sce42, sce42_mats):
        cfg = vv.ControllerConfig.from_feeder(sce42, "d1", alpha=10.0)
        report = vv.check_d1_condition(cfg.bundle, sce42_mats.X)
        assert report.sufficient
        traj = vv.simulate(sce42, cfg, mats=sce42_mats, tol=1e-9)
        assert traj.verdict == "converged"
        res = traj.residuals[1:]
        assert np.all(np.diff(res) <= 1e-15)
        assert res[-1] < 1e-9

    def test_linear_trajectory_satisfies_model(self, sce42, sce42_mats):
        cfg = vv.ControllerConfig.from_feeder(sce42, "d1", alpha=10.0)
        traj = vv.simulate(sce42, cfg, mats=sce42_mats)
        expect = traj.q @ sce42_mats.X.T + sce42_mats.vtilde
        np.testing.assert_allclose(traj.v, expect, atol=1e-13)

        # curves on 3 of the 5 inverters; the other two hold a non-zero q0
        curved = sorted(cfg.curves)[:3]
        held = sorted(set(sce42.inverters) - set(curved))
        partial = vv.ControllerConfig(kind="d1", curves={k: cfg.curves[k] for k in curved},
                                      q_min=cfg.q_min, q_max=cfg.q_max)
        q0 = np.random.default_rng(79).uniform(cfg.q_min, cfg.q_max)
        assert np.all(q0[held] != 0.0)
        traj = vv.simulate(sce42, partial, mats=sce42_mats, q0=q0)
        np.testing.assert_array_equal(traj.q[:, held], np.tile(q0[held], (len(traj.times), 1)))
        expect = traj.q @ sce42_mats.X.T + sce42_mats.vtilde
        np.testing.assert_allclose(traj.v, expect, rtol=0, atol=1e-13)
        tracked = vv.simulate(sce42, partial, mats=sce42_mats, q0=q0, track_objective=True)
        direct = [vv.objective_f(sce42_mats, partial.curves, q) for q in tracked.q]
        np.testing.assert_allclose(tracked.objective, direct, rtol=0, atol=1e-12)

    def test_distflow_trajectory_satisfies_model(self, sce42):
        cfg = vv.ControllerConfig.from_feeder(sce42, "d1", alpha=10.0)
        traj = vv.simulate(sce42, cfg, plant="distflow", tol=1e-8)
        assert traj.verdict == "converged"
        for i in (0, len(traj.times) // 2, -1):
            sol = vv.distflow_sweep(sce42, traj.q[i], tol=1e-10)
            np.testing.assert_allclose(traj.v[i], sol.v, atol=1e-9)

    def test_sweep_iterations_counted_on_distflow_only(self, sce42, sce42_mats):
        cfg = vv.ControllerConfig.from_feeder(sce42, "d1", alpha=10.0)
        assert vv.simulate(sce42, cfg, mats=sce42_mats).sweep_iterations is None
        traj = vv.simulate(sce42, cfg, plant="distflow", tol=1e-8)
        assert traj.verdict == "converged" and len(traj.times) == traj.steps + 1
        # every state's sweep run flat, as the plant did before it warm-started
        cold = sum(vv.distflow_sweep(sce42, q, tol=1e-10).iterations for q in traj.q)
        assert cold == SCE42_D1_COLD_SWEEPS
        assert traj.sweep_iterations == SCE42_D1_WARM_SWEEPS

    def test_oscillation_detected_beyond_stability_limit(self, feeder2):
        cfg = two_bus_config("d1", alpha=3.0, deadband=0.0)
        traj = vv.simulate(feeder2, cfg, tol=1e-8, max_iter=5000)
        assert traj.verdict == "oscillating"

    def test_record_thinning_keeps_ends(self, sce42, sce42_mats):
        cfg = vv.ControllerConfig.from_feeder(sce42, "d1", alpha=10.0)
        traj = vv.simulate(sce42, cfg, mats=sce42_mats, record_every=7, tol=1e-9)
        assert traj.times[0] == 0
        assert traj.times[-1] == traj.converged_at
        assert np.all(np.diff(traj.times) > 0)

    def test_scalar_and_array_paths_agree(self, sce42, sce42_mats, monkeypatch):
        # the default takes the float kernel; a zero size limit forces the array one
        runs = [
            (kind, 20.0, g2, g3, dict(tol=0.0, max_iter=250))
            for kind, g2, g3 in (("d1", None, None), ("d2", 1e-2, None), ("d3", None, 0.7))
        ] + [
            ("d1", 10.0, None, None, dict(tol=1e-9, max_iter=2000)),
            ("d2", 27.0, 1e-2, None, dict(tol=1e-7, max_iter=5000, record_every=7)),
            ("d1", 40.0, None, None, dict(tol=1e-8, max_iter=2000)),
        ]
        verdicts = set()
        for kind, alpha, g2, g3, kw in runs:
            cfg = vv.ControllerConfig.from_feeder(
                sce42, kind, alpha=alpha, gamma2=g2, gamma3=g3
            )
            fast = vv.simulate(sce42, cfg, mats=sce42_mats, **kw)
            with monkeypatch.context() as mp:
                mp.setattr(dynamics, "_FLOAT_KERNEL_LIMIT", 0)
                slow = vv.simulate(sce42, cfg, mats=sce42_mats, **kw)
            verdicts.add(fast.verdict)
            assert fast.verdict == slow.verdict
            assert fast.steps == slow.steps
            assert fast.converged_at == slow.converged_at
            np.testing.assert_array_equal(fast.times, slow.times)
            np.testing.assert_allclose(fast.q, slow.q, rtol=0, atol=5e-13)
            np.testing.assert_allclose(fast.residuals, slow.residuals, rtol=0, atol=5e-13)
            np.testing.assert_allclose(fast.q_average, slow.q_average, rtol=0, atol=5e-13)
        assert verdicts == {"converged", "oscillating", "max_iterations"}

    @pytest.mark.parametrize("case", ["d1", "d2", "d3", "partial"])
    def test_tracked_droop_run_takes_the_float_kernel(self, sce42, sce42_mats, monkeypatch,
                                                      case):
        kind = "d1" if case == "partial" else case
        cfg = vv.ControllerConfig.from_feeder(sce42, kind, alpha=10.0, gamma2=1e-2,
                                              gamma3=0.5)
        kw = dict(mats=sce42_mats)
        if case == "d2":
            kw.update(max_iter=3000, record_every=10)
        if case == "partial":
            # curves on 3 of the 5 inverters; the other two hold a non-zero q0
            curved = sorted(cfg.curves)[:3]
            cfg = vv.ControllerConfig(kind="d1", curves={k: cfg.curves[k] for k in curved},
                                      q_min=cfg.q_min, q_max=cfg.q_max)
            kw["q0"] = np.random.default_rng(79).uniform(cfg.q_min, cfg.q_max)
        with monkeypatch.context() as mp:
            mp.setattr(dynamics, "_array_kernel", None)  # any use of it fails
            plain = vv.simulate(sce42, cfg, **kw)
            tracked = vv.simulate(sce42, cfg, track_objective=True, **kw)
        assert plain.objective is None
        for name in ("times", "q", "residuals", "q_average", "verdict", "converged_at"):
            assert np.array_equal(getattr(tracked, name), getattr(plain, name)), name
        direct = [vv.objective_f(sce42_mats, cfg.curves, q) for q in tracked.q]
        np.testing.assert_allclose(tracked.objective, direct, rtol=0, atol=1e-15)

        monkeypatch.setattr(dynamics, "_FLOAT_KERNEL_LIMIT", 0)
        array = vv.simulate(sce42, cfg, track_objective=True, **kw)
        np.testing.assert_array_equal(array.times, tracked.times)
        np.testing.assert_allclose(tracked.objective, array.objective, rtol=0, atol=1e-15)
        np.testing.assert_allclose(tracked.cum_objective, array.cum_objective, rtol=1e-13)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_q0_rejected(self, sce42, sce42_mats, bad):
        cfg = vv.ControllerConfig.from_feeder(sce42, "d1", alpha=10.0)
        q0 = np.zeros(sce42.n)
        q0[0] = bad
        with pytest.raises(vv.InvalidRecord):
            vv.simulate(sce42, cfg, mats=sce42_mats, q0=q0)
        with pytest.raises(vv.InvalidRecord):
            vv.simulate(sce42, cfg, mats=sce42_mats, q0=np.full(sce42.n, bad))

    @pytest.mark.parametrize("kwargs, error", [
        ({"record_every": 0}, vv.InvalidRecord),
        ({"max_iter": 0}, vv.InvalidRecord),
        ({"q0": np.zeros(3)}, vv.DimensionMismatch),
        ({"tol": np.nan}, vv.InvalidRecord),
        ({"tol": -1e-6}, vv.InvalidRecord),
    ], ids=["record_every", "max_iter", "q0-shape", "nan-tol", "negative-tol"])
    def test_bad_run_arguments_rejected(self, sce42, sce42_mats, kwargs, error):
        cfg = vv.ControllerConfig.from_feeder(sce42, "d1", alpha=10.0)
        with pytest.raises(error):
            vv.simulate(sce42, cfg, mats=sce42_mats, **kwargs)

    def test_empty_curve_set_rejected(self, sce42, sce42_mats):
        q_min, q_max = vv.limits_arrays(sce42)
        cfg = vv.ControllerConfig(kind="d1", curves={}, q_min=q_min, q_max=q_max)
        with pytest.raises(vv.InvalidRecord, match="no controllable buses"):
            vv.simulate(sce42, cfg, mats=sce42_mats)

    @pytest.mark.parametrize("plant", ["dc", object()], ids=["dc", "object"])
    def test_unknown_plant_rejected(self, sce42, sce42_mats, plant):
        cfg = vv.ControllerConfig.from_feeder(sce42, "d1", alpha=10.0)
        with pytest.raises(vv.InvalidRecord):
            vv.simulate(sce42, cfg, plant=plant, mats=sce42_mats)

    @pytest.mark.parametrize("q_min, q_max", [(-np.inf, np.inf), (-1.0, np.nan), (0.1, -0.1)])
    def test_nonfinite_or_inverted_box_rejected(self, feeder2, q_min, q_max):
        # with an unbounded box this stiff d3 run once ended "converged" at q = nan
        with pytest.raises(vv.InvalidRecord):
            cfg = vv.ControllerConfig(
                kind="d3", curves={0: vv.DroopCurve(alpha=1000.0, deadband=0.0)},
                q_min=np.array([q_min]), q_max=np.array([q_max]), gamma3=0.9,
            )
            vv.simulate(feeder2, cfg, oscillation_window=None)

    def test_invalid_config_rejected(self):
        with pytest.raises(vv.InvalidRecord):
            vv.ControllerConfig(kind="d2", curves={}, q_min=np.zeros(1), q_max=np.zeros(1))
        with pytest.raises(vv.InvalidRecord):
            vv.ControllerConfig(kind="d9", curves={}, q_min=np.zeros(1), q_max=np.zeros(1))

    @pytest.mark.parametrize("kind", ["d2", "d3"])
    @pytest.mark.parametrize("gamma", [np.inf, np.nan])
    def test_nonfinite_stepsize_rejected(self, sce42, kind, gamma):
        with pytest.raises(vv.InvalidRecord):
            vv.ControllerConfig.from_feeder(sce42, kind, alpha=10.0, gamma2=gamma, gamma3=gamma)


class TestConditionChecks:
    def test_scalar_case(self):
        curves = {0: vv.DroopCurve(alpha=1.0, deadband=0.04)}
        rep = vv.check_d1_condition(curves, np.array([[0.5]]))
        assert rep.sigma == pytest.approx(0.5)
        assert rep.sufficient and rep.corollary_holds
        assert rep.uniform_alpha_limit == pytest.approx(2.0)

    def test_corollary_implies_spectral_condition(self):
        rng = np.random.default_rng(59)
        checked = 0
        for _ in range(500):
            f = random_feeder(rng, int(rng.integers(2, 12)), z_lo=0.05, z_hi=0.8)
            mats = vv.sensitivity_matrices(f)
            curves = {
                k: vv.DroopCurve(alpha=float(rng.uniform(0.05, 2.0)))
                for k in range(f.n)
            }
            rep = vv.check_d1_condition(curves, mats.X)
            assert rep.corollary_value >= rep.sigma - 1e-12
            if rep.corollary_holds:
                assert rep.sufficient
                checked += 1
        assert checked > 20  # the sampled family actually exercises the implication

    def test_uniform_alpha_limit_separates_regimes(self, sce42, sce42_mats):
        rep = vv.check_d1_condition(
            {k: vv.DroopCurve(alpha=1.0, deadband=0.04) for k in sce42.inverters},
            sce42_mats.X,
        )
        a_star = rep.uniform_alpha_limit
        below = vv.check_d1_condition(
            {k: vv.DroopCurve(alpha=0.99 * a_star, deadband=0.04) for k in sce42.inverters},
            sce42_mats.X,
        )
        above = vv.check_d1_condition(
            {k: vv.DroopCurve(alpha=1.01 * a_star, deadband=0.04) for k in sce42.inverters},
            sce42_mats.X,
        )
        assert below.sufficient and not above.sufficient

    def test_model_gives_the_dense_values(self, sce42):
        rng = np.random.default_rng(67)
        feeders = [sce42] + [random_feeder(rng, int(rng.integers(1, 30))) for _ in range(20)]
        for f in feeders:
            mats = vv.sensitivity_matrices(f)
            sites = rng.choice(f.n, size=int(rng.integers(1, f.n + 1)), replace=False)
            curves = {int(k): vv.DroopCurve(alpha=float(rng.uniform(0.5, 40.0)), deadband=0.04)
                      for k in sites}

            def spectral(X):
                rep = vv.check_d1_condition(curves, X)
                return (rep.sigma, rep.corollary_value, rep.uniform_alpha_limit,
                        vv.d3_stepsize_bound(curves, X), vv.lipschitz_constant(curves, X))

            from_model = spectral(mats)
            assert "X" not in mats.__dict__
            assert from_model == spectral(mats.X)


class TestD3Bound:
    def test_scalar_value(self):
        curves = {0: vv.DroopCurve(alpha=3.0)}
        assert vv.d3_stepsize_bound(curves, np.array([[0.5]])) == pytest.approx(0.8)

    def test_small_slope_limit(self):
        curves = {0: vv.DroopCurve(alpha=1e-12)}
        assert vv.d3_stepsize_bound(curves, np.array([[0.5]])) == pytest.approx(2.0)

    def test_matches_direct_eigenvalues(self, sce42, sce42_mats):
        rng = np.random.default_rng(61)
        curves = {
            k: vv.DroopCurve(alpha=float(rng.uniform(1, 30)), deadband=0.04)
            for k in sce42.inverters
        }
        bundle = CurveBundle(curves)
        sub = sce42_mats.X[np.ix_(bundle.positions, bundle.positions)]
        lam = np.linalg.eigvals(np.diag(bundle.alpha_bar) @ sub)
        assert np.abs(lam.imag).max() < 1e-12
        expect = 2.0 / (1.0 + lam.real.max())
        assert vv.d3_stepsize_bound(curves, sce42_mats.X) == pytest.approx(expect, rel=1e-10)


class TestObjective:
    def test_zero(self, feeder2):
        mats = vv.sensitivity_matrices(feeder2)
        curves = {0: vv.DroopCurve(alpha=1.0, deadband=0.04)}
        assert vv.objective_f(mats, curves, np.zeros(1)) == 0.0

    def test_term_by_term_arithmetic(self, feeder2):
        mats = vv.sensitivity_matrices(feeder2)
        curves = {0: vv.DroopCurve(alpha=1.0, deadband=0.04)}
        cost, quad, linear = vv.objective_terms(mats, curves, np.array([-0.02]))
        assert cost == pytest.approx(0.0002 + 0.0004, rel=1e-12)
        assert quad == pytest.approx(0.0001, rel=1e-12)
        assert linear == pytest.approx(-0.001, rel=1e-12)
        assert cost + quad + linear == pytest.approx(-0.0003, rel=1e-12)

    def test_tradeoff_form_differs_by_constant(self, sce42, sce42_mats):
        rng = np.random.default_rng(67)
        curves = {k: vv.DroopCurve(alpha=12.0, deadband=0.04) for k in sce42.inverters}
        q_min, q_max = vv.limits_arrays(sce42)
        for _ in range(5):
            q = rng.uniform(q_min, q_max)
            cost, deviation, constant = vv.objective_tradeoff(sce42_mats, curves, q)
            direct = vv.objective_f(sce42_mats, curves, q)
            assert cost + deviation - constant == pytest.approx(direct, rel=1e-9, abs=1e-12)

    def test_local_minimality_at_equilibrium(self, sce42, sce42_mats):
        cfg = vv.ControllerConfig.from_feeder(sce42, "d1", alpha=27.0)
        eq = vv.solve_equilibrium(
            sce42, curves=cfg.curves, q_min=cfg.q_min, q_max=cfg.q_max,
            tol=1e-11, mats=sce42_mats,
        )
        f_star = vv.objective_f(sce42_mats, cfg.curves, eq.q_star)
        for k in cfg.bundle.positions:
            for eps in (1e-4, -1e-4):
                probe = eq.q_star.copy()
                probe[k] = np.clip(probe[k] + eps, cfg.q_min[k], cfg.q_max[k])
                assert vv.objective_f(sce42_mats, cfg.curves, probe) >= f_star - 1e-12

    def test_variational_inequality_at_box_corners(self, feeder2):
        # optimality certificate against every corner of a small box
        curves = {0: vv.DroopCurve(alpha=1.0, deadband=0.04)}
        mats = vv.sensitivity_matrices(feeder2)
        q_min, q_max = np.array([-0.015]), np.array([0.015])
        eq = vv.solve_equilibrium(feeder2, curves=curves, q_min=q_min, q_max=q_max, tol=1e-12)
        grad = vv.objective_subgradient(mats, curves, eq.q_star)
        for corner in (q_min, q_max):
            assert grad @ (corner - eq.q_star) >= -1e-10

    def test_variational_inequality_at_all_controllable_corners(self, sce42, sce42_mats):
        import itertools

        cfg = vv.ControllerConfig.from_feeder(sce42, "d1", alpha=27.0)
        eq = vv.solve_equilibrium(
            sce42, curves=cfg.curves, q_min=cfg.q_min, q_max=cfg.q_max,
            tol=1e-11, mats=sce42_mats,
        )
        grad = vv.objective_subgradient(sce42_mats, cfg.curves, eq.q_star)
        act = cfg.bundle.positions
        for bits in itertools.product((0, 1), repeat=act.size):
            corner = eq.q_star.copy()
            corner[act] = np.where(bits, cfg.q_max[act], cfg.q_min[act])
            assert grad @ (corner - eq.q_star) >= -1e-8


class TestSolveEquilibrium:
    def test_nominal_profile_stays_idle(self):
        f = two_bus_feeder(v0=1.0)
        eq = vv.solve_equilibrium(f, curves={0: vv.DroopCurve(alpha=1.0, deadband=0.04)})
        assert eq.q_star == pytest.approx([0.0], abs=1e-12)
        assert eq.v_star == pytest.approx([1.0], abs=1e-12)

    def test_single_line_closed_form(self, feeder2):
        eq = vv.solve_equilibrium(
            feeder2, curves={0: vv.DroopCurve(alpha=1.0, deadband=0.04)}, tol=1e-12
        )
        assert eq.q_star == pytest.approx([-0.02], abs=1e-10)
        assert eq.v_star == pytest.approx([1.04], abs=1e-10)
        assert eq.fixed_point_residual < 1e-12

    def test_agrees_with_converged_d1(self, sce42, sce42_mats):
        cfg = vv.ControllerConfig.from_feeder(sce42, "d1", alpha=10.0)
        traj = vv.simulate(sce42, cfg, mats=sce42_mats, tol=1e-12, max_iter=2000)
        eq = vv.solve_equilibrium(
            sce42, curves=cfg.curves, q_min=cfg.q_min, q_max=cfg.q_max,
            tol=1e-12, mats=sce42_mats,
        )
        np.testing.assert_allclose(traj.final_q, eq.q_star, atol=1e-9)

    def test_budget_exhaustion(self, feeder2):
        with pytest.raises(vv.MaxIterations):
            vv.solve_equilibrium(
                feeder2, curves={0: vv.DroopCurve(alpha=1.0, deadband=0.04)},
                tol=0.0, max_iter=50,
            )

    def test_last_allowed_update_may_converge(self, sce42, sce42_mats):
        # on sce42 at alpha 27 one Newton update meets tol 1e-6: a budget of
        # one update must return it, a budget of none must not
        cfg = vv.ControllerConfig.from_feeder(sce42, "d1", alpha=27.0)
        kw = dict(curves=cfg.curves, q_min=cfg.q_min, q_max=cfg.q_max, mats=sce42_mats)
        free = vv.solve_equilibrium(sce42, **kw)
        assert free.iterations == 1
        tight = vv.solve_equilibrium(sce42, max_iter=1, **kw)
        assert tight.iterations == 1
        np.testing.assert_array_equal(tight.q_star, free.q_star)
        with pytest.raises(vv.MaxIterations, match="after 0 iterations"):
            vv.solve_equilibrium(sce42, max_iter=0, **kw)

    @pytest.mark.parametrize("tol", [np.nan, -1e-6])
    def test_bad_tol_rejected(self, feeder2, tol):
        with pytest.raises(vv.InvalidRecord, match="tol"):
            vv.solve_equilibrium(
                feeder2, curves={0: vv.DroopCurve(alpha=1.0, deadband=0.04)}, tol=tol,
            )

    @pytest.mark.parametrize("q_min, q_max, error", [
        ([np.nan], [1.0], vv.InvalidRecord),  # once ran out its budget at residual nan
        ([0.1], [-0.1], vv.InvalidRecord),
        ([-1.0, -1.0], [1.0, 1.0], vv.DimensionMismatch),
    ], ids=["nan", "inverted", "wrong-length"])
    def test_bad_box_rejected(self, feeder2, q_min, q_max, error):
        with pytest.raises(error):
            vv.solve_equilibrium(
                feeder2, curves={0: vv.DroopCurve(alpha=1.0, deadband=0.04)},
                q_min=np.array(q_min), q_max=np.array(q_max), max_iter=50,
            )


@st.composite
def feeders_with_curves(draw, alpha_max=None, table_share=0.5):
    """A random small feeder with droop and table curves of slopes up to
    ``alpha_max`` (drawn up to 2000 when omitted); ``table_share`` of the
    curves are tables on average."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if alpha_max is None:
        alpha_max = draw(st.floats(1.0, 2000.0))
    n = draw(st.integers(2, 10))
    records, lines = random_tree_records(rng, n, z_lo=1e-4, z_hi=2e-2)
    buses = [records[0]] + [
        vv.Bus(b.id, p_c=float(rng.uniform(0.0, 1.0)), q_c=float(rng.uniform(0.0, 0.3)),
               p_g=float(rng.uniform(0.0, 1.0)))
        for b in records[1:]
    ]
    sites = rng.choice(np.arange(1, n + 1), size=int(rng.integers(1, n + 1)), replace=False)
    inverters, curves = {}, {}
    for b in sites.tolist():
        s = float(rng.uniform(0.05, 1.5))
        inverters[b] = vv.Inverter(s=s, p=float(rng.uniform(0.0, s)))
        a1, a2 = rng.uniform(1.0, alpha_max, size=2)
        h = float(rng.choice([0.0, 0.01, 0.02]))
        if rng.random() < 1.0 - table_share:
            curves[b] = vv.DroopCurve(alpha=float(a1), deadband=2 * h)
        else:
            h = max(h, 0.005)
            u1, u2 = a1 * 0.01, a1 * 0.01 + a2 * 0.05
            curves[b] = vv.TableCurve([(-h - 0.06, u2), (-h - 0.01, u1), (-h, 0.0),
                                       (h, 0.0), (h + 0.01, -u1), (h + 0.06, -u2)])
    feeder = vv.build_feeder(buses, lines, inverters=inverters, slack_label=0,
                             v0=draw(st.floats(0.95, 1.06)))
    return feeder, {feeder.position[b]: c for b, c in curves.items()}


class TestWarmStartedPlant:
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(feeders_with_curves(alpha_max=20.0, table_share=1.0), st.floats(0.2, 1.0))
    def test_d3_matches_cold_sweep_oracle(self, drawn, share):
        # the oracle steps the law by hand on voltages from a cold sweep per state
        feeder, curves = drawn
        mats = vv.sensitivity_matrices(feeder)
        q_min, q_max = vv.limits_arrays(feeder)
        cfg = vv.ControllerConfig(kind="d3", curves=curves, q_min=q_min, q_max=q_max,
                                  gamma3=share * vv.d3_stepsize_bound(curves, mats.X))
        steps = 12
        traj = vv.simulate(feeder, cfg, plant="distflow", tol=0.0, max_iter=steps,
                           oscillation_window=None)
        q = vv.project_box(np.zeros(feeder.n), q_min, q_max)
        for t in range(steps + 1):
            v = vv.distflow_sweep(feeder, q, tol=1e-12).v
            np.testing.assert_allclose(traj.q[t], q, rtol=0, atol=1e-9)
            np.testing.assert_allclose(traj.v[t], v, rtol=0, atol=1e-9)
            q = vv.step(q, v, cfg, feeder.v_nom)
        assert traj.sweep_iterations >= steps + 1


class TestVerdicts:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(feeders_with_curves(), st.sampled_from(["d1", "d2", "d3"]), st.floats(1e-3, 2.0),
           st.booleans())
    def test_never_converged_on_nonfinite_state(self, drawn, kind, share, tracked):
        # shares above 1 put d3 past its stepsize bound; d1 may be unstable
        feeder, curves = drawn
        mats = vv.sensitivity_matrices(feeder)
        q_min, q_max = vv.limits_arrays(feeder)
        cfg = vv.ControllerConfig(
            kind=kind, curves=curves, q_min=q_min, q_max=q_max, gamma2=share * 1e-2,
            gamma3=min(share * vv.d3_stepsize_bound(curves, mats.X), 1.0),
        )
        traj = vv.simulate(feeder, cfg, mats=mats, tol=1e-9, max_iter=400,
                           track_objective=tracked)
        if traj.verdict == "converged":
            for a in (traj.q, traj.v, traj.residuals, traj.q_average):
                assert np.isfinite(a).all()

    @pytest.mark.parametrize("kind", ["d1", "d2", "d3"])
    def test_overflowing_loads_raise(self, kind):
        # finite records whose vtilde overflows to -inf once converged with v = -inf
        with np.errstate(over="ignore", invalid="ignore"):
            feeder = two_bus_feeder(r=10, x=10, p_c=1e308, q_c=1e308)
            cfg = two_bus_config(kind, gamma2=0.1, gamma3=0.5)
            with pytest.raises(vv.InvalidRecord, match="non-finite"):
                vv.simulate(feeder, cfg)
            if kind == "d1":
                with pytest.raises(vv.InvalidRecord, match="non-finite"):
                    vv.solve_equilibrium(feeder, cfg.curves, cfg.q_min, cfg.q_max)

    # two segments a side make a table curve, which the array kernel steps
    @pytest.mark.parametrize("curve", [
        vv.DroopCurve(alpha=1.0, deadband=0.04),
        vv.TableCurve([[-0.2, 0.3], [-0.1, 0.1], [-0.02, 0.0], [0.02, 0.0], [0.1, -0.1],
                       [0.2, -0.3]]),
    ], ids=["droop", "table"])
    @pytest.mark.parametrize("kind", ["d1", "d2", "d3"])
    def test_nan_load_around_build_feeder_raises(self, feeder2, curve, kind):
        # build_feeder rejects a nan load; a Feeder made around it once
        # converged at step 1 with v = nan
        feeder = dataclasses.replace(feeder2, p_c=np.array([np.nan]))
        cfg = vv.ControllerConfig(kind=kind, curves={0: curve}, q_min=np.array([-1e6]),
                                  q_max=np.array([1e6]), gamma2=0.1, gamma3=0.5)
        assert (cfg.bundle.end_slopes() is None) == isinstance(curve, vv.TableCurve)
        with np.errstate(invalid="ignore"), pytest.raises(vv.InvalidRecord, match="non-finite"):
            vv.simulate(feeder, cfg)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(feeders_with_curves(), st.floats(2e-3, 5e-2))
    def test_slow_d3_is_not_oscillating(self, drawn, share):
        feeder, curves = drawn
        mats = vv.sensitivity_matrices(feeder)
        q_min, q_max = vv.limits_arrays(feeder)
        cfg = vv.ControllerConfig(
            kind="d3", curves=curves, q_min=q_min, q_max=q_max,
            gamma3=share * vv.d3_stepsize_bound(curves, mats.X),
        )
        traj = vv.simulate(feeder, cfg, mats=mats, tol=1e-9, max_iter=3000,
                           record_every=3000)
        assert traj.verdict != "oscillating"


class TestSemismoothNewton:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(feeders_with_curves())
    def test_matches_d3_oracle(self, drawn):
        feeder, curves = drawn
        mats = vv.sensitivity_matrices(feeder)
        q_min, q_max = vv.limits_arrays(feeder)
        eq = vv.solve_equilibrium(feeder, curves=curves, q_min=q_min, q_max=q_max,
                                  tol=1e-12, mats=mats)
        assert eq.fixed_point_residual < 1e-12
        traj = d3_oracle(feeder, curves, q_min, q_max, mats, tol=1e-14)
        np.testing.assert_allclose(eq.q_star, traj.final_q, rtol=0, atol=1e-10)
        np.testing.assert_allclose(eq.v_star, traj.final_v, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("alpha", [1.0, 10.0, 27.0, 40.0, 100.0, 500.0, 2000.0])
    def test_sce42_matches_d3_oracle(self, sce42, sce42_mats, alpha):
        cfg = vv.ControllerConfig.from_feeder(sce42, "d1", alpha=alpha)
        eq = vv.solve_equilibrium(sce42, curves=cfg.curves, q_min=cfg.q_min, q_max=cfg.q_max,
                                  tol=1e-13, mats=sce42_mats)
        assert eq.fixed_point_residual < 1e-13
        traj = d3_oracle(sce42, cfg.curves, cfg.q_min, cfg.q_max, sce42_mats)
        np.testing.assert_allclose(eq.q_star, traj.final_q, rtol=0, atol=1e-12)
        np.testing.assert_allclose(eq.v_star, traj.final_v, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("alpha", [1.0, 27.0])
    def test_newton_lands_in_two_steps(self, sce42, sce42_mats, alpha):
        cfg = vv.ControllerConfig.from_feeder(sce42, "d1", alpha=alpha)
        eq = vv.solve_equilibrium(sce42, curves=cfg.curves, q_min=cfg.q_min, q_max=cfg.q_max,
                                  tol=1e-12, mats=sce42_mats)
        assert 1 <= eq.iterations <= 2

    def test_saturated_coordinate_lands_on_its_bound(self):
        # a tight power-factor cone saturates one inverter at alpha 27: its
        # Newton row is the identity, so it lands exactly on the bound
        feeder = vv.load_feeder("builtin:sce42", tan_rho=0.05)
        mats = vv.sensitivity_matrices(feeder)
        cfg = vv.ControllerConfig.from_feeder(feeder, "d1", alpha=27.0)
        eq = vv.solve_equilibrium(feeder, curves=cfg.curves, q_min=cfg.q_min,
                                  q_max=cfg.q_max, tol=1e-12, mats=mats)
        act = cfg.bundle.positions
        on_bound = (eq.q_star[act] == cfg.q_min[act]) | (eq.q_star[act] == cfg.q_max[act])
        assert on_bound.sum() == 1
        assert eq.iterations <= 3
        traj = d3_oracle(feeder, cfg.curves, cfg.q_min, cfg.q_max, mats)
        np.testing.assert_allclose(eq.q_star, traj.final_q, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("alpha, bound_calls", [(27.0, 0), (2000.0, 1)])
    def test_d3_fallback_is_lazy(self, sce42, sce42_mats, monkeypatch, alpha, bound_calls):
        # the stepsize bound is computed on the first d3 step only, from the
        # curve-bus block the solver already holds
        calls = []
        bound = vv.dynamics._d3_bound
        monkeypatch.setattr(vv.dynamics, "_d3_bound", lambda *a: calls.append(a) or bound(*a))
        monkeypatch.setattr(vv.dynamics, "d3_stepsize_bound", None)
        cfg = vv.ControllerConfig.from_feeder(sce42, "d1", alpha=alpha)
        eq = vv.solve_equilibrium(sce42, curves=cfg.curves, q_min=cfg.q_min, q_max=cfg.q_max,
                                  tol=1e-12, mats=sce42_mats)
        assert len(calls) == bound_calls
        assert eq.fixed_point_residual < 1e-12


class TestRegretAudit:
    def setup_run(self, sce42, sce42_mats, gamma2, q0=None, steps=400):
        cfg = vv.ControllerConfig.from_feeder(sce42, "d2", alpha=27.0, gamma2=gamma2)
        eq = vv.solve_equilibrium(
            sce42, curves=cfg.curves, q_min=cfg.q_min, q_max=cfg.q_max,
            tol=1e-11, mats=sce42_mats,
        )
        bound = vv.estimate_gradient_bound(sce42_mats, cfg.curves, cfg.q_min, cfg.q_max, seed=0)
        traj = vv.simulate(
            sce42, cfg, mats=sce42_mats, q0=q0, tol=0.0, max_iter=steps,
            track_objective=True, oscillation_window=None,
        )
        return cfg, eq, bound, traj

    def test_standard_bound_holds_from_flat_start(self, sce42, sce42_mats):
        _, eq, bound, traj = self.setup_run(sce42, sce42_mats, 1e-3)
        audit = vv.d2_regret_bound_check(traj, eq.q_star, eq.objective, 1e-3, bound)
        assert audit.standard_holds

    def test_tight_bound_at_first_step(self, sce42, sce42_mats):
        _, eq, bound, traj = self.setup_run(sce42, sce42_mats, 1e-3, steps=1)
        audit = vv.d2_regret_bound_check(traj, eq.q_star, eq.objective, 1e-3, bound)
        assert audit.times[0] == 1
        # at t=1 the distance term dominates and even the tight form holds
        assert audit.average_gap[0] <= audit.tight_bound[0]

    def test_tight_bound_from_equilibrium_start(self, sce42, sce42_mats):
        _, eq, bound, traj = self.setup_run(sce42, sce42_mats, 1e-3, q0=eq_start(sce42, sce42_mats))
        audit = vv.d2_regret_bound_check(traj, traj.q[0], eq.objective, 1e-3, bound)
        assert audit.tight_holds

    def test_requires_tracked_objective(self, sce42, sce42_mats):
        cfg = vv.ControllerConfig.from_feeder(sce42, "d2", alpha=27.0, gamma2=1e-3)
        traj = vv.simulate(sce42, cfg, mats=sce42_mats, max_iter=5)
        with pytest.raises(vv.InvalidRecord):
            vv.d2_regret_bound_check(traj, traj.q[0], 0.0, 1e-3, 1.0)


def eq_start(sce42, sce42_mats):
    cfg = vv.ControllerConfig.from_feeder(sce42, "d1", alpha=27.0)
    eq = vv.solve_equilibrium(
        sce42, curves=cfg.curves, q_min=cfg.q_min, q_max=cfg.q_max,
        tol=1e-12, mats=sce42_mats,
    )
    return eq.q_star


def test_gradient_bound_dominates_samples(sce42, sce42_mats):
    cfg = vv.ControllerConfig.from_feeder(sce42, "d2", alpha=27.0, gamma2=1e-3)
    bound = vv.estimate_gradient_bound(sce42_mats, cfg.curves, cfg.q_min, cfg.q_max, seed=0)
    g0 = np.linalg.norm(vv.objective_subgradient(sce42_mats, cfg.curves, np.zeros(sce42.n)))
    assert bound >= g0
    again = vv.estimate_gradient_bound(sce42_mats, cfg.curves, cfg.q_min, cfg.q_max, seed=0)
    assert bound == again


@pytest.mark.parametrize("alpha", [5.0, 15.0, 27.0, 100.0])
def test_gradient_bound_dominates_box(sce42, sce42_mats, alpha):
    cfg = vv.ControllerConfig.from_feeder(sce42, "d2", alpha=alpha, gamma2=1e-3)
    bound = vv.estimate_gradient_bound(sce42_mats, cfg.curves, cfg.q_min, cfg.q_max)
    rng = np.random.default_rng(73)
    points = [cfg.q_min, cfg.q_max]
    for k in range(400):
        q = rng.uniform(cfg.q_min, cfg.q_max)
        if k % 2:
            q[rng.random(sce42.n) < 0.5] = 0.0
        points.append(q)
    for q in points:
        g = vv.objective_subgradient(sce42_mats, cfg.curves, q)
        assert np.linalg.norm(g) <= bound * (1.0 + 1e-12)


def test_two_bus_controllers_share_equilibrium(feeder2):
    curves = {0: vv.DroopCurve(alpha=1.0, deadband=0.04)}
    lims = dict(q_min=np.array([-1e6]), q_max=np.array([1e6]))
    eq = vv.solve_equilibrium(feeder2, curves=curves, tol=1e-12, **lims)
    d1 = vv.simulate(feeder2, two_bus_config("d1"), tol=1e-12, max_iter=500)
    d2 = vv.simulate(feeder2, two_bus_config("d2", gamma2=0.5), tol=1e-12, max_iter=5000)
    d3 = vv.simulate(feeder2, two_bus_config("d3", gamma3=0.9), tol=1e-12, max_iter=500)
    for traj in (d1, d2, d3):
        assert traj.verdict == "converged"
        np.testing.assert_allclose(traj.final_q, eq.q_star, atol=1e-9)


def test_closed_loop_and_solver_never_build_dense_matrices(sce42):
    # the library reads X only through block/x_times/voltage; the dense
    # n-by-n X and R are for public callers that ask for them
    mats = vv.sensitivity_matrices(sce42)
    droops = vv.ControllerConfig.from_feeder(sce42, "d2", alpha=27.0, gamma2=0.005)
    tables = {k: vv.TableCurve([(-0.08, 3.0), (-0.03, 0.5), (-0.02, 0.0), (0.02, 0.0),
                                (0.03, -0.5), (0.08, -3.0)]) for k in droops.curves}
    table_d3 = vv.ControllerConfig(kind="d3", curves=tables, q_min=droops.q_min,
                                   q_max=droops.q_max, gamma3=0.2)
    assert droops.bundle.end_slopes() is not None  # the float kernel
    assert table_d3.bundle.end_slopes() is None  # the array kernel
    eq = vv.solve_equilibrium(sce42, curves=droops.curves, q_min=droops.q_min,
                              q_max=droops.q_max, mats=mats)
    for config in (droops, table_d3):
        for tracked in (False, True):
            vv.simulate(sce42, config, mats=mats, max_iter=50, track_objective=tracked)
    vv.linearization_error(sce42, eq.q_star, mats=mats)
    assert "X" not in mats.__dict__ and "R" not in mats.__dict__
