import dataclasses
import itertools
import math
import traceback
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import voltvar as vv
from voltvar import dynamics
from voltvar.control import CurveBundle
from voltvar.network import Bus, Line

from helpers import (
    NUMBERS,
    d3_oracle,
    package_outcome,
    random_feeder,
    random_tree_records,
    reference_array_kernel,
    reference_float_kernel,
    reference_simulate,
    two_bus_feeder,
)


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


@pytest.mark.parametrize("kind", ["d1", "d2", "d3"])
def test_list_box_steps_like_an_array_box(sce42, sce42_mats, kind):
    # the config keeps the float arrays of the box it checked; step once
    # indexed the caller's lists and raised a bare TypeError
    arrays = vv.ControllerConfig.from_feeder(sce42, kind, alpha=10.0, gamma2=0.1, gamma3=0.5)
    lists = vv.ControllerConfig(kind=kind, curves=arrays.curves, q_min=arrays.q_min.tolist(),
                                q_max=arrays.q_max.tolist(), gamma2=0.1, gamma3=0.5)
    assert isinstance(lists.q_min, np.ndarray) and isinstance(lists.q_max, np.ndarray)
    q = 0.5 * arrays.q_max
    v = sce42_mats.voltage(q)
    np.testing.assert_array_equal(vv.step(q, v, lists, sce42.v_nom),
                                  vv.step(q, v, arrays, sce42.v_nom))


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
        # fractional counts and these windows once ran on (forever at tol 0),
        # and strings raised a bare TypeError
        ({"max_iter": 2.5}, vv.InvalidRecord),
        ({"record_every": 1.5}, vv.InvalidRecord),
        ({"oscillation_window": 0}, vv.InvalidRecord),
        ({"oscillation_window": -3}, vv.InvalidRecord),
        ({"oscillation_window": 2.5}, vv.InvalidRecord),
        ({"max_iter": "50"}, vv.InvalidRecord),
        ({"tol": "1e-6"}, vv.InvalidRecord),
    ], ids=["record_every", "max_iter", "q0-shape", "nan-tol", "negative-tol",
            "fractional-max_iter", "fractional-record_every", "zero-window",
            "negative-window", "fractional-window", "string-max_iter", "string-tol"])
    def test_bad_run_arguments_rejected(self, sce42, sce42_mats, kwargs, error):
        cfg = vv.ControllerConfig.from_feeder(sce42, "d1", alpha=10.0)
        with pytest.raises(error):
            vv.simulate(sce42, cfg, mats=sce42_mats, **kwargs)

    def test_numpy_integer_counts_accepted(self, sce42, sce42_mats):
        cfg = vv.ControllerConfig.from_feeder(sce42, "d1", alpha=10.0)
        plain = vv.simulate(sce42, cfg, mats=sce42_mats, max_iter=50, record_every=2,
                            oscillation_window=10)
        numpy = vv.simulate(sce42, cfg, mats=sce42_mats, max_iter=np.int64(50),
                            record_every=np.int32(2), oscillation_window=np.int64(10))
        assert numpy.verdict == plain.verdict == "converged"
        np.testing.assert_array_equal(numpy.q, plain.q)

    def test_wrong_box_length_rejected(self, sce42, sce42_mats):
        # once a bare numpy broadcast ValueError from project_box
        q_min, q_max = vv.limits_arrays(sce42)
        cfg = vv.ControllerConfig.from_feeder(sce42, "d1", alpha=10.0)
        cfg = dataclasses.replace(cfg, q_min=np.append(q_min, 0.0), q_max=np.append(q_max, 0.0))
        with pytest.raises(vv.DimensionMismatch):
            vv.simulate(sce42, cfg, mats=sce42_mats)

    # -1 once wrapped onto the last bus and the run reported converged;
    # 999 raised a bare IndexError
    @pytest.mark.parametrize("position", [-1, 41, 999, 2.5, "3"])
    def test_curve_position_outside_model_rejected(self, sce42, sce42_mats, position):
        q_min, q_max = vv.limits_arrays(sce42)
        curves = {position: vv.DroopCurve(5.0)}
        with pytest.raises(vv.InvalidRecord, match="curve positions"):
            vv.ControllerConfig(kind="d1", curves=curves, q_min=q_min, q_max=q_max)
        with pytest.raises(vv.InvalidRecord, match="curve positions"):
            vv.solve_equilibrium(sce42, curves, mats=sce42_mats)

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
    @pytest.mark.parametrize("gamma", [np.inf, np.nan, "0.1"])  # a string: once a TypeError
    def test_nonfinite_stepsize_rejected(self, sce42, kind, gamma):
        with pytest.raises(vv.InvalidRecord):
            vv.ControllerConfig.from_feeder(sce42, kind, alpha=10.0, gamma2=gamma, gamma3=gamma)


def kernel_inputs(sce42_mats, m, kind, start, tracked, shape="droop"):
    """The ``_float_kernel`` arguments less ``q_sum`` for ``m`` curve buses:
    X on sce42's first ``m`` inverters, or on 16 buses of a random feeder,
    random base errors on both sides of the plateaus and boxes narrow
    enough to saturate.  ``start`` is ``zero`` (d2's kink), ``saturated``
    (a box corner) or ``interior``.  ``shape`` is ``droop`` or ``table``:
    one segment per side with unequal slopes, and plateau edges that the
    table extrapolates from its end points, or a lone zero point."""
    rng = np.random.default_rng([m, ("zero", "saturated", "interior").index(start)])
    if m == 16:
        feeder = random_feeder(np.random.default_rng(16), 40)
        mats = vv.sensitivity_matrices(feeder)
        act = np.sort(rng.choice(feeder.n, size=m, replace=False))
    else:
        mats, act = sce42_mats, np.array(sorted(sce42_mats.feeder.inverters)[:m])

    def curve():
        if shape == "droop":
            return vv.DroopCurve(alpha=float(rng.uniform(5.0, 40.0)),
                                 deadband=float(rng.choice([0.0, 0.02, 0.04])))
        zeros = ([(0.0, 0.0)], [(-0.02, 0.0), (0.03, 0.0)])[int(rng.integers(2))]
        return vv.TableCurve([(-0.2, float(rng.uniform(1.0, 8.0))), *zeros,
                              (0.25, -float(rng.uniform(1.0, 8.0)))])

    bundle = CurveBundle({int(k): curve() for k in act})
    hi_box = rng.uniform(0.05, 0.3, m)
    lo_box = -rng.uniform(0.05, 0.3, m)
    qa0 = {"zero": np.zeros(m), "saturated": np.where(rng.random(m) < 0.5, lo_box, hi_box),
           "interior": 0.9 * rng.uniform(lo_box, hi_box)}[start]
    return (kind, mats.block(act), rng.uniform(-0.06, 0.06, m), bundle, bundle.end_slopes(),
            qa0, lo_box, hi_box, 0.05 if kind == "d2" else None,
            0.5 if kind == "d3" else None), (float(rng.uniform(-1.0, 1.0)) if tracked else None)


class TestGeneratedFloatKernel:
    @pytest.mark.parametrize("tracked", [False, True], ids=["untracked", "tracked"])
    @pytest.mark.parametrize("m", [1, 2, 5, 16])
    @pytest.mark.parametrize("kind", ["d1", "d2", "d3"])
    def test_matches_reference_loop_bit_for_bit(self, sce42_mats, kind, m, tracked):
        moved = set()
        for shape, start in itertools.product(("droop", "table"),
                                              ("zero", "saturated", "interior")):
            args, const_obj = kernel_inputs(sce42_mats, m, kind, start, tracked, shape)
            # every state of the reference loop, with its q_sum and objective sum
            sums, cum, ref = [0.0] * m, 0.0, []
            for _, (q, res, v, obj) in zip(range(400), reference_float_kernel(
                    *args, sums, const_obj)):
                assert v is None and (obj is None) == (not tracked)
                ref.append((q, res, obj, list(sums), cum))
                cum += obj if tracked else 0.0
                moved.add(res > 0.0)
            # targets t + 1 yield every state; long strides reach the same
            # states at their events, with the smallest residual in between
            for events in (range(1, 400), (1, 7, 50, 51, 123, 399)):
                q_sum = [0.0] * m
                kernel = dynamics._float_kernel(*args, q_sum, 0.0, const_obj)
                got = [(next(kernel), list(q_sum))]
                got += [(kernel.send(target), list(q_sum)) for target in events]
                kernel.close()
                last = 0
                for (t, q, res, v, obj, low, cum), q_sum in got:
                    q_ref, res_ref, obj_ref, sums_ref, cum_ref = ref[t]
                    # hex tells -0.0 from 0.0, which == does not
                    assert list(map(float.hex, q)) == list(map(float.hex, q_ref)), start
                    assert res.hex() == res_ref.hex() and obj == obj_ref, start
                    assert v is None and q_sum == sums_ref and cum == cum_ref, start
                    if t:
                        assert low == min(r for _, r, *_ in ref[last + 1:t + 1]), start
                    last = t
                assert [state[0] for state, _ in got] == [0, *events]
        assert True in moved  # the states changed

    @pytest.mark.parametrize("kind", ["d1", "d2", "d3"])
    def test_kernel_stops_at_the_first_residual_below_tol(self, sce42_mats, kind):
        args, const_obj = kernel_inputs(sce42_mats, 5, kind, "interior", True)
        res = [r for _, (_, r, _, _) in zip(range(400), reference_float_kernel(
            *args, [0.0] * 5, const_obj))]
        moved = sorted(r for r in res if r > 0.0)
        tol = moved[len(moved) // 2]  # the median non-zero residual
        first = next(t for t in range(1, 400) if res[t] < tol)
        kernel = dynamics._float_kernel(*args, [0.0] * 5, tol, const_obj)
        assert next(kernel)[0] == 0
        assert kernel.send(399)[:3:2] == (first, res[first])

    def test_compiled_once_per_shape(self, sce42, sce42_mats):
        dynamics._float_step.cache_clear()
        for alpha, gamma2, seed in ((10.0, 1e-2, 1), (27.0, 5e-3, 2)):
            cfg = vv.ControllerConfig.from_feeder(sce42, "d2", alpha=alpha, gamma2=gamma2)
            q0 = np.random.default_rng(seed).uniform(cfg.q_min, cfg.q_max)
            vv.simulate(sce42, cfg, mats=sce42_mats, q0=q0, max_iter=50, track_objective=True)
        info = dynamics._float_step.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    def test_seventeen_buses_never_reach_the_generator(self, monkeypatch):
        rng = np.random.default_rng(17)
        feeder = random_feeder(rng, 30)
        curves = {int(k): vv.DroopCurve(alpha=10.0, deadband=0.02)
                  for k in rng.choice(feeder.n, size=17, replace=False)}
        cfg = vv.ControllerConfig(kind="d2", curves=curves, q_min=np.full(feeder.n, -0.1),
                                  q_max=np.full(feeder.n, 0.1), gamma2=0.01)
        assert cfg.bundle.end_slopes() is not None
        monkeypatch.setattr(dynamics, "_float_step", None)  # any use of it fails
        for tracked in (False, True):
            vv.simulate(feeder, cfg, max_iter=20, track_objective=tracked)

    @pytest.mark.parametrize("kind", ["d1", "d2", "d3"])
    def test_source_holds_no_coefficients(self, sce42_mats, kind):
        # the text depends on the shape alone: no number of the run is written into it
        args, const_obj = kernel_inputs(sce42_mats, 5, kind, "interior", True)
        h = args[3]._hinges
        coefs = np.concatenate([np.ravel(a) for a in (
            *args[1:3], *args[4], args[3].lo, args[3].hi, *args[5:8], h.tq, h.tkq, h.a, h.b)])
        gammas = [g for g in args[8:10] if g is not None]
        coefs = {*coefs.tolist(), *gammas, const_obj} - {0.0, 0.5, 1.0}
        src = dynamics._float_step_source(kind, 5, 2)
        assert coefs and not [c for c in coefs if repr(c) in src]

        def constants(code):
            for c in code.co_consts:
                yield from constants(c) if isinstance(c, types.CodeType) else (c,)

        code = dynamics._float_step(kind, 5, 2).__code__
        assert {c for c in constants(code) if isinstance(c, float)} <= {0.0, 0.5, 1.0}

    def test_profiles_and_tracebacks_name_the_shape(self):
        where = "<voltvar float kernel d1 m=2 untracked>"
        kernel = dynamics._float_step("d1", 2, 0)
        assert kernel.__code__.co_filename == where
        assert dynamics._float_step("d2", 5, 2).__code__.co_filename == (
            "<voltvar float kernel d2 m=5 tracked>")
        states = kernel([[1.0]], *[[0.0, 0.0]] * 10, None, None, [0.0, 0.0], 0.0, None)
        with pytest.raises(ValueError) as err:
            next(states)  # one row where the shape needs two
        frame = traceback.extract_tb(err.value.__traceback__)[-1]
        assert frame.filename == where and frame.line.startswith("(x0_0, x0_1, )")


def sce42_config(sce42, kind, alpha, curve="droop"):
    """sce42's d1/d2/d3 config with droops of slope ``alpha``, which the
    float kernel steps, or with table curves of slopes ``alpha`` and
    ``0.6 alpha`` on each side, which the array kernel steps."""
    cfg = vv.ControllerConfig.from_feeder(sce42, kind, alpha=alpha, gamma2=1e-2, gamma3=0.5)
    if curve == "table":
        table = vv.TableCurve([(-0.1, 0.06 * alpha), (-0.05, 0.03 * alpha), (-0.02, 0.0),
                               (0.02, 0.0), (0.05, -0.03 * alpha), (0.1, -0.06 * alpha)])
        cfg = dataclasses.replace(cfg, curves={k: table for k in cfg.curves})
    return cfg


def assert_same_trajectory(got, want):
    for field in dataclasses.fields(vv.Trajectory):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field.name
        else:
            assert a == b, field.name


class TestDecisionSteps:
    """``simulate`` runs its kernel straight to the next record, window
    boundary or ``max_iter``; the step-by-step loop of ``reference_simulate``
    must give every field of the same Trajectory."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_the_step_by_step_loop(self, sce42, sce42_mats, data):
        draw = data.draw
        kind = draw(st.sampled_from(["d1", "d2", "d3"]))
        curve = draw(st.sampled_from(["droop", "table"]))
        plant = draw(st.sampled_from(["linear", "distflow"])) if curve == "table" else "linear"
        # d1 oscillates from alpha 40 on, d3 at 150
        cfg = sce42_config(sce42, kind, draw(st.sampled_from([10.0, 40.0, 150.0])), curve)
        seed = draw(st.none() | st.integers(0, 3))
        q0 = None if seed is None else np.random.default_rng(seed).uniform(cfg.q_min, cfg.q_max)
        tol = draw(st.sampled_from([0.0, 1e-9, 1e-6, 1e-3]) | st.floats(0.0, 1e-2))
        window = draw(st.none() | st.integers(1, 60))
        # past max_iter, records leave every stretch to end on a window boundary
        record_every = draw(st.integers(1, 60) | st.just(window or 1) | st.just(400))
        # max_iter at a multiple of the window or of record_every, or anywhere
        cap = 60 if plant == "distflow" else 400
        max_iter = draw(st.integers(1, cap) | st.integers(1, 6).map(
            lambda k: min(k * (window or record_every), cap)))
        kw = dict(plant=plant, q0=q0, tol=tol, max_iter=max_iter, record_every=record_every,
                  track_objective=draw(st.booleans()), oscillation_window=window,
                  mats=sce42_mats)
        assert_same_trajectory(vv.simulate(sce42, cfg, **kw),
                               reference_simulate(sce42, cfg, **kw))

    @pytest.mark.parametrize("kind", ["d1", "d2", "d3"])
    def test_array_kernel_reaches_the_same_states_at_its_events(self, sce42_mats, kind):
        # from zero, d2's residuals rise again at step 3: a low that ran on
        # from the stretch before would read the smaller residual of step 2
        args, _ = kernel_inputs(sce42_mats, 5, kind, "zero", False, "table")
        _, x_aa, base_err, bundle, _, qa0, lo_box, hi_box, gamma2, gamma3 = args

        def verr_of(qa):
            return x_aa @ qa + base_err, None

        def f_active(qa):
            return float(bundle.cost(qa).sum() + 0.5 * qa @ (x_aa @ qa))

        law = (kind, verr_of, qa0, bundle, lo_box, hi_box, gamma2, gamma3, f_active)
        sums, cum, ref = np.zeros(5), 0.0, []
        for _, (q, res, _, obj) in zip(range(200), reference_array_kernel(*law, sums)):
            ref.append((q, res, obj, sums.copy(), cum))
            cum += obj
        assert len({res for _, res, *_ in ref}) > 10  # the states moved
        q_sum, events = np.zeros(5), (1, 2, 3, 9, 60, 61, 199)
        kernel = dynamics._array_kernel(*law, q_sum, 0.0)
        got = [(next(kernel), q_sum.copy())]
        got += [(kernel.send(target), q_sum.copy()) for target in events]
        kernel.close()
        last = 0
        for (t, q, res, v, obj, low, cum), q_sum in got:
            q_ref, res_ref, obj_ref, sums_ref, cum_ref = ref[t]
            assert (q.tobytes(), res, obj, cum) == (q_ref.tobytes(), res_ref, obj_ref, cum_ref)
            assert v is None and q_sum.tobytes() == sums_ref.tobytes()
            if t:
                assert low == min(r for _, r, *_ in ref[last + 1:t + 1])
            last = t
        assert [state[0] for state, _ in got] == [0, *events]

    def test_window_minimum_reads_every_step_of_the_window(self, sce42, sce42_mats):
        # with no record before max_iter each stretch ends on a window
        # boundary, and this run's window minima lie inside the windows: read
        # at the boundaries alone, they kept falling until max_iter
        cfg = sce42_config(sce42, "d3", 150.0)
        kw = dict(mats=sce42_mats, q0=np.random.default_rng(0).uniform(cfg.q_min, cfg.q_max),
                  tol=0.0, max_iter=400, record_every=1000, oscillation_window=20)
        got = vv.simulate(sce42, cfg, **kw)
        assert (got.verdict, got.steps) == ("oscillating", 40)
        assert_same_trajectory(got, reference_simulate(sce42, cfg, **kw))

    @pytest.mark.parametrize("curve", ["droop", "table"])
    @pytest.mark.parametrize("kind", ["d1", "d3"])
    def test_convergence_on_a_decision_step(self, sce42, sce42_mats, kind, curve):
        # the run converges at step c; let c be a window boundary, a record,
        # max_iter, or one step past max_iter
        cfg = sce42_config(sce42, kind, 10.0, curve)
        c = vv.simulate(sce42, cfg, mats=sce42_mats, oscillation_window=None).converged_at
        assert c is not None and c > 4
        divisor = max(k for k in range(1, c) if c % k == 0)
        seen = set()
        for max_iter, window, record_every in itertools.product(
                (c - 1, c, c + 1, 2 * c), (None, 1, divisor, c, c + 1), (1, divisor, c, 7)):
            kw = dict(max_iter=max_iter, oscillation_window=window, record_every=record_every,
                      track_objective=True, mats=sce42_mats)
            got = vv.simulate(sce42, cfg, **kw)
            assert_same_trajectory(got, reference_simulate(sce42, cfg, **kw))
            seen.add(got.verdict)
        assert "converged" in seen and "max_iterations" in seen


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
            drawn = {int(k): vv.DroopCurve(alpha=float(rng.uniform(0.5, 40.0)), deadband=0.04)
                     for k in sites}

            def spectral(curves, X):
                rep = vv.check_d1_condition(curves, X)
                return (rep.sigma, rep.sufficient, rep.corollary_value, rep.corollary_holds,
                        rep.uniform_alpha_limit, vv.d3_stepsize_bound(curves, X),
                        vv.lipschitz_constant(curves, X))

            # no curve is an open loop, with one answer from every function
            from_model = [spectral(curves, mats) for curves in (drawn, {})]
            assert from_model[1] == (0.0, True, 0.0, True, math.inf, 2.0, 0.0)
            assert "X" not in mats.__dict__
            assert from_model == [spectral(curves, mats.X) for curves in (drawn, {})]

    def test_spectra_read_x_through_one_helper(self, sce42, sce42_mats, monkeypatch):
        # the d1 condition, the Lipschitz modulus and the d3 bound take X on
        # the curve buses from one dynamics helper; control knows no model
        seen = []
        helper = dynamics._spectral_block

        def spy(curves, X):
            seen.append(X)
            return helper(curves, X)

        monkeypatch.setattr(dynamics, "_spectral_block", spy)
        curves = vv.ControllerConfig.from_feeder(sce42, "d1", alpha=10.0).bundle
        vv.check_d1_condition(curves, sce42_mats)
        vv.lipschitz_constant(curves, sce42_mats)
        vv.d3_stepsize_bound(curves, sce42_mats.X)
        assert len(seen) == 3 and seen[2] is sce42_mats.X
        assert not any(hasattr(vv.control, name) for name in (
            "_spectral_block", "_modulus", "lipschitz_constant", "SensitivityMatrices"))


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

    def test_curves_and_box_default_to_the_feeder(self, sce42, sce42_mats):
        stored = vv.ControllerConfig.from_feeder(sce42, "d1")
        explicit = vv.solve_equilibrium(sce42, stored.curves, stored.q_min, stored.q_max,
                                        mats=sce42_mats)
        default = vv.solve_equilibrium(sce42, mats=sce42_mats)
        np.testing.assert_array_equal(default.q_star, explicit.q_star)

    def test_one_sided_box_keeps_the_given_bound(self, sce42, sce42_mats):
        # a lone bound was once dropped for the feeder's limits: with q_max = 0
        # alone, q* came out at 0.004-0.106 on the curve buses
        curves = vv.ControllerConfig.from_feeder(sce42, "d1", alpha=27.0).curves
        lo, hi = vv.limits_arrays(sce42)
        zeros, floor = np.zeros(sce42.n), np.minimum(hi, 0.05)
        for given, box in ((dict(q_max=zeros), (lo, zeros)), (dict(q_min=floor), (floor, hi))):
            got = vv.solve_equilibrium(sce42, curves, **given, mats=sce42_mats)
            want = vv.solve_equilibrium(sce42, curves, *box, mats=sce42_mats)
            np.testing.assert_array_equal(got.q_star, want.q_star)
            assert (box[0] <= got.q_star).all() and (got.q_star <= box[1]).all()

    def test_budget_exhaustion(self, sce42, sce42_mats):
        # stiff droops need 45 updates on sce42; five leave the residual high
        cfg = vv.ControllerConfig.from_feeder(sce42, "d1", alpha=5000.0)
        with pytest.raises(vv.MaxIterations, match="after 5 iterations"):
            vv.solve_equilibrium(sce42, curves=cfg.curves, q_min=cfg.q_min, q_max=cfg.q_max,
                                 tol=1e-12, max_iter=5, mats=sce42_mats)

    def test_tol_zero_accepts_an_exact_root(self, feeder2, sce42, sce42_mats):
        # the residual reaches exactly 0.0 after one Newton update; with
        # tol = 0 the solver once ran out its budget there
        curves = {0: vv.DroopCurve(alpha=1.0, deadband=0.04)}
        eq = vv.solve_equilibrium(feeder2, curves=curves, tol=0.0, max_iter=50)
        assert eq.fixed_point_residual == 0.0 and eq.iterations == 1
        eq = vv.solve_equilibrium(sce42, {0: vv.DroopCurve(10.0, 0.04)}, tol=0.0,
                                  max_iter=200, mats=sce42_mats)
        assert eq.fixed_point_residual == 0.0

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

    # these budgets once ran on, to convergence or forever at tol 0
    @pytest.mark.parametrize("max_iter", [2.5, -1, "5"])
    def test_bad_budget_rejected(self, sce42, sce42_mats, max_iter):
        cfg = vv.ControllerConfig.from_feeder(sce42, "d1", alpha=27.0)
        with pytest.raises(vv.InvalidRecord, match="max_iter"):
            vv.solve_equilibrium(sce42, cfg.curves, cfg.q_min, cfg.q_max, max_iter=max_iter,
                                 mats=sce42_mats)

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


def seeded_droop_setup(seed, n=60, m=8):
    """A seeded random feeder with loads, droops on ``m`` buses and a box
    that saturates some of them: ``(feeder, mats, config)``."""
    rng = np.random.default_rng(seed)
    base = random_feeder(rng, n)
    feeder = dataclasses.replace(base, p_c=rng.uniform(0.0, 0.05, n),
                                 q_c=rng.uniform(0.0, 0.02, n))
    act = np.sort(rng.choice(n, size=m, replace=False))
    curves = {int(k): vv.DroopCurve(alpha=float(rng.uniform(2.0, 20.0)),
                                    deadband=float(rng.choice([0.0, 0.02, 0.04])))
              for k in act}
    q_max = np.zeros(n)
    q_max[act] = rng.uniform(0.005, 0.05, m)
    config = vv.ControllerConfig(kind="d1", curves=curves, q_min=-q_max, q_max=q_max)
    return feeder, vv.sensitivity_matrices(feeder), config


class TestOneCurveSet:
    def test_config_curves_is_its_read_only_bundle(self, sce42):
        cfg = vv.ControllerConfig.from_feeder(sce42, "d1", alpha=10.0)
        assert isinstance(cfg.curves, CurveBundle) and cfg.curves is cfg.bundle
        positions = sorted(sce42.inverters)
        assert list(cfg.curves) == positions == cfg.curves.positions.tolist()
        assert cfg.curves == {k: vv.DroopCurve(alpha=10.0, deadband=0.04) for k in positions}
        assert cfg.curves[positions[0]] == vv.DroopCurve(alpha=10.0, deadband=0.04)
        other = min(set(range(sce42.n)) - set(positions))
        assert other not in cfg.curves and cfg.curves.get(other) is None
        with pytest.raises(TypeError):
            cfg.curves[positions[0]] = vv.DroopCurve(alpha=1.0)
        with pytest.raises(TypeError):
            hash(cfg.curves)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.curves = {}
        # a config built from another's curves keeps the same bundle
        again = vv.ControllerConfig(kind="d3", curves=cfg.curves, q_min=cfg.q_min,
                                    q_max=cfg.q_max, gamma3=0.5)
        assert again.curves is cfg.curves
        assert dataclasses.replace(cfg, kind="d2", gamma2=0.01).curves is cfg.curves

    def test_solvers_take_a_config_bundle_without_rebuilding_it(self, sce42, sce42_mats,
                                                                monkeypatch):
        cfg = vv.ControllerConfig.from_feeder(sce42, "d2", alpha=10.0, gamma2=0.01)
        built = []
        init = CurveBundle.__init__

        def spy(self, curves):
            built.append(len(curves))
            init(self, curves)

        monkeypatch.setattr(CurveBundle, "__init__", spy)
        eq = vv.solve_equilibrium(sce42, cfg.curves, cfg.q_min, cfg.q_max, mats=sce42_mats)
        vv.check_d1_condition(cfg.curves, sce42_mats)
        vv.d3_stepsize_bound(cfg.curves, sce42_mats)
        vv.objective_f(sce42_mats, cfg.curves, eq.q_star)
        vv.estimate_gradient_bound(sce42_mats, cfg.curves, cfg.q_min, cfg.q_max)
        vv.simulate(sce42, cfg, mats=sce42_mats, max_iter=20, track_objective=True)
        assert built == []
        vv.solve_equilibrium(sce42, dict(cfg.curves), cfg.q_min, cfg.q_max, mats=sce42_mats)
        assert built == [len(sce42.inverters)]  # a plain dict is checked once

    @pytest.mark.parametrize("setup", ["sce42", "seeded"])
    def test_report_is_bit_equal_to_the_model_and_objective(self, sce42, sce42_mats, setup):
        if setup == "sce42":
            feeder, mats = sce42, sce42_mats
            cfg = vv.ControllerConfig.from_feeder(sce42, "d1", alpha=27.0)
        else:
            feeder, mats, cfg = seeded_droop_setup(11)
        eq = vv.solve_equilibrium(feeder, cfg.curves, cfg.q_min, cfg.q_max, tol=1e-12,
                                  mats=mats)
        assert eq.iterations > 0 and np.any(eq.q_star != 0.0)
        np.testing.assert_array_equal(eq.v_star, mats.voltage(eq.q_star))
        terms = vv.objective_terms(mats, cfg.curves, eq.q_star)
        assert (eq.cost_term, eq.quadratic_term, eq.linear_term) == terms
        assert eq.objective == vv.objective_f(mats, cfg.curves, eq.q_star)
        assert eq.objective == sum(terms)

    @pytest.mark.parametrize("kernel", ["float", "array"])
    def test_tracked_objective_is_unchanged(self, sce42, sce42_mats, kernel):
        # curves on 3 of the 5 inverters; the other two hold a non-zero q0,
        # so the objective's constant part is not zero
        cfg = vv.ControllerConfig.from_feeder(sce42, "d2", alpha=10.0, gamma2=0.02)
        act = sorted(cfg.curves)[:3]
        curves = {k: cfg.curves[k] if kernel == "float" else
                  vv.TableCurve([(-0.1, 1.5), (-0.05, 0.5), (-0.02, 0.0), (0.02, 0.0),
                                (0.05, -0.5), (0.1, -1.5)])
                  for k in act}
        cfg = dataclasses.replace(cfg, curves=curves)
        q0 = np.random.default_rng(79).uniform(cfg.q_min, cfg.q_max)
        traj = vv.simulate(sce42, cfg, mats=sce42_mats, q0=q0, max_iter=200,
                           track_objective=True)
        # the objective as the constant part and the curve-bus terms were
        # formed before X q_o was shared: objective_f on q with act zeroed
        q = q0.clip(cfg.q_min, cfg.q_max)
        q_o = q.copy()
        q_o[act] = 0.0
        const_obj = vv.objective_f(sce42_mats, {}, q_o)
        assert const_obj != 0.0
        x_aa = sce42_mats.block(act)
        base_err = (sce42_mats.voltage(q_o) - sce42.v_nom)[act]
        if kernel == "float":
            bundle = cfg.bundle
            states = reference_float_kernel(
                "d2", x_aa, base_err, bundle, bundle.end_slopes(), q[act], cfg.q_min[act],
                cfg.q_max[act], cfg.gamma2, None, [0.0] * 3, const_obj)
            want = [obj for _, (_, _, _, obj) in zip(traj.times, states)]
        else:
            assert cfg.bundle.end_slopes() is None
            want = [float(cfg.bundle.cost(qa).sum() + 0.5 * qa @ (x_aa @ qa) + qa @ base_err
                          + const_obj) for qa in traj.q[:, act]]
        assert traj.objective.tolist() == want


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

    def test_nan_model_stops_the_solver_at_once(self, feeder2, monkeypatch):
        # the solver once ran its whole 50 000-update budget on a nan
        # residual, about 2 s, before raising MaxIterations
        feeder = dataclasses.replace(feeder2, p_c=np.array([np.nan]))
        cfg = two_bus_config()
        monkeypatch.setattr(dynamics, "_active_update", None)  # no d3 fallback may run
        with np.errstate(invalid="ignore"), pytest.raises(vv.InvalidRecord, match="non-finite"):
            vv.solve_equilibrium(feeder, cfg.curves, cfg.q_min, cfg.q_max)

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


BOUNDARY_VALID = dict(kind="d1", plant="linear", alpha=10.0, deadband=0.04, position=None,
                      gamma2=0.1, gamma3=0.5, box="valid", tol=1e-6, max_iter=50,
                      record_every=1, window=10, q0=None, start=None)
# each field's other values, valid (d2, d3, distflow, None, np.int64) or not
BOUNDARY_PERTURBED = dict(
    dict.fromkeys(("alpha", "deadband", "gamma2", "gamma3", "tol", "max_iter", "record_every"),
                  NUMBERS),
    kind=("d2", "d3", "d4"), plant=("distflow", "dc"), window=NUMBERS + (None,),
    position=(-1, 41, 999, 2.5, "3", np.int64(3)),
    box=("nan", "inf", "inverted", "short", "string"),
    q0=("zeros", "string", "short", "nan", "object"),
    start=("flat", "string", "short", "nan", "object"),
)


# a curve at -1, which numpy would wrap onto the last bus
WRAPPED = {-1: vv.DroopCurve(10.0, 0.04)}


def regret_audit(feeder, mats, config, q_star=None, f_star=0.0, gamma2=0.1, grad_bound=1.0):
    """The audit of a five-step tracked run of ``config``, with the given
    audit arguments."""
    traj = vv.simulate(feeder, config, mats=mats, max_iter=5, track_objective=True,
                       oscillation_window=None)
    q_star = traj.q[0] if q_star is None else q_star
    return vv.d2_regret_bound_check(traj, q_star, f_star, gamma2, grad_bound)


# (call on sce42, its model and a d2 config; the error; the argument its
# message names): each once raised a bare numpy ValueError, IndexError or
# AttributeError, or returned a number (NaN for a NaN q, 0.55 for the
# inverted box)
VECTOR_PROBES = {
    "q0-strings": (lambda f, m, c: vv.simulate(f, c, q0=["a"] * f.n, mats=m),
                   vv.InvalidRecord, "q0"),
    "sweep-strings": (lambda f, m, c: vv.distflow_sweep(f, ["a"] * f.n), vv.InvalidRecord, "q"),
    "linear-strings": (lambda f, m, c: vv.linear_voltage(m, ["a"] * f.n),
                       vv.InvalidRecord, "q"),
    "step-strings": (lambda f, m, c: vv.step(["a"] * f.n, f.v_nom, c, f.v_nom),
                     vv.InvalidRecord, "q"),
    "start-object": (lambda f, m, c: vv.distflow_sweep(f, np.zeros(f.n), start=object()),
                     vv.InvalidRecord, "start"),
    "objective-short": (lambda f, m, c: vv.objective_f(m, c.curves, np.zeros(3)),
                        vv.DimensionMismatch, "q"),
    "step-short-v": (lambda f, m, c: vv.step(np.zeros(f.n), np.zeros(3), c, f.v_nom),
                     vv.DimensionMismatch, "v"),
    "objective-nan": (lambda f, m, c: vv.objective_f(m, c.curves, np.full(f.n, np.nan)),
                      vv.InvalidRecord, "q"),
    "subgradient-nan": (lambda f, m, c: vv.objective_subgradient(
        m, c.curves, np.full(f.n, np.nan)), vv.InvalidRecord, "q"),
    "deviation-nan": (lambda f, m, c: vv.voltage_deviation_form(f, np.full(f.n, np.nan), m),
                      vv.InvalidRecord, "q"),
    "bound-inverted-box": (lambda f, m, c: vv.estimate_gradient_bound(
        m, c.curves, c.q_max, c.q_min), vv.InvalidRecord, "q_min"),
    # -1 wrapped onto the last bus, and each of these returned a number for it
    "objective-position": (lambda f, m, c: vv.objective_f(m, WRAPPED, np.zeros(f.n)),
                           vv.InvalidRecord, "curve positions"),
    "subgradient-position": (lambda f, m, c: vv.objective_subgradient(
        m, WRAPPED, np.zeros(f.n)), vv.InvalidRecord, "curve positions"),
    "bound-position": (lambda f, m, c: vv.estimate_gradient_bound(
        m, WRAPPED, c.q_min, c.q_max), vv.InvalidRecord, "curve positions"),
    "d1-position": (lambda f, m, c: vv.check_d1_condition(WRAPPED, m),
                    vv.InvalidRecord, "curve positions"),
    "d3-position": (lambda f, m, c: vv.d3_stepsize_bound(WRAPPED, m.X),
                    vv.InvalidRecord, "curve positions"),
    "equilibrium-not-a-curve": (lambda f, m, c: vv.solve_equilibrium(
        f, {1: "droop"}, mats=m), vv.InvalidRecord, "curves"),
    "config-curve-list": (lambda f, m, c: vv.ControllerConfig(
        kind="d1", curves=list(c.curves.values()), q_min=c.q_min, q_max=c.q_max),
        vv.InvalidRecord, "curves"),
    # -1 and 1.7 read another bus's entry, 41 raised a bare IndexError and 5
    # a bare ValueError
    "block-negative": (lambda f, m, c: m.block([-1]), vv.InvalidRecord, "act"),
    "block-fraction": (lambda f, m, c: m.block([1.7]), vv.InvalidRecord, "act"),
    "block-past-end": (lambda f, m, c: m.block([41]), vv.InvalidRecord, "act"),
    "block-scalar": (lambda f, m, c: m.block(5), vv.InvalidRecord, "act"),
    "d1-dense-3x3": (lambda f, m, c: vv.check_d1_condition(c.curves, np.eye(3)),
                     vv.InvalidRecord, "curve positions"),
    "d1-dense-string": (lambda f, m, c: vv.check_d1_condition(c.curves, "X"),
                        vv.InvalidRecord, "X"),
    "d1-dense-rectangular": (lambda f, m, c: vv.check_d1_condition(
        c.curves, np.zeros((f.n, f.n - 1))), vv.DimensionMismatch, "X"),
    "d3-dense-nan": (lambda f, m, c: vv.d3_stepsize_bound(
        c.curves, np.full((f.n, f.n), np.nan)), vv.InvalidRecord, "X"),
    "step-short-v_nom": (lambda f, m, c: vv.step(np.zeros(f.n), f.v_nom, c, np.ones(3)),
                         vv.DimensionMismatch, "v_nom"),
    "project-nan": (lambda f, m, c: vv.project_box(np.full(f.n, np.nan), c.q_min, c.q_max),
                    vv.InvalidRecord, "q"),
    # a NaN failed every bound comparison, so the audit held
    "regret-nan-gamma2": (lambda f, m, c: regret_audit(f, m, c, gamma2=np.nan),
                          vv.InvalidRecord, "gamma2"),
    "regret-nan-f_star": (lambda f, m, c: regret_audit(f, m, c, f_star=np.nan),
                          vv.InvalidRecord, "f_star"),
    "regret-nan-q_star": (lambda f, m, c: regret_audit(f, m, c, q_star=np.full(f.n, np.nan)),
                          vv.InvalidRecord, "q_star"),
    # a bool read as bus 1 or as the number 1
    "config-bool-position": (lambda f, m, c: vv.ControllerConfig(
        kind="d1", curves={True: WRAPPED[-1]}, q_min=c.q_min, q_max=c.q_max),
        vv.InvalidRecord, "curve positions"),
    "block-bool": (lambda f, m, c: m.block([True]), vv.InvalidRecord, "act"),
    "spec-bool": (lambda f, m, c: vv.curve_from_spec({"type": "droop", "alpha": True}),
                  vv.InvalidRecord, "droop curve alpha"),
    # the bundle kept 2.5 as bus 2 and -1 as -1, and a string raised a bare
    # AttributeError
    "bundle-fraction": (lambda f, m, c: CurveBundle({2.5: WRAPPED[-1]}),
                        vv.InvalidRecord, "curve positions"),
    "bundle-negative": (lambda f, m, c: CurveBundle(WRAPPED), vv.InvalidRecord,
                        "curve positions"),
    "bundle-not-a-curve": (lambda f, m, c: CurveBundle({1: "x"}), vv.InvalidRecord, "curves"),
    # the model: each of these raised a bare AttributeError, and a model of
    # sce42 at three times its load answered for that load
    "objective-mats-none": (lambda f, m, c: vv.objective_f(None, c.curves, np.zeros(f.n)),
                            vv.InvalidRecord, "mats"),
    "objective-mats-dense": (lambda f, m, c: vv.objective_f(m.X, c.curves, np.zeros(f.n)),
                             vv.InvalidRecord, "mats"),
    "linear-mats-dense": (lambda f, m, c: vv.linear_voltage(m.X, np.zeros(f.n)),
                          vv.InvalidRecord, "mats"),
    "linearization-mats-dense": (lambda f, m, c: vv.linearization_error(
        f, np.zeros(f.n), mats=m.X), vv.InvalidRecord, "mats"),
    "deviation-mats-string": (lambda f, m, c: vv.voltage_deviation_form(
        f, np.zeros(f.n), mats="x"), vv.InvalidRecord, "mats"),
    "simulate-mats-string": (lambda f, m, c: vv.simulate(f, c, mats="x"),
                             vv.InvalidRecord, "mats"),
    "equilibrium-mats-other": (lambda f, m, c: vv.solve_equilibrium(
        f, c.curves, mats=loaded_model()), vv.InvalidRecord, "mats"),
    "simulate-mats-other": (lambda f, m, c: vv.simulate(f, c, mats=loaded_model()),
                            vv.InvalidRecord, "mats"),
    "linearization-mats-other": (lambda f, m, c: vv.linearization_error(
        f, np.zeros(f.n), mats=loaded_model()), vv.InvalidRecord, "mats"),
}


def loaded_model():
    """The model of sce42 at three times its load: the same n, another
    feeder."""
    return vv.sensitivity_matrices(vv.load_feeder("builtin:sce42", load_scale=3.0))


@pytest.mark.parametrize("probe", sorted(VECTOR_PROBES))
def test_vector_arguments_fail_typed(sce42, sce42_mats, probe):
    call, error, name = VECTOR_PROBES[probe]
    config = vv.ControllerConfig.from_feeder(sce42, "d2", gamma2=0.1)
    with pytest.raises(error, match=rf"^(expected )?{name} "):
        call(sce42, sce42_mats, config)


# (call on sce42, its model, a d2 config and the value; the argument its
# message names; a value outside its domain, or None where every finite
# value lies in it): the bool True, NaN, inf, the string "1", -10**5000 and
# that value each raise InvalidRecord. True once read as 1 at every one of
# them, and -10**5000, an int past Python's 4300-digit limit for str, once
# raised a bare ValueError from the message
SCALAR_PROBES = {
    "v_kv": (lambda f, m, c, x: vv.Bases(x, 1000.0), "v_kv", 0.0),
    "s_kva": (lambda f, m, c, x: vv.Bases(12.35, x), "s_kva", -1.0),
    "z_ohm": (lambda f, m, c, x: vv.Bases(12.35, 1000.0, x), "z_ohm", -1.0),
    "inverter-s": (lambda f, m, c, x: vv.Inverter(x, 0.0), "s", -1.0),
    "inverter-p": (lambda f, m, c, x: vv.Inverter(1.0, x), "p", -0.5),
    "inverter-rho": (lambda f, m, c, x: vv.Inverter(1.0, 0.5, x), "rho", 2.0),
    "v0": (lambda f, m, c, x: vv.build_feeder([Bus(0), Bus(1)], [Line(0, 1, 0.1, 0.5)],
                                              v0=x), "v0", 0.0),
    "alpha": (lambda f, m, c, x: vv.DroopCurve(x, 0.04), "alpha", 0.0),
    "deadband": (lambda f, m, c, x: vv.DroopCurve(10.0, x), "deadband", -0.1),
    "gamma2": (lambda f, m, c, x: vv.ControllerConfig.from_feeder(f, "d2", gamma2=x),
               "gamma2", 0.0),
    "gamma3": (lambda f, m, c, x: vv.ControllerConfig.from_feeder(f, "d3", gamma3=x),
               "gamma3", -0.5),
    "regret-f_star": (lambda f, m, c, x: regret_audit(f, m, c, f_star=x), "f_star", None),
    "regret-gamma2": (lambda f, m, c, x: regret_audit(f, m, c, gamma2=x), "gamma2", 0.0),
    "regret-grad_bound": (lambda f, m, c, x: regret_audit(f, m, c, grad_bound=x),
                          "grad_bound", -1.0),
    "load_scale": (lambda f, m, c, x: vv.load_feeder("builtin:sce42", load_scale=x),
                   "load_scale", -1.0),
    "pv_operating_fraction": (lambda f, m, c, x: vv.load_feeder(
        "builtin:sce42", pv_operating_fraction=x), "pv_operating_fraction", -0.5),
    "inverter_oversize": (lambda f, m, c, x: vv.load_feeder(
        "builtin:sce42", inverter_oversize=x), "inverter_oversize", -1.0),
    # tol: inf is valid (a run then stops after one step), so it takes no inf probe
    "simulate-tol": (lambda f, m, c, x: vv.simulate(f, c, tol=x, mats=m), "tol", -1.0),
    "simulate-max_iter": (lambda f, m, c, x: vv.simulate(f, c, max_iter=x, mats=m),
                          "max_iter", 0),
    "simulate-record_every": (lambda f, m, c, x: vv.simulate(f, c, record_every=x, mats=m),
                              "record_every", 0),
    "simulate-oscillation_window": (lambda f, m, c, x: vv.simulate(
        f, c, oscillation_window=x, mats=m), "oscillation_window", 0),
    "equilibrium-tol": (lambda f, m, c, x: vv.solve_equilibrium(f, tol=x, mats=m), "tol", -1.0),
    "equilibrium-max_iter": (lambda f, m, c, x: vv.solve_equilibrium(f, max_iter=x, mats=m),
                             "max_iter", -1),
    "sweep-tol": (lambda f, m, c, x: vv.distflow_sweep(f, np.zeros(f.n), tol=x), "tol", -1.0),
    "sweep-max_iter": (lambda f, m, c, x: vv.distflow_sweep(f, np.zeros(f.n), max_iter=x),
                       "max_iter", 0),
}


def scalar_cases():
    for probe, (_, name, outside) in sorted(SCALAR_PROBES.items()):
        bad = {"bool": True, "nan": math.nan, "inf": math.inf, "string": "1", "huge": -10**5000,
               "outside": outside}
        for kind, value in bad.items():
            if not (value is None or (kind == "inf" and name == "tol")):
                yield pytest.param(probe, value, id=f"{probe}-{kind}")


@pytest.mark.parametrize("probe, value", scalar_cases())
def test_scalar_arguments_fail_typed(sce42, sce42_mats, probe, value):
    call, name, _ = SCALAR_PROBES[probe]
    config = vv.ControllerConfig.from_feeder(sce42, "d2", gamma2=0.1)
    with pytest.raises(vv.InvalidRecord, match=rf"^{name} "):
        call(sce42, sce42_mats, config, value)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(from_spec=st.booleans(), data=st.data())
def test_boundary_raises_only_package_errors(sce42, sce42_mats, from_spec, data):
    # valid knobs, curves, boxes, run arguments, initial states and warm
    # starts with up to three of them perturbed either raise an exception
    # of the package or give finite states; accepted runs take at most 50
    # steps
    fields = data.draw(st.sets(st.sampled_from(sorted(BOUNDARY_PERTURBED)), max_size=3))
    a = types.SimpleNamespace(**{**BOUNDARY_VALID, **{
        f: data.draw(st.sampled_from(BOUNDARY_PERTURBED[f]), label=f) for f in sorted(fields)}})
    spec = {"type": "droop", "alpha": a.alpha, "deadband": a.deadband}
    curve = package_outcome(
        lambda: vv.curve_from_spec(spec) if from_spec else vv.DroopCurve(a.alpha, a.deadband))
    q_min, q_max = vv.limits_arrays(sce42)
    lo, hi = {"valid": (q_min, q_max), "nan": (np.append(np.nan, q_min[1:]), q_max),
              "inf": (q_min, np.append(q_max[:-1], np.inf)), "inverted": (q_max, q_min),
              "short": (q_min[:-1], q_max[:-1]), "string": ("x", q_max)}[a.box]
    n = sce42.n
    vectors = {None: None, "zeros": np.zeros(n), "flat": np.ones(n), "string": ["a"] * n,
               "short": np.ones(n - 1), "nan": np.full(n, np.nan), "object": object()}
    q0, start = vectors[a.q0], vectors[a.start]
    if isinstance(start, (list, np.ndarray)):
        start = vv.VoltageSolution(v=start, P=np.zeros(n), Q=np.zeros(n), ell=np.zeros(n),
                                   model="linear")
    if curve is not None:
        curves = dict.fromkeys(sorted(sce42.inverters), curve)
        if a.position is not None:
            curves[a.position] = curve
        config = package_outcome(lambda: vv.ControllerConfig(
            kind=a.kind, curves=curves, q_min=lo, q_max=hi, gamma2=a.gamma2, gamma3=a.gamma3))
        if config is not None:
            traj = package_outcome(lambda: vv.simulate(
                sce42, config, plant=a.plant, q0=q0, tol=a.tol, max_iter=a.max_iter,
                record_every=a.record_every, oscillation_window=a.window, mats=sce42_mats))
            if traj is not None:
                assert traj.steps <= 50
                assert np.isfinite(traj.q).all() and np.isfinite(traj.v).all()
        eq = package_outcome(lambda: vv.solve_equilibrium(
            sce42, curves, lo, hi, tol=a.tol, max_iter=a.max_iter, mats=sce42_mats))
        if eq is not None:
            assert np.isfinite(eq.q_star).all() and np.isfinite(eq.v_star).all()
        report = package_outcome(lambda: vv.check_d1_condition(curves, sce42_mats))
        if report is not None:
            assert np.isfinite(report.sigma)
        objective = package_outcome(lambda: vv.objective_f(sce42_mats, curves, np.zeros(n)))
        if objective is not None:
            assert np.isfinite(objective)
    sol = package_outcome(lambda: vv.distflow_sweep(
        sce42, np.zeros(n), tol=a.tol, max_iter=a.max_iter, start=start))
    if sol is not None:
        assert np.isfinite(np.array((sol.v, sol.P, sol.Q, sol.ell))).all()
