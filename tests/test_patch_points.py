"""The benchmark tracer (``bench/tracer.py``) wraps functions by replacing
module attributes; these tests fail if the package stops looking those
names up where the tracer patches them."""

import importlib
from pathlib import Path

import numpy as np

import voltvar as vv

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _distflow_run(feeder):
    cfg = vv.ControllerConfig.from_feeder(feeder, "d1", alpha=10.0)
    return vv.simulate(feeder, cfg, plant="distflow", max_iter=4, oscillation_window=None)


def test_distflow_plant_looks_up_the_sweep_at_call_time(sce42, monkeypatch):
    calls = []
    sweep = vv.powerflow.distflow_sweep

    def counting(*args, **kwargs):
        calls.append(args)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(vv.powerflow, "distflow_sweep", counting)
    traj = _distflow_run(sce42)
    assert traj.steps == 4
    assert len(calls) == traj.steps + 1


def test_bench_tracer_installs_on_the_package(sce42, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer").Tracer()
    simulate = vv.simulate
    tracer.install()
    try:
        assert vv.simulate is not simulate
        traj = _distflow_run(sce42)
    finally:
        tracer.uninstall()
    assert vv.simulate is simulate
    assert tracer.name.count("dynamics.simulate") == 1
    assert tracer.name.count("powerflow.distflow_sweep") == traj.steps + 1
    assert np.isfinite(traj.final_v).all()
