"""Command-line interface: condition checks, simulation, sweeps, export.

Exit codes: 0 success (condition holds / run converged), 1 runtime error,
2 condition fails or no convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__
from .control import DEFAULT_DEADBAND
from .dynamics import (
    ControllerConfig,
    check_d1_condition,
    d3_stepsize_bound,
    simulate,
    solve_equilibrium,
)
from .exceptions import MaxIterations
from .feeder_io import feeder_hash, load_feeder, save_feeder
from .network import sensitivity_matrices


def _fmt(x):
    return repr(float(x))


def _add_feeder_options(p):
    p.add_argument("--feeder", default="builtin:sce42",
                   help="feeder JSON path or builtin:<name> (default builtin:sce42)")
    p.add_argument("--load-scale", type=float, default=1.0)
    p.add_argument("--power-factor", type=float, default=0.9)
    p.add_argument("--pv-fraction", type=float, default=1.0,
                   help="inverter real output as a fraction of nameplate")
    p.add_argument("--oversize", type=float, default=1.1,
                   help="inverter apparent capacity as a multiple of nameplate")
    p.add_argument("--tan-rho", type=float, default=None,
                   help="power-factor limit tan(rho); omitted = capacity circle only")
    p.add_argument("--out", default=None, help="output file or prefix")


def _add_curve_options(p):
    p.add_argument("--alpha", type=float, default=None,
                   help="override droop slope at every inverter bus")
    p.add_argument("--deadband", type=float, default=None,
                   help=f"override droop deadband width (default {DEFAULT_DEADBAND} p.u.)")


def _add_run_options(p):
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-iter", type=int, default=10000)


def _add_law_options(p):
    p.add_argument("--controller", choices=("d1", "d2", "d3"), default="d1")
    p.add_argument("--plant", choices=("linear", "distflow"), default="linear")
    p.add_argument("--gamma2", type=float, default=None)
    p.add_argument("--gamma3", type=float, default=None)


def _load(args, load_scale=None):
    return load_feeder(
        args.feeder,
        power_factor=args.power_factor,
        load_scale=args.load_scale if load_scale is None else load_scale,
        pv_operating_fraction=args.pv_fraction,
        inverter_oversize=args.oversize,
        tan_rho=args.tan_rho,
    )


def _config(args, feeder, kind="d1"):
    return ControllerConfig.from_feeder(
        feeder,
        kind,
        alpha=args.alpha,
        deadband=args.deadband,
        gamma2=getattr(args, "gamma2", None),
        gamma3=getattr(args, "gamma3", None),
    )


def _run_meta(args, feeder, extra):
    """The parsed options, less dispatch and output, plus version and feeder facts."""
    meta = {k: v for k, v in vars(args).items() if k not in ("command", "func", "out")}
    meta.update(
        version=__version__,
        feeder_hash=feeder_hash(feeder),
        floored_lines=list(feeder.meta.get("floored_lines", [])),
        **extra,
    )
    return meta


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_trajectory_csv(trajectory, path):
    """CSV export: header ``t, q_1..q_n, v_1..v_n, residual[, F]``."""
    n = trajectory.q.shape[1]
    cols = ["t"] + [f"q_{i}" for i in range(1, n + 1)] + [f"v_{i}" for i in range(1, n + 1)]
    cols.append("residual")
    with_f = trajectory.objective is not None
    if with_f:
        cols.append("F")
    # repr of a Python float is _fmt's text, without a call per cell
    rows = np.column_stack([trajectory.q, trajectory.v, trajectory.residuals]
                           + ([trajectory.objective] if with_f else [])).tolist()
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        fh.writelines(f"{t},{','.join(map(repr, row))}\n"
                      for t, row in zip(trajectory.times.tolist(), rows))


def cmd_check(args):
    feeder = _load(args)
    mats = sensitivity_matrices(feeder)
    config = _config(args, feeder)
    report = check_d1_condition(config.bundle, mats)
    g3 = d3_stepsize_bound(config.bundle, mats)
    print(f"feedback modulus sigma            : {report.sigma:.6f}")
    print(f"contraction condition (sigma < 1) : {'holds' if report.sufficient else 'FAILS'}")
    print(f"row-sum sufficient value          : {report.corollary_value:.6f}"
          f" ({'holds' if report.corollary_holds else 'fails'})")
    print(f"uniform-slope stability limit     : {report.uniform_alpha_limit:.4f}")
    print(f"pseudo-gradient stepsize bound    : {g3:.6f}")
    if args.out:
        _write_json(args.out, _run_meta(args, feeder, {
            "sigma": report.sigma,
            "corollary_value": report.corollary_value,
            "uniform_alpha_limit": report.uniform_alpha_limit,
            "gamma3_bound": g3,
        }))
    return 0 if report.sufficient else 2


def cmd_simulate(args):
    feeder = _load(args)
    mats = sensitivity_matrices(feeder)
    config = _config(args, feeder, kind=args.controller)
    traj = simulate(
        feeder, config, plant=args.plant, tol=args.tol, max_iter=args.max_iter,
        record_every=args.record_every, track_objective=True, mats=mats,
    )
    dev = float(np.abs(traj.final_v - feeder.v_nom).max())
    print(f"verdict: {traj.verdict} after {traj.steps} steps"
          + (f" (converged at t={traj.converged_at})" if traj.converged_at else ""))
    print(f"final max |v - v_nom|: {dev:.6f} p.u.")
    if args.out:
        write_trajectory_csv(traj, args.out + ".csv")
        extra = {
            "plant_note": "full model is the radial branch-flow sweep"
            if args.plant == "distflow" else "linearized branch flow",
            "verdict": traj.verdict,
            "steps": traj.steps,
            "converged_at": traj.converged_at,
            "final_max_voltage_deviation": dev,
        }
        _write_json(args.out + ".json", _run_meta(args, feeder, extra))
    return 0 if traj.verdict == "converged" else 2


def cmd_equilibrium(args):
    feeder = _load(args)
    mats = sensitivity_matrices(feeder)
    config = _config(args, feeder, kind="d1")  # curves/limits only; solver picks gamma3
    report = solve_equilibrium(
        feeder, curves=config.bundle, q_min=config.q_min, q_max=config.q_max,
        tol=args.tol, max_iter=args.max_iter, mats=mats,
    )
    dev = float(np.abs(report.v_star - feeder.v_nom).max())
    print(f"objective           : {report.objective:.8e}")
    print(f"  curve cost        : {report.cost_term:.8e}")
    print(f"  quadratic term    : {report.quadratic_term:.8e}")
    print(f"  linear term       : {report.linear_term:.8e}")
    print(f"fixed-point residual: {report.fixed_point_residual:.3e}")
    print(f"max |v* - v_nom|    : {dev:.6f} p.u. ({report.iterations} iterations)")
    if args.out:
        _write_json(args.out, _run_meta(args, feeder, {
            "objective": report.objective,
            "cost_term": report.cost_term,
            "quadratic_term": report.quadratic_term,
            "linear_term": report.linear_term,
            "fixed_point_residual": report.fixed_point_residual,
            "max_voltage_deviation": dev,
            "q_star": [float(x) for x in report.q_star],
            "v_star": [float(x) for x in report.v_star],
        }))
    return 0


def _parse_grid(text):
    if ":" in text:
        lo, hi, num = text.split(":")
        return [float(v) for v in np.linspace(float(lo), float(hi), int(num))]
    return [float(v) for v in text.split(",")]


def _sweep_point(args, feeder, mats, value):
    controller, alpha, gamma2, gamma3 = args.controller, args.alpha, args.gamma2, args.gamma3
    if args.parameter == "alpha":
        alpha = value
    elif args.parameter == "gamma2":
        controller, gamma2 = "d2", value
    elif args.parameter == "gamma3":
        controller, gamma3 = "d3", value
    config = ControllerConfig.from_feeder(
        feeder, controller, alpha=alpha, deadband=args.deadband, gamma2=gamma2, gamma3=gamma3
    )
    report = check_d1_condition(config.bundle, mats)
    eq = solve_equilibrium(
        feeder, curves=config.bundle, q_min=config.q_min, q_max=config.q_max,
        tol=args.tol, max_iter=args.max_iter, mats=mats,
    )
    traj = simulate(feeder, config, plant=args.plant, tol=args.tol, max_iter=args.max_iter,
                    mats=mats, record_every=args.max_iter)
    dev = float(np.abs(eq.v_star - feeder.v_nom).max())
    return f"{_fmt(value)},{_fmt(dev)},{traj.verdict},{_fmt(report.sigma)}"


def cmd_sweep(args):
    grid = _parse_grid(args.grid)
    if not grid:
        print("error: empty grid", file=sys.stderr)
        return 1
    per_point = args.parameter == "load_scale"
    if not per_point:
        feeder = _load(args)
        mats = sensitivity_matrices(feeder)
    lines = [f"{args.parameter},eq_max_deviation,verdict,sigma"]
    for value in grid:
        if per_point:
            feeder = _load(args, load_scale=value)
            mats = sensitivity_matrices(feeder)
        lines.append(_sweep_point(args, feeder, mats, value))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    print(text, end="")
    return 0


def cmd_export_feeder(args):
    feeder = _load(args)
    path = args.out or "feeder.json"
    save_feeder(feeder, path)
    print(f"wrote {path} ({feeder.n} non-slack buses, hash {feeder_hash(feeder)[:12]})")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="voltvar",
        description="Volt/VAR control analysis on radial distribution feeders",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *groups):
        p = sub.add_parser(name, help=summary)
        for add in (_add_feeder_options, *groups):
            add(p)
        p.set_defaults(func=func)
        return p

    command("check", cmd_check, "evaluate the convergence conditions", _add_curve_options)
    p = command("simulate", cmd_simulate, "run a closed-loop trajectory",
                _add_curve_options, _add_run_options, _add_law_options)
    p.add_argument("--record-every", type=int, default=1)
    command("equilibrium", cmd_equilibrium, "solve for the closed-loop equilibrium",
            _add_curve_options, _add_run_options)
    p = command("sweep", cmd_sweep, "equilibrium and verdict over a parameter grid",
                _add_curve_options, _add_run_options, _add_law_options)
    p.add_argument("parameter", choices=("alpha", "gamma2", "gamma3", "load_scale"))
    p.add_argument("--grid", required=True,
                   help="comma list '1,5,10' or range 'lo:hi:n'")
    p.add_argument("--jobs", type=int, default=1,
                   help="ignored: sweeps run in process; kept so existing scripts parse")
    command("export-feeder", cmd_export_feeder, "write the canonical per-unit JSON")
    return parser


@functools.cache
def _parser():
    """The parser of :func:`main`, built once per process: parsing leaves
    it unchanged, and building it costs more than a parse."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except MaxIterations as exc:  # the equilibrium solver ran out of budget
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # surface a clean one-liner, scriptable exit code
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
