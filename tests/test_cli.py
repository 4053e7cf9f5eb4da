import json
import pathlib

import numpy as np
import pytest

import voltvar as vv
from voltvar import cli
from voltvar.cli import build_parser, main
from voltvar.dynamics import solve_equilibrium

from helpers import d3_oracle

SWEEP_GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "sce42_sweeps.json").read_text()
)["cases"]


@pytest.fixture
def two_bus_file(tmp_path):
    f = vv.build_feeder(
        [vv.Bus(0), vv.Bus(1)],
        [vv.Line(0, 1, r=0.1, x=0.5)],
        inverters={1: vv.Inverter(s=1e6, p=0.0)},
        curve_specs={1: {"type": "droop", "alpha": 1.0, "deadband": 0.04}},
        slack_label=0,
        v0=1.05,
    )
    path = tmp_path / "two_bus.json"
    vv.save_feeder(f, path)
    return str(path)


class TestCheck:
    def test_two_bus_scalar_values(self, two_bus_file, capsys):
        code = main(["check", "--feeder", two_bus_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "0.500000" in out          # sigma = alpha * x
        assert f"{4/3:.6f}" in out        # gamma3 bound 2/(1+0.5)

    def test_exit_codes_split_at_stability_limit(self, capsys):
        assert main(["check", "--alpha", "5"]) == 0
        rep_out = capsys.readouterr().out
        assert "holds" in rep_out
        # twice the uniform stability limit: condition must fail
        assert main(["check", "--alpha", "54.8"]) == 2

    def test_corollary_never_tighter_than_sigma(self, capsys):
        main(["check", "--alpha", "10"])
        out = capsys.readouterr().out
        sigma = float(out.split("sigma")[1].split(":")[1].split()[0])
        corollary = float(out.split("row-sum sufficient value")[1].split(":")[1].split()[0])
        assert corollary >= sigma

    def test_report_file(self, tmp_path, capsys):
        out = tmp_path / "check.json"
        assert main(["check", "--alpha", "10", "--out", str(out)]) == 0
        meta = json.loads(out.read_text())
        assert 0.0 < meta["sigma"] < 1.0
        assert meta["alpha"] == 10.0
        assert not {"tol", "max_iter", "seed", "out", "func", "command"} & meta.keys()


class TestSimulate:
    def test_converged_run_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main([
            "simulate", "--controller", "d1", "--alpha", "10",
            "--plant", "linear", "--out", str(out),
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "converged" in text
        csv_lines = (tmp_path / "run.csv").read_text().splitlines()
        assert csv_lines[0].startswith("t,q_1,") and csv_lines[0].endswith(",residual,F")
        assert len(csv_lines[0].split(",")) == 1 + 41 + 41 + 2
        meta = json.loads((tmp_path / "run.json").read_text())
        assert meta["verdict"] == "converged"
        assert meta["power_factor"] == 0.9
        assert meta["floored_lines"] == [[28, 29]]
        assert len(meta["feeder_hash"]) == 64

    def test_oscillating_run_exits_2(self):
        code = main([
            "simulate", "--controller", "d1", "--alpha", "40",
            "--plant", "linear", "--max-iter", "2000",
        ])
        assert code == 2

    def test_deterministic_outputs(self, tmp_path):
        args = ["simulate", "--controller", "d3", "--alpha", "27", "--gamma3", "0.5",
                "--max-iter", "400"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize("tracked", [False, True])
    def test_csv_matches_per_cell_formatting(self, sce42, sce42_mats, tmp_path, tracked):
        cfg = vv.ControllerConfig.from_feeder(sce42, "d2", alpha=10.0, gamma2=1e-2)
        traj = vv.simulate(sce42, cfg, mats=sce42_mats, max_iter=300, record_every=6,
                           track_objective=tracked)
        # the one-call-per-cell export this writer replaced
        lines = ["t," + ",".join(f"q_{i}" for i in range(1, sce42.n + 1)) + ","
                 + ",".join(f"v_{i}" for i in range(1, sce42.n + 1)) + ",residual"
                 + (",F" if tracked else "")]
        for i, t in enumerate(traj.times):
            row = [str(int(t))] + [cli._fmt(x) for x in traj.q[i]]
            row += [cli._fmt(x) for x in traj.v[i]] + [cli._fmt(traj.residuals[i])]
            if tracked:
                row.append(cli._fmt(traj.objective[i]))
            lines.append(",".join(row))
        cli.write_trajectory_csv(traj, tmp_path / "run.csv")
        assert (tmp_path / "run.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


class TestEquilibrium:
    def test_two_bus_report(self, two_bus_file, capsys):
        code = main(["equilibrium", "--feeder", two_bus_file, "--tol", "1e-10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fixed-point residual" in out
        assert "0.040000" in out  # max |v* - v_nom| = |1.04 - 1|

    def test_report_file(self, tmp_path, capsys):
        out = tmp_path / "eq.json"
        assert main(["equilibrium", "--alpha", "27", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["q_star"]) == 41
        assert payload["fixed_point_residual"] < 1e-6
        assert payload["max_iter"] == 10000
        assert "seed" not in payload

    def test_iteration_budget_is_passed_on(self, capsys):
        # alpha 2000 takes about 20 solver updates
        assert main(["equilibrium", "--alpha", "2000", "--max-iter", "1"]) == 2
        err = capsys.readouterr().err
        assert "error: equilibrium solver still at residual" in err
        assert "after 1 iterations" in err


class TestSweep:
    def test_run_options_reach_the_equilibrium_solver(self, monkeypatch, capsys):
        seen = []

        def spy(*args, **kwargs):
            seen.append((kwargs["tol"], kwargs["max_iter"]))
            return solve_equilibrium(*args, **kwargs)

        monkeypatch.setattr(cli, "solve_equilibrium", spy)
        argv = ["sweep", "alpha", "--grid", "5,10", "--tol", "1e-9", "--max-iter", "300"]
        assert main(argv) == 0
        assert seen == [(1e-9, 300)] * 2

    def test_equilibrium_budget_exhausted_exits_2(self, capsys):
        # alpha 2000 takes about 20 solver updates
        assert main(["sweep", "alpha", "--grid", "10,2000", "--max-iter", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: equilibrium solver still at residual" in captured.err
        assert "after 1 iterations" in captured.err

    def test_alpha_grid_monotone_deviation(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "alpha", "--grid", "1,5,10", "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "alpha,eq_max_deviation,verdict,sigma"
        devs = [float(r.split(",")[1]) for r in rows[1:]]
        assert devs == sorted(devs, reverse=True)
        verdicts = [r.split(",")[2] for r in rows[1:]]
        assert verdicts == ["converged"] * 3

    def test_gamma3_grid_flips_at_stability_bound(self, two_bus_file, capsys):
        # no-deadband slope 3 on x=0.5: safe stepsize bound is 0.8
        code = main([
            "sweep", "gamma3", "--feeder", two_bus_file, "--grid", "0.79,0.81",
            "--alpha", "3", "--deadband", "0", "--max-iter", "5000",
        ])
        assert code == 0
        rows = capsys.readouterr().out.splitlines()
        verdicts = [r.split(",")[2] for r in rows[1:]]
        assert verdicts == ["converged", "oscillating"]

    def test_parallel_jobs_keep_grid_order(self, capsys):
        code = main(["sweep", "alpha", "--grid", "5,10,15", "--jobs", "2"])
        assert code == 0
        text = capsys.readouterr().out
        rows = text.splitlines()
        values = [float(r.split(",")[0]) for r in rows[1:]]
        assert values == [5.0, 10.0, 15.0]
        assert main(["sweep", "alpha", "--grid", "5,10,15", "--jobs", "1"]) == 0
        assert capsys.readouterr().out == text

    def test_range_grid(self, capsys):
        assert main(["sweep", "alpha", "--grid", "1:10:3"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert [float(r.split(",")[0]) for r in rows[1:]] == [1.0, 5.5, 10.0]

    def test_empty_grid_exits_1(self, capsys):
        assert main(["sweep", "alpha", "--grid", "1:2:0"]) == 1
        assert "error: empty grid" in capsys.readouterr().err

    @pytest.mark.parametrize("case", SWEEP_GOLDEN, ids=lambda c: " ".join(c["argv"][1:]))
    def test_matches_golden(self, case, capsys):
        assert main(case["argv"]) == 0
        rows = capsys.readouterr().out.splitlines()
        expect = case["lines"]
        assert rows[0] == expect[0]
        assert len(rows) == len(expect)
        for row, want in zip(rows[1:], expect[1:]):
            row, want = row.split(","), want.split(",")
            assert row[2] == want[2]
            got = [float(row[i]) for i in (0, 1, 3)]
            assert got == pytest.approx([float(want[i]) for i in (0, 1, 3)], rel=0, abs=1e-12)

    @pytest.mark.parametrize("case", SWEEP_GOLDEN, ids=lambda c: " ".join(c["argv"][1:]))
    def test_golden_deviation_matches_d3_oracle(self, case):
        # the equilibrium column must stay the physics, not a solver's output:
        # run the d3 law at 0.9 times its bound to a 1e-15 step change
        args = build_parser().parse_args(case["argv"])
        for line in case["lines"][1:]:
            value, want = (float(x) for x in line.split(",")[:2])
            feeder = vv.load_feeder(
                args.feeder,
                load_scale=value if args.parameter == "load_scale" else args.load_scale,
            )
            mats = vv.sensitivity_matrices(feeder)
            cfg = vv.ControllerConfig.from_feeder(
                feeder, "d1", alpha=value if args.parameter == "alpha" else args.alpha,
                deadband=args.deadband,
            )
            traj = d3_oracle(feeder, cfg.curves, cfg.q_min, cfg.q_max, mats)
            dev = float(np.abs(traj.final_v - feeder.v_nom).max())
            assert dev == pytest.approx(want, rel=0, abs=1e-12)


class TestExportFeeder:
    def test_round_trip(self, tmp_path, capsys, sce42):
        out = tmp_path / "exported.json"
        assert main(["export-feeder", "--out", str(out)]) == 0
        again = vv.load_feeder(str(out))
        assert vv.feeders_equal(sce42, again)


@pytest.mark.parametrize("argv", [
    ["check", "--seed", "3"],
    ["check", "--tol", "1e-8"],
    ["check", "--max-iter", "5"],
    ["export-feeder", "--alpha", "10"],
    ["export-feeder", "--max-iter", "5"],
    ["simulate", "--seed", "0"],
], ids=lambda a: " ".join(a))
def test_options_a_command_does_not_read_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["", "check", "simulate", "equilibrium", "sweep",
                                     "export-feeder"])
def test_shared_parser_prints_the_same_help(command, capsys, monkeypatch):
    fresh = build_parser()
    cli._parser()  # main's parser exists from here on
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("main rebuilt its parser"))
    helps = []
    for parse in (fresh.parse_args, main, main):
        with pytest.raises(SystemExit) as exit_:
            parse([command, "--help"] if command else ["--help"])
        assert exit_.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[0].startswith("usage: voltvar")
    assert helps[1] == helps[2] == helps[0]


def test_runtime_error_exit_code(capsys):
    assert main(["check", "--feeder", "/nonexistent/feeder.json"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["check", "--alpha", "10"],
    ["simulate", "--alpha", "10", "--controller", "d3", "--gamma3", "0.5"],
    ["equilibrium", "--alpha", "10"],
    ["sweep", "alpha", "--grid", "1,10,27"],
    ["sweep", "load_scale", "--grid", "0.5,1", "--alpha", "10"],
], ids=lambda a: " ".join(a[:2]))
def test_commands_never_build_dense_matrices(argv, tmp_path, monkeypatch, capsys):
    # every command reads the linear model through block/x_times/voltage;
    # the dense n-by-n X and R come only from _row_copy
    def refuse(self, dep):
        raise AssertionError("a command built a dense n-by-n matrix")

    monkeypatch.setattr(vv.SensitivityMatrices, "_row_copy", refuse)
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
