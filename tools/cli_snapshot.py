"""Write the canonical ``builtin:sce42`` CLI outputs of one source tree.

    python3 tools/cli_snapshot.py OUT_DIR [--tree TREE]

Runs ``check``, ``simulate`` (d1, d2 and d3 on the linear plant, d1 on the
distflow plant), ``equilibrium``, ``sweep`` over alpha, gamma2 and
load_scale, ``export-feeder``, and seven commands the CLI rejects (a zero
``--max-iter``, a nan ``--tol``, a missing feeder file, a zero
``--gamma2``, a negative ``--alpha``, ``--deadband`` and ``--load-scale``)
in this process, with voltvar imported from ``TREE/src`` (default: the checkout
holding this script).  Every command writes its ``--out`` files into
OUT_DIR, and its stdout, stderr and exit code into ``OUT_DIR/NAME.txt``.
The CLI's outputs are byte-identical across identical runs, so ``diff -r``
over the snapshots of two trees shows whether a change moved any number
or error message::

    python3 tools/cli_snapshot.py /tmp/old --tree OLD_TREE
    python3 tools/cli_snapshot.py /tmp/new --tree NEW_TREE
    diff -r /tmp/old /tmp/new
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
from pathlib import Path

TREE = Path(__file__).resolve().parents[1]

# (name, argv): each run writes NAME.txt and whatever its --out names
COMMANDS = (
    ("check", ["check", "--alpha", "10", "--out", "check.json"]),
    ("simulate_d1_linear", ["simulate", "--controller", "d1", "--alpha", "10",
                            "--out", "simulate_d1_linear"]),
    ("simulate_d2_linear", ["simulate", "--controller", "d2", "--alpha", "10",
                            "--gamma2", "0.1", "--max-iter", "2000",
                            "--out", "simulate_d2_linear"]),
    ("simulate_d3_linear", ["simulate", "--controller", "d3", "--alpha", "27",
                            "--gamma3", "0.5", "--out", "simulate_d3_linear"]),
    ("simulate_d1_distflow", ["simulate", "--controller", "d1", "--alpha", "10",
                              "--plant", "distflow", "--out", "simulate_d1_distflow"]),
    ("equilibrium", ["equilibrium", "--alpha", "27", "--out", "equilibrium.json"]),
    ("sweep_alpha", ["sweep", "alpha", "--grid", "1:200:5", "--out", "sweep_alpha.csv"]),
    ("sweep_gamma2", ["sweep", "gamma2", "--grid", "0.05,0.1,0.2", "--alpha", "10",
                      "--max-iter", "2000", "--out", "sweep_gamma2.csv"]),
    ("sweep_load_scale", ["sweep", "load_scale", "--grid", "0.5,1.0,1.5", "--alpha", "10",
                          "--out", "sweep_load_scale.csv"]),
    ("export_feeder", ["export-feeder", "--out", "feeder_pu.json"]),
    ("reject_simulate_max_iter", ["simulate", "--max-iter", "0"]),
    ("reject_equilibrium_tol", ["equilibrium", "--tol", "nan"]),
    ("reject_check_feeder", ["check", "--feeder", "no_such.json"]),
    ("reject_simulate_gamma2", ["simulate", "--controller", "d2", "--gamma2", "0"]),
    ("reject_check_alpha", ["check", "--alpha", "-1"]),
    ("reject_equilibrium_deadband", ["equilibrium", "--deadband", "-0.1"]),
    ("reject_simulate_load_scale", ["simulate", "--load-scale", "-1"]),
)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("out_dir", help="directory for the snapshot (created if missing)")
    p.add_argument("--tree", default=str(TREE), help="source tree holding src/voltvar")
    args = p.parse_args(argv)
    sys.path.insert(0, str(Path(args.tree).resolve() / "src"))
    from voltvar.cli import main as cli_main

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)  # relative --out paths, so no absolute path reaches an output
    for name, argv_ in COMMANDS:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli_main(argv_)
        Path(f"{name}.txt").write_text(
            f"$ voltvar {' '.join(argv_)}\n{stdout.getvalue()}{stderr.getvalue()}exit {code}\n")


if __name__ == "__main__":
    main()
