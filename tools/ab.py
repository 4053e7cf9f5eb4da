"""Interleaved A/B timing of one benchmark workload on two source trees.

    python3 tools/ab.py PARENT_TREE CHANGE_TREE --workload sce42-regret --rounds 10

A source tree is a checkout that holds ``src/voltvar``.  Each round runs
the workload once per tree, each in a fresh Python process that imports
voltvar from ``TREE/src`` and the workload definitions from this
checkout's ``bench/`` (imported, never changed), so both trees run the
same requests and checks.  One process runs at a time, and the order of
the two trees flips every round (A B, B A, A B, ...), so a slow spell of
the host lands on both sides.

A process prepares the workload at seed 1, runs one warm-up request, then
runs every request of the pool three times.  Its samples are the sum over
the pool of each entry's fastest request, in ms, and its steps/s: the
pool's closed-loop steps over the sum of each entry's fastest ``sim_s``,
and its ``equilibrium_ms``: the median over the pool of each entry's
fastest ``eq_ms`` samples, taken one by one.  All three follow the
fastest-repeat rule of ``bench/run.py``.  Each process
also reports its own peak resident set size (``ru_maxrss``) at the end,
as ``bench/run.py`` does for ``peak_rss_mb``.  The report gives each
side's median and quartiles over the rounds, the ratio of the medians
(B over A) and the number of rounds in which B was better, for each
sample.  ``--json FILE`` also writes every round's samples and that
summary as JSON.  A request that fails its checks stops the run with that
process's error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SEED = 1
REPEATS = 3  # requests per pool entry in each process


def child(tree, workload):
    """Time one side's pass in this process and print it as JSON."""
    sys.path[:0] = [str(Path(tree).resolve() / "src"), str(BENCH)]
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    with tempfile.TemporaryDirectory() as workdir:
        state = wl.prepare(SEED, Path(workdir))
        wl.request(state, 0)
        best = [float("inf")] * wl.POOL
        best_sim = [float("inf")] * wl.POOL
        best_eq = [None] * wl.POOL
        steps = [0] * wl.POOL
        for i in range(1, REPEATS * wl.POOL + 1):
            t0 = time.perf_counter()
            s = wl.request(state, i)
            k = i % wl.POOL
            best[k] = min(best[k], time.perf_counter() - t0)
            best_sim[k] = min(best_sim[k], s["sim_s"])
            best_eq[k] = [min(x, y) for x, y in zip(best_eq[k] or s["eq_ms"], s["eq_ms"])]
            steps[k] = s["steps"]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"pool_ms": sum(best) * 1e3, "steps_per_s": sum(steps) / sum(best_sim),
                      "equilibrium_ms": statistics.median([x for eq in best_eq for x in eq]),
                      "peak_rss_mb": rss_mb}))


def run_side(tree, workload):
    env = dict(os.environ, **{k: "1" for k in BLAS_ENV})
    proc = subprocess.run(
        [sys.executable, __file__, "--child", tree, "--workload", workload],
        capture_output=True, text=True, env=env,
    )
    if proc.returncode != 0:
        sys.exit(f"{tree}: workload process failed\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summary(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return f"median {med:.2f}  q1 {q1:.2f}  q3 {q3:.2f}  (IQR/median {(q3 - q1) / med:.3f})"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("tree_a", nargs="?", help="source tree A (the baseline)")
    p.add_argument("tree_b", nargs="?", help="source tree B (the change)")
    p.add_argument("--workload", required=True)
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--json", metavar="FILE", help="also write every round's samples here")
    p.add_argument("--child", metavar="TREE", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        return child(args.child, args.workload)
    if not (args.tree_a and args.tree_b) or args.rounds < 1:
        p.error("two source trees and --rounds >= 1 are required")

    a, b = [], []
    for r in range(args.rounds):
        order = ((args.tree_a, a), (args.tree_b, b))
        for tree, out in order if r % 2 == 0 else order[::-1]:
            out.append(run_side(tree, args.workload))
        print(f"round {r + 1}: " + "  ".join(
            f"{side} {s['pool_ms']:.2f} ms {s['steps_per_s']:.1f} steps/s "
            f"eq {s['equilibrium_ms']:.4f} ms {s['peak_rss_mb']:.1f} MB" for side, s in (("A", a[-1]), ("B", b[-1]))),
            flush=True)
    print(f"{args.workload}, {args.rounds} rounds, seed {SEED}: each sample takes the "
          f"fastest of {REPEATS} requests per pool entry")
    record = {"workload": args.workload, "rounds": args.rounds, "seed": SEED,
              "repeats": REPEATS, "a": a, "b": b, "summary": {}}
    for key, label, lower in (("pool_ms", "pool time (ms)", True),
                              ("steps_per_s", "steps/s", False),
                              ("equilibrium_ms", "equilibrium (ms)", True),
                              ("peak_rss_mb", "peak RSS (MB)", True)):
        xa, xb = [s[key] for s in a], [s[key] for s in b]
        won = sum((y < x) if lower else (y > x) for x, y in zip(xa, xb))
        ratio = statistics.median(xb) / statistics.median(xa)
        record["summary"][key] = {"median_a": statistics.median(xa),
                                  "median_b": statistics.median(xb),
                                  "ratio_b_over_a": ratio, "b_better_rounds": won}
        print(f"{label}:")
        print(f"  A {args.tree_a}: {summary(xa)}")
        print(f"  B {args.tree_b}: {summary(xb)}")
        print(f"  median ratio B/A {ratio:.4f}; B better in {won}/{args.rounds} rounds")
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
