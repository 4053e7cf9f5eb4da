"""Interleaved A/B runs of one benchmark workload on two source trees.

    python3 tools/ab.py PARENT_TREE CHANGE_TREE --workload sce42-regret --rounds 10

A source tree is a checkout that holds ``src/`` and ``bench/``; the two
trees' ``bench/`` files must be identical, or the tool stops before the
first round and names the files that differ.  Each round runs the
benchmark command of this checkout's ``BENCHMARK.json`` (``bench/run.py``)
once in each tree at ``--seed 1 --seconds 0``, the bench's shortest
complete run.  One run goes at a time, and the order of the two trees
flips every round (A B, B A, ...), so a slow spell of the host lands on
both sides.  For each end-to-end metric of ``BENCHMARK.json`` the report
gives each side's median and quartiles, the ratio of the medians (B over
A), the rounds B won and the ``verdict`` under the metric's bound, then
each side's failed operations.  ``--json FILE`` also writes every run's
metrics and that summary.  A run that fails stops the tool with its error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1
SECONDS = 0  # the bench then runs its minimum: 100 requests, every pool input 3 times


def quartiles(xs):
    return statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3


def rounds_won(a, b, better):
    """Paired rounds in which B reads better than A; ties count for neither."""
    return sum((y > x) if better == "higher" else (y < x) for x, y in zip(a, b))


def verdict(a, b, better, bound):
    """Judge B's runs of one metric against A's.

    ``worse``: B's median is worse than A's by more than ``bound`` times
    A's median.  ``unresolved``: A's interquartile range exceeds ``bound``
    times its median, and not every run of B beats every run of A.
    ``better``: B won at least 9 of 10 paired rounds and its median beats
    A's by more than A's interquartile range.  ``within bound`` otherwise.
    """
    sign = 1 if better == "higher" else -1
    med_a, med_b = statistics.median(a), statistics.median(b)
    q1, _, q3 = quartiles(a)
    if sign * (med_b - med_a) < -bound * abs(med_a):
        return "worse"
    if q3 - q1 > bound * abs(med_a) and not all(sign * (y - x) > 0 for x in a for y in b):
        return "unresolved"
    if 10 * rounds_won(a, b, better) >= 9 * len(a) and sign * (med_b - med_a) > q3 - q1:
        return "better"
    return "within bound"


def differing_bench_files(tree_a, tree_b):
    def files(tree):
        root = Path(tree) / "bench"
        return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*")
                if p.is_file() and "__pycache__" not in p.relative_to(root).parts}

    fa, fb = files(tree_a), files(tree_b)
    return sorted(name for name in fa.keys() | fb.keys() if fa.get(name) != fb.get(name))


def run_side(command, tree, workload, metrics):
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(SEED), "--seconds", str(SECONDS)],
        capture_output=True, text=True, cwd=tree,
    )
    if proc.returncode != 0:
        sys.exit(f"{tree}: benchmark run failed (exit {proc.returncode})\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    return {"attempted": result["attempted"], "failed": result["failed"],
            **{m["name"]: result["metrics"][m["name"]]["value"] for m in metrics}}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("tree_a", help="source tree A (the baseline)")
    p.add_argument("tree_b", help="source tree B (the change)")
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--json", metavar="FILE", help="also write every run's metrics here")
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error("--rounds must be at least 1")
    differ = differing_bench_files(args.tree_a, args.tree_b)
    if differ:
        sys.exit(f"the two trees' bench/ files differ: {', '.join(differ)}")

    a, b = [], []
    for r in range(args.rounds):
        order = (("A", args.tree_a, a), ("B", args.tree_b, b))
        for side, tree, out in order if r % 2 == 0 else order[::-1]:
            out.append(run_side(spec["command"], tree, args.workload, metrics))
            print(f"round {r + 1} {side}: " + "  ".join(
                f"{m['name']} {out[-1][m['name']]:.4g}" for m in metrics)
                + f"  failed {out[-1]['failed']}/{out[-1]['attempted']}", flush=True)
    print(f"{args.workload}, {args.rounds} rounds, seed {SEED}, --seconds {SECONDS}")
    record = {"workload": args.workload, "rounds": args.rounds, "seed": SEED,
              "seconds": SECONDS, "a": a, "b": b, "summary": {}}
    for m in metrics:
        name, better = m["name"], m["better"]
        xa, xb = [s[name] for s in a], [s[name] for s in b]
        summary = record["summary"][name] = {
            "median_a": statistics.median(xa), "median_b": statistics.median(xb),
            "b_better_rounds": rounds_won(xa, xb, better),
            "verdict": verdict(xa, xb, better, m["bound"])}
        print(f"{name} ({m['unit']}, {better} is better, bound {m['bound']}): "
              f"{summary['verdict']}")
        for side, tree, xs in (("A", args.tree_a, xa), ("B", args.tree_b, xb)):
            q1, med, q3 = quartiles(xs)
            print(f"  {side} {tree}: median {med:.4g}  q1 {q1:.4g}  q3 {q3:.4g}"
                  f"  (IQR/median {(q3 - q1) / med:.3f})")
        print(f"  median ratio B/A {summary['median_b'] / summary['median_a']:.4f}; "
              f"B better in {summary['b_better_rounds']}/{args.rounds} rounds")
    for side, runs in (("A", a), ("B", b)):
        print(f"failed operations {side}: {sum(s['failed'] for s in runs)} of "
              f"{sum(s['attempted'] for s in runs)}")
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
