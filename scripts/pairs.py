"""Alternating before/after pairs of one perfbench workload, two checkouts.

    python3 scripts/pairs.py PARENT CHANGE --workload pipeline-exhaustive --seeds 1-10

For each seed, runs ``perfbench/run.py --trace 0`` once in each checkout, the
parent first on odd seeds and the change first on even ones, so a drift in
the machine's speed falls on both sides alike.  Each run uses that
checkout's own ``perfbench/`` and ``src/``, with one BLAS thread.  Then,
for every end-to-end metric that ``BENCHMARK.json`` lists, it prints each
side's median and quartiles and how many pairs the change won: a pair is
won when the change's value is better, in the metric's direction, than the
parent's on the same seed.  Two verdicts follow on each row:

- claim: "yes" when the change won at least 9 of every 10 pairs and its
  median beats the parent's by more than the parent's quartile spread
  (q3 - q1), which is what a claimed gain must show;
- bound: "outside" when the change's median is worse than the parent's by
  more than the metric's ``BENCHMARK.json`` bound, read as a fraction of
  the parent's median, else "inside".

The failed share (failed over attempted items, summed over the runs) closes
the table.

Progress goes to standard error, the table to standard output.  A run that
exits nonzero, or whose output is wrong, stops the script.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(tokens):
    """Seeds from tokens such as ``3`` or ``1-10`` (both ends included)."""
    seeds = []
    for token in tokens:
        lo, _, hi = token.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run's result line: correct, attempted, failed, metrics."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"pairs: {' '.join(cmd)} in {checkout} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"pairs: seed {seed} in {checkout} returned a wrong output")
    return result


def quartiles(values):
    """(first quartile, median, third quartile) of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def table(metrics, runs) -> str:
    """The per-metric summary of ``runs``, a (parent, change) result per seed."""
    lines = [
        "| metric | parent median [q1, q3] | change median [q1, q3] | change won | claim | bound |",
        "|---|---|---|---|---|---|",
    ]
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        before = [p["metrics"][name]["value"] for p, _ in runs]
        after = [c["metrics"][name]["value"] for _, c in runs]
        won = sum((a < b) if lower else (a > b) for b, a in zip(before, after))
        (q1, base, q3), (r1, med, r3) = quartiles(before), quartiles(after)
        gain = base - med if lower else med - base  # positive when the change is better
        claim = 10 * won >= 9 * len(runs) and gain > q3 - q1
        outside = -gain > m["bound"] * abs(base)
        lines.append(
            f"| {name} ({m['unit']}) | {base:.4g} [{q1:.4g}, {q3:.4g}] | {med:.4g} [{r1:.4g}, {r3:.4g}] "
            f"| {won} of {len(runs)} | {'yes' if claim else 'no'} | {'outside' if outside else 'inside'} |"
        )
    shares = []
    for side in (0, 1):
        failed = sum(r[side]["failed"] for r in runs)
        attempted = sum(r[side]["attempted"] for r in runs)
        shares.append(f"{failed} of {attempted}")
    lines.append(f"| failed share | {shares[0]} | {shares[1]} | | | |")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="the checkout measured as the parent")
    p.add_argument("change", type=Path, help="the checkout measured as the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", nargs="+", required=True, help="seeds such as 1-10 or 3 5 7")
    p.add_argument("--seconds", type=float, default=15.0)
    args = p.parse_args(argv)

    metrics = json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]
    checkouts, runs = (args.parent, args.change), []
    for seed in seed_list(args.seeds):
        pair = [None, None]
        for side in ((0, 1) if seed % 2 else (1, 0)):
            pair[side] = run_once(checkouts[side], args.workload, seed, args.seconds)
        runs.append(tuple(pair))
        print(f"seed {seed}: done", file=sys.stderr, flush=True)
    print(f"{args.workload}: {len(runs)} alternating pair(s) of {args.seconds:g} s runs")
    print(table(metrics, runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
