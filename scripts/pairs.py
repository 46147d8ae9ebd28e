"""Alternating before/after pairs of perfbench workloads, two checkouts.

    python3 scripts/pairs.py PARENT CHANGE --workload pipeline-exhaustive --seeds 1-10
    python3 scripts/pairs.py PARENT CHANGE --workload W1 W2 --seeds 1-10 --record
    python3 scripts/pairs.py PARENT CHANGE --workload selftest --seeds 1-10 --record

For each workload and seed, runs ``perfbench/run.py --trace 0`` once in each
checkout, the parent first on odd seeds and the change first on even ones,
so a drift in the machine's speed falls on both sides alike.  Each run uses
that checkout's own ``perfbench/`` and ``src/``, with one BLAS thread.
The ``selftest`` target instead runs ``twowin selftest`` on the checkout's
``src/`` in a fresh process, a seed being one round of the same alternation
(the criteria draw their own fixed seeds), and times its wall clock, start
of the interpreter included, as the one metric ``wall_s``; a run whose
criteria do not all pass is a wrong output.
Then, for every end-to-end metric that ``BENCHMARK.json`` lists, it prints
each side's median and quartiles and how many pairs the change won: a pair
is won when the change's value is better, in the metric's direction, than
the parent's on the same seed.  Two verdicts follow on each row:

- claim: "yes" when the change won at least 9 of every 10 pairs and its
  median beats the parent's by more than the parent's quartile spread
  (q3 - q1), which is what a claimed gain must show;
- bound: "outside" when the change's median is worse than the parent's by
  more than the metric's ``BENCHMARK.json`` bound, read as a fraction of
  the parent's median, else "inside".

The failed share (failed over attempted items, summed over every run that
printed a result) closes the table.  A run that exits nonzero, or whose
output is wrong, is a failed run: it is reported, its pair is left out of
the table, and the script goes on to the next run, then exits 1 at the end.

With ``--record`` it also writes ``BENCH_<parent>-<change>.json`` at the
repository root, the two labels being each checkout's short git rev (or its
directory name outside git).  Each workload then ends with one
``--trace 1`` run per side, on the first seed, whose spans land in that
checkout's ``perfbench/spans/``; ``selftest`` has no traced run, and its
record holds null for ``seconds`` and ``traced``.  The record holds the
machine, Python and numpy of the first run that finished (``selftest``
runs name none), and for each workload: every run's
seed, side, result line and failure (null when it finished right), the
table's rows with both verdicts, the failed share, the failed runs per
side, and per side the traced run's seed, per-layer metrics and failure.
A traced run that fails is recorded with its failure (and null metrics
when it has no result line) and reported; it leaves the exit status to the
untraced runs.  A record that exists already
keeps its other workloads, so the workloads may be run one invocation at a
time.

Progress goes to standard error, the tables to standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: where ``--record`` writes; ``BENCHMARK.json`` is read from here as well
ROOT = HERE.parent
SIDES = ("parent", "change")
#: the machine fields of a run's record that name the machine, not the run
MACHINE = ("nproc", "cpus_usable", "cpu_model", "platform", "python", "numpy", "blas",
           "blas_threads")
SELFTEST = "selftest"
#: the ``selftest`` target's one end-to-end metric; its bound is the one
#: ``BENCHMARK.json`` gives every time metric
SELFTEST_METRICS = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]


def seed_list(tokens):
    """Seeds from tokens such as ``3`` or ``1-10`` (both ends included)."""
    seeds = []
    for token in tokens:
        lo, _, hi = token.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_selftest(checkout: Path) -> dict:
    """One ``twowin selftest`` on the checkout's ``src/``, in a fresh process
    with one BLAS thread, in ``run_once``'s shape: its result has one item,
    failed unless every criterion passed, and the wall time as ``wall_s``;
    it names no machine.  A run that ends on an error has no result."""
    cmd = [sys.executable, "-m", "twowin.cli", "selftest"]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(checkout).resolve() / "src"))
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if done.returncode not in (0, 1) or done.stderr.strip():
        tail = done.stderr.strip().splitlines()[-1:] or [""]
        return {"result": None, "machine": None,
                "failure": f"exited {done.returncode}: {tail[0]}"}
    passed = done.returncode == 0
    result = {"correct": passed, "attempted": 1, "failed": int(not passed),
              "metrics": {"wall_s": {"value": wall, "unit": "s"}}}
    return {"result": result, "machine": None, "failure": None if passed else "wrong output"}


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One run, untraced by default: ``{"result", "machine", "failure"}``,
    where result is the run's result line (None when it has none), machine
    its record's machine block, and failure None for a run that finished
    right.  The ``selftest`` target is ``run_selftest``'s."""
    if workload == SELFTEST:
        return run_selftest(checkout)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or [""]
        return {"result": None, "machine": None,
                "failure": f"exited {done.returncode}: {tail[0]}"}
    record_line, result_line = done.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    run = json.loads(record_line)["run"]
    return {"result": result, "machine": {k: run[k] for k in MACHINE if k in run},
            "failure": None if result["correct"] else "wrong output"}


def quartiles(values):
    """(first quartile, median, third quartile) of ``values``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdicts(metrics, runs) -> list:
    """One row per metric over ``runs``, a (parent, change) result per seed:
    each side's quartiles, the pairs the change won, and both verdicts."""
    rows = []
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        before = [p["metrics"][name]["value"] for p, _ in runs]
        after = [c["metrics"][name]["value"] for _, c in runs]
        won = sum((a < b) if lower else (a > b) for b, a in zip(before, after))
        (q1, base, q3), (r1, med, r3) = quartiles(before), quartiles(after)
        gain = base - med if lower else med - base  # positive when the change is better
        rows.append({
            "metric": name, "unit": m["unit"],
            "parent": {"median": base, "q1": q1, "q3": q3},
            "change": {"median": med, "q1": r1, "q3": r3},
            "won": won, "pairs": len(runs),
            "claim": 10 * won >= 9 * len(runs) and gain > q3 - q1,
            "bound": "outside" if -gain > m["bound"] * abs(base) else "inside",
        })
    return rows


def failed_share(results) -> dict:
    """[failed, attempted] items per side, summed over (side, result) pairs."""
    share = {side: [0, 0] for side in SIDES}
    for side, result in results:
        share[side][0] += result["failed"]
        share[side][1] += result["attempted"]
    return share


def table(metrics, runs, share=None) -> str:
    """The per-metric summary of ``runs``, a (parent, change) result per
    seed, closed by ``share`` (``failed_share``), by default that of ``runs``."""
    lines = [
        "| metric | parent median [q1, q3] | change median [q1, q3] | change won | claim | bound |",
        "|---|---|---|---|---|---|",
    ]
    if runs:
        for row in verdicts(metrics, runs):
            p, c = row["parent"], row["change"]
            lines.append(
                f"| {row['metric']} ({row['unit']}) | {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}] "
                f"| {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] | {row['won']} of {row['pairs']} "
                f"| {'yes' if row['claim'] else 'no'} | {row['bound']} |"
            )
    shares = share or failed_share((s, r) for pair in runs for s, r in zip(SIDES, pair))
    lines.append(
        f"| failed share | {shares['parent'][0]} of {shares['parent'][1]} "
        f"| {shares['change'][0]} of {shares['change'][1]} | | | |"
    )
    return "\n".join(lines)


def label(checkout: Path) -> str:
    """The checkout's short git rev, or its directory name outside git."""
    done = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else checkout.resolve().name


def pair_workload(checkouts, workload, seeds, seconds):
    """Run one workload's alternating pairs; returns the run entries, in
    run order, each ``{"seed", "side", "result", "machine", "failure"}``."""
    entries = []
    for seed in seeds:
        for k in ((0, 1) if seed % 2 else (1, 0)):
            run = run_once(checkouts[k], workload, seed, seconds)
            entries.append({"seed": seed, "side": SIDES[k], **run})
            if run["failure"] is not None:
                print(f"{workload} seed {seed} {SIDES[k]}: failed run: {run['failure']}",
                      file=sys.stderr, flush=True)
        print(f"{workload} seed {seed}: done", file=sys.stderr, flush=True)
    return entries


def traced_runs(checkouts, workload, seed, seconds) -> dict:
    """One ``--trace 1`` run per side: ``{side: {"seed", "metrics",
    "failure"}}``, metrics being the run's per-layer metrics (None when it
    has no result line)."""
    traced = {}
    for checkout, side in zip(checkouts, SIDES):
        run = run_once(checkout, workload, seed, seconds, trace=1)
        traced[side] = {"seed": seed, "metrics": run["result"] and run["result"]["metrics"],
                        "failure": run["failure"]}
        if run["failure"] is not None:
            print(f"{workload} seed {seed} {side}: failed traced run: {run['failure']}",
                  file=sys.stderr, flush=True)
    return traced


def complete_pairs(entries):
    """The (parent, change) result pairs of the seeds whose runs both
    finished right, in seed order."""
    by_seed = {}
    for e in entries:
        by_seed.setdefault(e["seed"], {})[e["side"]] = e
    return [
        (sides["parent"]["result"], sides["change"]["result"])
        for sides in by_seed.values()
        if all(sides.get(s, {}).get("failure", "missing") is None for s in SIDES)
    ]


def entries_share(entries) -> dict:
    """``failed_share`` of every run that has a result line, wrong ones too."""
    return failed_share((e["side"], e["result"]) for e in entries if e["result"] is not None)


def workload_record(metrics, entries, seconds, traced) -> dict:
    """One workload's part of the record; ``traced`` is ``traced_runs``'
    (None for ``selftest``, which also records no ``seconds``)."""
    runs = complete_pairs(entries)
    return {
        "seconds": None if traced is None else seconds,
        "runs": [{k: e[k] for k in ("seed", "side", "result", "failure")} for e in entries],
        "table": verdicts(metrics, runs) if runs else [],
        "failed_share": entries_share(entries),
        "failed_runs": {s: sum(e["side"] == s and e["failure"] is not None for e in entries)
                        for s in SIDES},
        "traced": traced,
    }


def write_record(labels, by_workload, metrics, seconds) -> Path:
    """Write or update ``BENCH_<parent>-<change>.json`` at ``ROOT``;
    ``by_workload`` maps a workload to its (run entries, traced runs)."""
    path = ROOT / f"BENCH_{labels[0]}-{labels[1]}.json"
    record = json.loads(path.read_text()) if path.exists() else {
        "parent": labels[0], "change": labels[1], "machine": None, "workloads": {}}
    for workload, (entries, traced) in by_workload.items():
        record["workloads"][workload] = workload_record(metrics, entries, seconds, traced)
        if record["machine"] is None:
            record["machine"] = next((e["machine"] for e in entries if e["machine"]), None)
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="the checkout measured as the parent")
    p.add_argument("change", type=Path, help="the checkout measured as the change")
    p.add_argument("--workload", nargs="+", required=True)
    p.add_argument("--seeds", nargs="+", required=True, help="seeds such as 1-10 or 3 5 7")
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--record", action="store_true",
                   help="also write BENCH_<parent>-<change>.json at the repository root")
    args = p.parse_args(argv)

    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    checkouts, by_workload = (args.parent, args.change), {}
    labels = [label(c) for c in checkouts] if args.record else None
    for workload in args.workload:
        metrics = SELFTEST_METRICS if workload == SELFTEST else end_to_end
        entries = pair_workload(checkouts, workload, seed_list(args.seeds), args.seconds)
        by_workload[workload] = entries
        runs = complete_pairs(entries)
        what = "selftest runs" if workload == SELFTEST else f"{args.seconds:g} s runs"
        print(f"{workload}: {len(runs)} alternating pair(s) of {what}")
        print(table(metrics, runs, entries_share(entries)))
        for e in entries:
            if e["failure"] is not None:
                print(f"failed run: seed {e['seed']} {e['side']}: {e['failure']}")
        if args.record:  # after each workload, so a later stop keeps this one
            traced = None
            if workload != SELFTEST:
                traced = traced_runs(checkouts, workload, seed_list(args.seeds)[0], args.seconds)
            for side, run in (traced or {}).items():
                if run["failure"] is not None:
                    print(f"failed traced run: seed {run['seed']} {side}: {run['failure']}")
            path = write_record(labels, {workload: (entries, traced)}, metrics, args.seconds)
            print(f"record: {path}", file=sys.stderr)
    failed = any(e["failure"] is not None for es in by_workload.values() for e in es)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
