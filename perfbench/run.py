"""Run one seeded workload against the twowin sources of this checkout.

    python3 perfbench/run.py --workload roundtrip-mix --seed 1 --seconds 15 --trace 0

The package is imported from ``src/`` next to this directory, never from an
installed copy, so a checkout measures its own code.  A run times the
whole item cycles that ``--seconds`` holds at nominal speed, a set fixed by
the seed and ``--seconds``.  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it runs the set once untraced and once traced,
reports the per-layer metrics and writes every span to
``perfbench/spans/<workload>.npz``.  Every item's output is checked.

The second-to-last line of standard output is the full record (machine,
run, metrics and details) as JSON; the last line is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

import os

# one computing thread, at most nproc: fixed before numpy loads OpenBLAS
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from calibration import REFERENCE_SLICE_S, Calibration  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: A traced run leaves all its spans in ``<workload>.npz`` here.
SPANS = Path(__file__).resolve().parent / "spans"

#: Imports and workload set-ups per run; setup_s adds their medians.
SETUP_REPS = 3

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import twowin; print(time.perf_counter() - t)"
)

#: A run's timed work may reach this multiple of --seconds before it stops
#: early, which keeps a much slower program within the run time limit.
STOP_AFTER = 3

#: Every end-to-end metric an untraced run reports, with its unit.
END_TO_END_UNITS = {
    "setup_s": "s",
    "signals_per_s": "1/s",
    "cells_per_s": "cells/s",
    "recover_p50_ms": "ms",
    "recover_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def _import_twowin() -> None:
    """Import twowin from this checkout's src/, or exit without a result."""
    if not (SRC / "twowin" / "__init__.py").is_file():
        sys.exit(f"perfbench: no twowin sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import twowin

    if Path(twowin.__file__).resolve().parent != (SRC / "twowin").resolve():
        sys.exit(f"perfbench: imported twowin from {twowin.__file__}, not from {SRC}")


@dataclass
class Loop:
    """What a timed loop did, item by item: raw time, time scaled to the
    reference host speed, outcome and size."""

    calibration: Calibration
    raw: list = field(default_factory=list)
    scaled: list = field(default_factory=list)
    ok: list = field(default_factory=list)
    signals: list = field(default_factory=list)
    cells: list = field(default_factory=list)
    kinds: list = field(default_factory=list)
    keys: list = field(default_factory=list)
    statuses: Counter = field(default_factory=Counter)
    errors: Counter = field(default_factory=Counter)
    first_error: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.raw)

    @property
    def failed(self) -> int:
        return self.attempted - self.statuses["ok"]

    @property
    def timed_s(self) -> float:
        return sum(self.raw)

    @property
    def scaled_s(self) -> float:
        return sum(self.scaled)

    def good(self, sizes) -> int:
        return sum(n for n, ok in zip(sizes, self.ok) if ok)

    def run(self, wl, i, calls, tracer) -> None:
        """Prepare, time and check item ``i``."""
        item = wl.prepare(i)
        if tracer is not None:
            tracer.item = i
        clock = self.calibration.clock
        t0 = clock()
        try:
            out, exc = item.run(calls), None
        except Exception as err:  # every failure is counted and the run goes on
            out, exc = None, err
        dt = clock() - t0
        status = item.check(out, exc)
        self.statuses[status] += 1
        if exc is not None:
            name = type(exc).__name__
            self.errors[name] += 1
            self.first_error.setdefault(name, str(exc)[:200])
        self.raw.append(dt)
        self.scaled.append(dt)
        self.ok.append(status == "ok")
        self.signals.append(item.signals)
        self.cells.append(item.cells)
        self.kinds.append(item.kind)
        self.keys.append(i if item.key is None else item.key)
        self.calibration.add(self.raw, self.scaled, i)


def import_time() -> float:
    """Seconds a fresh interpreter takes to import twowin, numpy included."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout)


def scaled_median(calibration, measure) -> tuple:
    """Run ``measure`` SETUP_REPS times; the median of its times, each
    scaled by the calibration slices around it, and the raw times."""
    raw, scaled = [], []
    before = calibration.slice()
    for _ in range(SETUP_REPS):
        raw.append(measure())
        after = calibration.slice()
        scaled.append(raw[-1] * REFERENCE_SLICE_S / ((before + after) / 2))
        before = after
    return statistics.median(scaled), raw


def timed_loop(wl, calls, seconds, calibration, tracer=None) -> Loop:
    """Run the workload's fixed item set in order; only the call itself is
    timed.  A program far slower than nominal stops at the first whole
    cycle past ``STOP_AFTER`` times ``seconds`` of timed work."""
    loop = Loop(calibration)
    calibration.restart()
    with calibration.sampling():
        for i in range(wl.items()):
            if i % wl.cycle == 0 and loop.timed_s > STOP_AFTER * seconds:
                break
            loop.run(wl, i, calls, tracer)
    calibration.flush(loop.raw, loop.scaled)
    return loop


def per_input(loop: Loop, times):
    """Latency of each distinct input, the median over its repeats, with
    the input's kind."""
    runs: dict = {}
    for t, kind, key in zip(times, loop.kinds, loop.keys):
        runs.setdefault(key, (kind, []))[1].append(t)
    return [(statistics.median(ts), kind) for kind, ts in runs.values()]


def p50(latencies):
    """Median latency within each input kind, averaged over the kinds.

    The mixes put half their items in each of two cost modes, where a plain
    median falls in the gap between the modes and jumps from run to run.
    """
    by_kind: dict = {}
    for t, kind in latencies:
        by_kind.setdefault(kind, []).append(t)
    return statistics.fmean(statistics.median(v) for v in by_kind.values())


def tail(latencies):
    """Latency at the highest percentile with at least ten samples beyond
    it, that percentile, and the sample count.  Below 11 samples no such
    percentile exists and ``p50`` stands in, reported as percentile 50 (the
    maximum of a few seconds-long items is mostly host noise)."""
    n = len(latencies)
    if n < 11:
        return p50(latencies), 50.0, n
    xs = sorted(t for t, _ in latencies)
    return xs[n - 11], 100.0 * (n - 10) / n, n


def machine(seed, traced) -> dict:
    """The machine and run a record was taken on."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        rev = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "worker_threads": 1,
        "git_rev": rev,
        "seed": seed,
        "traced": bool(traced),
    }


def loop_details(loop: Loop) -> dict:
    return {
        "attempted": loop.attempted,
        "failed": loop.failed,
        "failed_frac": loop.failed / loop.attempted,
        "wrong": loop.statuses["wrong"],
        "errors": dict(loop.errors),
        "first_error": loop.first_error,
        "timed_s": loop.timed_s,
        "scaled_s": loop.scaled_s,
        "host_speed_factor": loop.calibration.factor(),
    }


def end_to_end(wl, loop: Loop, setup_s: float):
    latencies = per_input(loop, loop.scaled)
    value, pct, n = tail(latencies)
    metrics = {
        "setup_s": setup_s,
        "signals_per_s": loop.good(loop.signals) / loop.scaled_s,
        "cells_per_s": loop.good(loop.cells) / loop.scaled_s,
        "recover_p50_ms": 1e3 * p50(latencies),
        "recover_tail_ms": 1e3 * value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        **loop_details(loop),
        "cycles": loop.attempted // wl.cycle,
        "raw_signals_per_s": loop.good(loop.signals) / loop.timed_s,
        "raw_recover_p50_ms": 1e3 * p50(per_input(loop, loop.raw)),
        "recover_tail_percentile": pct,
        "latency_samples": n,
    }
    if wl.name == "oracle-periodic":
        details["rows_per_s"] = metrics["signals_per_s"]
    return metrics, details


def per_layer(wl, tracer, base: Loop, traced: Loop):
    from tracing import PER_LAYER_UNITS

    m = tracer.metrics()
    m["trace_overhead_frac"] = traced.scaled_s / base.scaled_s - 1.0
    totals = tracer.layer_totals()
    details = {
        **loop_details(traced),
        "cycles": traced.attempted // wl.cycle,
        "untraced_timed_s": base.timed_s,
        "same_outcomes": base.statuses == traced.statuses,
        "spans": len(tracer.start),
        "layers": totals,
        "share_of_timed": {k: v["s"] / traced.timed_s for k, v in totals.items()},
        "errors_by_span": {k: dict(v) for k, v in tracer.error_counts().items()},
    }
    return {k: m[k] for k in PER_LAYER_UNITS}, PER_LAYER_UNITS, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_twowin()
    from workloads import UNTRACED, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    calibration = Calibration()  # its first slice pays numpy's lazy set-up
    built = []

    def set_up() -> float:
        built.clear()  # let the previous set-up go before building the next
        t0 = time.perf_counter()
        built.append(workload(args.seed, args.seconds))
        built[0].warm_up(UNTRACED)
        return time.perf_counter() - t0

    import_s, import_raw = scaled_median(calibration, import_time)
    build_s, build_raw = scaled_median(calibration, set_up)
    setup_s = import_s + build_s
    wl = built[0]

    if args.trace:
        from tracing import Tracer

        base = timed_loop(wl, UNTRACED, args.seconds, calibration)
        tracer = Tracer(calibration.clock)
        with tracer.installed() as calls:
            loop = timed_loop(wl, calls, args.seconds, calibration, tracer)
        metrics, units, details = per_layer(wl, tracer, base, loop)
        correct = base.statuses["wrong"] == 0 and loop.statuses["wrong"] == 0
        SPANS.mkdir(exist_ok=True)
        tracer.write_spans(SPANS / f"{args.workload}.npz")
    else:
        loop = timed_loop(wl, UNTRACED, args.seconds, calibration)
        metrics, details = end_to_end(wl, loop, setup_s)
        units = END_TO_END_UNITS
        correct = loop.statuses["wrong"] == 0

    details.update(import_raw_s=import_raw, setup_raw_s=build_raw,
                   reference_slice_s=REFERENCE_SLICE_S, **wl.describe())
    named = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "run": machine(args.seed, args.trace),
        "metrics": named,
        "details": details,
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": named,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
