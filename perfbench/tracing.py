"""Per-layer spans recorded from outside the library.

The tracer replaces the module attributes that callers inside ``twowin``
look up at call time, so a call from ``reconstruct`` into
``stitcher.recover_local`` passes through a wrapper that records a span:
name, start, end, parent span and item id.  The benchmark's own call sites
for ``measure``, ``reconstruct`` and ``uniqueness_oracle`` are wrapped the
same way.  Spans live in compact in-memory arrays until the run ends,
when ``write_spans`` saves them, and every patched attribute is put back
when the ``installed`` block exits.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator

import numpy as np

from twowin import local_recovery, stitcher, verifier

from workloads import Calls, UNTRACED

#: (module, attribute, span name): attributes the library looks up at call time.
PATCHES = (
    (stitcher, "recover_local", "local_recovery.recover_local"),
    (stitcher, "align_overlaps", "stitcher.align_overlaps"),
    (stitcher, "resolve_reflection", "stitcher.resolve_reflection"),
    (stitcher, "measure", "stft_engine.measure"),
    (local_recovery, "autocorrelation_from_magnitudes",
     "local_recovery.autocorrelation_from_magnitudes"),
    (local_recovery, "enumerate_candidates", "local_recovery.enumerate_candidates"),
    (local_recovery, "prune_with_second_window", "local_recovery.prune_with_second_window"),
    (verifier, "measure_batch", "stft_engine.measure_batch"),
    (verifier, "pair_equivalent", "verifier.pair_equivalent"),
)

#: Spans at the benchmark's own call sites, keyed by the ``Calls`` field.
CALL_SITES = {
    "measure": "stft_engine.measure",
    "reconstruct": "stitcher.reconstruct",
    "uniqueness_oracle": "verifier.uniqueness_oracle",
}

#: Error classes with a metric of their own; any other class counts as "other".
LOCAL_ERRORS = ("InconsistentMeasurements", "UnrealizableAutocorrelation", "AmbiguityViolation")
STITCH_ERRORS = ("SeparableInputError", "InconsistentMeasurements", "RecursionError")
AMBIGUITIES = ("phase_only", "phase_or_reflection")

#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER_UNITS: Dict[str, str] = {
    "stft_engine.measure.calls": "count",
    "stft_engine.measure.s": "s",
    "stft_engine.measure_batch.rows": "count",
    "stft_engine.measure_batch.s": "s",
    "local_recovery.recover_local.calls": "count",
    "local_recovery.recover_local.s": "s",
    "local_recovery.recover_local.zero_nodes": "count",
    "local_recovery.recover_local.two_class_nodes": "count",
    "local_recovery.recover_local.reflection_nodes": "count",
    "local_recovery.autocorrelation_from_magnitudes.s": "s",
    "local_recovery.enumerate_candidates.s": "s",
    "local_recovery.enumerate_candidates.candidates": "count",
    "local_recovery.prune_with_second_window.s": "s",
    "local_recovery.prune_with_second_window.survivors": "count",
    "local_recovery.survivor_ratio": "ratio",
    **{f"local_recovery.errors.{c}": "count" for c in LOCAL_ERRORS + ("other",)},
    "stitcher.reconstruct.calls": "count",
    "stitcher.reconstruct.s": "s",
    "stitcher.align_overlaps.self_s": "s",
    "stitcher.resolve_reflection.self_s": "s",
    **{f"stitcher.errors.{c}": "count" for c in STITCH_ERRORS + ("other",)},
    **{f"stitcher.ambiguity.{k}": "count" for k in AMBIGUITIES},
    "verifier.uniqueness_oracle.calls": "count",
    "verifier.uniqueness_oracle.self_s": "s",
    "verifier.pair_equivalent.calls": "count",
    "verifier.pair_equivalent.s": "s",
    "verifier.groups": "count",
    "verifier.violations": "count",
    "verifier.violation_ratio": "ratio",
    "trace_overhead_frac": "ratio",
}


def _observe_local(counts: Counter, cls) -> int:
    if cls.is_zero:
        counts["local_recovery.recover_local.zero_nodes"] += 1
        return 0
    counts["local_recovery.recover_local.two_class_nodes"] += len(cls.representatives) == 2
    counts["local_recovery.recover_local.reflection_nodes"] += cls.includes_reflection
    return len(cls.representatives)


def _observe_oracle(counts: Counter, report) -> int:
    counts["verifier.groups"] += report.class_count
    counts["verifier.violations"] += report.violation_count
    return report.violation_count


def _observe_reconstruct(counts: Counter, report) -> int:
    counts[f"stitcher.ambiguity.{report.ambiguity}"] += 1
    return 0


def _count(metric: str, size: Callable[[object], int]) -> Callable[[Counter, object], int]:
    def observe(counts: Counter, out) -> int:
        n = size(out)
        counts[metric] += n
        return n

    return observe


#: Counts taken from a call's result at the span boundary.  Each returns the
#: span's own work count, which the span keeps.
OBSERVERS: Dict[str, Callable[[Counter, object], int]] = {
    "local_recovery.recover_local": _observe_local,
    "local_recovery.enumerate_candidates": _count(
        "local_recovery.enumerate_candidates.candidates", len),
    "local_recovery.prune_with_second_window": _count(
        "local_recovery.prune_with_second_window.survivors", lambda c: len(c.representatives)),
    "stft_engine.measure_batch": _count("stft_engine.measure_batch.rows", lambda m: m.shape[0]),
    "stitcher.reconstruct": _observe_reconstruct,
    "verifier.uniqueness_oracle": _observe_oracle,
}


class Tracer:
    """Records one span per wrapped call while installed, timed by ``clock``."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.names: list = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.item_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self.errors: Dict[int, str] = {}
        self.counts: Counter = Counter()
        self.item = -1
        self._stack = [-1]

    def wrap(self, span: str, fn: Callable) -> Callable:
        nid = self._ids.setdefault(span, len(self._ids))
        if nid == len(self.names):
            self.names.append(span)
        observe = OBSERVERS.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.item_of.append(self.item)
            self.end.append(0.0)
            self.work.append(0)
            self._stack.append(sid)
            t0 = self.clock()
            self.start.append(t0)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[sid] = type(exc).__name__
                raise
            finally:
                self.end[sid] = self.clock()
                self._stack.pop()
            if observe is not None:
                self.work[sid] = observe(self.counts, out)
            return out

        return traced

    @contextmanager
    def installed(self) -> Iterator[Calls]:
        """Patch the library for the block; yields the traced call sites."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in PATCHES]
        try:
            for module, attr, span in PATCHES:
                setattr(module, attr, self.wrap(span, getattr(module, attr)))
            yield Calls(**{
                field: self.wrap(span, getattr(UNTRACED, field))
                for field, span in CALL_SITES.items()
            })
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def _arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return name, dur, dur - child

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Calls, total seconds and self seconds per span name."""
        name, dur, self_t = self._arrays()
        out = {}
        for nid, span in enumerate(self.names):
            mask = name == nid
            out[span] = {
                "calls": int(mask.sum()),
                "s": float(dur[mask].sum()),
                "self_s": float(self_t[mask].sum()),
            }
        return out

    def error_counts(self) -> Dict[str, Counter]:
        """Exception classes raised out of each span name."""
        out: Dict[str, Counter] = {}
        for sid, cls in self.errors.items():
            out.setdefault(self.names[self.name[sid]], Counter())[cls] += 1
        return out

    def metrics(self) -> Dict[str, float]:
        """Every per-layer metric except the tracing overhead."""
        spans = {span for _, _, span in PATCHES} | set(CALL_SITES.values())
        zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
        totals = self.layer_totals()
        m: Dict[str, float] = {}
        for name, unit in PER_LAYER_UNITS.items():
            span, _, key = name.rpartition(".")
            if span in spans and key in zero:
                m[name] = totals.get(span, zero)[key]
            elif unit == "count":
                m[name] = self.counts.get(name, 0)
        errors = self.error_counts()
        stitch = errors.get("stitcher.align_overlaps", Counter()) + errors.get(
            "stitcher.resolve_reflection", Counter())
        for prefix, known, seen in (
            ("local_recovery.errors", LOCAL_ERRORS,
             errors.get("local_recovery.recover_local", Counter())),
            ("stitcher.errors", STITCH_ERRORS, stitch),
        ):
            for cls in known:
                m[f"{prefix}.{cls}"] = seen.get(cls, 0)
            m[f"{prefix}.other"] = sum(n for cls, n in seen.items() if cls not in known)
        cands = m["local_recovery.enumerate_candidates.candidates"]
        survivors = m["local_recovery.prune_with_second_window.survivors"]
        m["local_recovery.survivor_ratio"] = survivors / cands if cands else 0.0
        checks = m["verifier.pair_equivalent.calls"]
        m["verifier.violation_ratio"] = m["verifier.violations"] / checks if checks else 0.0
        return m

    def write_spans(self, path) -> None:
        """Every span, as arrays indexed by span id, to an ``.npz`` file:
        ``name`` (an index into ``names``), ``start``, ``end``, ``parent``
        (-1 at the top), ``item``, ``work`` (the span's own work count), and
        ``error_span`` with ``error`` for the spans that raised."""
        errors = sorted(self.errors.items())
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            item=np.frombuffer(self.item_of, dtype=np.int32),
            work=np.frombuffer(self.work, dtype=np.int64),
            error_span=np.array([sid for sid, _ in errors], dtype=np.int64),
            error=np.array([cls for _, cls in errors], dtype=str),
        )
