"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import signal
import subprocess
import sys

from pathlib import Path

import numpy as np
import pytest

from twowin import local_recovery, stitcher
from twowin.signal_model import GridSpec, Signal
from twowin.stft_engine import windowed_segment
import run
import tracing
from calibration import SLICE_EVERY_S, Calibration
from workloads import UNTRACED, WORKLOADS, OraclePeriodic, PipelineExhaustive, _Roundtrip

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
TINY = GridSpec(B=1.0, L=8, origin=8, horizon=16)


def tiny_case():
    case = _Roundtrip.build(TINY, 1.0, 0.25)
    return case, case.signal(7)


def test_traced_run_restores_every_patched_attribute():
    before = {(m.__name__, a): getattr(m, a) for m, a, _ in tracing.PATCHES}
    case, f = tiny_case()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed() as calls:
            assert all(getattr(m, a) is not before[m.__name__, a] for m, a, _ in tracing.PATCHES)
            case.item(f).run(calls)
            raise RuntimeError("leave the block by an exception")
    after = {(m.__name__, a): getattr(m, a) for m, a, _ in tracing.PATCHES}
    assert after == before
    assert stitcher.recover_local is local_recovery.recover_local


def test_traced_reconstruct_returns_the_same_bytes():
    case, f = tiny_case()
    plain = case.item(f).run(UNTRACED)
    tracer = tracing.Tracer()
    with tracer.installed() as calls:
        traced = case.item(f).run(calls)
    assert traced.signal.samples.tobytes() == plain.signal.samples.tobytes()
    assert traced.ambiguity == plain.ambiguity
    assert tracer.layer_totals()["stitcher.reconstruct"]["calls"] == 1


def test_written_spans_read_back_as_recorded(tmp_path):
    case, f = tiny_case()
    tracer = tracing.Tracer()
    tracer.item = 3
    with tracer.installed() as calls:
        case.item(f).run(calls)
    tracer.errors[0] = "RecursionError"  # exercise the error arrays as well
    tracer.write_spans(tmp_path / "spans.npz")
    with np.load(tmp_path / "spans.npz") as spans:
        assert list(spans["names"]) == tracer.names
        assert spans["name"].tolist() == tracer.name.tolist()
        assert spans["parent"].tolist() == tracer.parent.tolist()
        assert spans["start"].tolist() == tracer.start.tolist()
        assert spans["end"].tolist() == tracer.end.tolist()
        assert spans["work"].tolist() == tracer.work.tolist()
        assert set(spans["item"].tolist()) == {3}
        assert spans["error_span"].tolist() == [0] and list(spans["error"]) == ["RecursionError"]


def test_a_traced_run_writes_its_spans(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SPANS", tmp_path)
    assert run.main(["--workload", "pipeline-exhaustive", "--seed", "1",
                     "--seconds", "0.5", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    with np.load(tmp_path / "pipeline-exhaustive.npz") as spans:
        names = spans["names"][spans["name"]]
        assert np.count_nonzero(names == "stitcher.reconstruct") == result["attempted"]
        assert np.count_nonzero(names == "stft_engine.measure") == (
            result["metrics"]["stft_engine.measure.calls"]["value"])
        assert np.all(spans["end"] >= spans["start"])


def test_counts_obey_the_enumeration_and_survivor_bounds():
    case, f = tiny_case()
    tracer = tracing.Tracer()
    with tracer.installed() as calls:
        case.item(f).run(calls)
    names = [tracer.names[n] for n in tracer.name]
    nodes = [sid for sid, n in enumerate(names) if n == "local_recovery.recover_local"]
    assert len(nodes) == len(case.nodes.times)
    L = TINY.L
    checked = 0
    for sid, t in zip(nodes, case.nodes.times):
        children = {names[c]: tracer.work[c] for c in range(len(names)) if tracer.parent[c] == sid}
        support = np.nonzero(np.abs(windowed_segment(f, case.pair, t)) > 1e-12)[0]
        s = int(support[-1] - support[0] + 1)
        assert 1 <= children["local_recovery.enumerate_candidates"] <= 2 ** (s - 1) * (L - s + 1)
        assert 1 <= children["local_recovery.prune_with_second_window"] <= 2
        checked += 1
    assert checked == len(nodes)
    m = tracer.metrics()
    assert 0 < m["local_recovery.survivor_ratio"] <= 1


def test_a_second_seed_keeps_the_exhaustive_counts():
    first, second = PipelineExhaustive(1, 1.0), PipelineExhaustive(2, 1.0)
    assert not np.array_equal(first.family, second.family)
    assert [s[:3] for s in first.scans] == [s[:3] for s in second.scans]
    assert [s[:3] for s in first.scans] == list(PipelineExhaustive.REFERENCE)

    counts = []
    for seed in (1, 2):
        wl = OraclePeriodic(seed, 1.0)
        reports = [wl.prepare(i).run(UNTRACED) for i in range(2)]
        counts.append([(r.class_count, r.violation_count) for r in reports])
    assert counts[0] == counts[1] == list(OraclePeriodic.REFERENCE)


def test_oracle_check_finds_family_rows_and_only_them():
    wl = OraclePeriodic(1, 1.0)
    grid = OraclePeriodic.GRID
    for k in (0, 1234, len(wl.samples) - 1):
        assert wl._row(Signal(grid, wl.samples[k].copy())) == k
    assert wl._row(Signal(grid, wl.samples[1234] + 1e-6)) is None
    report = wl.prepare(1).run(UNTRACED)
    assert report.violation_count == 176
    assert wl.prepare(1).check(report, None) == "ok"


def test_calibration_timer_samples_inside_items_and_is_removed():
    previous = signal.getsignal(signal.SIGALRM)
    calibration = Calibration()
    case, f = tiny_case()
    with calibration.sampling():
        t0 = calibration.clock()
        while calibration.clock() - t0 < 3 * SLICE_EVERY_S:
            case.item(f).run(UNTRACED)
    assert len(calibration.slices) > 2
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "roundtrip-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
