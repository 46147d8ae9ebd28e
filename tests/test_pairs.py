"""The verdict columns, the run loop and the record of ``scripts/pairs.py``, on
synthetic runs."""

import importlib.util
import json
import subprocess
from pathlib import Path
from types import SimpleNamespace

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", SCRIPT)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

METRICS = [
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "wait", "unit": "ms", "better": "lower", "bound": 0.25},
]


def _runs(rate, wait):
    """One (parent, change) result pair per seed from ``(parent, change)``
    values of each metric."""
    def result(r, w):
        return {"metrics": {"rate": {"value": r}, "wait": {"value": w}},
                "failed": 0, "attempted": 10}
    return [(result(rp, wp), result(rc, wc)) for (rp, rc), (wp, wc) in zip(rate, wait)]


def _verdicts(runs):
    """{metric: (won, claim, bound)} read back from the printed table."""
    rows = pairs.table(METRICS, runs).splitlines()
    assert rows[0].split("|")[-3:-1] == [" claim ", " bound "]
    assert rows[-1].startswith("| failed share | 0 of")
    out = {}
    for row in rows[2:-1]:
        cells = [c.strip() for c in row.strip("|").split("|")]
        out[cells[0].split()[0]] = tuple(cells[3:])
    return out


def test_a_clear_gain_is_a_claim_and_a_loss_past_the_bound_is_outside():
    # the rate rises by 10 on a parent spread of about 2 in every pair; the
    # wait doubles, far past its 25% bound
    rate = [(100.0 + i % 3, 110.0 + i % 3) for i in range(10)]
    wait = [(10.0 + 0.1 * i, 20.0 + 0.1 * i) for i in range(10)]
    got = _verdicts(_runs(rate, wait))
    assert got["rate"] == ("10 of 10", "yes", "inside")
    assert got["wait"] == ("0 of 10", "no", "outside")


def test_a_claim_needs_nine_of_ten_pairs_and_a_gain_past_the_spread():
    # eight wins of ten, each large: not a claim
    rate = [(100.0, 120.0)] * 8 + [(100.0, 90.0)] * 2
    # ten wins, but the median gain (0.5) sits inside the parent's spread
    wait = [(10.0 + i, 9.5 + i) for i in range(10)]
    got = _verdicts(_runs(rate, wait))
    assert got["rate"] == ("8 of 10", "no", "inside")
    assert got["wait"] == ("10 of 10", "no", "inside")
    # nine wins of ten with a gain past the spread is one
    rate = [(100.0 + i % 2, 110.0) for i in range(9)] + [(100.0, 99.0)]
    assert _verdicts(_runs(rate, wait))["rate"] == ("9 of 10", "yes", "inside")


def test_the_bound_is_a_fraction_of_the_parents_median():
    # a 24% loss stays inside a 25% bound, and a 26% loss is outside it
    rate = [(100.0, 76.0)] * 4
    wait = [(10.0, 12.6)] * 4
    got = _verdicts(_runs(rate, wait))
    assert got["rate"][2] == "inside" and got["wait"][2] == "outside"


# --- the run loop and the record ----------------------------------------------


def _fake_runs(monkeypatch, failures):
    """Replace the subprocess run by synthetic ones: the change is faster by
    a tenth on every seed, and ``failures`` maps (workload, seed, side) to
    what goes wrong there: "exit" (no result line) or "wrong" (a wrong
    output); the seed of a traced run's key is "traced".  A traced run
    reports one per-layer count, 18 calls on the parent and 10 on the
    change."""
    calls = []

    def run_once(checkout, workload, seed, seconds, trace=0):
        side = "parent" if checkout.name == "p" else "change"
        calls.append((workload, "traced" if trace else seed, side))
        how = failures.get(calls[-1])
        if how == "exit":
            return {"result": None, "machine": None,
                    "failure": "exited 1: RuntimeError: list changed size during iteration"}
        rate = 100.0 + seed % 3 + (10.0 if side == "change" else 0.0)
        result = {"correct": how != "wrong", "attempted": 10, "failed": int(how == "wrong"),
                  "metrics": {"rate": {"value": rate}, "wait": {"value": 1000.0 / rate}}}
        if trace:
            result["metrics"] = {"calls": {"value": 18 if side == "parent" else 10,
                                           "unit": "count"}}
        return {"result": result, "machine": {"python": "3.x", "numpy": "2.x"},
                "failure": "wrong output" if how == "wrong" else None}

    monkeypatch.setattr(pairs, "run_once", run_once)
    return calls


def _record_in(tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    monkeypatch.setattr(pairs, "ROOT", tmp_path)
    for name in ("p", "c"):
        (tmp_path / name).mkdir()
    return [str(tmp_path / "p"), str(tmp_path / "c")]


def test_a_failed_run_is_recorded_and_the_script_goes_on(tmp_path, monkeypatch, capsys):
    checkouts = _record_in(tmp_path, monkeypatch)
    calls = _fake_runs(monkeypatch, {("mix", 3, "parent"): "exit", ("mix", 6, "change"): "wrong"})
    code = pairs.main([*checkouts, "--workload", "mix", "long", "--seeds", "1-10", "--record"])
    assert code == 1
    # every run of both workloads ran, each seed's parent first on odd seeds,
    # and each workload ended with one traced run per side
    assert len(calls) == 2 * (2 * 10 + 2)
    assert calls[:4] == [("mix", 1, "parent"), ("mix", 1, "change"),
                         ("mix", 2, "change"), ("mix", 2, "parent")]
    assert calls[20:22] == [("mix", "traced", "parent"), ("mix", "traced", "change")]
    out = capsys.readouterr().out
    assert "mix: 8 alternating pair(s)" in out and "long: 10 alternating pair(s)" in out
    assert "failed run: seed 3 parent: exited 1" in out
    assert "failed run: seed 6 change: wrong output" in out

    record = json.loads((tmp_path / "BENCH_p-c.json").read_text())
    mix = record["workloads"]["mix"]
    assert mix["failed_runs"] == {"parent": 1, "change": 1}
    # the wrong run's items count in the failed share; the exited run has none
    assert mix["failed_share"] == {"parent": [0, 90], "change": [1, 100]}
    assert {r["metric"]: (r["won"], r["pairs"], r["claim"]) for r in mix["table"]} == {
        "rate": (8, 8, True), "wait": (8, 8, True)}
    [exited] = [r for r in mix["runs"] if r["result"] is None]
    assert (exited["seed"], exited["side"]) == (3, "parent")
    assert record["workloads"]["long"]["failed_runs"] == {"parent": 0, "change": 0}


def test_the_record_holds_the_machine_every_run_and_both_verdicts(tmp_path, monkeypatch):
    checkouts = _record_in(tmp_path, monkeypatch)
    _fake_runs(monkeypatch, {})
    assert pairs.main([*checkouts, "--workload", "mix", "--seeds", "1-4", "--record"]) == 0
    # a second invocation adds its workload and keeps the first
    assert pairs.main([*checkouts, "--workload", "long", "--seeds", "1", "--record"]) == 0
    record = json.loads((tmp_path / "BENCH_p-c.json").read_text())
    assert set(record) == {"parent", "change", "machine", "workloads"}
    assert (record["parent"], record["change"]) == ("p", "c")
    assert record["machine"] == {"python": "3.x", "numpy": "2.x"}
    assert set(record["workloads"]) == {"mix", "long"}
    mix = record["workloads"]["mix"]
    assert set(mix) == {"seconds", "runs", "table", "failed_share", "failed_runs", "traced"}
    # one traced run per side, on the first seed, with its per-layer metrics
    assert mix["traced"] == {
        "parent": {"seed": 1, "metrics": {"calls": {"value": 18, "unit": "count"}},
                   "failure": None},
        "change": {"seed": 1, "metrics": {"calls": {"value": 10, "unit": "count"}},
                   "failure": None},
    }
    assert [(r["seed"], r["side"]) for r in mix["runs"]] == [
        (1, "parent"), (1, "change"), (2, "change"), (2, "parent"),
        (3, "parent"), (3, "change"), (4, "change"), (4, "parent")]
    assert all(set(r) == {"seed", "side", "result", "failure"} and r["failure"] is None
               for r in mix["runs"])
    for row in mix["table"]:
        assert set(row) == {"metric", "unit", "parent", "change", "won", "pairs", "claim", "bound"}
        assert set(row["parent"]) == set(row["change"]) == {"median", "q1", "q3"}
        assert row["bound"] in ("inside", "outside")
    # the record's verdicts are the printed table's
    runs = pairs.complete_pairs([{**r, "machine": None} for r in mix["runs"]])
    assert _verdicts(runs) == {
        r["metric"]: (f"{r['won']} of {r['pairs']}", "yes" if r["claim"] else "no", r["bound"])
        for r in mix["table"]}


def test_a_failed_traced_run_is_recorded_and_not_fatal(tmp_path, monkeypatch, capsys):
    # the change's traced run exits, and the parent's gives a wrong output:
    # both are recorded, every untraced run finished right, so the exit is 0
    checkouts = _record_in(tmp_path, monkeypatch)
    calls = _fake_runs(monkeypatch, {("mix", "traced", "change"): "exit",
                                     ("mix", "traced", "parent"): "wrong"})
    assert pairs.main([*checkouts, "--workload", "mix", "long", "--seeds", "1-3",
                       "--record"]) == 0
    # the next workload still ran, and ended with its own traced runs
    assert calls[-2:] == [("long", "traced", "parent"), ("long", "traced", "change")]
    out = capsys.readouterr().out
    assert "failed traced run: seed 1 change: exited 1" in out
    assert "failed traced run: seed 1 parent: wrong output" in out
    record = json.loads((tmp_path / "BENCH_p-c.json").read_text())
    traced = record["workloads"]["mix"]["traced"]
    assert traced["change"] == {"seed": 1, "metrics": None,
                                "failure": "exited 1: RuntimeError: list changed size during "
                                           "iteration"}
    assert traced["parent"]["failure"] == "wrong output"
    assert traced["parent"]["metrics"] == {"calls": {"value": 18, "unit": "count"}}
    # the failed traced runs count in neither table nor failed share
    mix = record["workloads"]["mix"]
    assert mix["failed_runs"] == {"parent": 0, "change": 0}
    assert mix["failed_share"] == {"parent": [0, 30], "change": [0, 30]}
    assert record["workloads"]["long"]["traced"]["change"]["failure"] is None


def test_the_selftest_target_times_twowin_selftest_in_fresh_processes(tmp_path, monkeypatch,
                                                                      capsys):
    # each run is `python -m twowin.cli selftest` on the checkout's src/ with
    # one BLAS thread, in the same alternation; the parent takes 4 s and the
    # change 3 s.  Seed 3's change run fails a criterion (a wrong output) and
    # seed 4's parent run ends on an error (no result)
    checkouts = _record_in(tmp_path, monkeypatch)
    runs, clock = [], [0.0]

    def fake_run(cmd, cwd=None, env=None, capture_output=False, text=False):
        if cmd[0] == "git":  # the record's labels: no git here
            return subprocess.CompletedProcess(cmd, 128, "", "")
        side = Path(cwd).name
        runs.append((side, cmd[1:], env["OPENBLAS_NUM_THREADS"], env["PYTHONPATH"]))
        clock[0] += 4.0 if side == "p" else 3.0
        if len(runs) == 6:
            return subprocess.CompletedProcess(cmd, 1, "criterion  1 [FAIL] ...\n", "")
        if len(runs) == 8:
            return subprocess.CompletedProcess(cmd, 1, "", "Traceback ...\nMemoryError\n")
        return subprocess.CompletedProcess(cmd, 0, "criterion  1 [PASS] ...\n", "")

    monkeypatch.setattr(pairs, "subprocess",
                        SimpleNamespace(run=fake_run, CompletedProcess=subprocess.CompletedProcess))
    monkeypatch.setattr(pairs, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    code = pairs.main([*checkouts, "--workload", "selftest", "--seeds", "1-4", "--record"])
    assert code == 1
    # no traced run follows
    assert [side for side, *_ in runs] == ["p", "c", "c", "p", "p", "c", "c", "p"]
    for side, argv, threads, path in runs:
        assert argv == ["-m", "twowin.cli", "selftest"] and threads == "1"
        assert path == str((tmp_path / side / "src").resolve())
    out = capsys.readouterr().out
    assert "selftest: 2 alternating pair(s) of selftest runs" in out
    assert "failed run: seed 3 change: wrong output" in out
    assert "failed run: seed 4 parent: exited 1: MemoryError" in out
    assert "| wall_s (s) | 4 [4, 4] | 3 [3, 3] | 2 of 2 | yes | inside |" in out

    record = json.loads((tmp_path / "BENCH_p-c.json").read_text())
    selftest = record["workloads"]["selftest"]
    assert set(selftest) == {"seconds", "runs", "table", "failed_share", "failed_runs", "traced"}
    assert selftest["seconds"] is None and selftest["traced"] is None
    assert selftest["failed_runs"] == {"parent": 1, "change": 1}
    assert selftest["failed_share"] == {"parent": [0, 3], "change": [1, 4]}
    [row] = selftest["table"]
    assert (row["metric"], row["unit"], row["won"], row["pairs"], row["claim"], row["bound"]) == (
        "wall_s", "s", 2, 2, True, "inside")
    assert row["parent"] == {"median": 4.0, "q1": 4.0, "q3": 4.0}
    assert row["change"] == {"median": 3.0, "q1": 3.0, "q3": 3.0}
    wrong = selftest["runs"][5]
    assert (wrong["seed"], wrong["side"], wrong["failure"]) == (3, "change", "wrong output")
    assert wrong["result"] == {"correct": False, "attempted": 1, "failed": 1,
                               "metrics": {"wall_s": {"value": 3.0, "unit": "s"}}}
    assert selftest["runs"][7]["result"] is None
    # selftest runs name no machine
    assert record["machine"] is None
