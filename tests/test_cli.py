import json
from pathlib import Path

import numpy as np
import pytest

from twowin import (
    GridSpec,
    ReconstructionReport,
    Signal,
    build_window,
    global_phase_align,
    measure,
    measurements_equal,
    random_nonseparable,
)
from twowin import cli


GOLDEN = Path(__file__).parent / "golden"


def _write_signal(sig, path):
    cli.dump_json(cli.signal_to_obj(sig), path)


@pytest.fixture
def generic_signal(tmp_path):
    grid = GridSpec(B=1.0, L=8, origin=16, horizon=32)
    sig = random_nonseparable(grid, support_len=29, gap_bound=1.0, seed=5)
    path = tmp_path / "sig.json"
    _write_signal(sig, path)
    return sig, path


def test_measure_then_recover_roundtrip(run_cli, tmp_path, generic_signal):
    sig, sig_path = generic_signal
    m_path = tmp_path / "m.json"
    code, out, _ = run_cli("measure", sig_path, "--out", m_path)
    assert code == 0
    assert "9 nodes x 16 bins" in out

    r_path = tmp_path / "r.json"
    s_path = tmp_path / "rec.json"
    code, out, _ = run_cli("recover", m_path, "--report", r_path, "--signal-out", s_path)
    assert code == 0
    assert "ambiguity=phase_only" in out

    report = json.loads(r_path.read_text())
    assert sorted(report) == [
        "alternative", "ambiguity", "anchor_used", "lambda", "residual", "signal"
    ]
    assert report["ambiguity"] == "phase_only"
    assert report["residual"] <= 1e-8
    assert report["anchor_used"] is False
    assert report["alternative"] is None
    rec = cli.load_signal(s_path)
    assert global_phase_align(rec, sig).residual <= 1e-8


def test_measurement_file_roundtrip_is_exact(run_cli, tmp_path, generic_signal):
    _, sig_path = generic_signal
    m_path = tmp_path / "m.json"
    run_cli("measure", sig_path, "--out", m_path, "--anchor", "incommensurate")
    ms = cli.load_measurement(m_path)
    again = tmp_path / "again.json"
    cli.dump_json(cli.measurement_to_obj(ms), again)
    assert again.read_bytes() == m_path.read_bytes()


def test_measure_is_deterministic(run_cli, tmp_path, generic_signal):
    _, sig_path = generic_signal
    one, two = tmp_path / "one.json", tmp_path / "two.json"
    run_cli("measure", sig_path, "--out", one)
    run_cli("measure", sig_path, "--out", two)
    assert one.read_bytes() == two.read_bytes()


def test_measure_zero_signal(run_cli, tmp_path):
    grid = GridSpec(B=1.0, L=8, origin=16, horizon=32)
    sig_path = tmp_path / "zero.json"
    _write_signal(Signal(grid, np.zeros(32, dtype=np.complex128)), sig_path)
    m_path = tmp_path / "m.json"
    assert run_cli("measure", sig_path, "--out", m_path)[0] == 0
    ms = cli.load_measurement(m_path)
    assert not np.any(ms.mags)


def test_measure_matches_golden_output(run_cli, tmp_path):
    grid = GridSpec(B=1.0, L=8, origin=32, horizon=64)
    sig = random_nonseparable(grid, support_len=61, gap_bound=1.0, seed=7)
    sig_path = tmp_path / "sig7.json"
    _write_signal(sig, sig_path)
    assert sig_path.read_bytes() == (GOLDEN / "sig7.json").read_bytes()
    m_path = tmp_path / "m.json"
    assert run_cli("measure", sig_path, "--out", m_path)[0] == 0
    assert m_path.read_bytes() == (GOLDEN / "measure_seed7.json").read_bytes()


def test_measurement_csv_header(run_cli, tmp_path, generic_signal):
    _, sig_path = generic_signal
    csv_path = tmp_path / "m.csv"
    run_cli("measure", sig_path, "--out", tmp_path / "m.json", "--csv", csv_path)
    assert csv_path.read_text().splitlines()[0] == "w,t,n,omega,value"


def test_exit_codes_for_the_three_canonical_runs(run_cli, tmp_path, generic_signal):
    # generic signal: clean recovery
    _, sig_path = generic_signal
    m_path = tmp_path / "m.json"
    run_cli("measure", sig_path, "--out", m_path)
    assert run_cli("recover", m_path, "--report", tmp_path / "r.json")[0] == 0

    # separable signal: declared failure
    assert run_cli("forge", "separable_gap", "--outdir", tmp_path / "sep")[0] == 0
    m_sep = tmp_path / "m_sep.json"
    run_cli("measure", tmp_path / "sep" / "f.json", "--out", m_sep)
    code, _, err = run_cli("recover", m_sep, "--report", tmp_path / "r_sep.json")
    assert code == 1
    assert "separable input" in err

    # oversized lattice step: declared refusal
    m_wide = tmp_path / "m_wide.json"
    run_cli("measure", sig_path, "--out", m_wide, "--a", 1.5)
    code, _, err = run_cli("recover", m_wide, "--report", tmp_path / "r_wide.json")
    assert code == 1
    assert "a > B" in err


def test_unresolved_ambiguity_maps_to_exit_two(
    run_cli, tmp_path, generic_signal, monkeypatch
):
    sig, sig_path = generic_signal
    m_path = tmp_path / "m.json"
    run_cli("measure", sig_path, "--out", m_path)

    def fake_reconstruct(ms, pair, **kwargs):
        return ReconstructionReport(
            signal=sig,
            ambiguity="phase_or_reflection",
            residual=0.0,
            lambdas=(1.0 + 0j,),
        )

    monkeypatch.setattr(cli, "reconstruct", fake_reconstruct)
    code, out, _ = run_cli("recover", m_path, "--report", tmp_path / "r.json")
    assert code == 2
    assert "ambiguity=phase_or_reflection" in out


def test_bare_lattice_recovery_exits_two_with_its_alternative(run_cli, tmp_path):
    # the rational_lattice forge's f, measured on the forge's bare lattice
    # (no anchor), keeps its conjugate reflection as an honest alternative
    outdir = tmp_path / "forged"
    assert run_cli("forge", "rational_lattice", "--outdir", outdir)[0] == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    f = cli.load_signal(outdir / "f.json")
    nodes = cli.nodes_from_obj(manifest["nodes"], "manifest")
    pair = build_window(manifest["window"]["profile"], f.grid, b=manifest["window"]["b"])
    ms = measure(f, pair, nodes)
    m_path = tmp_path / "m.json"
    cli.dump_json(cli.measurement_to_obj(ms), m_path)

    r_path = tmp_path / "r.json"
    code, out, _ = run_cli("recover", m_path, "--report", r_path)
    assert code == 2
    assert "ambiguity=phase_or_reflection" in out
    report = json.loads(r_path.read_text())
    assert report["ambiguity"] == "phase_or_reflection"
    assert report["anchor_used"] is False
    alt = cli.signal_from_obj(report["alternative"], "alternative")
    rec = cli.signal_from_obj(report["signal"], "signal")
    assert global_phase_align(alt, rec).residual > 0.1
    equal, _ = measurements_equal(measure(alt, pair, nodes), ms, tol=1e-8)
    assert equal


def test_forge_and_verify_pair_manifest(run_cli, tmp_path):
    outdir = tmp_path / "forged"
    code, out, _ = run_cli("forge", "rational_periodic", "--outdir", outdir)
    assert code == 0
    assert "forged rational_periodic" in out
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["claim"] == "rational_periodic"
    assert manifest["files"] == {"f": "f.json", "g": "g.json"}
    assert manifest["min_distance"] >= 0.1

    code, out, _ = run_cli(
        "verify", "pair", "--manifest", outdir / "manifest.json",
        "--expect", "counterexample",
    )
    assert code == 0
    assert "equal measurements, inequivalent signals" in out


def test_verify_pair_equivalent(run_cli, tmp_path, generic_signal):
    sig, sig_path = generic_signal
    rot_path = tmp_path / "rot.json"
    _write_signal(Signal(sig.grid, np.exp(0.6j) * sig.samples), rot_path)
    code, out, _ = run_cli(
        "verify", "pair", "--f", sig_path, "--g", rot_path, "--expect", "equivalent"
    )
    assert code == 0
    assert out.startswith("equivalent")
    # an unmet expectation turns into a nonzero exit
    code, _, _ = run_cli(
        "verify", "pair", "--f", sig_path, "--g", rot_path, "--expect", "counterexample"
    )
    assert code == 1


def test_verify_oracle_runs(run_cli, tmp_path):
    code, out, _ = run_cli(
        "verify", "oracle", "--B", 1, "--L", 4, "--horizon", 4, "--origin", 2,
        "--a", 1, "--cells", "1,2", "--expect", "none",
    )
    assert code == 0
    assert "0 violations" in out

    out_path = tmp_path / "oracle.json"
    code, out, _ = run_cli(
        "verify", "oracle", "--B", 1, "--L", 4, "--horizon", 8,
        "--a", 1.5, "--cells", "3,4,5,6", "--expect", "some", "--out", out_path,
    )
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["violation_count"] >= 1
    assert not report["unique"]


def test_plot_measurement_and_signal(run_cli, tmp_path, generic_signal):
    sig, sig_path = generic_signal
    m_path = tmp_path / "m.json"
    run_cli("measure", sig_path, "--out", m_path)
    m_csv = tmp_path / "m.csv"
    assert run_cli("plot", m_path, "--out", m_csv)[0] == 0
    lines = m_csv.read_text().splitlines()
    assert lines[0] == "t,n,omega,mag_phi,mag_psi"
    assert len(lines) == 1 + 9 * 16

    s_csv = tmp_path / "s.csv"
    assert run_cli("plot", sig_path, "--out", s_csv)[0] == 0
    rows = s_csv.read_text().splitlines()
    assert rows[0] == "x,re_f,im_f,abs_f"
    assert len(rows) == 1 + sig.grid.horizon
    absvals = [float(r.split(",")[3]) for r in rows[1:]]
    assert np.allclose(absvals, np.abs(sig.samples), atol=1e-15)


def test_plot_report_unwraps_the_signal(run_cli, tmp_path, generic_signal):
    _, sig_path = generic_signal
    m_path, r_path = tmp_path / "m.json", tmp_path / "r.json"
    run_cli("measure", sig_path, "--out", m_path)
    run_cli("recover", m_path, "--report", r_path)
    out_csv = tmp_path / "rep.csv"
    assert run_cli("plot", r_path, "--out", out_csv)[0] == 0
    assert out_csv.read_text().splitlines()[0] == "x,re_f,im_f,abs_f"


def test_plot_empty_measurement_gives_bare_header(run_cli, tmp_path):
    stub = {
        "pair": {"grid": {"B": 1.0}},
        "nodes": {"mode": "lattice", "times": [0.0], "a": 1.0, "anchor_index": None},
        "mags": [],
    }
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(stub))
    out_csv = tmp_path / "empty.csv"
    assert run_cli("plot", path, "--out", out_csv)[0] == 0
    assert out_csv.read_text() == "t,n,omega,mag_phi,mag_psi\n"


def test_anchor_flags(run_cli, tmp_path, generic_signal):
    _, sig_path = generic_signal
    for anchor in ("0.77", "incommensurate"):
        m_path = tmp_path / f"m_{anchor}.json"
        assert run_cli("measure", sig_path, "--out", m_path, "--anchor", anchor)[0] == 0
        code, out, _ = run_cli("recover", m_path, "--report", tmp_path / "r.json")
        assert code == 0
        assert "ambiguity=phase_only" in out


def test_grid_flag_contradiction_is_reported(run_cli, tmp_path, generic_signal):
    _, sig_path = generic_signal
    code, _, err = run_cli("measure", sig_path, "--out", tmp_path / "m.json", "--L", 9)
    assert code == 1
    assert "contradicts" in err


def test_missing_and_malformed_files(run_cli, tmp_path):
    code, _, err = run_cli("recover", tmp_path / "nope.json", "--report", tmp_path / "r.json")
    assert code == 1
    assert err.startswith("error:")
    assert "no such file" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli("measure", bad, "--out", tmp_path / "m.json")
    assert code == 1
    assert "bad.json" in err and "not valid JSON" in err


def test_unknown_forge_claim_is_a_usage_error(run_cli, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("forge", "nope", "--outdir", tmp_path)
    assert exc.value.code == 2


def test_selftest_subset(run_cli):
    code, out, _ = run_cli("selftest", "--criteria", "3")
    assert code == 0
    assert "criterion  3 [PASS]" in out
