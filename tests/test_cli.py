import argparse
import json
from pathlib import Path

import numpy as np
import pytest

from twowin import (
    GridSpec,
    ReconstructionReport,
    Signal,
    TimeNodes,
    alphabet_family,
    build_window,
    default_anchor,
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
        "alternative", "ambiguity", "anchor_used", "lambda", "residual", "signal",
        "uncovered",
    ]
    assert report["ambiguity"] == "phase_only"
    assert report["residual"] <= 1e-8
    assert report["anchor_used"] is False
    assert report["alternative"] is None
    assert report["uncovered"] == []
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


def test_measurement_csv_rows_are_deterministic(run_cli, tmp_path, generic_signal):
    _, sig_path = generic_signal
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    for path in (one, two):
        assert run_cli("measure", sig_path, "--out", tmp_path / "m.json", "--csv", path)[0] == 0
    assert one.read_bytes() == two.read_bytes()
    ms = cli.load_measurement(tmp_path / "m.json")
    rows = [line.split(",") for line in one.read_text().splitlines()[1:]]
    assert len(rows) == 2 * len(ms.nodes.times) * 2 * ms.freqs.N
    assert rows[0][0] == "phi" and rows[-1][0] == "psi"
    # phi's rows, then psi's, node by node and bin by bin
    assert [float(r[4]) for r in rows] == ms.mags.ravel().tolist()


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
    # cells 0, 1 and 95 lie under no node window of the bare lattice
    assert report["uncovered"] == [0, 1, 95]
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


@pytest.mark.parametrize(
    "claim, flags",
    [
        ("rational_periodic", ["--seed", 99, "--B", 3]),
        ("quasiperiodic_flip", ["--a", 0.5]),
        ("rational_lattice", ["--seed", 1]),
    ],
)
def test_forge_refuses_flags_the_claim_does_not_take(run_cli, tmp_path, claim, flags):
    code, _, err = run_cli("forge", claim, "--outdir", tmp_path, *flags)
    assert code == 1
    assert err.startswith("error:")
    for flag in flags[::2]:
        assert flag in err
    assert not (tmp_path / "manifest.json").exists()


def test_verify_pair_manifest_refuses_flags_it_would_drop(run_cli, tmp_path):
    outdir = tmp_path / "forged"
    run_cli("forge", "rational_periodic", "--outdir", outdir)
    code, out, err = run_cli(
        "verify", "pair", "--manifest", outdir / "manifest.json",
        "--a", 0.37, "--b", 0.11, "--profile", "raised_cosine",
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: --a, --b, --profile:")


def test_verify_pair_names_a_manifest_without_window_b(run_cli, tmp_path):
    outdir = tmp_path / "forged"
    run_cli("forge", "rational_periodic", "--outdir", outdir)
    manifest = outdir / "manifest.json"
    obj = json.loads(manifest.read_text())
    del obj["window"]["b"]
    manifest.write_text(json.dumps(obj))
    code, _, err = run_cli("verify", "pair", "--manifest", manifest)
    assert code == 1
    assert err.startswith(f"error: {manifest}:")
    assert "KeyError" not in err


WINDOW_MODULATION = "modulation step range violated: b=5.0 outside (0, 1/(2B)] = (0, 0.5]"


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"b": 5.0}, WINDOW_MODULATION),
        ({"profile": "triangle"}, "profile must be one of "
         "('rectangular', 'raised_cosine', 'user'), got 'triangle'"),
    ],
    ids=["b-too-large", "unknown-profile"],
)
def test_verify_pair_names_a_manifest_with_a_bad_window(run_cli, tmp_path, edit, message):
    outdir = tmp_path / "forged"
    run_cli("forge", "separable_gap", "--outdir", outdir)
    manifest = outdir / "manifest.json"
    obj = json.loads(manifest.read_text())
    obj["window"].update(edit)
    manifest.write_text(json.dumps(obj))
    assert run_cli("verify", "pair", "--manifest", manifest) == (
        1, "", f"error: {manifest}: bad window object ({message})\n"
    )


def test_recover_names_a_measurement_without_window_b(run_cli, tmp_path, generic_signal):
    _, sig_path = generic_signal
    m_path = tmp_path / "m.json"
    run_cli("measure", sig_path, "--out", m_path)
    obj = json.loads(m_path.read_text())
    del obj["pair"]["b"]
    m_path.write_text(json.dumps(obj))
    code, _, err = run_cli("recover", m_path, "--report", tmp_path / "r.json")
    assert code == 1
    assert err.startswith(f"error: {m_path}: bad window object")


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
    assert set(report) == {
        "description", "instance_count", "class_count", "violation_count", "unique",
        "elapsed", "violations",
    }
    assert report["violation_count"] >= 1
    assert not report["unique"]
    assert 1 <= len(report["violations"]) <= 8
    grid = GridSpec(B=1.0, L=4, origin=4, horizon=8)
    family, _ = alphabet_family(grid, [3, 4, 5, 6])
    for pair in report["violations"]:
        assert set(pair) == {"f", "g", "rows"}
        i, j = pair["rows"]
        assert i < j
        assert np.array_equal(cli.signal_from_obj(pair["f"], "f").samples, family[i])
        assert np.array_equal(cli.signal_from_obj(pair["g"], "g").samples, family[j])


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


def test_plot_magnitudes_are_the_measured_ones_to_the_bit(run_cli, tmp_path, generic_signal):
    sig, sig_path = generic_signal
    m_path, m_csv = tmp_path / "m.json", tmp_path / "m.csv"
    run_cli("measure", sig_path, "--out", m_path, "--anchor", "incommensurate")
    assert run_cli("plot", m_path, "--out", m_csv)[0] == 0
    a = sig.grid.B
    nodes = TimeNodes.lattice_covering(sig.grid, a, default_anchor(a, sig.grid.horizon))
    ms = measure(sig, build_window("rectangular", sig.grid), nodes)
    rows = np.array([line.split(",") for line in m_csv.read_text().splitlines()[1:]], dtype=float)
    n_nodes, n_bins = len(nodes.times), 2 * ms.freqs.N
    assert rows.shape == (n_nodes * n_bins, 5)
    assert np.array_equal(rows[:, 0], np.repeat(nodes.times, n_bins))
    assert np.array_equal(rows[:, 1], np.tile(ms.freqs.ns, n_nodes))
    assert np.array_equal(rows[:, 2], np.tile(ms.freqs.omegas, n_nodes))
    assert np.array_equal(rows[:, 3:].T.reshape(ms.mags.shape), ms.mags)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda rows: rows[1:], "missing magnitude row (w phi, t_index 0, n -8)"),
        (lambda rows: [r for r in rows if (r["w"], r["t_index"], r["n"]) != ("psi", 0, -8)],
         "missing magnitude row (w psi, t_index 0, n -8)"),
        (lambda rows: rows + [dict(rows[40], value=99.0)],
         "repeated magnitude row (w phi, t_index 2, n 0)"),
    ],
    ids=["phi-row-dropped", "psi-row-dropped", "row-repeated"],
)
def test_plot_refuses_rows_not_given_exactly_once_as_recover_does(
    run_cli, tmp_path, generic_signal, edit, message
):
    _, sig_path = generic_signal
    m_path, out_csv = tmp_path / "m.json", tmp_path / "m.csv"
    run_cli("measure", sig_path, "--out", m_path)
    obj = json.loads(m_path.read_text())
    obj["mags"] = edit(obj["mags"])
    m_path.write_text(json.dumps(obj))
    want = (1, "", f"error: {m_path}: {message}\n")
    assert run_cli("recover", m_path, "--report", tmp_path / "r.json") == want
    assert run_cli("plot", m_path, "--out", out_csv) == want
    assert not out_csv.exists()


def test_anchor_flags(run_cli, tmp_path, generic_signal):
    _, sig_path = generic_signal
    for anchor in ("0.77", "incommensurate"):
        m_path = tmp_path / f"m_{anchor}.json"
        assert run_cli("measure", sig_path, "--out", m_path, "--anchor", anchor)[0] == 0
        code, out, _ = run_cli("recover", m_path, "--report", tmp_path / "r.json")
        assert code == 0
        assert "ambiguity=phase_only" in out


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


def test_recover_has_no_tolerance_flag(run_cli, tmp_path, generic_signal):
    _, sig_path = generic_signal
    m_path = tmp_path / "m.json"
    run_cli("measure", sig_path, "--out", m_path)
    with pytest.raises(SystemExit) as exc:
        run_cli("recover", m_path, "--report", tmp_path / "r.json", "--tol", 1e-3)
    assert exc.value.code == 2


def test_recover_refuses_one_node_scaled_by_a_millionth(run_cli, tmp_path, generic_signal):
    _, sig_path = generic_signal
    m_path = tmp_path / "m.json"
    run_cli("measure", sig_path, "--out", m_path)
    ms = cli.load_measurement(m_path)
    mags = ms.mags.copy()
    mags[:, 4, :] *= 1 + 1e-6
    bad = type(ms)(pair=ms.pair, nodes=ms.nodes, freqs=ms.freqs, mags=mags)
    cli.dump_json(cli.measurement_to_obj(bad), m_path)
    code, _, err = run_cli("recover", m_path, "--report", tmp_path / "r.json")
    assert code == 1
    assert err.startswith("error:")
    assert (
        "no phase assignment reproduces the lattice magnitudes "
        "(best deviation 1.491e-06 at node index 4)" in err
    )


def test_verify_pair_tol_bounds_equal_measurements(run_cli, tmp_path):
    # an inequivalent pair whose measurements differ by about 2e-9
    outdir = tmp_path / "forged"
    run_cli("forge", "rational_periodic", "--outdir", outdir)
    g = cli.load_signal(outdir / "g.json")
    _write_signal(Signal(g.grid, (1 + 1e-9) * g.samples), outdir / "g.json")
    manifest = outdir / "manifest.json"
    code, out, _ = run_cli("verify", "pair", "--manifest", manifest)
    assert code == 0
    assert out.startswith("distinguishable measurements (sup dev 2.0")
    code, out, _ = run_cli(
        "verify", "pair", "--manifest", manifest, "--tol", 1e-6,
        "--expect", "counterexample",
    )
    assert code == 0
    assert out.startswith("equal measurements, inequivalent signals (sup dev 2.0")


def test_selftest_subset(run_cli):
    code, out, _ = run_cli("selftest", "--criteria", "3")
    assert code == 0
    assert "criterion  3 [PASS]" in out


@pytest.mark.parametrize("criteria", ["11", "0", "-1", "1,x", "3,"])
def test_selftest_refuses_unknown_criteria(run_cli, criteria):
    code, out, err = run_cli("selftest", "--criteria", criteria)
    assert code == 1 and out == ""
    assert err.startswith("error: --criteria: ") and err.endswith("(valid: 1-10)\n")


def test_selftest_runs_a_repeated_criterion_once(run_cli):
    code, out, _ = run_cli("selftest", "--criteria", "3,3")
    assert code == 0
    assert out.count("criterion  3 [PASS]") == 1 and "criterion  4" not in out


def _option_table(parser):
    """{subcommand: sorted option strings} over every (nested) subparser."""
    table = {}

    def walk(p, prefix):
        subs = [a for a in p._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            table[prefix] = sorted(
                s for a in p._actions for s in (a.option_strings or [a.dest])
            )
        for action in subs:
            for name, child in action.choices.items():
                walk(child, f"{prefix} {name}".strip())

    walk(parser, "")
    return table


def test_cli_option_table_is_pinned():
    assert _option_table(cli.build_parser()) == {
        "measure": sorted([
            "-h", "--help", "signal", "--out", "--csv", "--a", "--b", "--anchor", "--profile",
        ]),
        "recover": sorted(["-h", "--help", "measurement", "--report", "--signal-out"]),
        "forge": sorted(["-h", "--help", "claim", "--outdir", "--B", "--a", "--seed"]),
        "verify pair": sorted([
            "-h", "--help", "--manifest", "--f", "--g", "--out", "--expect", "--a", "--b",
            "--anchor", "--profile", "--tol",
        ]),
        "verify oracle": sorted([
            "-h", "--help", "--origin", "--cells", "--out", "--expect", "--B", "--L", "--a",
            "--b", "--horizon", "--anchor", "--profile",
        ]),
        "plot": sorted(["-h", "--help", "input", "--out"]),
        "selftest": sorted(["-h", "--help", "--criteria"]),
    }


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "oracle", "--B", 0, "--L", 4, "--horizon", 4],
         "error: --B must be positive, got 0.0\n"),
        (["measure", "{sig}", "--out", "{tmp}/m.json", "--a", -1],
         "error: --a must be positive, got -1.0\n"),
        (["forge", "separable_gap", "--outdir", "{tmp}", "--a", 0],
         "error: --a must be positive, got 0.0\n"),
        (["measure", "{sig}", "--out", "{tmp}/m.json", "--b", "-0.25"],
         "error: --b must be positive, got -0.25\n"),
        (["verify", "pair", "--f", "{sig}", "--g", "{sig}", "--tol", 0],
         "error: --tol must be positive, got 0.0\n"),
        (["measure", "{sig}", "--out", "{tmp}/m.json", "--anchor", "bogus"],
         "error: --anchor must be 'none', 'incommensurate', or a number, got 'bogus'\n"),
        (["verify", "pair", "--f", "{sig}", "--g", "{sig}", "--anchor", "bogus"],
         "error: --anchor must be 'none', 'incommensurate', or a number, got 'bogus'\n"),
        (["verify", "oracle", "--B", 1, "--L", 4, "--horizon", 4, "--anchor", "bogus"],
         "error: --anchor must be 'none', 'incommensurate', or a number, got 'bogus'\n"),
    ],
)
def test_nonpositive_and_unparsable_flags_exit_one(
    run_cli, tmp_path, generic_signal, argv, message
):
    _, sig_path = generic_signal
    argv = [str(a).format(sig=sig_path, tmp=tmp_path) for a in argv]
    assert run_cli(*argv) == (1, "", message)
    assert not (tmp_path / "m.json").exists()
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        # node 4's 32 rows dropped: no longer misread as a broken propagation
        (lambda rows: [r for r in rows if r["t_index"] != 4],
         "missing magnitude row (w phi, t_index 4, n -8)"),
        (lambda rows: rows[:-1], "missing magnitude row (w psi, t_index 8, n 7)"),
        (lambda rows: rows + [dict(rows[40], value=0.0)],
         "repeated magnitude row (w phi, t_index 2, n 0)"),
        (lambda rows: [rows[0]] + rows, "repeated magnitude row (w phi, t_index 0, n -8)"),
    ],
    ids=["node-4-dropped", "last-row-dropped", "row-repeated-later", "first-row-repeated"],
)
def test_recover_refuses_rows_not_given_exactly_once(
    run_cli, tmp_path, generic_signal, edit, message
):
    _, sig_path = generic_signal
    m_path = tmp_path / "m.json"
    run_cli("measure", sig_path, "--out", m_path)
    obj = json.loads(m_path.read_text())
    assert len(obj["mags"]) == 288
    obj["mags"] = edit(obj["mags"])
    m_path.write_text(json.dumps(obj))
    code, out, err = run_cli("recover", m_path, "--report", tmp_path / "r.json")
    assert (code, out, err) == (1, "", f"error: {m_path}: {message}\n")
    assert not (tmp_path / "r.json").exists()


BAD_N = "bad freqs object (N must be a positive integer, got "


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("freqs", [], "bad freqs object (expected a mapping, got [])"),
        ("freqs", {"mode": "critical"}, f"{BAD_N}None)"),
        ("freqs", {"mode": "critical", "N": "x"}, f"{BAD_N}'x')"),
        ("freqs", {"mode": "critical", "N": 2.5}, f"{BAD_N}2.5)"),
        ("freqs", {"mode": "critical", "N": 0}, f"{BAD_N}0)"),
        ("mags", 5, "bad mags (expected a list of rows, got 5)"),
    ],
    ids=["freqs-list", "N-missing", "N-text", "N-fraction", "N-zero", "mags-number"],
)
def test_recover_names_the_file_of_a_malformed_freqs_or_mags_object(
    run_cli, tmp_path, generic_signal, key, value, message
):
    _, sig_path = generic_signal
    m_path = tmp_path / "m.json"
    run_cli("measure", sig_path, "--out", m_path)
    obj = json.loads(m_path.read_text())
    obj[key] = value
    m_path.write_text(json.dumps(obj))
    code, out, err = run_cli("recover", m_path, "--report", tmp_path / "r.json")
    assert (code, out, err) == (1, "", f"error: {m_path}: {message}\n")
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("cells, word", [("0,x", "x"), ("0,,1", ""), ("1.5", "1.5")])
def test_verify_oracle_names_a_cell_that_is_not_an_integer(run_cli, cells, word):
    code, out, err = run_cli(
        "verify", "oracle", "--B", 1, "--L", 4, "--horizon", 4, "--cells", cells
    )
    assert (code, out, err) == (1, "", f"error: --cells: {word!r} is not a cell index\n")


@pytest.mark.parametrize(
    "cells",
    [
        ["--cells=-1,3"], ["--cells", "-1,3"], ["--cell", "-1,3"], ["--ce", "-1,3"],
        ["--c", "-1,3"], ["--cells=3,-1"], ["--cells", "3,-1"], ["--cells=2,2"],
    ],
    ids=" ".join,
)
def test_verify_oracle_refuses_wrapped_and_repeated_cells(run_cli, cells):
    # a list that starts with a minus sign reaches the range check written
    # either way, not argparse's "expected one argument"
    code, out, err = run_cli("verify", "oracle", "--B", 1, "--L", 4, "--horizon", 4, *cells)
    assert (code, out) == (1, "")
    assert err.startswith("error: ValueError: support cell ")


def test_recover_refuses_lattice_times_that_are_not_one_step_apart(run_cli, tmp_path):
    # criterion 2's a > B nodes declared with a = B: member 89 used to come
    # back with exit 0 as neither itself nor its reflection
    grid = GridSpec(B=1.0, L=4, origin=4, horizon=8)
    pair = build_window("rectangular", grid)
    family, _ = alphabet_family(grid, [3, 4, 5, 6])
    nodes = TimeNodes(mode="lattice", times=(-1.5, 0.0, 1.5), a=1.0)
    m_path, r_path = tmp_path / "m.json", tmp_path / "r.json"
    cli.dump_json(cli.measurement_to_obj(measure(Signal(grid, family[89]), pair, nodes)), m_path)
    code, out, err = run_cli("recover", m_path, "--report", r_path)
    assert (code, out) == (1, "")
    assert err == (
        "error: ValueError: lattice node times must be one step a = 1.0 apart, "
        "but -1.5 and 0.0 are 1.5 apart\n"
    )
    assert not r_path.exists()


@pytest.mark.parametrize(
    "anchor, edit",
    [
        ("incommensurate", {"anchor_index": 99}),
        ("none", {"anchor_index": 3}),
    ],
    ids=["anchor-index-past-the-end", "anchor-index-on-a-bare-lattice"],
)
def test_recover_refuses_an_anchor_index_the_node_mode_cannot_have(
    run_cli, tmp_path, generic_signal, anchor, edit
):
    _, sig_path = generic_signal
    m_path = tmp_path / "m.json"
    run_cli("measure", sig_path, "--out", m_path, "--anchor", anchor)
    obj = json.loads(m_path.read_text())
    obj["nodes"].update(edit)
    m_path.write_text(json.dumps(obj))
    code, out, err = run_cli("recover", m_path, "--report", tmp_path / "r.json")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {m_path}: bad nodes object (anchor_index ")
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"samples": [[1.0, 0.0]] * 7}, "7 samples for window length 8"),
        ({"profile": "triangle"}, "bad window object (profile must be one of "
         "('rectangular', 'raised_cosine', 'user'), got 'triangle')"),
        ({"b": 5.0}, f"bad window object ({WINDOW_MODULATION})"),
        ({"profile": "user", "samples": [[1.0, 0.0]] * 7}, "7 samples for window length 8"),
        ({"samples": 3}, "samples must be [re, im] pairs"),
    ],
    ids=["short-samples", "unknown-profile", "b-too-large", "short-user-window", "samples-number"],
)
@pytest.mark.parametrize("command", ["recover", "plot"])
def test_a_bad_window_object_names_its_file(
    run_cli, tmp_path, generic_signal, command, edit, message
):
    _, sig_path = generic_signal
    m_path, out = tmp_path / "m.json", tmp_path / "out"
    run_cli("measure", sig_path, "--out", m_path)
    obj = json.loads(m_path.read_text())
    obj["pair"].update(edit)
    m_path.write_text(json.dumps(obj))
    flag = "--report" if command == "recover" else "--out"
    assert run_cli(command, m_path, flag, out) == (1, "", f"error: {m_path}: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"B": -1.0}, "window half-width B must be positive, got -1.0"),
        ({"L": 0}, "L must be a positive integer, got 0"),
        ({"horizon": 7}, "horizon (7) must cover at least one window of L=8 cells"),
        ({"B": "abc"}, "could not convert string to float: 'abc'"),
    ],
    ids=["B-negative", "L-zero", "horizon-below-L", "B-text"],
)
@pytest.mark.parametrize("command", ["measure", "plot"])
def test_a_bad_signal_grid_names_its_file(run_cli, tmp_path, generic_signal, command, edit, message):
    _, sig_path = generic_signal
    obj = json.loads(sig_path.read_text())
    obj["grid"].update(edit)
    sig_path.write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert run_cli(command, sig_path, "--out", out) == (
        1, "", f"error: {sig_path}: bad grid object ({message})\n"
    )
    assert not out.exists()


def test_verify_oracle_refuses_a_family_over_the_cap(run_cli, monkeypatch):
    from twowin import verifier

    monkeypatch.setattr(verifier, "ORACLE_CAP", 100)
    code, out, err = run_cli("verify", "oracle", "--B", 1, "--L", 4, "--horizon", 4)
    assert (code, out) == (1, "")
    assert err == "error: ValueError: family too large: 256 instances exceeds the 100 cap\n"
