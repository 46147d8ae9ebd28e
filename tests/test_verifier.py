import tracemalloc
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import pytest

from twowin import verifier
from twowin import (
    GridSpec,
    OracleConfig,
    Signal,
    TimeNodes,
    alphabet_family,
    build_window,
    default_anchor,
    forge,
    equivalent_up_to_phase,
    is_conjugate_twist_mate,
    measure,
    measurements_equal,
    pair_equivalent,
    phase_residuals,
    slot_reflect,
    trig_family,
    uniqueness_oracle,
    windowed_segment,
)
from twowin.signal_model import EQUIV_TOL
from twowin.stft_engine import node_segment


TINY = GridSpec(B=1.0, L=4, origin=2, horizon=4)
TINY_PAIR = build_window("rectangular", TINY)


def _rand(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def test_measurements_equal_and_mismatch_checks():
    f = Signal(TINY, _rand(4, 0))
    nodes = TimeNodes.lattice_covering(TINY, 1.0)
    m1 = measure(f, TINY_PAIR, nodes)
    m2 = measure(f, TINY_PAIR, nodes)
    assert measurements_equal(m1, m2) == (True, 0.0)

    bumped = m2.mags.copy()
    bumped[1, 0, 2] += 3e-4
    m3 = type(m2)(pair=m2.pair, nodes=m2.nodes, freqs=m2.freqs, mags=bumped)
    equal, dev = measurements_equal(m1, m3)
    assert not equal
    assert dev == pytest.approx(3e-4)

    other_nodes = measure(f, TINY_PAIR, TimeNodes.lattice(1.0, [0]))
    with pytest.raises(ValueError, match="node times"):
        measurements_equal(m1, other_nodes)
    from twowin import FrequencyGrid

    coarse = measure(f, TINY_PAIR, nodes, FrequencyGrid.critical(TINY.L - 1, TINY.B))
    with pytest.raises(ValueError, match="frequency bins"):
        measurements_equal(m1, coarse)


def test_measurements_equal_compares_custom_frequency_grids():
    from twowin import FrequencyGrid

    f = Signal(TINY, _rand(4, 0))
    nodes = TimeNodes.lattice_covering(TINY, 1.0)

    def at(freqs):
        return measure(f, TINY_PAIR, nodes, freqs)

    custom = FrequencyGrid.custom([0.1, 0.3], 1.0)
    assert measurements_equal(at(custom), at(FrequencyGrid.custom([0.1, 0.3], 1.0))) == (
        True,
        0.0,
    )
    for other in ([0.1, 0.2], [0.1, 0.3, 0.5]):
        with pytest.raises(ValueError, match="frequency bins"):
            measurements_equal(at(custom), at(FrequencyGrid.custom(other, 1.0)))
    critical = FrequencyGrid.critical(TINY.L, TINY.B)
    assert measurements_equal(at(critical), at(critical)) == (True, 0.0)
    with pytest.raises(ValueError, match="frequency bins"):
        measurements_equal(at(critical), at(custom))


def test_pair_equivalent_phase_and_reflection():
    u = _rand(6, 1)
    assert pair_equivalent(u, np.exp(0.9j) * u, allow_reflection=False)
    mate = np.conj(u[::-1])
    assert pair_equivalent(u, mate, allow_reflection=True)
    assert not pair_equivalent(u, mate, allow_reflection=False)
    assert not pair_equivalent(u, _rand(6, 2), allow_reflection=True)


def test_oracle_clears_interior_support_at_unit_step():
    samples, desc = alphabet_family(TINY, [1, 2])
    config = OracleConfig(
        grid=TINY, pair=TINY_PAIR, nodes=TimeNodes.lattice_covering(TINY, 1.0)
    )
    report = uniqueness_oracle(config, samples, desc)
    assert report.unique
    assert report.violation_count == 0
    assert report.instance_count == 16


def test_oracle_finds_wide_step_collisions():
    # interior support so the oversized step is what breaks uniqueness, not
    # the horizon edge
    grid = GridSpec(B=1.0, L=4, origin=4, horizon=8)
    pair = build_window("rectangular", grid)
    samples, desc = alphabet_family(grid, [3, 4, 5, 6])
    config = OracleConfig(
        grid=grid, pair=pair, nodes=TimeNodes.lattice_covering(grid, 1.5)
    )
    report = uniqueness_oracle(config, samples, desc)
    assert report.violation_count >= 1
    for u, v in report.violations:
        equal, _ = measurements_equal(
            measure(u, pair, config.nodes), measure(v, pair, config.nodes)
        )
        assert equal
        assert not pair_equivalent(u.samples, v.samples, allow_reflection=True)

    capped = uniqueness_oracle(config, samples, desc, violation_cap=1)
    assert len(capped.violations) == 1
    assert capped.violation_count == report.violation_count >= len(report.violations)


def test_oracle_rejects_misshapen_family():
    config = OracleConfig(
        grid=TINY, pair=TINY_PAIR, nodes=TimeNodes.lattice_covering(TINY, 1.0)
    )
    with pytest.raises(ValueError, match="sample rows"):
        uniqueness_oracle(config, np.ones((3, 5), dtype=np.complex128))


def test_oracle_refuses_a_misshapen_family_before_any_block(monkeypatch):
    config = OracleConfig(
        grid=TINY, pair=TINY_PAIR, nodes=TimeNodes.lattice_covering(TINY, 1.0)
    )
    calls = []
    monkeypatch.setattr(verifier, "measure_batch", lambda *args: calls.append(args))
    monkeypatch.setattr(verifier, "CHUNK", 2)
    with pytest.raises(ValueError, match=r"sample rows .* got \(4,\)$"):
        uniqueness_oracle(config, np.ones(4, dtype=np.complex128))
    # longer than one block: the message names the whole family, not a block
    with pytest.raises(ValueError, match=r"sample rows .* got \(5, 5\)$"):
        uniqueness_oracle(config, np.ones((5, 5), dtype=np.complex128))
    assert calls == []


def test_oracle_reports_an_empty_family_as_empty():
    config = OracleConfig(
        grid=TINY, pair=TINY_PAIR, nodes=TimeNodes.lattice_covering(TINY, 1.0)
    )
    report = uniqueness_oracle(config, np.zeros((0, TINY.horizon), dtype=np.complex128))
    assert (report.instance_count, report.class_count, report.violation_count) == (0, 0, 0)
    assert report.violations == report.violation_rows == report.ambiguous_rows == ()
    assert report.unique


def _scalar_phase_residual(u, v):
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 and nv == 0.0:
        return 0.0
    ip = np.vdot(v, u)
    lam = ip / abs(ip) if abs(ip) > 0 else 1.0
    return float(np.linalg.norm(u - lam * v)) / float(np.hypot(nu, nv))


def _scalar_oracle(config, samples):
    """The scalar within-group pair loop that the batched oracle replaced;
    run it with ``_scalar_phase_residual`` patched in, the formula it used."""
    n = len(samples)
    mags = verifier.measure_batch(samples, config.grid, config.pair, config.nodes)
    keys = np.round(mags.reshape(n, -1) / verifier.FINGERPRINT_QUANTUM).astype(np.int64)
    groups = {}
    for i in range(n):
        groups.setdefault(keys[i].tobytes(), []).append(i)
    allow_reflection = config.nodes.mode == "lattice"
    rows, ambiguous = [], set()
    for members in groups.values():
        for ai in range(len(members) - 1):
            for bi in range(ai + 1, len(members)):
                i, j = members[ai], members[bi]
                if not verifier.pair_equivalent(samples[i], samples[j], allow_reflection):
                    rows.append((i, j))
                    ambiguous.update(members)
    return len(groups), rows, sorted(ambiguous)


def _oracle_cases():
    grid2 = GridSpec(B=1.0, L=4, origin=4, horizon=8)
    family2, _ = alphabet_family(grid2, [3, 4, 5, 6])
    crit2 = OracleConfig(grid2, build_window("rectangular", grid2),
                         TimeNodes.lattice(1.5, range(-1, 2)))
    for cap in (1, 64, 10 ** 6):
        yield f"criterion-2 cap {cap}", crit2, family2, cap, 172
    yield "criterion-2, 200 rows", crit2, family2[:200], 64, 115  # whole blocks only
    yield "criterion-2, 201 rows", crit2, family2[:201], 64, 115  # a lone last row

    grid7 = GridSpec(B=1.0, L=9, origin=9, horizon=18)
    trig, _, _ = trig_family(grid7, 2.0, degree=2)
    trig = trig[np.random.default_rng(7).permutation(len(trig))]
    config = OracleConfig(grid7, build_window("rectangular", grid7),
                          TimeNodes.two_lines(0.0, 3 * grid7.delta))
    yield "shuffled trig", config, trig, 64, None

    family10, _ = alphabet_family(TINY, [0, 1, 2, 3])
    for a in (1.0, 0.5):
        config = OracleConfig(TINY, TINY_PAIR, TimeNodes.lattice_covering(TINY, a))
        yield f"criterion-10 a={a}", config, family10, 10 ** 6, None

    # a colliding pair of criterion 2's family, with copies, rotations by i
    # and -1, all-zero rows, a reflection mate, and a row on cell 0 alone,
    # which two lines near 0 do not see (so it meets a zero row at ip == 0)
    f, g, e0 = np.zeros((3, 8), dtype=np.complex128)
    f[3:7], g[3:7], e0[0] = [0, 1, 0, 1], [0, 1, 0, 1j], 1
    edge = np.stack([f, 1j * f, 0 * f, g, -f, f, -1j * g, np.conj(f[::-1]), 0 * f, g, e0])
    yield "edge rows", crit2, edge, 64, 12
    two_lines = OracleConfig(grid2, crit2.pair, TimeNodes.two_lines(0.0, 0.5))
    yield "edge rows, two lines", two_lines, edge, 64, 2
    # two distinct fingerprints whose rows interleave
    yield "interleaved classes", crit2, np.stack([f, e0, 1j * f, -e0, g, 1j * e0]), 64, 2


def _check_against_scalar(report, config, samples, cap, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(verifier, "phase_residuals", _scalar_phase_residual)
        class_count, rows, ambiguous = _scalar_oracle(config, samples)
    assert report.class_count == class_count
    assert report.violation_count == len(rows)
    assert report.violation_rows == tuple(rows[:cap])
    got = b"".join(f.samples.tobytes() + g.samples.tobytes() for f, g in report.violations)
    want = b"".join(samples[i].tobytes() + samples[j].tobytes() for i, j in rows[:cap])
    assert got == want
    assert report.ambiguous_rows == tuple(ambiguous)


@pytest.mark.parametrize("case", list(_oracle_cases()), ids=lambda c: c[0])
def test_oracle_matches_the_scalar_pair_loop(case, monkeypatch):
    _, config, samples, cap, want_count = case
    # many row blocks and pair chunks, with a ragged last one
    monkeypatch.setattr(verifier, "CHUNK", 100)
    report = uniqueness_oracle(config, samples, violation_cap=cap)
    if want_count is not None:
        assert report.violation_count == want_count
    _check_against_scalar(report, config, samples, cap, monkeypatch)
    assert (len(report.ambiguous_rows) > 0) == (report.violation_count > 0)


@pytest.mark.parametrize(
    "case",
    [c for c in _oracle_cases() if c[0] in ("criterion-2 cap 64", "edge rows, two lines")],
    ids=lambda c: c[0],
)
def test_oracle_judges_its_pairs_through_the_module_pair_verdict(case, monkeypatch):
    # a bare-lattice scan and a two-line scan both look pair_equivalent up on
    # the module at call time, where a tracer that wraps it sees every chunk
    _, config, samples, cap, want_count = case
    monkeypatch.setattr(verifier, "CHUNK", 100)
    calls = []
    judge = verifier.pair_equivalent

    def counted(u, v, allow_reflection, *args, **kwargs):
        calls.append((len(u), allow_reflection))
        return judge(u, v, allow_reflection, *args, **kwargs)

    monkeypatch.setattr(verifier, "pair_equivalent", counted)
    report = uniqueness_oracle(config, samples, violation_cap=cap)
    assert report.violation_count == want_count
    allow_reflection = config.nodes.mode == "lattice"
    assert calls and all(flag == allow_reflection for _, flag in calls)
    assert all(rows <= 100 for rows, _ in calls)


EDGE_GRID = GridSpec(B=1.0, L=4, origin=4, horizon=8)
#: two lines near 0, which see no sample on cell 0
EDGE_LINES = OracleConfig(EDGE_GRID, build_window("rectangular", EDGE_GRID),
                          TimeNodes.two_lines(0.0, 0.5))


def _judged_report(config, samples, monkeypatch):
    """The oracle's report, and how many rows reached ``pair_equivalent``."""
    rows = []
    judge = verifier.pair_equivalent

    def counted(u, v, *args, **kwargs):
        rows.append(len(u))
        return judge(u, v, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(verifier, "pair_equivalent", counted)
        report = uniqueness_oracle(config, samples, violation_cap=10 ** 6)
    return report, sum(rows)


def test_oracle_settles_a_group_of_phase_rotations_from_its_first_member(monkeypatch):
    # 2,000 rows of one class: the pair loop judged 1,999,000 pairs
    rng = np.random.default_rng(11)
    f = _rand(EDGE_GRID.horizon, 5)
    samples = f * np.exp(2j * np.pi * rng.random((2000, 1)))
    report, judged = _judged_report(EDGE_LINES, samples, monkeypatch)
    assert (report.class_count, report.violation_count, judged) == (1, 0, 0)
    assert report.ambiguous_rows == ()


@pytest.mark.parametrize("c, want_judged, want_violations", [(0.3, 0, 0), (0.6, 6, 0), (2.0, 6, 3)])
def test_oracle_judges_every_pair_of_a_group_that_does_not_settle(
    c, want_judged, want_violations, monkeypatch
):
    # the fourth row moves by c * EQUIV_TOL of the norm on cell 0, which no
    # node sees, so all four rows share one fingerprint; it settles against
    # the first row up to c = 1/2, and is a violation past sqrt(2)
    f = _rand(EDGE_GRID.horizon, 6)
    f[0] = 0
    e0 = np.eye(1, EDGE_GRID.horizon, dtype=np.complex128)[0]
    samples = np.stack([f, 1j * f, -f, f + c * verifier.EQUIV_TOL * np.linalg.norm(f) * e0])
    report, judged = _judged_report(EDGE_LINES, samples, monkeypatch)
    assert (report.class_count, judged, report.violation_count) == (1, want_judged, want_violations)
    _check_against_scalar(report, EDGE_LINES, samples, 10 ** 6, monkeypatch)


def test_oracle_settles_a_group_of_zero_rows_but_not_a_zero_first_row(monkeypatch):
    zeros = np.zeros((5, EDGE_GRID.horizon), dtype=np.complex128)
    report, judged = _judged_report(EDGE_LINES, zeros, monkeypatch)
    assert (report.class_count, judged, report.violation_count) == (1, 0, 0)
    # a row on cell 0 alone shares the zero rows' fingerprint
    zeros[3, 0] = 1
    report, judged = _judged_report(EDGE_LINES, zeros, monkeypatch)
    assert (report.class_count, judged, report.violation_count) == (1, 10, 4)
    _check_against_scalar(report, EDGE_LINES, zeros, 10 ** 6, monkeypatch)


def test_pair_equivalent_judges_rows_as_it_judges_each_pair():
    rng = np.random.default_rng(3)
    u = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
    v = u * np.exp(1j * rng.random((6, 1)))  # rows 0 and 1: equal up to phase
    v[2:4] = np.conj(u[2:4, ::-1])  # reflection mates
    v[4] = rng.standard_normal(5)  # foreign
    v[5] = 0.0  # a zero row against a live one
    for allow_reflection in (True, False):
        got = pair_equivalent(u, v, allow_reflection)
        want = [pair_equivalent(a, b, allow_reflection) for a, b in zip(u, v)]
        assert got.tolist() == want
    assert want == [True, True, False, False, False, False]
    assert pair_equivalent(u, v, True).tolist() == [True, True, True, True, False, False]


def _colliding_multipliers(width):
    """Multipliers that hash every key row to 0."""
    return np.zeros(width, dtype=np.uint64)


def _first_column_multipliers(width):
    """Multipliers that hash a key row to its first column alone."""
    return np.eye(1, width, dtype=np.uint64)[0]


@pytest.mark.parametrize("chunk", [verifier.CHUNK, 100, 3])
@pytest.mark.parametrize("multipliers", [_colliding_multipliers, _first_column_multipliers])
@pytest.mark.parametrize(
    "case",
    [c for c in _oracle_cases()
     if c[0] in ("criterion-2 cap 64", "edge rows", "interleaved classes")],
    ids=lambda c: c[0],
)
def test_oracle_grouping_is_exact_under_hash_collisions(case, multipliers, chunk, monkeypatch):
    # with small blocks, rows whose hashes collide fall in different blocks
    _, config, samples, cap, want_count = case
    monkeypatch.setattr(verifier, "_hash_multipliers", multipliers)
    monkeypatch.setattr(verifier, "CHUNK", chunk)
    report = uniqueness_oracle(config, samples, violation_cap=cap)
    assert report.violation_count == want_count
    _check_against_scalar(report, config, samples, cap, monkeypatch)


def test_oracle_memory_grows_with_its_classes_not_its_rows():
    # criterion 7's rational scan: 78,125 rows in 19,521 classes of 72-column
    # keys.  With a key row held for every family row, its traced peak was
    # 654 B per row.
    grid = GridSpec(B=1.0, L=9, origin=9, horizon=18)
    samples, _, _ = trig_family(grid, 2.0, degree=3)
    config = OracleConfig(grid, build_window("rectangular", grid),
                          TimeNodes.two_lines(0.0, 3 * grid.delta))
    tracemalloc.start()
    try:
        report = uniqueness_oracle(config, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(samples), report.class_count, report.violation_count) == (78125, 19521, 176)
    assert peak <= 450 * len(samples), peak


def _separability_cases():
    grid7 = GridSpec(B=1.0, L=9, origin=9, horizon=18)
    pair7 = build_window("rectangular", grid7)
    trig, _, _ = trig_family(grid7, 2.0, degree=3)
    for k in (1, 3):
        yield f"criterion-7 offset {k} delta", trig, grid7, pair7, TimeNodes.two_lines(
            0.0, k * grid7.delta)
    family10, _ = alphabet_family(TINY, [0, 1, 2, 3])
    for a in (1.0, 0.5):
        yield f"criterion-10 a={a}", family10, TINY, TINY_PAIR, TimeNodes.lattice_covering(
            TINY, a)
    nodes = TimeNodes.lattice_covering(TINY, 1.0, anchor=default_anchor(1.0, TINY.horizon))
    yield "lattice plus anchor", family10, TINY, TINY_PAIR, nodes


@pytest.mark.parametrize("case", list(_separability_cases()), ids=lambda c: c[0])
def test_measure_batch_is_row_separable_bit_for_bit(case):
    # the oracle measures its family in row blocks and must see the bytes
    # one whole-family call would give
    _, family, grid, pair, nodes = case
    whole = verifier.measure_batch(family, grid, pair, nodes)
    n = len(family)
    # every split leaves a ragged last block where the family is long enough
    for edges in (
        [*range(0, n, verifier.CHUNK), n],
        [*range(0, n, 1000), n],
        [*range(0, n, 37), n],
        [0, n - 2, n],
    ):
        blocks = [verifier.measure_batch(family[lo:hi], grid, pair, nodes)
                  for lo, hi in zip(edges, edges[1:])]
        assert np.concatenate(blocks).tobytes() == whole.tobytes()
    # A one-row batch takes BLAS's matrix-vector path and may differ in the
    # last bit, which is why the oracle never measures a lone row of a
    # longer family.
    for i in sorted({*range(0, n, max(n // 64, 1)), n - 1}):
        row = verifier.measure_batch(family[i:i + 1], grid, pair, nodes)
        np.testing.assert_allclose(row, whole[i:i + 1], rtol=0, atol=1e-14)


@pytest.mark.parametrize(
    "n, want",
    [(0, [0]), (1, [1]), (2, [2]), (3, [3]), (4, [4]), (5, [3, 2]), (6, [3, 3]), (7, [3, 4])],
)
def test_oracle_never_measures_a_lone_row_of_a_longer_family(n, want, monkeypatch):
    family, _ = alphabet_family(TINY, [0, 1, 2, 3])
    config = OracleConfig(TINY, TINY_PAIR, TimeNodes.lattice_covering(TINY, 0.5))
    sizes = []
    measure_batch = verifier.measure_batch

    def recorded(rows, *args):
        sizes.append(len(rows))
        return measure_batch(rows, *args)

    monkeypatch.setattr(verifier, "measure_batch", recorded)
    monkeypatch.setattr(verifier, "CHUNK", 3)
    uniqueness_oracle(config, family[:n])
    assert sizes == want


def test_alphabet_family_shape():
    samples, desc = alphabet_family(TINY, [1, 2])
    assert samples.shape == (16, 4)
    assert not np.any(samples[:, [0, 3]])
    assert "16 signals" in desc


@pytest.mark.parametrize(
    "cells, message",
    [
        ([-1, 3], "support cell -1 is outside 0..3"),
        ([1, 4], "support cell 4 is outside 0..3"),
        ([2, 2], "support cell 2 is repeated"),
        ([0, 1, 0, 7], "support cell 0 is repeated"),
    ],
)
def test_alphabet_family_refuses_wrapped_and_repeated_cells(cells, message):
    # numpy would wrap -1 onto cell 3, and a repeat gives duplicate rows
    with pytest.raises(ValueError) as exc:
        alphabet_family(TINY, cells)
    assert str(exc.value) == message


def test_families_over_the_oracle_cap_are_refused_before_they_are_built(monkeypatch):
    monkeypatch.setattr(verifier, "ORACLE_CAP", 100)
    message = r"^family too large: {} instances exceeds the 100 cap$"
    with pytest.raises(ValueError, match=message.format(256)):
        alphabet_family(TINY, [0, 1, 2, 3])
    with pytest.raises(ValueError, match=message.format(125)):
        trig_family(TINY, 2.0, degree=1)
    with pytest.raises(ValueError, match=message.format(101)):
        uniqueness_oracle(
            OracleConfig(TINY, TINY_PAIR, TimeNodes.lattice_covering(TINY, 1.0)),
            np.zeros((101, TINY.horizon), dtype=np.complex128),
        )


def test_trig_family_rows_evaluate_their_coefficients():
    grid = GridSpec(B=1.0, L=8, origin=8, horizon=24)
    samples, coeffs, desc = trig_family(grid, T=1.5, degree=1)
    assert samples.shape == (125, 24)
    assert coeffs.shape == (125, 3)
    x = grid.coords()
    row = sum(
        coeffs[7, k + 1] * np.exp(2j * np.pi * k * x / 1.5) for k in (-1, 0, 1)
    )
    assert np.allclose(samples[7], row, atol=1e-12)
    assert "125 signals" in desc


def test_conjugate_twist_mate_detection():
    ks = np.arange(-2, 3)
    cf = _rand(5, 3)
    nu, zeta = np.exp(0.3j), np.exp(0.9j)
    cg = nu * zeta ** ks * np.conj(cf)
    assert is_conjugate_twist_mate(cf, cg)
    assert not is_conjugate_twist_mate(cf, 2.0 * cg)
    hole = cg.copy()
    hole[0] = 0.0
    assert not is_conjugate_twist_mate(cf, hole)

    fp = forge("rational_periodic")
    c0, cq = fp.params["c0"], fp.params["cq"]
    assert is_conjugate_twist_mate(
        np.array([0, c0, cq]), np.array([0, np.conj(c0), np.conj(cq)])
    )


# Structural checks of the paper's gluing argument, of Lemma 3.2 and of the
# semi-discrete refinement, built from the library's public pieces.


def _same_content(u, v):
    """Whether two node contents agree up to phase, or u's slot mate agrees
    with v up to phase, at ``EQUIV_TOL``: the one window-content rule."""
    if phase_residuals(u, v) <= EQUIV_TOL:
        return True
    mate = slot_reflect(u)
    return mate is not None and phase_residuals(mate, v) <= EQUIV_TOL


def _per_window_gluing_check(f, g, pair, nodes):
    """Whether g looks like f, per node window, up to a free phase and an
    optional slot reflection in each window separately.  Non-overlapping
    windows (step a > B) cannot pin these choices to each other, which is
    exactly how their collisions arise.
    """
    scale = max(
        float(np.max(np.abs(f.samples))), float(np.max(np.abs(g.samples))), 1e-300
    )
    for t in nodes.times:
        hf = windowed_segment(f, pair, t)
        hg = windowed_segment(g, pair, t)
        if max(np.max(np.abs(hf)), np.max(np.abs(hg))) <= 1e-12 * scale:
            continue
        if not _same_content(hf, hg):
            return False
    return True


def _lemma32_equivalence_check(f, g, pair, t):
    """Truth of the single-node biconditional: the two windows' magnitudes at
    t agree exactly when the signals restricted to the node window agree up
    to phase or up to a conjugate reflection about t.

    The check is repeated under eight random global phase rotations of g,
    which change neither side; all repetitions must agree.
    """
    nodes = TimeNodes(mode="lattice", times=(float(t),))
    mf = measure(f, pair, nodes)
    hf = node_segment(f.grid, t, f.samples).samples
    rng = np.random.default_rng(0)
    outcomes = []
    for trial in range(9):
        gs = g if trial == 0 else Signal(
            g.grid, g.samples * np.exp(2j * np.pi * rng.random())
        )
        mg = measure(gs, pair, nodes)
        scale = max(float(np.max(mf.mags)), float(np.max(mg.mags)), 1.0)
        lhs, _ = measurements_equal(mf, mg, tol=1e-10 * scale)
        hg = node_segment(gs.grid, t, gs.samples).samples
        outcomes.append(lhs == _same_content(hf, hg))
    return all(outcomes)


@dataclass(frozen=True)
class _RefinementReport:
    steps: Tuple[float, ...]
    deviations: Tuple[float, ...]
    forced_at: Optional[int]
    phase_equivalent: bool


def _semidiscrete_refinement_check(f, g, pair, *, a0=None):
    """Stand-in for measurements over all real times: halve the node step
    (``a0``, B by default) at each of four levels and report the first level
    whose measurements separate the pair by more than 1e-10 of their scale
    (or level 0 if the pair was equivalent to begin with).

    Only nodes whose windows sit fully inside the horizon are used, so the
    finite-span truncation of an unbounded signal cannot masquerade as a
    separation.  forced_at None means the pair survives every scanned
    level, the signature of a genuine all-time counterexample.
    """
    grid = f.grid
    if a0 is None:
        a0 = grid.B
    phase_eq = equivalent_up_to_phase(f, g)
    forced = 0 if phase_eq else None
    steps = []
    devs = []
    for level in range(4):
        step = a0 / 2 ** level
        m_range = TimeNodes.inside_range(grid, step)
        steps.append(step)
        if not m_range:
            devs.append(0.0)
            continue
        nodes = TimeNodes.lattice(step, m_range)
        mf = measure(f, pair, nodes)
        scale = max(float(np.max(mf.mags)), 1.0)
        equal, dev = measurements_equal(mf, measure(g, pair, nodes), tol=1e-10 * scale)
        devs.append(dev)
        if forced is None and not equal:
            forced = level
    return _RefinementReport(
        steps=tuple(steps),
        deviations=tuple(devs),
        forced_at=forced,
        phase_equivalent=phase_eq,
    )


def test_per_window_gluing():
    fp = forge("wide_step")
    assert _per_window_gluing_check(fp.f, fp.g, fp.pair, fp.nodes)
    gv = fp.g.samples.copy()
    gv[fp.f.grid.origin] += 0.5
    assert not _per_window_gluing_check(fp.f, Signal(fp.f.grid, gv), fp.pair, fp.nodes)


def test_single_node_biconditional():
    grid = GridSpec(B=1.0, L=8, origin=12, horizon=24)
    pair = build_window("rectangular", grid)
    f = Signal(grid, _rand(24, 4))
    same = Signal(grid, np.exp(1.1j) * f.samples)
    assert _lemma32_equivalence_check(f, same, pair, t=0.3)
    bumped = f.samples.copy()
    bumped[12] += 0.8
    assert _lemma32_equivalence_check(f, Signal(grid, bumped), pair, t=0.3)


def test_refinement_forces_separable_pair_at_level_one():
    fp = forge("separable_gap")
    rep = _semidiscrete_refinement_check(fp.f, fp.g, fp.pair)
    assert rep.steps == (1.0, 0.5, 0.25, 0.125)
    assert not rep.phase_equivalent
    assert rep.forced_at == 1
    assert rep.deviations[0] <= 1e-10
    assert rep.deviations[1] > 1e-3


def test_refinement_forces_wide_step_pair():
    fp = forge("wide_step")
    rep = _semidiscrete_refinement_check(fp.f, fp.g, fp.pair, a0=fp.params["a"])
    assert rep.forced_at == 1
    assert not rep.phase_equivalent


def test_refinement_reports_phase_pair_at_zero():
    grid = GridSpec(B=1.0, L=4, origin=16, horizon=32)
    pair = build_window("rectangular", grid)
    f = Signal(grid, _rand(32, 6))
    rep = _semidiscrete_refinement_check(f, Signal(grid, np.exp(0.4j) * f.samples), pair)
    assert rep.forced_at == 0
    assert rep.phase_equivalent
    assert max(rep.deviations) <= 1e-10


def test_refinement_never_separates_wide_gap_pair():
    # supports eight half-lengths apart: no window at any real time sees both,
    # so an independent phase on each side survives every refinement level
    grid = GridSpec(B=1.0, L=4, origin=16, horizon=32)
    pair = build_window("rectangular", grid)
    vals = np.zeros(32, dtype=np.complex128)
    vals[0:6] = _rand(6, 7)
    vals[22:32] = _rand(10, 8)
    f = Signal(grid, vals)
    gv = vals.copy()
    gv[22:32] *= np.exp(2.2j)
    rep = _semidiscrete_refinement_check(f, Signal(grid, gv), pair)
    assert rep.forced_at is None
    assert not rep.phase_equivalent
    assert max(rep.deviations) <= 1e-12
