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
    is_conjugate_twist_mate,
    lemma32_equivalence_check,
    measure,
    measurements_equal,
    pair_equivalent,
    per_window_gluing_check,
    semidiscrete_refinement_check,
    trig_family,
    uniqueness_oracle,
)


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


def _colliding_multipliers(width):
    """Multipliers that hash every key row to 0."""
    return np.zeros(width, dtype=np.uint64)


def _first_column_multipliers(width):
    """Multipliers that hash a key row to its first column alone."""
    return np.eye(1, width, dtype=np.uint64)[0]


@pytest.mark.parametrize("multipliers", [_colliding_multipliers, _first_column_multipliers])
@pytest.mark.parametrize(
    "case",
    [c for c in _oracle_cases()
     if c[0] in ("criterion-2 cap 64", "edge rows", "interleaved classes")],
    ids=lambda c: c[0],
)
def test_oracle_grouping_is_exact_under_hash_collisions(case, multipliers, monkeypatch):
    _, config, samples, cap, want_count = case
    monkeypatch.setattr(verifier, "_hash_multipliers", multipliers)
    report = uniqueness_oracle(config, samples, violation_cap=cap)
    assert report.violation_count == want_count
    _check_against_scalar(report, config, samples, cap, monkeypatch)


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


def test_per_window_gluing():
    fp = forge("wide_step")
    assert per_window_gluing_check(fp.f, fp.g, fp.pair, fp.nodes)
    gv = fp.g.samples.copy()
    gv[fp.f.grid.origin] += 0.5
    assert not per_window_gluing_check(fp.f, Signal(fp.f.grid, gv), fp.pair, fp.nodes)


def test_single_node_biconditional():
    grid = GridSpec(B=1.0, L=8, origin=12, horizon=24)
    pair = build_window("rectangular", grid)
    f = Signal(grid, _rand(24, 4))
    same = Signal(grid, np.exp(1.1j) * f.samples)
    assert lemma32_equivalence_check(f, same, pair, t=0.3)
    bumped = f.samples.copy()
    bumped[12] += 0.8
    assert lemma32_equivalence_check(f, Signal(grid, bumped), pair, t=0.3)


def test_refinement_forces_separable_pair_at_level_one():
    fp = forge("separable_gap")
    rep = semidiscrete_refinement_check(fp.f, fp.g, fp.pair)
    assert rep.steps == (1.0, 0.5, 0.25, 0.125)
    assert not rep.phase_equivalent
    assert rep.forced_at == 1
    assert rep.deviations[0] <= 1e-10
    assert rep.deviations[1] > 1e-3


def test_refinement_forces_wide_step_pair():
    fp = forge("wide_step")
    rep = semidiscrete_refinement_check(fp.f, fp.g, fp.pair, a0=fp.params["a"])
    assert rep.forced_at == 1
    assert not rep.phase_equivalent


def test_refinement_reports_phase_pair_at_zero():
    grid = GridSpec(B=1.0, L=4, origin=16, horizon=32)
    pair = build_window("rectangular", grid)
    f = Signal(grid, _rand(32, 6))
    rep = semidiscrete_refinement_check(f, Signal(grid, np.exp(0.4j) * f.samples), pair)
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
    rep = semidiscrete_refinement_check(f, Signal(grid, gv), pair)
    assert rep.forced_at is None
    assert not rep.phase_equivalent
    assert max(rep.deviations) <= 1e-12
