import itertools
import sys
from typing import List, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twowin import (
    GridSpec,
    Signal,
    TimeNodes,
    UnrealizableAutocorrelation,
    alphabet_family,
    autocorrelation_from_magnitudes,
    build_window,
    direct_autocorrelation,
    enumerate_candidates,
    local_recovery,
    measure,
    pair_equivalent,
    phase_residuals,
    random_nonseparable,
    reconstruct,
    recover_local,
    recover_rows,
    slot_reflect,
)
from twowin.local_recovery import (
    ACCEPT_TOL,
    CANDIDATE_AUTOCORR_TOL,
    CLASS_TOL,
    L_MAX,
    PAIRING_TOL,
    POLISH_ABOVE,
    SCREEN_MARGIN,
    AmbiguityViolation,
    InconsistentMeasurements,
    LocalClass,
    RecoveryError,
    _closable,
    _cluster_circle_roots,
    _conjugate_closed,
    _gauss_newton,
    _lag_defect,
    _lag_fit,
    _magnitude_fit,
    _phase_match,
    _picks,
    _poly_rows,
    _unit_cores,
    refit,
)
from twowin.stft_engine import NODE_BLOCK, measure_batch
from twowin.window_engine import WindowPair


def _node_mags(content, L):
    """Measure a content vector as the node-0 window of a tight grid."""
    grid = GridSpec(B=1.0, L=L, origin=L // 2, horizon=L)
    pair = build_window("rectangular", grid)
    f = Signal(grid, np.asarray(content, dtype=np.complex128))
    ms = measure(f, pair, TimeNodes.lattice(grid.B, [0]))
    return ms.mags[0, 0], ms.mags[1, 0], pair


@pytest.fixture
def screened(monkeypatch):
    """The screen on every node, however few its branches: below
    ``SCREEN_MIN_ROWS`` it is skipped only because the whole enumeration
    costs less there."""
    monkeypatch.setattr(local_recovery, "SCREEN_MIN_ROWS", 1)


def test_direct_autocorrelation_hand_case():
    a = direct_autocorrelation(np.array([1.0, 1j]))
    np.testing.assert_allclose(a, [2.0, 1j])
    h = np.array([0.0, 2.0, -1j])
    a = direct_autocorrelation(h)
    assert a[0] == pytest.approx(5.0)
    assert a[1] == pytest.approx(-1j * 2.0)
    assert a[2] == pytest.approx(0.0)


@pytest.mark.parametrize("L", [2, 3, 5, 8, 10])
def test_autocorrelation_inversion_matches_direct(L):
    rng = np.random.default_rng(L)
    h = rng.standard_normal(L) + 1j * rng.standard_normal(L)
    phi_mags, _, pair = _node_mags(h, L)
    got = autocorrelation_from_magnitudes(phi_mags, pair.grid.delta)
    np.testing.assert_allclose(got, direct_autocorrelation(h), atol=1e-10)


@pytest.mark.parametrize("s", range(1, L_MAX + 1))
@pytest.mark.parametrize("lead", ["random", "zero lead"])
def test_lag_defect_tables_give_the_direct_lags(s, lead):
    # the DFT-table products stand in for an FFT pair: each core's defect
    # plus the target lags is its own autocorrelation, to roundoff of a_0
    rng = np.random.default_rng(100 * s + len(lead))
    cores = rng.standard_normal((5, s)) + 1j * rng.standard_normal((5, s))
    if lead == "zero lead":
        cores[:, 0] = 0.0
    lags = rng.standard_normal(s) + 1j * rng.standard_normal(s)
    got = _lag_defect(cores, lags, s) + lags
    for row, core in zip(got, cores):
        want = direct_autocorrelation(core)
        assert np.abs(row - want).max() <= 1e-12 * max(want[0].real, 1e-300)
    for table in local_recovery._dft_tables(s):
        assert not table.flags.writeable


def test_slot_reflect_rules():
    odd = np.array([1.0, 2j, 3.0])
    mate = slot_reflect(odd)
    np.testing.assert_allclose(mate, [3.0, -2j, 1.0])
    np.testing.assert_allclose(slot_reflect(mate), odd)
    # reflection preserves the autocorrelation
    np.testing.assert_allclose(
        direct_autocorrelation(mate), direct_autocorrelation(odd), atol=1e-14
    )
    # even length: the first slot has no mirror image
    assert slot_reflect(np.array([1.0, 2.0, 3.0, 4.0])) is None
    blocked = slot_reflect(np.array([0.0, 2.0, 3.0, 4.0]))
    np.testing.assert_allclose(blocked, [0.0, 4.0, 3.0, 2.0])


def test_enumerate_candidates_contains_truth(screened):
    rng = np.random.default_rng(42)
    h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    acorr = direct_autocorrelation(h)
    cands = enumerate_candidates(acorr, 4)
    assert any(_phase_match(c, h, 1e-8) for c in cands)
    for c in cands:
        np.testing.assert_allclose(direct_autocorrelation(c), acorr, atol=1e-7)
    # generic contents: at most 2^(s-1) pairings, one placement at full width
    assert len(cands) <= 8
    # given the node's magnitudes, the truth is what comes back
    phi, psi, pair = _node_mags(h, 4)
    kept = enumerate_candidates(autocorrelation_from_magnitudes(phi, pair.grid.delta), 4, psi, pair, phi_mags=phi)
    assert len(kept) == 1 and _phase_match(kept[0], h, 1e-8)


def test_enumerate_candidates_places_short_support(screened):
    h = np.array([0.0, 1.5, 0.7j, 0.0])
    cands = enumerate_candidates(direct_autocorrelation(h[1:3]), 4)
    # a length-2 core slides across three placements, two flips each
    assert any(_phase_match(c, h, 1e-8) for c in cands)
    assert all(c.size == 4 for c in cands)
    # the second window sees the placement: the truth and, as the cells
    # around the slot allow, its conjugate slot mate come back
    phi, psi, pair = _node_mags(h, 4)
    kept = enumerate_candidates(autocorrelation_from_magnitudes(phi, pair.grid.delta), 4, psi, pair, phi_mags=phi)
    assert 1 <= len(kept) <= 2 and all(c.size == 4 for c in kept)
    assert any(_phase_match(c, h, 1e-8) for c in kept)


def _poly_batch(roots: np.ndarray) -> np.ndarray:
    """Monic coefficients, highest degree first, for each row of ``roots``:
    one linear factor per step for the whole batch, in the root order
    np.poly uses, and like np.poly the imaginary part dropped from a row
    whose roots are closed under conjugation.  The branch builder,
    ``_poly_rows``, must build its rows with this arithmetic, bit for bit."""
    n, k = roots.shape
    c = np.zeros((n, k + 1), dtype=np.complex128)
    c[:, 0] = 1.0
    for j in range(k):
        c[:, 1 : j + 2] -= roots[:, j : j + 1] * c[:, : j + 1]
    real = _conjugate_closed(roots)
    c[real] = c[real].real
    return c


@pytest.mark.parametrize("n_branches", [1, 2, 2**5, 2**10])
def test_poly_batch_matches_np_poly(n_branches):
    rng = np.random.default_rng(n_branches)
    roots = rng.standard_normal((n_branches, 7)) + 1j * rng.standard_normal((n_branches, 7))
    # a fused branch: a near-circle mirror pair read as one doubled circle root
    roots[0, -2:] = np.exp(0.7j)
    if n_branches > 1:
        # a conjugate-closed row, which np.poly returns with real coefficients
        roots[1, :3] = np.conj(roots[1, 3:6])
        roots[1, 6] = 0.5
    got = _poly_batch(roots)
    want = np.array([np.poly(r) for r in roots])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    if n_branches > 1:
        assert np.all(got[1].imag == 0.0)


def _reference_candidates(h, L):
    """Per-branch reference for content without unit-circle roots: one
    np.poly call per mirror choice, every placement, dedup up to phase."""
    acorr = direct_autocorrelation(h)
    a0 = acorr[0].real
    s = 1 + max(l for l in range(L) if abs(acorr[l]) > 1e-12 * a0)
    roots = np.roots(np.concatenate([np.conj(acorr[1:s][::-1]), acorr[:s]])[::-1])
    inside = roots[np.abs(roots) < 1.0]
    assert inside.size == s - 1
    out = []
    for flips in itertools.product([False, True], repeat=inside.size):
        core = np.poly([1 / np.conj(r) if f else r for r, f in zip(inside, flips)])[::-1]
        core = core * np.sqrt(a0 / np.sum(np.abs(core) ** 2))
        for p in range(L - s + 1):
            cand = np.zeros(L, dtype=np.complex128)
            cand[p : p + s] = core
            if not any(_phase_match(cand, c, 1e-9) for c in out):
                out.append(cand)
    return out


@pytest.mark.parametrize("L, cells", [(4, range(4)), (6, range(6)), (8, range(8)), (8, range(2, 7))])
def test_enumerate_candidates_matches_per_branch_reference(L, cells, screened):
    rng = np.random.default_rng(10 * L + len(cells))
    h = np.zeros(L, dtype=np.complex128)
    h[list(cells)] = rng.standard_normal(len(cells)) + 1j * rng.standard_normal(len(cells))
    got = enumerate_candidates(direct_autocorrelation(h), L)
    want = _reference_candidates(h, L)
    assert len(got) == len(want)
    for c in got:
        assert any(_phase_match(c, w, 1e-9) for w in want)
    for w in want:
        assert any(_phase_match(w, c, 1e-9) for c in got)
    # given the node's magnitudes, what comes back is the reference's
    # survivors of exact pricing
    phi, psi, pair = _node_mags(h, L)
    kept = enumerate_candidates(autocorrelation_from_magnitudes(phi, pair.grid.delta), L, psi, pair, phi_mags=phi)
    survivors = [w for w, d in zip(want, _exact_defects(want, phi, psi, pair)) if d <= ACCEPT_TOL]
    assert 1 <= len(kept) == len(survivors) <= 2
    for c in kept:
        assert any(_phase_match(c, w, 1e-9) for w in survivors)
    for w in survivors:
        assert any(_phase_match(w, c, 1e-9) for c in kept)


def test_enumerate_candidates_validation():
    with pytest.raises(ValueError):
        enumerate_candidates([1.0], L_MAX + 1)
    with pytest.raises(ValueError):
        enumerate_candidates([0.0, 0.0], 2)
    with pytest.raises(ValueError):
        enumerate_candidates([1.0, 0.1, 0.1], 2)
    # 1 + 1.2 cos(theta) dips negative: no content realizes these lags
    with pytest.raises(UnrealizableAutocorrelation):
        enumerate_candidates([1.0, 0.6], 2)
    # the node's data come whole or not at all, and fit the window
    phi, psi, pair = _node_mags([1.0, 0.5j, 0.25], 3)
    with pytest.raises(ValueError, match="together"):
        enumerate_candidates([1.0, 0.1], 3, psi, pair)
    with pytest.raises(ValueError, match="2L"):
        enumerate_candidates([1.0, 0.1], 3, psi[:-1], pair, phi_mags=phi)


@pytest.mark.parametrize("L", [3, 4, 6, 9])
def test_recover_local_roundtrip(L):
    rng = np.random.default_rng(100 + L)
    h = rng.standard_normal(L) + 1j * rng.standard_normal(L)
    phi_mags, psi_mags, pair = _node_mags(h, L)
    cls = recover_local(phi_mags, psi_mags, pair)
    # the canonical ordering is free to put the reflected mate first
    assert any(_phase_match(rep, h, 1e-7) for rep in cls.representatives)
    assert cls.residual <= 1e-8
    # survivors stay inside the dichotomy {h, reflected h}
    mate = slot_reflect(h)
    for rep in cls.representatives:
        ok = _phase_match(rep, h, 1e-6) or (
            mate is not None and _phase_match(rep, mate, 1e-6)
        )
        assert ok


def test_recover_local_at_l_max():
    # 2^15 factorization branches in one batch
    rng = np.random.default_rng(16)
    h = rng.standard_normal(L_MAX) + 1j * rng.standard_normal(L_MAX)
    phi_mags, psi_mags, pair = _node_mags(h, L_MAX)
    cls = recover_local(phi_mags, psi_mags, pair)
    assert any(_phase_match(rep, h, 1e-7) for rep in cls.representatives)


def test_representatives_own_their_rows():
    # a representative that is a view of the node's candidate matrix keeps
    # every candidate alive for as long as the class is held
    rng = np.random.default_rng(16)
    h = rng.standard_normal(L_MAX) + 1j * rng.standard_normal(L_MAX)
    phi_mags, psi_mags, pair = _node_mags(h, L_MAX)
    nodes = _criterion1_nodes() + [(phi_mags, psi_mags, pair, None)]
    two_class = 0
    for phi, psi, pair, scale in nodes:
        cls = recover_local(phi, psi, pair, scale=scale)
        two_class += len(cls.representatives) == 2
        for rep in cls.representatives:
            assert rep.shape == (pair.grid.L,)
            assert rep.base is None or rep.base.size == pair.grid.L
    assert two_class > 0


def test_recover_local_zero_node():
    grid = GridSpec(B=1.0, L=4, origin=2, horizon=4)
    pair = build_window("rectangular", grid)
    cls = recover_local(np.zeros(8), np.zeros(8), pair, scale=1.0)
    assert cls.is_zero
    assert cls.includes_reflection
    assert np.all(cls.representative == 0.0)


def test_recover_local_input_validation():
    grid = GridSpec(B=1.0, L=4, origin=2, horizon=4)
    pair = build_window("rectangular", grid)
    with pytest.raises(ValueError):
        recover_local(np.ones(8), np.ones(5), pair)


def _circle_content(roots, L):
    """Content whose z-transform has the given roots, zero-padded to L."""
    c = np.poly(roots)[::-1]
    h = np.zeros(L, dtype=np.complex128)
    h[: c.size] = c
    return h


def _rescued_contents():
    """Contents with repeated unit-circle roots on which no factorization
    branch validates until the branches are fitted to the lags.  The last
    three are rows 72, 84 and 118 of ``scripts/exact_sweep.py``'s third
    block (``circle_contents()``), which a refinement of the circle angles
    alone refused."""
    e = np.exp
    return [
        _circle_content([e(0.12j)] * 2 + [e(0.18j)] * 2, 5),
        _circle_content([e(-1.7j)] * 3 + [e(-1.1j)] * 3 + [0.6 + 0.2j], 8),
        _circle_content(
            [e(-0.9898252248271557j)] * 3
            + [
                -0.14311214493607377 + 0.40625862159256027j,
                -0.06341013648442359 - 0.23760239509842612j,
                -0.9501493546308207 - 0.28253046156544825j,
                -1.0431549250083614 - 0.9400888644327094j,
                -1.8986527880993846 + 0.2506857073851182j,
                0.023475250803674515 - 2.45140927594481j,
            ],
            10,
        ),
        _circle_content(
            [e(-1.5262933859652417j)]
            + [e(1.8776120463829056j)] * 3
            + [-0.7660783957029785 + 0.6556766573404396j],
            6,
        ),
        _circle_content(
            [e(-1.5383148950014431j)] * 3
            + [
                1.7854798434391734 - 1.4859352116757343j,
                -0.07743428772274395 - 0.02559851774188496j,
                -0.23606549983255928 - 1.1810866875861858j,
                0.2112587405263616 - 1.0084985965778217j,
                1.1027011502332074 + 1.7573555529139764j,
                2.2428103134060917 - 0.39215075618008727j,
                0.5037863397494077 - 0.7566437754683412j,
            ],
            11,
        ),
    ]


@pytest.mark.parametrize(
    "content",
    [
        (1.0, 1.0, -1.0, -1.0),
        (1.0, 1j, 1.0, 1j),
        (0.0, 1.0, 1.0, 1j),
        (1j, 1j, 1j, 1j),
    ]
    + [tuple(h) for h in _rescued_contents()],
)
def test_recover_local_degenerate_contents(content):
    # repeated-root autocorrelations: the factorization must still land on
    # the true content to full accuracy, not just within the root solver's
    # multiplicity-limited precision
    phi_mags, psi_mags, pair = _node_mags(content, len(content))
    cls = recover_local(phi_mags, psi_mags, pair)
    h = np.asarray(content, dtype=np.complex128)
    assert _phase_match(cls.representative, h, 1e-8) or any(
        _phase_match(rep, h, 1e-8) for rep in cls.representatives
    )


def test_two_triple_circle_roots_come_back_right_by_the_sweeps_rule():
    # the eigensolver splits each triple circle root into six copies 1e-3 to
    # 3.2e-3 off the circle.  The 1e-3 rung pairs all twelve as mirror
    # pairs, and only the lag-fit rescue validates that reading, 1.1e-6
    # from the truth; the 1e-2 rung, tried first without the rescue, reads
    # both clusters whole and is exact to roundoff
    h = _circle_content([np.exp(1.4j)] * 3 + [np.exp(-1.4j)] * 3, 7)
    grid = GridSpec(B=1.0, L=7, origin=3, horizon=7)
    pair = build_window("rectangular", grid, b=0.25)
    f = Signal(grid, h)
    rep = reconstruct(measure(f, pair, TimeNodes.lattice(6 / 7, [0])), pair)
    assert pair_equivalent(
        rep.signal.samples, h, allow_reflection=rep.ambiguity != "phase_only", tol=1e-6
    )
    assert phase_residuals(rep.signal.samples, h) <= 1e-12


def test_recover_local_flags_reflection_symmetry():
    # an even-length content with a live first slot has no admissible mate
    phi_mags, psi_mags, pair = _node_mags([1.0, 0.5j, -0.25, 0.125], 4)
    cls = recover_local(phi_mags, psi_mags, pair)
    assert not cls.includes_reflection
    # odd length always admits the reflected branch
    phi_mags, psi_mags, pair = _node_mags([1.0, 0.5j, -0.25], 3)
    cls = recover_local(phi_mags, psi_mags, pair)
    assert cls.includes_reflection


def _reference_slot_reflect(h):
    """slot_reflect as a loop over the slots, the form it replaced."""
    hv = np.asarray(h, dtype=np.complex128)
    L = hv.size
    s = L // 2
    scale = float(np.max(np.abs(hv))) if L else 0.0
    out = np.zeros(L, dtype=np.complex128)
    for j in range(L):
        src = 2 * s - j
        if 0 <= src < L:
            out[j] = np.conj(hv[src])
        elif abs(hv[j]) > 1e-12 * scale:
            return None
    return out


@settings(max_examples=300, deadline=None)
@given(
    L=st.integers(0, 17),
    seed=st.integers(0, 2**32 - 1),
    first=st.sampled_from(["live", "zero", "tiny"]),
)
def test_slot_reflect_matches_the_loop(L, seed, first):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal(L) + 1j * rng.standard_normal(L)
    if L:
        # a vanishing first slot unblocks even lengths; a tiny one sits
        # under the 1e-12 relative cutoff
        h[0] = {"live": h[0], "zero": 0.0, "tiny": 1e-13 * np.max(np.abs(h[1:]), initial=0.0)}[first]
    got, want = slot_reflect(h), _reference_slot_reflect(h)
    if want is None:
        assert got is None
    else:
        assert got is not None and got.tobytes() == want.tobytes()
    assert (got is None) == (L % 2 == 0 and first == "live" and L > 0)


@pytest.mark.parametrize("seed", range(4))
def test_every_branch_built_matches_poly_batch_bit_for_bit(seed):
    # the whole enumeration's rows: the forced roots, then one option per
    # pair, every branch in _picks order, which is itertools.product's
    rng = np.random.default_rng(seed)

    def z():
        return complex(rng.standard_normal(), rng.standard_normal())

    theta = rng.uniform(0, 2 * np.pi)
    forced = [
        [],
        [complex(np.exp(1j * theta)), complex(np.exp(-1j * theta))],
        [complex(np.exp(1j * theta))],
        [-1.0 + 0j, 1j, -1j],
    ][seed]
    # rows choosing r and conj(r), and either root of each real pair, are
    # closed under conjugation; so are rows taking both fused readings of a
    # conjugate pair of near-circle pairs
    r, w = z(), complex((1 + 1e-4) * np.exp(0.3j))
    options = [
        [r, z()],
        [z(), r.conjugate()],
        [0.5 + 0j, 2.0 + 0j],
        [1 + 1e-4 + 0j, 1 / (1 + 1e-4) + 0j, 1 + 0j],
        [w, 1 / w.conjugate(), complex(np.exp(0.3j))],
        [w.conjugate(), 1 / w, complex(np.exp(-0.3j))],
    ]
    sizes = tuple(len(o) for o in options)
    count = int(np.prod(sizes))
    picks = _picks(sizes, np.arange(count))
    chosen = np.array([forced + [o[i] for o, i in zip(options, p)] for p in picks.tolist()])
    rows = np.array([forced + list(choice) for choice in itertools.product(*options)])
    assert chosen.tobytes() == rows.tobytes()
    got = _poly_rows(chosen, _closable([[r] for r in forced] + options))
    want = _poly_batch(rows)
    assert got.tobytes() == want.tobytes()
    if seed != 2:
        assert np.any(np.all(got.imag == 0.0, axis=1))


# --- the per-node path against the code it replaced ----------------------------
#
# The functions below are the enumeration and pruning as they were before the
# shared-prefix fan-out: np.roots, scalar mirror-pairing costs, every branch
# through _poly_batch with its conjugation sort, np.unique over the quantized
# keys, a list of rows, and spectrum tables rebuilt at every defect call.
# The current code must reproduce them bit for bit, errors included.

def _reference_spectrum_matrix(grid, omegas: np.ndarray) -> np.ndarray:
    """The parent's per-call spectrum table."""
    u = (np.arange(grid.L) - grid.L // 2) * grid.delta
    return np.exp(-2j * np.pi * np.outer(u, omegas))


def _reference_content_spectrum(cands: np.ndarray, grid, omegas: np.ndarray) -> np.ndarray:
    """delta * sum_j h_j exp(-2 i pi u_j omega), one table per call."""
    return grid.delta * (cands @ _reference_spectrum_matrix(grid, omegas))


def _reference_factor_once(
    roots: np.ndarray,
    lags: np.ndarray,
    s_eff: int,
    a0: float,
    circle_tol: float,
) -> np.ndarray:
    """The parent's factoring pass: scalar pairing costs, the full branch
    batch through _poly_batch, chosen/circ for every branch."""
    on_circle = [complex(r) for r in roots if abs(abs(r) - 1.0) <= circle_tol]
    off_circle = [complex(r) for r in roots if abs(abs(r) - 1.0) > circle_tol]

    # unit-circle roots arrive as even-multiplicity clusters; each cluster of
    # 2m split copies stands for one root of multiplicity m in the factor
    forced: List[complex] = []
    chord = max(2 * np.sqrt(PAIRING_TOL), 4 * circle_tol)
    for cluster in _cluster_circle_roots(on_circle, chord):
        if len(cluster) % 2:
            raise UnrealizableAutocorrelation(
                f"autocorrelation not realizable: unit-circle root {cluster[0]!r} has odd multiplicity"
            )
        centroid = sum(cluster) / len(cluster)
        if centroid == 0:
            raise UnrealizableAutocorrelation(
                f"autocorrelation not realizable: unit-circle cluster near {cluster[0]!r} is degenerate"
            )
        forced.extend([centroid / abs(centroid)] * (len(cluster) // 2))

    pairing_tol = max(PAIRING_TOL, circle_tol)
    pairs: List[Tuple[complex, complex]] = []
    pool = list(off_circle)
    while pool:
        r = pool.pop()
        if not pool:
            raise UnrealizableAutocorrelation(
                f"autocorrelation not realizable: unpaired root {r!r}"
            )
        mirror = 1.0 / np.conj(r)

        def cost(w: complex) -> float:
            return max(abs(w - mirror), abs(r - 1.0 / np.conj(w))) / (1 + abs(r) + abs(w))

        j = min(range(len(pool)), key=lambda i: cost(pool[i]))
        if cost(pool[j]) > pairing_tol:
            raise UnrealizableAutocorrelation(
                f"autocorrelation not realizable: unpaired root {r!r}"
            )
        pairs.append((r, pool.pop(j)))

    # a mirror pair sitting right on the circle is indistinguishable from a
    # split double circle root; offer the fused reading as an extra branch
    # and let validation and the second window decide
    options: List[List[Tuple[complex, bool]]] = []
    branch_count = 1
    for r1, r2 in pairs:
        opts = [(r1, False), (r2, False)]
        fusable = (
            abs(abs(r1) - 1.0) <= 5e-2
            and abs(abs(r2) - 1.0) <= 5e-2
            and abs(r1 - r2) <= chord
        )
        if fusable and branch_count * 3 <= 8192:
            mid = (r1 + r2) / 2
            if mid != 0:
                opts.append((mid / abs(mid), True))
        options.append(opts)
        branch_count *= len(opts)

    # one row per branch, in the order of itertools.product over the pairs:
    # the forced roots, then one choice per pair
    pick = np.indices([len(o) for o in options]).reshape(len(options), branch_count).T
    chosen = np.empty((branch_count, len(forced) + len(options)), dtype=np.complex128)
    circ = np.ones(chosen.shape, dtype=bool)
    chosen[:, : len(forced)] = forced
    for j, opts in enumerate(options):
        chosen[:, len(forced) + j] = np.array([z for z, _ in opts])[pick[:, j]]
        circ[:, len(forced) + j] = np.array([c for _, c in opts])[pick[:, j]]

    raw = _unit_cores(_poly_batch(chosen), a0)
    tol = CANDIDATE_AUTOCORR_TOL * max(1.0, a0)
    ok = np.max(np.abs(_lag_defect(raw, lags, s_eff)), axis=1) <= tol
    if not ok.any():
        # only when no branch validates is each branch holding unit-circle
        # roots fitted to the lags, and validated again
        for i in np.flatnonzero(circ.any(axis=1)):
            raw[i] = _gauss_newton(raw[i], _lag_fit(lags, s_eff))
        ok = np.max(np.abs(_lag_defect(raw, lags, s_eff)), axis=1) <= tol
    if not ok.any():
        raise UnrealizableAutocorrelation(
            "autocorrelation not realizable: every pairing branch failed validation"
        )
    return raw[ok]


def _reference_enumerate_candidates(acorr: Sequence[complex], L: int) -> List[np.ndarray]:
    """The parent's enumeration: np.roots, the ladder, np.unique on the
    quantized keys, and a list of rows."""
    a = np.asarray(acorr, dtype=np.complex128)
    if L > L_MAX:
        raise ValueError(f"enumeration bound exceeded: L = {L} > {L_MAX}")
    if a.size > L:
        raise ValueError(f"got {a.size} lags for window cell count {L}")
    a0 = float(a[0].real)
    if a0 <= 0:
        raise ValueError("zero autocorrelation has no nonzero factorization")

    s_eff = 1 + max([l for l in range(a.size) if abs(a[l]) > 1e-12 * a0], default=0)

    if s_eff == 1:
        cores = np.array([[np.sqrt(a0)]], dtype=np.complex128)
    else:
        two_sided = np.concatenate([np.conj(a[1:s_eff][::-1]), a[:s_eff]])
        roots = np.roots(two_sided[::-1])
        # a multiplicity-m root only comes back from np.roots to within about
        # eps**(1/m), so circle classification retries on a widening ladder;
        # the lag validation inside each pass arbitrates what to accept
        cores = None
        error: Optional[UnrealizableAutocorrelation] = None
        for circle_tol in (PAIRING_TOL, 1e-4, 1e-3, 1e-2):
            try:
                cores = _reference_factor_once(roots, a, s_eff, a0, circle_tol)
                break
            except UnrealizableAutocorrelation as exc:
                error = exc
        if cores is None:
            assert error is not None
            raise error

    # every core at every placement, rows ordered core-major
    P = L - s_eff + 1
    placed = np.zeros((len(cores), P, L), dtype=np.complex128)
    for p in range(P):
        placed[:, p, p : p + s_eff] = cores
    cand = placed.reshape(-1, L)
    # global phase: the first largest entry becomes real and positive (every
    # row holds a core of energy a0 > 0, so the peak is never zero)
    rows = np.arange(cand.shape[0])
    k = np.argmax(np.abs(cand), axis=1)
    cand *= (np.conj(cand[rows, k]) / np.abs(cand[rows, k]))[:, None]
    q = np.round(cand / np.max(np.abs(cand), axis=1)[:, None], 9)
    keys = np.ascontiguousarray(q).view(np.dtype((np.void, q.itemsize * L))).ravel()
    # np.unique sorts the keys bytewise and reports each key's first row
    _, first = np.unique(keys, return_index=True)
    return list(cand[first])


def _reference_prune(
    candidates: Sequence[np.ndarray],
    psi_mags: Sequence[float],
    pair: WindowPair,
    *,
    phi_mags: Optional[Sequence[float]] = None,
    accept_tol: float = ACCEPT_TOL,
) -> LocalClass:
    """The parent's pruning: both spectrum tables rebuilt per defect call,
    list filters, and the mate reflected twice for two classes."""
    grid = pair.grid
    L = grid.L
    psi = np.asarray(psi_mags, dtype=np.float64)
    if psi.size != 2 * L:
        raise ValueError(f"need 2L = {2 * L} second-window bins, got {psi.size}")
    phi = None if phi_mags is None else np.asarray(phi_mags, dtype=np.float64)
    C = np.array(candidates, dtype=np.complex128).reshape(-1, L)
    omegas = np.arange(-L, L) / (4.0 * grid.B)

    a0 = float(np.max(np.sum(np.abs(C) ** 2, axis=1))) if C.size else 0.0
    scale = grid.delta * np.sqrt(2 * L * a0) if a0 > 0 else 1.0

    def defects_of(X: np.ndarray) -> np.ndarray:
        H1 = _reference_content_spectrum(X, grid, omegas)
        H2 = _reference_content_spectrum(X, grid, omegas + pair.b)
        d = np.linalg.norm(np.abs(H2 - H1) - psi, axis=1) / scale
        if phi is not None:
            d = np.hypot(d, np.linalg.norm(np.abs(H1) - phi, axis=1) / scale)
        return d

    def polish(X: np.ndarray) -> np.ndarray:
        M1 = grid.delta * _reference_spectrum_matrix(grid, omegas)
        M2 = grid.delta * _reference_spectrum_matrix(grid, omegas + pair.b)
        fit = _magnitude_fit([(M2 - M1, psi), (M1, phi)], scale)
        return np.array([_gauss_newton(h, fit) for h in X])

    defects = defects_of(C)
    best = defects.min() if defects.size else np.inf
    # the second window alone has as many equations as a content vector has
    # unknowns, so only both windows together can vouch for a polished fit
    if C.size and phi is not None and not best <= accept_tol:
        C = polish(C[[int(np.argmin(defects))]])
        defects = defects_of(C)
        best = min(best, defects[0])

    order = [i for i in range(C.shape[0]) if defects[i] <= accept_tol]
    # a survivor that passes but is not machine-accurate would carry its
    # defect into the glued neighbours, so it is polished in place
    rough = [i for i in order if defects[i] > POLISH_ABOVE]
    if phi is not None and rough:
        C[rough] = polish(C[rough])
        defects[rough] = defects_of(C[rough])
        order = [i for i in order if defects[i] <= accept_tol]
    if not order:
        raise InconsistentMeasurements(
            f"no factorization candidate matches the second window's data "
            f"(best relative defect {best:.3e})"
        )

    classes: List[int] = []
    for i in order:
        if not any(_phase_match(C[i], C[j], CLASS_TOL) for j in classes):
            classes.append(i)

    if len(classes) > 2:
        raise AmbiguityViolation(
            f"ambiguity violation: {len(classes)} phase classes survive the second window"
        )
    if len(classes) == 2:
        mate = _reference_slot_reflect(C[classes[0]])
        if mate is None or not _phase_match(mate, C[classes[1]], CLASS_TOL):
            raise AmbiguityViolation(
                "ambiguity violation: two surviving classes are not conjugate mates"
            )

    mate = _reference_slot_reflect(C[classes[0]])
    includes_reflection = mate is not None and defects_of(mate[None, :])[0] <= accept_tol

    return LocalClass(
        representatives=tuple(C[i] for i in classes),
        includes_reflection=bool(includes_reflection),
        residual=float(min(defects[i] for i in classes)),
    )



def _special_contents():
    """Contents whose autocorrelations force unit-circle clusters, offer fused
    near-circle pairs, climb the circle-tolerance ladder, or are refused."""
    cases = []
    for L in (4, 6, 8, 10, 12):
        rng = np.random.default_rng(L)
        free = list(rng.standard_normal(L) + 1j * rng.standard_normal(L))
        on = np.exp(0.7j)
        near = np.exp(1.1j)
        cases += [
            (f"circle-L{L}", _circle_content([on] + free[: L - 2], L)),
            (f"double-circle-L{L}", _circle_content([on, on] + free[: L - 3], L)),
            (f"near-1e-3-L{L}", _circle_content([(1 + 1e-3) * near] + free[: L - 2], L)),
            (f"near-1e-5-L{L}", _circle_content([(1 + 1e-5) * near] + free[: L - 2], L)),
            (
                f"near-pair-1e-4-L{L}",
                _circle_content([(1 + 1e-4) * near, near / (1 + 1e-4)] + free[: L - 3], L),
            ),
            (
                f"near-pair-1e-7-L{L}",
                _circle_content([(1 + 1e-7) * near, near / (1 + 1e-7)] + free[: L - 3], L),
            ),
        ]
    cases += [
        ("repeated-4a", np.array([1.0, 1.0, -1.0, -1.0], dtype=np.complex128)),
        ("repeated-4b", np.array([1.0, 1j, 1.0, 1j])),
        ("repeated-4c", np.array([1j, 1j, 1j, 1j])),
        ("triple-circle", _circle_content([np.exp(0.3j)] * 3 + [0.5 + 0.2j], 5)),
    ]
    cases += [(f"rescued-{i}", h) for i, h in enumerate(_rescued_contents())]
    return cases


def _seeded_contents():
    cases = []
    for L in range(4, 13):
        rng = np.random.default_rng(1000 + L)
        for cells in (range(L), range(1, L - 1), range(0, L // 2)):
            h = np.zeros(L, dtype=np.complex128)
            h[list(cells)] = rng.standard_normal(len(cells)) + 1j * rng.standard_normal(len(cells))
            cases.append((f"seeded-L{L}-{cells.start}:{cells.stop}", h))
    return cases


def _criterion1_nodes():
    """Every lattice node of one criterion-1 signal per (a, b), plus the two
    signals whose nodes hold a mirror pair within 1e-6 of the circle."""
    grid = GridSpec(B=1.0, L=8, origin=32, horizon=64)
    nodes = []
    for a, b, seed in [
        (1.0, 0.25, 0), (1.0, 0.5, 1), (0.5, 0.25, 2), (0.5, 0.5, 3),
        (1.0, 0.5, 1495495394), (0.5, 0.25, 349134471),
    ]:
        gap = 2 * grid.B - a
        n_gap = int(np.ceil(gap / grid.delta - 1e-9))
        f = random_nonseparable(grid, grid.horizon - n_gap + 1, gap, seed=seed)
        pair = build_window("rectangular", grid, b=b)
        ms = measure(f, pair, TimeNodes.lattice_covering(grid, a))
        scale = float(np.max(ms.mags))
        nodes += [(ms.mags[0, i], ms.mags[1, i], pair, scale) for i in range(ms.mags.shape[1])]
    return nodes


def _outcome(fn):
    try:
        out = fn()
    except RecoveryError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(out, LocalClass):
        return (
            tuple(r.tobytes() for r in out.representatives),
            out.includes_reflection,
            repr(out.residual),
            out.is_zero,
        )
    return np.asarray(out).tobytes(), len(out)


#: Two implementations of the same arithmetic agree to this distance,
#: relative to the larger vector, after phase alignment.
ROUNDOFF = 1e-12


def _recovered(fn):
    """What ``fn()`` returns, or its error class and message."""
    try:
        return fn()
    except RecoveryError as exc:
        return type(exc).__name__, str(exc)


def _assert_same_outcome(new, old):
    """The same refusal, or the same classes to roundoff: the class count,
    ``includes_reflection``, ``is_zero``, each representative within
    ``ROUNDOFF`` of one of the other's after phase alignment, and the
    residual."""
    if isinstance(old, tuple) or isinstance(new, tuple):
        assert new == old
        return
    assert (len(new.representatives), new.includes_reflection, new.is_zero) == (
        len(old.representatives), old.includes_reflection, old.is_zero
    )
    for reps, others in ((new.representatives, old.representatives),
                         (old.representatives, new.representatives)):
        for rep in reps:
            assert any(_phase_match(rep, other, ROUNDOFF) for other in others)
    assert abs(new.residual - old.residual) <= ROUNDOFF


def _as_before(monkeypatch):
    # the replaced enumeration takes no node data: it returns every branch
    monkeypatch.setattr(
        local_recovery, "enumerate_candidates",
        lambda acorr, L, *node, **phi: _reference_enumerate_candidates(acorr, L),
    )
    monkeypatch.setattr(local_recovery, "prune_with_second_window", _reference_prune)


@pytest.mark.parametrize(
    "h", [pytest.param(h, id=name) for name, h in _seeded_contents() + _special_contents()]
)
def test_enumeration_and_recovery_match_the_replaced_code(h, monkeypatch):
    L = h.size
    acorr = direct_autocorrelation(h)
    got = enumerate_candidates(acorr, L)
    if not isinstance(got, np.ndarray):
        pytest.fail("enumerate_candidates must return one array")
    assert got.ndim == 2 and got.shape[1] == L
    assert _outcome(lambda: got) == _outcome(lambda: _reference_enumerate_candidates(acorr, L))
    phi_mags, psi_mags, pair = _node_mags(h, L)
    new = _recovered(lambda: recover_local(phi_mags, psi_mags, pair))
    _as_before(monkeypatch)
    _assert_same_outcome(new, _recovered(lambda: recover_local(phi_mags, psi_mags, pair)))


def test_refusals_match_the_replaced_code():
    # lag sets no content realizes: their lag polynomials hold simple
    # unit-circle roots, which every rung of the ladder refuses, so the last
    # rung's message comes out
    rng = np.random.default_rng(3)
    lags = [([1.0, 0.6], 2), ([1.0, 0.3, 0.9], 3)]
    lags += [(np.r_[1.0, 0.6 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))], 5) for _ in range(3)]
    for acorr, L in lags:
        want = _outcome(lambda: _reference_enumerate_candidates(acorr, L))
        assert want[0] == "UnrealizableAutocorrelation"
        assert _outcome(lambda: enumerate_candidates(acorr, L)) == want


def test_criterion1_nodes_match_the_replaced_code(monkeypatch):
    nodes = _criterion1_nodes()
    new = [_recovered(lambda: recover_local(phi, psi, pair, scale=scale)) for phi, psi, pair, scale in nodes]
    _as_before(monkeypatch)
    old = [_recovered(lambda: recover_local(phi, psi, pair, scale=scale)) for phi, psi, pair, scale in nodes]
    for a, b in zip(new, old, strict=True):
        _assert_same_outcome(a, b)
    assert sum(len(o.representatives) == 2 for o in new if isinstance(o, LocalClass)) > 0


def test_criterion10_family_matches_the_replaced_code(monkeypatch):
    # real integer contents: conjugate-closed branches, circle roots, and
    # branches that coincide after quantization, so the dedup keeps a first row
    family = np.array(list(itertools.product([0, 1, 2, 3], repeat=4)), dtype=np.complex128)[1:]
    mags = [_node_mags(h, 4) for h in family]
    new = [
        (_outcome(lambda: enumerate_candidates(direct_autocorrelation(h), 4)),
         _outcome(lambda: recover_local(phi, psi, pair)))
        for h, (phi, psi, pair) in zip(family, mags)
    ]
    _as_before(monkeypatch)
    old = [
        (_outcome(lambda: _reference_enumerate_candidates(direct_autocorrelation(h), 4)),
         _outcome(lambda: recover_local(phi, psi, pair)))
        for h, (phi, psi, pair) in zip(family, mags)
    ]
    assert new == old


def _reference_orientations(cls):
    """The replaced ``LocalClass.orientations``: the listed classes, then the
    slot mate of a lone class that tolerates reflection, reflected with the
    strict slot-0 test at every call, when the mate is another class."""
    yield from cls.representatives
    if cls.includes_reflection and len(cls.representatives) == 1:
        mate = slot_reflect(cls.representative)
        if mate is not None and not _phase_match(mate, cls.representative, CLASS_TOL):
            yield mate


def _criterion10_lattice_nodes():
    """Every lattice node of criterion 10's family at a = 1 and a = 0.5."""
    grid = GridSpec(B=1.0, L=4, origin=2, horizon=4)
    pair = build_window("rectangular", grid)
    family, _ = alphabet_family(grid, [0, 1, 2, 3])
    nodes = []
    for a in (1.0, 0.5):
        lattice = TimeNodes.lattice_covering(grid, a)
        for h in family:
            mags = measure(Signal(grid, h.copy()), pair, lattice).mags
            scale = float(np.max(mags))
            nodes += [(phi, psi, pair, scale) for phi, psi in zip(*mags)]
    return nodes


def test_patches_match_the_replaced_orientations():
    # local recovery decides the offered mate once; the stitcher reads the
    # patches it carries, which must be what orientations() yielded
    offered = 0
    for phi, psi, pair, scale in _criterion1_nodes() + _criterion10_lattice_nodes():
        cls = recover_local(phi, psi, pair, scale=scale)
        assert [h.tobytes() for h in cls.patches] == [
            h.tobytes() for h in _reference_orientations(cls)
        ]
        offered += cls.mate is not None
    assert offered > 0


@pytest.mark.parametrize("b", [0.25, 0.5])
@pytest.mark.parametrize("a", [1.0, 0.5])
def test_edge_nodes_far_from_the_origin_keep_their_mate(a, b):
    # the forward map's roundoff grows with |x|, so far from the origin an
    # edge node's candidates carry about 1e-11 of debris in slot 0, the slot
    # an even window's reflection drops; read strictly, that refused two
    # conjugate mates as "not conjugate mates"
    grid = GridSpec(B=1.0, L=4, origin=50_000, horizon=100_000)
    pair = build_window("rectangular", grid, b=b)
    times = TimeNodes.lattice_covering(grid, a).times
    edge = round(grid.L * grid.delta / a) + 1
    nodes = TimeNodes.lattice(a, [round(t / a) for t in times[:edge] + times[-edge:]])
    gap = 2 * grid.B - a
    for seed in range(5):
        f = random_nonseparable(grid, grid.horizon - grid.cells_spanned(gap) + 1, gap, seed=seed)
        ms = measure(f, pair, nodes)
        scale = float(np.max(ms.mags))
        for phi, psi in zip(*ms.mags):
            recover_local(phi, psi, pair, scale=scale)


def test_dedup_keeps_each_keys_first_row_like_the_replaced_code(monkeypatch):
    # factored nodes hardly ever give two rows one key (a repeated root comes
    # back split by about 1e-8, above the 1e-9 key quantum), so the dedup is
    # fed cores directly: a core, the same core off by a rounding error and
    # by a phase (one key, different bytes), and a second core
    rng = np.random.default_rng(7)
    c, d = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    cores = np.array([c * (1 + 1e-12), d, c, c * np.exp(0.3j), d * (1 - 1e-12)])

    def factored(*args):
        return cores.copy()

    # the ladder also returns each core's placement grades, None when every
    # placement stands
    monkeypatch.setattr(local_recovery, "_factor_ladder", lambda *args: (factored(), None))
    monkeypatch.setattr(sys.modules[__name__], "_reference_factor_once", factored)
    acorr = direct_autocorrelation(c)
    got = enumerate_candidates(acorr, 3)
    assert len(got) < len(cores)
    assert got.tobytes() == np.array(_reference_enumerate_candidates(acorr, 3)).tobytes()


def _reference_autocorrelation(phi_mags, delta):
    """The lag inversion with its table built at every call."""
    m = np.asarray(phi_mags, dtype=np.float64)
    L = m.size // 2
    E = np.exp(1j * np.pi * np.outer(np.arange(L), np.arange(-L, L)) / L)
    acorr = (E @ (m * m).astype(np.complex128)) / (2 * L * delta * delta)
    acorr[0] = acorr[0].real
    return acorr


def test_cached_tables_follow_the_grid_step_and_window(monkeypatch):
    # the tables are cached per (L, B, b); nodes of four set-ups that share L
    # are recovered in turn, so each call finds another set-up's tables in
    # the cache, and every class must match the path that rebuilds them
    setups = []
    for B, profile, b in [
        (1.0, "rectangular", 0.25),
        (1.0, "rectangular", 0.5),
        (0.5, "rectangular", 0.25),
        (1.0, "raised_cosine", 0.25),
    ]:
        grid = GridSpec(B=B, L=8, origin=32, horizon=64)
        n_gap = int(np.ceil(B / grid.delta - 1e-9))
        f = random_nonseparable(grid, grid.horizon - n_gap + 1, B, seed=len(setups))
        pair = build_window(profile, grid, b=b)
        ms = measure(f, pair, TimeNodes.lattice_covering(grid, B))
        setups.append([(ms.mags[0, i], ms.mags[1, i], pair) for i in range(ms.mags.shape[1])])
    turns = [node for nodes in itertools.zip_longest(*setups) for node in nodes if node]

    local_recovery._lag_table.cache_clear()
    local_recovery._pricing_tables.cache_clear()
    new = [_recovered(lambda: recover_local(phi, psi, pair)) for phi, psi, pair in turns]
    for phi, psi, pair in turns:
        got = autocorrelation_from_magnitudes(phi, pair.grid.delta)
        assert got.tobytes() == _reference_autocorrelation(phi, pair.grid.delta).tobytes()
    # the raised-cosine set-up shares the first one's (L, B, b)
    assert local_recovery._pricing_tables.cache_info().currsize == 3

    _as_before(monkeypatch)
    monkeypatch.setattr(local_recovery, "autocorrelation_from_magnitudes", _reference_autocorrelation)
    old = [_recovered(lambda: recover_local(phi, psi, pair)) for phi, psi, pair in turns]
    for a, b in zip(new, old, strict=True):
        _assert_same_outcome(a, b)

    tables = list(local_recovery._pricing_tables(8, 1.0, 0.25)) + [local_recovery._lag_table(8)]
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.0


def test_reference_cases_reach_every_factoring_path(monkeypatch):
    # every whole enumeration takes its branches' picks from _every_pick,
    # over one option per forced root and two or three (a fused reading)
    # per mirror pair
    seen = {"forced": 0, "fused": 0, "retried": 0, "fitted": 0}
    every_pick, rung = local_recovery._every_pick, local_recovery._rung
    lag_fit = local_recovery._lag_fit
    rungs = []

    def counted_every_pick(sizes):
        seen["forced"] += 1 in sizes
        seen["fused"] += 3 in sizes
        return every_pick(sizes)

    def counted_lag_fit(lags, s_eff):
        seen["fitted"] += 1
        return lag_fit(lags, s_eff)

    def counted_rung(roots, circle_tol):
        rungs[-1] += 1
        return rung(roots, circle_tol)

    monkeypatch.setattr(local_recovery, "_every_pick", counted_every_pick)
    monkeypatch.setattr(local_recovery, "_rung", counted_rung)
    monkeypatch.setattr(local_recovery, "_lag_fit", counted_lag_fit)
    for _, h in _special_contents():
        rungs.append(0)
        enumerate_candidates(direct_autocorrelation(h), h.size)
        seen["retried"] += rungs[-1] > 1
    assert all(count > 0 for count in seen.values()), seen


def test_each_rung_reads_the_roots_once(monkeypatch):
    # two simple circle roots are refused at every rung before validation,
    # so the lag-fit rescue has nothing to retry: the four rungs read the
    # roots once each, in order, and the last rung's refusal is raised
    readings = []
    cluster = local_recovery._cluster_circle_roots

    def counted_cluster(roots, chord_tol):
        readings.append(chord_tol)
        return cluster(roots, chord_tol)

    monkeypatch.setattr(local_recovery, "_cluster_circle_roots", counted_cluster)
    with pytest.raises(UnrealizableAutocorrelation, match=r"unit-circle root .* has odd multiplicity"):
        enumerate_candidates([1.0, 0.6], 2)
    assert readings == [local_recovery._chord(t) for t in (PAIRING_TOL, 1e-4, 1e-3, 1e-2)]


def _exact_defects(cands, phi_mags, psi_mags, pair):
    """Each candidate's relative defect against both windows, priced as
    ``_reference_prune`` prices it."""
    grid = pair.grid
    C = np.array(cands, dtype=np.complex128).reshape(-1, grid.L)
    omegas = np.arange(-grid.L, grid.L) / (4.0 * grid.B)
    scale = grid.delta * np.sqrt(2 * grid.L * float(np.max(np.sum(np.abs(C) ** 2, axis=1))))
    H1 = _reference_content_spectrum(C, grid, omegas)
    H2 = _reference_content_spectrum(C, grid, omegas + pair.b)
    return np.hypot(
        np.linalg.norm(np.abs(H2 - H1) - psi_mags, axis=1),
        np.linalg.norm(np.abs(H1) - phi_mags, axis=1),
    ) / scale


def _screen_cases():
    """Seeded contents at L = 4, 6, 8, 12 and 16, at full width and on
    short supports, and every special content of the factoring paths."""
    cases = []
    for L in (4, 6, 8, 12, 16):
        rng = np.random.default_rng(2000 + L)
        for cells in (range(L), range(1, L - 1), range(L // 2, L)):
            h = np.zeros(L, dtype=np.complex128)
            h[list(cells)] = rng.standard_normal(len(cells)) + 1j * rng.standard_normal(len(cells))
            cases.append((f"seeded-L{L}-{cells.start}:{cells.stop}", h))
    return cases + _special_contents()


@pytest.mark.parametrize("name, h", [pytest.param(name, h, id=name) for name, h in _screen_cases()])
def test_the_screen_returns_exactly_the_candidates_that_fit(name, h, screened):
    # every candidate of the whole enumeration is priced exactly, as the
    # replaced pruning priced it.  Where the screen serves the node, as it
    # serves every seeded one, it returns the candidates whose defect is
    # within ACCEPT_TOL, to roundoff, and no other; they fit cleanly
    # (within POLISH_ABOVE), as it graded them, and every candidate it
    # ruled out misses ACCEPT_TOL.  Where it defers, as for the contents
    # that only the lag-fit rescue realizes, the whole enumeration comes
    # back, bit for bit
    L = h.size
    phi, psi, pair = _node_mags(h, L)
    acorr = autocorrelation_from_magnitudes(phi, pair.grid.delta)
    full = _outcome(lambda: enumerate_candidates(acorr, L))
    got = _outcome(lambda: enumerate_candidates(acorr, L, psi, pair, phi_mags=phi))
    assert not (name.startswith("seeded") and got == full)
    if isinstance(full[0], str) or got == full:
        assert got == full
        return
    assert not name.startswith("rescued")
    cands = enumerate_candidates(acorr, L)
    kept = enumerate_candidates(acorr, L, psi, pair, phi_mags=phi)
    priced = _exact_defects(cands, phi, psi, pair)
    fit = cands[priced <= ACCEPT_TOL]
    assert 1 <= len(kept) == len(fit)
    for c in kept:
        assert any(_phase_match(c, w, ROUNDOFF) for w in fit)
    for w in fit:
        assert any(_phase_match(w, c, ROUNDOFF) for c in kept)
    assert (priced[priced <= ACCEPT_TOL] <= POLISH_ABOVE).all()
    assert (_exact_defects(kept, phi, psi, pair) <= POLISH_ABOVE).all()


@pytest.mark.parametrize("L, cells", [(4, range(4)), (7, range(7)), (8, range(2, 6))])
def test_a_node_with_few_branches_takes_the_whole_enumeration(L, cells):
    # below SCREEN_MIN_ROWS (branch, placement) rows, the node's data do not
    # change the enumeration: 8, 64 and 8 x 5 rows here
    rng = np.random.default_rng(L)
    h = np.zeros(L, dtype=np.complex128)
    h[list(cells)] = rng.standard_normal(len(cells)) + 1j * rng.standard_normal(len(cells))
    phi, psi, pair = _node_mags(h, L)
    acorr = autocorrelation_from_magnitudes(phi, pair.grid.delta)
    s = len(cells)
    assert 2 ** (s - 1) * (L - s + 1) < local_recovery.SCREEN_MIN_ROWS
    whole = enumerate_candidates(acorr, L)
    assert enumerate_candidates(acorr, L, psi, pair, phi_mags=phi).tobytes() == whole.tobytes()


def test_a_generic_node_builds_at_most_two_branches(monkeypatch):
    # a full-width L = 8 node has 2^7 = 128 branches, each scaled to the
    # node's energy once built; the screen prices them from the roots and
    # builds only those that fit, and the whole enumeration, whose branches
    # are validated on the lags, never runs
    built, validated = [], []
    unit_cores, lag_defect = local_recovery._unit_cores, local_recovery._lag_defect

    def counted_unit_cores(poly, a0):
        built.append(len(poly))
        return unit_cores(poly, a0)

    def counted_lag_defect(*args):
        validated.append(1)
        return lag_defect(*args)

    monkeypatch.setattr(local_recovery, "_unit_cores", counted_unit_cores)
    monkeypatch.setattr(local_recovery, "_lag_defect", counted_lag_defect)
    for seed in range(8):
        rng = np.random.default_rng(seed)
        h = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        phi_mags, psi_mags, pair = _node_mags(h, 8)
        cls = recover_local(phi_mags, psi_mags, pair)
        assert any(_phase_match(rep, h, 1e-8) for rep in cls.representatives)
    assert len(built) == 8 and max(built) <= 2
    assert not validated


@pytest.mark.parametrize("n", range(2, 13))
@pytest.mark.parametrize("kind", ["lags", "magnitudes"])
def test_each_fits_jacobian_matches_central_differences(kind, n):
    # both refinements run the one Gauss-Newton loop on an exact Jacobian
    rng = np.random.default_rng(n)
    h, other = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    if kind == "lags":
        fit = _lag_fit(direct_autocorrelation(other), n)
    else:
        _, _, M_psi, M_phi = local_recovery._pricing_tables(n, 1.0, 0.25)
        blocks = [(M, np.abs(other @ M)) for M in (M_psi, M_phi)]
        fit = _magnitude_fit(blocks, float(np.linalg.norm(other)))
    r, J = fit(h)
    assert J.shape == (r.size, 2 * n)
    step = 1e-6
    numeric = np.empty_like(J)
    for k in range(2 * n):
        dh = step * (np.eye(n)[k % n] * (1j if k >= n else 1))
        numeric[:, k] = (fit(h + dh)[0] - fit(h - dh)[0]) / (2 * step)
    assert np.linalg.norm(numeric - J) <= 1e-6 * np.linalg.norm(J)


def test_refit_holds_each_held_slot_at_exactly_zero():
    # the held slots leave the fit: whatever a row holds there comes back 0
    rng = np.random.default_rng(8)
    h = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    phi_mags, psi_mags, pair = _node_mags(h, 8)
    start = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    hold = np.isin(np.arange(8), [0, 1, 5])
    got = refit(start, phi_mags, psi_mags, pair, float(np.linalg.norm(phi_mags)), hold=hold)
    assert got.shape == start.shape
    assert (got[:, hold] == 0).all()
    assert (got[:, ~hold] != 0).all()


@pytest.mark.parametrize("held", [False, True], ids=["free", "held"])
@pytest.mark.parametrize("L", range(4, 13))
def test_refit_from_near_the_truth_returns_the_truth(L, held):
    # started 1e-7 off, the fit lands back on the truth to roundoff, with
    # the truth's two empty leading slots held at zero or fitted freely
    rng = np.random.default_rng(3000 + L)
    h = rng.standard_normal(L) + 1j * rng.standard_normal(L)
    hold = np.arange(L) < 2
    if held:
        h[hold] = 0
    phi_mags, psi_mags, pair = _node_mags(h, L)
    start = h + 1e-7 * (rng.standard_normal(L) + 1j * rng.standard_normal(L))
    got = refit(
        start[None, :], phi_mags, psi_mags, pair, float(np.linalg.norm(phi_mags)),
        hold=hold if held else None,
    )
    assert phase_residuals(got[0], h) <= 1e-14


# --- the block entry against the one-row entry ---------------------------------


def _lattice_blocks(grid, pair, a, seeds, support=None):
    """Each seeded signal's lattice rows on ``grid`` at step a, in blocks of
    ``NODE_BLOCK`` rows, with the signal's magnitude scale."""
    blocks = []
    for seed in seeds:
        gap = 2 * grid.B - a
        n = support or grid.horizon - grid.cells_spanned(gap) + 1
        f = random_nonseparable(grid, n, gap, seed=seed)
        ms = measure(f, pair, TimeNodes.lattice_covering(grid, a))
        for lo in range(0, ms.mags.shape[1], NODE_BLOCK):
            blocks.append((ms.mags[0, lo : lo + NODE_BLOCK], ms.mags[1, lo : lo + NODE_BLOCK],
                           float(ms.mags.max())))
    return blocks


def _block_cases():
    """(name, pair, blocks): stacks of nodes that share a window pair, each
    block (phi rows, psi rows, scale or None)."""
    cases = []
    # criterion 1's lattices at a = B and B / 2: the rows the sparse pass
    # recovers stacked with the edge rows, whose support is shorter than L,
    # and with every row
    grid = GridSpec(B=1.0, L=8, origin=32, horizon=64)
    pair = build_window("rectangular", grid, b=0.25)
    for a, sparse in ((1.0, [*range(1, 16, 2)]), (0.5, [*range(3, 32, 4)])):
        blocks = _lattice_blocks(grid, pair, a, range(3))
        for seed in range(3):
            f = random_nonseparable(grid, grid.horizon - grid.cells_spanned(2 - a) + 1, 2 - a, seed=seed)
            ms = measure(f, pair, TimeNodes.lattice_covering(grid, a))
            n = ms.mags.shape[1]
            rows = sorted({0, 1, *sparse, n - 2, n - 1})
            blocks.append((ms.mags[0, rows], ms.mags[1, rows], float(ms.mags.max())))
        cases.append((f"criterion1-a{a}", pair, blocks))
    # a horizon-1024 lattice, as roundtrip-long recovers it
    grid = GridSpec(B=1.0, L=8, origin=512, horizon=1024)
    pair = build_window("rectangular", grid, b=0.25)
    cases.append(("horizon-1024", pair, _lattice_blocks(grid, pair, 1.0, [3], support=1021)))
    # criterion 10's L = 4 nodes, each member's rows at a = 1 and 0.5
    grid = GridSpec(B=1.0, L=4, origin=2, horizon=4)
    pair = build_window("rectangular", grid)
    family, _ = alphabet_family(grid, [0, 1, 2, 3])
    for a in (1.0, 0.5):
        rows = np.concatenate(measure_batch(family[::5], grid, pair, TimeNodes.lattice_covering(grid, a)),
                              axis=1).reshape(2, -1, 2 * grid.L)
        cases.append((f"criterion10-a{a}", pair, [
            (rows[0, lo : lo + NODE_BLOCK], rows[1, lo : lo + NODE_BLOCK], None)
            for lo in range(0, rows.shape[1], NODE_BLOCK)
        ]))
    # generic full-width nodes stacked with a zero row, forced circle roots,
    # fused pairs and the lag-fit rescue on one window of 8 cells, and with
    # two refusing rows: a second window scaled by 1.01, which no candidate
    # fits, and random first-window data, whose lags are not realizable
    rng = np.random.default_rng(39)
    special = [h for name, h in _special_contents() if h.size == 8]
    generic = [rng.standard_normal(8) + 1j * rng.standard_normal(8) for _ in range(len(special))]
    nodes = [h for pair_ in zip(generic, special) for h in pair_] + [np.zeros(8)]
    mags = [_node_mags(h, 8) for h in nodes]
    pair = mags[0][2]
    phi, psi = np.array([m[0] for m in mags]), np.array([m[1] for m in mags])
    scale = float(phi.max())
    blocks = [(phi[lo : lo + NODE_BLOCK], psi[lo : lo + NODE_BLOCK], scale)
              for lo in range(0, len(phi), NODE_BLOCK)]
    inconsistent = (phi[0], psi[0] * 1.01)
    unrealizable = (rng.uniform(0.5, 2.0, 16), psi[0])
    for order in ((inconsistent, unrealizable), (unrealizable, inconsistent)):
        rows = [(p, q) for p, q in zip(phi[:6], psi[:6])]
        rows[2:2], rows[5:5] = [order[0]], [order[1]]
        blocks.append((np.array([p for p, _ in rows]), np.array([q for _, q in rows]), scale))
    cases.append(("special-L8", pair, blocks))
    return cases


def _assert_same_class(got, want):
    """The same class count, flags and mate presence, and the same
    representatives, mate and residual to the last bit."""
    assert (len(got.representatives), got.includes_reflection, got.is_zero, got.mate is None) == (
        len(want.representatives), want.includes_reflection, want.is_zero, want.mate is None)
    for g, w in zip(got.representatives, want.representatives):
        assert g.tobytes() == w.tobytes()
    if want.mate is not None:
        assert got.mate.tobytes() == want.mate.tobytes()
    assert repr(got.residual) == repr(want.residual)


@pytest.mark.parametrize("name, pair, blocks", [pytest.param(*c, id=c[0]) for c in _block_cases()])
def test_block_recovery_matches_recover_local(name, pair, blocks):
    # each row of a block call is what recover_local gives that row alone,
    # bit for bit; a block holding a row that recover_local refuses raises
    # the first such row's error, class and message, and without its
    # refusing rows the block gives every other row's class
    refused = 0
    for phi, psi, scale in blocks:
        want = [_recovered(lambda: recover_local(p, q, pair, scale=scale)) for p, q in zip(phi, psi)]
        bad = [i for i, w in enumerate(want) if isinstance(w, tuple)]
        if bad:
            refused += 1
            with pytest.raises(RecoveryError) as exc:
                recover_rows(phi, psi, pair, scale=scale)
            assert (type(exc.value).__name__, str(exc.value)) == want[bad[0]]
            keep = [i for i in range(len(want)) if i not in bad]
            phi, psi, want = phi[keep], psi[keep], [want[i] for i in keep]
        got = recover_rows(phi, psi, pair, scale=scale)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same_class(g, w)
    if name == "special-L8":
        assert refused
