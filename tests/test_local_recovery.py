import itertools

import numpy as np
import pytest

from twowin import (
    GridSpec,
    Signal,
    TimeNodes,
    UnrealizableAutocorrelation,
    autocorrelation_from_magnitudes,
    build_window,
    direct_autocorrelation,
    enumerate_candidates,
    measure,
    recover_local,
    slot_reflect,
)
from twowin.local_recovery import L_MAX, _phase_match, _poly_batch


def _node_mags(content, L):
    """Measure a content vector as the node-0 window of a tight grid."""
    grid = GridSpec(B=1.0, L=L, origin=L // 2, horizon=L)
    pair = build_window("rectangular", grid)
    f = Signal(grid, np.asarray(content, dtype=np.complex128))
    ms = measure(f, pair, TimeNodes.lattice(grid.B, [0]))
    return ms.mags[0, 0], ms.mags[1, 0], pair


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


def test_enumerate_candidates_contains_truth():
    rng = np.random.default_rng(42)
    h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    acorr = direct_autocorrelation(h)
    cands = enumerate_candidates(acorr, 4)
    assert any(_phase_match(c, h, 1e-8) for c in cands)
    for c in cands:
        np.testing.assert_allclose(direct_autocorrelation(c), acorr, atol=1e-7)
    # generic contents: at most 2^(s-1) pairings, one placement at full width
    assert len(cands) <= 8


def test_enumerate_candidates_places_short_support():
    h = np.array([0.0, 1.5, 0.7j, 0.0])
    cands = enumerate_candidates(direct_autocorrelation(h[1:3]), 4)
    # a length-2 core slides across three placements, two flips each
    assert any(_phase_match(c, h, 1e-8) for c in cands)
    assert all(c.size == 4 for c in cands)


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
def test_enumerate_candidates_matches_per_branch_reference(L, cells):
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


@pytest.mark.parametrize(
    "content",
    [
        (1.0, 1.0, -1.0, -1.0),
        (1.0, 1j, 1.0, 1j),
        (0.0, 1.0, 1.0, 1j),
        (1j, 1j, 1j, 1j),
    ],
)
def test_recover_local_degenerate_contents(content):
    # repeated-root autocorrelations: the factorization must still land on
    # the true content to full accuracy, not just within the root solver's
    # multiplicity-limited precision
    phi_mags, psi_mags, pair = _node_mags(content, 4)
    cls = recover_local(phi_mags, psi_mags, pair)
    h = np.asarray(content, dtype=np.complex128)
    assert _phase_match(cls.representative, h, 1e-8) or any(
        _phase_match(rep, h, 1e-8) for rep in cls.representatives
    )


def test_recover_local_flags_reflection_symmetry():
    # an even-length content with a live first slot has no admissible mate
    phi_mags, psi_mags, pair = _node_mags([1.0, 0.5j, -0.25, 0.125], 4)
    cls = recover_local(phi_mags, psi_mags, pair)
    assert not cls.includes_reflection
    # odd length always admits the reflected branch
    phi_mags, psi_mags, pair = _node_mags([1.0, 0.5j, -0.25], 3)
    cls = recover_local(phi_mags, psi_mags, pair)
    assert cls.includes_reflection
