import numpy as np
import pytest

from twowin import (
    FrequencyGrid,
    GridSpec,
    OffGridError,
    PeriodicSpec,
    RecoveryError,
    SeparableInputError,
    Signal,
    StitchError,
    TimeNodes,
    build_window,
    default_anchor,
    forge,
    global_phase_align,
    make_periodic,
    measure,
    periodic_verdict,
    random_nonseparable,
    reconstruct,
)


GRID = GridSpec(B=1.0, L=8, origin=12, horizon=24)
PAIR = build_window("rectangular", GRID)


def _roundtrip(f, pair, a, anchor=None):
    nodes = TimeNodes.lattice_covering(f.grid, a, anchor=anchor)
    rep = reconstruct(measure(f, pair, nodes), pair)
    res = min(
        global_phase_align(rep.signal, f).residual,
        global_phase_align(f, rep.signal).residual,
    )
    return rep, res


@pytest.mark.parametrize("a, b, seed", [(1.0, 0.5, 1495495394), (0.5, 0.25, 349134471)])
def test_roundtrip_with_a_near_circle_mirror_pair(a, b, seed):
    # on criterion 1's grid, each signal has one node whose autocorrelation
    # holds a mirror root pair within 1e-6 of the unit circle; np.roots
    # resolves it only to about sqrt(eps), so no raw candidate meets the
    # acceptance tolerance and the best one must be polished, not refused
    grid = GridSpec(B=1.0, L=8, origin=32, horizon=64)
    gap = 2 * grid.B - a
    n_gap = int(np.ceil(gap / grid.delta - 1e-9))
    f = random_nonseparable(grid, grid.horizon - n_gap + 1, gap, seed=seed)
    rep, res = _roundtrip(f, build_window("rectangular", grid, b=b), a)
    assert res <= 1e-8


@pytest.mark.parametrize("a", [1.0, 0.5])
def test_reconstruct_roundtrip(a):
    for seed in range(4):
        f = random_nonseparable(GRID, support_len=22, gap_bound=2.0 - a, seed=seed)
        rep, res = _roundtrip(f, PAIR, a)
        assert res <= 1e-8
        assert rep.ambiguity == "phase_only"
        assert rep.residual <= 1e-8
        assert all(abs(abs(l) - 1.0) < 1e-9 for l in rep.lambdas)


def test_report_lists_the_cells_no_lattice_window_holds():
    # the rational_lattice forge's f on its bare lattice: no node window
    # holds cells 0, 1 and 95, so the data cannot speak for them
    fp = forge("rational_lattice")
    rep = reconstruct(measure(fp.f, fp.pair, fp.nodes), fp.pair)
    assert rep.uncovered == (0, 1, 95)
    assert not np.any(rep.signal.samples[list(rep.uncovered)])
    assert np.all(np.abs(fp.f.samples[list(rep.uncovered)]) >= 1.0)
    # criterion 1's lattices cover their whole horizon
    grid = GridSpec(B=1.0, L=8, origin=32, horizon=64)
    f = random_nonseparable(grid, support_len=61, gap_bound=1.0, seed=0)
    for a in (1.0, 0.5):
        rep, res = _roundtrip(f, build_window("rectangular", grid), a)
        assert res <= 1e-8 and rep.uncovered == ()


def test_reconstruct_with_raised_cosine_window():
    pair = build_window("raised_cosine", GRID, c0=1.0, c1=0.4)
    f = random_nonseparable(GRID, support_len=22, gap_bound=1.0, seed=9)
    nodes = TimeNodes.lattice_covering(GRID, 1.0)
    rep = reconstruct(measure(f, pair, nodes), pair)
    assert global_phase_align(rep.signal, f).residual <= 1e-8


def test_reconstruct_with_anchor_node():
    f = random_nonseparable(GRID, support_len=22, gap_bound=1.0, seed=2)
    rep, res = _roundtrip(f, PAIR, 1.0, anchor=default_anchor(1.0, GRID.horizon))
    assert res <= 1e-8
    assert rep.ambiguity == "phase_only"


def test_conjugate_palindromic_input_collapses_to_phase_only():
    # the reflected branch coincides with the signal up to phase, so the
    # reported ambiguity must collapse rather than advertise two worlds
    grid = GridSpec(B=1.0, L=5, origin=2, horizon=5)
    pair = build_window("rectangular", grid)
    f0, f1 = 0.8 + 0.3j, -0.2 + 0.9j
    f = Signal(grid, [f0, f1, 1.1, np.conj(f1), np.conj(f0)])
    nodes = TimeNodes.lattice_covering(grid, 0.8)
    rep = reconstruct(measure(f, pair, nodes), pair)
    assert rep.ambiguity == "phase_only"
    assert global_phase_align(rep.signal, f).residual <= 1e-8


def test_separable_input_raises_declared_error():
    vals = np.zeros(24, dtype=np.complex128)
    vals[0:4] = [1.0, 1j, -0.5, 0.25]
    vals[20:24] = [0.5j, 1.0, 1.0, -1j]
    f = Signal(GRID, vals)  # gap of 16 cells = length 4 >= 2B - a
    nodes = TimeNodes.lattice_covering(GRID, 1.0)
    ms = measure(f, PAIR, nodes)
    with pytest.raises(SeparableInputError, match="propagation broken at node"):
        reconstruct(ms, PAIR)


def test_reconstruct_rejects_wide_step():
    f = random_nonseparable(GRID, support_len=22, gap_bound=1.0, seed=1)
    nodes = TimeNodes.lattice(1.5, range(-8, 9))
    ms = measure(f, PAIR, nodes)
    with pytest.raises(ValueError, match="a > B"):
        reconstruct(ms, PAIR)


def test_reconstruct_rejects_off_grid_step():
    f = random_nonseparable(GRID, support_len=22, gap_bound=1.0, seed=1)
    nodes = TimeNodes.lattice(0.3, range(-20, 21))
    ms = measure(f, PAIR, nodes)
    with pytest.raises(OffGridError):
        reconstruct(ms, PAIR)


def test_reconstruct_requires_full_alias_period():
    f = random_nonseparable(GRID, support_len=22, gap_bound=1.0, seed=1)
    nodes = TimeNodes.lattice_covering(GRID, 1.0)
    ms = measure(f, PAIR, nodes, FrequencyGrid.critical(GRID.L - 1, GRID.B))
    with pytest.raises(ValueError, match="alias period"):
        reconstruct(ms, PAIR)
    two = measure(f, PAIR, TimeNodes.two_lines(0.0, 1.0))
    with pytest.raises(ValueError, match="lattice"):
        reconstruct(two, PAIR)


def test_corrupted_magnitudes_never_return_silently():
    f = random_nonseparable(GRID, support_len=22, gap_bound=1.0, seed=4)
    nodes = TimeNodes.lattice_covering(GRID, 1.0)
    ms = measure(f, PAIR, nodes)
    bad = ms.mags.copy()
    bad[0, 3, :] *= 1.1
    ms_bad = type(ms)(pair=ms.pair, nodes=ms.nodes, freqs=ms.freqs, mags=bad)
    with pytest.raises((RecoveryError, StitchError)):
        reconstruct(ms_bad, PAIR)


# --- two-line periodic verdicts ---------------------------------------------


def test_periodic_verdict_reports_conjugate_pair():
    fp = forge("rational_periodic")
    ms = measure(fp.f, fp.pair, fp.nodes)
    rep = periodic_verdict(ms, fp.pair, PeriodicSpec(T=fp.params["T"], mu=1.0), Q=2)
    assert rep.ambiguity == "phase_or_reflection"
    assert rep.alternative is not None
    assert rep.residual <= 1e-10


def test_periodic_verdict_phase_only_off_the_special_offsets():
    fp = forge("rational_periodic")
    grid = fp.f.grid
    t1 = 3 * grid.delta  # grid-aligned but not a multiple of T/(2q)
    ms = measure(fp.f, fp.pair, TimeNodes.two_lines(0.0, t1))
    rep = periodic_verdict(ms, fp.pair, PeriodicSpec(T=fp.params["T"], mu=1.0), Q=2)
    assert rep.ambiguity == "phase_only"
    assert rep.residual <= 1e-10


def test_periodic_verdict_exponential_family():
    fp = forge("rational_periodic")
    grid = fp.f.grid
    T = fp.params["T"]
    f1 = make_periodic(PeriodicSpec(T=T, mu=1.0, coefficients={1: 1.0 + 0.5j}), grid)
    ms = measure(f1, fp.pair, fp.nodes)
    rep = periodic_verdict(ms, fp.pair, PeriodicSpec(T=T, mu=1.0), Q=2)
    assert rep.ambiguity == "exponential_family"


def test_periodic_verdict_validation():
    fp = forge("rational_periodic")
    grid = fp.f.grid
    ms = measure(fp.f, fp.pair, fp.nodes)
    with pytest.raises(ValueError, match="two"):
        periodic_verdict(
            measure(fp.f, fp.pair, TimeNodes.lattice(grid.B, [0])),
            fp.pair,
            PeriodicSpec(T=fp.params["T"], mu=1.0),
            Q=2,
        )
    with pytest.raises(ValueError):
        periodic_verdict(ms, fp.pair, PeriodicSpec(T=fp.params["T"], mu=1.0), Q=7)
