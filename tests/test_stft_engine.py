import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twowin import (
    FrequencyGrid,
    GridSpec,
    OffGridError,
    Signal,
    TimeNodes,
    WindowValidationError,
    build_window,
    check_difference_identity,
    default_anchor,
    measure,
    measure_batch,
    windowed_segment,
)
from twowin import stft_engine
from twowin.stft_engine import (
    DIFFERENCE_IDENTITY_TOL, NODE_BLOCK, TABLE_MEMO_BYTES, first_cell, node_exponentials,
    node_magnitudes, node_segment, node_transforms,
)


GRID = GridSpec(B=1.0, L=4, origin=8, horizon=16)
PAIR = build_window("rectangular", GRID)


def test_critical_frequency_grid():
    fg = FrequencyGrid.critical(4, B=1.0)
    np.testing.assert_array_equal(fg.ns, np.arange(-4, 4))
    np.testing.assert_allclose(fg.omegas, np.arange(-4, 4) / 4.0)
    assert len(fg) == 8
    assert fg.meets_density
    with pytest.raises(ValueError):
        FrequencyGrid.critical(0, B=1.0)


def test_custom_frequency_grid_density():
    dense = FrequencyGrid.custom([k / 4.0 for k in range(1, 9)], B=1.0)
    assert dense.meets_density
    sparse = FrequencyGrid.custom([1.0, 2.0], B=1.0)
    assert not sparse.meets_density
    with pytest.raises(ValueError):
        FrequencyGrid.custom([], B=1.0)
    with pytest.raises(ValueError):
        dense.ns  # integer bins only exist on the critical grid


def test_time_node_modes():
    nodes = TimeNodes.lattice(0.5, range(-2, 3))
    assert nodes.times == (-1.0, -0.5, 0.0, 0.5, 1.0)
    assert nodes.a == 0.5
    with pytest.raises(ValueError):
        TimeNodes.lattice(0.0, range(3))
    with pytest.raises(ValueError):
        TimeNodes.two_lines(1.0, 1.0)
    with pytest.raises(ValueError):
        TimeNodes(mode="grid", times=(0.0,))
    with pytest.raises(ValueError):
        TimeNodes.lattice_plus_anchor(1.0, range(3), t0=2.0)  # anchor on a node


def test_lattice_rows_are_every_node_but_the_anchor():
    bare = TimeNodes.lattice(0.5, range(-2, 3))
    assert bare.lattice_rows == [0, 1, 2, 3, 4]
    assert bare.lattice_times == bare.times
    anchored = TimeNodes.lattice_plus_anchor(0.5, range(-2, 3), 0.3)
    assert anchored.lattice_rows == [0, 1, 2, 3, 4]
    assert anchored.lattice_times == bare.times
    assert anchored.anchor == 0.3
    # the mode fixes the anchor's row: the last one, and only with an anchor
    assert anchored.anchor_index == 5
    assert bare.anchor_index is None and bare.anchor is None
    assert TimeNodes.two_lines(0.0, 0.5).anchor_index is None


@pytest.mark.parametrize("a", [1.0, 0.5, 0.25, 1.5])
def test_inside_range_holds_the_nodes_whose_windows_fit_the_horizon(a):
    m_range = TimeNodes.inside_range(GRID, a)
    assert len(m_range) > 0
    lo = GRID.coords()[0]
    hi = GRID.coords()[-1] + GRID.delta
    for m in range(m_range.start - 3, m_range.stop + 3):
        fits = lo <= m * a - GRID.B and m * a + GRID.B <= hi
        assert (m in m_range) == fits, m
    # a horizon one window wide holds the one node at x_0 + B, if the lattice has it
    narrow = GridSpec(B=1.0, L=4, origin=1, horizon=4)
    assert TimeNodes.inside_range(narrow, 0.5) == range(1, 2)
    assert len(TimeNodes.inside_range(narrow, 1.0)) == 0


def test_lattice_covering_spans_horizon():
    for a in (1.0, 0.5):
        nodes = TimeNodes.lattice_covering(GRID, a)
        times = np.array(nodes.times)
        assert np.allclose(np.diff(times), a)
        x = GRID.coords()
        # every cell falls inside at least one half-open window
        covered = ((x[None, :] >= times[:, None] - GRID.B)
                   & (x[None, :] < times[:, None] + GRID.B)).any(axis=0)
        assert covered.all()


def test_default_anchor_is_off_lattice():
    t0 = default_anchor(0.5, 16)
    assert t0 == 0.5 * (0.5 + 0.5 / 16)
    nodes = TimeNodes.lattice_covering(GRID, 0.5, anchor=t0)
    assert nodes.mode == "lattice_plus_anchor"
    assert nodes.anchor == t0
    assert nodes.anchor_index == len(nodes.times) - 1
    assert len(nodes.lattice_times) == len(nodes.times) - 1


def test_measure_shapes_and_zero_signal(make_signal):
    nodes = TimeNodes.lattice_covering(GRID, 1.0)
    ms = measure(make_signal(GRID, 0), PAIR, nodes)
    assert ms.mags.shape == (2, len(nodes.times), 2 * GRID.L)
    assert ms.freqs.mode == "critical" and ms.freqs.N == GRID.L
    zero = Signal(GRID, np.zeros(16))
    assert np.all(measure(zero, PAIR, nodes).mags == 0.0)


def _defining_sum(f, window_at, t, omega):
    """V(t, omega) as the module docstring writes it: delta times the sum of
    f(x_k) conj(w(x_k - t)) exp(-2i pi x_k omega) over x_k - t in [-B, B)."""
    x = f.grid.coords()
    inside = (x - t >= -f.grid.B) & (x - t < f.grid.B)
    return f.grid.delta * np.sum(
        f.samples[inside]
        * np.conj(window_at(x[inside] - t))
        * np.exp(-2j * np.pi * x[inside] * omega)
    )


def _kernel_value(f, pair, t, omega):
    """V_phi(t, omega) of one signal at one node and bin, through the block
    kernel's own pieces."""
    seg = node_segment(f.grid, [t], f.samples[None], pair, ("phi",))
    E = node_exponentials(f.grid, seg.cells, np.array([omega]))
    conj_windows = np.stack(seg.conj_windows)[:, :, None]
    V = node_transforms(seg.samples.swapaxes(0, 1), conj_windows, E, f.grid.delta)
    return complex(V[0, 0, 0, 0])


def test_measure_matches_pointwise_transform(make_signal):
    f = make_signal(GRID, 11)
    nodes = TimeNodes.lattice_covering(GRID, 0.5)
    ms = measure(f, PAIR, nodes)
    for ti, t in enumerate(nodes.times):
        for bi, omega in enumerate(ms.freqs.omegas):
            want = abs(_defining_sum(f, PAIR.phi_at, t, omega))
            assert ms.mags[0, ti, bi] == pytest.approx(want, abs=1e-13)


def test_half_open_window_convention():
    ones = Signal(GRID, np.ones(16))
    seg = windowed_segment(ones, PAIR, 0.0)
    # cells at x = -1, -0.5, 0, 0.5: the +B edge is excluded, the -B edge kept
    np.testing.assert_allclose(seg, np.ones(4))
    val = _kernel_value(ones, PAIR, 0.0, 0.0)
    assert val == pytest.approx(GRID.delta * 4)


def test_off_grid_node_analytic_vs_user():
    f = Signal(GRID, np.arange(16) * (0.3 - 0.1j))
    t = 0.3
    omega = 0.25
    # analytic profiles evaluate anywhere; check against the defining sum
    want = _defining_sum(f, PAIR.phi_at, t, omega)
    assert _kernel_value(f, PAIR, t, omega) == pytest.approx(want)
    user = build_window("user", GRID, samples=np.ones(4))
    with pytest.raises(OffGridError):
        _kernel_value(f, user, t, omega)


def test_measure_batch_agrees_with_measure(make_signal):
    raised = build_window("raised_cosine", GRID)
    cases = [
        (PAIR, TimeNodes.lattice_covering(GRID, 1.0), None),
        (raised, TimeNodes.lattice_covering(GRID, 0.5, anchor=default_anchor(0.5, 16)), None),
        (PAIR, TimeNodes.two_lines(0.0, 0.7), None),
        (raised, TimeNodes.lattice_covering(GRID, 1.0),
         FrequencyGrid.custom([0.1, 0.3, -0.7, 1.9], B=1.0)),
    ]
    rows = np.stack([make_signal(GRID, s).samples for s in range(5)])
    for pair, nodes, freqs in cases:
        batch = measure_batch(rows, GRID, pair, nodes, freqs)
        for i in range(5):
            single = measure(Signal(GRID, rows[i]), pair, nodes, freqs)
            assert not single.mags.flags.writeable
            np.testing.assert_allclose(batch[i], single.mags, atol=1e-13)


def _block_cases():
    wide = GridSpec(B=1.0, L=4, origin=280, horizon=560)
    yield pytest.param(build_window("raised_cosine", wide),
                       TimeNodes.lattice_covering(wide, 1.0), id="raised-cosine")
    # a = 0.75 puts every other node between grid points, so each block
    # mixes slot values with values_at, and the anchor closes the last one
    grid = GridSpec(B=1.0, L=4, origin=24, horizon=48)
    yield pytest.param(
        build_window("raised_cosine", grid),
        TimeNodes.lattice_covering(grid, 0.75, anchor=default_anchor(0.75, grid.horizon)),
        id="raised-cosine-off-grid-and-anchor",
    )
    # the edge windows leave the horizon, so their samples are zero-filled
    user = build_window("user", grid, samples=[1.0, 1.0 - 0.5j, 2.0, 1.0 + 0.5j])
    yield pytest.param(user, TimeNodes.lattice_covering(grid, 1.0), id="user-edges")
    yield pytest.param(PAIR, TimeNodes.two_lines(0.0, 3 * GRID.delta), id="two-lines")


@pytest.mark.parametrize("pair, nodes", _block_cases())
def test_measure_batch_blocks_match_one_node_measurements(make_signal, pair, nodes):
    # segments and tables are built NODE_BLOCK nodes at a time; every node's
    # product stands alone, so each row has the bits of measuring its node
    # by itself
    grid = pair.grid
    assert len(nodes.times) > NODE_BLOCK or nodes.mode == "two_lines"
    rows = np.stack([make_signal(grid, s).samples for s in range(2)])
    batch = measure_batch(rows, grid, pair, nodes)
    for ti, t in enumerate(nodes.times):
        alone = measure_batch(rows, grid, pair, TimeNodes(mode="lattice", times=(t,)))
        assert batch[:, :, ti].tobytes() == alone[:, :, 0].tobytes(), (ti, t)


def _kernel_node_sets():
    # a = B / 2 on a 48-cell grid: node 0's window leaves the horizon and
    # node 10's lies wholly on it; 16 nodes fill one NODE_BLOCK, 17 cross it
    grid = GridSpec(B=1.0, L=4, origin=24, horizon=48)
    lattice = TimeNodes.lattice_covering(grid, 0.5).times
    for start, count in ((0, 1), (10, 1), (0, 2), (0, 16), (0, 17)):
        yield pytest.param(grid, lattice[start : start + count], id=f"nodes-{start}-{start + count}")
    two = GridSpec(B=1.0, L=9, origin=9, horizon=18)
    yield pytest.param(two, TimeNodes.two_lines(0.1, 3.3 * two.delta).times, id="off-grid-lines")


@pytest.mark.parametrize("n_rows", [1, 2048])
@pytest.mark.parametrize("profile", ["rectangular", "raised_cosine"])
@pytest.mark.parametrize("grid, times", _kernel_node_sets())
def test_the_block_kernel_keeps_each_nodes_own_product_bits(grid, times, profile, n_rows):
    # the nodes sit on matmul's batch axis, so each node's (rows, L) @ (L,
    # bins) product is the BLAS call it would be alone (gemv for one row,
    # gemm for more), bit for bit
    rng = np.random.default_rng([n_rows, len(times)])
    rows = rng.standard_normal((n_rows, grid.horizon)) + 1j * rng.standard_normal((n_rows, grid.horizon))
    pair = build_window(profile, grid, b=0.25)
    seg = node_segment(grid, np.array(times), rows, pair)
    E = node_exponentials(grid, seg.cells, FrequencyGrid.critical(grid.L, grid.B).omegas)
    out = np.empty((2, len(times), n_rows, 2 * grid.L))
    node_magnitudes(seg.samples.swapaxes(0, 1), np.stack(seg.conj_windows)[:, :, None], E,
                    grid.delta, out)
    for ti in range(len(times)):
        for wi in range(2):
            V = (seg.samples[:, ti] * seg.conj_windows[wi][ti]) @ E[ti]
            V *= grid.delta
            assert np.abs(V).tobytes() == out[wi, ti].tobytes(), (ti, wi)
    nodes = TimeNodes(mode="lattice", times=tuple(times))
    assert measure_batch(rows, grid, pair, nodes).tobytes() == out.transpose(2, 0, 1, 3).tobytes()


def test_a_block_node_segment_stacks_its_single_time_segments(make_signal):
    grid = GridSpec(B=1.0, L=4, origin=8, horizon=16)
    pair = build_window("raised_cosine", grid)
    rows = np.stack([make_signal(grid, s).samples for s in range(3)])
    # on the grid, between grid points, and leaving the horizon at both ends
    times = np.array([0.0, 0.3, -4.5, 3.75, 1.5, -3.0])
    block = node_segment(grid, times, rows, pair)
    singles = [node_segment(grid, t, rows, pair) for t in times.tolist()]
    assert not block.on.all()
    for field in ("cells", "on"):
        want = np.stack([getattr(seg, field) for seg in singles])
        assert getattr(block, field).tobytes() == want.tobytes(), field
    want = np.stack([seg.samples for seg in singles], axis=1)
    assert block.samples.tobytes() == want.tobytes()
    assert len(block.conj_windows) == 2
    for wi, which in enumerate(("phi", "psi")):
        want = np.stack([seg.conj_windows[wi] for seg in singles])
        assert block.conj_windows[wi].tobytes() == want.tobytes(), which
        # conjugated: the slot samples on the grid, values_at off it
        assert block.conj_windows[wi][0].tobytes() == np.conj(pair.slot_values(which)).tobytes()
        off = np.conj(pair.values_at(which, grid.x(block.cells[1]) - 0.3))
        assert block.conj_windows[wi][1].tobytes() == off.tobytes()
    # a sample-defined window is refused off the grid, block or not
    user = build_window("user", grid, samples=np.ones(4))
    message = r"sample-defined window's node time = 0\.3 is not a whole number of grid cells"
    for t in (0.3, times):
        with pytest.raises(OffGridError, match=message):
            node_segment(grid, t, rows, user)
    assert node_segment(grid, times[[0, 4, 5]], rows, user).conj_windows[0].shape == (3, 4)


@pytest.mark.parametrize(
    "pair, freqs, horizon, message",
    [
        (build_window("rectangular", GridSpec(B=1.0, L=4, origin=8, horizon=20)),
         None, 16, "different grids"),
        (PAIR, FrequencyGrid.critical(4, B=0.5), 16, "different half-width B"),
        (PAIR, None, 12, r"\(n, 16\) sample rows"),
    ],
    ids=["foreign-window-grid", "foreign-frequency-B", "short-horizon"],
)
def test_measure_batch_rejects_inputs_from_another_grid(pair, freqs, horizon, message):
    rows = np.ones((3, horizon), dtype=np.complex128)
    nodes = TimeNodes.lattice_covering(GRID, 1.0)
    with pytest.raises(ValueError, match=message):
        measure_batch(rows, GRID, pair, nodes, freqs)


def test_difference_identity_small_defect(make_signal):
    f = make_signal(GRID, 9)
    assert check_difference_identity(f.samples[None], PAIR, [-1.0, 0.0, 1.0]) <= 1e-12
    # one bare row of 16 samples at 4 nodes of 4 cells would broadcast into a
    # wrong defect instead of failing, so the check takes rows only
    times = [-1.0, -0.5, 0.0, 0.5]
    with pytest.raises(ValueError, match=r"\(n, 16\) sample rows"):
        check_difference_identity(f.samples, PAIR, times)


def test_difference_identity_check_reads_a_mismatched_pair(make_signal):
    # psi's slot samples were modulated with the built b; a pair whose b is
    # changed afterwards is refused, and one forced past that check breaks
    # the identity on the grid
    rows = np.stack([make_signal(GRID, seed).samples for seed in (3, 4, 5)])
    times = TimeNodes.lattice_covering(GRID, 0.5).times
    with pytest.raises(WindowValidationError, match="^second window modulation violated"):
        dataclasses.replace(PAIR, b=0.5 * PAIR.b)
    broken = copy.copy(PAIR)
    object.__setattr__(broken, "b", 0.5 * PAIR.b)
    assert check_difference_identity(rows, broken, times) > 1e3 * DIFFERENCE_IDENTITY_TOL
    # an analytic pair evaluates both windows off the grid: roundoff only
    raised = build_window("raised_cosine", GRID, b=0.3)
    off_grid = [-1.3, -0.2, 0.3, default_anchor(0.5, 16), 1.7]
    assert check_difference_identity(rows, PAIR, off_grid) <= 1e-12
    assert check_difference_identity(rows, raised, off_grid) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 9999), theta=st.floats(0.0, 2 * np.pi))
def test_magnitudes_ignore_global_phase(seed, theta):
    rng = np.random.default_rng(seed)
    f = Signal(GRID, rng.standard_normal(16) + 1j * rng.standard_normal(16))
    g = Signal(GRID, np.exp(1j * theta) * f.samples)
    nodes = TimeNodes.lattice(1.0, range(-1, 2))
    np.testing.assert_allclose(
        measure(f, PAIR, nodes).mags, measure(g, PAIR, nodes).mags, atol=1e-12
    )


# --- the shared exponential tables ------------------------------------------


def _block_keys(grid, times, freqs):
    """The memo keys of a node set's blocks, in measure_batch's order."""
    first = first_cell(grid, np.asarray(times, dtype=float))
    return [(grid, first[lo : lo + NODE_BLOCK].tobytes(), freqs)
            for lo in range(0, len(times), NODE_BLOCK)]


def _table_cases():
    grid = GridSpec(B=1.0, L=4, origin=24, horizon=48)
    pair = build_window("raised_cosine", grid, b=0.25)
    critical = FrequencyGrid.critical(grid.L, grid.B)
    yield pytest.param(pair, TimeNodes.lattice_covering(grid, 0.5), critical, id="lattice")
    yield pytest.param(
        pair, TimeNodes.lattice_covering(grid, 0.5, anchor=default_anchor(0.5, grid.horizon)),
        critical, id="lattice-plus-anchor",
    )
    two = GridSpec(B=1.0, L=9, origin=9, horizon=18)
    yield pytest.param(build_window("raised_cosine", two), TimeNodes.two_lines(0.1, 3.3 * two.delta),
                       FrequencyGrid.critical(two.L, two.B), id="off-grid-lines")
    yield pytest.param(pair, TimeNodes.lattice_covering(grid, 1.0),
                       FrequencyGrid.custom([-0.7, 0.0, 0.3, 1.9, 2.5], grid.B), id="custom-grid")


@pytest.mark.parametrize("pair, nodes, freqs", _table_cases())
def test_held_tables_are_read_only_fresh_builds_of_each_block(make_signal, cold_tables, pair,
                                                             nodes, freqs):
    # measure_batch holds one table per NODE_BLOCK of nodes, keyed by the
    # block's first cells; each is the table node_exponentials builds for
    # the block's cells, and no reader can write to it
    grid = pair.grid
    rows = np.stack([make_signal(grid, s).samples for s in range(2)])
    mags = measure_batch(rows, grid, pair, nodes, freqs)
    keys = _block_keys(grid, nodes.times, freqs)
    assert list(cold_tables) == keys
    for key in keys:
        E = cold_tables[key]
        first = np.frombuffer(key[1], dtype=np.int64)
        fresh = node_exponentials(grid, first[:, None] + np.arange(grid.L), freqs.omegas)
        assert E.tobytes() == fresh.tobytes() and E.shape == fresh.shape
        with pytest.raises(ValueError, match="read-only"):
            E[0, 0, 0] = 0.0
    assert stft_engine._tables_held == sum(E.nbytes for E in cold_tables.values())
    if nodes.anchor_index is not None:
        # the anchor shares the last block, so the lattice rows' own last
        # block, which the stitcher reads, is a key of its own
        lattice_keys = _block_keys(grid, nodes.lattice_times, freqs)
        assert lattice_keys[:-1] == keys[:-1] and lattice_keys[-1] not in cold_tables
    # read back from the memo, the magnitudes are the same bytes
    assert measure_batch(rows, grid, pair, nodes, freqs).tobytes() == mags.tobytes()
    assert list(cold_tables) == keys


def test_the_memo_holds_the_most_recent_blocks_within_its_bound(cold_tables, monkeypatch):
    # a horizon-16384 lattice at a = B: 4,097 nodes in 257 blocks, 8.4 MB of
    # tables, so the memo keeps only the blocks measured last
    grid = GridSpec(B=1.0, L=8, origin=8192, horizon=16384)
    pair = build_window("rectangular", grid, b=0.25)
    nodes = TimeNodes.lattice_covering(grid, 1.0)
    assert len(nodes.times) == 4097
    measure(Signal(grid, np.ones(grid.horizon, dtype=np.complex128)), pair, nodes)
    freqs = FrequencyGrid.critical(grid.L, grid.B)
    keys = _block_keys(grid, nodes.times, freqs)
    sizes = [16 * len(np.frombuffer(k[1], dtype=np.int64)) * grid.L * 2 * grid.L for k in keys]
    assert len(keys) == 257 and sum(sizes) > TABLE_MEMO_BYTES
    kept = 0
    while sum(sizes[len(keys) - kept - 1 :]) <= TABLE_MEMO_BYTES:
        kept += 1
    assert list(cold_tables) == keys[len(keys) - kept :]
    assert stft_engine._tables_held == sum(sizes[len(keys) - kept :]) <= TABLE_MEMO_BYTES
    # a block read again becomes the most recent, and a new block evicts
    # the least recent one
    ones = Signal(grid, np.ones(grid.horizon))
    order = list(cold_tables)
    measure(ones, pair, TimeNodes(mode="lattice", times=nodes.times[-NODE_BLOCK - 1 : -1]))
    measure(ones, pair, TimeNodes(mode="lattice", times=nodes.times[:NODE_BLOCK]))
    assert list(cold_tables) == [*order[1:-2], keys[-1], keys[-2], keys[0]]
    # a table larger than the bound is built and not held, and evicts nothing
    order = list(cold_tables)
    monkeypatch.setattr(stft_engine, "TABLE_MEMO_BYTES", sizes[0] - 1)
    measure(ones, pair, TimeNodes(mode="lattice", times=nodes.times[NODE_BLOCK : 2 * NODE_BLOCK]))
    assert list(cold_tables) == order


def test_the_difference_identity_check_reads_no_held_table(make_signal):
    # criterion 4's check builds its tables at omega_n and omega_n + b for
    # itself, and leaves the memo as it found it
    rows = np.stack([make_signal(GRID, seed).samples for seed in (3, 4)])
    times = TimeNodes.lattice_covering(GRID, 0.5).times
    measure_batch(rows, GRID, PAIR, TimeNodes.lattice(0.5, range(-20, 20)))
    before = list(stft_engine._tables.items())
    held = stft_engine._tables_held
    assert check_difference_identity(rows, PAIR, times) <= 1e-12
    after = list(stft_engine._tables.items())
    assert [k for k, _ in after] == [k for k, _ in before]
    assert all(E is F for (_, E), (_, F) in zip(after, before))
    assert stft_engine._tables_held == held
