import dataclasses
import inspect
import re
import sys
import tracemalloc
from collections import OrderedDict
from typing import List, Optional, Tuple

import numpy as np
import pytest

from twowin import local_recovery, stft_engine, stitcher
from twowin.signal_model import EQUIV_TOL
from twowin.stitcher import (
    COND_MAX,
    DEAD_OVERLAP_RTOL,
    ORIENT_TOL,
    AlignedAssembly,
    align_overlaps,
)
from twowin.stft_engine import (
    NODE_BLOCK, first_cell, node_exponentials, node_segment, sup_dev, windowed_segment,
)
from twowin import (
    FORGES,
    FrequencyGrid,
    GridSpec,
    InconsistentMeasurements,
    OffGridError,
    PeriodicSpec,
    RecoveryError,
    ReflectionRangeError,
    SeparableInputError,
    Signal,
    StitchError,
    TimeNodes,
    alphabet_family,
    build_window,
    conj_reflect,
    default_anchor,
    forge,
    global_phase_align,
    is_separable,
    make_periodic,
    measure,
    pair_equivalent,
    periodic_verdict,
    phase_fit,
    random_nonseparable,
    reconstruct,
    recover_local,
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


def test_reconstruct_of_the_zero_signal_is_the_zero_signal():
    # no node is live, and the same search returns the zero assembly with
    # the zero lattice magnitudes
    zero = Signal(GRID, np.zeros(GRID.horizon))
    nodes = TimeNodes.lattice_covering(GRID, 1.0)
    rep = reconstruct(measure(zero, PAIR, nodes), PAIR)
    assert rep.signal.is_zero()
    assert rep.ambiguity == "phase_only" and rep.alternative is None
    assert rep.residual == 0.0
    assert rep.lambdas == (1.0,) * len(nodes.times)


def test_an_anchor_with_no_lattice_node_is_refused_on_its_residual():
    # no lattice row, so no node is live and nothing is checked in the
    # search; the zero assembly fails the anchor's data
    f = random_nonseparable(GRID, support_len=22, gap_bound=1.0, seed=0)
    nodes = TimeNodes(mode="lattice_plus_anchor", times=(0.5,), a=1.0)
    with pytest.raises(InconsistentMeasurements, match="residual 1.000e\\+00 exceeds accept_tol"):
        reconstruct(measure(f, PAIR, nodes), PAIR)


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


def _bincount_uncovered(grid, times):
    """The cells under no node window, by counting the windows' on-horizon
    runs begun and ended before each cell."""
    first = first_cell(grid, np.asarray(times, dtype=float))
    lo, hi = (np.minimum(np.maximum(e, 0), grid.horizon) for e in (first, first + grid.L))
    runs = np.bincount(lo, minlength=grid.horizon + 1) - np.bincount(hi, minlength=grid.horizon + 1)
    return tuple((runs.cumsum()[:-1] == 0).nonzero()[0].tolist())


def _uncovered_case(case):
    if case == "rational_lattice":
        fp = forge("rational_lattice")
        return fp.f, fp.pair, fp.nodes
    if case == "one row":  # criterion 10's grid; the row at t = 1 holds cells 2 and 3
        grid = GridSpec(B=1.0, L=4, origin=2, horizon=4)
        f = Signal(grid, np.array([0, 0, 1, 1j]))
        return f, build_window("rectangular", grid), TimeNodes.lattice(1.0, [1])
    f, ms = _criterion1_input(float(case[-3:]), 0)
    return f, ms.pair, ms.nodes


@pytest.mark.parametrize(
    "case, uncovered",
    [("rational_lattice", (0, 1, 95)), ("criterion 1, a = 1.0", ()),
     ("criterion 1, a = 0.5", ()), ("one row", (0, 1))],
    ids=["rational_lattice", "criterion1-B", "criterion1-B/2", "one-row"],
)
def test_the_uncovered_cells_are_those_outside_the_one_covered_run(case, uncovered):
    # with a <= B consecutive windows overlap, so the cells they hold are
    # one run, and the cells outside it are the ones no window holds
    f, pair, nodes = _uncovered_case(case)
    rep = reconstruct(measure(f, pair, nodes), pair)
    assert rep.uncovered == _bincount_uncovered(pair.grid, nodes.lattice_times) == uncovered


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


#: The module attributes the block entry reaches its stages through, in call
#: order: each takes the block's rows whose data is not zero, stacked.
STAGES = ("autocorrelation_from_magnitudes", "_candidate_rows", "_pruned_candidates")


def _spied_blocks(monkeypatch):
    """Wrap ``stitcher.recover_rows`` and the block's three stages.  Returns
    two lists they fill: one entry per row ``reconstruct`` recovers, in
    order, with whether its class is zero, the stages that took it, its
    candidate count and its class count (None for a stage it skipped); and
    the recovered rows' (phi, psi), for ``_rows_of``."""
    seen, rows, taken = [], [], []
    recover = stitcher.recover_rows

    def counted_recover(phi, psi, *args, **kwargs):
        out = recover(phi, psi, *args, **kwargs)
        block = [{"zero": cls.is_zero, "stages": [], "candidates": None, "classes": None}
                 for cls in out]
        # each stage took the rows whose data is not zero, in order, and
        # gave one entry per row
        live = [node for node in block if not node["zero"]]
        for stage, got in taken:
            for node, x in zip(live, got, strict=True):
                node["stages"].append(stage)
                if stage == "_candidate_rows":
                    node["candidates"] = len(x)
                elif stage == "_pruned_candidates":
                    node["classes"] = len(x.representatives)
        taken.clear()
        seen.extend(block)
        rows.extend(zip(phi, psi))
        return out

    def counted_stage(name):
        stage = getattr(local_recovery, name)

        def counted(*args, **kwargs):
            out = stage(*args, **kwargs)
            taken.append((name, out))
            return out

        return counted

    monkeypatch.setattr(stitcher, "recover_rows", counted_recover)
    for name in STAGES:
        monkeypatch.setattr(local_recovery, name, counted_stage(name))
    return seen, rows


def test_reconstruct_reaches_local_recovery_once_per_lattice_row(monkeypatch):
    # reconstruct hands stitcher.recover_rows each recovered lattice row
    # once (the anchor row is not a lattice row): at a = B rows 1, 3 and 5
    # of 7, whose windows abut, each junction phased from the row between.
    # The block entry reaches the candidates and the pruning through
    # local_recovery's module attributes, once per block, each giving one
    # entry per row
    f = random_nonseparable(GRID, support_len=22, gap_bound=1.0, seed=2)
    nodes = TimeNodes.lattice_covering(GRID, 1.0, anchor=default_anchor(1.0, GRID.horizon))
    ms = measure(f, PAIR, nodes)
    plain = reconstruct(ms, PAIR)

    seen, rows = _spied_blocks(monkeypatch)
    wrapped = reconstruct(ms, PAIR)

    lattice = [t for i, t in enumerate(nodes.times) if i != nodes.anchor_index]
    assert len(lattice) == 7 < len(nodes.times)
    assert _rows_of(ms, rows) == [1, 3, 5]
    L = GRID.L
    for node, row in zip(seen, _rows_of(ms, rows)):
        assert not node["zero"]
        t = lattice[row]
        support = np.flatnonzero(np.abs(windowed_segment(f, PAIR, t)) > 1e-12)
        s = int(support[-1] - support[0] + 1)
        assert 1 <= node["candidates"] <= 2 ** (s - 1) * (L - s + 1)
        assert 1 <= node["classes"] <= 2
    assert wrapped.signal.samples.tobytes() == plain.signal.samples.tobytes()
    assert (wrapped.ambiguity, wrapped.residual, wrapped.lambdas) == (
        plain.ambiguity, plain.residual, plain.lambdas
    )


@pytest.mark.parametrize("a, b, seed", [(1.0, 0.25, 0), (0.5, 0.5, 3)])
def test_each_lattice_node_passes_every_recovery_seam_once(a, b, seed, monkeypatch):
    # the block entry reaches its three stages through local_recovery's
    # module attributes; on a criterion-1 input, reconstruct must hand it
    # each recovered lattice row once, rows 1, 3, ..., 15 at a = B and rows
    # 3, 7, 11, ..., 31 at a = B / 2, whose windows tile the horizon, and
    # each stage must take each such row whose data is not zero once
    grid = GridSpec(B=1.0, L=8, origin=32, horizon=64)
    gap = 2 * grid.B - a
    n_gap = int(np.ceil(gap / grid.delta - 1e-9))
    f = random_nonseparable(grid, grid.horizon - n_gap + 1, gap, seed=seed)
    pair = build_window("rectangular", grid, b=b)
    nodes = TimeNodes.lattice_covering(grid, a)
    ms = measure(f, pair, nodes)

    seen, rows = _spied_blocks(monkeypatch)
    rep = reconstruct(ms, pair)

    assert global_phase_align(rep.signal, f).residual <= 1e-8
    n = len(nodes.times)
    recovered = A_EQUAL_B_ROWS if a == 1.0 else SPARSE_ROWS
    assert n == (17 if a == 1.0 else 35)
    assert _rows_of(ms, rows) == recovered
    # a row that placed no patch keeps lambda 1
    assert all(rep.lambdas[i] == 1.0 for i in set(range(n)) - set(recovered))
    assert any(not node["zero"] for node in seen)
    for node in seen:
        assert node["stages"] == ([] if node["zero"] else list(STAGES))


def _rows_of(ms, recorded):
    """The lattice rows of ``ms`` that the recorded (phi, psi) rows are, in
    order.  ``reconstruct`` hands the block entry copies of its rows, so a
    row is known by its bytes: each recorded row is the first lattice row
    with those bytes that no earlier one took (rows alike in value, such as
    zero rows, are told apart only by that order), and a row recovered
    twice finds none left."""
    keys = [ms.mags[0, i].tobytes() + ms.mags[1, i].tobytes() for i in range(ms.mags.shape[1])]
    taken: List[int] = []
    for phi, psi in recorded:
        key = np.asarray(phi).tobytes() + np.asarray(psi).tobytes()
        [row] = [i for i, k in enumerate(keys) if k == key and i not in taken][:1]
        taken.append(row)
    return taken


@pytest.fixture
def passes(monkeypatch):
    """The rows ``reconstruct`` recovers, in call order, and the outcome of
    each ``align_overlaps`` pass: "ok" or the refusal's class and message."""
    seen = {"rows": [], "passes": []}
    recover, align = stitcher.recover_rows, stitcher.align_overlaps

    def recorded_recover(phi, psi, *args, **kwargs):
        seen["rows"].extend(zip(phi, psi))
        return recover(phi, psi, *args, **kwargs)

    def recorded_align(*args, **kwargs):
        try:
            out = align(*args, **kwargs)
        except Exception as exc:
            seen["passes"].append((type(exc).__name__, str(exc)))
            raise
        seen["passes"].append("ok")
        return out

    monkeypatch.setattr(stitcher, "recover_rows", recorded_recover)
    monkeypatch.setattr(stitcher, "align_overlaps", recorded_align)
    return seen


def _criterion1_input(a, seed, b=0.25):
    """A criterion-1 signal at step a, with its lattice measurements."""
    grid = GridSpec(B=1.0, L=8, origin=32, horizon=64)
    f = random_nonseparable(grid, grid.horizon - grid.cells_spanned(2 * grid.B - a) + 1,
                            2 * grid.B - a, seed=seed)
    pair = build_window("rectangular", grid, b=b)
    return f, measure(f, pair, TimeNodes.lattice_covering(grid, a))


def _whole_lattice_pass(ms):
    """``reconstruct``'s outcome with every lattice row recovered: its
    report, or its refusal's class and message.  The anchor, if any, is
    stored last."""
    pair, nodes = ms.pair, ms.nodes
    lattice_mags = ms.mags[:, : len(nodes.lattice_rows)]
    scale = float(lattice_mags.max())
    try:
        classes = [recover_local(p, q, pair, scale=scale) for p, q in zip(*lattice_mags)]
        assembly = align_overlaps(classes, pair, nodes.a, times=nodes.lattice_times,
                                  lattice_mags=lattice_mags, freqs=ms.freqs)
        return stitcher.resolve_reflection(assembly, ms, pair, nodes)
    except Exception as exc:
        return type(exc).__name__, str(exc)


#: the rows the sparse pass recovers on a criterion-1 lattice at a = B / 2,
#: in order: row r holds cells 2r - 6 .. 2r + 1, so rows 0 .. 3 start at
#: cell 0 and rows 31 .. 34 end at cell 63, and the windows of rows 3, 7,
#: ..., 31 are 2B apart and tile the horizon
SPARSE_ROWS = [*range(3, 32, 4)]

#: The rows the sparse pass recovers on a criterion-1 lattice at a = B (17
#: nodes, m = 1): every other row, the windows of 1 and 15 reaching the
#: horizon's edges.
A_EQUAL_B_ROWS = [*range(1, 16, 2)]


def _recovery_order(n):
    """The rows a refused sparse pass and the whole lattice's pass after it
    recover on a criterion-1 lattice at a = B / 2, in order."""
    return SPARSE_ROWS + [i for i in range(n) if i not in SPARSE_ROWS]


def _skipped_row_scaled(mags):
    mags[:, 5] *= 1 + 1e-6


def _recovered_rows_zero(mags):
    mags[:, SPARSE_ROWS] = 0.0


@pytest.mark.parametrize("corrupt", [_skipped_row_scaled, _recovered_rows_zero])
def test_a_node_that_is_not_recovered_is_still_checked(corrupt, passes):
    # at a = B / 2 only rows 3, 7, 11, ..., 31 are recovered.  Row 5
    # straddles the junction of rows 3 and 7, so its data scaled by a
    # millionth refuses that pass at node 7, which is phased from it; with
    # every recovered row zero no node is live, and the other rows are
    # checked against the zero assembly.  Each input is then refused by the
    # whole-lattice pass, whose message is final and names row 5's own check
    f, ms = _criterion1_input(0.5, 0)
    bad = ms.mags.copy()
    corrupt(bad)
    ms_bad = dataclasses.replace(ms, mags=bad)
    cls, message = _whole_lattice_pass(ms_bad)
    assert cls == "InconsistentMeasurements"
    with pytest.raises(InconsistentMeasurements) as refused:
        reconstruct(ms_bad, ms.pair)
    assert str(refused.value) == message
    [(sparse_cls, sparse_message), (_, last)] = passes["passes"]
    assert sparse_cls == "InconsistentMeasurements" and last == message
    if corrupt is _skipped_row_scaled:
        assert re.fullmatch(r"overlap mismatch \S+ at node index 7", sparse_message)
        assert message.endswith("at node index 5)")
    n = len(ms.nodes.times)
    assert n == 35
    assert _rows_of(ms_bad, passes["rows"]) == _recovery_order(n)


def test_a_sparse_refusal_falls_back_to_the_whole_lattice(passes):
    # cells 28..31 are zero: a run of B.  The sub-lattice's windows of rows
    # 15 and 19 abut at cell 32, and row 17, which straddles them, sees no
    # energy on its left half, so propagation breaks there (row 19 is at
    # lattice index 2); the whole lattice's windows (B / 2 apart) share 6
    # cells, 2 of them live.  The sparse refusal is not final, and each row
    # is recovered once
    grid = GridSpec(B=1.0, L=8, origin=32, horizon=64)
    samples = random_nonseparable(grid, grid.horizon, 1.5, seed=0).samples.copy()
    samples[28:32] = 0.0
    f = Signal(grid, samples)
    assert is_separable(f, 2 * grid.B - grid.B) and not is_separable(f, 2 * grid.B - 0.5)
    pair = build_window("rectangular", grid, b=0.25)
    ms = measure(f, pair, TimeNodes.lattice_covering(grid, 0.5))
    rep = reconstruct(ms, pair)
    assert global_phase_align(rep.signal, f).residual <= 1e-8
    assert passes["passes"] == [
        ("SeparableInputError", "separable input: propagation broken at node 2"), "ok"]
    rows = _rows_of(ms, passes["rows"])
    assert rows == _recovery_order(len(ms.nodes.times))


def test_a_refused_reflection_step_falls_back_to_the_whole_lattice(passes, monkeypatch):
    # the sparse pass's assembly is refused by the reflection step, which
    # its first call here refuses outright: the whole lattice recovers the
    # other rows, searches again, and its report is final
    f, ms = _criterion1_input(0.5, 0)
    whole = _whole_lattice_pass(ms)
    resolve, judged = stitcher.resolve_reflection, []

    def refuses_first(*args, **kwargs):
        judged.append(args[0])
        if len(judged) == 1:
            raise InconsistentMeasurements("refused")
        return resolve(*args, **kwargs)

    monkeypatch.setattr(stitcher, "resolve_reflection", refuses_first)
    rep = reconstruct(ms, ms.pair)
    assert passes["passes"] == ["ok", "ok"] and len(judged) == 2
    assert _rows_of(ms, passes["rows"]) == _recovery_order(len(ms.nodes.times))
    assert rep.signal.samples.tobytes() == whole.signal.samples.tobytes()
    assert (rep.ambiguity, rep.residual, rep.lambdas, rep.anchor_used) == (
        whole.ambiguity, whole.residual, whole.lambdas, whole.anchor_used)


def test_an_anchor_row_that_refuses_the_sparse_assembly_is_judged_again(passes):
    # the search checks no anchor row, so both passes place every node; the
    # anchor's data scaled by a millionth refuses the sparse assembly on its
    # residual, and the whole lattice's refusal, with its own residual, is
    # the one raised
    grid = GridSpec(B=1.0, L=8, origin=32, horizon=64)
    f = random_nonseparable(grid, grid.horizon - grid.cells_spanned(1.5) + 1, 1.5, seed=0)
    pair = build_window("rectangular", grid, b=0.25)
    ms = measure(f, pair, TimeNodes.lattice_covering(grid, 0.5, anchor=default_anchor(0.5, grid.horizon)))
    bad = ms.mags.copy()
    bad[:, ms.nodes.anchor_index] *= 1 + 1e-6
    ms_bad = dataclasses.replace(ms, mags=bad)
    cls, message = _whole_lattice_pass(ms_bad)
    assert cls == "InconsistentMeasurements" and "exceeds accept_tol" in message
    with pytest.raises(InconsistentMeasurements) as refused:
        reconstruct(ms_bad, pair)
    assert str(refused.value) == message
    assert passes["passes"] == ["ok", "ok"]


@pytest.mark.parametrize(
    "zeros, sparse",
    [
        (slice(30, 36), ("InconsistentMeasurements", r"overlap mismatch \S+ at node index 19")),
        (slice(34, 40), ("SeparableInputError", r"separable input: propagation broken at node 6")),
    ],
)
def test_a_junction_whose_straddling_row_sees_one_side_refuses_the_sparse_pass(
    zeros, sparse, passes
):
    # the sub-lattice's windows of rows 15 and 19 abut at cell 32, and row
    # 17 (cells 28..35) straddles the junction; rows 19 and 23 abut at cell
    # 40, straddled by row 21 (cells 36..43).  With row 17's right half zero
    # (cells 30..35) the true patch has no energy in its window and its
    # reflected mate misfits; with row 21's left half zero (cells 34..39)
    # the filled cells carry no phase to row 23, at lattice index 6.  Either
    # refuses the sparse pass.  The whole lattice's windows share 6 cells,
    # all zero here, and its refusal (class and message) is final
    grid = GridSpec(B=1.0, L=8, origin=32, horizon=64)
    samples = random_nonseparable(grid, grid.horizon, 1.5, seed=0).samples.copy()
    samples[zeros] = 0.0
    pair = build_window("rectangular", grid, b=0.25)
    ms = measure(Signal(grid, samples), pair, TimeNodes.lattice_covering(grid, 0.5))
    whole = _whole_lattice_pass(ms)
    assert whole[0] == "SeparableInputError" and not re.fullmatch(sparse[1], whole[1])
    with pytest.raises(SeparableInputError) as refused:
        reconstruct(ms, pair)
    assert (type(refused.value).__name__, str(refused.value)) == whole
    [(cls, message), last] = passes["passes"]
    assert cls == sparse[0] and re.fullmatch(sparse[1], message) and last == whole
    assert _rows_of(ms, passes["rows"]) == _recovery_order(len(ms.nodes.times))


@pytest.mark.parametrize("b", [0.25, 0.5])
def test_zero_runs_across_the_junctions_come_back_right_or_are_refused(b):
    # runs of 6, 7 and 8 zero cells at every offset 8..39 of one signal.
    # The whole lattice's windows (row r holds cells 2r - 6 .. 2r + 1, at
    # lattice index r - 17) share cells 2i - 4 .. 2i + 1 between rows i and
    # i + 1.  A run that holds one of those overlaps breaks propagation at
    # the next row after it whose window the run does not hold whole (such a
    # row is a zero node, not a live one); any other run comes back within
    # 1e-8.  The sparse pass refuses some of them at its own junctions first
    grid = GridSpec(B=1.0, L=8, origin=32, horizon=64)
    base = random_nonseparable(grid, grid.horizon, 1.5, seed=0).samples
    pair = build_window("rectangular", grid, b=b)
    nodes = TimeNodes.lattice_covering(grid, 0.5)
    returned = 0
    for run in (6, 7, 8):
        for offset in range(8, 40):
            samples = base.copy()
            samples[offset : offset + run] = 0.0
            f = Signal(grid, samples)
            ms = measure(f, pair, nodes)
            i = (offset + 5) // 2  # the first row whose overlap the run can hold
            if 2 * i + 2 > offset + run:
                assert global_phase_align(reconstruct(ms, pair).signal, f).residual <= 1e-8
                returned += 1
                continue
            r = i + 1
            while offset <= 2 * r - 6 and 2 * r + 2 <= offset + run:
                r += 1
            with pytest.raises(SeparableInputError) as refused:
                reconstruct(ms, pair)
            assert str(refused.value) == f"separable input: propagation broken at node {r - 17}"
    assert returned == 16


def _row_rule_input(case):
    """An input and its lattice measurements for each lattice of the row
    rule's test."""
    if case in ("criterion 1", "criterion 1 a = B"):
        return _criterion1_input(1.0 if case.endswith("a = B") else 0.5, 0)
    if case.startswith("rational_lattice"):
        fp = forge("rational_lattice")
        f = getattr(fp, case[-1])
        return f, measure(f, fp.pair, fp.nodes)
    grid = GridSpec(B=1.0, L=4, origin=2, horizon=4)  # criterion 10's
    f = Signal(grid, alphabet_family(grid, [0, 1, 2, 3])[0][22].copy())
    if case == "one row":
        nodes = TimeNodes.lattice(0.5, [0])
    else:
        nodes = TimeNodes.lattice_covering(grid, 1.0 if case.endswith("a = B") else 0.5)
    return f, measure(f, build_window("rectangular", grid), nodes)


@pytest.mark.parametrize(
    "case, rows",
    [
        ("criterion 1", SPARSE_ROWS),
        ("criterion 1 a = B", A_EQUAL_B_ROWS),
        ("criterion 10", [3]),
        ("criterion 10 a = B", [1]),
        ("rational_lattice f", [*range(0, 41, 4), 42]),
        ("rational_lattice g", [*range(0, 41, 4), 42]),
        ("one row", [0]),
    ],
    ids=["criterion1", "criterion1-a=B", "criterion10", "criterion10-a=B", "rational_lattice-f",
         "rational_lattice-g", "one-row"],
)
def test_the_sparse_pass_recovers_the_fewest_windows_that_cover_the_lattice(case, rows, passes):
    # the first row recovered is the last whose on-horizon cells start where
    # row 0's do, then every 2m-th, and the last is the first whose cells end
    # where the last row's do: on criterion 10's lattice at a = B / 2 (row
    # r holds cells r - 3 .. r) row 3 alone holds all four cells, and at
    # a = B (row r holds cells 2r - 2 .. 2r + 1) row 1 does.  At a = B the
    # step is m = 1 and every other row is recovered.  The forge's lattice
    # reaches neither horizon edge, so it keeps rows 0, 4, ..., 40 and its
    # last
    f, ms = _row_rule_input(case)
    rep = reconstruct(ms, ms.pair)
    assert _rows_of(ms, passes["rows"]) == rows and passes["passes"] == ["ok"]
    assert rep.residual <= 1e-8
    assert rep.uncovered == ((0, 1, 95) if case.startswith("rational_lattice") else ())


def test_an_a_equal_b_lattice_recovers_every_row_in_order(passes):
    # at a = B the sparse pass recovers every other row, in order, and its
    # one search returns
    f, ms = _criterion1_input(1.0, 0)
    rep = reconstruct(ms, ms.pair)
    assert global_phase_align(rep.signal, f).residual <= 1e-8
    assert passes["passes"] == ["ok"]
    assert len(ms.nodes.times) == 17
    assert _rows_of(ms, passes["rows"]) == A_EQUAL_B_ROWS


# --- the anchor's reflection decision ------------------------------------------


def _anchored_rational_lattice():
    """The rational_lattice forge's nodes plus the default anchor.  f and g
    share the lattice data, so they are stitched to one assembly; only the
    anchor row tells them apart."""
    fp = forge("rational_lattice")
    a = fp.params["a"]
    m_range = [round(t / a) for t in fp.nodes.times]
    nodes = TimeNodes.lattice_plus_anchor(a, m_range, default_anchor(a, fp.f.grid.horizon))
    return fp, nodes


@pytest.fixture
def assemblies(monkeypatch):
    """The assemblies that ``reconstruct`` hands to the reflection decision."""
    seen = []
    align = stitcher.align_overlaps

    def recorded(*args, **kwargs):
        seen.append(align(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(stitcher, "align_overlaps", recorded)
    return seen


@pytest.mark.parametrize("which, picks_reflection", [("f", False), ("g", True)])
def test_anchor_picks_the_branch_that_matches_its_row(which, picks_reflection, assemblies):
    fp, nodes = _anchored_rational_lattice()
    truth = getattr(fp, which)
    rep = reconstruct(measure(truth, fp.pair, nodes), fp.pair)
    [assembly] = assemblies
    assert assembly.ambiguity == "phase_or_reflection"
    lat = nodes.lattice_times
    reflected = conj_reflect(assembly.signal, (lat[0] + lat[-1]) / 2.0)
    picked = reflected if picks_reflection else assembly.signal
    assert rep.signal.samples.tobytes() == picked.samples.tobytes()
    assert rep.ambiguity == "phase_only" and rep.anchor_used and rep.alternative is None
    covered = np.ones(truth.grid.horizon, dtype=bool)
    covered[list(rep.uncovered)] = False
    on_cover = [Signal(truth.grid, np.where(covered, s.samples, 0)) for s in (rep.signal, truth)]
    assert global_phase_align(*on_cover).residual <= 1e-12


@pytest.mark.parametrize("which", ["f", "g"])
def test_anchor_row_that_fits_neither_branch_is_refused(which):
    fp, nodes = _anchored_rational_lattice()
    ms = measure(getattr(fp, which), fp.pair, nodes)
    bad = ms.mags.copy()
    bad[:, nodes.anchor_index] *= 1.3
    ms_bad = type(ms)(pair=ms.pair, nodes=ms.nodes, freqs=ms.freqs, mags=bad)
    with pytest.raises(InconsistentMeasurements, match="neither branch matches the anchor data"):
        reconstruct(ms_bad, fp.pair)


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


@pytest.mark.parametrize(
    "samples, mapped", [([1j, 0, 1j, 0], "[0, 2] to [2, 4]"), ([1, 0, -1, 1], "[0, 3] to [1, 4]")]
)
def test_a_reflected_branch_that_leaves_the_horizon_is_dropped(samples, mapped, monkeypatch):
    # nodes -1 .. 2 reflect about 0.5, which maps horizon cell 0 to cell 4:
    # the reflected branch cannot be represented, so it is no alternative
    # and the direct branch comes back alone
    grid = GridSpec(B=1.0, L=4, origin=1, horizon=4)
    pair = build_window("rectangular", grid)
    f = Signal(grid, samples)
    with pytest.raises(ReflectionRangeError, match=re.escape(f"maps support {mapped}, outside")):
        conj_reflect(f, 0.5)
    refused = []
    reflect = stitcher.conj_reflect

    def spied(g, center):
        try:
            return reflect(g, center)
        except ReflectionRangeError:
            refused.append(center)
            raise

    monkeypatch.setattr(stitcher, "conj_reflect", spied)
    rep = reconstruct(measure(f, pair, TimeNodes.lattice_covering(grid, 1.0)), pair)
    assert refused == [0.5]
    assert rep.ambiguity == "phase_only" and rep.alternative is None
    assert rep.residual < 1e-15
    assert pair_equivalent(f.samples, rep.signal.samples, allow_reflection=False)


def test_a_palindrome_within_roundoff_of_its_reflection_comes_back_as_one_world(monkeypatch):
    # the input above at a = 0.8 recovers row 2 alone, whose window holds
    # every cell; a node at a branch point of its factorisation leaves its
    # error along f - lam conj_reflect(f), so both branches fit while lying
    # 1.3e-8 apart.  Their midpoint, its own reflection up to phase, fits
    # no worse, is measured once after the reflected branch, and is returned
    grid = GridSpec(B=1.0, L=5, origin=2, horizon=5)
    pair = build_window("rectangular", grid)
    f0, f1 = 0.8 + 0.3j, -0.2 + 0.9j
    f = Signal(grid, [f0, f1, 1.1, np.conj(f1), np.conj(f0)])
    nodes = TimeNodes.lattice_covering(grid, 0.8)
    ms = measure(f, pair, nodes)
    calls = []

    def counted(g, pair, nodes, freqs=None):
        calls.append(g)
        return measure(g, pair, nodes, freqs)

    monkeypatch.setattr(stitcher, "measure", counted)
    rep = reconstruct(ms, pair)
    assert rep.ambiguity == "phase_only" and rep.alternative is None
    reflected, mid = calls
    assert rep.signal is mid
    assert global_phase_align(rep.signal, conj_reflect(rep.signal, 0.0)).residual <= 1e-15
    assert 1e-8 < global_phase_align(reflected, conj_reflect(reflected, 0.0)).residual
    assert global_phase_align(rep.signal, f).residual <= 1e-14
    assert rep.residual == sup_dev(measure(rep.signal, pair, nodes).mags, ms.mags) / ms.mags.max()


@pytest.mark.parametrize("seed", range(12))
def test_a_palindrome_comes_back_as_one_world_whatever_its_candidates_last_bits(seed, monkeypatch):
    # the input above, its node's candidates moved by about 1e-15: each
    # polishes to a point about 1e-8 along the branch difference, and some
    # land within EQUIV_TOL of their reflection (seeds 2, 7 and 11 here,
    # which came back 4.5e-9 from the truth while such a pair skipped the
    # midpoint).  The midpoint is tried whenever the reflected branch lies
    # within ORIENT_TOL, so every seed comes back to roundoff
    grid = GridSpec(B=1.0, L=5, origin=2, horizon=5)
    pair = build_window("rectangular", grid)
    f0, f1 = 0.8 + 0.3j, -0.2 + 0.9j
    f = Signal(grid, [f0, f1, 1.1, np.conj(f1), np.conj(f0)])
    nodes = TimeNodes.lattice_covering(grid, 0.8)
    ms = measure(f, pair, nodes)
    rng = np.random.default_rng(seed)
    candidates = local_recovery._candidate_rows

    def moved(*args, **kwargs):
        return [c * (1 + 1e-15 * (rng.standard_normal(c.shape) + 1j * rng.standard_normal(c.shape)))
                for c in candidates(*args, **kwargs)]

    monkeypatch.setattr(local_recovery, "_candidate_rows", moved)
    rep = reconstruct(ms, pair)
    assert rep.ambiguity == "phase_only" and rep.alternative is None
    assert global_phase_align(rep.signal, f).residual <= 1e-14


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


@pytest.mark.parametrize("profile", ["rectangular", "raised_cosine"])
def test_reconstruct_refuses_off_grid_lattice_node_times(profile):
    # exact data on a lattice shifted a tenth off the grid was refused late,
    # as "no factorization candidate matches the second window's data"
    grid = GridSpec(B=1.0, L=8, origin=32, horizon=64)
    pair = build_window(profile, grid)
    f = random_nonseparable(grid, support_len=62, gap_bound=1.0, seed=1)
    on_grid = TimeNodes.lattice_covering(grid, 1.0)
    shifted = TimeNodes(mode="lattice", times=tuple(t + 0.1 for t in on_grid.times), a=1.0)
    with pytest.raises(OffGridError) as exc:
        reconstruct(measure(f, pair, shifted), pair)
    t = shifted.times[0]
    assert str(exc.value) == (
        f"lattice node time = {t!r} is not a whole number of grid cells "
        f"(nearest is {on_grid.times[0]!r})"
    )
    rep = reconstruct(measure(f, pair, on_grid), pair)
    assert rep.residual <= 1e-8


def test_reconstruct_refuses_lattice_times_that_are_not_one_step_apart():
    # criterion 2's a > B nodes declared with a = B: member 89 came back
    # phase_only as neither itself nor its reflection
    grid = GridSpec(B=1.0, L=4, origin=4, horizon=8)
    pair = build_window("rectangular", grid)
    family, _ = alphabet_family(grid, [3, 4, 5, 6])
    nodes = TimeNodes(mode="lattice", times=(-1.5, 0.0, 1.5), a=1.0)
    with pytest.raises(ValueError) as exc:
        reconstruct(measure(Signal(grid, family[89]), pair, nodes), pair)
    assert str(exc.value) == (
        "lattice node times must be one step a = 1.0 apart, but -1.5 and 0.0 are 1.5 apart"
    )
    # a lattice with a node left out is refused at its first wide gap
    f = random_nonseparable(GRID, support_len=22, gap_bound=1.0, seed=1)
    full = TimeNodes.lattice_covering(GRID, 0.5)
    holed = TimeNodes(mode="lattice", times=full.times[:3] + full.times[4:], a=0.5)
    with pytest.raises(ValueError) as exc:
        reconstruct(measure(f, PAIR, holed), PAIR)
    assert str(exc.value) == (
        f"lattice node times must be one step a = 0.5 apart, but {full.times[2]!r} "
        f"and {full.times[4]!r} are 1.0 apart"
    )
    assert reconstruct(measure(f, PAIR, full), PAIR).residual <= 1e-8


def test_reconstruct_requires_full_alias_period():
    f = random_nonseparable(GRID, support_len=22, gap_bound=1.0, seed=1)
    nodes = TimeNodes.lattice_covering(GRID, 1.0)
    ms = measure(f, PAIR, nodes, FrequencyGrid.critical(GRID.L - 1, GRID.B))
    with pytest.raises(ValueError, match="alias period"):
        reconstruct(ms, PAIR)
    two = measure(f, PAIR, TimeNodes.two_lines(0.0, 1.0))
    with pytest.raises(ValueError, match="lattice"):
        reconstruct(two, PAIR)


def test_an_ill_conditioned_window_is_refused_before_any_row_is_recovered(monkeypatch):
    # the user window passes the nonvanishing check (1e-7 > EPS_WIN), but
    # dividing a patch by it would amplify errors 1e7 times
    grid = GridSpec(B=1.0, L=4, origin=8, horizon=16)
    pair = build_window("user", grid, samples=[1, 1e-7, 1, 1e-7])
    f = random_nonseparable(grid, 15, 1.0, seed=0)
    ms = measure(f, pair, TimeNodes.lattice_covering(grid, 1.0))
    recovered = []
    recover = stitcher.recover_rows

    def spied(*args, **kwargs):
        recovered.append(len(args[0]))
        return recover(*args, **kwargs)

    monkeypatch.setattr(stitcher, "recover_rows", spied)
    with pytest.raises(
        ValueError, match=r"^window division amplification 1\.000e\+07 exceeds cond_max 1e\+06$"
    ):
        reconstruct(ms, pair)
    assert recovered == []


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


def _two_line_family(spec, offset_cells):
    fp = forge("rational_periodic")
    grid = fp.f.grid
    f = make_periodic(spec, grid)
    return f, fp.pair, measure(f, fp.pair, TimeNodes.two_lines(0.0, offset_cells * grid.delta))


def test_periodic_verdict_fits_the_class_that_carries_the_family():
    # line 0's node has two classes and only the second is the truth; a fit
    # to the first alone refuses this genuine mu = -1 data
    spec = PeriodicSpec(T=16 / 9, mu=-1, coefficients={1: 1 + 0.5j})
    f, pair, ms = _two_line_family(spec, 3)
    scale = float(np.max(ms.mags))
    assert len(recover_local(ms.mags[0, 0], ms.mags[1, 0], pair, scale=scale).representatives) == 2
    rep = periodic_verdict(ms, pair, PeriodicSpec(T=spec.T, mu=spec.mu), Q=2)
    assert rep.ambiguity == "phase_only"
    assert global_phase_align(rep.signal, f).residual <= 1e-10


@pytest.mark.parametrize("offset_cells", [1, 3])
@pytest.mark.parametrize("period_cells", range(3, 9))
@pytest.mark.parametrize("mu", [1.0, -1.0, 1j, np.exp(0.6j * np.pi)], ids=["1", "-1", "i", "e0.6pi"])
def test_periodic_verdict_accepts_genuine_family_data(mu, period_cells, offset_cells):
    grid = forge("rational_periodic").f.grid
    Q = min(2, (period_cells - 1) // 2)
    rng = np.random.default_rng(period_cells)
    for coefficients in (
        {1: 1 + 0.5j},
        {k: complex(*rng.standard_normal(2)) for k in range(-Q, Q + 1)},
    ):
        spec = PeriodicSpec(T=period_cells * grid.delta, mu=mu, coefficients=coefficients)
        f, pair, ms = _two_line_family(spec, offset_cells)
        rep = periodic_verdict(ms, pair, PeriodicSpec(T=spec.T, mu=mu), Q=Q)
        assert rep.residual <= 1e-10
        if rep.ambiguity == "exponential_family":
            continue
        branches = [s for s in (rep.signal, rep.alternative) if s is not None]
        assert min(global_phase_align(s, f).residual for s in branches) <= 1e-10


def _counted_recoveries(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return recover_local(*args, **kwargs)

    monkeypatch.setattr(stitcher, "recover_local", counted)
    return calls


def test_periodic_verdict_recovers_line_zero_only_and_reads_zero_data_from_the_scale(monkeypatch):
    calls = _counted_recoveries(monkeypatch)
    fp = forge("rational_periodic")
    spec = PeriodicSpec(T=fp.params["T"], mu=1.0)
    periodic_verdict(measure(fp.f, fp.pair, fp.nodes), fp.pair, spec, Q=2)
    assert len(calls) == 1
    calls.clear()
    zero = Signal(fp.f.grid, np.zeros(fp.f.grid.horizon, dtype=np.complex128))
    rep = periodic_verdict(measure(zero, fp.pair, fp.nodes), fp.pair, spec, Q=2)
    assert calls == []
    assert rep.signal.is_zero() and rep.ambiguity == "phase_only" and rep.residual == 0.0


def test_periodic_verdict_refuses_data_whose_first_line_alone_is_zero(monkeypatch):
    # a pulse that line 1's window sees and line 0's does not: the zero
    # class of line 0 fits the zero member, which misses line 1's data
    calls = _counted_recoveries(monkeypatch)
    fp = forge("rational_periodic")
    grid = fp.f.grid
    t1 = fp.nodes.times[1]
    samples = np.zeros(grid.horizon, dtype=np.complex128)
    samples[grid.cells(t1, "line t1") + grid.origin + grid.L // 2] = 1.0
    ms = measure(Signal(grid, samples), fp.pair, fp.nodes)
    assert ms.mags[:, 0].max() == 0.0 < ms.mags[:, 1].max()
    spec = PeriodicSpec(T=fp.params["T"], mu=1.0)
    with pytest.raises(InconsistentMeasurements, match="no family member explains both lines"):
        periodic_verdict(ms, fp.pair, spec, Q=2)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "fn",
    [
        local_recovery.prune_with_second_window,
        recover_local,
        align_overlaps,
        stitcher.resolve_reflection,
        reconstruct,
        periodic_verdict,
    ],
    ids=lambda fn: fn.__name__,
)
def test_recovery_entry_points_take_no_tolerance(fn):
    # the acceptance bound is local_recovery.ACCEPT_TOL, set in one place
    assert [name for name in inspect.signature(fn).parameters if "tol" in name] == []


def test_each_branch_is_measured_once(monkeypatch):
    # anchored reconstruct with a reflection ambiguity: the assembly brings
    # the direct branch's lattice rows, so it is measured at the anchor
    # alone, and the reflected branch once over the whole node set
    calls = []

    def counted(f, pair, nodes, freqs=None):
        calls.append(nodes)
        return measure(f, pair, nodes, freqs)

    fp, nodes = _anchored_rational_lattice()
    ms = measure(fp.g, fp.pair, nodes)
    monkeypatch.setattr(stitcher, "measure", counted)
    rep = reconstruct(ms, fp.pair)
    only_anchor = TimeNodes("lattice_plus_anchor", (nodes.anchor,), nodes.a)
    assert rep.anchor_used and calls == [only_anchor, nodes]

    # two-line verdicts: the same two per class of line 0 that is tried
    fpp = forge("rational_periodic")
    ms = measure(fpp.f, fpp.pair, fpp.nodes)
    calls.clear()
    periodic_verdict(ms, fpp.pair, PeriodicSpec(T=fpp.params["T"], mu=1.0), Q=2)
    assert calls == [fpp.nodes] * 2
    _, pair, ms = _two_line_family(PeriodicSpec(T=16 / 9, mu=-1, coefficients={1: 1 + 0.5j}), 3)
    calls.clear()
    periodic_verdict(ms, pair, PeriodicSpec(T=16 / 9, mu=-1), Q=2)
    assert calls == [ms.nodes] * 4


def test_only_the_reflected_branch_is_measured(monkeypatch):
    # without an anchor the assembly brings every row of the direct branch:
    # an input with a reflection ambiguity measures the reflected branch
    # once, and an input without one measures nothing
    calls = []

    def counted(f, pair, nodes, freqs=None):
        calls.append(nodes)
        return measure(f, pair, nodes, freqs)

    fp = forge("rational_lattice")
    ms = measure(fp.f, fp.pair, fp.nodes)
    f = random_nonseparable(GRID, support_len=22, gap_bound=1.0, seed=2)
    nodes = TimeNodes.lattice_covering(GRID, 1.0)
    plain = measure(f, PAIR, nodes)
    monkeypatch.setattr(stitcher, "measure", counted)
    rep = reconstruct(ms, fp.pair)
    assert rep.ambiguity == "phase_or_reflection" and calls == [fp.nodes]
    calls.clear()
    rep = reconstruct(plain, PAIR)
    assert rep.ambiguity == "phase_only" and calls == []


def _assembly_inputs():
    """(signal, pair, nodes): criterion 10's family at a = 1 and a = 0.5,
    four criterion-1 inputs per (a, b), a raised-cosine input with the
    default off-grid anchor, and a horizon-1024 input."""
    cases = []
    grid = GridSpec(B=1.0, L=4, origin=2, horizon=4)
    pair = build_window("rectangular", grid)
    family, _ = alphabet_family(grid, [0, 1, 2, 3])
    for a in (1.0, 0.5):
        nodes = TimeNodes.lattice_covering(grid, a)
        cases += [(Signal(grid, row.copy()), pair, nodes) for row in family]
    grid = GridSpec(B=1.0, L=8, origin=32, horizon=64)
    for ci, (a, b) in enumerate([(1.0, 0.25), (1.0, 0.5), (0.5, 0.25), (0.5, 0.5)]):
        gap = 2 * grid.B - a
        support_len = grid.horizon - grid.cells_spanned(gap) + 1
        pair = build_window("rectangular", grid, b=b)
        nodes = TimeNodes.lattice_covering(grid, a)
        cases += [
            (random_nonseparable(grid, support_len, gap, seed=ci * 50 + k), pair, nodes)
            for k in range(4)
        ]
    f = random_nonseparable(GRID, support_len=22, gap_bound=1.0, seed=9)
    anchored = TimeNodes.lattice_covering(GRID, 1.0, anchor=default_anchor(1.0, GRID.horizon))
    cases.append((f, build_window("raised_cosine", GRID, c0=1.0, c1=0.4), anchored))
    # more lattice nodes than one NODE_BLOCK of exponential tables
    grid = GridSpec(B=1.0, L=8, origin=512, horizon=1024)
    f = random_nonseparable(grid, grid.horizon - 3, 1.0, seed=3)
    nodes = TimeNodes.lattice_covering(grid, 1.0)
    assert len(nodes.times) > NODE_BLOCK
    cases.append((f, build_window("rectangular", grid, b=0.25), nodes))
    return cases


def test_assembly_carries_the_lattice_magnitudes_measure_gives(assemblies):
    # the node checks' magnitudes are the assembly's own, bit for bit; the
    # anchor row measured alone matches its row in a whole-set measurement,
    # so a direct-branch residual is the one a full re-measurement gives.
    # The one other signal returned is the midpoint of an assembly within
    # EQUIV_TOL of its reflection, whose residual is its own measurement's
    assembled = direct = midpoints = anchored = 0
    for f, pair, nodes in _assembly_inputs():
        ms = measure(f, pair, nodes)
        assemblies.clear()
        try:
            rep = reconstruct(ms, pair)
        except (StitchError, RecoveryError):
            continue
        [assembly] = assemblies
        full = measure(assembly.signal, pair, nodes).mags
        lat_rows = [i for i in range(len(nodes.times)) if i != nodes.anchor_index]
        assert assembly.mags.tobytes() == full[:, lat_rows].tobytes()
        assembled += 1
        if nodes.anchor_index is not None:
            only = TimeNodes("lattice_plus_anchor", (nodes.anchor,), nodes.a)
            alone = measure(assembly.signal, pair, only).mags[:, 0]
            assert alone.tobytes() == full[:, nodes.anchor_index].tobytes()
            anchored += 1
        scale = max(float(np.max(ms.mags)), 1e-300)
        if rep.signal.samples.tobytes() == assembly.signal.samples.tobytes():
            assert rep.residual == float(np.max(np.abs(full - ms.mags))) / scale
            direct += 1
        else:
            assert global_phase_align(rep.signal, assembly.signal).residual <= EQUIV_TOL
            got = measure(rep.signal, pair, nodes).mags
            assert rep.residual == float(np.max(np.abs(got - ms.mags))) / scale
            midpoints += 1
    assert assembled > 400 and direct + midpoints == assembled and anchored == 1


# --- the orientation search budget ----------------------------------------


def test_a_chain_that_never_backtracks_spends_no_search_budget(monkeypatch):
    # criterion 1's grid: 17 live positions, each with one orientation that
    # fits, so a budget of 3 bounds nothing
    grid = GridSpec(B=1.0, L=8, origin=32, horizon=64)
    pair = build_window("rectangular", grid, b=0.25)
    nodes = TimeNodes.lattice_covering(grid, 1.0)
    f = random_nonseparable(grid, grid.horizon - grid.cells_spanned(1.0) + 1, 1.0, seed=0)
    monkeypatch.setattr(stitcher, "SEARCH_BUDGET", 3)
    rep = reconstruct(measure(f, pair, nodes), pair)
    assert len(nodes.times) > 3
    assert global_phase_align(rep.signal, f).residual <= 1e-8


def test_each_orientation_tried_after_the_first_spends_a_search_step(monkeypatch):
    # member 22 of criterion 10's family at a = 1 backtracks once: the
    # best-fitting orientation at one position fails its node check, and the
    # next one at that position is the one placement beyond one per position
    grid = GridSpec(B=1.0, L=4, origin=2, horizon=4)
    pair = build_window("rectangular", grid)
    family, _ = alphabet_family(grid, [0, 1, 2, 3])
    ms = measure(Signal(grid, family[22].copy()), pair, TimeNodes.lattice_covering(grid, 1.0))
    monkeypatch.setattr(stitcher, "SEARCH_BUDGET", 1)
    assert reconstruct(ms, pair).ambiguity == "phase_only"
    monkeypatch.setattr(stitcher, "SEARCH_BUDGET", 0)
    with pytest.raises(InconsistentMeasurements, match="orientation search budget exhausted"):
        reconstruct(ms, pair)


def test_a_position_entered_again_after_a_backtrack_spends_a_search_step(monkeypatch):
    # two identical orientations at the first position, and last-node
    # magnitudes that no assignment reproduces: the search places 16
    # positions, fails node 16's check there, and places all 16 again from
    # the second orientation.  32 placements against one free per live
    # position (17) need a budget of 15, so the work stays linear in it
    grid = GridSpec(B=1.0, L=8, origin=32, horizon=64)
    pair = build_window("rectangular", grid, b=0.25)
    nodes = TimeNodes.lattice_covering(grid, 1.0)
    f = random_nonseparable(grid, grid.horizon - grid.cells_spanned(1.0) + 1, 1.0, seed=0)
    ms = measure(f, pair, nodes)
    classes = [
        local_recovery.recover_local(p, q, pair, scale=float(np.max(ms.mags)))
        for p, q in zip(*ms.mags)
    ]
    classes[0] = dataclasses.replace(classes[0], representatives=classes[0].representatives[:1] * 2)
    bad = ms.mags.copy()
    bad[:, -1] *= 1.5
    search = dict(times=nodes.times, lattice_mags=bad, freqs=ms.freqs)
    assert len(nodes.times) == 17
    monkeypatch.setattr(stitcher, "SEARCH_BUDGET", 14)
    with pytest.raises(InconsistentMeasurements, match="orientation search budget exhausted"):
        align_overlaps(classes, pair, 1.0, **search)
    monkeypatch.setattr(stitcher, "SEARCH_BUDGET", 15)
    with pytest.raises(InconsistentMeasurements, match="no phase assignment reproduces .* node index 16"):
        align_overlaps(classes, pair, 1.0, **search)


# --- the orientation search against its recursive reference -----------------


def _recursive_align_overlaps(
    classes, pair, a, *, times=None, lattice_mags=None, freqs=None, accept_tol=1e-8,
    relative=True,
):
    """The depth-first orientation search as it was written before the
    explicit stack: one Python frame per live node, and a completed
    assignment re-measured over the whole horizon before it is accepted.  A
    window that abuts the filled cells, with a row that was not recovered
    between it and the last one placed, is phased from that row by
    ``stitcher.junction_phases``, as ``phase_fit`` phases an overlap: its
    filled side is the patch placed before, unscaled, and its phase that
    patch's lambda times the junction's mu.  ``relative=False`` phases it
    as the search did before the junctions were solved in stacks: against
    the filled cells of the assembly, its phase the junction's mu."""
    grid = pair.grid
    phi = pair.slot_values("phi")
    assert float(np.max(np.abs(phi)) / np.min(np.abs(phi))) <= COND_MAX
    inv_phi = 1.0 / np.conj(phi)
    conj_windows = np.conj([phi, pair.slot_values("psi")])[:, None, None]
    if times is None:
        times = [m * a for m in range(len(classes))]
    scale = max(
        (
            float(np.max(np.abs(c.representative)))
            for c in classes
            if c is not None and not c.is_zero
        ),
        default=0.0,
    )
    live = []
    covered = np.zeros(grid.horizon, dtype=bool)
    for ci, (cls, t) in enumerate(zip(classes, times)):
        seg = node_segment(grid, t)
        k, on = seg.cells, seg.on
        covered[k[on]] = True
        if cls is None or cls.is_zero:  # a row not recovered offers no patch
            continue
        patches = [
            o * inv_phi
            for o in cls.representatives
            if not np.any(on)
            or np.all(on)
            or np.max(np.abs((o * inv_phi)[~on]), initial=0.0)
            <= DEAD_OVERLAP_RTOL * scale
        ]
        if not patches:
            raise InconsistentMeasurements(f"no horizon-consistent orientation at node index {ci}")
        live.append((ci, t, k, on, patches))

    # a row not recovered is vouched for only by the measurement
    validating = lattice_mags is not None and (
        any(len(n[4]) > 1 for n in live) or any(c is None for c in classes)
    )
    if validating:
        lat_nodes = TimeNodes(mode="lattice", times=tuple(times), a=a)
        mag_scale = max(float(np.max(lattice_mags)), 1e-300)
    sep_error: List[Optional[SeparableInputError]] = [None]
    deepest: List[Tuple[int, str]] = [(-1, "")]
    budget = [100_000]
    assembled = np.zeros(grid.horizon, dtype=np.complex128)
    filled = np.zeros(grid.horizon, dtype=bool)
    lams: List[Tuple[int, complex]] = []

    def search(pos, prev=None):
        # prev: the patch placed at pos - 1 and its lambda
        if budget[0] <= 0:
            raise InconsistentMeasurements("orientation search budget exhausted")
        budget[0] -= 1
        if pos == len(live):
            if validating:
                got = measure(Signal(grid, assembled), pair, lat_nodes, freqs).mags
                dev = float(np.max(np.abs(got - lattice_mags)))
                if dev > accept_tol * mag_scale:
                    if pos > deepest[0][0]:
                        deepest[0] = (
                            pos,
                            f"no phase assignment reproduces the lattice magnitudes "
                            f"(best deviation {dev:.3e})",
                        )
                    return None
            return assembled, lams
        ci, t, k, on, patches = live[pos]
        if pos == 0:
            options = [(k[on], patch[on], 1.0 + 0.0j, patch) for patch in patches]
        else:
            ov = on & filled[np.clip(k, 0, grid.horizon - 1)]
            j = (live[pos - 1][0] + ci) // 2
            first_on = k[on][0]
            straddle = (
                not ov.any() and first_on > 0 and filled[first_on - 1] and classes[j] is None
            )
            if straddle:
                seg = node_segment(grid, times[j])
                kj, onj = seg.cells, seg.on
                left = onj & filled[np.clip(kj, 0, grid.horizon - 1)]
                right = onj & ~left
                if relative:
                    u = prev[0][kj[left] - live[pos - 1][2][0]]
                else:
                    u = assembled[kj[left]]
            else:
                u = assembled[k[ov]]
            if u.size == 0 or np.max(np.abs(u)) <= DEAD_OVERLAP_RTOL * scale:
                if sep_error[0] is None:
                    sep_error[0] = SeparableInputError(
                        "separable input: propagation broken at node "
                        f"{round(t / a) if a else ci}"
                    )
                return None
            scored = []
            if straddle:
                n = len(patches)
                fv = np.zeros((n, 2, grid.L), dtype=np.complex128)
                fv[:, 0, left] = u
                for row, patch in zip(fv, patches):
                    row[1, right] = patch[kj[right] - k[0]]
                E = node_exponentials(grid, kj[None], freqs.omegas)
                lams_, devs = stitcher.junction_phases(
                    fv, conj_windows, E.repeat(n, axis=0), grid.delta,
                    lattice_mags[:, [j] * n],
                )
                if relative:
                    lams_ = prev[1] * lams_
                for v, lam, dev, patch in zip(fv[:, 1], lams_, devs, patches):
                    dead = np.max(np.abs(v)) <= DEAD_OVERLAP_RTOL * scale
                    scored.append((np.inf if dead else float(dev), lam, patch))
            else:
                for patch in patches:
                    v = patch[ov]
                    lam, dist = phase_fit(u, v)
                    mismatch = float(dist / max(np.linalg.norm(u), np.linalg.norm(v)))
                    scored.append((mismatch, lam, patch))
            scored.sort(key=lambda s: s[0])
            if scored[0][0] > ORIENT_TOL:
                if pos > deepest[0][0]:
                    deepest[0] = (pos, f"overlap mismatch {scored[0][0]:.3e} at node index {ci}")
                return None
            new = on & ~filled[np.clip(k, 0, grid.horizon - 1)]
            options = []
            for mismatch, lam, patch in scored:
                if mismatch > ORIENT_TOL:
                    break
                options.append((k[new], lam * patch[new], complex(lam), patch))
        for cells, values, lam, patch in options:
            assembled[cells] = values
            filled[cells] = True
            lams.append((ci, lam))
            res = search(pos + 1, (patch, lam))
            if res is not None:
                return res
            assembled[cells] = 0.0
            filled[cells] = False
            lams.pop()
        return None

    result = search(0)
    if result is None:
        if sep_error[0] is not None:
            raise sep_error[0]
        if deepest[0][0] >= 0:
            raise InconsistentMeasurements(deepest[0][1])
        raise InconsistentMeasurements("no phase assignment fits the overlaps")
    lam_map = dict(lams)
    if not live:
        ambiguity = "phase_only"
    elif all(c.includes_reflection for c in classes if c is not None):
        ambiguity = "phase_or_reflection"
    else:
        ambiguity = "phase_only"
    # the search carries no magnitudes of its own; the assembled signal is
    # measured at the lattice nodes
    lat_nodes = TimeNodes(mode="lattice", times=tuple(times), a=a)
    return AlignedAssembly(
        signal=Signal(grid, assembled),
        ambiguity=ambiguity,
        lambdas=tuple(lam_map.get(ci, 1.0 + 0.0j) for ci in range(len(classes))),
        mags=measure(Signal(grid, assembled), pair, lat_nodes, freqs).mags,
        uncovered=tuple(np.flatnonzero(~covered).tolist()),
    )


def _outcome(run):
    """What a search returns, in comparable bytes, or its error class."""
    try:
        out = run()
    except Exception as exc:
        return type(exc).__name__
    return (
        out.signal.samples.tobytes(),
        np.array(out.lambdas).tobytes(),
        out.ambiguity,
        out.uncovered,
        out.mags.tobytes(),
    )


def _drift(new, old):
    """How far one search's assembly lies from another's on the same
    classes: the largest change of a lambda and of a sample over the largest
    sample, 0 for two refusals of one class and inf for differing classes
    or ambiguities."""
    try:
        old = old()
    except Exception as exc:
        old = type(exc).__name__
    try:
        new = new()
    except Exception as exc:
        return 0.0 if type(exc).__name__ == old else np.inf
    if isinstance(old, str) or new.ambiguity != old.ambiguity:
        return np.inf
    top = max(np.abs(old.signal.samples).max(), 1e-300)
    return max(np.abs(np.subtract(new.lambdas, old.lambdas)).max(initial=0.0),
               np.abs(new.signal.samples - old.signal.samples).max() / top)


@pytest.fixture
def against_reference(monkeypatch):
    """Runs the recursive reference beside every ``align_overlaps`` call that
    ``reconstruct`` makes, on the same classes; yields, per call, the
    outcomes of the search and of the reference, and the search's drift
    from the reference that phases each straddle against the assembly."""
    pairs = []

    def both(*args, **kwargs):
        pairs.append(
            (
                _outcome(lambda: align_overlaps(*args, **kwargs)),
                _outcome(lambda: _recursive_align_overlaps(*args, **kwargs)),
                _drift(lambda: align_overlaps(*args, **kwargs),
                       lambda: _recursive_align_overlaps(*args, **kwargs, relative=False)),
            )
        )
        return align_overlaps(*args, **kwargs)

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10_000))
    monkeypatch.setattr(stitcher, "align_overlaps", both)
    yield pairs
    sys.setrecursionlimit(limit)


def _reconstruct_outcome(f, pair, nodes):
    try:
        reconstruct(measure(f, pair, nodes), pair)
    except Exception as exc:
        return type(exc).__name__
    return "ok"


@pytest.mark.parametrize("a", [1.0, 0.5])
def test_search_matches_the_recursive_reference_on_criterion_10(a, against_reference):
    grid = GridSpec(B=1.0, L=4, origin=2, horizon=4)
    pair = build_window("rectangular", grid)
    family, _ = alphabet_family(grid, [0, 1, 2, 3])
    nodes = TimeNodes.lattice_covering(grid, a)
    for row in family:
        before = len(against_reference)
        _reconstruct_outcome(Signal(grid, row.copy()), pair, nodes)
        # one search: at a = B / 2 row 3's window holds all four cells, at
        # a = B row 1's, and the sparse pass that recovers it alone is never
        # refused
        assert len(against_reference) == before + 1
    for new, ref, drift in against_reference:
        assert new == ref
        assert drift <= 1e-13


def test_search_matches_the_recursive_reference_on_the_forges(against_reference):
    outcomes = [
        _reconstruct_outcome(getattr(fp, w), fp.pair, fp.nodes)
        for fp in (forge(name) for name in FORGES)
        for w in ("f", "g")
    ]
    assert "SeparableInputError" in outcomes and "ok" in outcomes
    assert against_reference
    for new, ref, drift in against_reference:
        assert new == ref
        assert drift <= 1e-13


@pytest.mark.parametrize("a, b, seed", [(1.0, 0.5, 1495495394), (0.5, 0.25, 349134471)])
def test_search_matches_the_recursive_reference_near_the_circle(a, b, seed, against_reference):
    grid = GridSpec(B=1.0, L=8, origin=32, horizon=64)
    gap = 2 * grid.B - a
    n_gap = int(np.ceil(gap / grid.delta - 1e-9))
    f = random_nonseparable(grid, grid.horizon - n_gap + 1, gap, seed=seed)
    pair = build_window("rectangular", grid, b=b)
    assert _reconstruct_outcome(f, pair, TimeNodes.lattice_covering(grid, a)) == "ok"
    [(new, ref, drift)] = against_reference
    assert new == ref
    assert drift <= 1e-13


def test_search_matches_the_recursive_reference_on_a_horizon_1024_lattice(against_reference):
    # 128 live positions and 127 straddles: the phases chain through every
    # junction, so the relative rule's roundoff could build up along them
    grid = GridSpec(B=1.0, L=8, origin=512, horizon=1024)
    f = random_nonseparable(grid, grid.horizon - 3, 1.0, seed=3)
    pair = build_window("rectangular", grid, b=0.25)
    assert _reconstruct_outcome(f, pair, TimeNodes.lattice_covering(grid, 1.0)) == "ok"
    [(new, ref, drift)] = against_reference
    assert new == ref
    assert drift <= 1e-13


def test_node_check_rejects_a_mate_before_the_leaf():
    # member 22 of criterion 10's family at a = 1: three live nodes, and the
    # best-fitting orientation at the second one is a reflected mate; node 2's
    # window is filled once two positions are placed, so its lattice data
    # rejects the mate before the last node is placed
    grid = GridSpec(B=1.0, L=4, origin=2, horizon=4)
    pair = build_window("rectangular", grid)
    family, _ = alphabet_family(grid, [0, 1, 2, 3])
    f = Signal(grid, family[22].copy())
    ms = measure(f, pair, TimeNodes.lattice_covering(grid, 1.0))
    scale = float(np.max(ms.mags))
    classes = [
        recover_local(ms.mags[0, i], ms.mags[1, i], pair, scale=scale)
        for i in range(len(ms.nodes.times))
    ]
    assert sum(len(c.representatives) for c in classes if not c.is_zero) > 3

    def search(fn, mags):
        return fn(
            classes, pair, 1.0, times=list(ms.nodes.times), lattice_mags=mags, freqs=ms.freqs
        )

    def run(fn, mags):
        return _outcome(lambda: search(fn, mags))

    assert run(align_overlaps, ms.mags) == run(_recursive_align_overlaps, ms.mags)
    assert run(align_overlaps, ms.mags)[2] == "phase_only"

    # with node 2's data bumped, no assignment fits: the same decision, and
    # the message now names the node that refused
    bad = ms.mags.copy()
    bad[:, 2] *= 1.5
    assert run(align_overlaps, bad) == "InconsistentMeasurements"
    assert run(_recursive_align_overlaps, bad) == "InconsistentMeasurements"
    with pytest.raises(InconsistentMeasurements, match=r"best deviation .* at node index 2"):
        search(align_overlaps, bad)


def test_a_depth_that_misfits_twice_names_its_first_node_in_lattice_order():
    # criterion 1 at a = B / 2 with only the sparse rows recovered: placing
    # row 7 fills cells 8 .. 15, which completes rows 4 .. 7 at one depth.
    # Rows 4 and 6 (not row 5, which phases the junction) get data that no
    # assembly reproduces, row 6's a thousand times further off; the refusal
    # names row 4, the first checked, with row 4's own deviation
    f, ms = _criterion1_input(0.5, 0)
    scale = float(ms.mags.max())
    classes = [recover_local(*ms.mags[:, i], ms.pair, scale=scale) if i in SPARSE_ROWS else None
               for i in range(len(ms.nodes.times))]
    bad = ms.mags.copy()
    bad[:, 4] *= 1 + 1e-6
    bad[:, 6] *= 1 + 1e-3
    with pytest.raises(InconsistentMeasurements) as refused:
        align_overlaps(classes, ms.pair, 0.5, times=ms.nodes.times, lattice_mags=bad,
                       freqs=ms.freqs)
    assert str(refused.value) == (
        "no phase assignment reproduces the lattice magnitudes "
        f"(best deviation {1e-6 * ms.mags[:, 4].max():.3e} at node index 4)"
    )


def test_node_check_names_the_node_on_a_lattice_with_no_branch_point():
    # criterion 1's grid: every node offers one orientation that keeps off
    # the cells beyond the horizon, so the chain never branches; node 4's
    # data scaled by a millionth is refused by node 4's own check, as soon
    # as its window is filled
    grid = GridSpec(B=1.0, L=8, origin=32, horizon=64)
    pair = build_window("rectangular", grid, b=0.25)
    nodes = TimeNodes.lattice_covering(grid, 1.0)
    f = random_nonseparable(grid, grid.horizon - grid.cells_spanned(1.0) + 1, 1.0, seed=0)
    ms = measure(f, pair, nodes)
    scale = float(np.max(ms.mags))
    classes = [recover_local(p, q, pair, scale=scale) for p, q in zip(*ms.mags)]
    top = max(float(np.max(np.abs(c.representative))) for c in classes)
    for t, c in zip(nodes.times, classes):
        off = ~node_segment(grid, t).on
        kept = [o for o in c.patches if np.all(np.abs(o[off]) <= DEAD_OVERLAP_RTOL * top)]
        assert len(kept) == 1
    bad = ms.mags.copy()
    bad[:, 4] *= 1 + 1e-6
    ms_bad = type(ms)(pair=ms.pair, nodes=ms.nodes, freqs=ms.freqs, mags=bad)
    with pytest.raises(
        InconsistentMeasurements,
        match=r"^no phase assignment reproduces the lattice magnitudes "
        r"\(best deviation .* at node index 4\)$",
    ):
        reconstruct(ms_bad, pair)


# --- the stacked junction solves and the block node checks ----------------


@pytest.mark.parametrize("n_rows", [1, 17])
def test_a_stacked_junction_solve_gives_each_row_the_bits_of_a_one_row_call(n_rows):
    # pair rows on matmul's batch axis: each row's mu and deviation are the
    # bytes a call with that row alone gives, a singular row (no energy on
    # the filled side, so S = T = 0) and a dead patch (mu = 1, inf) included
    grid = GridSpec(B=1.0, L=8, origin=32, horizon=64)
    pair = build_window("rectangular", grid, b=0.25)
    conj_windows = np.conj([pair.slot_values("phi"), pair.slot_values("psi")])[:, None, None]
    rng = np.random.default_rng(n_rows)
    fv = np.zeros((n_rows, 2, grid.L), dtype=np.complex128)
    fv[:, 0, :4], fv[:, 1, 4:] = rng.normal(size=(2, n_rows, 4)) + 1j * rng.normal(size=(2, n_rows, 4))
    if n_rows > 1:
        fv[3, 0] = 0.0
        fv[9, 1] = 0.0
    cells = first_cell(grid, 1.0 * rng.integers(-8, 8, n_rows))[:, None] + np.arange(grid.L)
    E = node_exponentials(grid, cells, FrequencyGrid.critical(grid.L, grid.B).omegas)
    M = rng.uniform(0.5, 2.0, size=(2, n_rows, 2 * grid.L))
    mu, dev = stitcher.junction_phases(fv, conj_windows, E, grid.delta, M)
    assert mu.shape == dev.shape == (n_rows,)
    for n in range(n_rows):
        one = stitcher.junction_phases(fv[n : n + 1], conj_windows, E[n : n + 1], grid.delta,
                                       M[:, n : n + 1])
        assert (mu[n : n + 1].tobytes(), dev[n : n + 1].tobytes()) == tuple(v.tobytes() for v in one)
    if n_rows > 1:
        assert mu[3] == mu[9] == 1.0 and dev[3] == dev[9] == np.inf
        assert np.isfinite(np.delete(dev, [3, 9])).all()


def _sparse_call(f, pair, a):
    """The classes and times ``reconstruct`` hands its first search."""
    seen = []

    def recorded(classes, pair, a, **kwargs):
        seen.append((list(classes), kwargs["times"]))
        return align(classes, pair, a, **kwargs)

    align = stitcher.align_overlaps
    stitcher.align_overlaps = recorded
    try:
        reconstruct(measure(f, pair, TimeNodes.lattice_covering(pair.grid, a)), pair)
    finally:
        stitcher.align_overlaps = align
    return seen[0]


@pytest.mark.parametrize("case", ["criterion 1 a = B", "criterion 1 a = B/2", "horizon 1024"])
def test_every_straddles_filled_side_lies_in_the_run_its_predecessor_wrote(case):
    # the stacked solves phase a straddle against the patch placed before
    # it, unscaled; on reconstruct's sparse lattices that patch, times its
    # lambda, is what the assembly holds on the straddling row's filled
    # cells lo[j]:c, because they lie in the run boundary[p - 1]:c it wrote
    if case == "horizon 1024":
        grid = GridSpec(B=1.0, L=8, origin=512, horizon=1024)
        f = random_nonseparable(grid, grid.horizon - 3, 1.0, seed=3)
        pair, a = build_window("rectangular", grid, b=0.25), 1.0
    else:
        a = 1.0 if case.endswith("a = B") else 0.5
        f, ms = _criterion1_input(a, 0)
        pair = ms.pair
    classes, times = _sparse_call(f, pair, a)
    _, lo, hi = stitcher._window_runs(pair.grid, times)
    live = [i for i, c in enumerate(classes) if c is not None and not c.is_zero]
    boundary = [lo[live[0]], *hi[live]]
    straddles = 0
    for p in range(1, len(live)):
        j = (live[p - 1] + live[p]) // 2
        if lo[live[p]] == boundary[p] and classes[j] is None:
            assert boundary[p - 1] <= lo[j] < boundary[p]
            straddles += 1
    assert straddles == len(live) - 1


def _a_equal_b_sparse_classes():
    """Criterion 1's input at a = B, its lattice measurements, and the
    classes of the rows the sparse pass recovers (1, 3, ..., 15; None
    elsewhere)."""
    f, ms = _criterion1_input(1.0, 0)
    scale = float(ms.mags.max())
    return ms, [recover_local(*ms.mags[:, i], ms.pair, scale=scale) if i in A_EQUAL_B_ROWS else None
                for i in range(len(ms.nodes.times))]


def test_node_checks_that_miss_at_two_depths_of_one_block_name_the_shallower_node():
    # recovered rows 5 and 11 (no junction is phased from them) complete at
    # depths 3 and 6, both inside the first NODE_BLOCK, and row 12's data
    # misfits the junction of rows 11 and 13, entered at depth 6: the block
    # is placed before any node is checked, and the refusal is the one
    # checking every depth gives, naming row 5 with its own deviation
    ms, classes = _a_equal_b_sparse_classes()
    bad = ms.mags.copy()
    bad[:, 5] *= 1 + 1e-6
    bad[:, [11, 12]] *= 1 + 1e-3
    with pytest.raises(InconsistentMeasurements) as refused:
        align_overlaps(classes, ms.pair, 1.0, times=ms.nodes.times, lattice_mags=bad,
                       freqs=ms.freqs)
    assert str(refused.value) == (
        "no phase assignment reproduces the lattice magnitudes "
        f"(best deviation {1e-6 * ms.mags[:, 5].max():.3e} at node index 5)"
    )


def test_a_shallower_miss_keeps_the_deeper_refusal_already_noted():
    # the whole criterion-1 lattice at a = B, row 2 offering its class and
    # then that class with its last cell off by 1e-7, which fits every
    # overlap and misses row 2's own check.  With row 12's data scaled, the
    # first orientation misses at row 12's depth, the second at row 2's;
    # the refusal is the deeper one, noted first
    f, ms = _criterion1_input(1.0, 0)
    scale = float(ms.mags.max())
    classes = [recover_local(p, q, ms.pair, scale=scale) for p, q in zip(*ms.mags)]
    rep = classes[2].representative
    bumped = rep.copy()
    bumped[-1] += 1e-7 * np.abs(rep).max()
    search = dict(times=ms.nodes.times, freqs=ms.freqs)
    bad = ms.mags.copy()
    bad[:, 12] *= 1 + 1e-6
    classes[2] = dataclasses.replace(classes[2], representatives=(bumped,), mate=None)
    with pytest.raises(InconsistentMeasurements, match=r"best deviation \S+ at node index 2\)$"):
        align_overlaps(classes, ms.pair, 1.0, lattice_mags=ms.mags, **search)
    classes[2] = dataclasses.replace(classes[2], representatives=(rep, bumped))
    good = align_overlaps(classes, ms.pair, 1.0, lattice_mags=ms.mags, **search)
    assert good.ambiguity == "phase_only"
    with pytest.raises(InconsistentMeasurements, match=r"best deviation \S+ at node index 12\)$"):
        align_overlaps(classes, ms.pair, 1.0, lattice_mags=bad, **search)


def test_a_dead_junction_past_a_missing_node_leaves_the_nodes_refusal():
    # criterion 1's grid at a = B / 2 with cells 34 .. 39 zero: the junction
    # of rows 19 and 23 (lattice index 6) has a dead filled side, met at
    # depth 5 while the second NODE_BLOCK is placed unchecked.  With row
    # 19's data scaled, its check misses at depth 5 first, so the search
    # never reached that junction, and its refusal is row 19's
    grid = GridSpec(B=1.0, L=8, origin=32, horizon=64)
    samples = random_nonseparable(grid, grid.horizon, 1.5, seed=0).samples.copy()
    samples[34:40] = 0.0
    pair = build_window("rectangular", grid, b=0.25)
    ms = measure(Signal(grid, samples), pair, TimeNodes.lattice_covering(grid, 0.5))
    scale = float(ms.mags.max())
    classes = [recover_local(*ms.mags[:, i], pair, scale=scale) if i in SPARSE_ROWS else None
               for i in range(len(ms.nodes.times))]
    bad = ms.mags.copy()
    bad[:, 19] *= 1 + 1e-6
    search = dict(times=ms.nodes.times, freqs=ms.freqs)
    with pytest.raises(SeparableInputError, match="propagation broken at node 6$"):
        align_overlaps(classes, pair, 0.5, lattice_mags=ms.mags, **search)
    with pytest.raises(InconsistentMeasurements, match=r"best deviation \S+ at node index 19\)$"):
        align_overlaps(classes, pair, 0.5, lattice_mags=bad, **search)


def test_a_miss_inside_a_node_block_gives_back_the_unchecked_placements(monkeypatch):
    # the whole criterion-1 lattice at a = B, the first position offering
    # one orientation twice, and row 4's data no assignment reproduces: the
    # search places 16 positions of the first block before it checks, misses
    # at depth 5, and places 5 again from the second orientation.  Checking
    # every depth spends 10 steps, inside the 17 free ones; kept, the 11
    # unchecked placements past depth 5 would run the budget out
    f, ms = _criterion1_input(1.0, 0)
    scale = float(ms.mags.max())
    classes = [recover_local(p, q, ms.pair, scale=scale) for p, q in zip(*ms.mags)]
    classes[0] = dataclasses.replace(classes[0], representatives=classes[0].representatives[:1] * 2)
    bad = ms.mags.copy()
    bad[:, 4] *= 1 + 1e-6
    monkeypatch.setattr(stitcher, "SEARCH_BUDGET", 0)
    with pytest.raises(InconsistentMeasurements, match=r"best deviation \S+ at node index 4\)$"):
        align_overlaps(classes, ms.pair, 1.0, times=ms.nodes.times, lattice_mags=bad,
                       freqs=ms.freqs)


def test_a_long_reconstruct_solves_and_checks_a_node_block_per_call(monkeypatch):
    # horizon 1024 at a = B: 257 nodes, 127 straddles; one junction solve
    # per NODE_BLOCK of straddling rows and at most two node-check kernel
    # calls per block, against 127 and 129 when each junction and each depth
    # was its own call
    calls = {"junction_phases": 0, "node_magnitudes": 0}

    def counted(name):
        fn = getattr(stitcher, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(stitcher, name, call)

    for name in calls:
        counted(name)
    grid = GridSpec(B=1.0, L=8, origin=512, horizon=1024)
    f = random_nonseparable(grid, grid.horizon - 3, 1.0, seed=3)
    rep, res = _roundtrip(f, build_window("rectangular", grid, b=0.25), 1.0)
    assert res <= 1e-8
    blocks = -(-257 // NODE_BLOCK)
    assert 0 < calls["junction_phases"] <= blocks and 0 < calls["node_magnitudes"] <= 2 * blocks



# --- the tables and window runs shared with measure ---------------------------


def test_a_reconstruct_reads_the_tables_its_measure_built(cold_tables, monkeypatch):
    # criterion 10's lattice at a = B / 2 is one NODE_BLOCK of 7 nodes: two
    # roundtrips build its table once, and every kernel call, measure's and
    # the node checks', reads that one array
    built, read = [], {"measure": [], "checks": []}
    build, kernel = stft_engine.node_exponentials, stft_engine.node_magnitudes

    def counted(*args):
        built.append(build(*args))
        return built[-1]

    def spied(where):
        def call(samples, conj_windows, E, delta, out):
            read[where].append(E)
            return kernel(samples, conj_windows, E, delta, out)
        return call

    monkeypatch.setattr(stft_engine, "node_exponentials", counted)
    monkeypatch.setattr(stft_engine, "node_magnitudes", spied("measure"))
    monkeypatch.setattr(stitcher, "node_magnitudes", spied("checks"))
    grid = GridSpec(B=1.0, L=4, origin=2, horizon=4)
    pair = build_window("rectangular", grid)
    family, _ = alphabet_family(grid, [0, 1, 2, 3])
    nodes = TimeNodes.lattice_covering(grid, 0.5)
    assert len(nodes.times) <= NODE_BLOCK
    for row in family[[27, 200]]:
        f = Signal(grid, row.copy())
        rep = reconstruct(measure(f, pair, nodes), pair)
        assert pair_equivalent(rep.signal.samples, f.samples, allow_reflection=True, tol=1e-6)
    assert len(built) == 1
    assert read["measure"] and read["checks"]
    assert all(E is built[0] for E in read["measure"])
    assert all(E.base is built[0] for E in read["checks"])


def _report_bytes(run):
    """A reconstruction's report in comparable bytes, or its refusal."""
    try:
        rep = run()
    except Exception as exc:
        return type(exc).__name__, str(exc)
    alt = None if rep.alternative is None else rep.alternative.samples.tobytes()
    return (rep.signal.samples.tobytes(), np.array(rep.lambdas).tobytes(), rep.ambiguity,
            rep.residual, rep.anchor_used, alt, rep.uncovered)


def _memo_cases():
    """Measurement sets on one lattice each: criterion 1's at both steps
    (an anchored one too), and criterion 10's family at both steps."""
    for a in (1.0, 0.5):
        yield pytest.param([_criterion1_input(a, seed)[1] for seed in range(3)],
                           id=f"criterion-1-a{a}")
    f, _ = _criterion1_input(0.5, 7)
    anchored = TimeNodes.lattice_covering(f.grid, 0.5, anchor=default_anchor(0.5, f.grid.horizon))
    yield pytest.param([measure(f, build_window("rectangular", f.grid, b=0.25), anchored)],
                       id="criterion-1-anchor")
    grid = GridSpec(B=1.0, L=4, origin=2, horizon=4)
    pair = build_window("rectangular", grid)
    family, _ = alphabet_family(grid, [0, 1, 2, 3])
    for a in (1.0, 0.5):
        nodes = TimeNodes.lattice_covering(grid, a)
        yield pytest.param([measure(Signal(grid, row.copy()), pair, nodes) for row in family],
                           id=f"criterion-10-a{a}")


@pytest.mark.parametrize("sets", _memo_cases())
def test_reconstruct_gives_the_same_bytes_from_a_cold_a_warm_and_no_memo(cold_tables, monkeypatch,
                                                                       sets):
    # the held tables and runs are the ones each call would build: with
    # nothing held, from a cold memo and from a warm one, every report and
    # refusal is the same
    cold = [_report_bytes(lambda: reconstruct(ms, ms.pair)) for ms in sets]
    warm = [_report_bytes(lambda: reconstruct(ms, ms.pair)) for ms in sets]
    monkeypatch.setattr(stft_engine, "TABLE_MEMO_BYTES", 0)
    monkeypatch.setattr(stft_engine, "_tables", OrderedDict())
    none = [_report_bytes(lambda: reconstruct(ms, ms.pair)) for ms in sets]
    assert not stft_engine._tables
    assert cold == warm == none
    assert any(not isinstance(out[0], str) for out in cold)


# --- the slot mate offered as a patch ---------------------------------------

LETTERS = np.array([0, 1, 1j, -1], dtype=np.complex128)


def _sweep_row(L, b, a, row):
    """Row ``row`` of ``scripts/exact_sweep.py``'s draw for (L, b, a)."""
    grid = GridSpec(B=1.0, L=L, origin=2 * L, horizon=4 * L)
    rng = np.random.default_rng([L, int(4 * b), int(2 * a)])
    for _ in range(row):
        rng.integers(0, 4, 4 * L)
    return Signal(grid, LETTERS[rng.integers(0, 4, 4 * L)])


def _sweep_input(L, b, a, row):
    """Row ``row`` of the sweep's draw for (L, b, a), with its measurements."""
    f = _sweep_row(L, b, a, row)
    pair = build_window("rectangular", f.grid, b=b)
    return f, measure(f, pair, TimeNodes.lattice_covering(f.grid, a))


@pytest.mark.parametrize(
    "L, b, a, row",
    [
        (8, 0.25, 0.5, 61),
        (8, 0.25, 0.5, 76),
        (8, 0.5, 0.5, 95),
        (8, 0.5, 0.5, 171),
        (12, 0.25, 1.0, 118),
        (12, 0.5, 0.5, 169),
    ],
)
def test_a_lone_class_offers_its_slot_mate_when_the_truth_is_the_mate(L, b, a, row):
    # at one node a single class is listed and it tolerates reflection, but
    # the truth is its slot mate: the truth's own candidate misses the data
    # and its exact mate passes.  Offering only the listed class refused each
    # of these sweep rows with an overlap mismatch or no horizon-consistent
    # orientation
    f, ms = _sweep_input(L, b, a, row)
    pair = ms.pair
    scale = float(np.max(ms.mags))
    classes = [recover_local(p, q, pair, scale=scale) for p, q in zip(*ms.mags)]
    assert any(c.mate is not None for c in classes)
    rep = reconstruct(ms, pair)
    assert rep.residual <= 1e-8
    assert pair_equivalent(
        rep.signal.samples, f.samples, allow_reflection=rep.ambiguity != "phase_only", tol=1e-8
    )


def _seeded_l8_draw():
    """15 nonseparable letter inputs per (b, a) at L = 8, from one seed drawn
    once and kept, each measured on the lattice that covers the horizon."""
    grid = GridSpec(B=1.0, L=8, origin=16, horizon=32)
    rng = np.random.default_rng(4181)
    draw = []
    for b in (0.25, 0.5):
        pair = build_window("rectangular", grid, b=b)
        for a in (1.0, 0.5):
            nodes = TimeNodes.lattice_covering(grid, a)
            drawn = 0
            while drawn < 15:
                f = Signal(grid, LETTERS[rng.integers(0, 4, grid.horizon)])
                if not is_separable(f, 2 * grid.B - a):
                    draw.append((f, measure(f, pair, nodes)))
                    drawn += 1
    return draw


def _comes_back_right(f, ms):
    """The report on ``ms``, which must be right by exact_sweep.py's rule."""
    rep = reconstruct(ms, ms.pair)
    assert pair_equivalent(
        rep.signal.samples, f.samples, allow_reflection=rep.ambiguity != "phase_only", tol=1e-6,
    )
    return rep


def test_a_seeded_l8_draw_never_comes_back_wrong():
    # every input comes back, and right; the draw's one refusal before the
    # off-horizon rescue was "no horizon-consistent orientation at node
    # index 2"
    for f, ms in _seeded_l8_draw():
        _comes_back_right(f, ms)


@pytest.mark.parametrize("row", [92, 242])
def test_an_edge_node_with_no_horizon_consistent_patch_is_refit(row, passes, monkeypatch):
    # node 2 of these sweep rows (L = 8, b = a = 0.5) has two off-horizon
    # slots, and each patch local recovery offers claims content there.  In
    # the whole-lattice pass each is refit with those slots held at zero and
    # placed like any other patch; without the rescue both rows were
    # refused.  Node 2 is not on the sparse pass's sub-lattice, which
    # returns both rows without the rescue
    calls = []

    def counted_refit(contents, *args, **kwargs):
        calls.append(len(contents))
        return local_recovery.refit(contents, *args, **kwargs)

    monkeypatch.setattr(stitcher, "refit", counted_refit)
    f, ms = _sweep_input(8, 0.5, 0.5, row)
    rep = _comes_back_right(f, ms)
    assert rep.residual <= 1e-8
    assert calls == [] and passes["passes"] == ["ok"]
    whole = _whole_lattice_pass(ms)
    assert calls == [1]
    assert whole.residual <= 1e-8
    assert pair_equivalent(
        whole.signal.samples, f.samples, allow_reflection=whole.ambiguity != "phase_only", tol=1e-6
    )


def _scaled_node(horizon, support, seed):
    """A random nonseparable signal on criterion 1's window pair and
    lattice, node 4's magnitudes scaled by 1 + 1e-6."""
    grid = GridSpec(B=1.0, L=8, origin=horizon // 2, horizon=horizon)
    pair = build_window("rectangular", grid, b=0.25)
    f = random_nonseparable(grid, support(grid), 1.0, seed=seed)
    ms = measure(f, pair, TimeNodes.lattice_covering(grid, 1.0))
    bad = ms.mags.copy()
    bad[:, 4] *= 1 + 1e-6
    return [(f, type(ms)(pair=ms.pair, nodes=ms.nodes, freqs=ms.freqs, mags=bad))]


_RESIDUAL_CASES = {
    "seeded-draw": lambda: (_seeded_l8_draw(), True),
    "row-92": lambda: ([_sweep_input(8, 0.5, 0.5, 92)], True),
    "row-242": lambda: ([_sweep_input(8, 0.5, 0.5, 242)], True),
    "row-173": lambda: ([_sweep_input(8, 0.5, 1.0, 173)], False),
    "row-231": lambda: ([_sweep_input(8, 0.5, 1.0, 231)], True),
    # the inputs of test_cli.py's test_recover_refuses_one_node_scaled_by_a_millionth
    # and of test_node_check_names_the_node_on_a_lattice_with_no_branch_point
    "scaled-node-cli": lambda: (_scaled_node(32, lambda grid: 29, 5), False),
    "scaled-node-criterion1": lambda: (
        _scaled_node(64, lambda grid: grid.horizon - grid.cells_spanned(1.0) + 1, 0), False
    ),
}


@pytest.mark.parametrize("case", sorted(_RESIDUAL_CASES))
def test_the_report_residual_is_a_fresh_measurement_of_the_returned_signal(case):
    # the residual is the node checks' own figure; it must be what a fresh
    # measure of the returned signal reads, to the bit.  The inputs that
    # must stay refused fit no node checks: a rescue that placed a patch
    # no check vouches for would return them
    inputs, returned = _RESIDUAL_CASES[case]()
    for f, ms in inputs:
        if not returned:
            with pytest.raises(
                InconsistentMeasurements, match="^no phase assignment reproduces"
            ):
                reconstruct(ms, ms.pair)
            continue
        rep = _comes_back_right(f, ms)
        fresh = measure(rep.signal, ms.pair, ms.nodes, ms.freqs).mags
        assert rep.residual == sup_dev(fresh, ms.mags) / ms.mags.max()


# --- long horizons ------------------------------------------------------------


def _long_roundtrip(horizon, seed):
    grid = GridSpec(B=1.0, L=8, origin=horizon // 2, horizon=horizon)
    f = random_nonseparable(grid, horizon - 3, 1.0, seed=seed)
    return _roundtrip(f, build_window("rectangular", grid, b=0.25), 1.0)


def test_roundtrip_at_horizon_4096():
    # 1,025 lattice nodes: the orientation search holds no Python frame per node
    rep, res = _long_roundtrip(4096, 1)
    assert res <= 1e-8 and rep.residual <= 1e-8


def test_long_roundtrip_memory_grows_by_a_small_constant_per_node(monkeypatch):
    # traced peaks at 1,025 nodes: with every node's exponential table built
    # at once, and each class pinning its node's whole candidate matrix,
    # measure peaked at about 5 KB per node and reconstruct at about 20 KB;
    # with the stitcher's state held as small Python objects per node,
    # reconstruct peaked at about 4.5 KB and align_overlaps added about 2.7 KB
    # to what it was handed
    grid = GridSpec(B=1.0, L=8, origin=2048, horizon=4096)
    f = random_nonseparable(grid, grid.horizon - 3, 1.0, seed=3)
    pair = build_window("rectangular", grid, b=0.25)
    nodes = TimeNodes.lattice_covering(grid, 1.0)
    align = stitcher.align_overlaps
    peaks, added = [], []

    def traced_align(*args, **kwargs):
        # the peak so far is kept, so reset_peak loses nothing of reconstruct's
        held, peak = tracemalloc.get_traced_memory()
        peaks.append(peak)
        tracemalloc.reset_peak()
        out = align(*args, **kwargs)
        added.append(tracemalloc.get_traced_memory()[1] - held)
        return out

    def traced_peak(call):
        tracemalloc.start()
        try:
            out = call()
            return out, max(peaks + [tracemalloc.get_traced_memory()[1]])
        finally:
            tracemalloc.stop()

    ms, measure_peak = traced_peak(lambda: measure(f, pair, nodes))
    monkeypatch.setattr(stitcher, "align_overlaps", traced_align)
    rep, reconstruct_peak = traced_peak(lambda: reconstruct(ms, pair))
    assert rep.residual <= 1e-8
    n = len(nodes.times)
    assert measure_peak <= 2_000 * n, measure_peak
    assert reconstruct_peak <= 3_000 * n, reconstruct_peak
    [align_added] = added
    assert align_added <= 700 * n, align_added


@pytest.mark.slow
def test_roundtrip_at_horizon_16384():
    # 4,097 nodes; node 179's survivor resolves a near-circle mirror pair only
    # to about sqrt(eps) and is polished before it is glued to its neighbours
    rep, res = _long_roundtrip(16384, 11)
    assert res <= 1e-8 and rep.residual <= 1e-8
