"""Assemble local classes across lattice nodes into one signal.

Each node contributes its windowed content up to a phase (and possibly a
conjugate reflection).  Overlaps between consecutive windows carry the phase
from node to node; a dead overlap means the input was separable there and the
data genuinely underdetermines the signal, so that is a declared error rather
than a guess.  A surviving global reflection ambiguity is settled afterwards
by re-measuring the reflected branch, and by anchor data when present.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .signal_model import (
    EQUIV_TOL,
    GridSpec,
    OffGridError,
    PeriodicSpec,
    PhaseAlignment,
    ReflectionRangeError,
    Signal,
    conj_reflect,
    global_phase_align,
    make_periodic,
    period_split,
    periodic_eval,
    phase_fit,
    vector_norm,
)
from .window_engine import WindowPair
from .stft_engine import (
    NODE_BLOCK,
    FrequencyGrid,
    MeasurementSet,
    TimeNodes,
    block_exponentials,
    first_cell,
    measure,
    node_magnitudes,
    node_segment,
    node_transforms,
    sup_dev,
)
from .local_recovery import (
    ACCEPT_TOL,
    InconsistentMeasurements,
    LocalClass,
    RecoveryError,
    recover_local,
    recover_rows,
    refit,
)

#: Aligned overlaps must agree to this relative mismatch.
ORIENT_TOL = 1e-6

#: Largest tolerated max/min window magnitude ratio when dividing it out.
COND_MAX = 1e6

#: Overlap content below this fraction of the global scale cannot carry phase.
DEAD_OVERLAP_RTOL = 1e-9

#: Orientations the search may place beyond one per live position, so a chain
#: that never backtracks never runs out and the work stays linear in both.
SEARCH_BUDGET = 100_000


class StitchError(Exception):
    pass


class SeparableInputError(StitchError):
    """Phase propagation broke because the signal dies on a junction."""


@dataclass(frozen=True)
class ReconstructionReport:
    """Outcome of a reconstruction, up to the stated ambiguity."""

    signal: Signal
    ambiguity: str  # phase_only | phase_or_reflection | exponential_family
    residual: float
    lambdas: Tuple[complex, ...]
    anchor_used: bool = False
    alternative: Optional[Signal] = None
    #: horizon cells that no lattice node window holds; the data says nothing
    #: about them and the signal is zero there
    uncovered: Tuple[int, ...] = ()


@dataclass(frozen=True)
class AlignedAssembly:
    """``align_overlaps``' output and ``resolve_reflection``'s input."""

    signal: Signal
    ambiguity: str
    lambdas: Tuple[complex, ...]
    #: the signal's own magnitudes at the lattice nodes, shape (2, nodes,
    #: bins), bit for bit what ``measure`` gives at those nodes
    mags: np.ndarray
    #: horizon cells under none of the node windows
    uncovered: Tuple[int, ...] = ()


@lru_cache(maxsize=32)
def _window_runs(grid: GridSpec, times: Tuple[float, ...]) -> Tuple[np.ndarray, ...]:
    """The node windows' geometry, as arrays over the nodes: node j's window
    holds cells first[j] + 0 .. L - 1, and its on-horizon part is the run
    lo[j]:hi[j]; with the times rising, so do lo and hi.  Built once per
    (grid, times) and read-only."""
    first = first_cell(grid, np.asarray(times, dtype=float))
    lo, hi = (np.minimum(np.maximum(edge, 0), grid.horizon) for edge in (first, first + grid.L))
    for runs in (first, lo, hi):
        runs.setflags(write=False)
    return first, lo, hi


@lru_cache(maxsize=32)
def _lattice_step(grid: GridSpec, times: Tuple[float, ...], a: float) -> int:
    """The lattice step a in grid cells, once every node time is checked on
    the grid and one step after the one before it; the overlaps the phases
    are chained across follow from the step.  Checked once per (grid, times,
    a)."""
    k_a = grid.cells(a, "lattice step a")
    cells = [grid.cells(t, "lattice node time") for t in times]
    for i in range(1, len(cells)):
        gap = cells[i] - cells[i - 1]
        if gap != k_a or gap < 1:
            raise ValueError(
                f"lattice node times must be one step a = {a!r} apart, but "
                f"{times[i - 1]!r} and {times[i]!r} are {gap * grid.delta!r} apart"
            )
    return k_a


def junction_phases(fv: np.ndarray, conj_windows: np.ndarray, E: np.ndarray,
                    delta: float, M: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Unit phases mu, one per pair row, that best fit the magnitudes of the
    rows whose windows straddle a junction, and their relative deviations.

    Pair row n is fv[n], shape (2, L) in the straddling row's window: fv[n,
    0] holds the cells left of the junction and fv[n, 1] a patch's cells
    right of it.  A and B are their transforms (``node_transforms``, as
    ``measure`` makes them from the row's table E[n], with the pair rows on
    matmul's batch axis, so each row's bits are those of a one-row call),
    and M[:, n] the row's magnitudes, shape (2, rows, bins).  As
    |A + mu B|^2 - |A|^2 - |B|^2 = 2 Re(mu B conj(A)) is linear in
    (Re mu, Im mu), mu solves its 2 x 2 normal equations over the bins,
    S mu + T conj(mu) = R, normalised; a singular system gives mu = 1 and
    deviation inf."""
    n = len(fv)
    V = node_transforms(fv, conj_windows, E, delta)  # (windows, rows, sides, bins)
    A, B = (V[:, :, side].swapaxes(0, 1).reshape(n, -1) for side in (0, 1))
    M = M.swapaxes(0, 1).reshape(n, -1)
    MM = M * M
    w = A * np.conj(B)  # conj(B conj(A))
    r = MM - (A * np.conj(A)).real - (B * np.conj(B)).real
    S, T, R = (w * np.conj(w)).real.sum(axis=1), (w * w).sum(axis=1), (r * w).sum(axis=1)
    mu = S * R - T * np.conj(R)
    mod = np.abs(mu)
    ok = (S * S > (T * np.conj(T)).real) & (mod > 0)
    mu = np.divide(mu, mod, out=np.ones_like(mu), where=ok)
    dev = np.abs(A + mu[:, None] * B) - M
    dev = np.sqrt((dev * dev).sum(axis=1)) / np.maximum(np.sqrt(MM.sum(axis=1)), 1e-300)
    return mu, np.where(ok, dev, np.inf)


def align_overlaps(
    classes: Sequence[Optional[LocalClass]],
    pair: WindowPair,
    a: float,
    *,
    times: Sequence[float],
    lattice_mags: np.ndarray,
    freqs: FrequencyGrid,
) -> AlignedAssembly:
    """Chain per-node phases across window overlaps and divide out the window.

    An internal step of ``reconstruct``, which establishes its precondition:
    the node times are on the grid, one step ``a`` (at least one cell and at
    most B) apart, one class per time, and the window's max/min magnitude
    ratio is within ``COND_MAX``.  So consecutive node windows overlap
    and their on-horizon runs (``_window_runs``, from which ``reconstruct``
    also picks the rows it recovers) rise with the node.  A class may be
    ``None``: that node was not recovered, so it offers no patch and stays
    out of the reflection pre-check, and consecutive recovered windows must
    overlap, or abut with the node halfway between them not recovered, its
    window straddling the junction.

    Node phases are fixed by setting the first nonzero node to 1 and
    aligning every later patch on the samples it shares with what has been
    assembled so far, or, where its window abuts them, on the magnitudes of
    the unrecovered node halfway between (``junction_phases``), a singular
    or unfit junction fitting no patch.  A straddle is phased against the
    placed patch before it, unscaled, so its phase is that patch's times the
    junction's mu; every (patch before, patch) pair of the junctions whose
    straddling node lies in one ``NODE_BLOCK`` is solved in one call, when
    the search first reaches that block.  A node's patches are
    ``LocalClass.patches``: its
    classes, and the slot mate that local recovery offers with a lone class
    that tolerates reflection.
    Two patches give the chain a branch point; a nearly symmetric overlap
    can fit both, so the orientations are searched depth first (best fit
    first, on an explicit stack) instead of greedily locked in.  On every
    lattice, each node's magnitudes are checked against ``lattice_mags``
    once every cell of its window is filled (a node that was not
    recovered too, against the zero assembly when no node is live), which
    rejects chains that glued a mate through an overlap too small to expose
    it, and names the node that fails; the assembly carries the checks'
    magnitudes.  The search places positions unchecked while the next
    one's node is in the same ``NODE_BLOCK`` and checks the nodes they
    complete together, going back to the first depth that misses with the
    state that checking every depth at once would leave.  Ambiguity is
    phase_or_reflection exactly when every node
    would tolerate the reflected world.  ``uncovered`` lists the horizon
    cells that no node window holds.

    A live overlap that fits neither orientation means the magnitudes were
    inconsistent; an overlap with no energy means the input is separable
    there and propagation stops with a declared error.
    """
    grid = pair.grid
    L, horizon = grid.L, grid.horizon
    phi = pair.slot_values("phi")
    # the node checks' two windows, conjugated once and shaped to broadcast
    # over (nodes, rows, L); the patches divide by conj(phi)
    conj_windows = np.conj([phi, pair.slot_values("psi")])[:, None, None]
    inv_phi = 1.0 / np.conj(phi)

    nonzero = [c for c in classes if c is not None and not c.is_zero]
    scale = max((float(np.abs(c.representative).max()) for c in nonzero), default=0.0)

    # consecutive windows overlap, so the covered cells are the one run
    # lo[0]:hi[-1] (none without a node)
    first, lo, hi = _window_runs(grid, tuple(times))
    covered = (lo[0], hi[-1]) if len(times) else (0, 0)
    uncovered = (*range(covered[0]), *range(covered[1], horizon))

    # the live nodes' orientations divided by the window: live position p
    # is node live[p], and its patches are rows start[p]:start[p + 1]
    n_patches = sum(len(c.patches) for c in nonzero)
    patches = np.empty((n_patches, L), dtype=np.complex128)
    live, start = [], [0]
    for ci, cls in enumerate(classes):
        if cls is None or cls.is_zero:
            continue
        slots = slice(lo[ci] - first[ci], hi[ci] - first[ci])
        k = start[-1]
        for o in cls.patches:
            np.multiply(o, inv_phi, out=patches[k])
            if 0 < slots.stop - slots.start < L:
                # an orientation claiming content on off-horizon cells cannot
                # come from any representable signal; only the stitcher can
                # see this, the single-node data is blind to it
                off = np.ones(L, dtype=bool)
                off[slots] = False
                if not np.abs(patches[k][off]).max() <= DEAD_OVERLAP_RTOL * scale:
                    continue
            k += 1
        if k == start[-1] and 0 < slots.stop - slots.start < L:
            # the horizon pins what the node's data may see only at second
            # order: each patch is refit with its ``off`` slots held at zero,
            # priced as prune prices it, and left to the node checks
            norm = vector_norm(lattice_mags[0, ci])  # delta sqrt(2 L a0) on exact data
            rows = refit(cls.patches, *lattice_mags[:, ci], pair, norm, hold=off)
            np.multiply(rows, inv_phi, out=patches[k : k + len(rows)])
            k += len(rows)
        if k == start[-1]:
            raise InconsistentMeasurements(f"no horizon-consistent orientation at node index {ci}")
        live.append(ci)
        start.append(k)
    live, start = np.array(live, dtype=np.int64), np.array(start)
    n_live = len(live)
    # lo and hi rise with the node, so once positions 0 .. p - 1 are placed
    # the filled cells are lo[live[0]]:boundary[p], the boundary being
    # hi[live[p - 1]]; position p overlaps them on lo[live[p]]:boundary[p]
    # and fills boundary[p]:boundary[p + 1], the last entry being hi[live[-1]]
    boundary = np.concatenate((lo[live[:1]], hi[live]))

    # the assembly lies between zero cells, so that node j's window is row j
    # of ``windows``, a view (the nodes are one step apart): L cells a side
    # hold every window that meets the horizon, and a lattice that reaches
    # further gets more
    f0, f1 = (int(first[0]), int(first[-1])) if len(times) else (0, 0)
    pad = max(L, -f0, f1 + L - horizon)
    padded = np.zeros(horizon + 2 * pad, dtype=np.complex128)
    assembled = padded[pad : pad + horizon]
    cell, step = padded.itemsize, (f1 - f0) // max(len(times) - 1, 1)
    windows = np.ndarray((len(times), L), padded.dtype, padded, (pad + f0) * cell, (step * cell, cell))

    # entering position p ranks its patches best fit first into
    # order[start[p]:], with their lambdas in lams; fitting[p] counts the
    # ones that fit and placed[p] the ones placed, so a search frame is
    # (position, next option) and an option's values are made when placed
    order = np.empty(n_patches, dtype=np.int64)
    lams = np.empty(n_patches, dtype=np.complex128)
    lam_of = np.ones(len(classes), dtype=np.complex128)
    fitting, placed = [0] * n_live, [0] * n_live
    # every node is checked at some depth, and the zero lattice's are zero
    mags = np.zeros((2, len(times), len(freqs)))
    sep_error: Optional[SeparableInputError] = None
    deepest: Tuple[int, str] = (-1, "")

    # position p straddles when its window abuts the filled cells at
    # c = boundary[p] and row j halfway back was not recovered.  Row j's
    # window holds cells lo[j]:c of the patch placed before it (the sparse
    # windows abut, so that patch filled them, times its lambda) and c:hi[j]
    # of p's.  So each pair (patch before, patch) is one junction row, row
    # n in pair order from pair_at[p] on, solved before the search reaches
    # it, and the patch's lambda is the one before it times jmu[n]
    pair_at, blocks, sp = [-1] * n_live, [], ()
    if n_live > 1:
        blocks = (live // NODE_BLOCK).tolist()
        mid = (live[:-1] + live[1:]) // 2
        unrecovered = np.array([c is None for c in classes])
        sp = 1 + ((lo[live[1:]] == boundary[1:-1]) & unrecovered[mid]).nonzero()[0]
    if len(sp):
        n_cur = start[sp + 1] - start[sp]
        count = (start[sp] - start[sp - 1]) * n_cur
        pair_at = np.full(n_live, -1)
        pair_at[sp] = np.cumsum(count) - count
        pos = np.repeat(sp, count)  # each pair's position and straddling row
        rows = mid[pos - 1]
        within, per = np.arange(len(pos)) - pair_at[pos], n_cur.repeat(count)
        pairs = ((start[pos - 1] + within // per, live[pos - 1]),
                 (start[pos] + within % per, live[pos]))
        del mid, unrecovered, n_cur, count, within, per
        jmu = np.empty(len(pos), dtype=np.complex128)
        jdev, jdead = np.empty(len(pos)), np.empty(len(pos), dtype=bool)
        solved = set()

    def solve(block: int) -> None:
        """Make and phase the junction rows whose straddling row is in
        NODE_BLOCK ``block``, in one ``junction_phases`` call on the block's
        tables, the ones its node checks read."""
        solved.add(block)
        j0 = block * NODE_BLOCK
        r = slice(*rows.searchsorted((j0, j0 + NODE_BLOCK)))
        j, c = rows[r], boundary[pos[r], None]
        cells = first[j, None] + np.arange(L)
        fv = np.zeros((len(j), 2, L), dtype=np.complex128)
        runs = ((lo[j, None] <= cells) & (cells < c), (c <= cells) & (cells < hi[j, None]))
        for side, (k, node), run in zip(fv.swapaxes(0, 1), pairs, runs):
            slots = np.minimum(np.maximum(cells - first[node[r], None], 0), L - 1)
            np.copyto(side, patches[k[r, None], slots], where=run)
        dead = np.abs(fv).max(axis=2) <= DEAD_OVERLAP_RTOL * scale
        E = block_exponentials(grid, first[j0 : j0 + NODE_BLOCK], freqs)
        jmu[r], dev = junction_phases(fv, conj_windows, E[j - j0], grid.delta, lattice_mags[:, j])
        jdead[r], jdev[r] = dead[:, 0], np.where(dead[:, 1], np.inf, dev)

    def enter(p: int) -> int:
        """Rank position p's orientations against the assembly, or its
        junction rows; returns how many fit, none with the reason noted when
        nothing does."""
        nonlocal sep_error, deepest
        ci, k0, k1 = live[p], start[p], start[p + 1]
        if p == 0:
            order[k0:k1], lams[k0:k1] = np.arange(k0, k1), 1.0
            return int(k1 - k0)
        # a filled side with no energy breaks propagation; a patch with no
        # energy in the straddling row does not fit
        at, c = pair_at[p], boundary[p]
        if at >= 0:
            if rows[at] // NODE_BLOCK not in solved:
                solve(rows[at] // NODE_BLOCK)
            before = order[start[p - 1] + placed[p - 1] - 1]
            at += (before - start[p - 1]) * (k1 - k0)
            dead = jdead[at]
        else:
            u = assembled[lo[ci] : c]
            dead = u.size == 0 or np.abs(u).max() <= DEAD_OVERLAP_RTOL * scale
        if dead:
            if sep_error is None:
                m = round(times[ci] / a)  # the lattice index
                sep_error = SeparableInputError(f"separable input: propagation broken at node {m}")
            return 0
        if at >= 0:
            lams[k0:k1] = lams[before] * jmu[at : at + k1 - k0]
            mismatch = dict(zip(range(k0, k1), jdev[at : at + k1 - k0].tolist()))
        else:
            norm_u = vector_norm(u)
            slots = slice(lo[ci] - first[ci], c - first[ci])
            mismatch = {}
            for k in range(k0, k1):
                v = patches[k, slots]
                lams[k], dist = phase_fit(u, v)
                mismatch[k] = float(dist / max(norm_u, vector_norm(v)))
        order[k0:k1] = ranked = sorted(mismatch, key=mismatch.__getitem__)
        if mismatch[ranked[0]] > ORIENT_TOL:
            if p > deepest[0]:
                deepest = (p, f"overlap mismatch {mismatch[ranked[0]]:.3e} at node index {ci}")
            return 0
        return next((n for n, k in enumerate(ranked) if mismatch[k] > ORIENT_TOL), len(ranked))

    # ready[ready_at[d]:ready_at[d + 1]] lists the lattice nodes (zero-class
    # ones too) whose on-horizon cells are all filled once d positions are
    # placed: every orientation at a position fills the same cells, and a
    # cell short of the boundary never changes below it, so a node's
    # magnitudes are final there and the last ones written are the
    # assembly's.  So a node is ready once its last cell is filled, first
    # if it has no on-horizon cell, and last if it has a cell outside
    # boundary[0]:boundary[-1], which no live window fills.
    first_at, last_at = boundary.searchsorted((lo, hi - 1), side="right")
    depth_of = np.where((first_at > 0) & (last_at <= n_live), last_at, n_live)
    depth_of[lo == hi] = 1
    ready = depth_of.argsort(kind="stable")
    ready_at = depth_of.searchsorted(np.arange(n_live + 2), sorter=ready)
    del first_at, last_at
    mag_tol = ACCEPT_TOL * max(float(lattice_mags.max(initial=0.0)), 1e-300)

    def first_miss(d0: int, d1: int) -> Optional[Tuple[int, str]]:
        """The first of depths d0 + 1 .. d1 whose nodes miss their lattice
        magnitudes, with its refusal, or None when they all fit.  The nodes
        are measured into ``mags`` with ``measure``'s kernel and tables: one
        call and one deviation per run of consecutive nodes inside one
        NODE_BLOCK, each node its own product.  The maximum over nodes is the
        whole-horizon deviation, and the first node in ready order (lattice
        order within a depth) that misses is named."""
        runs: List[List[int]] = []
        for j in ready[ready_at[d0 + 1] : ready_at[d1 + 1]].tolist():
            if runs and runs[-1][1] == j and j % NODE_BLOCK:
                runs[-1][1] = j + 1
            else:
                runs.append([j, j + 1])
        for j0, j1 in runs:
            got, b0 = mags[:, j0:j1], j0 - j0 % NODE_BLOCK
            E = block_exponentials(grid, first[b0 : b0 + NODE_BLOCK], freqs)
            node_magnitudes(windows[j0:j1, None], conj_windows, E[j0 - b0 : j1 - b0], grid.delta,
                            got[:, :, None])
            for j, dev in enumerate(sup_dev(got, lattice_mags[:, j0:j1], axis=(0, 2)).tolist(), j0):
                if dev > mag_tol:
                    return int(depth_of[j]), (
                        "no phase assignment reproduces the lattice magnitudes "
                        f"(best deviation {dev:.3e} at node index {j})")
        return None

    # depth first: positions 0 .. depth - 1 are open, and the next one to
    # enter is always ``depth``.  Every placement takes a budget step, so
    # with one free step per live position only backtracking (an
    # alternative, or a position entered again) runs it down.  The nodes of
    # depths up to ``checked`` fit; a placement whose next position's node
    # is in the same NODE_BLOCK goes on unchecked, one placement per depth
    # past ``checked``, and saved[d] holds the refusal notes as they stood
    # when depth d was placed, so a miss at depth d gives back the later
    # steps and leaves the state that checking every depth would
    saved: List[tuple] = [()] * (n_live + 1)
    budget = SEARCH_BUDGET + n_live
    depth = checked = 0
    while depth < n_live:
        fitting[depth], placed[depth] = enter(depth), 0
        depth += 1
        # place the next untried orientation at the deepest open position
        # over the cells the one before it filled, closing exhausted
        # positions once the depths up to them fit.  Cells past the
        # boundary keep what a closed position wrote until they are filled
        # again, and nothing reads them before
        while depth:
            p, i = depth - 1, placed[depth - 1]
            if i < fitting[p] and budget > 0:
                budget -= 1
                placed[p] = i + 1
                k, j = order[start[p] + i], live[p]
                values = patches[k, boundary[p] - first[j] : hi[j] - first[j]]
                assembled[boundary[p] : hi[j]] = lams[k] * values if p else values
                lam_of[j] = lams[k]
                checked = min(checked, p)
                saved[depth] = sep_error, deepest
                if depth < n_live and blocks[depth] == blocks[p]:
                    break  # the next position's node is in this block
                due = depth
            elif checked < p:
                due = p  # checking every depth would have passed p first
            elif i == fitting[p]:
                depth -= 1
                continue
            else:
                raise InconsistentMeasurements("orientation search budget exhausted")
            miss = first_miss(checked, due)
            if miss is None:
                checked = due
                if due == depth:
                    break
                continue
            depth, checked = miss[0], miss[0] - 1
            budget += due - depth
            sep_error, deepest = saved[depth]
            if depth > deepest[0]:
                deepest = miss
        else:
            if sep_error is not None:
                raise sep_error
            if deepest[0] >= 0:
                raise InconsistentMeasurements(deepest[1])
            raise InconsistentMeasurements("no phase assignment fits the overlaps")
    # a zero class vouches for its node's data, a node not recovered does not
    if n_live == 0 and any(c is None for c in classes):
        miss = first_miss(-1, 0)
        if miss is not None:
            raise InconsistentMeasurements(miss[1])
    # the search state goes before the output is made, not held beside it
    del patches, order, lams
    mags.setflags(write=False)

    # the zero signal has no second branch
    reflectable = n_live > 0 and all(c.includes_reflection for c in classes if c is not None)
    return AlignedAssembly(
        signal=Signal(grid, assembled),
        ambiguity="phase_or_reflection" if reflectable else "phase_only",
        lambdas=tuple(lam_of.tolist()),
        mags=mags,
        uncovered=uncovered,
    )


def _branch_verdict(
    direct: Tuple[Signal, np.ndarray],
    reflected: Tuple[Signal, np.ndarray],
    ms: MeasurementSet,
    rows: Sequence[int],
    refusal: str,
) -> Tuple[Tuple[Signal, np.ndarray], Optional[Signal]]:
    """Judge two (signal, magnitudes at every node) branches on the data
    ``rows`` and return (chosen, alternative): the direct branch if it fits,
    else the reflected one; the reflected signal is the alternative only when
    both fit, and neither fitting is refused with both deviations."""
    tol = ACCEPT_TOL * max(float(ms.mags.max()), 1e-300)
    dev_direct = sup_dev(direct[1][:, rows, :], ms.mags[:, rows, :])
    dev_reflect = sup_dev(reflected[1][:, rows, :], ms.mags[:, rows, :])
    if dev_direct <= tol:
        return direct, reflected[0] if dev_reflect <= tol else None
    if dev_reflect <= tol:
        return reflected, None
    raise InconsistentMeasurements(
        f"inconsistent measurements: {refusal} "
        f"(direct {dev_direct:.3e}, reflected {dev_reflect:.3e})"
    )


def _one_world(
    direct: Tuple[Signal, np.ndarray],
    reflected: Signal,
    align: PhaseAlignment,
    ms: MeasurementSet,
    pair: WindowPair,
    nodes: TimeNodes,
) -> Optional[Tuple[Signal, np.ndarray]]:
    """The branches' phase-aligned midpoint and its magnitudes at every node
    when the data do not resolve two worlds, else None.

    The midpoint of f and lam g, g = conj_reflect(f), is its own reflection
    up to the phase conj(lam).  It is measured only when the branches lie
    within ``ORIENT_TOL`` of each other, closer than the search tells two
    patches apart, and differ in some bit, and stands for both when it fits
    the data no worse than the direct branch: a nearly palindromic input
    comes back from a node at a branch point of its factorisation with its
    error along f - lam g, however small.  ``align`` is
    ``global_phase_align(f, g)``.
    """
    if align.residual > ORIENT_TOL:
        return None
    mid = Signal(pair.grid, (direct[0].samples + align.lam * reflected.samples) / 2)
    if mid.samples.tobytes() == direct[0].samples.tobytes():
        return None  # the branches agree to the last bit
    mags = measure(mid, pair, nodes, ms.freqs).mags
    return (mid, mags) if sup_dev(mags, ms.mags) <= sup_dev(direct[1], ms.mags) else None


def resolve_reflection(
    assembly: AlignedAssembly,
    ms: MeasurementSet,
    pair: WindowPair,
    nodes: TimeNodes,
) -> ReconstructionReport:
    """Decide between the assembled signal and its conjugate reflection.

    An internal step of ``reconstruct``: ``assembly`` must be
    ``align_overlaps``' output for the lattice rows of ``ms``, under the
    lattice contract stated there.

    The reflected branch is reflected about the center of the node span.  If
    it is not representable on the horizon, or its lattice measurements
    differ from the data, the direct branch stands alone (for finite-support
    inputs the reflected world forces magnitude relations that fail on
    re-measurement).  Two branches that both fit the lattice are one world,
    their midpoint, when the data do not resolve them (``_one_world``); a
    reflected branch within ``EQUIV_TOL`` of the direct one is that world
    already, and is not measured: the midpoint stands for both when it fits
    no worse, else the direct branch does.
    Otherwise, with an anchor node, whichever branch reproduces the
    anchor magnitudes is selected; if both do, the ambiguity is reported
    unresolved rather than silently picked.  The direct branch's lattice
    magnitudes come with the assembly, so only its anchor row (if any), the
    reflected branch and a midpoint are measured, each once; every judgment
    and the residual read those magnitudes.
    """
    mag_scale = max(float(ms.mags.max()), 1e-300)
    lat_rows = nodes.lattice_rows
    direct = assembly.mags
    if nodes.anchor_index is not None:
        # each node's product stands alone, so the anchor row measured by
        # itself has the bits it has in a whole-set measurement
        direct = np.empty(ms.mags.shape)
        direct[:, lat_rows] = assembly.mags
        only_anchor = replace(nodes, times=(nodes.anchor,))
        anchor_ms = measure(assembly.signal, pair, only_anchor, ms.freqs)
        direct[:, nodes.anchor_index] = anchor_ms.mags[:, 0]
    chosen = (assembly.signal, direct)
    alternative: Optional[Signal] = None
    anchor_used = False
    if assembly.ambiguity == "phase_or_reflection":
        lat_times = nodes.lattice_times
        try:
            reflected = conj_reflect(assembly.signal, (lat_times[0] + lat_times[-1]) / 2.0)
        except (ReflectionRangeError, OffGridError):
            reflected = None
        align = None if reflected is None else global_phase_align(assembly.signal, reflected)
        if align is not None and align.residual <= EQUIV_TOL:
            # one world already: its branches' midpoint stands for it when
            # it fits no worse, else the direct branch does
            chosen = _one_world(chosen, reflected, align, ms, pair, nodes) or chosen
        elif align is not None:
            got = measure(reflected, pair, nodes, ms.freqs).mags
            if sup_dev(got[:, lat_rows, :], ms.mags[:, lat_rows, :]) <= ACCEPT_TOL * mag_scale:
                one = _one_world(chosen, reflected, align, ms, pair, nodes)
                if one is not None:
                    chosen = one
                else:
                    # with no anchor row to judge them, both branches fit
                    anchor_used = nodes.anchor_index is not None
                    anchor_rows = [nodes.anchor_index] if anchor_used else []
                    chosen, alternative = _branch_verdict(
                        chosen, (reflected, got), ms, anchor_rows,
                        "neither branch matches the anchor data",
                    )

    residual = sup_dev(chosen[1], ms.mags) / mag_scale
    if residual > ACCEPT_TOL:
        raise InconsistentMeasurements(
            f"reconstruction residual {residual:.3e} exceeds accept_tol {ACCEPT_TOL:.1e}"
        )
    return ReconstructionReport(
        signal=chosen[0],
        ambiguity="phase_only" if alternative is None else "phase_or_reflection",
        residual=residual,
        lambdas=assembly.lambdas,
        anchor_used=anchor_used,
        alternative=alternative,
        uncovered=assembly.uncovered,
    )


def _require_alias_period(ms: MeasurementSet, grid: GridSpec, what: str) -> None:
    """Refuse data short of the critical grid's one full alias period."""
    if ms.freqs.mode != "critical" or ms.freqs.N != grid.L:
        raise ValueError(
            f"{what} needs the critical frequency grid with one full alias period "
            f"(N = L = {grid.L})"
        )


def reconstruct(
    ms: MeasurementSet,
    pair: WindowPair,
) -> ReconstructionReport:
    """Recover the signal from lattice magnitude data, up to global phase.

    Runs local recovery at the lattice nodes, chains phases across the
    overlaps, and settles the reflection branch (with anchor data when the
    node set carries an anchor).  The step fits into B m = (L // 2) // k_a
    >= 1 times (k_a its cells), and only rows r0, r0 + 2m, r0 + 4m, ... and
    a last row end are recovered, chosen by the cells their windows hold
    (every other row at a = B): r0 is the last row whose
    on-horizon cells start where row 0's do, and end the first whose cells
    end where the last row's do, so the windows abut (or overlap) and cover
    the cells the lattice covers; when end <= r0 its window holds them all
    and it is the only row recovered.  (A lattice that reaches no horizon
    edge recovers rows 0, 2m, ... and its last.)  Each junction is phased
    from the row that straddles it, and every other row's magnitudes are
    still checked by the search.  A refusal of that pass (a
    ``RecoveryError`` at one of its nodes, or a ``StitchError`` or
    ``InconsistentMeasurements`` from the search or the reflection step)
    recovers the remaining rows, keeps the classes already made and runs
    the search on the whole lattice, whose result or refusal is final.
    Both passes hand ``recover_rows`` the rows that have no class yet,
    ``NODE_BLOCK`` at a time, so a block that refuses leaves its rows to
    the whole-lattice pass.
    The output always re-measures to the input within ``ACCEPT_TOL``;
    failures surface as declared errors, never as a silently wrong signal.
    Horizon cells under no lattice node window are beyond the data: they
    come back zero and are listed in the report's ``uncovered`` (with
    a <= B they can only sit at the two ends).
    """
    grid = pair.grid
    nodes = ms.nodes
    if nodes.mode not in ("lattice", "lattice_plus_anchor"):
        raise ValueError(
            f"reconstruction needs lattice measurements, got node mode {nodes.mode!r}"
        )
    a = nodes.a
    if a is None:
        raise ValueError("reconstruction needs a lattice step")
    if a > grid.B + 1e-12:
        raise ValueError("a > B unsupported for reconstruction")
    times = nodes.lattice_times  # the anchor may sit anywhere
    k_a = _lattice_step(grid, times, a)
    _require_alias_period(ms, grid, "reconstruction")
    # refused before any row is recovered: every patch is divided by phi
    phi = pair.slot_values("phi")
    cond = float(np.abs(phi).max() / np.abs(phi).min())
    if cond > COND_MAX:
        raise ValueError(
            f"window division amplification {cond:.3e} exceeds cond_max {COND_MAX:.0e}"
        )

    # the anchor is stored last, so the lattice rows are a view, not a copy
    lat_rows = nodes.lattice_rows
    lattice_mags = ms.mags[:, : len(lat_rows)]
    scale = float(lattice_mags.max()) if lat_rows else 0.0
    n, m = len(lat_rows), (grid.L // 2) // k_a
    classes: List[Optional[LocalClass]] = [None] * n

    def aligned(rows) -> AlignedAssembly:
        """Recover the given rows that have no class yet, ``NODE_BLOCK`` at
        a time, then search."""
        todo = [i for i in rows if classes[i] is None]
        for k in range(0, len(todo), NODE_BLOCK):
            block = todo[k : k + NODE_BLOCK]
            for i, cls in zip(block, recover_rows(*lattice_mags[:, block], pair, scale=scale)):
                classes[i] = cls
        return align_overlaps(
            classes, pair, a, times=times, lattice_mags=lattice_mags, freqs=ms.freqs
        )

    if n:  # an anchor alone leaves no lattice row
        _, lo, hi = _window_runs(grid, times)
        r0, end = int(lo.searchsorted(lo[0], side="right")) - 1, int(hi.searchsorted(hi[-1]))
        try:
            sparse = aligned([*range(r0, end, 2 * m), end])
            return resolve_reflection(sparse, ms, pair, nodes)
        except (RecoveryError, StitchError):
            pass  # the whole lattice decides
    assembly = aligned(range(n))
    # the classes are dropped once aligned, before the branches are judged
    del classes
    return resolve_reflection(assembly, ms, pair, nodes)


def periodic_verdict(
    ms: MeasurementSet,
    pair: WindowPair,
    spec: PeriodicSpec,
    Q: int,
) -> ReconstructionReport:
    """Judge two-line magnitude data against the quasi-periodic family.

    Fits a degree-Q trigonometric polynomial (quasi-period phase from
    ``spec``) to the first line's recovered content, then scores the fitted
    signal and its conjugate reflection about the first line against the
    full data, each measured once at both lines.  Every class of the first
    line is tried in turn, because the one the family lives on may be the
    reflected mate; when none explains both lines, the first class's
    refusal is raised.  Both branches surviving means the line offset failed
    to separate them: that is the exponential family when only one
    coefficient is live, and reported non-uniqueness otherwise.
    """
    grid = pair.grid
    nodes = ms.nodes
    if nodes.mode != "two_lines":
        raise ValueError(f"periodic verdict needs two time nodes, got {nodes.mode!r}")
    if not (0 < spec.T <= 2 * grid.B):
        raise ValueError(f"period T = {spec.T!r} outside (0, 2B]")
    k_T = grid.cells(spec.T, "period T")
    if 2 * Q + 1 > min(grid.L, k_T):
        raise ValueError(
            f"family bound Q = {Q} needs 2Q+1 sample cells per period and per "
            f"window, got min(L, T/delta) = {min(grid.L, k_T)}"
        )
    _require_alias_period(ms, grid, "periodic verdict")
    # line 0 is recovered on the window's slot samples, so it must sit on
    # the grid; line 1 is only measured, and may sit anywhere
    t0 = nodes.times[0]
    grid.cells(t0, "line t0")

    # both lines read zero exactly when the largest magnitude is 0
    scale = float(ms.mags.max())
    if scale == 0.0:
        zero = Signal(grid, np.zeros(grid.horizon, dtype=np.complex128))
        return ReconstructionReport(
            signal=zero, ambiguity="phase_only", residual=0.0, lambdas=(1.0 + 0j, 1.0 + 0j)
        )
    cls0 = recover_local(ms.mags[0, 0], ms.mags[1, 0], pair, scale=scale)

    # unwind the window on the first line; each of its classes is fitted in
    # turn, since the one that carries the family may be the reflected mate
    seg = node_segment(grid, t0, pair=pair, which=("phi",))
    factor, rem = period_split(spec, grid.x(seg.cells)[seg.on])
    ks = np.arange(-Q, Q + 1)
    A = factor[:, None] * np.exp(2j * np.pi * np.outer(rem, ks) / spec.T)
    refusals = []
    for content in cls0.representatives:
        coef, *_ = np.linalg.lstsq(A, (content / seg.conj_windows[0])[seg.on], rcond=None)
        fitted = replace(spec, coefficients={int(kk): complex(cc) for kk, cc in zip(ks, coef)})
        direct = make_periodic(fitted, grid)
        reflected = Signal(grid, np.conj(periodic_eval(fitted, 2 * t0 - grid.coords())))
        try:
            (cand, got), alt = _branch_verdict(
                (direct, measure(direct, pair, nodes, ms.freqs).mags),
                (reflected, measure(reflected, pair, nodes, ms.freqs).mags),
                ms, [0, 1], "no family member explains both lines",
            )
        except InconsistentMeasurements as exc:
            refusals.append(exc)
            continue
        live = [int(kk) for kk, cc in zip(ks, coef) if abs(cc) > 1e-8 * max(np.abs(coef))]
        if alt is not None and len(live) <= 1:
            ambiguity, alt = "exponential_family", None
        else:
            ambiguity = "phase_only" if alt is None else "phase_or_reflection"
        return ReconstructionReport(
            signal=cand,
            ambiguity=ambiguity,
            residual=sup_dev(got, ms.mags) / max(scale, 1e-300),
            lambdas=(1.0 + 0j, 1.0 + 0j),
            alternative=alt,
        )
    raise refusals[0]
