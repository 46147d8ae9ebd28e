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
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .signal_model import (
    GridSpec,
    OffGridError,
    PeriodicSpec,
    ReflectionRangeError,
    Signal,
    conj_reflect,
    equivalent_up_to_phase,
    make_periodic,
    mu_powers,
    periodic_eval,
    phase_fit,
)
from .window_engine import WindowPair
from .stft_engine import (
    NODE_BLOCK,
    FrequencyGrid,
    MeasurementSet,
    TimeNodes,
    measure,
    node_exponentials,
    node_magnitudes,
    node_segment,
)
from .local_recovery import (
    ACCEPT_TOL,
    InconsistentMeasurements,
    LocalClass,
    recover_local,
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
    signal: Signal
    ambiguity: str
    lambdas: Tuple[complex, ...]
    #: the signal's own magnitudes at the lattice nodes, shape (2, nodes,
    #: bins), bit for bit what ``measure`` gives at those nodes
    mags: np.ndarray
    #: horizon cells under none of the node windows
    uncovered: Tuple[int, ...] = ()


def align_overlaps(
    classes: Sequence[LocalClass],
    pair: WindowPair,
    a: float,
    *,
    times: Sequence[float],
    lattice_mags: np.ndarray,
    freqs: FrequencyGrid,
) -> AlignedAssembly:
    """Chain per-node phases across window overlaps and divide out the window.

    Node phases are fixed by setting the first nonzero node to 1 and
    aligning every later patch on the samples it shares with what has been
    assembled so far.  A node whose class carries a reflected mate gives the
    chain a branch point; a nearly symmetric overlap can fit both, so the
    orientations are searched depth first (best fit first, on an explicit
    stack) instead of greedily locked in.  Each node's magnitudes are
    checked against ``lattice_mags`` as soon as every cell of its window is
    filled, which rejects chains that glued a mate through an overlap too
    small to expose it, without waiting for the last node.  The assembly
    carries every lattice node's magnitudes of the final signal: the last
    ones the checks wrote, or, with no branch point to check, ones made
    once the chain is done.  Ambiguity is
    phase_or_reflection exactly when every node would tolerate the reflected
    world.  ``uncovered`` lists the horizon cells that no node window holds.

    A live overlap that fits neither orientation means the magnitudes were
    inconsistent; an overlap with no energy means the input is separable
    there and propagation stops with a declared error.
    """
    grid = pair.grid
    if a > grid.B + 1e-12:
        raise ValueError(f"lattice step a = {a!r} exceeds B = {grid.B!r}")
    phi = pair.slot_values("phi")
    cond = float(np.max(np.abs(phi)) / np.min(np.abs(phi)))
    if cond > COND_MAX:
        raise ValueError(
            f"window division amplification {cond:.3e} exceeds cond_max {COND_MAX:.0e}"
        )
    inv_phi = 1.0 / np.conj(phi)
    if len(times) != len(classes):
        raise ValueError(f"{len(classes)} classes for {len(times)} node times")

    scale = max(
        (float(np.max(np.abs(c.representative))) for c in classes if not c.is_zero),
        default=0.0,
    )

    # one geometry pass: every node's cells and windows serve the coverage,
    # the live patches, the node checks and the assembly's magnitudes.  The
    # on-horizon part of a window is one run of cells, held as a slice of
    # the horizon and the matching slice of the window's slots.
    segs = [node_segment(grid, t, None, pair) for t in times]
    mags = np.empty((2, len(times), len(freqs.omegas)))
    spans: List[Tuple[slice, slice]] = []
    for seg in segs:
        k_lo = int(seg.cells[0])
        lo, hi = (min(max(edge - k_lo, 0), grid.L) for edge in (0, grid.horizon))
        spans.append((slice(k_lo + lo, k_lo + hi), slice(lo, hi)))
    live: List[Tuple[int, float, slice, slice, List[np.ndarray]]] = []
    covered = np.zeros(grid.horizon, dtype=bool)
    for ci, (cls, seg, (cells, slots)) in enumerate(zip(classes, segs, spans)):
        covered[cells] = True
        if cls.is_zero:
            continue
        patches = [o * inv_phi for o in cls.representatives]
        if 0 < cells.stop - cells.start < grid.L:
            # an orientation claiming content on off-horizon cells cannot
            # come from any representable signal; only the stitcher can see
            # this, the single-node data is blind to it
            patches = [
                p
                for p in patches
                if np.max(np.abs(p[~seg.on]), initial=0.0) <= DEAD_OVERLAP_RTOL * scale
            ]
        if not patches:
            raise InconsistentMeasurements(
                f"no horizon-consistent orientation at node index {ci}"
            )
        live.append((ci, times[ci], cells, slots, patches))

    # one assembly buffer and one phase list, written on the way down and
    # undone on backtracking, so a search position holds O(L), not O(horizon)
    assembled = np.zeros(grid.horizon, dtype=np.complex128)
    filled = np.zeros(grid.horizon, dtype=bool)
    lams: List[Tuple[int, complex]] = []
    sep_error: Optional[SeparableInputError] = None
    deepest: Tuple[int, str] = (-1, "")

    @lru_cache(maxsize=1)
    def exponentials(run: int) -> np.ndarray:
        """The exponential tables of the run'th NODE_BLOCK nodes: nodes are
        measured nearly in order, and a long horizon never holds a table
        for every node at once."""
        nodes = segs[run * NODE_BLOCK : (run + 1) * NODE_BLOCK]
        return node_exponentials(grid, nodes, freqs.omegas)

    def measure_node(j: int) -> None:
        """Write node j's magnitudes of the assembly to ``mags[:, j]``, with
        ``measure``'s product, so the bits are the ones it would give."""
        run, at = divmod(j, NODE_BLOCK)
        cells, slots = spans[j]
        fv = np.zeros((1, grid.L), dtype=np.complex128)
        fv[:, slots] = assembled[cells]
        E = exponentials(run)[at]
        node_magnitudes(segs[j]._replace(samples=fv), E, grid.delta, mags[None, :, j])

    # ready[d] lists the lattice nodes (zero-class ones too) whose on-horizon
    # cells are all filled once d search positions are placed: every
    # orientation at a position fills the same cells, and a filled cell never
    # changes below it, so a node's magnitudes are final there, and the last
    # ones written are the assembly's.  A node with a cell no live window
    # fills is checked with the last position.
    ready: List[List[int]] = [[] for _ in range(len(live) + 1)]
    checked = any(len(n[4]) > 1 for n in live)
    if checked:
        depth = np.full(grid.horizon, len(live))
        for pos in range(len(live) - 1, -1, -1):
            depth[live[pos][2]] = pos + 1
        for j, (cells, _) in enumerate(spans):
            ready[int(np.max(depth[cells], initial=1))].append(j)
        mag_tol = ACCEPT_TOL * max(float(np.max(lattice_mags)), 1e-300)

    def fits(d: int) -> bool:
        """Whether the nodes completed at depth d reproduce their lattice
        magnitudes; the maximum over nodes is the whole-horizon deviation."""
        nonlocal deepest
        for j in ready[d]:
            measure_node(j)
            dev = float(np.abs(mags[:, j] - lattice_mags[:, j]).max())
            if dev > mag_tol:
                if d > deepest[0]:
                    deepest = (
                        d,
                        f"no phase assignment reproduces the lattice magnitudes "
                        f"(best deviation {dev:.3e} at node index {j})",
                    )
                return False
        return True

    def options_at(pos: int) -> List[Tuple[Union[slice, np.ndarray], np.ndarray, complex]]:
        """The orientations to try at ``pos``, best fit first, as (cells,
        values, lambda); empty, with the reason noted, when none fits."""
        nonlocal sep_error, deepest
        ci, t, cells, slots, patches = live[pos]
        if pos == 0:
            return [(cells, patch[slots], 1.0 + 0.0j) for patch in patches]
        ov = filled[cells]
        u = assembled[cells][ov]
        if u.size == 0 or np.abs(u).max() <= DEAD_OVERLAP_RTOL * scale:
            if sep_error is None:
                m_label = round(t / a) if a else ci
                sep_error = SeparableInputError(
                    f"separable input: propagation broken at node {m_label}"
                )
            return []
        scored = []
        norm_u = np.linalg.norm(u)
        for patch in patches:
            v = patch[slots][ov]
            lam, dist = phase_fit(u, v)
            mismatch = float(dist / max(norm_u, np.linalg.norm(v)))
            scored.append((mismatch, lam, patch))
        scored.sort(key=lambda s: s[0])
        if scored[0][0] > ORIENT_TOL:
            if pos > deepest[0]:
                deepest = (pos, f"overlap mismatch {scored[0][0]:.3e} at node index {ci}")
            return []
        new = ~ov
        new_cells = np.flatnonzero(new) + cells.start
        options = []
        for mismatch, lam, patch in scored:
            if mismatch > ORIENT_TOL:
                break
            options.append((new_cells, lam * patch[slots][new], complex(lam)))
        return options

    # depth first with an explicit stack: frames[p] holds position p's
    # options and how many of them have been placed; the next position to
    # enter is always len(frames).  Every placement takes a budget step, so
    # with one free step per live position only backtracking (an alternative,
    # or a position entered again) runs it down
    frames: List[list] = []
    budget = SEARCH_BUDGET + len(live)
    while len(frames) < len(live):
        frames.append([options_at(len(frames)), 0])
        # place the next untried orientation at the deepest open position,
        # undoing the one placed there before (the cells it fills were
        # empty) and closing exhausted positions
        while frames:
            options, i = frames[-1]
            if i:
                cells = options[i - 1][0]
                assembled[cells] = 0.0
                filled[cells] = False
                lams.pop()
            if i == len(options):
                frames.pop()
                continue
            if budget <= 0:
                raise InconsistentMeasurements("orientation search budget exhausted")
            budget -= 1
            frames[-1][1] = i + 1
            cells, values, lam = options[i]
            assembled[cells] = values
            filled[cells] = True
            lams.append((live[len(frames) - 1][0], lam))
            if fits(len(frames)):
                break
        else:
            if sep_error is not None:
                raise sep_error
            if deepest[0] >= 0:
                raise InconsistentMeasurements(deepest[1])
            raise InconsistentMeasurements("no phase assignment fits the overlaps")
    lam_map = dict(lams)
    lambdas = tuple(lam_map.get(ci, 1.0 + 0.0j) for ci in range(len(classes)))
    if not checked:
        for j in range(len(segs)):
            measure_node(j)
    mags.setflags(write=False)

    # the zero signal has no second branch
    reflectable = bool(live) and all(c.includes_reflection for c in classes)
    return AlignedAssembly(
        signal=Signal(grid, assembled),
        ambiguity="phase_or_reflection" if reflectable else "phase_only",
        lambdas=lambdas,
        mags=mags,
        uncovered=tuple(np.flatnonzero(~covered).tolist()),
    )


def _sup_dev(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want))) if want.size else 0.0


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
    tol = ACCEPT_TOL * max(float(np.max(ms.mags)), 1e-300)
    dev_direct = _sup_dev(direct[1][:, rows, :], ms.mags[:, rows, :])
    dev_reflect = _sup_dev(reflected[1][:, rows, :], ms.mags[:, rows, :])
    if dev_direct <= tol:
        return direct, reflected[0] if dev_reflect <= tol else None
    if dev_reflect <= tol:
        return reflected, None
    raise InconsistentMeasurements(
        f"inconsistent measurements: {refusal} "
        f"(direct {dev_direct:.3e}, reflected {dev_reflect:.3e})"
    )


def resolve_reflection(
    assembly: AlignedAssembly,
    ms: MeasurementSet,
    pair: WindowPair,
    nodes: TimeNodes,
) -> ReconstructionReport:
    """Decide between the assembled signal and its conjugate reflection.

    The reflected branch is reflected about the center of the node span.  If
    it is not representable on the horizon, or its lattice measurements
    differ from the data, the direct branch stands alone (for finite-support
    inputs the reflected world forces magnitude relations that fail on
    re-measurement).  With an anchor node, whichever branch reproduces the
    anchor magnitudes is selected; if both do, the ambiguity is reported
    unresolved rather than silently picked.  The direct branch's lattice
    magnitudes come with the assembly, so only its anchor row (if any) and
    the reflected branch are measured, each once; every judgment and the
    residual read those magnitudes.
    """
    mag_scale = max(float(np.max(ms.mags)), 1e-300)
    lat_rows = nodes.lattice_rows
    direct = assembly.mags
    if nodes.anchor_index is not None:
        # each node's product stands alone, so the anchor row measured by
        # itself has the bits it has in a whole-set measurement
        direct = np.empty(ms.mags.shape)
        direct[:, lat_rows] = assembly.mags
        only_anchor = replace(nodes, times=(nodes.anchor,), anchor_index=0)
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
        if reflected is not None and not equivalent_up_to_phase(assembly.signal, reflected):
            got = measure(reflected, pair, nodes, ms.freqs).mags
            if _sup_dev(got[:, lat_rows, :], ms.mags[:, lat_rows, :]) <= ACCEPT_TOL * mag_scale:
                # with no anchor row to judge them, both branches fit
                anchor_used = nodes.anchor_index is not None
                anchor_rows = [nodes.anchor_index] if anchor_used else []
                chosen, alternative = _branch_verdict(
                    chosen, (reflected, got), ms, anchor_rows,
                    "neither branch matches the anchor data",
                )

    residual = _sup_dev(chosen[1], ms.mags) / mag_scale
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

    Runs local recovery at every lattice node, chains phases across the
    overlaps, and settles the reflection branch (with anchor data when the
    node set carries an anchor).  The output always re-measures to the input
    within ``ACCEPT_TOL``; failures surface as declared errors, never as a
    silently wrong signal.  Horizon cells under no lattice node window are
    beyond the data: they come back zero and are listed in the report's
    ``uncovered`` (with a <= B they can only sit at the two ends).
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
    grid.cells(a, "lattice step a")
    _require_alias_period(ms, grid, "reconstruction")

    lat_rows = nodes.lattice_rows
    lattice_mags = ms.mags[:, lat_rows, :]
    scale = float(np.max(lattice_mags)) if lat_rows else 0.0
    classes = [
        recover_local(phi, psi, pair, scale=scale) for phi, psi in zip(*lattice_mags)
    ]
    assembly = align_overlaps(
        classes,
        pair,
        a,
        times=nodes.lattice_times,
        lattice_mags=lattice_mags,
        freqs=ms.freqs,
    )
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

    t0 = nodes.times[0]
    scale = float(np.max(ms.mags))
    cls0 = recover_local(ms.mags[0, 0], ms.mags[1, 0], pair, scale=scale)
    # line 1 is recovered only to detect all-zero data; otherwise the branch
    # verdict below judges its magnitudes
    if cls0.is_zero and recover_local(ms.mags[0, 1], ms.mags[1, 1], pair, scale=scale).is_zero:
        zero = Signal(grid, np.zeros(grid.horizon, dtype=np.complex128))
        return ReconstructionReport(
            signal=zero, ambiguity="phase_only", residual=0.0, lambdas=(1.0 + 0j, 1.0 + 0j)
        )

    # unwind the window on the first line; each of its classes is fitted in
    # turn, since the one that carries the family may be the reflected mate
    phi = pair.slot_values("phi")
    seg = node_segment(grid, t0)
    xs = grid.x(seg.cells)[seg.on]
    cell = np.floor(xs / spec.T + 1e-9)
    rem = xs - cell * spec.T
    ks = np.arange(-Q, Q + 1)
    mu_pow = mu_powers(spec.mu, -cell.astype(np.int64))
    A = mu_pow[:, None] * np.exp(2j * np.pi * np.outer(rem, ks) / spec.T)
    refusals = []
    for content in cls0.representatives:
        coef, *_ = np.linalg.lstsq(A, (content / np.conj(phi))[seg.on], rcond=None)
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
            residual=_sup_dev(got, ms.mags) / max(scale, 1e-300),
            lambdas=(1.0 + 0j, 1.0 + 0j),
            alternative=alt,
        )
    raise refusals[0]
