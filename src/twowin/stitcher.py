"""Assemble local classes across lattice nodes into one signal.

Each node contributes its windowed content up to a phase (and possibly a
conjugate reflection).  Overlaps between consecutive windows carry the phase
from node to node; a dead overlap means the input was separable there and the
data genuinely underdetermines the signal, so that is a declared error rather
than a guess.  A surviving global reflection ambiguity is settled afterwards
by re-measuring the reflected branch, and by anchor data when present.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

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
    periodic_eval,
)
from .window_engine import WindowPair
from .stft_engine import FrequencyGrid, MeasurementSet, TimeNodes, _segment_start, measure
from .local_recovery import (
    ACCEPT_TOL,
    InconsistentMeasurements,
    LocalClass,
    recover_local,
    slot_reflect,
)

#: Aligned overlaps must agree to this relative mismatch.
ORIENT_TOL = 1e-6

#: Largest tolerated max/min window magnitude ratio when dividing it out.
COND_MAX = 1e6

#: Overlap content below this fraction of the global scale cannot carry phase.
DEAD_OVERLAP_RTOL = 1e-9


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


@dataclass(frozen=True)
class AlignedAssembly:
    signal: Signal
    ambiguity: str
    lambdas: Tuple[complex, ...]


def _window_cells(grid: GridSpec, t: float) -> Tuple[np.ndarray, np.ndarray]:
    """Absolute sample indices under the window at t, and which are on-horizon."""
    k_lo = _segment_start(grid, t)
    k = np.arange(k_lo, k_lo + grid.L)
    return k, (k >= 0) & (k < grid.horizon)


def align_overlaps(
    classes: Sequence[LocalClass],
    pair: WindowPair,
    a: float,
    gap: float,
    *,
    times: Optional[Sequence[float]] = None,
    lattice_mags: Optional[np.ndarray] = None,
    freqs: Optional[FrequencyGrid] = None,
    accept_tol: float = ACCEPT_TOL,
) -> AlignedAssembly:
    """Chain per-node phases across window overlaps and divide out the window.

    Node phases are fixed by setting the first nonzero node to 1 and
    aligning every later patch on the samples it shares with what has been
    assembled so far.  A node whose class carries a reflected mate gives the
    chain a branch point; a nearly symmetric overlap can fit both, so the
    orientations are searched depth first (best fit first) instead of
    greedily locked in.  When ``lattice_mags`` is given, a completed
    assignment is only accepted if it re-measures to that data, which
    rejects chains that glued a mate through an overlap too small to expose
    it.  Ambiguity is phase_or_reflection exactly when every node would
    tolerate the reflected world.

    A live overlap that fits neither orientation means the magnitudes were
    inconsistent; an overlap with no energy means the input is separable
    there and propagation stops with a declared error.
    """
    grid = pair.grid
    if abs(gap - (2 * grid.B - a)) > 1e-9:
        raise ValueError(f"gap {gap!r} is not 2B - a = {2 * grid.B - a!r}")
    if a > grid.B + 1e-12:
        raise ValueError(f"lattice step a = {a!r} exceeds B = {grid.B!r}")
    phi = pair.slot_values("phi")
    cond = float(np.max(np.abs(phi)) / np.min(np.abs(phi)))
    if cond > COND_MAX:
        raise ValueError(
            f"window division amplification {cond:.3e} exceeds cond_max {COND_MAX:.0e}"
        )
    inv_phi = 1.0 / np.conj(phi)
    if times is None:
        times = [m * a for m in range(len(classes))]
    if len(times) != len(classes):
        raise ValueError(f"{len(classes)} classes for {len(times)} node times")

    scale = max(
        (float(np.max(np.abs(c.representative))) for c in classes if not c.is_zero),
        default=0.0,
    )

    live: List[Tuple[int, float, np.ndarray, np.ndarray, List[np.ndarray]]] = []
    for ci, (cls, t) in enumerate(zip(classes, times)):
        if cls.is_zero:
            continue
        k, on = _window_cells(grid, t)
        # an orientation claiming content on off-horizon cells cannot come
        # from any representable signal; only the stitcher can see this, the
        # single-node data is blind to it
        patches = [
            o * inv_phi
            for o in cls.representatives
            if not np.any(on)
            or np.all(on)
            or np.max(np.abs((o * inv_phi)[~on]), initial=0.0)
            <= DEAD_OVERLAP_RTOL * scale
        ]
        if not patches:
            raise InconsistentMeasurements(
                f"no horizon-consistent orientation at node index {ci}"
            )
        live.append((ci, t, k, on, patches))

    validating = lattice_mags is not None and any(len(n[4]) > 1 for n in live)
    if validating:
        lat_nodes = TimeNodes(mode="lattice", times=tuple(times), a=a)
        mag_scale = max(float(np.max(lattice_mags)), 1e-300)

    sep_error: List[Optional[SeparableInputError]] = [None]
    deepest: List[Tuple[int, str]] = [(-1, "")]
    budget = [100_000]

    # one assembly buffer and one phase list, written on the way down and
    # undone on backtracking, so a search level holds O(L), not O(horizon)
    assembled = np.zeros(grid.horizon, dtype=np.complex128)
    filled = np.zeros(grid.horizon, dtype=bool)
    lams: List[Tuple[int, complex]] = []

    def search(pos: int) -> Optional[Tuple[np.ndarray, List[Tuple[int, complex]]]]:
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
            options = [(k[on], patch[on], 1.0 + 0.0j) for patch in patches]
        else:
            ov = on & filled[np.clip(k, 0, grid.horizon - 1)]
            u = assembled[k[ov]]
            if u.size == 0 or np.max(np.abs(u)) <= DEAD_OVERLAP_RTOL * scale:
                if sep_error[0] is None:
                    m_label = round(t / a) if a else ci
                    sep_error[0] = SeparableInputError(
                        f"separable input: propagation broken at node {m_label}"
                    )
                return None
            scored = []
            for patch in patches:
                v = patch[ov]
                ip = np.vdot(v, u)
                lam = ip / abs(ip) if abs(ip) > 0 else 1.0 + 0.0j
                mismatch = float(
                    np.linalg.norm(u - lam * v) / max(np.linalg.norm(u), np.linalg.norm(v))
                )
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
                options.append((k[new], lam * patch[new], complex(lam)))
        # place each orientation in turn; the cells it fills were empty, so
        # backtracking clears them again
        for cells, values, lam in options:
            assembled[cells] = values
            filled[cells] = True
            lams.append((ci, lam))
            res = search(pos + 1)
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
    assembled, lams = result
    lam_map = dict(lams)
    lambdas = tuple(lam_map.get(ci, 1.0 + 0.0j) for ci in range(len(classes)))

    if not live:
        ambiguity = "phase_only"  # the zero signal has no second branch
    elif all(c.includes_reflection for c in classes):
        ambiguity = "phase_or_reflection"
    else:
        ambiguity = "phase_only"
    return AlignedAssembly(
        signal=Signal(grid, assembled),
        ambiguity=ambiguity,
        lambdas=lambdas,
    )


def _sup_dev(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want))) if want.size else 0.0


def _lattice_only(nodes: TimeNodes) -> TimeNodes:
    if nodes.mode == "lattice":
        return nodes
    return TimeNodes(mode="lattice", times=tuple(nodes.lattice_times), a=nodes.a)


def resolve_reflection(
    assembly: AlignedAssembly,
    ms: MeasurementSet,
    pair: WindowPair,
    nodes: TimeNodes,
    *,
    accept_tol: float = ACCEPT_TOL,
) -> ReconstructionReport:
    """Decide between the assembled signal and its conjugate reflection.

    The reflected branch is reflected about the center of the node span.  If
    it is not representable on the horizon, or its lattice measurements
    differ from the data, the direct branch stands alone (for finite-support
    inputs the reflected world forces magnitude relations that fail on
    re-measurement).  With an anchor node, whichever branch reproduces the
    anchor magnitudes is selected; if both do, the ambiguity is reported
    unresolved rather than silently picked.
    """
    grid = pair.grid
    cand = assembly.signal
    mag_scale = max(float(np.max(ms.mags)), 1e-300)
    anchor_used = False
    alternative: Optional[Signal] = None
    ambiguity = assembly.ambiguity

    if ambiguity == "phase_or_reflection":
        lat_times = nodes.lattice_times
        center = (lat_times[0] + lat_times[-1]) / 2.0
        reflected: Optional[Signal] = None
        try:
            reflected = conj_reflect(cand, center)
        except (ReflectionRangeError, OffGridError):
            reflected = None

        if reflected is None or equivalent_up_to_phase(cand, reflected):
            ambiguity = "phase_only"
        else:
            lat_nodes = _lattice_only(nodes)
            lat_rows = [i for i, t in enumerate(nodes.times) if i != nodes.anchor_index]
            got = measure(reflected, pair, lat_nodes, ms.freqs).mags
            want = ms.mags[:, lat_rows, :]
            if _sup_dev(got, want) > accept_tol * mag_scale:
                ambiguity = "phase_only"
            elif nodes.anchor_index is None:
                alternative = reflected
            else:
                t0 = nodes.times[nodes.anchor_index]
                anchor_nodes = TimeNodes(mode="lattice", times=(t0,), a=None)
                want_anchor = ms.mags[:, [nodes.anchor_index], :]
                dev_direct = _sup_dev(
                    measure(cand, pair, anchor_nodes, ms.freqs).mags, want_anchor
                )
                dev_reflect = _sup_dev(
                    measure(reflected, pair, anchor_nodes, ms.freqs).mags, want_anchor
                )
                ok_direct = dev_direct <= accept_tol * mag_scale
                ok_reflect = dev_reflect <= accept_tol * mag_scale
                anchor_used = True
                if ok_direct and ok_reflect:
                    alternative = reflected
                elif ok_direct:
                    ambiguity = "phase_only"
                elif ok_reflect:
                    cand = reflected
                    ambiguity = "phase_only"
                else:
                    raise InconsistentMeasurements(
                        "inconsistent measurements: neither branch matches the anchor data "
                        f"(direct {dev_direct:.3e}, reflected {dev_reflect:.3e})"
                    )

    final = measure(cand, pair, nodes, ms.freqs).mags
    residual = _sup_dev(final, ms.mags) / mag_scale
    if residual > accept_tol:
        raise InconsistentMeasurements(
            f"reconstruction residual {residual:.3e} exceeds accept_tol {accept_tol:.1e}"
        )
    return ReconstructionReport(
        signal=cand,
        ambiguity=ambiguity,
        residual=residual,
        lambdas=assembly.lambdas,
        anchor_used=anchor_used,
        alternative=alternative,
    )


def reconstruct(
    ms: MeasurementSet,
    pair: WindowPair,
    *,
    accept_tol: float = ACCEPT_TOL,
) -> ReconstructionReport:
    """Recover the signal from lattice magnitude data, up to global phase.

    Runs local recovery at every lattice node, chains phases across the
    overlaps, and settles the reflection branch (with anchor data when the
    node set carries an anchor).  The output always re-measures to the input
    within ``accept_tol``; failures surface as declared errors, never as a
    silently wrong signal.
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
    if not grid.is_multiple(a):
        raise OffGridError(
            f"reconstruction needs the lattice step to be a whole number of grid "
            f"cells, got a = {a!r}",
            a,
            round(a / grid.delta) * grid.delta,
        )
    if ms.freqs.mode != "critical" or ms.freqs.N != grid.L:
        raise ValueError(
            "reconstruction needs the critical frequency grid with one full alias "
            f"period (N = L = {grid.L})"
        )

    lat_rows = [i for i in range(len(nodes.times)) if i != nodes.anchor_index]
    scale = float(np.max(ms.mags[:, lat_rows, :])) if lat_rows else 0.0
    classes = [
        recover_local(
            ms.mags[0, i], ms.mags[1, i], pair, scale=scale, accept_tol=accept_tol
        )
        for i in lat_rows
    ]
    assembly = align_overlaps(
        classes,
        pair,
        a,
        2 * grid.B - a,
        times=[nodes.times[i] for i in lat_rows],
        lattice_mags=ms.mags[:, lat_rows, :],
        freqs=ms.freqs,
        accept_tol=accept_tol,
    )
    return resolve_reflection(assembly, ms, pair, nodes, accept_tol=accept_tol)


def periodic_verdict(
    ms: MeasurementSet,
    pair: WindowPair,
    spec: PeriodicSpec,
    Q: int,
    *,
    accept_tol: float = ACCEPT_TOL,
) -> ReconstructionReport:
    """Judge two-line magnitude data against the quasi-periodic family.

    Fits a degree-Q trigonometric polynomial (quasi-period phase from
    ``spec``) to the first line's recovered content, then scores the fitted
    signal and its conjugate reflection about the first line against the
    full data.  Both branches surviving means the line offset failed to
    separate them: that is the exponential family when only one coefficient
    is live, and reported non-uniqueness otherwise.
    """
    grid = pair.grid
    nodes = ms.nodes
    if nodes.mode != "two_lines":
        raise ValueError(f"periodic verdict needs two time nodes, got {nodes.mode!r}")
    if not (0 < spec.T <= 2 * grid.B):
        raise ValueError(f"period T = {spec.T!r} outside (0, 2B]")
    k_T = spec.T / grid.delta
    if abs(k_T - round(k_T)) > 1e-9:
        raise OffGridError(
            f"period T = {spec.T!r} is not a whole number of grid cells",
            spec.T,
            round(k_T) * grid.delta,
        )
    if 2 * Q + 1 > min(grid.L, int(round(k_T))):
        raise ValueError(
            f"family bound Q = {Q} needs 2Q+1 sample cells per period and per "
            f"window, got min(L, T/delta) = {min(grid.L, int(round(k_T)))}"
        )
    if ms.freqs.mode != "critical" or ms.freqs.N != grid.L:
        raise ValueError(
            "periodic verdict needs the critical frequency grid with one full "
            f"alias period (N = L = {grid.L})"
        )

    t0, t1 = nodes.times
    scale = float(np.max(ms.mags))
    cls0 = recover_local(ms.mags[0, 0], ms.mags[1, 0], pair, scale=scale, accept_tol=accept_tol)
    cls1 = recover_local(ms.mags[0, 1], ms.mags[1, 1], pair, scale=scale, accept_tol=accept_tol)
    if cls0.is_zero and cls1.is_zero:
        zero = Signal(grid, np.zeros(grid.horizon, dtype=np.complex128))
        return ReconstructionReport(
            signal=zero, ambiguity="phase_only", residual=0.0, lambdas=(1.0 + 0j, 1.0 + 0j)
        )

    # unwind the window on the first line and fit the family coefficients
    phi = pair.slot_values("phi")
    k, on = _window_cells(grid, t0)
    x = (k - grid.origin) * grid.delta
    vals = (cls0.representative / np.conj(phi))[on]
    xs = x[on]
    cell = np.floor(xs / spec.T + 1e-9)
    rem = xs - cell * spec.T
    ks = np.arange(-Q, Q + 1)
    mu_pow = np.array([complex(spec.mu) ** int(-c) for c in cell])
    A = mu_pow[:, None] * np.exp(2j * np.pi * np.outer(rem, ks) / spec.T)
    coef, *_ = np.linalg.lstsq(A, vals, rcond=None)

    fitted = PeriodicSpec(
        T=spec.T,
        mu=spec.mu,
        coefficients={int(kk): complex(cc) for kk, cc in zip(ks, coef)},
    )
    direct = make_periodic(fitted, grid)
    refl_vals = np.conj(periodic_eval(fitted, 2 * t0 - grid.coords()))
    reflected = Signal(grid, refl_vals)

    mag_scale = max(scale, 1e-300)
    dev_direct = _sup_dev(measure(direct, pair, nodes, ms.freqs).mags, ms.mags)
    dev_reflect = _sup_dev(measure(reflected, pair, nodes, ms.freqs).mags, ms.mags)
    ok_direct = dev_direct <= accept_tol * mag_scale
    ok_reflect = dev_reflect <= accept_tol * mag_scale

    live = [int(kk) for kk, cc in zip(ks, coef) if abs(cc) > 1e-8 * max(np.abs(coef))]
    if ok_direct and ok_reflect:
        if len(live) <= 1:
            ambiguity, cand, alt = "exponential_family", direct, None
        else:
            ambiguity, cand, alt = "phase_or_reflection", direct, reflected
    elif ok_direct:
        ambiguity, cand, alt = "phase_only", direct, None
    elif ok_reflect:
        ambiguity, cand, alt = "phase_only", reflected, None
    else:
        raise InconsistentMeasurements(
            "inconsistent measurements: no family member explains both lines "
            f"(direct {dev_direct:.3e}, reflected {dev_reflect:.3e})"
        )

    residual = _sup_dev(measure(cand, pair, nodes, ms.freqs).mags, ms.mags) / mag_scale
    return ReconstructionReport(
        signal=cand,
        ambiguity=ambiguity,
        residual=residual,
        lambdas=(1.0 + 0j, 1.0 + 0j),
        alternative=alt,
    )
