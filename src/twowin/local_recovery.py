"""Single-node recovery of windowed content from two magnitude spectra.

The first window's magnitudes over one alias period determine the
autocorrelation of the length-L content vector exactly.  Factoring that
autocorrelation yields finitely many candidates (root mirror choices times
support placements); the second window's magnitudes prune them down to at
most two phase classes, which are conjugate slot reflections of each other
when both survive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .signal_model import GridSpec, critical_omega, phase_fit, vector_norm
from .window_engine import WindowPair, slot_offsets

#: Relative threshold for matching a root with its mirror partner 1/conj(r).
PAIRING_TOL = 1e-6

#: Candidates whose predicted spectra sit within this relative defect survive.
ACCEPT_TOL = 1e-8

#: Two survivors within this relative distance (after phase alignment) are
#: the same class.
CLASS_TOL = 1e-6

#: Survivors whose relative defect exceeds this are polished against both
#: windows before the classes are formed.
POLISH_ABOVE = 1e-10

#: The cross-angle screen prices a branch from its roots, exact pricing from
#: its built coefficients; the two differ by rounding, at most 4.3e-14 over
#: seeded nodes at L = 8, 12 and 16, and the screen allows this margin.
SCREEN_MARGIN = 1e-11

#: The screen runs when the whole enumeration could hold this many
#: (branch, placement) rows; below it, building them all costs less (per
#: generic node, 0.90x the whole enumeration's speed at 64 rows and 1.16x
#: at 128, on a 2-core machine).
SCREEN_MIN_ROWS = 128

#: Enumeration is exponential in the window cell count; refuse beyond this.
L_MAX = 16

#: A factorization branch must reproduce the input autocorrelation this well
#: (relative to max(1, a_0)) or it is discarded as numerical debris.
CANDIDATE_AUTOCORR_TOL = 1e-7

_ZERO_NODE_RTOL = 1e-10


class RecoveryError(Exception):
    """Base class for failures while inverting single-node magnitude data."""


class InconsistentMeasurements(RecoveryError):
    """No candidate reproduces both magnitude spectra."""


class UnrealizableAutocorrelation(RecoveryError):
    """The magnitude data does not come from any length-L content vector."""


class AmbiguityViolation(RecoveryError):
    """More surviving phase classes than the dichotomy allows."""


def direct_autocorrelation(h: np.ndarray) -> np.ndarray:
    """Lag sums a_l = sum_k h[k+l] * conj(h[k]) for l = 0 .. len(h)-1."""
    hv = np.asarray(h, dtype=np.complex128)
    n = hv.size
    return np.array(
        [(hv[l:] * np.conj(hv[: n - l])).sum() for l in range(n)],
        dtype=np.complex128,
    )


def autocorrelation_from_magnitudes(phi_mags: Sequence[float], delta: float) -> np.ndarray:
    """Invert one alias period of first-window magnitudes to lag sums.

    Parameters
    ----------
    phi_mags : length 2L array of |V_phi| at the critical bins n = -L .. L-1.
    delta : grid cell width.

    Returns
    -------
    Nonnegative lags a_0 .. a_{L-1}.  The inversion

        a_l = (1 / (2 L delta^2)) * sum_n phi_mags[n]^2 * exp(i pi l n / L)

    is exact: the squared magnitudes are a trigonometric polynomial in n of
    lag bandwidth L-1, and one alias period holds 2L > 2(L-1) samples.

    A 2-D ``phi_mags`` holds one node per row and gives one row of lags
    per node: the nodes ride matmul's batch axis, so each row keeps the
    bits of its own matrix-vector product.
    """
    m = np.asarray(phi_mags, dtype=np.float64)
    if m.ndim not in (1, 2) or m.shape[-1] % 2 != 0 or m.shape[-1] < 2:
        raise ValueError(f"need an even number of bins (one alias period), got shape {m.shape}")
    L = m.shape[-1] // 2
    acorr = (_lag_table(L) @ (m * m).astype(np.complex128)[..., None])[..., 0] / (2 * L * delta * delta)
    acorr[..., 0] = acorr[..., 0].real
    return acorr


@lru_cache(maxsize=32)
def _lag_table(L: int) -> np.ndarray:
    """exp(i pi l n / L) for lags l = 0 .. L-1 (rows) and bins n = -L .. L-1,
    built once per L and read-only."""
    table = np.exp(1j * np.pi * np.outer(np.arange(L), np.arange(-L, L)) / L)
    table.setflags(write=False)
    return table


def slot_reflect(h: np.ndarray) -> Optional[np.ndarray]:
    """Conjugate reflection about the node slot s = L//2, or None.

    Maps index j to 2s - j.  Admissible only when every nonzero entry lands
    back inside 0..L-1; for odd L that is always, for even L it requires the
    unpaired first slot to vanish.
    """
    hv = np.asarray(h, dtype=np.complex128)
    # for even L, slot 0 maps to 2s = L, outside the window; j -> 2s - j is
    # an involution, so slot 0 is also the one slot that nothing maps to
    if hv.size % 2 == 0 and hv.size > 0 and abs(hv[0]) > 1e-12 * float(np.abs(hv).max()):
        return None
    return _slot_reflections(hv[None])[0]


def _slot_reflections(h: np.ndarray) -> np.ndarray:
    """Each row of ``h`` reflected about the node slot, j -> 2s - j and
    conjugated, slot 0 of an even window (which nothing maps to) left zero;
    whether the reflection is admissible is ``slot_reflect``'s test."""
    L = h.shape[1]
    skip = int(L % 2 == 0 and L > 0)
    out = np.zeros(h.shape, dtype=np.complex128)
    out[:, skip:] = np.conj(h[:, ::-1][:, : L - skip])
    return out


def _phase_match(u: np.ndarray, v: np.ndarray, tol: float) -> bool:
    """True when u = lambda v for some unimodular lambda, relatively to ||u||."""
    nu = vector_norm(u)
    nv = vector_norm(v)
    ref = max(nu, nv)
    if ref == 0.0:
        return True
    return float(phase_fit(u, v)[1]) <= tol * ref


def _cluster_circle_roots(roots: List[complex], chord_tol: float) -> List[List[complex]]:
    """Group near-circle roots into clusters of numerically split copies."""
    if not roots:
        return []
    order = sorted(roots, key=lambda r: float(np.angle(r)))
    clusters: List[List[complex]] = [[order[0]]]
    for r in order[1:]:
        if abs(r - clusters[-1][-1]) <= chord_tol:
            clusters[-1].append(r)
        else:
            clusters.append([r])
    if len(clusters) > 1 and abs(clusters[0][0] - clusters[-1][-1]) <= chord_tol:
        clusters[0] = clusters.pop() + clusters[0]
    return clusters


def _conjugate_closed(roots: np.ndarray) -> np.ndarray:
    """Rows of ``roots`` closed under conjugation, which np.poly returns real."""
    return (np.sort(roots, axis=1) == np.sort(roots.conj(), axis=1)).all(axis=1)


def _closable(options: Sequence[Sequence[complex]]) -> bool:
    """Whether any branch can be closed under conjugation: only when every
    pair, a forced root being a pair of one option, offers a root whose
    conjugate is among the roots."""
    pool = set().union(*options)
    return all(any(r.conjugate() in pool for r in o) for o in options)


def _poly_rows(roots: np.ndarray, closable: Union[bool, np.ndarray]) -> np.ndarray:
    """Monic coefficients, highest degree first, of each row of ``roots``,
    the module's one branch builder.

    A row is built like np.poly builds it: one linear factor multiplied in
    per step, in root order, and the imaginary part dropped where the roots
    are closed under conjugation, checked only where ``closable`` (one flag
    per row, or one for every row) is set.  The rows are held
    coefficient-major, so each step's update runs over contiguous memory,
    and are transposed to one row per branch at the end.
    """
    n, k = roots.shape
    c = np.zeros((k + 1, n), dtype=np.complex128)
    c[0] = 1.0
    for j in range(k):
        c[1 : j + 2] -= roots[:, j] * c[: j + 1]
    c = np.ascontiguousarray(c.T)
    if closable is True or (closable is not False and closable.any()):
        real = closable & _conjugate_closed(roots)
        c.imag[real] = 0.0
    return c


def _picks(sizes: Tuple[int, ...], rows: np.ndarray) -> np.ndarray:
    """Each listed branch's option per pair, over pairs of ``sizes``
    options: branch n is the n-th in the C order of np.indices(sizes), as
    itertools.product orders them, the last pair's choice varying fastest."""
    stride = [math.prod(sizes[j + 1 :]) for j in range(len(sizes))]
    return rows[:, None] // np.array(stride, dtype=np.intp) % np.array(sizes, dtype=np.intp)


@lru_cache(maxsize=32)
def _every_pick(sizes: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
    """``_picks`` of every branch, in order, and each pick's place in the
    flattened table of three options per pair; built once per ``sizes`` and
    read-only.  Both are below 3 L_MAX, so each is held in one byte."""
    picks = _picks(sizes, np.arange(math.prod(sizes)))
    at = (picks + 3 * np.arange(len(sizes))).astype(np.int8)
    picks = picks.astype(np.int8)
    for table in (picks, at):
        table.setflags(write=False)
    return picks, at


def _unit_cores(poly: np.ndarray, a0: float) -> np.ndarray:
    """Ascending coefficients of each monic row, scaled to energy a0."""
    c = poly[:, ::-1]
    return c * np.sqrt(a0 / np.add.reduce(np.abs(c) ** 2, axis=1))[:, None]


@lru_cache(maxsize=L_MAX)
def _dft_tables(s: int) -> Tuple[np.ndarray, np.ndarray]:
    """The length-2s DFT of s samples, exp(-i pi j k / s) over samples j
    (rows) and bins k, and the inverse's first s lags, exp(i pi k l / s) / 2s
    over bins k (rows) and lags l; built once per s and read-only."""
    jk = np.pi * np.outer(np.arange(s), np.arange(2 * s)) / s
    forward = np.exp(-1j * jk)
    inverse = np.exp(1j * jk.T) / (2 * s)
    for table in (forward, inverse):
        table.setflags(write=False)
    return forward, inverse


def _lag_defect(cores: np.ndarray, lags: np.ndarray, s_eff: int) -> np.ndarray:
    """Autocorrelation of each core minus the target lags 0 .. s_eff-1: the
    zero-padded DFT and its inverse as two products with ``_dft_tables``,
    which cost less than np.fft's dispatch on a few short rows."""
    forward, inverse = _dft_tables(s_eff)
    F = cores @ forward
    return (F.real * F.real + F.imag * F.imag) @ inverse - lags[:s_eff]


Linearize = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]


def _gauss_newton(h: np.ndarray, linearize: Linearize) -> np.ndarray:
    """Gauss-Newton on a complex vector h, the module's one refinement loop.

    ``linearize(h)`` returns a real residual and its Jacobian over the real
    and then the imaginary parts of h.  At most 8 least-squares steps are
    taken, and they stop as soon as the residual stops falling.
    """
    r, J = linearize(h)
    best = vector_norm(r)
    for _ in range(8):
        step, *_ = np.linalg.lstsq(J, -r, rcond=None)
        hn = h + step[: h.size] + 1j * step[h.size :]
        rn, Jn = linearize(hn)
        nn = vector_norm(rn)
        if not nn < best:
            break
        h, r, J, best = hn, rn, Jn, nn
    return h


def _lag_fit(lags: np.ndarray, s_eff: int) -> Linearize:
    """The lag defect of a core of s_eff samples and its exact Jacobian.

    d a_l = sum_j conj(c_{j-l}) dc_j + c_{j+l} conj(dc_j).  The eigensolver
    locates a split multiple root only to about eps**(1/m).  Fitting the
    samples moves every root, moduli and angles alike: the tangential error
    of a circle root shows in the lags at first order and is corrected,
    while its radial motion cancels there and is left alone.
    """
    l, j = np.ogrid[:s_eff, :s_eff]

    def linearize(c: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        pad = np.concatenate([np.zeros(s_eff), c, np.zeros(s_eff)])
        below = np.conj(pad[s_eff + j - l])  # conj(c_{j-l}), zero off the core
        above = pad[s_eff + j + l]  # c_{j+l}, zero off the core
        d = below @ c - lags[:s_eff]  # a_l = sum_j conj(c_{j-l}) c_j
        G = np.hstack([below + above, 1j * (below - above)])  # over Re dc, then Im dc
        return np.concatenate([d.real, d.imag]), np.vstack([G.real, G.imag])

    return linearize


def _mirror_pairs(
    off: np.ndarray, pairing_tol: float
) -> List[Tuple[List[Tuple[complex, complex]], Optional[complex]]]:
    """Greedy mirror pairing of the off-circle roots of each node, one node
    per row of ``off`` (or one node's roots, 1-D).

    The last unpaired root takes the remaining root of least cost, the
    first one in root order on a tie.  Every cost is one entry of a matrix
    built up front for the whole stack, with the arithmetic of a scalar
    cost per pair.  Returns, per node, its pairs and the first root left
    without a partner within ``pairing_tol`` (None when every root has
    one), where its pairing stopped.
    """
    mod = np.hypot(off.real, off.imag)  # abs() of each root, to the last bit
    d = off[..., None, :] - 1.0 / np.conj(off)[..., :, None]  # [r, w]: w - 1/conj(r)
    gap = np.hypot(d.real, d.imag)
    # [r, w]: max(|w - 1/conj(r)|, |r - 1/conj(w)|) / (1 + |r| + |w|)
    cost = np.maximum(gap, gap.swapaxes(-1, -2)) / (1 + mod[..., :, None] + mod[..., None, :])
    out = []
    nodes = zip(off.tolist(), cost.tolist()) if off.ndim == 2 else [(off.tolist(), cost.tolist())]
    for roots, costs in nodes:
        pairs: List[Tuple[complex, complex]] = []
        lost = None
        pool = list(range(len(roots)))
        while pool:
            i = pool.pop()
            w = min(pool, key=costs[i].__getitem__, default=None)
            if w is None or costs[i][w] > pairing_tol:
                lost = roots[i]
                break
            pool.remove(w)
            pairs.append((roots[i], roots[w]))
        out.append((pairs, lost))
    return out


def _chord(circle_tol: float) -> float:
    """How close two circle roots sit to be split copies of one root, and a
    mirror pair's roots to be fused, at a given circle tolerance."""
    return max(2 * math.sqrt(PAIRING_TOL), 4 * circle_tol)


def _fusable(r1: complex, r2: complex, chord: float) -> bool:
    """Whether a mirror pair sits right on the circle, its roots within
    ``chord`` of each other: indistinguishable from a split double circle
    root."""
    return abs(abs(r1) - 1.0) <= 5e-2 and abs(abs(r2) - 1.0) <= 5e-2 and abs(r1 - r2) <= chord


def _rung(roots: np.ndarray, circle_tol: float) -> Tuple[np.ndarray, Tuple[int, ...], int, bool]:
    """One reading of a node's roots at a given circle tolerance: the
    options as rows of three roots (each forced root a pair of one option,
    three copies of it, then each mirror pair's, a pair without a fused
    option repeating its second), each pair's option count, the forced-root
    count and whether any branch can be closed under conjugation.  Raises
    the refusals that come before validation."""
    near = np.abs(np.hypot(roots.real, roots.imag) - 1.0) <= circle_tol
    on_circle = [complex(r) for r in roots[near]]

    # unit-circle roots arrive as even-multiplicity clusters; each cluster of
    # 2m split copies stands for one root of multiplicity m in the factor
    forced: List[complex] = []
    chord = _chord(circle_tol)
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

    [(pairs, lost)] = _mirror_pairs(roots[~near], max(PAIRING_TOL, circle_tol))
    if lost is not None:
        raise UnrealizableAutocorrelation(f"autocorrelation not realizable: unpaired root {lost!r}")

    # a mirror pair sitting right on the circle is indistinguishable from a
    # split double circle root; offer the fused reading as a third option
    # and let validation and the second window decide
    options = [[r, r, r] for r in forced]
    sizes = [1] * len(forced)
    branch_count = 1
    for r1, r2 in pairs:
        size, third = 2, r2
        if _fusable(r1, r2, chord) and branch_count * 3 <= 8192:
            mid = (r1 + r2) / 2
            if mid != 0:
                size, third = 3, mid / abs(mid)
        options.append([r1, r2, third])
        sizes.append(size)
        branch_count *= size
    table = np.array(options, dtype=np.complex128).reshape(-1, 3)
    return table, tuple(sizes), len(forced), _closable(options)


def _cross_angle_screen(
    forced: np.ndarray,
    table: np.ndarray,
    sizes: Tuple[int, ...],
    *,
    s_eff: int,
    a0: np.ndarray,
    phi: np.ndarray,
    psi: np.ndarray,
    pair: WindowPair,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The branches of each node that fit its data cleanly, priced from their
    roots without building them, over a stack of nodes that share s_eff,
    the pair sizes and the forced-root count: row i of ``forced``,
    ``table``, ``a0``, ``phi`` and ``psi`` is node i's.  Pair j offers the
    first ``sizes[j]`` roots of ``table[i, j]``.

    Returns (owner, rows, fits).  The kept branches are listed node-major:
    ``owner`` names each one's node and ``rows`` its number, as ``_picks``
    numbers them, and ``fits`` is its mask of the placements that fit, a
    defect within ``POLISH_ABOVE``; every other (branch, placement) of a
    node misses ``ACCEPT_TOL``.  A node keeps no branch, deferring to the
    whole enumeration and the second window's polish, when some (branch,
    placement) of it may fit only roughly, between the two give or take
    ``SCREEN_MARGIN``.

    With w = exp(-2 i pi delta omega), a core at placement p has the
    spectrum H(omega) = delta K exp(-2 i pi (p - L // 2) delta omega) P(w),
    P being the product of (w - r) over its roots and K its energy
    normalisation, and w lies on the unit circle at the bins omega_n (w1)
    and omega_n + b (w2).  So |H(omega_n)| = delta K |P(w1)|, and
    |H(omega_n + b) - H(omega_n)| = delta K |P(w2) t_p - P(w1)|, where
    t_p = exp(-2 i pi (p - L // 2) delta b) is the placement's share of the
    cross angle arg H(omega_n + b) - arg H(omega_n).  Choosing 1/conj(r)
    for r turns the cross angle by arg(w2 - r) - arg(w1 - r) against r and
    scales |P| by a constant, which K absorbs: K^2 is 2L a0 over the sum of
    |P(w1)|^2, by Parseval over the 2L bins.  Every price is exact up to
    rounding, fused readings and loose pairings included.

    P at the bins is built over each half of the pairs by shared prefix, a
    branch's P being the product of its halves', so one product of the
    halves' |P(w1)|^2 gives every branch's K.  The second window's defect
    at four bins spread over the period, a lower bound of the whole defect,
    rules out every branch but a few, and those are priced at every bin.
    Every step is elementwise or a reduction over the bins, or a matrix
    product on matmul's batch axis, so a node's prices do not depend on
    the nodes stacked with it.
    """
    grid = pair.grid
    L = grid.L
    g = len(table)
    w, turn = _screen_tables(L, grid.B, pair.b)
    turn = turn[: L - s_eff + 1, None]
    factors = w - table[..., None, None]  # (node, pair, option, w1 | w2, bin)

    def product(pairs: range) -> np.ndarray:
        """P at the bins over ``pairs``, one row per choice of theirs."""
        out = np.ones((g, 1, 2, 2 * L))
        for j in pairs:
            out = (out[:, :, None] * factors[:, j, None, : sizes[j]]).reshape(g, -1, 2, 2 * L)
        return out

    left, right = product(range(len(sizes) // 2)), product(range(len(sizes) // 2, len(sizes)))
    if forced.shape[1]:
        left = left * (w - forced[:, :, None, None]).prod(axis=1)[:, None]
    scale = grid.delta * np.sqrt(2 * L * a0)
    a1, b1 = np.abs(left[:, :, 0]), np.abs(right[:, :, 0])
    gain = scale[:, None] / np.sqrt((a1 * a1) @ (b1 * b1).swapaxes(1, 2)).reshape(g, -1)
    few = slice(0, 2 * L, max(L // 2, 1))
    x = (left[:, :, None, :, few] * right[:, None, :, :, few]).reshape(g, -1, 2, 1, len(range(2 * L)[few]))
    d = np.abs(x[:, :, 1] * turn - x[:, :, 0]) * gain[:, :, None, None] - psi[:, None, None, few]
    out = ((ACCEPT_TOL + SCREEN_MARGIN) * scale) ** 2
    owner, rows = (np.add.reduce(d * d, axis=3) <= out[:, None, None]).any(axis=2).nonzero()
    right_count = right.shape[1]
    spectra = left[owner, rows // right_count] * right[owner, rows % right_count]
    gain = gain[owner, rows]
    e = np.abs(spectra[:, 0]) * gain[:, None] - phi[owner]
    d = np.abs(spectra[:, None, 1] * turn - spectra[:, None, 0]) * gain[:, None, None] - psi[owner, None]
    priced = np.add.reduce(d * d, axis=2) + np.add.reduce(e * e, axis=1)[:, None]
    fits = priced <= ((POLISH_ABOVE - SCREEN_MARGIN) * scale[owner, None]) ** 2
    deferred = np.zeros(g, dtype=bool)
    deferred[owner[~(fits | (priced > out[owner, None])).all(axis=1)]] = True
    kept = fits.any(axis=1) & ~deferred[owner]
    return owner[kept], rows[kept], fits[kept]


def _screened_cores(
    forced: np.ndarray,
    table: np.ndarray,
    sizes: Tuple[int, ...],
    owner: np.ndarray,
    rows: np.ndarray,
    a0: np.ndarray,
    closable: np.ndarray,
) -> np.ndarray:
    """The cores of the branches ``_cross_angle_screen`` kept, one per
    (owner, row), built by ``_poly_rows`` and scaled to their node's
    energy.  A branch within POLISH_ABOVE of the first window's data has
    lags within about 2 POLISH_ABOVE a0 of the node's, far inside the lag
    tolerance, so it stands without the lag check.

    Each node's cores are scaled by a ``_unit_cores`` call of their own:
    np.abs of a reversed one-row view takes another kernel than of a
    stack, so a stacked call would move a node's last bits.
    """
    chosen = table[owner[:, None], np.arange(len(sizes)), _picks(sizes, rows)]
    if forced.shape[1]:
        chosen = np.hstack([forced[owner], chosen])
    poly = _poly_rows(chosen, closable[owner])
    bounds = owner.searchsorted(np.arange(len(table) + 1)).tolist()
    parts = [_unit_cores(poly[lo:hi], x) for x, lo, hi in zip(a0.tolist(), bounds, bounds[1:]) if hi > lo]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


@lru_cache(maxsize=32)
def _screen_tables(L: int, B: float, b: float) -> Tuple[np.ndarray, np.ndarray]:
    """The screen's evaluation points w = exp(-2 i pi delta omega) at the
    critical bins omega_n (row 0) and at omega_n + b (row 1), and the turn
    exp(-2 i pi (p - L // 2) delta b) of each placement p, read off the
    content-spectrum maps of ``_pricing_tables``, whose rows are slot
    offsets delta apart; built once per (L, B, b) and read-only."""
    E1, E2, _, _ = _pricing_tables(L, B, b)
    w = np.stack([E1[1] * np.conj(E1[0]), E2[1] * np.conj(E2[0])])
    turn = E2[:, 0] * np.conj(E1[:, 0])
    for table in (w, turn):
        table.setflags(write=False)
    return w, turn


def enumerate_candidates(
    acorr: Sequence[complex],
    L: int,
    psi_mags: Optional[Sequence[float]] = None,
    pair: Optional[WindowPair] = None,
    *,
    phi_mags: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """The length-L content vectors whose autocorrelation matches ``acorr``
    and, given the node's magnitudes, that the second window can accept.

    Factors the two-sided lag polynomial; its roots pair off as mirror
    images (r, 1/conj(r)).  Each off-circle pair contributes a binary
    choice, or a third, fused one when the pair sits on the circle (offered
    while the branch count stays at most 8192); unit-circle roots are
    forced; and every branch is embedded at each admissible support offset,
    because the first window's data cannot see where inside the cell range
    the content sits.  With m mirror pairs, f of them fused, for effective
    support length s, that is 2^(m-f) 3^f <= 2^(s-1) (3/2)^f branches at
    L - s + 1 placements each.

    Given ``psi_mags``, ``pair`` and ``phi_mags`` (all or none), and at
    least ``SCREEN_MIN_ROWS`` (branch, placement) rows for a node without
    circle roots (2^(s-1) (L - s + 1)), every
    (branch, placement) is first priced from its roots by
    ``_cross_angle_screen``, and when each one either fits the data
    cleanly (defect within ``POLISH_ABOVE``) or surely misses it (beyond
    ``ACCEPT_TOL``), only those that fit are built, placed and returned: on
    generic data one or two, with the bits the whole enumeration gives
    them.  Otherwise, or when none fits, every branch is, as without the
    magnitudes, so the second window's polish, the lag-fit rescue and the
    circle-tolerance ladder see what they saw before the screen.

    Placement, phase canonicalization and dedup run over the whole batch.
    Returns one array, one candidate per row, sorted by the candidates'
    quantized byte keys.
    Raises UnrealizableAutocorrelation when no circle tolerance reads the
    roots into a branch that fits the lags, rescued or not.
    This is ``_candidate_rows`` on one node, the stage that ``recover_rows``
    runs on a block of nodes.
    """
    a = np.asarray(acorr, dtype=np.complex128)
    if L > L_MAX:
        raise ValueError(f"enumeration bound exceeded: L = {L} > {L_MAX}")
    if a.size > L:
        raise ValueError(f"got {a.size} lags for window cell count {L}")
    if not (psi_mags is None) == (pair is None) == (phi_mags is None):
        raise ValueError("the screen needs psi_mags, pair and phi_mags together")
    if float(a[0].real) <= 0:
        raise ValueError("zero autocorrelation has no nonzero factorization")
    phi = psi = None
    if pair is not None:
        phi = np.asarray(phi_mags, dtype=np.float64).reshape(1, -1)
        psi = np.asarray(psi_mags, dtype=np.float64).reshape(1, -1)
        if pair.grid.L != L or phi.size != 2 * L or psi.size != 2 * L:
            raise ValueError(f"need the pair's window of {L} cells and 2L = {2 * L} bins per window")
    [out] = _candidate_rows(a.reshape(1, -1), L, pair, phi, psi)
    if isinstance(out, Exception):
        raise out
    return out


def _candidate_rows(
    a: np.ndarray,
    L: int,
    pair: Optional[WindowPair],
    phi: Optional[np.ndarray],
    psi: Optional[np.ndarray],
) -> List:
    """``enumerate_candidates`` on each row of a stack of nodes' lags, with
    the screen when ``pair`` is given (``phi`` and ``psi`` holding each
    node's magnitudes as rows): one entry per node, its candidates or the
    error it refuses with.

    The nodes are grouped by effective support length; each group's roots
    come from one ``eigvals`` call.  The nodes the screen serves and that
    have no circle root, no loose pairing and no fused reading are priced,
    built and placed together (``_screened_candidates``); every other node
    goes on alone from its roots through the circle-tolerance ladder
    (``_factor_ladder``, which screens each rung where the group is).
    """
    out: List = [None] * len(a)
    energy: List[float] = []
    groups: dict = {}
    for i, lags in enumerate(a.tolist()):
        a0 = lags[0].real
        energy.append(a0)
        if a0 <= 0:
            out[i] = ValueError("zero autocorrelation has no nonzero factorization")
            continue
        # one past the highest lag above the noise floor
        floor = 1e-12 * a0
        s_eff = len(lags)
        while s_eff > 1 and not abs(lags[s_eff - 1]) > floor:
            s_eff -= 1
        groups.setdefault(s_eff, []).append(i)
    for s_eff, nodes in groups.items():
        if s_eff == 1:
            for i in nodes:
                core = np.array([[np.sqrt(energy[i])]], dtype=np.complex128)
                out[i] = _deduplicated(*_placed(core, None, L, 1))
            continue
        lags = a if len(nodes) == len(a) else a[nodes]
        roots = _lag_roots(lags, s_eff)
        screened = pair is not None and 2 ** (s_eff - 1) * (L - s_eff + 1) >= SCREEN_MIN_ROWS
        alone = range(len(nodes))
        if screened:
            mags = (phi, psi) if len(nodes) == len(a) else (phi[nodes], psi[nodes])
            served = _screened_candidates(roots, s_eff, lags[:, 0].real, *mags, pair)
            for j, cand in served:
                out[nodes[j]] = cand
            alone = sorted(set(alone).difference(j for j, _ in served))
        for j in alone:
            i = nodes[j]
            mags = (pair, phi[i : i + 1], psi[i : i + 1]) if screened else (None, None, None)
            try:
                cores, fits = _factor_ladder(roots[j], lags[j], s_eff, energy[i], *mags)
            except UnrealizableAutocorrelation as exc:
                out[i] = exc
                continue
            out[i] = _deduplicated(*_placed(cores, fits, L, s_eff))
    return out


def _lag_roots(a: np.ndarray, s_eff: int) -> np.ndarray:
    """The roots of each row's two-sided lag polynomial, as np.roots finds
    them: its end coefficients are a_{s-1} and conj(a_{s-1}), both nonzero.
    One ``eigvals`` call takes the stack, and LAPACK factors each companion
    matrix alone, so a row's roots do not depend on the rows beside it."""
    # highest degree first: a_{s-1} .. a_0, then conj(a_1) .. conj(a_{s-1})
    p = np.concatenate([a[:, s_eff - 1 :: -1], np.conj(a[:, 1:s_eff])], axis=1)
    g, n = len(p), p.shape[1] - 1
    companion = np.zeros((g, n, n), dtype=np.complex128)
    companion.reshape(g, -1)[:, n :: n + 1] = 1.0  # the subdiagonal
    companion[:, 0] = -p[:, 1:] / p[:, :1]
    return np.linalg.eigvals(companion)


def _factor_ladder(
    roots: np.ndarray, lags: np.ndarray, s_eff: int, a0: float,
    pair: Optional[WindowPair], phi: Optional[np.ndarray], psi: Optional[np.ndarray],
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """A node's cores on a widening circle tolerance: a multiplicity-m root
    only comes back from the eigensolver to within about eps**(1/m), so
    each rung reads the roots again (``_rung``) and the lag validation
    arbitrates what to accept; the last rung's refusal is raised.

    Given ``pair`` and the node's magnitude rows, a rung first runs
    ``_cross_angle_screen``, and only the branches that fit the data
    cleanly are built, none needing the lag check; when the screen defers,
    or no branch fits, every branch is built, in ``_picks`` order, and
    checked.  Returns the cores, one per row, and a mask of each one's
    placements that fit, or None when every placement of every branch
    stands.

    Only when no rung validates are the rungs that failed validation
    rescued, in rung order, from the cores they built: each branch holding
    circle roots (a forced root or a fused reading) is fitted to the lags
    and validated again.  A rung that reads a split triple circle root as
    mirror pairs can validate only through the fit, which stalls short of
    the truth, where a wider rung reads both clusters whole and validates
    exactly."""
    tol = CANDIDATE_AUTOCORR_TOL * max(1.0, a0)
    failed: List[Tuple[np.ndarray, np.ndarray]] = []
    error: Optional[UnrealizableAutocorrelation] = None
    for circle_tol in (PAIRING_TOL, 1e-4, 1e-3, 1e-2):
        try:
            table, sizes, f, closable = _rung(roots, circle_tol)
        except UnrealizableAutocorrelation as exc:
            error = exc
            continue
        if pair is not None:
            rooted, paired = table[None, :f, 0], table[None, f:]
            owner, rows, fits = _cross_angle_screen(
                rooted, paired, sizes[f:], s_eff=s_eff, a0=np.array([a0]), phi=phi, psi=psi, pair=pair
            )
            if rows.size:
                return _screened_cores(rooted, paired, sizes[f:], owner, rows, np.array([a0]),
                                       np.array([closable])), fits
        picks, at = _every_pick(sizes)
        cores = _unit_cores(_poly_rows(table.ravel()[at], closable), a0)
        ok = (np.abs(_lag_defect(cores, lags, s_eff)) <= tol).all(axis=1)
        if ok.any():
            return cores[ok], None
        failed.append((cores, ((picks == 2).any(axis=1) | bool(f)).nonzero()[0]))
        error = UnrealizableAutocorrelation(
            "autocorrelation not realizable: every pairing branch failed validation"
        )
    # a split multiple circle root can leave every branch short of the lag
    # tolerance
    for cores, circled in failed:
        fit = _lag_fit(lags, s_eff)
        for i in circled:
            cores[i] = _gauss_newton(cores[i], fit)
        ok = (np.abs(_lag_defect(cores, lags, s_eff)) <= tol).all(axis=1)
        if ok.any():
            return cores[ok], None
    assert error is not None
    raise error


def _screened_candidates(
    roots: np.ndarray,
    s_eff: int,
    a0: np.ndarray,
    phi: np.ndarray,
    psi: np.ndarray,
    pair: WindowPair,
) -> List[Tuple[int, np.ndarray]]:
    """The candidates of the stacked nodes whose first circle-tolerance
    rung the screen settles together, as (node, candidates) in node order:
    nodes with no root near the circle, every root paired within
    ``PAIRING_TOL``, no fused reading and at least one branch kept.  That
    rung takes the same steps on each node alone, so each node's
    candidates carry the bits it gets alone."""
    near = (np.abs(np.hypot(roots.real, roots.imag) - 1.0) <= PAIRING_TOL).any(axis=1).tolist()
    paired = _mirror_pairs(roots, PAIRING_TOL)
    nodes = [j for j, ((_, lost), circle) in enumerate(zip(paired, near)) if lost is None and not circle]
    if not nodes:
        return []
    table = np.array([paired[j][0] for j in nodes], dtype=np.complex128).reshape(len(nodes), -1, 2)
    # _fusable and _closable decide, on the few nodes that pass a looser
    # test: a fused pair has both roots near the circle and close together,
    # and a closable node holds a root whose conjugate is among its roots
    chord = _chord(PAIRING_TOL)
    ring = np.abs(np.abs(table) - 1.0) <= 0.06
    close = np.abs(table[..., 0] - table[..., 1]) <= 2 * chord
    maybe = (ring.all(axis=2) & close).any(axis=1).tolist()
    keep = [
        not (m and any(_fusable(*rs, chord) for rs in paired[j][0])) for j, m in zip(nodes, maybe)
    ]
    nodes = [j for j, k in zip(nodes, keep) if k]
    if not nodes:
        return []
    table = table[np.array(keep)][:, :, [0, 1, 1]]
    closable = np.zeros(len(nodes), dtype=bool)
    mirrored = (np.conj(roots[nodes])[:, :, None] == roots[nodes][:, None, :]).any(axis=(1, 2))
    for k in mirrored.nonzero()[0].tolist():
        closable[k] = _closable(paired[nodes[k]][0])
    sizes = (2,) * table.shape[1]
    forced = np.empty((len(nodes), 0), dtype=np.complex128)
    a0 = a0[nodes]
    owner, rows, fits = _cross_angle_screen(
        forced, table, sizes, s_eff=s_eff, a0=a0, phi=phi[nodes], psi=psi[nodes], pair=pair
    )
    if not rows.size:
        return []
    cores = _screened_cores(forced, table, sizes, owner, rows, a0, closable)
    cand, top = _placed(cores, fits, pair.grid.L, s_eff)
    owner = owner.repeat(fits.shape[1])[fits.ravel()]
    bounds = owner.searchsorted(np.arange(len(nodes) + 1)).tolist()
    return [
        (j, _deduplicated(cand[lo:hi], top[lo:hi]))
        for j, lo, hi in zip(nodes, bounds, bounds[1:])
        if hi > lo
    ]


def _placed(
    cores: np.ndarray, fits: Optional[np.ndarray], L: int, s_eff: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Every core at every placement, rows ordered core-major, less the
    placements that do not fit (``fits``, one row per core, or None when
    every one stands), each at its canonical global phase: the first
    largest entry becomes real and positive.  Returns the rows and each
    one's largest modulus."""
    P = L - s_eff + 1
    cand = cores
    if P > 1:
        placed = np.zeros((len(cores), P, L), dtype=np.complex128)
        for p in range(P):
            placed[:, p, p : p + s_eff] = cores
        cand = placed.reshape(-1, L)
    if fits is not None:
        cand = cand[fits.ravel()]
    # every row holds a core of energy a0 > 0, so the peak is never zero
    mod = np.abs(cand)
    peak = np.arange(cand.shape[0]), mod.argmax(axis=1)
    top = mod[peak]  # gathered at argmax, which is cheaper than a row max
    cand *= (np.conj(cand[peak]) / top)[:, None]
    return cand, top


def _deduplicated(cand: np.ndarray, top: np.ndarray) -> np.ndarray:
    """One node's placed candidates (``_placed``) sorted by their quantized
    byte keys, each key's first row kept."""
    if len(cand) == 1:
        return cand
    L = cand.shape[1]
    # each row over its peak modulus (the keys only order and dedup rows),
    # then np.round(z, 9) on both parts at once
    q = np.rint((cand / top[:, None]).view(np.float64) * 1e9) / 1e9
    # sort the keys bytewise, stably, and keep each key's first row
    keys = q.view(np.dtype((np.void, q.itemsize * 2 * L))).ravel()
    order = keys.argsort(kind="stable")
    first = np.ones(order.size, dtype=bool)
    first[1:] = keys[order[1:]] != keys[order[:-1]]
    return cand[order[first]]


@dataclass(frozen=True, slots=True)
class LocalClass:
    """Surviving phase classes of windowed content at one node."""

    representatives: Tuple[np.ndarray, ...]
    includes_reflection: bool
    residual: float
    is_zero: bool = False
    #: a lone class that tolerates reflection offers its slot mate as a patch
    #: when the mate is another class (the truth may be the mate), else None
    mate: Optional[np.ndarray] = None

    @property
    def representative(self) -> np.ndarray:
        return self.representatives[0]

    @property
    def patches(self) -> Tuple[np.ndarray, ...]:
        """The listed classes, then the offered mate if there is one."""
        return self.representatives + (() if self.mate is None else (self.mate,))


@lru_cache(maxsize=32)
def _pricing_tables(L: int, B: float, b: float) -> Tuple[np.ndarray, ...]:
    """The content-spectrum maps of one (L, B, b), built once, read-only and
    shared by every node's pricing, polish and mate test.

    E1 and E2 hold exp(-2 i pi u_j omega) at the critical bins omega_n and
    at omega_n + b, a row per cell offset u_j; then come the polish maps of
    the second window, delta E2 - delta E1, and of the first, delta E1.
    """
    grid = GridSpec(B=B, L=L, origin=0, horizon=L)
    delta, u = grid.delta, slot_offsets(grid)
    omegas = critical_omega(np.arange(-L, L), B) + np.array([[0.0], [b]])
    E = np.exp(-2j * np.pi * (u[:, None] * omegas[:, None, :]))
    M_phi = delta * E[0]
    M_psi = delta * E[1] - M_phi
    for table in (E, M_phi, M_psi):
        table.setflags(write=False)
    return E[0], E[1], M_psi, M_phi


def _magnitude_fit(blocks: Sequence[Tuple[np.ndarray, np.ndarray]], scale: float) -> Linearize:
    """The defect of magnitude rows |h @ M| = m over ``blocks``' (M, m)
    pairs, relative to ``scale``, and its Jacobian."""

    def linearize(v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        rs, Js = [], []
        for M, m in blocks:
            H = v @ M
            mag = np.abs(H)
            # d|H_n| = Re(conj(H_n) M_jn dh_j) / |H_n|, zero where H_n = 0
            g = (np.conj(H) / np.where(mag > 0, mag, 1.0))[:, None] * M.T
            rs.append(mag - m)
            Js.append(np.hstack([g.real, -g.imag]))
        return np.concatenate(rs) / scale, np.vstack(Js) / scale

    return linearize


def refit(
    contents: np.ndarray, phi_mags: np.ndarray, psi_mags: np.ndarray, pair: WindowPair,
    scale: float, *, hold: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Fit each row of ``contents`` to both windows' magnitudes relative to
    ``scale``, with the slots where ``hold`` is True held at exactly zero.

    The module's one entry to the magnitude fit: ``_gauss_newton`` runs on
    each row through ``pair``'s polish maps.  The caller prices the rows.
    """
    _, _, M_psi, M_phi = _pricing_tables(pair.grid.L, pair.grid.B, pair.b)
    free = slice(None) if hold is None else ~np.asarray(hold, dtype=bool)
    fit = _magnitude_fit([(M_psi[free], psi_mags), (M_phi[free], phi_mags)], scale)
    out = np.zeros(np.shape(contents), dtype=np.complex128)
    out[:, free] = [_gauss_newton(h, fit) for h in np.asarray(contents)[:, free]]
    return out


def prune_with_second_window(
    candidates: Sequence[np.ndarray],
    psi_mags: Sequence[float],
    pair: WindowPair,
    *,
    phi_mags: Sequence[float],
) -> LocalClass:
    """Score factorization candidates against the second window's magnitudes.

    The prediction uses the exact two-window identity: with H(omega) the
    content spectrum, |V_psi| at bin n equals |H(omega_n + b) - H(omega_n)|.
    Survivors are grouped into phase classes; the dichotomy permits one
    class, or two that are conjugate slot reflections of each other.

    One polish rule: the survivors, or the candidate with the lowest defect
    when none passes, are each ``refit`` in place when their defect exceeds
    ``POLISH_ABOVE`` and tested again at the same ``ACCEPT_TOL`` before the
    classes are formed.  A mirror root pair within about sqrt(eps) of the
    unit circle comes back from np.roots only to about sqrt(eps), which
    leaves a genuine candidate with a defect far above the tolerance.
    This is ``_pruned_rows`` on one node, the stage that ``recover_rows``
    runs on each group of a block's nodes with as many candidates.
    """
    grid = pair.grid
    L = grid.L
    psi = np.asarray(psi_mags, dtype=np.float64)
    if psi.size != 2 * L:
        raise ValueError(f"need 2L = {2 * L} second-window bins, got {psi.size}")
    phi = np.asarray(phi_mags, dtype=np.float64)
    C = np.array(candidates, dtype=np.complex128).reshape(1, -1, L)
    [out] = _pruned_rows(C, phi.reshape(1, -1), psi.reshape(1, -1), pair)
    if isinstance(out, Exception):
        raise out
    return out


def _pruned_candidates(cands: Sequence, phi: np.ndarray, psi: np.ndarray, pair: WindowPair) -> List:
    """``prune_with_second_window`` on each entry of ``cands`` (a node's
    candidates, or the error it refused with, which passes through), with
    the nodes' magnitudes as rows of ``phi`` and ``psi``: the nodes with
    the same number of candidates are priced as one stack."""
    out = list(cands)
    counts: dict = {}
    for i, c in enumerate(cands):
        if not isinstance(c, Exception):
            counts.setdefault(len(c), []).append(i)
    for nodes in counts.values():
        if len(nodes) == len(cands):
            C, mags = np.stack(cands) if len(cands) > 1 else cands[0][None], (phi, psi)
        else:
            C, mags = np.stack([cands[i] for i in nodes]), (phi[nodes], psi[nodes])
        for i, cls in zip(nodes, _pruned_rows(C, *mags, pair)):
            out[i] = cls
    return out


def _pruned_rows(C: np.ndarray, phi: np.ndarray, psi: np.ndarray, pair: WindowPair) -> List:
    """``prune_with_second_window`` on a stack of nodes with as many
    candidates each, C (nodes, candidates, L), refitting rows in place: one
    ``LocalClass`` per node, or the error it refuses with.

    The defects, and the mates', are priced for the whole stack at once, on
    matmul's batch axis, so each node's are the bits it gets alone; only a
    node with a rough survivor or none (which ``refit`` settles), or with
    more than one survivor (whose classes are formed pairwise), takes steps
    of its own.
    """
    grid = pair.grid
    L = grid.L
    E1, E2, _, _ = _pricing_tables(L, grid.B, pair.b)
    a0 = np.add.reduce(np.abs(C) ** 2, axis=2).max(axis=1).tolist() if C.shape[1] else [0.0] * len(C)
    scale = np.array([grid.delta * math.sqrt(2 * L * x) if x > 0 else 1.0 for x in a0])

    def defects_of(X: np.ndarray, at) -> np.ndarray:
        """The relative defects of X's rows: one node's rows (k, L) when
        ``at`` is its index, else a stack (nodes, k, L) of the nodes ``at``
        (one node's arrays broadcast with less of numpy's overhead)."""
        if X.ndim == 3:
            at = (at, None)
        H1 = grid.delta * (X @ E1)
        H2 = grid.delta * (X @ E2)
        # each row's 2-norm, with np.linalg.norm's arithmetic
        d = np.abs(H2 - H1) - psi[at]
        e = np.abs(H1) - phi[at]
        s = scale[at]
        return np.hypot(
            np.sqrt(np.add.reduce(d * d, axis=-1)) / s, np.sqrt(np.add.reduce(e * e, axis=-1)) / s
        )

    defects = defects_of(C[0], 0)[None] if len(C) == 1 else defects_of(C, slice(None))
    priced = defects.tolist()
    out: List = [None] * len(C)
    classes: List[List[int]] = []
    for i, row in enumerate(priced):
        order = [j for j, d in enumerate(row) if d <= ACCEPT_TOL]
        if not order or any(row[j] > POLISH_ABOVE for j in order):
            # the survivors, or the best candidate when none passes, each
            # refit in place above POLISH_ABOVE and priced again: a rough
            # survivor would carry its defect into the glued neighbours, and
            # only both windows together can vouch for a fit (the second
            # alone has one equation per unknown)
            d = defects[i]
            at = (d <= ACCEPT_TOL).nonzero()[0]
            if not at.size and d.size:
                at = d.argmin(keepdims=True)
            rough = at[d[at] > POLISH_ABOVE]
            was = d[rough]
            if rough.size:
                C[i, rough] = refit(C[i, rough], phi[i], psi[i], pair, scale[i])
                d[rough] = defects_of(C[i, rough], i)
                at = at[d[at] <= ACCEPT_TOL]
                priced[i] = d.tolist()
            if not at.size:
                out[i] = InconsistentMeasurements(
                    f"no factorization candidate matches the second window's data "
                    f"(best relative defect {np.minimum(was, d[rough]).min(initial=np.inf):.3e})"
                )
                classes.append([0])
                continue
            order = at.tolist()
        kept = order[:1]
        for j in order[1:]:
            if not any(_phase_match(C[i, j], C[i, k], CLASS_TOL) for k in kept):
                kept.append(j)
        if len(kept) > 2:
            out[i] = AmbiguityViolation(
                f"ambiguity violation: {len(kept)} phase classes survive the second window"
            )
        classes.append(kept)
    if all(cls is not None for cls in out):
        return out

    # the slot mate, decided once: slot 0, which an even window's reflection
    # drops, reads as empty at or below CLASS_TOL of the class maximum (the
    # rule that pairs two classes), as the forward map leaves roundoff there
    # far from the origin.  Read as empty it is dropped, and the mate is
    # admissible; otherwise it holds more than slot_reflect's 1e-12 of the
    # maximum, and the mate is not
    lead = [kept[0] for kept in classes]
    first = C[np.arange(len(C)), lead] if any(lead) else C[:, 0]
    admissible = [True] * len(C)
    if L % 2 == 0:
        peaks = np.abs(first).max(axis=1).tolist()
        admissible = [abs(z) <= CLASS_TOL * m for z, m in zip(first[:, 0].tolist(), peaks)]
    at = [i for i, ok in enumerate(admissible) if ok and out[i] is None]
    mates: List[Optional[np.ndarray]] = [None] * len(C)
    fitting = [False] * len(C)
    if at:
        reflected = _slot_reflections(first[at])
        fits = defects_of(reflected, at[0]) if len(at) == 1 else defects_of(reflected[:, None], at)[:, 0]
        for i, mate, d in zip(at, reflected, fits.tolist()):
            mates[i], fitting[i] = mate, d <= ACCEPT_TOL
    for i, (kept, mate) in enumerate(zip(classes, mates)):
        if out[i] is not None:
            continue
        # each class owns its row, not a candidate view
        reps = tuple(C[i, j].copy() for j in kept)
        if len(kept) == 2 and (mate is None or not _phase_match(mate, reps[1], CLASS_TOL)):
            out[i] = AmbiguityViolation(
                "ambiguity violation: two surviving classes are not conjugate mates"
            )
            continue
        lone = fitting[i] and len(reps) == 1 and not _phase_match(mate, reps[0], CLASS_TOL)
        out[i] = LocalClass(
            representatives=reps,
            includes_reflection=fitting[i],
            residual=min(priced[i][j] for j in kept),
            mate=mate.copy() if lone else None,
        )
    return out


def recover_local(
    phi_mags: Sequence[float],
    psi_mags: Sequence[float],
    pair: WindowPair,
    *,
    scale: Optional[float] = None,
) -> LocalClass:
    """Recover the windowed content at one node up to the local dichotomy.

    Requires one full alias period of both windows' magnitudes (2L critical
    bins each).  A node whose first-window data is negligible against
    ``scale`` (or against itself when no scale is given) is reported as the
    zero class, which is reflection-symmetric by convention.
    """
    grid = pair.grid
    L = grid.L
    phi = np.asarray(phi_mags, dtype=np.float64)
    psi = np.asarray(psi_mags, dtype=np.float64)
    if phi.size != 2 * L or psi.size != 2 * L:
        raise ValueError(
            f"local recovery needs one full alias period: 2L = {2 * L} bins per window, "
            f"got {phi.size} and {psi.size}"
        )
    peak = float(phi.max(initial=0.0))
    ref = peak if scale is None else float(scale)
    if peak <= _ZERO_NODE_RTOL * ref or peak == 0.0:
        return _zero_class(L)
    acorr = autocorrelation_from_magnitudes(phi, grid.delta)
    candidates = enumerate_candidates(acorr, L, psi, pair, phi_mags=phi)
    return prune_with_second_window(candidates, psi, pair, phi_mags=phi)


def _zero_class(L: int) -> LocalClass:
    """The class of a node whose data is negligible."""
    return LocalClass(
        representatives=(np.zeros(L, dtype=np.complex128),),
        includes_reflection=True,
        residual=0.0,
        is_zero=True,
    )


def recover_rows(
    phi_mags: np.ndarray,
    psi_mags: np.ndarray,
    pair: WindowPair,
    *,
    scale: Optional[float] = None,
) -> List[LocalClass]:
    """``recover_local`` on each row of a stack of nodes, rows (nodes, 2L) of
    both windows' magnitudes: one ``LocalClass`` per row, bit for bit what
    ``recover_local`` gives that row alone, or the error of the first row,
    in row order, that ``recover_local`` refuses.

    The stages run once per stack, on the rows whose data is not
    negligible: the lag inversion, the candidates (``_candidate_rows``:
    one ``eigvals`` call per support length, and the nodes the screen
    settles priced, built and placed together) and the pruning
    (``_pruned_candidates``: the nodes with as many candidates priced
    together).  Nodes with circle roots, a deferring screen, a rough
    survivor or too few branches for the screen go on alone through the
    same code, from the roots already found.  The stacked arrays grow with
    the rows, so a caller with many nodes hands them over a block at a
    time.
    """
    grid = pair.grid
    L = grid.L
    phi = np.asarray(phi_mags, dtype=np.float64)
    psi = np.asarray(psi_mags, dtype=np.float64)
    if phi.ndim != 2 or phi.shape != psi.shape or phi.shape[1] != 2 * L:
        raise ValueError(
            f"block recovery needs rows of one full alias period: (nodes, 2L = {2 * L}) "
            f"bins per window, got {phi.shape} and {psi.shape}"
        )
    out: List = []
    for peak in phi.max(axis=1, initial=0.0).tolist():
        ref = peak if scale is None else float(scale)
        out.append(_zero_class(L) if peak <= _ZERO_NODE_RTOL * ref or peak == 0.0 else None)
    nodes = [i for i, cls in enumerate(out) if cls is None]
    if nodes:
        if L > L_MAX:
            raise ValueError(f"enumeration bound exceeded: L = {L} > {L_MAX}")
        if len(nodes) < len(out):
            phi, psi = phi[nodes], psi[nodes]
        cands = _candidate_rows(autocorrelation_from_magnitudes(phi, grid.delta), L, pair, phi, psi)
        for i, cls in zip(nodes, _pruned_candidates(cands, phi, psi, pair)):
            out[i] = cls
    for cls in out:
        if isinstance(cls, Exception):
            raise cls
    return out
