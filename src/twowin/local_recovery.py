"""Single-node recovery of windowed content from two magnitude spectra.

The first window's magnitudes over one alias period determine the
autocorrelation of the length-L content vector exactly.  Factoring that
autocorrelation yields finitely many candidates (root mirror choices times
support placements); the second window's magnitudes prune them down to at
most two phase classes, which are conjugate slot reflections of each other
when both survive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .window_engine import WindowPair

#: Relative threshold for matching a root with its mirror partner 1/conj(r).
PAIRING_TOL = 1e-6

#: Candidates whose predicted spectra sit within this relative defect survive.
ACCEPT_TOL = 1e-8

#: Two survivors within this relative distance (after phase alignment) are
#: the same class.
CLASS_TOL = 1e-6

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
        [np.sum(hv[l:] * np.conj(hv[: n - l])) for l in range(n)],
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
    """
    m = np.asarray(phi_mags, dtype=np.float64)
    if m.ndim != 1 or m.size % 2 != 0 or m.size < 2:
        raise ValueError(f"need an even number of bins (one alias period), got shape {m.shape}")
    L = m.size // 2
    ns = np.arange(-L, L)
    ls = np.arange(L)
    E = np.exp(1j * np.pi * np.outer(ls, ns) / L)
    acorr = (E @ (m * m).astype(np.complex128)) / (2 * L * delta * delta)
    acorr[0] = acorr[0].real
    return acorr


def slot_reflect(h: np.ndarray) -> Optional[np.ndarray]:
    """Conjugate reflection about the node slot s = L//2, or None.

    Maps index j to 2s - j.  Admissible only when every nonzero entry lands
    back inside 0..L-1; for odd L that is always, for even L it requires the
    unpaired first slot to vanish.
    """
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
            # j -> 2s - j is an involution, so "source out of range for j"
            # is the same as "content at j has nowhere to land"
            return None
    return out


def _phase_match(u: np.ndarray, v: np.ndarray, tol: float) -> bool:
    """True when u = lambda v for some unimodular lambda, relatively to ||u||."""
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    ref = max(nu, nv)
    if ref == 0.0:
        return True
    ip = np.vdot(v, u)
    lam = ip / abs(ip) if abs(ip) > 0 else 1.0
    return float(np.linalg.norm(u - lam * v)) <= tol * ref


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


def _poly_batch(roots: np.ndarray) -> np.ndarray:
    """Monic coefficients, highest degree first, for each row of ``roots``.

    Multiplies in one linear factor per step for the whole batch, in the
    root order np.poly uses, and like np.poly drops the imaginary part of a
    row whose roots are closed under conjugation.
    """
    n, k = roots.shape
    c = np.zeros((n, k + 1), dtype=np.complex128)
    c[:, 0] = 1.0
    for j in range(k):
        c[:, 1 : j + 2] -= roots[:, j : j + 1] * c[:, : j + 1]
    real = np.all(np.sort(roots, axis=1) == np.sort(roots.conj(), axis=1), axis=1)
    c[real] = c[real].real
    return c


def _normalized_cores(roots: np.ndarray, a0: float) -> np.ndarray:
    """Ascending coefficients of each root row, scaled to energy a0."""
    c = _poly_batch(roots)[:, ::-1]
    return c * np.sqrt(a0 / np.sum(np.abs(c) ** 2, axis=1))[:, None]


def _lag_defect(cores: np.ndarray, lags: np.ndarray, s_eff: int) -> np.ndarray:
    """Autocorrelation of each core minus the target lags 0 .. s_eff-1."""
    F = np.fft.fft(cores, n=2 * s_eff, axis=-1)
    return np.fft.ifft(np.abs(F) ** 2, axis=-1)[..., :s_eff] - lags[:s_eff]


def _refine_circle_angles(
    fixed: np.ndarray,
    angles: np.ndarray,
    lags: np.ndarray,
    s_eff: int,
    a0: float,
) -> np.ndarray:
    """Gauss-Newton on the unit-circle root angles against the lag data.

    np.roots locates a split multiple root only to about eps**(1/m), and no
    amount of polynomial-evaluation polish beats sqrt(eps) for a double root.
    The lag map as a function of the angles has no such degeneracy (radial
    root motion is what cancels at first order, tangential motion is not),
    so a few least-squares steps recover machine accuracy.

    Each row of ``fixed`` (roots that stay put) and ``angles`` is one branch,
    refined on its own: a branch stops when it converges or a step fails to
    lower its residual.  Returns the refined cores, one per row.
    """
    n, k = angles.shape
    # row 0 is the angle vector itself, row 1 + j moves angle j by the
    # finite-difference step: a trial point and its Jacobian share one batch
    probe = np.vstack([np.zeros(k), 1e-7 * np.eye(k)])

    def evaluate(fx: np.ndarray, th: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        m = th.shape[0]
        circle = np.exp(1j * (th[:, None, :] + probe)).reshape(m * (k + 1), k)
        roots = np.concatenate([np.repeat(fx, k + 1, axis=0), circle], axis=1)
        cores = _normalized_cores(roots, a0).reshape(m, k + 1, s_eff)
        d = _lag_defect(cores, lags, s_eff)
        res = np.concatenate([d.real, d.imag], axis=2)
        return cores[:, 0], res, np.linalg.norm(res[:, 0], axis=1)

    th = angles.copy()
    best, res, best_norm = evaluate(fixed, th)
    active = np.ones(n, dtype=bool)
    for _ in range(10):
        active &= best_norm > 1e-14 * max(1.0, a0) * np.sqrt(2 * s_eff)
        idx = np.flatnonzero(active)
        if not idx.size:
            break
        r = res[idx, 0]
        J = np.swapaxes(res[idx, 1:] - r[:, None, :], 1, 2) / 1e-7
        # the singular-value cutoff that lstsq applies with rcond=None
        cutoff = np.finfo(np.float64).eps * max(J.shape[1:])
        dth = -(np.linalg.pinv(J, rcond=cutoff) @ r[:, :, None])[:, :, 0]
        finite = np.all(np.isfinite(dth), axis=1)
        dth[~finite] = 0.0
        span = np.max(np.abs(dth), axis=1)
        over = span > 0.3
        dth[over] *= (0.3 / span[over])[:, None]
        tn = th[idx] + dth
        cn, rn, nn = evaluate(fixed[idx], tn)
        better = finite & (nn < best_norm[idx])
        keep = idx[better]
        th[keep], res[keep] = tn[better], rn[better]
        best_norm[keep], best[keep] = nn[better], cn[better]
        active[idx[~better]] = False
    return best


def _factor_once(
    roots: np.ndarray,
    lags: np.ndarray,
    s_eff: int,
    a0: float,
    circle_tol: float,
) -> np.ndarray:
    """One classify/pair/build/refine/validate pass at a given circle tolerance.

    Returns the validated cores, one per row.
    """
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

    raw = _normalized_cores(chosen, a0)
    # branches holding unit-circle roots are refined, one batch per count
    n_circ = circ.sum(axis=1)
    for k in np.unique(n_circ[n_circ > 0]):
        rows = np.flatnonzero(n_circ == k)
        on = circ[rows]
        raw[rows] = _refine_circle_angles(
            chosen[rows][~on].reshape(rows.size, -1),
            np.angle(chosen[rows][on]).reshape(rows.size, k),
            lags, s_eff, a0,
        )

    defect = np.max(np.abs(_lag_defect(raw, lags, s_eff)), axis=1)
    ok = defect <= CANDIDATE_AUTOCORR_TOL * max(1.0, a0)
    if not ok.any():
        raise UnrealizableAutocorrelation(
            "autocorrelation not realizable: every pairing branch failed validation"
        )
    return raw[ok]


def enumerate_candidates(acorr: Sequence[complex], L: int) -> List[np.ndarray]:
    """All length-L content vectors whose autocorrelation matches ``acorr``.

    Factors the two-sided lag polynomial; its roots pair off as mirror
    images (r, 1/conj(r)).  Each off-circle pair contributes a binary
    choice, unit-circle roots are forced, and every choice is embedded at
    each admissible support offset because the first window's data cannot
    see where inside the cell range the content sits.

    The count is at most 2^(s-1) pairings times L - s + 1 placements for
    effective support length s.  All branches of a node are built as one
    batch: one array row per branch, one linear factor applied to every row
    per step; placement, phase canonicalization and dedup run over the same
    batch.  Candidates come back sorted by their quantized byte keys.
    Raises UnrealizableAutocorrelation when some root has no mirror partner.
    """
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
                cores = _factor_once(roots, a, s_eff, a0, circle_tol)
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


@dataclass(frozen=True)
class LocalClass:
    """Surviving phase classes of windowed content at one node."""

    representatives: Tuple[np.ndarray, ...]
    includes_reflection: bool
    residual: float
    is_zero: bool = False

    @property
    def representative(self) -> np.ndarray:
        return self.representatives[0]


def _spectrum_matrix(grid, omegas: np.ndarray) -> np.ndarray:
    """exp(-2 i pi u_j omega) for the node's cell offsets u_j, one row per j."""
    u = (np.arange(grid.L) - grid.L // 2) * grid.delta
    return np.exp(-2j * np.pi * np.outer(u, omegas))


def _content_spectrum(cands: np.ndarray, grid, omegas: np.ndarray) -> np.ndarray:
    """delta * sum_j h_j exp(-2 i pi u_j omega) for a batch of contents."""
    return grid.delta * (cands @ _spectrum_matrix(grid, omegas))


def _polish_content(
    h: np.ndarray, blocks: Sequence[Tuple[np.ndarray, np.ndarray]], scale: float
) -> np.ndarray:
    """Gauss-Newton on a content vector against magnitude rows |h @ M| = m.

    ``blocks`` holds (M, m) pairs; the real and imaginary parts of h are the
    unknowns.  Steps stop as soon as the residual stops falling.
    """

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

    r, J = linearize(h)
    best = float(np.linalg.norm(r))
    for _ in range(8):
        step, *_ = np.linalg.lstsq(J, -r, rcond=None)
        hn = h + step[: h.size] + 1j * step[h.size :]
        rn, Jn = linearize(hn)
        nn = float(np.linalg.norm(rn))
        if not nn < best:
            break
        h, r, J, best = hn, rn, Jn, nn
    return h


def prune_with_second_window(
    candidates: Sequence[np.ndarray],
    psi_mags: Sequence[float],
    pair: WindowPair,
    *,
    phi_mags: Optional[Sequence[float]] = None,
    accept_tol: float = ACCEPT_TOL,
) -> LocalClass:
    """Score factorization candidates against the second window's magnitudes.

    The prediction uses the exact two-window identity: with H(omega) the
    content spectrum, |V_psi| at bin n equals |H(omega_n + b) - H(omega_n)|.
    Survivors are grouped into phase classes; the dichotomy permits one
    class, or two that are conjugate slot reflections of each other.

    When no candidate passes and ``phi_mags`` is given, the one with the
    lowest defect is polished by Gauss-Newton against both windows'
    magnitudes and tested again at the same ``accept_tol``: a mirror root
    pair within about sqrt(eps) of the unit circle comes back from np.roots
    only to about sqrt(eps), which leaves a genuine candidate with a defect
    far above the tolerance.
    """
    grid = pair.grid
    L = grid.L
    psi = np.asarray(psi_mags, dtype=np.float64)
    if psi.size != 2 * L:
        raise ValueError(f"need 2L = {2 * L} second-window bins, got {psi.size}")
    phi = None if phi_mags is None else np.asarray(phi_mags, dtype=np.float64)
    C = np.asarray(candidates, dtype=np.complex128).reshape(-1, L)
    omegas = np.arange(-L, L) / (4.0 * grid.B)

    a0 = float(np.max(np.sum(np.abs(C) ** 2, axis=1))) if C.size else 0.0
    scale = grid.delta * np.sqrt(2 * L * a0) if a0 > 0 else 1.0

    def defects_of(X: np.ndarray) -> np.ndarray:
        H1 = _content_spectrum(X, grid, omegas)
        H2 = _content_spectrum(X, grid, omegas + pair.b)
        d = np.linalg.norm(np.abs(H2 - H1) - psi, axis=1) / scale
        if phi is not None:
            d = np.hypot(d, np.linalg.norm(np.abs(H1) - phi, axis=1) / scale)
        return d

    defects = defects_of(C)
    best = defects.min() if defects.size else np.inf
    # the second window alone has as many equations as a content vector has
    # unknowns, so only both windows together can vouch for a polished fit
    if C.size and phi is not None and not best <= accept_tol:
        M1 = grid.delta * _spectrum_matrix(grid, omegas)
        M2 = grid.delta * _spectrum_matrix(grid, omegas + pair.b)
        blocks = [(M2 - M1, psi), (M1, phi)]
        C = _polish_content(C[int(np.argmin(defects))], blocks, scale)[None, :]
        defects = defects_of(C)
        best = min(best, defects[0])

    order = [i for i in range(C.shape[0]) if defects[i] <= accept_tol]
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
        mate = slot_reflect(C[classes[0]])
        if mate is None or not _phase_match(mate, C[classes[1]], CLASS_TOL):
            raise AmbiguityViolation(
                "ambiguity violation: two surviving classes are not conjugate mates"
            )

    mate = slot_reflect(C[classes[0]])
    includes_reflection = mate is not None and defects_of(mate[None, :])[0] <= accept_tol

    return LocalClass(
        representatives=tuple(C[i] for i in classes),
        includes_reflection=bool(includes_reflection),
        residual=float(min(defects[i] for i in classes)),
    )


def recover_local(
    phi_mags: Sequence[float],
    psi_mags: Sequence[float],
    pair: WindowPair,
    *,
    scale: Optional[float] = None,
    accept_tol: float = ACCEPT_TOL,
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
        return LocalClass(
            representatives=(np.zeros(L, dtype=np.complex128),),
            includes_reflection=True,
            residual=0.0,
            is_zero=True,
        )
    acorr = autocorrelation_from_magnitudes(phi, grid.delta)
    candidates = enumerate_candidates(acorr, L)
    return prune_with_second_window(
        candidates, psi, pair, phi_mags=phi, accept_tol=accept_tol
    )
