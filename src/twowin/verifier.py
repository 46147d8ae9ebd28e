"""Brute-force oracles that cross-check recovery against ground truth.

The central tool enumerates a small signal family, groups members by a
quantized measurement fingerprint, and checks every within-group pair for
equivalence.  A pair that shares measurements without being equivalent is a
uniqueness violation; whether "equivalent" admits the conjugate reflection
depends on the node set, since a bare lattice cannot see that ambiguity.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .signal_model import GridSpec, Signal, equivalent_up_to_phase, phase_residuals
from .window_engine import WindowPair
from .stft_engine import (
    MeasurementSet,
    TimeNodes,
    measure,
    measure_batch,
    node_segment,
    windowed_segment,
)
from .local_recovery import slot_reflect

#: Fingerprint quantum: coarser than measurement roundoff (~1e-10), finer
#: than the gaps between genuinely different magnitude patterns seen at this
#: scale.  Tunable if a family with pathologically close classes turns up.
FINGERPRINT_QUANTUM = 1e-7

ORACLE_CAP = 1_000_000

#: At most this many violating pairs are materialized as Signals; the count
#: field still reports all of them.
VIOLATION_CAP = 64

EQUIV_TOL = 1e-8

#: The oracle measures this many rows per block and phase-checks this many
#: pairs at a time, which bounds its working memory whatever the family's
#: size and group sizes.
CHUNK = 2048


def measurements_equal(
    m1: MeasurementSet, m2: MeasurementSet, tol: float = 1e-10
) -> Tuple[bool, float]:
    """Sup-norm comparison of two measurement sets over identical indices."""
    t1, t2 = m1.nodes.times, m2.nodes.times
    if len(t1) != len(t2) or any(abs(a - b) > 1e-12 for a, b in zip(t1, t2)):
        raise ValueError("measurement sets index different node times")
    if not np.array_equal(m1.freqs.omegas, m2.freqs.omegas):
        raise ValueError("measurement sets index different frequency bins")
    dev = float(np.max(np.abs(m1.mags - m2.mags))) if m1.mags.size else 0.0
    return dev <= tol, dev


def _reflection_residual(u: np.ndarray, v: np.ndarray) -> float:
    """Residual of v against the support-aligned conjugate reversal of u."""
    scale = max(float(np.max(np.abs(u))), float(np.max(np.abs(v))))
    if scale == 0.0:
        return 0.0
    su = np.nonzero(np.abs(u) > 1e-12 * scale)[0]
    sv = np.nonzero(np.abs(v) > 1e-12 * scale)[0]
    if su.size == 0 or sv.size == 0:
        return np.inf
    if su[-1] - su[0] != sv[-1] - sv[0]:
        return np.inf
    mirror = su[0] + sv[-1]
    w = np.zeros_like(v)
    idx = np.arange(sv[0], sv[-1] + 1)
    w[idx] = np.conj(u[mirror - idx])
    return phase_residuals(w, v)


def pair_equivalent(
    u: np.ndarray, v: np.ndarray, allow_reflection: bool, tol: float = EQUIV_TOL
) -> bool:
    if phase_residuals(u, v) <= tol:
        return True
    return allow_reflection and _reflection_residual(u, v) <= tol


@dataclass(frozen=True)
class OracleConfig:
    grid: GridSpec
    pair: WindowPair
    nodes: TimeNodes


@dataclass(frozen=True)
class OracleReport:
    description: str
    instance_count: int
    class_count: int
    violations: Tuple[Tuple[Signal, Signal], ...]
    violation_count: int
    elapsed: float
    #: family row indices (i, j), i < j, of each materialized violation
    violation_rows: Tuple[Tuple[int, int], ...]
    #: sorted row indices of every member of a fingerprint group that holds
    #: at least one violating pair (all of them, whatever the cap)
    ambiguous_rows: Tuple[int, ...]

    @property
    def unique(self) -> bool:
        return self.violation_count == 0


def _hash_multipliers(width: int) -> np.ndarray:
    """Fixed odd 64-bit multipliers, one per key column, of the row hash."""
    rng = np.random.default_rng(0)
    return rng.integers(0, 2**64, size=width, dtype=np.uint64) | np.uint64(1)


def _group_rows(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Rows with equal key rows, grouped: (order, sizes), where ``order`` lists
    the rows group by group and ``sizes`` the group sizes.  Groups come in
    order of first appearance, members in ascending row order.

    A stable sort on a 64-bit hash of each key row makes every run of equal
    hashes a candidate group, led by its lowest row.  Each member's key is
    checked against its leader's, and a run where one differs (a hash
    collision) is regrouped by full keys, so the grouping is exact."""
    n = len(keys)
    hashes = keys.view(np.uint64) @ _hash_multipliers(keys.shape[1])
    by_hash = np.argsort(hashes, kind="stable")
    sorted_hashes = hashes[by_hash]
    new_run = np.ones(n, dtype=bool)
    new_run[1:] = sorted_hashes[1:] != sorted_hashes[:-1]
    starts = np.flatnonzero(new_run)
    run = np.cumsum(new_run) - 1
    leader = by_hash[starts][run]
    clash = np.zeros(len(starts), dtype=bool)
    for lo in range(0, n, CHUNK):
        block = slice(lo, lo + CHUNK)
        differs = np.any(keys[by_hash[block]] != keys[leader[block]], axis=1)
        clash[run[block][differs]] = True
    ends = np.append(starts[1:], n)
    for r in np.flatnonzero(clash):
        members = by_hash[starts[r]:ends[r]]
        _, first, inverse = np.unique(
            keys[members], axis=0, return_index=True, return_inverse=True
        )
        leader[starts[r]:ends[r]] = members[first][inverse]
    label = np.empty(n, dtype=np.intp)
    label[by_hash] = leader  # each row's group, named by its lowest row
    sizes = np.bincount(label, minlength=n)
    return np.argsort(label, kind="stable"), sizes[sizes > 0]


def _within_group_pairs(
    order: np.ndarray, sizes: np.ndarray, chunk: int
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every within-group pair of a grouping (``_group_rows``'s arrays), in
    group order, then by the member position of i, then of j (so i < j when
    members are in row order).  Yields row arrays (i, j) and each pair's group
    index, ``chunk`` pairs at a time, so memory stays linear in the family size
    whatever the group sizes."""
    group = np.repeat(np.arange(len(sizes)), sizes)
    rank = np.arange(len(order)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    led = sizes[group] - 1 - rank  # pairs whose first member sits at each position
    ends = np.cumsum(led)
    total = int(ends[-1]) if len(ends) else 0
    for lo in range(0, total, chunk):
        q = np.arange(lo, min(lo + chunk, total))
        first = np.searchsorted(ends, q, side="right")
        second = first + 1 + q - (ends[first] - led[first])
        yield order[first], order[second], group[first]


def uniqueness_oracle(
    config: OracleConfig,
    samples: np.ndarray,
    description: str = "",
    violation_cap: int = VIOLATION_CAP,
) -> OracleReport:
    """Exhaustive measurement-collision scan over a family of sample rows.

    Rows are grouped by their measurements, quantized to
    ``FINGERPRINT_QUANTUM``; every within-group pair that is not equivalent
    is a violation.  Equivalence is global phase, plus the support-aligned
    conjugate reversal when the nodes form a bare lattice (no anchor, no
    second line), matching what such measurements can possibly determine.

    The family is measured in blocks of ``CHUNK`` rows, each through
    ``measure_batch`` and straight into one integer key array, so no
    family-sized float array is built; rows are then grouped exactly by a
    sort on the keys' hashes (``_group_rows``).  The phase test runs on
    ``CHUNK`` pairs at a time, and the reflection test only on the pairs that
    fail it.

    Violations come in group order (groups by first appearance), then member
    order; the first ``violation_cap`` are materialized as Signal pairs, with
    their row indices in ``violation_rows``.  ``ambiguous_rows`` lists every
    row whose group holds a violation.
    """
    samples = np.asarray(samples, dtype=np.complex128)
    horizon = config.grid.horizon
    if samples.ndim != 2 or samples.shape[1] != horizon:
        raise ValueError(
            f"samples must be (n, {horizon}) sample rows to match the grid "
            f"horizon, got {samples.shape}"
        )
    n = samples.shape[0]
    if n > ORACLE_CAP:
        raise ValueError(f"family too large: {n} instances exceeds the {ORACLE_CAP} cap")
    start = time.perf_counter()
    # One block even for an empty family, so that measure_batch checks the
    # config.  A lone last row joins the block before it: a one-row product
    # takes BLAS's matrix-vector path, which may round the last bit apart.
    edges = list(range(0, max(n - 1, 1), CHUNK)) + [n]
    for lo, hi in zip(edges, edges[1:]):
        mags = measure_batch(samples[lo:hi], config.grid, config.pair, config.nodes)
        mags = mags.reshape(hi - lo, int(np.prod(mags.shape[1:])))
        if lo == 0:
            keys = np.empty((n, mags.shape[1]), dtype=np.int64)
        np.divide(mags, FINGERPRINT_QUANTUM, out=mags)
        keys[lo:hi] = np.round(mags, out=mags)
    order, sizes = _group_rows(keys)
    allow_reflection = config.nodes.mode == "lattice"
    kept: List[Tuple[int, int]] = []
    violation_count = 0
    violating = np.zeros(len(sizes), dtype=bool)
    for rows_i, rows_j, pair_group in _within_group_pairs(order, sizes, CHUNK):
        equivalent = phase_residuals(samples[rows_i], samples[rows_j]) <= EQUIV_TOL
        if allow_reflection:
            for p in np.flatnonzero(~equivalent):
                equivalent[p] = (
                    _reflection_residual(samples[rows_i[p]], samples[rows_j[p]]) <= EQUIV_TOL
                )
        bad = np.flatnonzero(~equivalent)
        violation_count += len(bad)
        violating[pair_group[bad]] = True
        keep = bad[:max(violation_cap - len(kept), 0)]
        kept.extend(zip(rows_i[keep].tolist(), rows_j[keep].tolist()))
    ambiguous = np.sort(order[np.repeat(violating, sizes)])
    return OracleReport(
        description=description,
        instance_count=n,
        class_count=len(sizes),
        violations=tuple(
            (Signal(config.grid, samples[i].copy()), Signal(config.grid, samples[j].copy()))
            for i, j in kept
        ),
        violation_count=violation_count,
        elapsed=time.perf_counter() - start,
        violation_rows=tuple(kept),
        ambiguous_rows=tuple(ambiguous.tolist()),
    )


def alphabet_family(grid: GridSpec, support_cells: Sequence[int]) -> Tuple[np.ndarray, str]:
    """All signals with a value from {0, 1, i, -1} on each of the given
    cells, zero elsewhere.  Each cell must be a distinct grid index: numpy
    would wrap a negative one and a repeat would yield duplicate rows."""
    cells = list(support_cells)
    for i, c in enumerate(cells):
        if c in cells[:i]:
            raise ValueError(f"support cell {c} is repeated")
        if not 0 <= c < grid.horizon:
            raise ValueError(f"support cell {c} is outside 0..{grid.horizon - 1}")
    letters = np.array([0, 1, 1j, -1], dtype=np.complex128)
    n = len(letters) ** len(cells)
    digits = np.stack(
        np.unravel_index(np.arange(n), (len(letters),) * len(cells)), axis=1
    )
    samples = np.zeros((n, grid.horizon), dtype=np.complex128)
    samples[:, cells] = letters[digits]
    desc = f"{len(letters)}-letter alphabet on {len(cells)} cells ({n} signals)"
    return samples, desc


def trig_family(grid: GridSpec, T: float, degree: int) -> Tuple[np.ndarray, np.ndarray, str]:
    """All T-periodic exponential sums of the given degree with coefficients
    from {0, 1, i, -1, -i}, sampled on the grid.  Returns (samples,
    coefficients, desc); coefficient columns run k = -degree .. degree.
    """
    ks = np.arange(-degree, degree + 1)
    letters = np.array([0, 1, 1j, -1, -1j], dtype=np.complex128)
    n = len(letters) ** len(ks)
    digits = np.stack(np.unravel_index(np.arange(n), (len(letters),) * len(ks)), axis=1)
    coeffs = letters[digits]
    E = np.exp(2j * np.pi * np.outer(ks, grid.coords()) / T)
    samples = coeffs @ E
    desc = (
        f"trig polynomials of degree {degree}, {len(letters)}-level "
        f"coefficients, period {T} ({n} signals)"
    )
    return samples, coeffs, desc


def is_conjugate_twist_mate(cf: np.ndarray, cg: np.ndarray) -> bool:
    """Whether cg_k = nu * zeta^k * conj(cf_k) for some unimodular nu, zeta.

    This is the coefficient form of a conjugate reflection about some time
    center; every two-line collision of periodic signals must have it.
    Coefficient columns are indexed k = -(len-1)/2 .. +(len-1)/2.
    """
    cf = np.asarray(cf, dtype=np.complex128)
    cg = np.asarray(cg, dtype=np.complex128)
    if cf.shape != cg.shape:
        return False
    tol = EQUIV_TOL * max(float(np.max(np.abs(cf))), float(np.max(np.abs(cg))), 1e-300)
    live = np.abs(cf) > tol
    if not np.array_equal(live, np.abs(cg) > tol):
        return False
    ks = np.nonzero(live)[0] - (len(cf) - 1) // 2
    if ks.size == 0:
        return True
    vals_f = np.conj(cf[live])
    vals_g = cg[live]
    if np.max(np.abs(np.abs(vals_f) - np.abs(vals_g))) > tol:
        return False
    ratios = vals_g / vals_f
    if ks.size == 1:
        return True
    d = int(ks[1] - ks[0])
    base = ratios[1] / ratios[0]
    for j in range(d):
        zeta = base ** (1.0 / d) * np.exp(2j * np.pi * j / d)
        nu = ratios[0] / zeta ** ks[0]
        if np.max(np.abs(vals_g - nu * zeta ** ks.astype(float) * vals_f)) <= tol:
            return True
    return False


def per_window_gluing_check(
    f: Signal,
    g: Signal,
    pair: WindowPair,
    nodes: TimeNodes,
) -> bool:
    """Whether g looks like f, per node window, up to a free phase and an
    optional slot reflection in each window separately.  Non-overlapping
    windows (step a > B) cannot pin these choices to each other, which is
    exactly how their collisions arise.
    """
    scale = max(
        float(np.max(np.abs(f.samples))), float(np.max(np.abs(g.samples))), 1e-300
    )
    for t in nodes.times:
        hf = windowed_segment(f, pair, t)
        hg = windowed_segment(g, pair, t)
        if max(np.max(np.abs(hf)), np.max(np.abs(hg))) <= 1e-12 * scale:
            continue
        if phase_residuals(hf, hg) <= EQUIV_TOL:
            continue
        mate = slot_reflect(hf)
        if mate is not None and phase_residuals(mate, hg) <= EQUIV_TOL:
            continue
        return False
    return True


def _raw_segment(f: Signal, t: float) -> np.ndarray:
    return node_segment(f.grid, t, f.samples).samples


def lemma32_equivalence_check(f: Signal, g: Signal, pair: WindowPair, t: float) -> bool:
    """Truth of the single-node biconditional: the two windows' magnitudes at
    t agree exactly when the signals restricted to the node window agree up
    to phase or up to a conjugate reflection about t.

    The check is repeated under eight random global phase rotations of g,
    which change neither side; all repetitions must agree.
    """
    nodes = TimeNodes(mode="lattice", times=(float(t),))
    mf = measure(f, pair, nodes)
    hf = _raw_segment(f, t)
    rng = np.random.default_rng(0)
    outcomes = []
    for trial in range(9):
        gs = g if trial == 0 else Signal(
            g.grid, g.samples * np.exp(2j * np.pi * rng.random())
        )
        mg = measure(gs, pair, nodes)
        scale = max(float(np.max(mf.mags)), float(np.max(mg.mags)), 1.0)
        lhs = float(np.max(np.abs(mf.mags - mg.mags))) <= 1e-10 * scale
        hg = _raw_segment(gs, t)
        rhs = phase_residuals(hf, hg) <= EQUIV_TOL
        if not rhs:
            mate = slot_reflect(hg)
            rhs = mate is not None and phase_residuals(hf, mate) <= EQUIV_TOL
        outcomes.append(lhs == rhs)
    return all(outcomes)


@dataclass(frozen=True)
class RefinementReport:
    steps: Tuple[float, ...]
    deviations: Tuple[float, ...]
    forced_at: Optional[int]
    phase_equivalent: bool


def semidiscrete_refinement_check(
    f: Signal,
    g: Signal,
    pair: WindowPair,
    *,
    a0: Optional[float] = None,
) -> RefinementReport:
    """Stand-in for measurements over all real times: halve the node step
    (``a0``, B by default) at each of four levels and report the first level
    whose measurements separate the pair by more than 1e-10 of their scale
    (or level 0 if the pair was equivalent to begin with).

    Only nodes whose windows sit fully inside the horizon are used, so the
    finite-span truncation of an unbounded signal cannot masquerade as a
    separation.  forced_at None means the pair survives every scanned
    level, the signature of a genuine all-time counterexample.
    """
    grid = f.grid
    if a0 is None:
        a0 = grid.B
    x_lo = float(grid.x(0))
    x_hi = float(grid.x(grid.horizon - 1)) + grid.delta
    phase_eq = equivalent_up_to_phase(f, g)
    forced = 0 if phase_eq else None
    steps: List[float] = []
    devs: List[float] = []
    for level in range(4):
        step = a0 / 2 ** level
        m_lo = int(np.ceil((x_lo + grid.B) / step - 1e-9))
        m_hi = int(np.floor((x_hi - grid.B) / step + 1e-9))
        steps.append(step)
        if m_lo > m_hi:
            devs.append(0.0)
            continue
        nodes = TimeNodes.lattice(step, range(m_lo, m_hi + 1))
        mf = measure(f, pair, nodes)
        mg = measure(g, pair, nodes)
        dev = float(np.max(np.abs(mf.mags - mg.mags)))
        devs.append(dev)
        scale = max(float(np.max(mf.mags)), 1.0)
        if forced is None and dev > 1e-10 * scale:
            forced = level
    return RefinementReport(
        steps=tuple(steps),
        deviations=tuple(devs),
        forced_at=forced,
        phase_equivalent=phase_eq,
    )
