"""Brute-force oracles that cross-check recovery against ground truth.

The central tool enumerates a small signal family, groups members by a
quantized measurement fingerprint, and checks within-group pairs for
equivalence.  A pair that shares measurements without being equivalent is a
uniqueness violation; whether "equivalent" admits the conjugate reflection
depends on the node set, since a bare lattice cannot see that ambiguity.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .signal_model import EQUIV_TOL, GridSpec, Signal, phase_fit, phase_residuals
from .window_engine import WindowPair
from .stft_engine import MeasurementSet, TimeNodes, measure_batch, sup_dev

#: Fingerprint quantum: coarser than measurement roundoff (~1e-10), finer
#: than the gaps between genuinely different magnitude patterns seen at this
#: scale.  Tunable if a family with pathologically close classes turns up.
FINGERPRINT_QUANTUM = 1e-7

ORACLE_CAP = 1_000_000

#: At most this many violating pairs are materialized as Signals; the count
#: field still reports all of them.
VIOLATION_CAP = 64

#: The oracle measures and groups this many rows per block and phase-checks
#: this many rows or pairs at a time.  Its working memory is then O(n) row
#: indices plus one key row per class, whatever the group sizes.
CHUNK = 2048


def _check_family_size(n: int) -> None:
    if n > ORACLE_CAP:
        raise ValueError(f"family too large: {n} instances exceeds the {ORACLE_CAP} cap")


def measurements_equal(
    m1: MeasurementSet, m2: MeasurementSet, tol: float = 1e-10
) -> Tuple[bool, float]:
    """Sup-norm comparison of two measurement sets over identical indices."""
    t1, t2 = m1.nodes.times, m2.nodes.times
    if len(t1) != len(t2) or any(abs(a - b) > 1e-12 for a, b in zip(t1, t2)):
        raise ValueError("measurement sets index different node times")
    if not np.array_equal(m1.freqs.omegas, m2.freqs.omegas):
        raise ValueError("measurement sets index different frequency bins")
    dev = sup_dev(m1.mags, m2.mags)
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


def pair_equivalent(u: np.ndarray, v: np.ndarray, allow_reflection: bool, tol: float = EQUIV_TOL):
    """Whether v is u up to global phase, or, when ``allow_reflection``, up
    to phase after the support-aligned conjugate reversal of u: the one pair
    verdict.  Works row-wise on 2-D inputs and returns a bool array there,
    running the reflection test only on the rows that fail the phase test."""
    equivalent = phase_residuals(u, v) <= tol
    if u.ndim == 1:
        return equivalent or (allow_reflection and _reflection_residual(u, v) <= tol)
    if allow_reflection:
        for p in np.flatnonzero(~equivalent):
            equivalent[p] = _reflection_residual(u[p], v[p]) <= tol
    return equivalent


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


class _KeyGroups:
    """Exact groups of equal key rows, gathered one block of rows at a time.

    Each row's key is hashed (``_hash_multipliers``) and looked up among the
    hashes of the groups' first rows so far, which are held sorted.  The row
    joins the first row with its hash when its full key equals that row's
    stored key; only a new first row's key is stored.  A row whose key
    differs (a hash collision) is grouped by its full key instead, so the
    grouping is exact.  Memory is O(n) indices plus one key per group.
    """

    def __init__(self, n: int, width: int):
        self.label = np.empty(n, dtype=np.intp)  # each row's group, by its lowest row
        self.multipliers = _hash_multipliers(width)
        self.hashes = np.empty(0, dtype=np.uint64)  # the stored keys' hashes, sorted
        self.slots = np.empty(0, dtype=np.intp)  # and where each one's key is stored
        # the stored keys and their rows, with room to grow: resized in place,
        # since no view of them is kept, so no two copies are held at once
        self.keys = np.empty((0, width), dtype=np.int64)
        self.rows = np.empty(0, dtype=np.intp)
        self.clashes: Dict[bytes, int] = {}  # each colliding key's lowest row

    def add(self, lo: int, keys: np.ndarray) -> None:
        """Group rows lo, lo + 1, ... of the family, whose keys these are."""
        # einsum gives the same wrapped sums as an integer matmul, faster
        hashes, first, inverse = np.unique(
            np.einsum("ij,j->i", keys.view(np.uint64), self.multipliers),
            return_index=True,
            return_inverse=True,
        )
        at = np.searchsorted(self.hashes, hashes)
        known = at < len(self.hashes)
        known[known] = self.hashes[at[known]] == hashes[known]
        fresh = np.flatnonzero(~known)
        slot = np.empty(len(hashes), dtype=np.intp)
        slot[known] = self.slots[at[known]]
        slot[fresh] = self._store(keys[first[fresh]], lo + first[fresh])
        self.hashes = np.insert(self.hashes, at[fresh], hashes[fresh])
        self.slots = np.insert(self.slots, at[fresh], slot[fresh])
        slot = slot[inverse]
        label = self.label[lo:lo + len(keys)]
        label[:] = self.rows[slot]
        for i in np.flatnonzero(np.any(keys != self.keys[slot], axis=1)).tolist():
            label[i] = self.clashes.setdefault(keys[i].tobytes(), lo + i)

    def _store(self, keys: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Store new first rows' keys; returns their slots."""
        start = len(self.hashes)  # one key is stored for each hash held
        end = start + len(keys)
        if end > len(self.rows):
            # a quarter more room, but never more than the rows not yet seen
            # could still need
            room = min(max(end, len(self.rows) * 5 // 4), start + len(self.label) - rows.min())
            self.keys.resize((room, self.keys.shape[1]), refcheck=False)
            self.rows.resize(room, refcheck=False)
        self.keys[start:end], self.rows[start:end] = keys, rows
        return np.arange(start, end)

    def groups(self) -> Tuple[np.ndarray, np.ndarray]:
        """(order, sizes): ``order`` lists the rows group by group, groups by
        first appearance and members in ascending row order, and ``sizes``
        gives the group sizes."""
        n = len(self.label)
        sizes = np.bincount(self.label, minlength=n)
        # (group, row) pairs are distinct, so any sort of them is stable
        return np.argsort(self.label * n + np.arange(n)), sizes[sizes > 0]


def _within_group_pairs(
    order: np.ndarray, sizes: np.ndarray, chunk: int
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every within-group pair of a grouping (``_KeyGroups.groups``), in
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


def _settled_groups(
    samples: np.ndarray, order: np.ndarray, sizes: np.ndarray, chunk: int
) -> np.ndarray:
    """Which groups of a grouping (``_KeyGroups.groups``) settle: those where
    every member m lies within ``EQUIV_TOL / 2 * min(||m||, ||w||)`` of a
    phase of the group's first member w, checked ``chunk`` members at a time.
    By the triangle inequality every pair (u, v) of a settled group then has a
    phase residual of at most ``EQUIV_TOL / sqrt(2)``, so none of its pairs is
    a violation.  A group of zero rows settles; a zero first row with a live
    member does not."""
    starts = np.cumsum(sizes) - sizes
    group = np.repeat(np.arange(len(sizes)), sizes)
    members = np.flatnonzero(np.arange(len(order)) != starts[group])  # all but first rows
    settled = np.ones(len(sizes), dtype=bool)
    for lo in range(0, len(members), chunk):
        at = members[lo:lo + chunk]
        m, w = samples[order[at]], samples[order[starts[group[at]]]]
        dist = phase_fit(m, w)[1]
        bound = EQUIV_TOL / 2 * np.minimum(np.linalg.norm(m, axis=1), np.linalg.norm(w, axis=1))
        settled[group[at[~(dist <= bound)]]] = False
    return settled


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
    ``measure_batch``, and each block's integer keys are grouped exactly as
    soon as they are made (``_KeyGroups``): a row's key is kept only when it
    is the first of its group.  So the oracle holds O(n) row indices plus
    O(classes x width) keys, never a key per row or a family-sized float
    array.

    Each group is then checked from its first member (``_settled_groups``):
    a clean group of g rows costs g - 1 phase fits, and none of its pairs
    can be a violation.  Every pair of a group that does not settle is
    judged by ``pair_equivalent``, ``CHUNK`` pairs at a time, so the report
    is the one that judging every pair would give.

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
    _check_family_size(n)
    start = time.perf_counter()
    # One block even for an empty family, so that measure_batch checks the
    # config.  A lone last row joins the block before it: a one-row product
    # takes BLAS's matrix-vector path, which may round the last bit apart.
    edges = list(range(0, max(n - 1, 1), CHUNK)) + [n]
    for lo, hi in zip(edges, edges[1:]):
        mags = measure_batch(samples[lo:hi], config.grid, config.pair, config.nodes)
        mags = mags.reshape(hi - lo, int(np.prod(mags.shape[1:])))
        if lo == 0:
            grouping = _KeyGroups(n, mags.shape[1])
        np.divide(mags, FINGERPRINT_QUANTUM, out=mags)
        grouping.add(lo, np.round(mags, out=mags).astype(np.int64))
    order, sizes = grouping.groups()
    del grouping  # its stored keys go before the pairs are checked
    settled = _settled_groups(samples, order, sizes, CHUNK)
    judged = np.flatnonzero(~settled)
    allow_reflection = config.nodes.mode == "lattice"
    kept: List[Tuple[int, int]] = []
    violation_count = 0
    violating = np.zeros(len(sizes), dtype=bool)
    pairs = _within_group_pairs(order[np.repeat(~settled, sizes)], sizes[judged], CHUNK)
    for rows_i, rows_j, pair_group in pairs:
        bad = np.flatnonzero(~pair_equivalent(samples[rows_i], samples[rows_j], allow_reflection))
        violation_count += len(bad)
        violating[judged[pair_group[bad]]] = True
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
    would wrap a negative one and a repeat would yield duplicate rows.  A
    family over ``ORACLE_CAP`` rows is refused before it is built."""
    cells = list(support_cells)
    for i, c in enumerate(cells):
        if c in cells[:i]:
            raise ValueError(f"support cell {c} is repeated")
        if not 0 <= c < grid.horizon:
            raise ValueError(f"support cell {c} is outside 0..{grid.horizon - 1}")
    letters = np.array([0, 1, 1j, -1], dtype=np.complex128)
    n = len(letters) ** len(cells)
    _check_family_size(n)
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
    coefficients, desc); coefficient columns run k = -degree .. degree.  A
    family over ``ORACLE_CAP`` rows is refused before it is built.
    """
    ks = np.arange(-degree, degree + 1)
    letters = np.array([0, 1, 1j, -1, -1j], dtype=np.complex128)
    n = len(letters) ** len(ks)
    _check_family_size(n)
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
