"""Forward model: windowed Fourier magnitudes on a finite grid.

The transform of a signal f against a window w at time node t and frequency
omega is the left-endpoint quadrature

    V(t, omega) = delta * sum_k f(x_k) * conj(w(x_k - t)) * exp(-2i pi x_k omega)

over the grid points with x_k - t in [-B, B).  That half-open window always
contains exactly L grid points, whether or not t itself is on the grid.  The
quadrature is not an approximation here; the sampled model is the object of
study, and every downstream identity is exact for it.

Magnitude data are collected on the critical frequency grid omega_n = n/(4B).
Measurements are exactly periodic in n with period 2L, so one alias period
n = -N .. N-1 (N = L by default) carries everything there is to know.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .signal_model import GridSpec, Signal, critical_omega
from .window_engine import WindowPair

WINDOW_NAMES = ("phi", "psi")

#: Defect bound for the exact difference identity between the two windows.
DIFFERENCE_IDENTITY_TOL = 1e-10

#: Nodes whose segments and exponential tables are built and held at a time,
#: so a long lattice never holds a table for every node at once.
NODE_BLOCK = 16

#: Bytes of exponential tables ``block_exponentials`` holds at most, the
#: least recently used block going first.  Every block of a horizon-4096
#: lattice at L = 8 fits (65 tables, 2.1 MB); a horizon-16384 one (8.4 MB)
#: does not, so a long lattice holds no more than this however long it is.
TABLE_MEMO_BYTES = 1 << 22


@dataclass(frozen=True)
class FrequencyGrid:
    """Frequency sampling for the measurements.

    mode "critical": omega_n = n / (4B) for n = -N .. N-1, one alias period
    when N equals the window cell count L.  mode "custom": explicit
    frequencies; ``meets_density`` records whether the finite surrogate of the
    sampling-density condition (some n / omega_n reaching 4B) holds.
    """

    mode: str
    B: float
    N: int = 0
    omegas_custom: Tuple[float, ...] = ()

    @classmethod
    def critical(cls, N: int, B: float) -> "FrequencyGrid":
        if N < 1:
            raise ValueError(f"N must be positive, got {N}")
        return cls(mode="critical", B=B, N=N)

    @classmethod
    def custom(cls, omegas: Sequence[float], B: float) -> "FrequencyGrid":
        if len(omegas) == 0:
            raise ValueError("custom frequency grid must be nonempty")
        return cls(mode="custom", B=B, omegas_custom=tuple(float(w) for w in omegas))

    @property
    def ns(self) -> np.ndarray:
        if self.mode != "critical":
            raise ValueError("integer bin indices exist only for the critical grid")
        return np.arange(-self.N, self.N)

    @property
    def omegas(self) -> np.ndarray:
        if self.mode == "critical":
            return critical_omega(self.ns, self.B)
        return np.asarray(self.omegas_custom, dtype=float)

    @property
    def meets_density(self) -> bool:
        """Finite surrogate of the sampling-density requirement.

        Public API, although the package itself never reads it: the paper's
        uniqueness results assume this density, and ``measure`` accepts any
        custom grid, sparse ones included, so a caller checks it here before
        reading equal measurements on a custom grid as a statement about
        uniqueness.
        """
        if self.mode == "critical":
            return True
        pos = np.sort([w for w in self.omegas_custom if w > 0])
        if pos.size == 0:
            return False
        ranks = np.arange(1, pos.size + 1)
        return bool(np.max(ranks / pos) >= 4.0 * self.B - 1e-12)

    def __len__(self) -> int:
        return 2 * self.N if self.mode == "critical" else len(self.omegas_custom)


@dataclass(frozen=True)
class TimeNodes:
    """Declared time nodes for a measurement run.

    modes: "lattice" (times m*a), "lattice_plus_anchor" (same plus one
    off-lattice anchor, stored last), "two_lines" (exactly two nodes, used by
    the periodic pipeline).  ``a`` is the lattice step where applicable.
    """

    mode: str
    times: Tuple[float, ...]
    a: Optional[float] = None

    def __post_init__(self):
        if self.mode not in ("lattice", "lattice_plus_anchor", "two_lines"):
            raise ValueError(f"unknown node mode {self.mode!r}")
        if not self.times:
            raise ValueError("node set must be nonempty")
        if self.mode == "two_lines" and len(self.times) != 2:
            raise ValueError("two_lines mode needs exactly two node times")

    @classmethod
    def lattice(cls, a: float, m_range: Sequence[int]) -> "TimeNodes":
        if a <= 0:
            raise ValueError(f"lattice step must be positive, got {a}")
        times = tuple(float(m) * a for m in m_range)
        return cls(mode="lattice", times=times, a=float(a))

    @classmethod
    def lattice_plus_anchor(cls, a: float, m_range: Sequence[int], t0: float) -> "TimeNodes":
        times = cls.lattice(a, m_range).times + (float(t0),)
        frac = t0 / a - round(t0 / a)
        if abs(frac) <= 1e-9:
            raise ValueError(
                f"anchor t0={t0!r} coincides with a lattice node; it must sit strictly between nodes"
            )
        return cls(mode="lattice_plus_anchor", times=times, a=float(a))

    @classmethod
    def two_lines(cls, t0: float, t1: float) -> "TimeNodes":
        if t0 == t1:
            raise ValueError("the two node lines must be distinct")
        return cls(mode="two_lines", times=(float(t0), float(t1)))

    @classmethod
    def lattice_covering(
        cls, grid: GridSpec, a: float, anchor: Optional[float] = None
    ) -> "TimeNodes":
        """Lattice nodes whose windows jointly cover the whole horizon."""
        x_first = float(grid.x(0))
        x_last = float(grid.x(grid.horizon - 1))
        m_min = math.floor((x_first - grid.B) / a + 1e-9) + 1
        m_max = math.floor((x_last + grid.B) / a + 1e-9)
        m_range = range(m_min, m_max + 1)
        if anchor is None:
            return cls.lattice(a, m_range)
        return cls.lattice_plus_anchor(a, m_range, anchor)

    @staticmethod
    def inside_range(grid: GridSpec, a: float) -> range:
        """The lattice indices m whose node windows [ma - B, ma + B) sit
        wholly inside the horizon; empty when no window fits."""
        x_lo = float(grid.x(0))
        x_hi = float(grid.x(grid.horizon - 1)) + grid.delta
        m_lo = math.ceil((x_lo + grid.B) / a - 1e-9)
        m_hi = math.floor((x_hi - grid.B) / a + 1e-9)
        return range(m_lo, m_hi + 1)

    @property
    def anchor_index(self) -> Optional[int]:
        """The anchor's row, which the mode fixes: only lattice_plus_anchor
        has an anchor, and it is stored last."""
        return len(self.times) - 1 if self.mode == "lattice_plus_anchor" else None

    @property
    def lattice_rows(self) -> List[int]:
        """Row indices of the lattice nodes: every node but the anchor."""
        return list(range(len(self.times) - (self.anchor_index is not None)))

    @property
    def lattice_times(self) -> Tuple[float, ...]:
        return tuple(self.times[i] for i in self.lattice_rows)

    @property
    def anchor(self) -> Optional[float]:
        return None if self.anchor_index is None else self.times[self.anchor_index]


def default_anchor(a: float, horizon: int) -> float:
    """Deterministic off-lattice anchor, a*(1/2 + 1/(2*horizon)).

    Sits near mid-cell with an offset no lattice refinement inside the horizon
    resolves, the discrete stand-in for an incommensurate anchor.
    """
    return a * (0.5 + 0.5 / horizon)


@dataclass(frozen=True)
class MeasurementSet:
    """Magnitude data |V(t, omega)| for both windows at declared nodes.

    mags has shape (2, n_nodes, n_bins); axis 0 is (phi, psi).
    """

    pair: WindowPair
    nodes: TimeNodes
    freqs: FrequencyGrid
    mags: np.ndarray

    @property
    def grid(self) -> GridSpec:
        return self.pair.grid


class NodeSegment(NamedTuple):
    """What the window sees at one node time, or at each of a block of them.

    ``cells`` are the L absolute grid indices k with x_k - t in [-B, B)
    (from ``first_cell``), ``on`` marks those inside the horizon, ``samples``
    holds the signal values gathered there (zero off the horizon; any leading
    batch axes are kept) and ``conj_windows`` the conjugates of the requested
    windows' values at the offsets x_k - t, the factors the transform's sum
    multiplies by.  One time gives (L,) cells; a block of n times gives
    (n, L), with the node axis just before the cell axis.
    """

    cells: np.ndarray
    on: np.ndarray
    samples: Optional[np.ndarray]
    conj_windows: Tuple[np.ndarray, ...]


def first_cell(grid: GridSpec, t):
    """The first grid index k under the window at t, or an int64 array of
    them for an array of times: x_k - t >= -B, snapped to 1e-9 of a cell."""
    k = (t - grid.B) / grid.delta + grid.origin - 1e-9
    return np.ceil(k).astype(np.int64)


def node_segment(
    grid: GridSpec,
    t,
    samples: Optional[np.ndarray] = None,
    pair: Optional[WindowPair] = None,
    which: Sequence[str] = WINDOW_NAMES,
) -> NodeSegment:
    """The cells under the window at t, or at each time of an array t in one
    pass, with the samples and conjugated window values there when
    ``samples`` and ``pair`` are given.  The samples are zero-filled only
    where a window leaves the horizon.  On the grid the windows are the slot
    samples; off it an analytic profile is evaluated at the offsets, and a
    sample-defined window refuses the time."""
    times = np.asarray(t, dtype=float)
    k = first_cell(grid, times)[..., None] + np.arange(grid.L)
    on = (k >= 0) & (k < grid.horizon)
    fv = None
    if samples is not None:
        if on.all():
            fv = samples[..., k].astype(np.complex128, copy=False)
        else:
            fv = np.zeros(samples.shape[:-1] + k.shape, dtype=np.complex128)
            fv[..., on] = samples[..., k[on]]
    conj_windows = []
    if pair is not None:
        off = ~grid.is_multiple(times)
        any_off = bool(off.any())
        if any_off and not pair.supports_offgrid:
            # a sample-defined window has values on the grid only
            grid.cells(float(times[off].flat[0]), "sample-defined window's node time")
        for w in which:
            cw = np.conj(pair.slot_values(w), out=np.empty(k.shape, dtype=np.complex128))
            if any_off:
                cw[off] = np.conj(pair.values_at(w, grid.x(k[off]) - times[off][..., None]))
            conj_windows.append(cw)
    return NodeSegment(k, on, fv, tuple(conj_windows))


def windowed_segment(f: Signal, pair: WindowPair, t: float) -> np.ndarray:
    """The length-L vector h_j = f(t + u_j) * conj(phi(u_j)) seen by the node at t."""
    seg = node_segment(f.grid, t, f.samples, pair, ("phi",))
    return seg.samples * seg.conj_windows[0]


def measure(
    f: Signal,
    pair: WindowPair,
    nodes: TimeNodes,
    freqs: Optional[FrequencyGrid] = None,
) -> MeasurementSet:
    """Collect |V_phi| and |V_psi| at every node over the frequency grid.

    Defaults to the critical grid with one full alias period (N = L).  The
    magnitudes are ``measure_batch`` of the one signal, made read-only.
    """
    if freqs is None:
        freqs = FrequencyGrid.critical(f.grid.L, f.grid.B)
    mags = measure_batch(f.samples[None], f.grid, pair, nodes, freqs)[0]
    mags.setflags(write=False)
    return MeasurementSet(pair=pair, nodes=nodes, freqs=freqs, mags=mags)


def measure_batch(
    samples_matrix: np.ndarray,
    grid: GridSpec,
    pair: WindowPair,
    nodes: TimeNodes,
    freqs: Optional[FrequencyGrid] = None,
) -> np.ndarray:
    """Magnitudes for many signals sharing one grid.

    samples_matrix has shape (n_signals, horizon); the result has shape
    (n_signals, 2, n_nodes, n_bins).  The window pair, a critical frequency
    grid and the rows must all belong to ``grid``.  Node segments are built
    ``NODE_BLOCK`` nodes at a time, each block reads its exponential tables
    from ``block_exponentials``, and each block is one ``node_magnitudes``
    call.
    """
    if pair.grid != grid:
        raise ValueError("window pair and signal live on different grids")
    if samples_matrix.ndim != 2 or samples_matrix.shape[1] != grid.horizon:
        raise ValueError(
            f"samples must be (n, {grid.horizon}) sample rows to match the grid "
            f"horizon, got {samples_matrix.shape}"
        )
    if freqs is None:
        freqs = FrequencyGrid.critical(grid.L, grid.B)
    if freqs.mode == "critical" and abs(freqs.B - grid.B) > 1e-12 * grid.B:
        raise ValueError("frequency grid was built for a different half-width B")
    n_sig = samples_matrix.shape[0]
    mags = np.empty((n_sig, 2, len(nodes.times), len(freqs)), dtype=float)
    for lo in range(0, len(nodes.times), NODE_BLOCK):
        seg = node_segment(grid, nodes.times[lo : lo + NODE_BLOCK], samples_matrix, pair)
        node_magnitudes(
            seg.samples.swapaxes(0, 1), np.stack(seg.conj_windows)[:, :, None],
            block_exponentials(grid, seg.cells[:, 0], freqs), grid.delta,
            mags[:, :, lo : lo + NODE_BLOCK].transpose(1, 2, 0, 3),
        )
    return mags


def node_exponentials(grid: GridSpec, cells: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """exp(-2 i pi x_k omega) for a (nodes, L) array of cells, shape (nodes,
    L, bins), exponentiated in place so no second table is made."""
    E = np.multiply(-2j * np.pi, grid.x(cells)[:, :, None] * omegas)
    return np.exp(E, out=E)


#: ``block_exponentials``' tables, least recently used first, and the bytes
#: they hold; the lock makes each lookup, insertion and eviction one step
_tables: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
_tables_held = 0
_tables_lock = threading.Lock()


def block_exponentials(grid: GridSpec, first: np.ndarray, freqs: FrequencyGrid) -> np.ndarray:
    """``node_exponentials`` of one block of at most ``NODE_BLOCK`` nodes,
    node j's cells being first[j] + 0 .. L - 1, at ``freqs``' frequencies.

    The table depends on the lattice alone, so it is built once and held,
    read-only, keyed by (grid, the block's first cells, frequency grid),
    while it is among the ``TABLE_MEMO_BYTES`` most recently used:
    ``measure_batch`` and the stitcher's node checks and junction solves
    read it, so a reconstruct reads the tables its measure built.  A table
    larger than the bound is built and not held.
    """
    global _tables_held
    key = (grid, first.tobytes(), freqs)
    with _tables_lock:
        E = _tables.get(key)
        if E is not None:
            _tables.move_to_end(key)
            return E
    E = node_exponentials(grid, first[:, None] + np.arange(grid.L), freqs.omegas)
    E.setflags(write=False)
    if E.nbytes <= TABLE_MEMO_BYTES:
        with _tables_lock:
            if key not in _tables:
                _tables[key] = E
                _tables_held += E.nbytes
            while _tables_held > TABLE_MEMO_BYTES:
                _tables_held -= _tables.popitem(last=False)[1].nbytes
    return E


def node_transforms(
    samples: np.ndarray, conj_windows: np.ndarray, E: np.ndarray, delta: float
) -> np.ndarray:
    """delta * (samples * cw) @ E for each conjugated window cw, shape
    (windows, nodes, rows, bins): the one forward-map product.

    ``samples`` is (nodes, rows, L), ``conj_windows`` (windows, nodes or 1,
    1, L) and ``E`` (nodes, L, bins).  Windows and nodes are matmul's batch
    axes, so each node's (rows, L) @ (L, bins) product is BLAS's own call
    for that one matrix (gemv for one row, gemm for more) and its bits are
    those of the product taken alone; merging nodes or windows into one
    matrix, as ``X @ [E1 | E2]`` would, moves them.
    """
    V = (samples * conj_windows) @ E
    V *= delta
    return V


def node_magnitudes(
    samples: np.ndarray, conj_windows: np.ndarray, E: np.ndarray, delta: float,
    out: np.ndarray,
) -> None:
    """Write |``node_transforms``| of a block of nodes to ``out``, shape
    (windows, nodes, rows, bins): ``measure_batch`` makes one call per
    ``NODE_BLOCK`` of nodes, the stitcher's node checks one per run of
    consecutive nodes completed together.
    """
    np.abs(node_transforms(samples, conj_windows, E, delta), out=out)


def sup_dev(got: np.ndarray, want: np.ndarray, axis=None):
    """max |got - want| over two magnitude arrays of one shape, 0.0 when they
    are empty: the one sup deviation behind every verdict on magnitude data.
    With ``axis``, the maxima over those axes, as an array (one per node)."""
    dev = got - want  # the one temporary; its magnitudes are taken in place
    np.abs(dev, out=dev)
    if axis is not None:
        return dev.max(axis=axis)
    return float(dev.max()) if dev.size else 0.0


def check_difference_identity(
    samples: np.ndarray, pair: WindowPair, times: Sequence[float]
) -> float:
    """Largest defect of the exact two-window identity

        |V_psi(t, omega_n)|  ==  |e^{2 i pi t b} V_phi(t, omega_n + b) - V_phi(t, omega_n)|

    over every row of ``samples`` (rows, horizon), every node time in
    ``times`` and all 2L critical bins, in one ``node_transforms`` call at
    omega_n and one at omega_n + b.  Holds algebraically for every real t,
    so the defect is pure roundoff.
    """
    grid = pair.grid
    if samples.ndim != 2 or samples.shape[1] != grid.horizon:
        raise ValueError(f"samples must be (n, {grid.horizon}) sample rows, got {samples.shape}")
    times = np.asarray(times, dtype=float)
    omegas = FrequencyGrid.critical(grid.L, grid.B).omegas
    seg = node_segment(grid, times, samples, pair)
    rows = seg.samples.swapaxes(0, 1)
    conj_windows = np.stack(seg.conj_windows)[:, :, None]
    E = node_exponentials(grid, seg.cells, omegas)
    phi, psi = node_transforms(rows, conj_windows, E, grid.delta)
    E = node_exponentials(grid, seg.cells, omegas + pair.b)
    phi_b = node_transforms(rows, conj_windows[:1], E, grid.delta)[0]
    phi_b *= np.exp(2j * np.pi * pair.b * times)[:, None, None]
    return sup_dev(np.abs(psi), np.abs(phi_b - phi))
