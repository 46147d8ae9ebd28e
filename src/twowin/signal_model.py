"""Complex signals on a uniform grid, and the phase geometry used everywhere else.

The whole toolkit works with finite complex-valued sample vectors living on a
uniform grid with step ``delta = 2 * B / L``.  Grid coordinates are
``x = (index - origin) * delta``; everything outside the modeled horizon is
treated as identically zero.  This module owns the grid bookkeeping plus the
handful of signal-level operations the recovery and verification layers need:
global phase alignment, conjugate reflection about a point, separability
detection, quasi-periodic extension, and seeded random test signals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

import numpy as np

#: Absolute tolerance for "this sample is zero".
ZERO_ATOL = 1e-12
#: Relative residual at or below which two signals are the same up to phase.
EQUIV_TOL = 1e-8


class GridMismatchError(ValueError):
    """Two objects that must share a grid do not."""


class OffGridError(ValueError):
    """A coordinate that must be grid-representable is not.

    Attributes
    ----------
    value : float
        The offending coordinate.
    nearest : float
        The nearest representable coordinate, for error messages.
    """

    def __init__(self, message: str, value: float, nearest: float):
        super().__init__(message)
        self.value = value
        self.nearest = nearest


class ReflectionRangeError(ValueError):
    """Conjugate reflection would push support outside the horizon."""


def critical_omega(n, B: float):
    """The critical frequency omega_n = n / (4B) of bin n, or of an array of bins."""
    return n / (4.0 * B)


@dataclass(frozen=True)
class GridSpec:
    """Uniform sample grid on which every signal and window lives.

    Parameters
    ----------
    B : float
        Half-width of the window support; sets the step via delta = 2B/L.
    L : int
        Number of grid cells per window length 2B.
    origin : int
        Index of the grid point at coordinate 0.
    horizon : int
        Total number of modeled samples.  Indices run 0 .. horizon-1 and
        everything outside is zero by convention.
    """

    B: float
    L: int
    origin: int
    horizon: int

    def __post_init__(self):
        if not self.B > 0:
            raise ValueError(f"window half-width B must be positive, got {self.B}")
        if self.L < 1:
            raise ValueError(f"L must be a positive integer, got {self.L}")
        if self.horizon < self.L:
            raise ValueError(
                f"horizon ({self.horizon}) must cover at least one window of L={self.L} cells"
            )

    @property
    def delta(self) -> float:
        return 2.0 * self.B / self.L

    def x(self, index):
        """Coordinate of a grid index (vectorized)."""
        return (np.asarray(index) - self.origin) * self.delta

    def is_multiple(self, t):
        """True when ``t`` is an integer multiple of the grid step (to 1e-9
        of a step); elementwise for an array of times."""
        j = t / self.delta
        if isinstance(j, np.ndarray):
            return np.abs(j - np.rint(j)) <= 1e-9
        return abs(j - round(j)) <= 1e-9

    def cells(self, length: float, what: str) -> int:
        """``length`` as a whole number of grid steps, or OffGridError naming
        ``what``.  The one whole-cell rule: every lattice step, period, line
        or node time that must sit on the grid is checked here."""
        k = int(round(length / self.delta))
        if not self.is_multiple(length):
            raise OffGridError(
                f"{what} = {length!r} is not a whole number of grid cells "
                f"(nearest is {k * self.delta!r})",
                length,
                k * self.delta,
            )
        return k

    def cells_spanned(self, length: float) -> int:
        """How many grid cells ``length`` spans, rounded up (a length within
        1e-9 of a step of a whole number of cells spans just those)."""
        return int(np.ceil(length / self.delta - 1e-9))

    def coords(self) -> np.ndarray:
        """All modeled coordinates, index 0 through horizon-1."""
        return (np.arange(self.horizon) - self.origin) * self.delta


class Signal:
    """Immutable complex sample vector on a grid.

    ``support`` is the minimal index range (first, last) outside which all
    samples are exactly zero, or None for the zero signal.
    """

    __slots__ = ("grid", "samples", "support")

    def __init__(self, grid: GridSpec, samples):
        arr = np.asarray(samples, dtype=np.complex128)
        if arr.shape != (grid.horizon,):
            raise ValueError(
                f"samples must have shape ({grid.horizon},) to match the grid horizon, "
                f"got {arr.shape}"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        self.grid = grid
        self.samples = arr
        # a byte per sample, not an int64 index per nonzero one
        nz = arr != 0
        last = nz.size - 1 - int(nz[::-1].argmax())
        self.support = (int(nz.argmax()), last) if nz[last] else None

    def __repr__(self):
        return f"Signal(grid={self.grid!r}, support={self.support}, norm={self.norm():.6g})"

    def norm(self) -> float:
        return float(np.linalg.norm(self.samples))

    def is_zero(self) -> bool:
        return self.support is None


@dataclass(frozen=True)
class PhaseAlignment:
    """Result of aligning g to f by a unit scalar.

    residual is ||f - lambda*g|| / sqrt(||f||^2 + ||g||^2), which is 0 for an
    exact phase match and 1 for orthogonal inputs of equal size.
    """

    lam: complex
    residual: float


def vector_norm(x: np.ndarray) -> float:
    """np.linalg.norm of a 1-D array, to the last bit, without its dispatch:
    sqrt(x.real . x.real + x.imag . x.imag), or sqrt(x . x) for a real x, over
    the array in memory order, in which np.linalg.norm sums a strided view."""
    x = x.ravel(order="K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(x.dot(x))


def phase_fit(u: np.ndarray, v: np.ndarray):
    """Best unit scalar lambda aligning v to u, and the distance ||u - lambda v||.

    Works row-wise on 2-D inputs and returns arrays there; a pair of 1-D
    vectors takes a scalar path, which is several times cheaper for short
    vectors.  lambda is 1 where u and v are orthogonal (zero rows included).
    """
    if u.ndim == 1:
        ip = np.vdot(v, u)
        lam = ip / abs(ip) if abs(ip) > 0 else 1.0 + 0.0j
        return lam, vector_norm(u - lam * v)
    ip = np.einsum("ij,ij->i", np.conj(v), u)
    mod = np.abs(ip)
    lam = np.divide(ip, mod, out=np.ones_like(ip), where=mod > 0)
    return lam, np.linalg.norm(u - lam[:, None] * v, axis=1)


def phase_residuals(u: np.ndarray, v: np.ndarray):
    """``phase_fit``'s distance relative to the joint norm sqrt(||u||^2 + ||v||^2),
    row-wise on 2-D inputs; 0 for two zero vectors."""
    return _relative_to_joint_norm(u, v, phase_fit(u, v)[1])


def _relative_to_joint_norm(u: np.ndarray, v: np.ndarray, dist):
    """``dist`` over sqrt(||u||^2 + ||v||^2), row-wise on 2-D inputs; 0 where
    both are zero.  The one division behind every phase residual."""
    scale = np.hypot(np.linalg.norm(u, axis=-1), np.linalg.norm(v, axis=-1))
    if u.ndim == 1:
        return float(dist / scale) if scale > 0 else 0.0
    return np.divide(dist, scale, out=np.zeros_like(dist), where=scale > 0)


def global_phase_align(f: Signal, g: Signal) -> PhaseAlignment:
    """Best unit scalar aligning g to f, with the relative l2 residual.

    Degenerate cases: if both signals are zero the residual is 0; if exactly
    one is zero no phase helps and lambda defaults to 1.  The residual is
    symmetric in f and g.  The two grids must be equal (``GridSpec`` equality
    is the one grid identity), else GridMismatchError.
    """
    if f.grid != g.grid:
        raise GridMismatchError(f"signals live on different grids: {f.grid} vs {g.grid}")
    lam, dist = phase_fit(f.samples, g.samples)
    residual = _relative_to_joint_norm(f.samples, g.samples, dist)
    return PhaseAlignment(lam=complex(lam), residual=residual)


def equivalent_up_to_phase(f: Signal, g: Signal) -> bool:
    return global_phase_align(f, g).residual <= EQUIV_TOL


def conj_reflect(f: Signal, center: float) -> Signal:
    """Conjugate reflection about ``center``: output(x) = conj(f(2*center - x)).

    ``2 * center`` must land on the grid (centers may sit on half-grid
    points).  Raises ReflectionRangeError when the reflected support would
    leave the horizon, since the result would not be representable; callers
    treat that as "no admissible reflection here".  When the call succeeds the
    operation is an exact involution.
    """
    grid = f.grid
    m2 = int(round(2.0 * center / grid.delta))
    if not grid.is_multiple(2.0 * center):
        nearest = m2 * grid.delta / 2.0
        raise OffGridError(
            f"reflection center {center!r} is not on the half-grid "
            f"(nearest admissible center is {nearest!r})",
            center,
            nearest,
        )
    out = np.zeros(grid.horizon, dtype=np.complex128)
    if f.support is not None:
        lo, hi = f.support
        # index map: k -> 2*origin + m2 - k
        ref_hi = 2 * grid.origin + m2 - lo
        ref_lo = 2 * grid.origin + m2 - hi
        if ref_lo < 0 or ref_hi >= grid.horizon:
            raise ReflectionRangeError(
                f"reflection about {center!r} maps support [{lo}, {hi}] to "
                f"[{ref_lo}, {ref_hi}], outside the horizon [0, {grid.horizon - 1}]"
            )
        src = np.arange(lo, hi + 1)
        out[2 * grid.origin + m2 - src] = np.conj(f.samples[src])
    return Signal(grid, out)


def is_separable(f: Signal, length: float, tol: float = ZERO_ATOL) -> bool:
    """True when some run of ceil(length/delta) consecutive samples inside the
    horizon all have modulus <= tol.

    This is the discrete stand-in for "f vanishes on an interval of the given
    length"; leading and trailing zeros count, so compactly supported signals
    with wide margins are separable at any length fitting the margin.
    """
    grid = f.grid
    if length <= 0:
        raise ValueError(f"separation length must be positive, got {length}")
    n_win = max(grid.cells_spanned(length), 1)
    if n_win > grid.horizon:
        return False
    # small cells counted up to each index: a window of n_win cells is all
    # small exactly when its count rises by n_win across it
    count = np.concatenate(([0], np.cumsum(np.abs(f.samples) <= tol)))
    return bool(np.any(count[n_win:] - count[:-n_win] == n_win))


@dataclass(frozen=True)
class PeriodicSpec:
    """Quasi-periodic extension data: f(x + T) = conj(mu) * f(x) scaled so that
    f(x) = mu * f(x + T), with |mu| = 1 and a trigonometric base cell

        p(x) = sum_k coefficients[k] * exp(2i pi k x / T).
    """

    T: float
    mu: complex = 1.0 + 0.0j
    coefficients: Dict[int, complex] = field(default_factory=dict)

    def __post_init__(self):
        if not self.T > 0:
            raise ValueError(f"period T must be positive, got {self.T}")
        if abs(abs(self.mu) - 1.0) > 1e-12:
            raise ValueError(f"|mu| must be 1, got |{self.mu}| = {abs(self.mu)}")


def mu_powers(mu: complex, exps: np.ndarray) -> np.ndarray:
    """mu ** e for each integer in ``exps``.

    The powers are built by integer exponentiation, which keeps sign flips
    (mu = -1) and quarter turns (mu = +-i) exact instead of routing through
    exp/log.
    """
    if not exps.size:
        return np.ones(0, dtype=np.complex128)
    e_lo = int(exps.min())
    table = np.empty(int(exps.max()) - e_lo + 1, dtype=np.complex128)
    table[0] = complex(mu) ** e_lo
    for idx in range(1, table.size):
        table[idx] = table[idx - 1] * mu
    return table[exps - e_lo]


def period_split(spec: PeriodicSpec, x: np.ndarray):
    """(mu^(-m), x - m T) with m = floor(x / T), for an array of points: the
    one period split, which every reader of a point's period goes through.

    The floor is nudged by 1e-9 so that a point a rounding error below a
    period boundary does not pick up a spurious factor of mu.
    """
    m = np.floor(x / spec.T + 1e-9).astype(np.int64)
    return mu_powers(spec.mu, -m), x - m * spec.T


def make_periodic(spec: PeriodicSpec, grid: GridSpec) -> Signal:
    """Sample the quasi-periodic extension of a trigonometric base cell.

    The period must be an integer number of grid cells so the defining
    relation f(x) = mu * f(x + T) holds exactly at machine precision between
    representable samples.
    """
    k_Ti = grid.cells(spec.T, "period T")
    if k_Ti < 1:
        raise ValueError(f"period T = {spec.T!r} spans no grid cell")
    # base cell values at offsets r*delta, r = 0..k_T-1
    r = np.arange(k_Ti)
    base = np.zeros(k_Ti, dtype=np.complex128)
    for k, c in spec.coefficients.items():
        base += c * np.exp(2j * np.pi * k * (r * grid.delta) / spec.T)
    j = np.arange(grid.horizon) - grid.origin
    cell = j // k_Ti
    rem = j - cell * k_Ti
    # f((r + m*k_T) * delta) = mu^(-m) * p(r * delta)
    return Signal(grid, mu_powers(spec.mu, -cell) * base[rem])


def periodic_eval(spec: PeriodicSpec, x) -> np.ndarray:
    """Evaluate the quasi-periodic extension at arbitrary real points.

    Returns mu^(-m) * p(x - m T) with m = floor(x / T), vectorized over x.
    Needed wherever a quasi-periodic candidate must be read off the grid,
    e.g. when reflecting one about a point that is not a horizon midpoint.
    """
    factor, rem = period_split(spec, np.atleast_1d(np.asarray(x, dtype=np.float64)))
    vals = np.zeros_like(rem, dtype=np.complex128)
    for k, c in spec.coefficients.items():
        vals += c * np.exp(2j * np.pi * k * rem / spec.T)
    out = factor * vals
    return out if np.ndim(x) else out[0]


def random_nonseparable(
    grid: GridSpec,
    support_len: int,
    gap_bound: float,
    seed: int,
) -> Signal:
    """Seeded random complex signal that is NOT separable at ``gap_bound``.

    Support occupies ``support_len`` cells starting at index 0; complex
    standard normal samples are redrawn, at most 64 times, until the
    separability predicate fails, which for generic draws happens on the
    first try.
    """
    if not 1 <= support_len <= grid.horizon:
        raise ValueError(
            f"support_len must lie in [1, horizon={grid.horizon}], got {support_len}"
        )
    if gap_bound >= support_len * grid.delta:
        raise ValueError(
            f"gap_bound={gap_bound!r} is at least the support span "
            f"{support_len * grid.delta!r}; the nonseparability request is unsatisfiable"
        )
    n_gap = max(grid.cells_spanned(gap_bound), 1)
    margin = grid.horizon - support_len
    if margin >= n_gap:
        raise ValueError(
            f"horizon leaves {margin} zero cells outside the support, which already "
            f"forms a gap of length >= {gap_bound!r}; enlarge support_len or shrink the horizon"
        )
    rng = np.random.default_rng(seed)
    for _ in range(64):
        vals = np.zeros(grid.horizon, dtype=np.complex128)
        vals[:support_len] = rng.standard_normal(support_len) + 1j * rng.standard_normal(
            support_len
        )
        f = Signal(grid, vals)
        if not is_separable(f, gap_bound, tol=1e-9):
            return f
    raise RuntimeError(
        "failed to draw a nonseparable signal in 64 tries; "
        f"gap_bound={gap_bound!r} is too close to the support span"
    )
