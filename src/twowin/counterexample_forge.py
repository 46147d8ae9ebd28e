"""Constructions that defeat uniqueness when a hypothesis is dropped.

Every forge returns a pair of genuinely different signals together with the
node set on which their two-window magnitudes agree, and verifies both facts
numerically before handing the pair out.  The five claims cover: a separable
signal (gap kills phase propagation), an oversized lattice step (a > B), a
rational two-line offset for periodic signals, the quasi-periodic flip with
a rational line offset, and a lattice without an incommensurate anchor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import math

import numpy as np

from .signal_model import (
    GridSpec,
    PeriodicSpec,
    Signal,
    global_phase_align,
    is_separable,
    make_periodic,
    period_split,
)
from .window_engine import WindowPair, build_window
from .stft_engine import TimeNodes, default_anchor, measure
from .verifier import measurements_equal

#: Forged pairs must differ by at least this much after phase alignment.
MIN_FORGE_DISTANCE = 0.1

#: Their measurements must agree to this absolute sup deviation.
FORGE_EQUALITY_TOL = 1e-10


@dataclass(frozen=True)
class ForgedPair:
    f: Signal
    g: Signal
    nodes: TimeNodes
    pair: WindowPair
    claim: str
    min_distance: float
    params: Dict[str, object] = field(default_factory=dict)


def _seal(
    claim: str, f: Signal, g: Signal, nodes: TimeNodes, params: Dict[str, object]
) -> ForgedPair:
    """Verify the forge's two claims numerically, then release the pair on the
    rectangular window with ``measurement_sup_dev`` added to its params."""
    pair = build_window("rectangular", f.grid)
    min_distance = global_phase_align(f, g).residual
    equal, dev = measurements_equal(
        measure(f, pair, nodes), measure(g, pair, nodes), tol=FORGE_EQUALITY_TOL
    )
    if not equal:
        raise RuntimeError(
            f"forge {claim!r} produced unequal measurements (sup dev {dev:.3e})"
        )
    if min_distance < MIN_FORGE_DISTANCE:
        raise RuntimeError(
            f"forge {claim!r} produced nearly equivalent signals "
            f"(distance {min_distance:.3e})"
        )
    return ForgedPair(
        f=f, g=g, nodes=nodes, pair=pair, claim=claim, min_distance=min_distance,
        params={**params, "measurement_sup_dev": dev},
    )


def forge_separable(B: float = 1.0, a: Optional[float] = None, seed: int = 0) -> ForgedPair:
    """Signal vanishing on [-B, B-a] and its right-side phase flip.

    Every admissible node window sees only one side of the gap, so flipping
    the phase of the whole right part is invisible to the magnitudes, on the
    lattice and at any anchor outside (-a, 0).
    """
    grid = GridSpec(B=B, L=8, origin=32, horizon=64)
    if a is None:
        a = grid.B
    if a > grid.B + 1e-12:
        raise ValueError(f"separable forge needs a <= B, got a = {a!r}")
    rng = np.random.default_rng(seed)
    x = grid.coords()
    left = x < -grid.B - 1e-12
    right = x > grid.B - a + 1e-12
    vals = np.zeros(grid.horizon, dtype=np.complex128)
    vals[left] = rng.standard_normal(left.sum()) + 1j * rng.standard_normal(left.sum())
    vals[right] = rng.standard_normal(right.sum()) + 1j * rng.standard_normal(right.sum())
    f = Signal(grid, vals)
    gv = vals.copy()
    gv[right] *= 1j
    g = Signal(grid, gv)
    if not is_separable(f, 2 * grid.B - a):
        raise RuntimeError("separable forge failed its own separability predicate")
    nodes = TimeNodes.lattice_covering(grid, a, anchor=default_anchor(a, grid.horizon))
    return _seal("separable_gap", f, g, nodes, {"B": grid.B, "a": a, "seed": seed})


def forge_wide_step(B: float = 1.0, a: float = 1.5, seed: int = 3) -> ForgedPair:
    """Pair for an oversized lattice step a > B.

    The signal satisfies f(x) = -conj(f(-x)) outside the middle strip
    M = (-(a-B), a-B); the mate conjugate-reflects the strip and copies the
    rest, which makes it exactly -conj(f(-x)) everywhere.  Node 0 then sees a
    slot reflection (magnitudes preserved), and every node with |t| >= a
    misses the strip entirely, so even far anchors cannot help.
    """
    # L is odd so that node 0's cells pair under x -> -x
    grid = GridSpec(B=B, L=9, origin=36, horizon=72)
    if a <= grid.B + 1e-12:
        raise ValueError(f"wide_step requires a > B, got a = {a!r}")
    rng = np.random.default_rng(seed)
    x = grid.coords()
    vals = rng.standard_normal(grid.horizon) + 1j * rng.standard_normal(grid.horizon)
    half = a - grid.B
    # enforce f = -conj(f(-x)) on the closed set |x| >= a-B; the grid is
    # symmetric about x = 0 except for the unpaired first cell, which is zeroed
    for k in range(grid.horizon):
        if x[k] < -half + 1e-12:
            mk = 2 * grid.origin - k
            vals[k] = -np.conj(vals[mk]) if 0 <= mk < grid.horizon else 0.0
    f = Signal(grid, vals)
    gv = vals.copy()
    strip = np.abs(x) < half - 1e-12
    gv[strip] = -np.conj(vals[2 * grid.origin - np.nonzero(strip)[0]])
    g = Signal(grid, gv)
    anchor = a * (1.5 + 0.5 / grid.horizon)
    nodes = TimeNodes.lattice_covering(grid, a, anchor=anchor)
    params = {"B": grid.B, "a": a, "seed": seed, "strip": (-half, half)}
    return _seal("wide_step", f, g, nodes, params)


def forge_rational_periodic(
    T: Optional[float] = None,
    q: int = 1,
    t0: float = 0.0,
    cq: complex = 1j,
    t1: Optional[float] = None,
) -> ForgedPair:
    """Two-coefficient periodic signal (c0 = 1, cq) and its conjugate mate on two lines.

    With coefficient support {0, q} the signal has effective period T/q, so
    the reflected mate g_k = conj(c_k) exp(-4 pi i k t0 / T) matches the
    magnitudes on both lines whenever 2(t1 - t0) = p T / q.  By default the
    smallest such offset that lands on the sample grid is used; an explicit
    t1 is refused unless it satisfies the same rational relation.
    """
    # L is odd so that window edges fall strictly between grid cells; an edge
    # sitting on a cell breaks the reflection argument at odd frequency bins
    # through the half-open window convention
    grid = GridSpec(B=1.0, L=9, origin=9, horizon=27)
    c0 = 1.0
    if T is None:
        T = (grid.L - 1) * grid.delta
    if not isinstance(q, int) or q < 1:
        raise ValueError(f"q must be a positive integer, got {q!r}")
    k_T = grid.cells(T, "period T")
    if k_T < 2 * q + 1:
        raise ValueError(f"period must span at least 2q+1 = {2 * q + 1} cells, got {k_T}")
    grid.cells(t0, "line t0")
    mate_phase = np.exp(-4j * np.pi * q * t0 / T)
    if abs(np.conj(c0) / c0 - (np.conj(cq) / cq) * mate_phase) < 1e-9:
        raise ValueError(
            "pair would be equivalent up to phase; choose coefficients with "
            "conj(c0)/c0 != conj(cq)/cq * exp(-4 pi i q t0 / T)"
        )
    if t1 is None:
        p = 2 * q // math.gcd(k_T, 2 * q)
        t1 = t0 + p * T / (2 * q)
    else:
        p_real = 2 * (t1 - t0) * q / T
        if abs(p_real - round(p_real)) > 1e-9 or round(p_real) == 0:
            raise ValueError(
                f"line offset {t1 - t0!r} is not a nonzero multiple of T/(2q) = {T / (2 * q)!r}; "
                "an incommensurate offset admits no conjugate mate"
            )
        p = int(round(p_real))
        grid.cells(t1, "line t1")
    f = make_periodic(PeriodicSpec(T=T, mu=1.0, coefficients={0: c0, q: cq}), grid)
    g = make_periodic(
        PeriodicSpec(T=T, mu=1.0, coefficients={0: np.conj(c0), q: np.conj(cq) * mate_phase}),
        grid,
    )
    nodes = TimeNodes.two_lines(t0, t1)
    params = {"T": T, "q": q, "t0": t0, "t1": t1, "p": p, "c0": c0, "cq": cq}
    return _seal("rational_periodic", f, g, nodes, params)


def forge_quasiperiodic_flip(B: float = 1.0, T: float = 1.5, alpha: float = 0.5) -> ForgedPair:
    """Step trains distinguished only by a per-period sign flip.

    Both signals are c = 1 on the half-open pieces [mT + B - T, mT + alpha T - B);
    the mate carries (-1)^m on piece m.  The first line's window sees only
    piece 0 (where they agree) and the second line's only piece 1 (where they
    differ by a sign), so the two-line magnitudes coincide exactly.
    """
    grid = GridSpec(B=B, L=8, origin=8, horizon=24)
    c = 1.0
    if not (grid.B < T < 2 * grid.B):
        raise ValueError(f"need B < T < 2B, got T = {T!r}")
    if not (2 * grid.B / T - 1 < alpha < 1):
        raise ValueError(
            f"need alpha in (2B/T - 1, 1) = ({2 * grid.B / T - 1!r}, 1), got {alpha!r}"
        )
    for name, val in (("B - T", grid.B - T), ("alpha T - B", alpha * T - grid.B), ("T", T)):
        grid.cells(val, f"piece edge {name}")
    # piece m holds the points x = mT + B - T + r with r in [0, (alpha + 1) T - 2B)
    sign, r = period_split(PeriodicSpec(T=T, mu=-1.0), grid.coords() - (grid.B - T))
    inside = r < (alpha + 1) * T - 2 * grid.B - 1e-12
    f = Signal(grid, np.where(inside, c, 0.0))
    g = Signal(grid, np.where(inside, c * sign.real, 0.0))
    nodes = TimeNodes.two_lines(0.0, alpha * T)
    labels = (
        -grid.B,
        grid.B - T,
        -grid.B + alpha * T,
        -grid.B + T,
        grid.B,
        -grid.B + (alpha + 1) * T,
        -grid.B + 2 * T,
        grid.B + T,
    )
    params = {"T": T, "alpha": alpha, "c": c, "figure_abscissae": labels}
    return _seal("quasiperiodic_flip", f, g, nodes, params)


def forge_rational_lattice(a: Optional[float] = None) -> ForgedPair:
    """Full-horizon pair equal on a bare lattice but split by any good anchor.

    f = (2 + sin(pi x / a)) e^{i pi x / (6a)} and g flips the sine's sign.
    At every lattice node conj(f(2ma - x)) = e^{-i pi m / 3} g(x), so node m
    sees g as a slot reflection of f and the magnitudes agree; an anchor off
    the half-lattice breaks the relation.
    """
    # L is odd so that each node's cells pair under reflection
    grid = GridSpec(B=1.0, L=9, origin=48, horizon=96)
    if a is None:
        a = 2 * grid.delta
    k_a = grid.cells(a, "lattice step a")
    if grid.horizon % (12 * k_a) != 0:
        raise ValueError(
            f"horizon must hold a whole number of 12a spans, got {grid.horizon} cells "
            f"for 12a = {12 * k_a} cells"
        )
    x = grid.coords()
    carrier = np.exp(1j * np.pi * x / (6 * a))
    f = Signal(grid, (2 + np.sin(np.pi * x / a)) * carrier)
    g = Signal(grid, (2 - np.sin(np.pi * x / a)) * carrier)
    nodes = TimeNodes.lattice(a, TimeNodes.inside_range(grid, a))
    return _seal("rational_lattice", f, g, nodes, {"a": a, "k_a": k_a})


#: Every forge by its claim name.
FORGES = {
    "separable_gap": forge_separable,
    "wide_step": forge_wide_step,
    "rational_periodic": forge_rational_periodic,
    "quasiperiodic_flip": forge_quasiperiodic_flip,
    "rational_lattice": forge_rational_lattice,
}

CLAIMS = tuple(FORGES)


def forge(claim: str, **kwargs) -> ForgedPair:
    """Dispatch by claim name; see the individual forges for parameters."""
    if claim not in FORGES:
        raise ValueError(f"unknown claim {claim!r}; pick one of {', '.join(CLAIMS)}")
    return FORGES[claim](**kwargs)
