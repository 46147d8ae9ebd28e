"""Window pairs for the two-window magnitude measurements.

A pair consists of a base window ``phi`` supported on the half-open interval
[-B, B) and a derived second window

    psi(u) = phi(u) * (exp(2i pi u b) - 1),   0 < b <= 1/(2B).

``phi`` must be conjugate-symmetric (phi(-u) = conj(phi(u)) wherever both
offsets are representable) and bounded away from zero on its support, so that
dividing a windowed segment by phi is stable.  ``psi`` vanishes at u = 0 by
construction; it is never required to be nonvanishing.

Windows are sampled on the L slot offsets u_j = (j - floor(L/2)) * delta.
Analytic profiles (rectangular, raised cosine plus a constant) can also be
evaluated at arbitrary real offsets, which is what makes off-grid anchor
nodes possible; user-supplied sample windows restrict node times to grid
multiples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .signal_model import GridSpec

#: Lower bound enforced on |phi| over the support.
EPS_WIN = 1e-8

PROFILES = ("rectangular", "raised_cosine", "user")


class WindowValidationError(ValueError):
    """A window invariant failed.  Carries the invariant name and the
    offending slot index (or None when the failure is not per-slot)."""

    def __init__(self, invariant: str, index: Optional[int], detail: str = ""):
        self.invariant = invariant
        self.index = index
        msg = f"{invariant} violated"
        if index is not None:
            msg += f" at index {index}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


def slot_offsets(grid: GridSpec) -> np.ndarray:
    """The L window slot offsets u_j = (j - floor(L/2)) * delta, in [-B, B)."""
    s = grid.L // 2
    return (np.arange(grid.L) - s) * grid.delta


@dataclass(frozen=True)
class WindowPair:
    """A validated (phi, psi) window pair on a grid.

    phi and psi hold the slot samples.  For analytic profiles the same
    functional form can be evaluated at arbitrary offsets via values_at().
    """

    grid: GridSpec
    b: float
    profile: str
    phi: np.ndarray
    psi: np.ndarray
    params: Dict[str, float] = field(default_factory=dict)

    @property
    def supports_offgrid(self) -> bool:
        return self.profile != "user"

    def phi_at(self, u) -> np.ndarray:
        """Evaluate phi at arbitrary real offsets; a "user" window has values
        at its slot offsets only and refuses any other with OffGridError."""
        u = np.asarray(u, dtype=float)
        B = self.grid.B
        inside = (u >= -B) & (u < B)
        if self.profile == "rectangular":
            vals = np.where(inside, 1.0 + 0.0j, 0.0j)
        elif self.profile == "raised_cosine":
            c0 = self.params["c0"]
            c1 = self.params["c1"]
            vals = np.where(inside, c0 + c1 * np.cos(np.pi * u / B) + 0.0j, 0.0j)
        elif self.profile == "user":
            # map offsets back to slot indices; an off-slot offset is refused
            # by the grid's whole-cell rule
            cells = [self.grid.cells(float(x), "user window offset") for x in u.ravel()]
            ji = np.array(cells, dtype=int).reshape(u.shape) + self.grid.L // 2
            vals = np.where(
                (ji >= 0) & (ji < self.grid.L) & inside, self.phi[np.clip(ji, 0, self.grid.L - 1)], 0.0j
            )
        else:
            raise ValueError(f"unknown profile {self.profile!r}")
        return vals

    def values_at(self, which: str, u) -> np.ndarray:
        """phi or psi = phi * (exp(2 i pi u b) - 1) at arbitrary real offsets."""
        if which == "phi":
            return self.phi_at(u)
        if which == "psi":
            u = np.asarray(u, dtype=float)
            return self.phi_at(u) * (np.exp(2j * np.pi * u * self.b) - 1.0)
        raise ValueError(f"window must be 'phi' or 'psi', got {which!r}")

    def slot_values(self, which: str) -> np.ndarray:
        if which == "phi":
            return self.phi
        if which == "psi":
            return self.psi
        raise ValueError(f"window must be 'phi' or 'psi', got {which!r}")


def derive_second_window(phi: np.ndarray, grid: GridSpec, b: float) -> np.ndarray:
    """psi slot samples from phi slot samples: psi = phi * (e^{2 i pi u b} - 1)."""
    phi = np.asarray(phi, dtype=np.complex128)
    if phi.shape != (grid.L,):
        raise ValueError(f"phi must have {grid.L} slot samples, got shape {phi.shape}")
    u = slot_offsets(grid)
    return phi * (np.exp(2j * np.pi * u * b) - 1.0)


def _validate_pair(grid: GridSpec, b: float, phi: np.ndarray) -> None:
    if not 0 < b <= 1.0 / (2.0 * grid.B) + 1e-15:
        raise WindowValidationError(
            "modulation step range",
            None,
            f"b={b!r} outside (0, 1/(2B)] = (0, {1.0 / (2.0 * grid.B)!r}]",
        )
    scale = max(1.0, float(np.max(np.abs(phi))))
    # conjugate symmetry phi(-u) = conj(phi(u)); the slot at -B (even L, j=0)
    # has no mirror inside [-B, B) and is exempt
    s = grid.L // 2
    for j in range(grid.L):
        jm = 2 * s - j
        if 0 <= jm < grid.L:
            if abs(phi[jm] - np.conj(phi[j])) > 1e-12 * scale:
                raise WindowValidationError(
                    "conjugate symmetry",
                    j,
                    f"phi({-(j - s)}*delta)={phi[jm]!r} != conj(phi({j - s}*delta))={np.conj(phi[j])!r}",
                )
    mods = np.abs(phi)
    bad = np.flatnonzero(mods < EPS_WIN)
    if bad.size:
        raise WindowValidationError("nonvanishing", int(bad[0]), f"|phi|={mods[bad[0]]!r} < {EPS_WIN}")


def build_window(
    profile: str,
    grid: GridSpec,
    b: Optional[float] = None,
    *,
    c0: float = 1.0,
    c1: float = 0.5,
    samples=None,
) -> WindowPair:
    """Construct and validate a window pair.

    Parameters
    ----------
    profile : str
        One of "rectangular", "raised_cosine", "user".
    grid : GridSpec
    b : float, optional
        Modulation step of the second window.  Defaults to 1/(4B), which is
        exactly one critical frequency bin.
    c0, c1 : float
        Raised cosine parameters, profile value c0 + c1*cos(pi u / B).
        Requires c0 > c1 >= 0 so the profile stays bounded away from zero.
    samples : array-like, optional
        Slot samples for the "user" profile, length L.
    """
    if profile not in PROFILES:
        raise ValueError(f"profile must be one of {PROFILES}, got {profile!r}")
    if b is None:
        b = 1.0 / (4.0 * grid.B)
    u = slot_offsets(grid)
    params: Dict[str, float] = {}
    if profile == "rectangular":
        phi = np.ones(grid.L, dtype=np.complex128)
    elif profile == "raised_cosine":
        if not (c0 > c1 >= 0):
            raise ValueError(f"raised cosine needs c0 > c1 >= 0, got c0={c0}, c1={c1}")
        phi = (c0 + c1 * np.cos(np.pi * u / grid.B)).astype(np.complex128)
        params = {"c0": float(c0), "c1": float(c1)}
    else:
        if samples is None:
            raise ValueError("user profile requires explicit slot samples")
        phi = np.asarray(samples, dtype=np.complex128)
        if phi.shape != (grid.L,):
            raise ValueError(f"user window needs {grid.L} slot samples, got shape {phi.shape}")
    psi = derive_second_window(phi, grid, b)
    _validate_pair(grid, float(b), phi)
    phi = phi.copy()
    psi = psi.copy()
    phi.setflags(write=False)
    psi.setflags(write=False)
    return WindowPair(grid=grid, b=float(b), profile=profile, phi=phi, psi=psi, params=params)
