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


def _profile(profile: str, params: Dict[str, float], B: float, u: np.ndarray) -> np.ndarray:
    """An analytic profile's formula at real offsets u, unmasked: a slot
    offset can round one ulp below -B, and its sample is still the formula's."""
    if profile == "rectangular":
        return np.full(u.shape, 1.0 + 0.0j)
    if profile == "raised_cosine":
        return params["c0"] + params["c1"] * np.cos(np.pi * u / B) + 0.0j
    raise ValueError(f"unknown profile {profile!r}")


def _modulate(phi: np.ndarray, u: np.ndarray, b: float) -> np.ndarray:
    """The second window psi = phi * (exp(2 i pi u b) - 1) at offsets u."""
    return phi * (np.exp(2j * np.pi * u * b) - 1.0)


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

    def __post_init__(self) -> None:
        """Validate the pair however it is made (``build_window``, a direct
        construction or ``dataclasses.replace``): b in (0, 1/(2B)], phi
        conjugate-symmetric and nonvanishing on the slots, and psi bit for
        bit phi modulated with this b, the second window ``values_at``
        evaluates off the slots."""
        grid, b, phi = self.grid, self.b, self.phi
        if not 0 < b <= 1.0 / (2.0 * grid.B) + 1e-15:
            raise WindowValidationError(
                "modulation step range",
                None,
                f"b={b!r} outside (0, 1/(2B)] = (0, {1.0 / (2.0 * grid.B)!r}]",
            )
        scale = max(1.0, float(np.max(np.abs(phi))))
        # conjugate symmetry phi(-u) = conj(phi(u)); the slot at -B (even L,
        # j=0) has no mirror inside [-B, B) and is exempt
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
        psi, want = np.asarray(self.psi, dtype=np.complex128), _modulate(phi, slot_offsets(grid), b)
        if psi.shape != want.shape or psi.tobytes() != want.tobytes():
            raise WindowValidationError(
                "second window modulation", None, f"psi is not phi modulated with b={b!r}"
            )

    @property
    def supports_offgrid(self) -> bool:
        return self.profile != "user"

    def phi_at(self, u) -> np.ndarray:
        """Evaluate phi at arbitrary real offsets; a "user" window has values
        at its slot offsets only and refuses any other with OffGridError."""
        u = np.asarray(u, dtype=float)
        B, L = self.grid.B, self.grid.L
        # the lower edge snaps to 1e-9 of a cell, as first_cell's does, so a
        # slot offset that rounds one ulp below -B is on the support
        inside = (u >= -B - 1e-9 * self.grid.delta) & (u < B)
        if self.profile != "user":
            return np.where(inside, _profile(self.profile, self.params, B, u), 0.0j)
        # map offsets back to slot indices; an off-slot offset is refused by
        # the grid's whole-cell rule
        cells = [self.grid.cells(float(x), "user window offset") for x in u.ravel()]
        ji = np.array(cells, dtype=int).reshape(u.shape) + L // 2
        return np.where(inside & (ji >= 0) & (ji < L), self.phi[np.clip(ji, 0, L - 1)], 0.0j)

    def values_at(self, which: str, u) -> np.ndarray:
        """phi or psi at arbitrary real offsets."""
        if self._is_phi(which):
            return self.phi_at(u)
        u = np.asarray(u, dtype=float)
        return _modulate(self.phi_at(u), u, self.b)

    def slot_values(self, which: str) -> np.ndarray:
        return self.phi if self._is_phi(which) else self.psi

    @staticmethod
    def _is_phi(which: str) -> bool:
        """Whether ``which`` names phi rather than psi; the one check of a
        window name."""
        if which not in ("phi", "psi"):
            raise ValueError(f"window must be 'phi' or 'psi', got {which!r}")
        return which == "phi"


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
    b = 1.0 / (4.0 * grid.B) if b is None else float(b)
    u = slot_offsets(grid)
    if profile == "raised_cosine" and not (c0 > c1 >= 0):
        raise ValueError(f"raised cosine needs c0 > c1 >= 0, got c0={c0}, c1={c1}")
    params = {"c0": float(c0), "c1": float(c1)} if profile == "raised_cosine" else {}
    if profile == "user":
        if samples is None:
            raise ValueError("user profile requires explicit slot samples")
        phi = np.array(samples, dtype=np.complex128)
        if phi.shape != (grid.L,):
            raise ValueError(f"user window needs {grid.L} slot samples, got shape {phi.shape}")
    else:
        phi = _profile(profile, params, grid.B, u)
    psi = _modulate(phi, u, b)
    phi.setflags(write=False)
    psi.setflags(write=False)
    return WindowPair(grid=grid, b=b, profile=profile, phi=phi, psi=psi, params=params)
