"""Tangential wave-vector model of OAM self-healing.

Treats a local patch of a conical OAM beam like a bent waveguide: the free
space wave vector splits into an axial component k_z = 2*pi/lambda_z and a
tangential component k_T = |l|/R, with k^2 = k_z^2 + k_T^2.  The tangential
component drives azimuthal phase circulation, which is what refills the
shadow behind a partial obstruction; it grows with the OAM order and shrinks
with the beam radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bessel import first_max_abscissa
from .errors import CutoffError, GeometryError


@dataclass(frozen=True)
class WaveVectorTriple:
    """(k, k_z, k_T) satisfying k^2 = k_z^2 + k_T^2."""

    k: float
    k_z: float
    k_T: float

    def __post_init__(self):
        if min(self.k, self.k_z, self.k_T) < 0:
            raise GeometryError("wave-vector components must be non-negative")
        residual = abs(self.k ** 2 - self.k_z ** 2 - self.k_T ** 2)
        if residual > 1e-12 * self.k ** 2:
            raise GeometryError("k^2 = k_z^2 + k_T^2 violated")


def guide_wavelength_coax(r: float, wavelength: float, l: int) -> float:
    """Guide wavelength of azimuthal order l on a ring of radius r:
    lambda / sqrt(1 - (l*lambda / (2*pi*r))^2)."""
    if wavelength <= 0 or r <= 0:
        raise GeometryError("r and wavelength must be positive")
    ratio = abs(l) * wavelength / (2.0 * math.pi * r)
    if ratio >= 1.0:
        raise CutoffError(
            f"order {l} beyond cutoff: |l|*lambda >= 2*pi*r at r={r} m")
    return wavelength / math.sqrt(1.0 - ratio ** 2)


def wavevectors_at(R: float, lambda_z: float, l: int) -> WaveVectorTriple:
    """Wave-vector triple at beam radius R for axial wavelength lambda_z."""
    if R <= 0 or lambda_z <= 0:
        raise GeometryError("R and lambda_z must be positive")
    k_z = 2.0 * math.pi / lambda_z
    k_T = abs(l) / R
    return WaveVectorTriple(k=math.hypot(k_z, k_T), k_z=k_z, k_T=k_T)


def beam_radius_at(L: float, l: int, r: float, k: float,
                   exact: bool = False) -> float:
    """Conical-beam radius at distance L: R ~ L*(|l|+1)/(r*k).

    The (|l|+1) factor is the small-argument peak approximation; with
    ``exact=True`` the true first-maximum abscissa of J_|l| is used instead
    (requires |l| >= 1).
    """
    if L <= 0 or r <= 0 or k <= 0:
        raise GeometryError("L, r and k must be positive")
    factor = first_max_abscissa(l) if exact else abs(l) + 1.0
    return L * factor / (r * k)
