"""OAM beam synthesis: analytic ring-array far-field patterns, cone-radius
matching across orders, and source-plane field synthesis from rings of
point radiators.

An N-element ring of radius r fed with phases exp(j*l*phi_n) radiates the
far-field pattern

    F_l(theta, phi) = (-j)^l * exp(j*l*phi) * K * J_l(2*pi*r*sin(theta)/lambda)

whose first off-axis maximum defines the cone angle of the beam.  Two orders
overlap at the receiver when their ring radii are scaled by the ratio of the
first-maximum abscissas of the respective Bessel orders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bessel import MAX_ORDER, bessel_j_signed, first_max_abscissa
from .errors import GeometryError, NyquistError
from .field import ScalarField

def check_order(l: int) -> int:
    l = int(l)
    if abs(l) > MAX_ORDER:
        raise GeometryError(f"OAM order {l} beyond supported |l| <= {MAX_ORDER}")
    return l


@dataclass(frozen=True)
class SourceRing:
    """Uniform circular array radiating one OAM order."""

    radius_r: float
    num_elements_N: int
    order_l: int
    amplitude: float = 1.0

    def __post_init__(self):
        check_order(self.order_l)
        if self.radius_r <= 0:
            raise GeometryError("ring radius must be positive")
        if self.num_elements_N <= 2 * abs(self.order_l):
            raise NyquistError(
                f"{self.num_elements_N} elements cannot carry order "
                f"{self.order_l}: need N > 2|l|")


@dataclass(frozen=True)
class FarFieldPattern:
    """Parameters of the analytic ring-array pattern."""

    order_l: int
    radius_r: float
    wavelength: float
    norm_K: complex = 1.0 + 0.0j

    def __post_init__(self):
        check_order(self.order_l)
        if self.radius_r <= 0 or self.wavelength <= 0:
            raise GeometryError("radius and wavelength must be positive")


def far_field(pattern: FarFieldPattern, theta, phi):
    """Complex pattern value at elevation theta (rad, from the beam axis)
    and azimuth phi (rad).  Vectorized over theta/phi."""
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < 0) or np.any(theta >= np.pi / 2):
        raise GeometryError("theta must lie in [0, pi/2)")
    l = pattern.order_l
    x = 2.0 * np.pi * pattern.radius_r * np.sin(theta) / pattern.wavelength
    value = ((-1j) ** l) * np.exp(1j * l * np.asarray(phi)) \
        * pattern.norm_K * bessel_j_signed(l, x)
    if value.ndim == 0:
        return complex(value)
    return value


def cone_angle(pattern: FarFieldPattern) -> float:
    """Elevation of the pattern's first off-axis maximum (rad)."""
    peak_x = first_max_abscissa(pattern.order_l)
    s = peak_x * pattern.wavelength / (2.0 * np.pi * pattern.radius_r)
    if s >= 1.0:
        raise GeometryError("ring too small: first maximum not in visible space")
    return float(np.arcsin(s))


def matched_radius(l_target: int, l_ref: int, r_ref: float) -> float:
    """Ring radius that puts the first Bessel maximum of order ``l_target``
    at the same cone angle as order ``l_ref`` radiated from ``r_ref``."""
    if l_target == 0 or l_ref == 0:
        raise GeometryError("order 0 has no off-axis first maximum to match")
    if r_ref <= 0:
        raise GeometryError("reference radius must be positive")
    return r_ref * first_max_abscissa(l_target) / first_max_abscissa(l_ref)


def synthesize_source_field(ring: SourceRing, side: int, extent: float,
                            wavelength: float,
                            continuous: bool = False) -> ScalarField:
    """Deposit the ring onto a fresh grid at z = 0.

    Each element sits at azimuth phi_n = 2*pi*n/N with phase exp(j*l*phi_n)
    and is splatted bilinearly onto the four surrounding grid cells.  With
    ``continuous=True`` a dense quadrature of the ideal continuous ring is
    deposited instead (useful for discretization-convergence checks).
    Total power is normalized to 1.
    """
    if extent < 4.0 * ring.radius_r:
        raise GeometryError("grid extent must be at least 4x the ring radius")
    n_src = ring.num_elements_N
    if continuous:
        n_src = max(4096, 64 * abs(ring.order_l), ring.num_elements_N)

    phi = 2.0 * np.pi * np.arange(n_src) / n_src
    amp = ring.amplitude * np.exp(1j * ring.order_l * phi)
    xs = ring.radius_r * np.cos(phi)
    ys = ring.radius_r * np.sin(phi)

    spacing = extent / side
    grid = np.zeros((side, side), dtype=np.complex128)
    # fractional grid indices (row = y, col = x)
    fc = xs / spacing + side // 2
    fr = ys / spacing + side // 2
    c0 = np.floor(fc).astype(int)
    r0 = np.floor(fr).astype(int)
    wc = fc - c0
    wr = fr - r0
    if np.any(c0 < 0) or np.any(r0 < 0) or np.any(c0 + 1 >= side) or np.any(r0 + 1 >= side):
        raise GeometryError("ring falls outside the grid")
    np.add.at(grid, (r0, c0), amp * (1 - wr) * (1 - wc))
    np.add.at(grid, (r0, c0 + 1), amp * (1 - wr) * wc)
    np.add.at(grid, (r0 + 1, c0), amp * wr * (1 - wc))
    np.add.at(grid, (r0 + 1, c0 + 1), amp * wr * wc)

    f = ScalarField(samples=grid, extent=extent, z_position=0.0,
                    wavelength=wavelength)
    p = f.power()
    if p <= 0:
        raise GeometryError("synthesized field has zero power")
    f.samples /= np.sqrt(p)
    return f
