"""OAM beam synthesis: analytic ring-array far-field patterns, cone-radius
matching across orders, and the source plane of a ring of point radiators,
as a sampled field or as its band-limited spectrum.

An N-element ring of radius r fed with phases exp(j*l*phi_n) radiates the
far-field pattern

    F_l(theta, phi) = (-j)^l * exp(j*l*phi) * J_l(2*pi*r*sin(theta)/lambda)

whose first off-axis maximum defines the cone angle of the beam.  Two orders
overlap at the receiver when their ring radii are scaled by the ratio of the
first-maximum abscissas of the respective Bessel orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import MAX_ORDER, bessel_j_signed, first_max_abscissa
from .errors import GeometryError, NyquistError
from .field import FieldSpectrum, ScalarField, cell_corners


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
        * bessel_j_signed(l, x)
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


def _splat(ring: SourceRing, side: int, extent: float) -> tuple:
    """Bilinear deposit of the ring's elements on a ``side``^2 grid: element
    n sits at azimuth phi_n = 2*pi*n/N with phase exp(j*l*phi_n), spread
    over the four surrounding grid cells.  Kept as its bounding block:
    returns the block's first row, its first column and the block of
    deposited amplitudes, scaled to a total power of 1."""
    if extent < 4.0 * ring.radius_r:
        raise GeometryError("grid extent must be at least 4x the ring radius")
    n_src = ring.num_elements_N
    phi = 2.0 * np.pi * np.arange(n_src) / n_src
    amp = np.exp(1j * ring.order_l * phi)
    spacing = extent / side
    r0, c0, wr, wc = cell_corners(side, spacing, np.column_stack(
        [ring.radius_r * np.cos(phi), ring.radius_r * np.sin(phi)]))
    top, left = int(r0.min()), int(c0.min())
    r0 -= top
    c0 -= left
    block = np.zeros((r0.max() + 2, c0.max() + 2), dtype=np.complex128)
    np.add.at(block, (r0, c0), amp * (1 - wr) * (1 - wc))
    np.add.at(block, (r0, c0 + 1), amp * (1 - wr) * wc)
    np.add.at(block, (r0 + 1, c0), amp * wr * (1 - wc))
    np.add.at(block, (r0 + 1, c0 + 1), amp * wr * wc)
    p = float(np.sum(np.abs(block) ** 2) * spacing ** 2)
    if p <= 0:
        raise GeometryError("synthesized field has zero power")
    block /= np.sqrt(p)
    return top, left, block


def synthesize_source_field(ring: SourceRing, side: int, extent: float,
                            wavelength: float) -> ScalarField:
    """The ring's splat (``_splat``) on a full ``side``^2 grid at z = 0.  No
    runner calls it: it is the reference the tests hold ``source_spectrum``
    to, and perfbench's per-layer metrics name it."""
    top, left, block = _splat(ring, side, extent)
    grid = np.zeros((side, side), dtype=np.complex128)
    grid[top:top + block.shape[0], left:left + block.shape[1]] = block
    return ScalarField(samples=grid, extent=extent, z_position=0.0,
                       wavelength=wavelength)


def _box_dft(x: np.ndarray, offset: int, side: int, bins: np.ndarray,
             block: int = 16) -> np.ndarray:
    """The DFT along axis 1 of ``x``, laid from ``offset`` on a zeroed
    ``side``-point axis, at ``bins``: FFTs of ``block`` rows at a time."""
    out = np.empty((len(x), len(bins)), dtype=np.complex128)
    for lo in range(0, len(x), block):
        part = np.zeros((len(x[lo:lo + block]), side), dtype=np.complex128)
        part[:, offset:offset + x.shape[1]] = x[lo:lo + block]
        np.fft.fft(part, axis=1, out=part)
        np.take(part, bins, axis=1, out=out[lo:lo + block])
    return out


def source_spectrum(ring: SourceRing, side: int, extent: float,
                    wavelength: float, theta_max: float) -> FieldSpectrum:
    """The spectrum of the ring's splat (``_splat``) on a ``side``^2 grid at
    z = 0, band-limited to plane waves within ``theta_max`` (rad) of the
    axis.

    Only the box of bins with |fx|, |fy| <= sin(theta_max)/lambda is
    computed, as the DFT of the splat's bounding block by FFTs of 16 rows
    at a time (``_box_dft``), on the calling thread: along the block's
    columns, then along the box's rows.  The bins of the box outside the
    cone are zeroed.  No temporary exceeds 16 grid rows (256 KiB at 1024^2).
    """
    if not 0 < theta_max < np.pi / 2:
        raise GeometryError("theta_max must lie in (0, pi/2)")
    top, left, block = _splat(ring, side, extent)
    fx = np.fft.fftfreq(side, d=extent / side)
    fx2 = fx * fx
    f_max = math.sin(theta_max) / wavelength
    bins = np.flatnonzero(fx2 <= f_max ** 2)
    values = _box_dft(_box_dft(block.T, top, side, bins).T, left, side, bins)
    fx2 = fx2[bins]
    values *= fx2[None, :] + fx2[:, None] <= f_max ** 2
    return FieldSpectrum(values=values, bins=bins, side=side, extent=extent,
                         z_position=0.0, wavelength=wavelength)
