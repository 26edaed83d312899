"""Free-space propagation of sampled scalar fields and of band-limited
spectra, and obstruction masks.

Propagation uses the band-limited angular-spectrum method (Matsushima &
Shimobaba, Opt. Express 17, 19662, 2009): FFT the field, advance every
propagating plane-wave component by exp(j*dz*kz), zero the evanescent
components, and clip the transfer function beyond the anti-aliasing band
limit tied to the step size and grid extent.  Long hops should be split
into sub-steps (see ``propagate_to``) so the band limit stays generous.

A step costs one forward FFT (``scipy.fft``, complex128), one in-place
multiply by the transfer function H and one inverse FFT.  A walk that
starts from a band-limited spectrum (``FieldSpectrum``, e.g. the source
from ``beams.source_spectrum``) takes its first step as a ``launch``: the
spectrum's box of bins times H, scattered into an empty grid, and one
inverse FFT, with no forward FFT.  H depends only on (side, extent,
wavelength, dz, band_limited), so it is built once per key and kept,
read-only, in a least-recently-used cache of ``_TRANSFER_CACHE_SIZE`` = 4
entries: the four hop lengths of the default experiment (10, 1, 4 and
5 m).  Each entry holds H (``side**2 * 16`` bytes, 16 MiB at 1024^2) and
its kept-band mask (``side**2`` bytes).  H is even in fx and in fy, so
the square root and the exponential run on one quadrant of bins and the
quadrant is mirrored out, with the same bits as a full-grid build.

Every FFT runs on ``_FFT_WORKERS`` threads: all cores in the process's
affinity set (``os.sched_getaffinity``, else ``os.cpu_count()``), with no
setting.  pocketfft only splits the independent 1-D transforms across the
threads, so the output is bit-identical whatever the count.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy import fft

from .errors import GeometryError, OutOfExtentError, PlaneMismatchError, SamplingError
from .field import FieldSpectrum, ScalarField

_TRANSFER_CACHE_SIZE = 4
_FFT_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)


def _band_limit(extent: float, wavelength: float, dz: float) -> float:
    dfreq = 1.0 / extent
    return 1.0 / (math.sqrt((2.0 * dfreq * dz) ** 2 + 1.0) * wavelength)


def band_limit_frequency(f: ScalarField, dz: float) -> float:
    """Anti-aliasing limit on |fx| (and |fy|) for one step of length dz."""
    return _band_limit(f.extent, f.wavelength, dz)


@functools.lru_cache(maxsize=_TRANSFER_CACHE_SIZE)
def _transfer_function(side: int, extent: float, wavelength: float, dz: float,
                       band_limited: bool):
    """Read-only (H, keep) for one step: H = exp(j*2*pi*dz*sqrt(1/lambda^2 -
    fx^2 - fy^2)) on the kept band, 0 elsewhere; ``keep`` marks the
    propagating (and, if ``band_limited``, in-band) components.

    Bins i and side - i hold frequencies of opposite sign and equal
    magnitude, bit for bit, and H depends on each axis only through fx^2 and
    |fx|.  So H is computed on the quadrant of bins 0..side//2 and mirrored
    out; the result equals the full-grid build element for element."""
    fx = np.fft.fftfreq(side, d=extent / side)[:side // 2 + 1]
    fx2 = fx * fx
    kz_sq = 1.0 / wavelength ** 2 - fx2[None, :] - fx2[:, None]
    keep = kz_sq > 0
    if band_limited:
        in_band = np.abs(fx) <= _band_limit(extent, wavelength, dz)
        keep &= in_band[None, :] & in_band[:, None]
    phase = np.maximum(kz_sq, 0.0, out=kz_sq)
    np.sqrt(phase, out=phase)
    phase *= 2.0 * np.pi
    phase *= dz
    transfer = phase * 1j
    np.exp(transfer, out=transfer)
    transfer *= keep
    transfer = _unfold(transfer, side)
    keep = _unfold(keep, side)
    transfer.flags.writeable = False
    keep.flags.writeable = False
    return transfer, keep


def _unfold(quadrant: np.ndarray, side: int) -> np.ndarray:
    """The (side, side) array whose [i, j] is ``quadrant[min(i, side - i),
    min(j, side - j)]``, for a quadrant of side // 2 + 1 rows and columns."""
    h = quadrant.shape[0]
    back = slice(side - h, 0, -1)
    full = np.empty((side, side), dtype=quadrant.dtype)
    full[:h, :h] = quadrant
    full[:h, h:] = quadrant[:, back]
    full[h:] = full[back]
    return full


def propagate(field: ScalarField, dz: float, band_limited: bool = True,
              max_truncation: float | None = None) -> ScalarField:
    """Field at z + dz via the (band-limited) angular-spectrum method.

    ``max_truncation``, if given, raises SamplingError when more than that
    fraction of the spectral power falls outside the retained band.
    """
    if dz <= 0:
        raise GeometryError("dz must be positive")
    transfer, keep = _transfer_function(field.side, field.extent,
                                        field.wavelength, dz, band_limited)
    spectrum = fft.fft2(field.samples, workers=_FFT_WORKERS)
    if max_truncation is not None:
        total = float(np.sum(np.abs(spectrum) ** 2))
        kept = float(np.sum(np.abs(spectrum[keep]) ** 2))
        if total > 0 and 1.0 - kept / total > max_truncation:
            raise SamplingError(
                "field angular bandwidth exceeds the grid's representable range")
    spectrum *= transfer
    out = fft.ifft2(spectrum, overwrite_x=True, workers=_FFT_WORKERS)
    return field.with_samples(out, z=field.z_position + dz)


def launch(spectrum: FieldSpectrum, dz: float) -> ScalarField:
    """Field at z + dz of a field given by its band-limited spectrum: the box
    times the step's cached (band-limited) H, scattered into an empty grid,
    and one inverse FFT.  It equals ``propagate`` of the spectrum's field,
    without the forward FFT."""
    if dz <= 0:
        raise GeometryError("dz must be positive")
    transfer, _ = _transfer_function(spectrum.side, spectrum.extent,
                                     spectrum.wavelength, dz, True)
    box = np.ix_(spectrum.bins, spectrum.bins)
    return _inverse(spectrum, spectrum.values * transfer[box], dz)


def spectrum_field(spectrum: FieldSpectrum) -> ScalarField:
    """The sampled field of ``spectrum`` at its own plane."""
    return _inverse(spectrum, spectrum.values, 0.0)


def _inverse(spectrum: FieldSpectrum, values: np.ndarray,
             dz: float) -> ScalarField:
    grid = np.zeros((spectrum.side, spectrum.side), dtype=np.complex128)
    grid[np.ix_(spectrum.bins, spectrum.bins)] = values
    samples = fft.ifft2(grid, overwrite_x=True, workers=_FFT_WORKERS)
    return ScalarField(samples=samples, extent=spectrum.extent,
                       z_position=spectrum.z_position + dz,
                       wavelength=spectrum.wavelength)


def propagate_to(field: ScalarField | FieldSpectrum, z_target: float,
                 max_step: float = 10.0,
                 edge_margin: float = 0.0) -> ScalarField:
    """Propagate to an absolute plane, splitting into steps of at most
    ``max_step``.  ``edge_margin`` > 0 applies a soft absorbing taper over
    that outer fraction of the grid after every step (suppresses wrap-around
    on long hops at the cost of strict power conservation).  From a
    ``FieldSpectrum`` the first step is its ``launch``."""
    dz_total = z_target - field.z_position
    if dz_total <= 0:
        raise GeometryError("target plane must lie beyond the current plane")
    n_steps = max(1, math.ceil(dz_total / max_step))
    step = dz_total / n_steps
    out = field
    for _ in range(n_steps):
        if isinstance(out, FieldSpectrum):
            out = launch(out, step)
        else:
            out = propagate(out, step)
        if edge_margin > 0:
            _absorb_edges(out.samples, edge_margin)
    return out


def _absorb_edges(samples: np.ndarray, margin: float) -> None:
    """Taper the outer ``margin`` of the grid in place: a raised-cosine ramp
    along the rows, then along the columns.  The window is 1 inside the
    margin, so only the border strips are touched."""
    n = samples.shape[0]
    m = max(2, int(margin * n))
    w = np.ones(n)
    ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(m) / m))
    w[:m] = ramp
    w[n - m:] = ramp[::-1]
    m = min(m, n // 2)   # strips meet, not overlap, when the margin is wide
    samples[:m] *= w[:m, None]
    samples[n - m:] *= w[n - m:, None]
    samples[:, :m] *= w[:m]
    samples[:, n - m:] *= w[n - m:]


def angular_bandlimit(field: ScalarField, theta_max: float) -> ScalarField:
    """Zero all plane-wave components steeper than ``theta_max`` (rad).

    Keeps a splatted ring source, whose energy spreads across the whole
    grid band, inside the paraxial cone the simulation cares about.  The
    runners take that spectrum directly from ``beams.source_spectrum``;
    this two-FFT form is its full-grid reference.
    """
    if not 0 < theta_max < np.pi / 2:
        raise GeometryError("theta_max must lie in (0, pi/2)")
    fx = np.fft.fftfreq(field.side, d=field.spacing)
    fx2 = fx * fx
    f_max = math.sin(theta_max) / field.wavelength
    spectrum = fft.fft2(field.samples, workers=_FFT_WORKERS)
    spectrum *= fx2[None, :] + fx2[:, None] <= f_max ** 2
    return field.with_samples(fft.ifft2(spectrum, overwrite_x=True,
                                        workers=_FFT_WORKERS))


@dataclass(frozen=True)
class ObstructionMask:
    """Amplitude mask at one z-plane: ``transmittance`` inside the shape,
    unity outside."""

    shape: str                      # "disk" or "rectangle"
    center_x: float
    center_y: float
    size: tuple                     # (diameter,) or (width, height), m
    z_position: float
    transmittance: float = 0.0

    def __post_init__(self):
        if self.shape not in ("disk", "rectangle"):
            raise GeometryError(f"unknown mask shape '{self.shape}'")
        if any(s <= 0 for s in self.size):
            raise GeometryError("mask size must be positive")
        if self.shape == "disk" and len(self.size) != 1:
            raise GeometryError("disk mask takes (diameter,)")
        if self.shape == "rectangle" and len(self.size) != 2:
            raise GeometryError("rectangle mask takes (width, height)")
        if not 0.0 <= self.transmittance <= 1.0:
            raise GeometryError("transmittance must lie in [0, 1]")

    def transmittance_map(self, field: ScalarField) -> np.ndarray:
        """``transmittance`` at the samples inside the shape, 1 elsewhere.
        Built from the 1-D offsets of the columns (x) and the rows (y)."""
        c = field.coords()
        dx = c - self.center_x
        dy = c - self.center_y
        if self.shape == "disk":
            inside = dx[None, :] ** 2 + dy[:, None] ** 2 \
                <= (self.size[0] / 2.0) ** 2
        else:
            w, h = self.size
            inside = np.outer(np.abs(dy) <= h / 2.0, np.abs(dx) <= w / 2.0)
        return np.where(inside, self.transmittance, 1.0)


def apply_mask(field: ScalarField, mask: ObstructionMask,
               atol: float = 1e-9) -> ScalarField:
    """Pointwise multiply the field by the mask's transmittance map."""
    if abs(mask.z_position - field.z_position) > atol:
        raise PlaneMismatchError(
            f"mask at z={mask.z_position} but field at z={field.z_position}")
    return field.with_samples(field.samples * mask.transmittance_map(field))


def sample_points(field: ScalarField, points) -> np.ndarray:
    """Bilinear interpolation of the complex grid at (x, y) positions."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    n = field.side
    half = n // 2
    fc = pts[:, 0] / field.spacing + half
    fr = pts[:, 1] / field.spacing + half
    if np.any(fc < 0) or np.any(fr < 0) or np.any(fc > n - 1) or np.any(fr > n - 1):
        raise OutOfExtentError("sample point outside the grid extent")
    c0 = np.minimum(np.floor(fc).astype(int), n - 2)
    r0 = np.minimum(np.floor(fr).astype(int), n - 2)
    wc = fc - c0
    wr = fr - r0
    u = field.samples
    return ((1 - wr) * (1 - wc) * u[r0, c0]
            + (1 - wr) * wc * u[r0, c0 + 1]
            + wr * (1 - wc) * u[r0 + 1, c0]
            + wr * wc * u[r0 + 1, c0 + 1])
