"""Sampled transverse scalar fields, their band-limited spectra and their
on-disk snapshot format (``.oamf``)."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, OutOfExtentError, PlaneMismatchError

_MAGIC = b"OAMF"
_VERSION = 1
_HEADER = struct.Struct("<IIddd")
_WRITE_ROWS = 64


def _require_geometry(extent: float, z_position: float,
                      wavelength: float) -> None:
    """A finite, positive extent and wavelength and a finite z (NaN fails
    every comparison)."""
    if not (0 < extent < math.inf and 0 < wavelength < math.inf):
        raise GeometryError(f"extent and wavelength must be positive and "
                            f"finite, got {extent!r} and {wavelength!r}")
    if not -math.inf < z_position < math.inf:
        raise GeometryError(f"z must be finite, got {z_position!r}")


@dataclass
class ScalarField:
    """Complex transverse field sampled on a square grid at one z-plane.

    ``samples[i, j]`` lives at physical position
    ``x = (j - side//2) * spacing``, ``y = (i - side//2) * spacing``.
    """

    samples: np.ndarray       # (side, side) complex128
    extent: float             # physical side length, m
    z_position: float         # plane location along the beam axis, m
    wavelength: float         # m

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.complex128)
        if self.samples.ndim != 2 or self.samples.shape[0] != self.samples.shape[1]:
            raise GeometryError("field grid must be square")
        side = self.samples.shape[0]
        if side < 64 or side & (side - 1):
            raise GeometryError("grid side must be a power of two >= 64")
        _require_geometry(self.extent, self.z_position, self.wavelength)

    @property
    def side(self) -> int:
        return self.samples.shape[0]

    @property
    def spacing(self) -> float:
        return self.extent / self.side

    @property
    def wavenumber(self) -> float:
        return 2.0 * np.pi / self.wavelength

    def coords(self) -> np.ndarray:
        """1-D physical coordinates shared by both axes."""
        n = self.side
        return (np.arange(n) - n // 2) * self.spacing

    def meshgrid(self):
        c = self.coords()
        return np.meshgrid(c, c)  # X, Y with Y varying along rows

    def power(self) -> float:
        """Total power sum(|u|^2) * spacing^2."""
        return float(np.sum(np.abs(self.samples) ** 2) * self.spacing ** 2)

    def with_samples(self, samples: np.ndarray, z: float | None = None) -> "ScalarField":
        return ScalarField(samples=samples, extent=self.extent,
                           z_position=self.z_position if z is None else z,
                           wavelength=self.wavelength)

    def same_geometry(self, other: "ScalarField", atol: float = 1e-9) -> bool:
        return (self.side == other.side
                and abs(self.extent - other.extent) <= atol
                and abs(self.wavelength - other.wavelength) <= atol)

    def require_same_plane(self, other: "ScalarField", atol: float = 1e-9):
        if not self.same_geometry(other, atol):
            raise PlaneMismatchError("fields sampled on different grids")
        if abs(self.z_position - other.z_position) > atol:
            raise PlaneMismatchError(
                f"fields at z={self.z_position} vs z={other.z_position}")


def cell_corners(n: int, spacing: float, points) -> tuple:
    """(r0, c0, wr, wc): each (x, y) point's cell on an ``n``^2 grid of
    ``spacing``, on ``ScalarField``'s convention, and its offsets in it."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    fc = pts[:, 0] / spacing + n // 2
    fr = pts[:, 1] / spacing + n // 2
    inside = (fc >= 0) & (fr >= 0) & (fc <= n - 1) & (fr <= n - 1)
    if not inside.all():   # a NaN point fails every comparison
        raise OutOfExtentError("sample point outside the grid extent")
    c0 = np.minimum(np.floor(fc).astype(int), n - 2)
    r0 = np.minimum(np.floor(fr).astype(int), n - 2)
    return r0, c0, fr - r0, fc - c0


@dataclass(frozen=True)
class FieldSpectrum:
    """Band-limited 2-D DFT of a field at one z-plane, held on a box of bins.

    ``values[a, b]`` is the unnormalized DFT coefficient (as ``fft2`` of the
    sampled field gives it) at row bin ``bins[a]`` (fy) and column bin
    ``bins[b]`` (fx); every bin outside the box is zero.  ``bins`` holds
    distinct indices into the ``side``-point FFT frequency axis."""

    values: np.ndarray
    bins: np.ndarray
    side: int
    extent: float
    z_position: float
    wavelength: float

    def __post_init__(self):
        bins = np.asarray(self.bins)
        if not (bins.ndim == 1 and np.issubdtype(bins.dtype, np.integer)
                and np.all((0 <= bins) & (bins < self.side))
                and np.all(np.diff(np.sort(bins)) > 0)):
            raise GeometryError(f"spectrum bins must be distinct integers "
                                f"in [0, {self.side})")
        n = len(bins)
        if self.values.shape != (n, n):
            raise GeometryError("spectrum box must be square over its bins")
        _require_geometry(self.extent, self.z_position, self.wavelength)


def write_field(f: ScalarField, path):
    """Binary snapshot: 4-byte magic, u32 version, u32 side, f64 spacing,
    f64 z, f64 wavelength, then row-major complex64 samples, converted and
    written ``_WRITE_ROWS`` rows at a time."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(_HEADER.pack(_VERSION, f.side, f.spacing, f.z_position,
                              f.wavelength))
        for lo in range(0, f.side, _WRITE_ROWS):
            fh.write(f.samples[lo:lo + _WRITE_ROWS].astype(np.complex64))


def read_field(path) -> ScalarField:
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise GeometryError(f"{path}: not a field snapshot")
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise GeometryError(f"{path}: snapshot header cut short")
        version, side, spacing, z, lam = _HEADER.unpack(header)
        if version != _VERSION:
            raise GeometryError(f"{path}: unsupported snapshot version {version}")
        data = fh.read()
    expected = side * side * np.dtype(np.complex64).itemsize
    if len(data) != expected:
        raise GeometryError(f"{path}: {len(data)} bytes of samples, expected "
                            f"{expected} for a {side}^2 grid")
    samples = np.frombuffer(data, dtype=np.complex64).reshape(side, side) \
        .astype(np.complex128)
    try:
        return ScalarField(samples=samples, extent=side * spacing,
                           z_position=z, wavelength=lam)
    except GeometryError as exc:
        raise GeometryError(f"{path}: {exc}") from None

