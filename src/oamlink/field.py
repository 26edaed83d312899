"""Sampled transverse scalar fields, their band-limited spectra and their
on-disk snapshot formats."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, PlaneMismatchError

_MAGIC = b"OAMF"
_VERSION = 1


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
        if self.extent <= 0 or self.wavelength <= 0:
            raise GeometryError("extent and wavelength must be positive")

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
        n = len(self.bins)
        if self.values.shape != (n, n):
            raise GeometryError("spectrum box must be square over its bins")


def write_field(f: ScalarField, path):
    """Binary snapshot: 4-byte magic, u32 version, u32 side, f64 spacing,
    f64 z, f64 wavelength, then row-major complex64 samples."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIddd", _VERSION, f.side, f.spacing,
                             f.z_position, f.wavelength))
        fh.write(f.samples.astype(np.complex64).tobytes())


def read_field(path) -> ScalarField:
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise GeometryError(f"{path}: not a field snapshot")
        version, side, spacing, z, lam = struct.unpack("<IIddd", fh.read(32))
        if version != _VERSION:
            raise GeometryError(f"{path}: unsupported snapshot version {version}")
        data = np.frombuffer(fh.read(), dtype=np.complex64)
    samples = data.reshape(side, side).astype(np.complex128)
    return ScalarField(samples=samples, extent=side * spacing,
                       z_position=z, wavelength=lam)


def write_field_csv(f: ScalarField, path):
    """Magnitude/phase CSV (x, y, magnitude, phase_rad) for plotting."""
    X, Y = f.meshgrid()
    mag = np.abs(f.samples)
    ph = np.angle(f.samples)
    table = np.column_stack([X.ravel(), Y.ravel(), mag.ravel(), ph.ravel()])
    np.savetxt(path, table, delimiter=",", header="x_m,y_m,magnitude,phase_rad",
               comments="")
