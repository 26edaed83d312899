"""Sampled-field container, geometry guards and snapshot formats."""

import math
import struct
import tracemalloc

import numpy as np
import pytest

from oamlink import ScalarField, read_field, write_field
from oamlink.errors import GeometryError, PlaneMismatchError
from oamlink.field import FieldSpectrum


def _field(side=64, extent=0.64, z=1.5, lam=0.0107, seed=0):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    return ScalarField(u, extent, z, lam)


def test_geometry_properties():
    f = _field()
    assert f.side == 64
    assert f.spacing == pytest.approx(0.01)
    assert f.wavenumber == pytest.approx(2 * np.pi / 0.0107)
    c = f.coords()
    assert c[64 // 2] == 0.0
    assert c[1] - c[0] == pytest.approx(f.spacing)
    X, Y = f.meshgrid()
    assert X[0, 1] - X[0, 0] == pytest.approx(f.spacing)
    assert Y[1, 0] - Y[0, 0] == pytest.approx(f.spacing)


def test_power_riemann_sum():
    f = _field()
    assert f.power() == pytest.approx(
        float(np.sum(np.abs(f.samples) ** 2)) * f.spacing ** 2, rel=1e-14)


def test_validation():
    with pytest.raises(GeometryError):
        ScalarField(np.zeros((64, 32)), 1.0, 0.0, 0.01)     # not square
    with pytest.raises(GeometryError):
        ScalarField(np.zeros((100, 100)), 1.0, 0.0, 0.01)   # not a power of two
    with pytest.raises(GeometryError):
        ScalarField(np.zeros((32, 32)), 1.0, 0.0, 0.01)     # too small
    with pytest.raises(GeometryError):
        ScalarField(np.zeros((64, 64)), -1.0, 0.0, 0.01)
    with pytest.raises(GeometryError):
        ScalarField(np.zeros((64, 64)), 1.0, 0.0, 0.0)


@pytest.mark.parametrize("extent, z, lam", [
    (math.inf, 0.0, 0.01), (math.nan, 0.0, 0.01), (1.0, 0.0, math.inf),
    (1.0, 0.0, math.nan), (1.0, math.inf, 0.01), (1.0, -math.inf, 0.01),
    (1.0, math.nan, 0.01)])
def test_non_finite_geometry_is_rejected(extent, z, lam):
    with pytest.raises(GeometryError):
        ScalarField(np.zeros((64, 64)), extent, z, lam)
    with pytest.raises(GeometryError):
        FieldSpectrum(np.zeros((2, 2)), np.arange(2), 64, extent, z, lam)


@pytest.mark.parametrize("bins", [
    np.array([1, 1]),          # a column inverse-transformed twice
    np.array([-1, 2]),         # a column left untransformed along axis 0
    np.array([0, 64]),         # past the last bin
    np.array([0.5, 2.0])])     # not integers
def test_spectrum_bins_must_be_distinct_integers_on_the_axis(bins):
    with pytest.raises(GeometryError):
        FieldSpectrum(np.zeros((2, 2), dtype=complex), bins, 64, 1.0, 0.0,
                      0.01)


def test_snapshot_with_non_finite_geometry_is_rejected(tmp_path):
    # a header of spacing NaN, z inf and wavelength NaN was read as a field;
    # each alone is rejected, naming the path
    path = tmp_path / "bad.oamf"

    def snapshot(spacing, z, lam):
        path.write_bytes(b"OAMF" + struct.pack("<IIddd", 1, 64, spacing, z,
                                               lam) + bytes(64 * 64 * 8))
        return path

    assert read_field(snapshot(0.01, 1.5, 0.0107)).extent == 0.64
    for header in ((math.nan, math.inf, math.nan), (math.nan, 1.5, 0.0107),
                   (0.01, math.inf, 0.0107), (0.01, 1.5, math.nan)):
        with pytest.raises(GeometryError, match="bad.oamf"):
            read_field(snapshot(*header))


def test_same_plane_checks():
    a, b = _field(z=1.5), _field(z=1.5)
    a.require_same_plane(b)
    with pytest.raises(PlaneMismatchError):
        a.require_same_plane(_field(z=2.0))
    with pytest.raises(PlaneMismatchError):
        a.require_same_plane(_field(extent=1.0))
    assert not a.same_geometry(_field(side=128))


def test_with_samples_keeps_geometry():
    f = _field()
    g = f.with_samples(np.zeros_like(f.samples), z=9.0)
    assert g.z_position == 9.0 and g.extent == f.extent
    h = f.with_samples(f.samples * 2)
    assert h.z_position == f.z_position


def test_binary_round_trip(tmp_path):
    f = _field(z=12.5)
    path = tmp_path / "snap.oamf"
    write_field(f, path)
    g = read_field(path)
    assert g.side == f.side
    assert g.z_position == f.z_position
    assert g.wavelength == f.wavelength
    assert g.extent == pytest.approx(f.extent)
    # storage is complex64: round trip is accurate to single precision
    assert np.max(np.abs(g.samples - f.samples)) < 1e-5 * np.max(np.abs(f.samples))


def test_binary_snapshot_is_written_in_row_blocks(tmp_path):
    # a padded (side, side + 12) grid, as the steps make; the payload is the
    # complex64 samples row by row, written a block of rows at a time
    side = 1024
    grid = np.empty((side, side + 12), dtype=np.complex128)[:, :side]
    grid[...] = _field(side=side, extent=12.0).samples
    f = ScalarField(grid, 12.0, 50.0, 0.0107)
    path = tmp_path / "big.oamf"
    tracemalloc.start()
    try:
        write_field(f, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20   # a whole-grid copy is 8 MiB at complex64
    payload = path.read_bytes()[4 + 32:]
    assert payload == grid.astype(np.complex64).tobytes()


def test_binary_format_guards(tmp_path):
    path = tmp_path / "junk.oamf"
    path.write_bytes(b"NOPE" + bytes(40))
    with pytest.raises(GeometryError):
        read_field(path)
    # a snapshot cut short or run long names its path: a short header was a
    # struct.error, a payload of 4095 or 4097 samples a bare ValueError
    write_field(_field(), path)
    whole = path.read_bytes()
    for data in (whole[:20], whole[:-8], whole[:-3], whole + bytes(8)):
        path.write_bytes(data)
        with pytest.raises(GeometryError, match="junk.oamf"):
            read_field(path)

