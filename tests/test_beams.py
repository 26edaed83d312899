"""Ring-array patterns, cone matching and source synthesis."""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from oamlink import (FarFieldPattern, SourceRing, cone_angle, far_field,
                     matched_radius, source_spectrum, spectrum_field)
from oamlink.analysis import azimuthal_spectrum
from oamlink.beams import synthesize_source_field
from oamlink.errors import GeometryError, NyquistError
from oamlink.propagation import angular_bandlimit
from tests.oracles import source_spectrum_reference

mp.mp.dps = 30


def test_far_field_against_independent_oracle():
    pat = FarFieldPattern(order_l=3, radius_r=0.149, wavelength=0.010707)
    for theta, phi in [(0.01, 0.3), (0.05, -1.2), (0.2, 2.5)]:
        x = 2 * math.pi * pat.radius_r * math.sin(theta) / pat.wavelength
        expected = complex((-1j) ** 3 * mp.exp(1j * 3 * phi) * mp.besselj(3, x))
        assert far_field(pat, theta, phi) == pytest.approx(expected, rel=1e-10)


def test_far_field_negative_order_symmetry():
    pos = FarFieldPattern(order_l=3, radius_r=0.149, wavelength=0.010707)
    neg = FarFieldPattern(order_l=-3, radius_r=0.149, wavelength=0.010707)
    theta = np.linspace(0.0, 0.3, 50)
    vp = far_field(pos, theta, 0.0)
    vn = far_field(neg, theta, 0.0)
    # J_{-3} = -J_3 and the (-j)^l prefactor flips too: magnitudes agree
    assert np.allclose(np.abs(vp), np.abs(vn), rtol=0, atol=1e-14)


def test_far_field_azimuthal_phase():
    pat = FarFieldPattern(order_l=2, radius_r=0.149, wavelength=0.010707)
    v0 = far_field(pat, 0.05, 0.0)
    v1 = far_field(pat, 0.05, 0.7)
    assert v1 / v0 == pytest.approx(np.exp(1j * 2 * 0.7), rel=1e-12)


def test_far_field_theta_domain():
    pat = FarFieldPattern(order_l=2, radius_r=0.149, wavelength=0.010707)
    with pytest.raises(GeometryError):
        far_field(pat, -0.01, 0.0)
    with pytest.raises(GeometryError):
        far_field(pat, np.pi / 2, 0.0)


@pytest.mark.parametrize("lam,expected_deg", [
    (0.010707, 2.0017755),   # exact 28 GHz wavelength
    (0.011, 2.0565779),      # rounded wavelength; within 2.06 +/- 0.05 deg
])
def test_cone_angle_order_two(lam, expected_deg):
    pat = FarFieldPattern(order_l=2, radius_r=0.149, wavelength=lam)
    assert math.degrees(cone_angle(pat)) == pytest.approx(expected_deg, abs=1e-5)
    # the cone angle is the global |pattern| maximum over theta
    theta = np.linspace(1e-4, 0.2, 20001)
    mags = np.abs(far_field(pat, theta, 0.0))
    theta_peak = theta[np.argmax(mags)]
    assert theta_peak == pytest.approx(cone_angle(pat), abs=2e-5)


def test_cone_angle_invisible_peak():
    # ring much smaller than a wavelength: first maximum beyond sin(theta)=1
    pat = FarFieldPattern(order_l=2, radius_r=1e-4, wavelength=0.011)
    with pytest.raises(GeometryError):
        cone_angle(pat)


def test_matched_radius_bessel_scaling():
    assert matched_radius(4, 2, 0.149) == pytest.approx(0.2594151778, rel=1e-8)
    # matching preserves the cone angle
    lam = 0.010707
    a2 = cone_angle(FarFieldPattern(2, 0.149, lam))
    a4 = cone_angle(FarFieldPattern(4, matched_radius(4, 2, 0.149), lam))
    assert a4 == pytest.approx(a2, rel=1e-12)
    with pytest.raises(GeometryError):
        matched_radius(0, 2, 0.149)
    with pytest.raises(GeometryError):
        matched_radius(4, 2, -0.1)


def test_source_ring_validation():
    SourceRing(radius_r=0.149, num_elements_N=238, order_l=2)
    with pytest.raises(NyquistError):
        SourceRing(radius_r=0.149, num_elements_N=8, order_l=4)
    with pytest.raises(GeometryError):
        SourceRing(radius_r=0.0, num_elements_N=238, order_l=2)
    with pytest.raises(GeometryError):
        SourceRing(radius_r=0.149, num_elements_N=238, order_l=17)


def test_synthesized_field_power_and_purity():
    ring = SourceRing(radius_r=0.149, num_elements_N=238, order_l=2)
    f = synthesize_source_field(ring, 512, 2.0, 0.010707)
    assert f.power() == pytest.approx(1.0, rel=1e-12)
    assert f.z_position == 0.0
    spec = azimuthal_spectrum(f, 0.149, max_mode=8)
    assert spec.purity(2) > 0.95
    assert spec.purity(-2) < 1e-3


def test_synthesis_continuous_converges_to_discrete():
    # 238 elements on the ring are dense enough that the discrete splat is
    # close to a dense quadrature of the continuous ring (4096 elements)
    ring = SourceRing(radius_r=0.149, num_elements_N=238, order_l=2)
    dense = SourceRing(radius_r=0.149, num_elements_N=4096, order_l=2)
    fd = synthesize_source_field(ring, 256, 2.0, 0.010707)
    fc = synthesize_source_field(dense, 256, 2.0, 0.010707)
    num = abs(np.vdot(fd.samples, fc.samples)) ** 2
    den = (np.sum(np.abs(fd.samples) ** 2) * np.sum(np.abs(fc.samples) ** 2))
    assert num / den > 0.999


def test_synthesis_extent_guard():
    ring = SourceRing(radius_r=0.6, num_elements_N=238, order_l=2)
    with pytest.raises(GeometryError):
        synthesize_source_field(ring, 256, 2.0, 0.010707)


def test_source_spectrum_is_the_band_limited_splat():
    lam, theta = 0.010707, math.radians(5.0)
    ring = SourceRing(radius_r=0.149, num_elements_N=238, order_l=3)
    spectrum = source_spectrum(ring, 256, 3.0, lam, theta)
    fx = np.fft.fftfreq(256, d=3.0 / 256)
    f_max = math.sin(theta) / lam
    assert np.array_equal(spectrum.bins, np.flatnonzero(fx ** 2 <= f_max ** 2))
    assert spectrum.z_position == 0.0
    full = np.fft.fft2(synthesize_source_field(ring, 256, 3.0, lam).samples)
    FX, FY = np.meshgrid(fx, fx)
    full[FX ** 2 + FY ** 2 > f_max ** 2] = 0.0
    box = full[np.ix_(spectrum.bins, spectrum.bins)]
    # the box holds the whole band-limited spectrum
    assert np.sum(np.abs(box) ** 2) == pytest.approx(
        np.sum(np.abs(full) ** 2), rel=1e-12)
    assert np.max(np.abs(spectrum.values - box)) \
        <= 1e-12 * np.max(np.abs(box))
    ref = angular_bandlimit(synthesize_source_field(ring, 256, 3.0, lam),
                            theta)
    src = spectrum_field(spectrum)
    assert src.z_position == 0.0
    assert np.max(np.abs(src.samples - ref.samples)) \
        <= 1e-12 * np.max(np.abs(ref.samples))


@pytest.mark.parametrize("side", [64, 256, 1024])
def test_source_spectrum_matches_the_direct_dft(side):
    # the pruned FFTs against the direct DFT of the splat's block, for rings
    # of every size the sweep takes, Bessel-matched to order 2's
    lam, theta = 299792458.0 / 28e9, math.radians(5.0)
    for order in [*range(1, 7), *range(-6, 0)]:
        ring = SourceRing(radius_r=matched_radius(order, 2, 0.149),
                          num_elements_N=238, order_l=order)
        spectrum = source_spectrum(ring, side, 12.0, lam, theta)
        ref = source_spectrum_reference(ring, side, 12.0, lam, theta)
        assert np.max(np.abs(spectrum.values - ref)) \
            <= 1e-13 * np.max(np.abs(ref))


def test_source_spectrum_temporaries_stay_small():
    # order 6's ring is the widest the sweep takes: a 65-row block; its
    # temporaries are blocks of 16 rows of the grid, not the block's rows
    # across the grid (1 MiB) or a grid (16 MiB)
    lam, theta = 299792458.0 / 28e9, math.radians(5.0)
    ring = SourceRing(radius_r=matched_radius(6, 2, 0.149),
                      num_elements_N=238, order_l=6)
    source_spectrum(ring, 1024, 12.0, lam, theta)
    tracemalloc.start()
    try:
        spectrum = source_spectrum(ring, 1024, 12.0, lam, theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(spectrum.bins) == 195
    assert peak - spectrum.values.nbytes <= 2 ** 20


def test_source_spectrum_guards():
    theta = math.radians(5.0)
    ring = SourceRing(radius_r=0.6, num_elements_N=238, order_l=2)
    with pytest.raises(GeometryError, match="4x the ring radius"):
        source_spectrum(ring, 256, 2.0, 0.010707, theta)
    ring = SourceRing(radius_r=0.149, num_elements_N=238, order_l=2)
    for bad in (0.0, math.pi / 2):
        with pytest.raises(GeometryError, match="theta_max"):
            source_spectrum(ring, 256, 2.0, 0.010707, bad)
