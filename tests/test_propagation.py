"""Angular-spectrum propagation against first-principles checks and a direct
Rayleigh-Sommerfeld quadrature oracle."""

import math

import numpy as np
import pytest
from scipy import fft as scipy_fft

from oamlink import (ObstructionMask, ScalarField, SourceRing,
                     angular_bandlimit, apply_mask, launch, propagate,
                     propagation, sample_points, source_spectrum,
                     synthesize_source_field)
from oamlink.bessel import first_max_abscissa
from oamlink.errors import (GeometryError, OutOfExtentError,
                            PlaneMismatchError, SamplingError)
from oamlink.propagation import (_TRANSFER_CACHE_SIZE, _band_limit,
                                 _transfer_function, _unfold,
                                 band_limit_frequency, propagate_to)


def _bandlimited_field(side=64, extent=0.64, lam=0.0107, sin_max=0.05,
                       sigma=0.03, seed=3):
    """Random field, spectrum confined to |sin(theta)| <= sin_max, with a
    compact Gaussian envelope."""
    rng = np.random.default_rng(seed)
    spacing = extent / side
    fx = np.fft.fftfreq(side, d=spacing)
    FX, FY = np.meshgrid(fx, fx)
    keep = FX ** 2 + FY ** 2 <= (sin_max / lam) ** 2
    spec = (rng.standard_normal((side, side))
            + 1j * rng.standard_normal((side, side))) * keep
    u = np.fft.ifft2(spec)
    c = (np.arange(side) - side // 2) * spacing
    X, Y = np.meshgrid(c, c)
    u *= np.exp(-(X ** 2 + Y ** 2) / (2 * sigma ** 2))
    u = np.fft.ifft2(np.fft.fft2(u) * keep)
    return ScalarField(u, extent, 0.0, lam)


def _analytic_source(X, Y, k):
    """Smooth compact reference source: tilted offset Gaussian plus a
    charge-1 vortex, used for the quadrature oracle comparison."""
    g1 = np.exp(-((X - 0.01) ** 2 + Y ** 2) / (2 * 0.03 ** 2)) \
        * np.exp(1j * k * 0.02 * X)
    g2 = (X + 1j * Y) / 0.03 \
        * np.exp(-(X ** 2 + (Y + 0.015) ** 2) / (2 * 0.025 ** 2))
    return g1 + 0.5 * g2


def rayleigh_sommerfeld_reference(side, extent, lam, dz, fine=128):
    """Direct quadrature of the first Rayleigh-Sommerfeld integral of the
    analytic source, evaluated on the coarse target grid.  The source is
    sampled at ``fine``^2 points; 128 vs 192 agree to 7 digits, so the
    quadrature is converged far below the comparison tolerance."""
    k = 2 * np.pi / lam
    d = extent / fine
    cf = (np.arange(fine) - fine // 2) * d
    XF, YF = np.meshgrid(cf, cf)
    us = _analytic_source(XF, YF, k).ravel()
    xs, ys = XF.ravel(), YF.ravel()
    c = (np.arange(side) - side // 2) * (extent / side)
    out = np.zeros((side, side), dtype=complex)
    for i in range(side):
        dy2 = (c[i] - ys) ** 2
        for j in range(side):
            r = np.sqrt((c[j] - xs) ** 2 + dy2 + dz * dz)
            kern = dz * (1 - 1j * k * r) * np.exp(1j * k * r) / (2 * np.pi * r ** 3)
            out[i, j] = np.sum(us * kern)
    return out * d * d


def test_matches_rayleigh_sommerfeld_oracle():
    side, extent, lam, dz = 64, 0.64, 0.0107, 0.5
    c = (np.arange(side) - side // 2) * (extent / side)
    X, Y = np.meshgrid(c, c)
    k = 2 * np.pi / lam
    f = ScalarField(_analytic_source(X, Y, k), extent, 0.0, lam)
    asm = propagate(f, dz)
    ref = rayleigh_sommerfeld_reference(side, extent, lam, dz)
    rel_rms = np.sqrt(np.mean(np.abs(asm.samples - ref) ** 2)
                      / np.mean(np.abs(ref) ** 2))
    assert rel_rms <= 1e-3
    # the agreement is far better than the budget; regression-guard it
    assert rel_rms <= 1e-9


def test_power_conservation():
    f = _bandlimited_field()
    p0 = f.power()
    g = propagate(f, 0.5)
    assert abs(g.power() - p0) / p0 <= 1e-9
    g = propagate(g, 3.0)
    assert abs(g.power() - p0) / p0 <= 1e-9


def test_semigroup_property():
    f = _bandlimited_field()
    one_hop = propagate(f, 0.8)
    two_hops = propagate(propagate(f, 0.3), 0.5)
    rel_rms = np.sqrt(np.mean(np.abs(one_hop.samples - two_hops.samples) ** 2)
                      / np.mean(np.abs(one_hop.samples) ** 2))
    assert rel_rms <= 1e-8
    assert one_hop.z_position == pytest.approx(two_hops.z_position)


def test_linearity_and_purity():
    a = _bandlimited_field(seed=1)
    b = _bandlimited_field(seed=2)
    before = a.samples.copy()
    lhs = propagate(a.with_samples(2.0 * a.samples + 1j * b.samples), 0.5)
    rhs = 2.0 * propagate(a, 0.5).samples + 1j * propagate(b, 0.5).samples
    assert np.allclose(lhs.samples, rhs, rtol=0, atol=1e-12)
    assert np.array_equal(a.samples, before)  # input untouched


def test_zero_distance_rejected_and_z_bookkeeping():
    f = _bandlimited_field()
    with pytest.raises(GeometryError):
        propagate(f, 0.0)
    with pytest.raises(GeometryError):
        propagate(f, -1.0)
    g = propagate(f, 0.25)
    assert g.z_position == pytest.approx(0.25)


def _transfer_from_formula(f, dz, band_limited=True):
    """H written out from the module docstring's formula on meshgrid planes."""
    fx = np.fft.fftfreq(f.side, d=f.spacing)
    FX, FY = np.meshgrid(fx, fx)
    kz_sq = 1.0 / f.wavelength ** 2 - FX ** 2 - FY ** 2
    keep = kz_sq > 0
    if band_limited:
        f_lim = band_limit_frequency(f, dz)
        keep &= (np.abs(FX) <= f_lim) & (np.abs(FY) <= f_lim)
    phase = 2 * np.pi * dz * np.sqrt(np.where(keep, kz_sq, 0.0))
    return np.where(keep, np.exp(1j * phase), 0.0)


@pytest.mark.parametrize("band_limited", [True, False])
def test_cached_transfer_matches_formula(band_limited):
    # 2 mm spacing: 1/lambda lies inside the grid band, so both the
    # evanescent cut and (for long steps) the band limit are exercised
    f = _bandlimited_field(extent=0.128, sin_max=0.3, sigma=0.01)
    for dz in (0.5, 3.0):
        ref = _transfer_from_formula(f, dz, band_limited)
        for _ in range(2):   # build, then cache hit
            g = propagate(f, dz, band_limited=band_limited)
            expected = np.fft.ifft2(np.fft.fft2(f.samples) * ref)
            assert np.max(np.abs(g.samples - expected)) \
                <= 1e-12 * np.max(np.abs(expected))
        transfer, keep = (_unfold(q, f.side) for q in _transfer_function(
            f.side, f.extent, f.wavelength, dz, band_limited))
        assert np.array_equal(keep, ref != 0)
        assert np.max(np.abs(transfer - ref)) <= 1e-12


def test_cached_transfer_is_read_only():
    f = _bandlimited_field()
    transfer, keep = _transfer_function(f.side, f.extent, f.wavelength, 0.5,
                                        True)
    with pytest.raises(ValueError):
        transfer[0, 0] = 0.0
    with pytest.raises(ValueError):
        transfer *= 2.0
    with pytest.raises(ValueError):
        keep[0, 0] = False


def test_cache_keys_on_step_and_band_limit():
    f = _bandlimited_field(extent=0.128, sin_max=0.3, sigma=0.01)
    _transfer_function.cache_clear()
    propagate(f, 0.5)
    propagate(f, 0.5)
    assert _transfer_function.cache_info().currsize == 1
    assert _transfer_function.cache_info().hits == 1
    propagate(f, 3.0)
    propagate(f, 3.0, band_limited=False)
    assert _transfer_function.cache_info().currsize == 3
    key = (f.side, f.extent, f.wavelength)
    h_short, _ = _transfer_function(*key, 0.5, True)
    h_long, _ = _transfer_function(*key, 3.0, True)
    h_open, keep_open = _transfer_function(*key, 3.0, False)
    assert not np.array_equal(h_short, h_long)
    # a long step clips the band; without the limit more components survive
    assert np.count_nonzero(h_open) > np.count_nonzero(h_long)
    assert np.count_nonzero(keep_open) == np.count_nonzero(h_open)


def test_cache_stays_within_its_bound():
    f = _bandlimited_field()
    _transfer_function.cache_clear()
    for dz in (0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 0.1):
        propagate(f, dz)
        assert _transfer_function.cache_info().currsize <= _TRANSFER_CACHE_SIZE
    assert _TRANSFER_CACHE_SIZE == 4
    assert _transfer_function.cache_info().currsize == _TRANSFER_CACHE_SIZE


def test_band_limit_frequency_formula():
    f = _bandlimited_field()
    dz = 2.0
    dfreq = 1.0 / f.extent
    expected = 1.0 / (math.sqrt((2 * dfreq * dz) ** 2 + 1.0) * f.wavelength)
    assert band_limit_frequency(f, dz) == pytest.approx(expected, rel=1e-14)
    # limit shrinks with step length, approaches 1/lambda for tiny steps
    assert band_limit_frequency(f, 10.0) < band_limit_frequency(f, 1.0)
    assert band_limit_frequency(f, 1e-9) == pytest.approx(1.0 / f.wavelength,
                                                          rel=1e-9)


def test_max_truncation_guard():
    rng = np.random.default_rng(0)
    side = 64
    u = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    # 1 mm spacing: the white spectrum reaches far past 1/lambda, so most of
    # it is evanescent or beyond the anti-aliasing band
    hot = ScalarField(u, 0.064, 0.0, 0.0107)
    for _ in range(2):   # the second call reuses the cached transfer function
        with pytest.raises(SamplingError):
            propagate(hot, 0.5, max_truncation=0.01)
    # a compliant field passes with the same guard
    propagate(_bandlimited_field(), 0.5, max_truncation=0.01)


def test_propagate_to_steps_and_guards():
    f = _bandlimited_field()
    g = propagate_to(f, 2.0, max_step=0.6)   # forces 4 sub-steps
    h = propagate(f, 2.0)
    assert g.z_position == pytest.approx(2.0)
    rel = np.sqrt(np.mean(np.abs(g.samples - h.samples) ** 2)
                  / np.mean(np.abs(h.samples) ** 2))
    assert rel <= 1e-8
    with pytest.raises(GeometryError):
        propagate_to(g, 1.0)


def test_edge_absorber_tapers_border():
    f = _bandlimited_field()
    g = propagate_to(f, 1.0, max_step=1.0, edge_margin=0.1)
    assert np.all(np.abs(g.samples[0, :]) == 0.0)
    assert np.all(np.abs(g.samples[:, 0]) == 0.0)
    assert g.power() < f.power()


@pytest.mark.parametrize("margin", [0.05, 0.6])
def test_edge_absorber_matches_window_and_spares_input(margin):
    f = _bandlimited_field()
    before = f.samples.copy()
    g = propagate_to(f, 1.2, max_step=0.6, edge_margin=margin)
    assert np.array_equal(f.samples, before)   # input untouched
    assert g.samples is not f.samples
    # reference: the 2-D raised-cosine window applied after each step; a
    # margin past half the grid lets the falling ramp overwrite the rising one
    n, m = f.side, max(2, int(margin * f.side))
    w = np.ones(n)
    ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(m) / m))
    w[:m], w[n - m:] = ramp, ramp[::-1]
    ref = f
    for _ in range(2):
        ref = propagate(ref, 0.6)
        ref = ref.with_samples(ref.samples * np.outer(w, w))
    assert np.max(np.abs(g.samples - ref.samples)) \
        <= 1e-14 * np.max(np.abs(ref.samples))


def test_angular_bandlimit():
    f = _bandlimited_field(sin_max=0.08)
    g = angular_bandlimit(f, math.asin(0.03))
    spec = np.fft.fft2(g.samples)
    fx = np.fft.fftfreq(f.side, d=f.spacing)
    FX, FY = np.meshgrid(fx, fx)
    outside = FX ** 2 + FY ** 2 > (0.03 / f.wavelength) ** 2 * (1 + 1e-12)
    assert np.max(np.abs(spec[outside])) <= 1e-9 * np.max(np.abs(spec))
    with pytest.raises(GeometryError):
        angular_bandlimit(f, 0.0)


def test_fft_worker_count_leaves_output_bit_identical(monkeypatch):
    # three cores split the grid unevenly (21/21/22 rows at 64^2, 341/341/342
    # at 1024^2) and the launch's 195-column box (65 each at 1024^2)
    lam, theta = 299792458.0 / 28e9, math.radians(5.0)
    ring = SourceRing(radius_r=0.149, num_elements_N=238, order_l=2)
    for side in (64, 1024):
        src = synthesize_source_field(ring, side, 12.0, lam)
        spectrum = source_spectrum(ring, side, 12.0, lam, theta)
        field = launch(spectrum, 10.0)
        values, samples = spectrum.values.copy(), field.samples.copy()
        outputs = {}
        for cores in (1, 2, 3, 4):
            monkeypatch.setattr(propagation, "_FFT_WORKERS", cores)
            outputs[cores] = [
                angular_bandlimit(src, theta).samples,
                propagate(field, 10.0).samples,
                propagate(field, 10.0, max_truncation=1.0).samples,
                launch(spectrum, 10.0).samples,
                propagate_to(spectrum, 30.0, edge_margin=0.05).samples,
                propagate_to(field, 14.0, max_step=2.0,
                             edge_margin=0.6).samples]
            # the steps wrote none of their inputs
            assert np.array_equal(spectrum.values, values)
            assert np.array_equal(field.samples, samples)
        for cores in (2, 3, 4):
            for one, many in zip(outputs[1], outputs[cores]):
                assert np.array_equal(_bits(one), _bits(many))


@pytest.mark.parametrize("order", [1, 2, 4, -3])
@pytest.mark.parametrize("side", [1024, 64])
def test_launch_matches_the_synthesized_source_path(order, side):
    # 12 m at 1024^2 keeps a 195-bin box of the 5-degree cone; at 64^2 the
    # cone covers every bin
    lam, theta = 299792458.0 / 28e9, math.radians(5.0)
    ring = SourceRing(radius_r=0.149, num_elements_N=238, order_l=order)
    spectrum = source_spectrum(ring, side, 12.0, lam, theta)
    assert len(spectrum.bins) == min(side, 195)
    launched = launch(spectrum, 10.0)
    src = angular_bandlimit(synthesize_source_field(ring, side, 12.0, lam),
                            theta)
    ref = propagate(src, 10.0)
    assert launched.z_position == ref.z_position == 10.0
    assert np.max(np.abs(launched.samples - ref.samples)) \
        <= 1e-12 * np.max(np.abs(ref.samples))
    with pytest.raises(GeometryError):
        launch(spectrum, 0.0)


def _full_grid_transfer(side, extent, wavelength, dz, band_limited):
    """The transfer function built over every bin of the grid."""
    fx = np.fft.fftfreq(side, d=extent / side)
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
    return transfer, keep


@pytest.mark.parametrize("side", [64, 65])
@pytest.mark.parametrize("band_limited", [True, False])
def test_quadrant_transfer_equals_the_full_grid_build(side, band_limited):
    # 2 mm spacing and a 5 cm step: the band limit (74 /m) lies inside the
    # evanescent cut (93 /m), which lies inside the grid's band (250 /m)
    key = (side, 0.002 * side, 0.0107, 0.05, band_limited)
    transfer, keep = (_unfold(q, side) for q in _transfer_function(*key))
    ref_transfer, ref_keep = _full_grid_transfer(*key)
    assert 100 < np.count_nonzero(keep) < side * side // 4
    assert np.array_equal(keep, ref_keep)
    assert np.array_equal(transfer, ref_transfer)


@pytest.mark.parametrize("side", [64, 65, 1024])
def test_transfer_cache_entry_holds_one_quadrant(side):
    key = (side, 0.002 * side, 0.0107, 0.05, True)
    transfer, keep = _transfer_function(*key)
    assert transfer.shape == keep.shape == (side // 2 + 1, side // 2 + 1)
    assert transfer.nbytes + keep.nbytes <= (side // 2 + 1) ** 2 * 17


def _bits(samples):
    """The samples' bytes as integers: equal bits, signed zeros included."""
    return np.ascontiguousarray(samples).view(np.uint64)


@pytest.mark.parametrize("side", [64, 1024])
def test_padded_steps_match_a_contiguous_scipy_reference(side):
    # the plain transforms on contiguous arrays, as a step ran before the
    # padded grids, the pruned launch and the box-only mask
    lam, theta = 299792458.0 / 28e9, math.radians(5.0)
    ring = SourceRing(radius_r=0.149, num_elements_N=238, order_l=2)
    spectrum = source_spectrum(ring, side, 12.0, lam, theta)
    values = spectrum.values.copy()
    launched = launch(spectrum, 10.0)
    transfer = _unfold(_transfer_function(side, 12.0, lam, 10.0, True)[0], side)
    grid = np.zeros((side, side), dtype=complex)
    box = np.ix_(spectrum.bins, spectrum.bins)
    grid[box] = spectrum.values * transfer[box]
    ref = scipy_fft.ifft2(grid)
    assert np.array_equal(_bits(launched.samples), _bits(ref))
    assert np.array_equal(spectrum.values, values)

    # the edge taper leaves signed zeros on the border for the mask to keep
    tapered = propagate_to(spectrum, 10.0, edge_margin=0.05)
    assert np.count_nonzero(np.signbit(tapered.samples[0].imag)) > 0
    for mask in (ObstructionMask("rectangle", 0.0, -0.5, (1.2, 1.6), 10.0),
                 ObstructionMask("disk", 0.3, 0.2, (0.9,), 10.0, 0.25),
                 ObstructionMask("disk", 9.0, 0.0, (1.0,), 10.0)):
        before = tapered.samples.copy()
        masked = apply_mask(tapered, mask)
        assert np.array_equal(_bits(masked.samples),
                              _bits(before * mask.transmittance_map(tapered)))
        assert np.array_equal(_bits(tapered.samples), _bits(before))

    before = masked.samples.copy()
    stepped = propagate(masked, 4.0)
    transfer = _unfold(_transfer_function(side, 12.0, lam, 4.0, True)[0], side)
    ref = scipy_fft.fft2(before) * transfer
    ref = scipy_fft.ifft2(ref)
    assert np.array_equal(_bits(stepped.samples), _bits(ref))
    assert np.array_equal(_bits(masked.samples), _bits(before))


@pytest.mark.parametrize("side", [64, 512, 1024, 2048])
def test_grid_rows_are_an_odd_number_of_cache_lines(side):
    # an even count of 64-byte lines maps a column to half the cache sets
    grid = propagation._grid(side)
    assert grid.shape == (side, side)
    assert grid.strides[0] % 64 == 0
    assert grid.strides[0] // 64 % 2 == 1


def test_mask_validation():
    with pytest.raises(GeometryError):
        ObstructionMask("sphere", 0, 0, (1.0,), 10.0)
    with pytest.raises(GeometryError):
        ObstructionMask("disk", 0, 0, (1.0, 2.0), 10.0)
    with pytest.raises(GeometryError):
        ObstructionMask("rectangle", 0, 0, (1.0,), 10.0)
    with pytest.raises(GeometryError):
        ObstructionMask("disk", 0, 0, (-1.0,), 10.0)
    with pytest.raises(GeometryError):
        ObstructionMask("disk", 0, 0, (1.0,), 10.0, transmittance=1.5)


def test_mask_geometry_and_plane_check():
    f = _bandlimited_field(extent=0.64)
    disk = ObstructionMask("disk", 0.1, 0.0, (0.2,), 0.0, transmittance=0.25)
    g = apply_mask(f, disk)
    X, Y = f.meshgrid()
    inside = (X - 0.1) ** 2 + Y ** 2 <= 0.1 ** 2
    assert np.allclose(g.samples[inside], 0.25 * f.samples[inside])
    assert np.allclose(g.samples[~inside], f.samples[~inside])
    rect = ObstructionMask("rectangle", 0.0, -0.1, (0.2, 0.1), 5.0)
    with pytest.raises(PlaneMismatchError):
        apply_mask(f, rect)


@pytest.mark.parametrize("transmittance", [0.0, 0.25])
def test_mask_map_matches_a_meshgrid_reference(transmittance):
    f = _bandlimited_field(extent=0.64)
    X, Y = f.meshgrid()
    disk = ObstructionMask("disk", 0.07, -0.11, (0.25,), 0.0, transmittance)
    rect = ObstructionMask("rectangle", -0.05, 0.12, (0.3, 0.14), 0.0,
                           transmittance)
    dx, dy = X - 0.07, Y + 0.11
    in_disk = dx ** 2 + dy ** 2 <= (0.25 / 2.0) ** 2
    dx, dy = X + 0.05, Y - 0.12
    in_rect = (np.abs(dx) <= 0.3 / 2.0) & (np.abs(dy) <= 0.14 / 2.0)
    for mask, inside in ((disk, in_disk), (rect, in_rect)):
        ref = np.ones_like(X)
        ref[inside] = transmittance
        assert 0 < np.count_nonzero(inside) < inside.size
        assert np.array_equal(mask.transmittance_map(f), ref)


def test_rectangle_shadow_matches_geometric_estimate():
    # beam annulus at z=10 partially covered by an offset rectangle: the
    # blocked power fraction tracks the covered arc fraction of the annulus
    lam = 0.010707
    ring = SourceRing(radius_r=0.149, num_elements_N=238, order_l=2)
    f = synthesize_source_field(ring, 1024, 12.0, lam)
    f = angular_bandlimit(f, math.radians(5.0))
    at10 = propagate_to(f, 10.0, max_step=10.0)
    mask = ObstructionMask("rectangle", 0.0, -0.35, (0.5, 1.0), 10.0)
    blocked_fraction = 1.0 - apply_mask(at10, mask).power() / at10.power()

    # geometric-shadow estimate: fraction of the thin annulus (at the
    # conical-spread radius) falling inside the rectangle
    r_beam = 10.0 * math.tan(math.asin(
        first_max_abscissa(2) * lam / (2 * math.pi * 0.149)))
    phi = 2 * np.pi * np.arange(200000) / 200000
    x, y = r_beam * np.cos(phi), r_beam * np.sin(phi)
    covered = (np.abs(x) <= 0.25) & (np.abs(y + 0.35) <= 0.5)
    geometric = float(np.mean(covered))
    assert blocked_fraction == pytest.approx(geometric, rel=0.2)


def test_annulus_peak_tracks_cone_prediction():
    # ring source propagated far out: azimuthally averaged intensity peaks
    # at the conical-spread radius (Fresnel ripples keep z=50 m near the
    # 3x-far-field boundary; z=100 m is converged)
    lam = 0.010707
    ring = SourceRing(radius_r=0.149, num_elements_N=238, order_l=2)
    f = synthesize_source_field(ring, 1024, 12.0, lam)
    f = angular_bandlimit(f, math.radians(5.0))
    pred_angle = math.asin(first_max_abscissa(2) * lam / (2 * math.pi * 0.149))
    for z, tol in ((50.0, 0.05), (100.0, 0.01)):
        g = propagate_to(f, z, max_step=10.0, edge_margin=0.05)
        X, Y = g.meshgrid()
        rho = np.sqrt(X ** 2 + Y ** 2).ravel()
        inten = np.abs(g.samples.ravel()) ** 2
        nbins, rmax = 600, 6.0
        idx = np.minimum((rho / rmax * nbins).astype(int), nbins - 1)
        prof = np.bincount(idx, weights=inten, minlength=nbins) \
            / np.maximum(np.bincount(idx, minlength=nbins), 1)
        peak_r = (np.argmax(prof) + 0.5) * rmax / nbins
        assert peak_r == pytest.approx(z * math.tan(pred_angle), rel=tol)
        f = g


def test_sample_points_bilinear():
    f = _bandlimited_field()
    c = f.coords()
    # exact at grid nodes
    vals = sample_points(f, [[c[10], c[20]], [c[33], c[5]]])
    assert vals[0] == pytest.approx(f.samples[20, 10], rel=1e-14)
    assert vals[1] == pytest.approx(f.samples[5, 33], rel=1e-14)
    # midpoint between two horizontal neighbours averages them
    mid = sample_points(f, [[(c[10] + c[11]) / 2, c[20]]])[0]
    assert mid == pytest.approx((f.samples[20, 10] + f.samples[20, 11]) / 2,
                                rel=1e-12)
    with pytest.raises(OutOfExtentError):
        sample_points(f, [[f.extent, 0.0]])


@pytest.mark.parametrize("point", [(math.nan, 0.0), (0.0, math.nan),
                                   (math.inf, 0.0), (0.0, -math.inf)])
def test_sample_points_rejects_non_finite_points(point):
    f = _bandlimited_field()
    with pytest.raises(OutOfExtentError):
        sample_points(f, [[0.0, 0.0], point])
