"""Angular-spectrum propagation against first-principles checks and a direct
Rayleigh-Sommerfeld quadrature oracle."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import fft as scipy_fft

from oamlink import (ObstructionMask, ScalarField, SourceRing, apply_mask,
                     launch, propagate, propagation, sample_points,
                     source_spectrum, spectrum_field)
from oamlink.beams import synthesize_source_field
from oamlink.bessel import first_max_abscissa
from oamlink.errors import GeometryError, OutOfExtentError, PlaneMismatchError
from oamlink.propagation import (_band_limit, _transfer_block,
                                 _transfer_function, angular_bandlimit,
                                 propagate_to, sample_at)
from tests.oracles import (absorb_edges, analytic_source,
                           rayleigh_sommerfeld_reference)


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


def test_matches_rayleigh_sommerfeld_oracle():
    side, extent, lam, dz = 64, 0.64, 0.0107, 0.5
    c = (np.arange(side) - side // 2) * (extent / side)
    X, Y = np.meshgrid(c, c)
    k = 2 * np.pi / lam
    f = ScalarField(analytic_source(X, Y, k), extent, 0.0, lam)
    asm = propagate(f, dz)
    ref = rayleigh_sommerfeld_reference(side, extent, lam, dz)
    rel_rms = np.sqrt(np.mean(np.abs(asm.samples - ref) ** 2)
                      / np.mean(np.abs(ref) ** 2))
    assert rel_rms <= 1e-3
    # the agreement is far better than the budget; regression-guard it
    assert rel_rms <= 1e-9


@pytest.mark.parametrize("fine", [32, 64])
def test_rayleigh_sommerfeld_oracle_is_the_direct_sum(fine):
    # the tabulated-kernel oracle against the sum over every source point,
    # target by target, on a grid small enough to loop over
    side, extent, lam, dz = 16, 0.64, 0.0107, 0.5
    k = 2 * np.pi / lam
    d = extent / fine
    cf = (np.arange(fine) - fine // 2) * d
    XF, YF = np.meshgrid(cf, cf)
    us = analytic_source(XF, YF, k).ravel()
    xs, ys = XF.ravel(), YF.ravel()
    c = (np.arange(side) - side // 2) * (extent / side)
    ref = np.zeros((side, side), dtype=complex)
    for i in range(side):
        for j in range(side):
            r = np.sqrt((c[j] - xs) ** 2 + (c[i] - ys) ** 2 + dz * dz)
            kern = dz * (1 - 1j * k * r) * np.exp(1j * k * r) \
                / (2 * np.pi * r ** 3)
            ref[i, j] = np.sum(us * kern) * d * d
    fast = rayleigh_sommerfeld_reference(side, extent, lam, dz, fine)
    assert np.max(np.abs(fast - ref)) <= 1e-13 * np.max(np.abs(ref))


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


def _unfold(quadrant, side):
    """The ``(side, side)`` array a transfer-function quadrant stands for:
    bin i of each axis reads quadrant index ``min(i, side - i)``."""
    fold = np.minimum(np.arange(side), side - np.arange(side))
    return quadrant[np.ix_(fold, fold)]


def _count_builds(monkeypatch):
    """The key of every quadrant ``propagation._transfer`` builds from now
    on, in order; the held quadrant is dropped first, so the next step
    builds its own."""
    built = []
    real = propagation._transfer_function

    def counting(*key):
        built.append(key)
        return real(*key)

    monkeypatch.setattr(propagation, "_transfer_function", counting)
    propagation._HELD.clear()
    return built


def _transfer_from_formula(f, dz):
    """H written out from the module docstring's formula on meshgrid planes."""
    fx = np.fft.fftfreq(f.side, d=f.spacing)
    FX, FY = np.meshgrid(fx, fx)
    kz_sq = 1.0 / f.wavelength ** 2 - FX ** 2 - FY ** 2
    f_lim = _band_limit(f.extent, f.wavelength, dz)
    keep = (kz_sq > 0) & (np.abs(FX) <= f_lim) & (np.abs(FY) <= f_lim)
    phase = 2 * np.pi * dz * np.sqrt(np.where(keep, kz_sq, 0.0))
    return np.where(keep, np.exp(1j * phase), 0.0)


def test_cached_transfer_matches_formula():
    # 2 mm spacing: 1/lambda lies inside the grid band, so both the
    # evanescent cut and (for long steps) the band limit are exercised
    f = _bandlimited_field(extent=0.128, sin_max=0.3, sigma=0.01)
    for dz in (0.5, 3.0):
        ref = _transfer_from_formula(f, dz)
        for _ in range(2):   # build, then read the held quadrant
            g = propagate(f, dz)
            expected = np.fft.ifft2(np.fft.fft2(f.samples) * ref)
            assert np.max(np.abs(g.samples - expected)) \
                <= 1e-12 * np.max(np.abs(expected))
        transfer = _unfold(_transfer_function(
            f.side, f.extent, f.wavelength, dz), f.side)
        assert np.array_equal(transfer != 0, ref != 0)
        assert np.max(np.abs(transfer - ref)) <= 1e-12


def test_cached_transfer_is_read_only():
    f = _bandlimited_field()
    transfer = _transfer_function(f.side, f.extent, f.wavelength, 0.5)
    with pytest.raises(ValueError):
        transfer[0, 0] = 0.0
    with pytest.raises(ValueError):
        transfer *= 2.0


def test_cache_keys_on_step_and_band_limit(monkeypatch):
    f = _bandlimited_field(extent=0.128, sin_max=0.3, sigma=0.01)
    built = _count_builds(monkeypatch)
    key = (f.side, f.extent, f.wavelength)
    propagate(f, 0.5)
    propagate(f, 0.5)
    assert built == [(*key, 0.5)]   # the second step reads the first's
    assert list(propagation._HELD) == [(*key, 0.5)]
    propagate(f, 3.0)
    # a new step length replaces the held quadrant, not adds to it
    assert built == [(*key, 0.5), (*key, 3.0)]
    assert list(propagation._HELD) == [(*key, 3.0)]
    h_short = _transfer_function(*key, 0.5)
    h_long = _transfer_function(*key, 3.0)
    assert not np.array_equal(h_short, h_long)
    # the band limit follows the step: a long step clips more of the band
    assert np.count_nonzero(h_short) > np.count_nonzero(h_long)


def test_cache_stays_within_its_bound(monkeypatch):
    f = _bandlimited_field()
    built = _count_builds(monkeypatch)
    steps = (0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 0.1)
    for dz in steps:
        propagate(f, dz)
        # one quadrant alive: the one this step read
        assert list(propagation._HELD) == [(f.side, f.extent, f.wavelength,
                                            dz)]
    # a step length that returns after another is built again
    assert [key[-1] for key in built] == list(steps)


def test_one_quadrant_is_alive_even_while_the_next_is_built(monkeypatch):
    # at 1024^2 a quadrant is 513^2 * 16 bytes (4.0 MiB) and a build's
    # temporaries are one 64-row block's, well under half a quadrant
    side, extent, lam = 1024, 12.0, 299792458.0 / 28e9
    quadrant = (side // 2 + 1) ** 2 * 16
    built = _count_builds(monkeypatch)
    tracemalloc.start()
    try:
        bits = propagation._transfer(side, extent, lam, 1.0).copy()
        # the held quadrant and the copy of its bits
        held = tracemalloc.get_traced_memory()[0]
        assert 2 * quadrant <= held < 2.5 * quadrant
        tracemalloc.reset_peak()
        for dz in (4.0, 5.0, 1.0):
            propagation._transfer(side, extent, lam, dz)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # each build frees the held quadrant first: an LRU cache of one entry
    # would peak at one more quadrant while it builds the next
    assert peak < held + 0.5 * quadrant
    assert current < held + 0.5 * quadrant
    assert [key[-1] for key in built] == [1.0, 4.0, 5.0, 1.0]
    # the returning key was built again, with the bits of its first build
    again = propagation._transfer(side, extent, lam, 1.0)
    assert len(built) == 4
    assert np.array_equal(_bits(again), _bits(bits))


def test_band_limit_frequency_formula():
    f = _bandlimited_field()
    dz = 2.0
    dfreq = 1.0 / f.extent
    expected = 1.0 / (math.sqrt((2 * dfreq * dz) ** 2 + 1.0) * f.wavelength)
    key = (f.extent, f.wavelength)
    assert _band_limit(*key, dz) == pytest.approx(expected, rel=1e-14)
    # limit shrinks with step length, approaches 1/lambda for tiny steps
    assert _band_limit(*key, 10.0) < _band_limit(*key, 1.0)
    assert _band_limit(*key, 1e-9) == pytest.approx(1.0 / f.wavelength,
                                                    rel=1e-9)


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


@pytest.mark.parametrize("margin", [0.05, 0.5])
def test_edge_absorber_matches_window_and_spares_input(margin):
    f = _bandlimited_field()
    before = f.samples.copy()
    g = propagate_to(f, 1.2, max_step=0.6, edge_margin=margin)
    assert np.array_equal(f.samples, before)   # input untouched
    assert g.samples is not f.samples
    # reference: the 2-D raised-cosine window applied after each step
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


def _ring_spectrum(side, order=2):
    lam, theta = 299792458.0 / 28e9, math.radians(5.0)
    ring = SourceRing(radius_r=0.149, num_elements_N=238, order_l=order)
    return source_spectrum(ring, side, 12.0, lam, theta)


@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("margin", [0.05, 0.5])
def test_fused_taper_has_the_bits_of_a_step_then_the_taper(margin, cores,
                                                            monkeypatch):
    # each row range is tapered right after its inverse; the oracle tapers
    # the finished grid, rows then columns; three cores cut the grid inside
    # the strips of a wide margin
    monkeypatch.setattr(propagation, "_FFT_WORKERS", cores)
    spectrum = _ring_spectrum(64)
    ref = launch(spectrum, 3.0)
    absorb_edges(ref.samples, margin)
    for _ in range(2):
        ref = propagate(ref, 3.0)
        absorb_edges(ref.samples, margin)
    got = propagate_to(spectrum, 9.0, max_step=3.0, edge_margin=margin)
    assert np.array_equal(_bits(got.samples), _bits(ref.samples))


@pytest.mark.parametrize("side", [64, 256, 1024])
def test_steps_transform_axis_0_then_axis_1(side):
    # numpy's fft2 and ifft2 run the last axis first and differ from a step
    # in the last bits; a step's passes run axis 0 first
    spectrum = _ring_spectrum(side)
    grid = np.zeros((side, side), dtype=complex)
    grid[np.ix_(spectrum.bins, spectrum.bins)] = spectrum.values
    source = spectrum_field(spectrum)
    assert np.array_equal(_bits(source.samples),
                          _bits(np.fft.ifft(np.fft.ifft(grid, axis=0),
                                            axis=1)))
    transfer = _unfold(_transfer_function(side, 12.0, source.wavelength,
                                          5.0), side)
    ref = np.fft.fft(np.fft.fft(source.samples, axis=0), axis=1)
    ref *= transfer
    ref = np.fft.ifft(np.fft.ifft(ref, axis=0), axis=1)
    assert np.array_equal(_bits(propagate(source, 5.0).samples), _bits(ref))


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
    # at 1024^2, and 11/11/11 or 171/171/171 rows of a quadrant's build) and
    # the launch's 195-column box (65 each at 1024^2)
    lam, theta = 299792458.0 / 28e9, math.radians(5.0)
    ring = SourceRing(radius_r=0.149, num_elements_N=238, order_l=2)
    built = _count_builds(monkeypatch)
    for side in (64, 1024):
        spectrum = source_spectrum(ring, side, 12.0, lam, theta)
        field = launch(spectrum, 10.0)
        mask = ObstructionMask("rectangle", 0.0, -0.5, (1.2, 1.6), 10.0)
        values, samples = spectrum.values.copy(), field.samples.copy()
        outputs = {}
        for cores in (1, 2, 3, 4):
            monkeypatch.setattr(propagation, "_FFT_WORKERS", cores)
            propagation._HELD.clear()
            built.clear()
            mine = [_own(field) for _ in range(3)]
            outputs[cores] = [
                propagate(field, 10.0).samples,
                launch(spectrum, 10.0).samples,
                propagate_to(spectrum, 30.0, edge_margin=0.05).samples,
                propagate_to(field, 14.0, max_step=2.0,
                             edge_margin=0.5).samples,
                apply_mask(field, mask).samples,
                propagate(mine[0], 10.0, in_place=True).samples,
                propagate_to(mine[1], 14.0, max_step=2.0, edge_margin=0.5,
                             in_place=True).samples,
                apply_mask(mine[2], mask, in_place=True).samples]
            # every count built its own quadrants, split over its cores
            assert [key[-1] for key in built] == [10.0, 2.0, 10.0, 2.0]
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


def _full_grid_transfer(side, extent, wavelength, dz):
    """The transfer function built over every bin of the grid."""
    fx = np.fft.fftfreq(side, d=extent / side)
    fx2 = fx * fx
    kz_sq = 1.0 / wavelength ** 2 - fx2[None, :] - fx2[:, None]
    in_band = np.abs(fx) <= _band_limit(extent, wavelength, dz)
    keep = (kz_sq > 0) & in_band[None, :] & in_band[:, None]
    phase = np.maximum(kz_sq, 0.0, out=kz_sq)
    np.sqrt(phase, out=phase)
    phase *= 2.0 * np.pi
    phase *= dz
    transfer = phase * 1j
    np.exp(transfer, out=transfer)
    transfer *= keep
    return transfer, keep


@pytest.mark.parametrize("side", [64, 65])
def test_quadrant_transfer_equals_the_full_grid_build(side):
    # 2 mm spacing and a 5 cm step: the band limit (74 /m) lies inside the
    # evanescent cut (93 /m), which lies inside the grid's band (250 /m)
    key = (side, 0.002 * side, 0.0107, 0.05)
    transfer = _unfold(_transfer_function(*key), side)
    keep = transfer != 0
    ref_transfer, ref_keep = _full_grid_transfer(*key)
    assert 100 < np.count_nonzero(keep) < side * side // 4
    assert np.array_equal(keep, ref_keep)
    assert np.array_equal(transfer, ref_transfer)


@pytest.mark.parametrize("side", [64, 65, 1024])
def test_transfer_cache_entry_holds_one_quadrant(side):
    key = (side, 0.002 * side, 0.0107, 0.05)
    transfer = _transfer_function(*key)
    assert transfer.shape == (side // 2 + 1, side // 2 + 1)
    assert transfer.nbytes <= (side // 2 + 1) ** 2 * 16


def _bits(samples):
    """The samples' bytes as integers: equal bits, signed zeros included."""
    return np.ascontiguousarray(samples).view(np.uint64)


def _own(field):
    """A copy of ``field`` in a padded grid of its own, as a step makes."""
    grid = propagation._grid(field.side)
    grid[...] = field.samples
    return field.with_samples(grid)


@pytest.mark.parametrize("side", [64, 1024])
def test_out_writes_the_given_grid_with_the_bits_of_a_copy(side):
    lam, theta = 299792458.0 / 28e9, math.radians(5.0)
    ring = SourceRing(radius_r=0.149, num_elements_N=238, order_l=2)
    spectrum = source_spectrum(ring, side, 12.0, lam, theta)
    # the taper leaves signed zeros on the border, where the second mask's
    # box reaches; zeros of the other signs go in the first mask's box,
    # where the product must be taken from the samples as given
    field = propagate_to(spectrum, 10.0, edge_margin=0.05)
    r, k = (int(np.argmin(np.abs(field.coords() - v))) for v in (-0.5, 0.0))
    field.samples[r, k - 2:k + 3].real = [0.0, -0.0, 0.0, -0.0, -0.0]
    field.samples[r, k - 2:k + 3].imag = [0.0, 0.0, -0.0, -0.0, -1.5]
    before = field.samples.copy()
    calls = [lambda f, **kw: propagate(f, 4.0, **kw),
             lambda f, **kw: propagate_to(f, 30.0, edge_margin=0.05, **kw)]
    for mask in (ObstructionMask("rectangle", 0.0, -0.5, (1.2, 1.6), 10.0),
                 ObstructionMask("disk", 5.8, -5.8, (1.0,), 10.0, 0.25),
                 ObstructionMask("disk", 9.0, 0.0, (1.0,), 10.0)):
        calls.append(lambda f, mask=mask, **kw: apply_mask(f, mask, **kw))
        t = mask.transmittance_map(field)
        assert np.array_equal(_bits(apply_mask(field, mask).samples),
                              _bits(np.where(t != 1, before * t, before)))
    for call in calls:
        ref = call(field).samples
        # in the field's own grid: no copy, the field's samples replaced
        mine = _own(field)
        grid = mine.samples
        stepped = call(mine, in_place=True)
        assert stepped.samples is grid
        assert np.array_equal(_bits(grid), _bits(ref))
        # without in_place the field is not written
        assert np.array_equal(_bits(field.samples), _bits(before))


def _signed_zeros(field):
    """A copy of ``field`` in a grid of its own, with zeros of all four sign
    pairs in its first row and in the row through the grid's centre."""
    mine = _own(field)
    for r in (0, field.side // 2):
        mine.samples[r, :4].real = [0.0, -0.0, 0.0, -0.0]
        mine.samples[r, :4].imag = [0.0, 0.0, -0.0, -0.0]
    return mine


@pytest.mark.parametrize("side", [64, 1024])
def test_a_mask_that_changes_no_sample_keeps_the_inputs_bits(side):
    # a transmittance of 1, and a shape off the grid, multiply nothing: the
    # signed zeros a product by 1 would clear stay as they are
    lam, theta = 299792458.0 / 28e9, math.radians(5.0)
    ring = SourceRing(radius_r=0.149, num_elements_N=238, order_l=2)
    field = _signed_zeros(propagate_to(
        source_spectrum(ring, side, 12.0, lam, theta), 10.0))
    before = field.samples.copy()
    for mask in (ObstructionMask("rectangle", -5.9, 0.0, (12.0, 13.0), 10.0,
                                 1.0),
                 ObstructionMask("disk", 0.0, 0.0, (30.0,), 10.0, 1.0),
                 ObstructionMask("disk", 9.0, 0.0, (1.0,), 10.0),
                 ObstructionMask("rectangle", 0.0, -8.0, (2.0, 1.0), 10.0)):
        masked = apply_mask(field, mask)
        assert masked.samples is not field.samples
        assert np.array_equal(_bits(masked.samples), _bits(before))
        mine = _own(field)
        assert apply_mask(mine, mask, in_place=True).samples \
            is mine.samples
        assert np.array_equal(_bits(mine.samples), _bits(before))
        assert np.array_equal(_bits(field.samples), _bits(before))


def test_an_in_place_mask_writes_only_the_samples_inside_its_shape():
    lam, theta = 299792458.0 / 28e9, math.radians(5.0)
    ring = SourceRing(radius_r=0.149, num_elements_N=238, order_l=2)
    field = _signed_zeros(propagate_to(
        source_spectrum(ring, 256, 12.0, lam, theta), 10.0, edge_margin=0.05))
    before = field.samples.copy()
    for mask in (ObstructionMask("rectangle", 0.0, -0.5, (1.2, 1.6), 10.0),
                 ObstructionMask("disk", -6.0, 0.0, (1.5,), 10.0, 0.25),
                 ObstructionMask("disk", 0.0, 0.0, (2.0,), 10.0, 0.5)):
        mine = _own(field)
        apply_mask(mine, mask, in_place=True)
        outside = mask.transmittance_map(field) == 1
        assert 0 < np.count_nonzero(~outside) < outside.size
        assert np.array_equal(_bits(mine.samples[outside]),
                              _bits(before[outside]))
        # inside, input times map: the box's zeros included
        assert np.array_equal(
            _bits(mine.samples[~outside]),
            _bits(before[~outside] * mask.transmittance))


def test_a_spectrum_launches_into_a_new_grid_whatever_in_place_says():
    # a spectrum has no grid to overwrite: in_place gives the same bits and
    # leaves its values as they were
    spectrum = _ring_spectrum(64)
    values = spectrum.values.copy()
    points = [[0.5, -0.25], [-2.0, 1.0]]
    for margin in (0.0, 0.05):
        assert np.array_equal(
            _bits(propagate_to(spectrum, 30.0, 10.0, margin,
                               in_place=True).samples),
            _bits(propagate_to(spectrum, 30.0, 10.0, margin).samples))
        assert np.array_equal(
            _bits(sample_at(spectrum, 30.0, points, 10.0, margin,
                            in_place=True)),
            _bits(sample_at(spectrum, 30.0, points, 10.0, margin)))
        assert np.array_equal(_bits(spectrum.values), _bits(values))


def test_threads_that_miss_a_key_together_build_it_once(monkeypatch):
    # more threads than cores, switching often, all asking for one cold key
    key = (64, 0.128, 0.0107, 0.5)
    built = _count_builds(monkeypatch)
    start = threading.Barrier(8)
    got = []

    def ask():
        start.wait()
        got.append(propagation._transfer(*key))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(got) == 8 and all(h is got[0] for h in got)
    assert built == [key]


@pytest.mark.parametrize("side", [64, 1024])
def test_launch_reads_the_held_quadrant_of_its_key(side, monkeypatch):
    # 12 m at 1024^2 keeps a 195-bin box of the 5-degree cone; at 64^2 the
    # cone covers every bin
    lam = 0.0107
    spectrum = source_spectrum(SourceRing(0.149, 238, 2), side, 12.0, lam,
                               math.radians(5.0))
    field = spectrum_field(spectrum)
    key = (side, 12.0, lam, 10.0)
    built = _count_builds(monkeypatch)
    propagate(field, 10.0)
    held = propagation._HELD[key]
    boxes = []
    real_inverse = propagation._inverse

    def recording(spectrum, values, *args):
        boxes.append(values.copy())
        return real_inverse(spectrum, values, *args)

    monkeypatch.setattr(propagation, "_inverse", recording)
    launch(spectrum, 10.0)
    launch(spectrum, 10.0)
    # after a step of the same key the launches build nothing
    assert built == [key]
    assert list(propagation._HELD) == [key]
    assert propagation._HELD[key] is held
    # the box is gathered from the quadrant, with the bits of a build over
    # the box alone, and multiplies the values in that order
    fold = np.minimum(spectrum.bins, side - spectrum.bins)
    box = _transfer_function(*key)[np.ix_(fold, fold)]
    f = np.fft.fftfreq(side, d=12.0 / side)[fold]
    alone = np.empty_like(box)
    _transfer_block(f, f, 12.0, lam, 10.0, alone)
    assert np.array_equal(_bits(box), _bits(alone))
    for values in boxes:
        assert np.array_equal(_bits(values),
                              _bits(np.multiply(box, spectrum.values)))
    # a launch of a new length replaces the held quadrant
    launch(spectrum, 3.0)
    assert built == [key, (*key[:3], 3.0)]
    assert list(propagation._HELD) == [(*key[:3], 3.0)]


@pytest.mark.parametrize("dz", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_steps_are_rejected(dz, monkeypatch):
    f = _bandlimited_field()
    spectrum = source_spectrum(SourceRing(0.149, 238, 2), 64, 12.0, 0.0107,
                               math.radians(5.0))
    built = _count_builds(monkeypatch)
    with pytest.raises(GeometryError):
        propagate(f, dz)
    with pytest.raises(GeometryError):
        launch(spectrum, dz)
    # no transfer function was built for the bad step
    assert built == [] and not propagation._HELD


@pytest.mark.parametrize("kwargs", [
    {"max_step": -10.0},     # was one 40 m step
    {"max_step": 0.0},       # was a ZeroDivisionError
    {"max_step": float("nan")},
    {"max_step": float("inf")},
    {"edge_margin": -0.05},
    {"edge_margin": float("nan")},   # was no taper
    {"edge_margin": 1.5},            # was a ValueError from the taper
    {"z_target": float("nan")},
    {"z_target": float("inf")},
    {"edge_margin": 0.6},            # strips that overlapped: a broken window
    {"edge_margin": 1.0},
])
def test_propagate_to_rejects_bad_steps_and_margins(kwargs):
    f = _bandlimited_field()
    before = f.samples.copy()
    kwargs = {"z_target": 40.0, **kwargs}
    with pytest.raises(GeometryError):
        propagate_to(f, **kwargs)
    assert np.array_equal(f.samples, before)


@pytest.mark.parametrize("side", [64, 1024])
def test_padded_steps_match_a_contiguous_scipy_reference(side):
    # the plain transforms on contiguous arrays, as a step ran before the
    # padded grids and the pruned launch; the mask against its map, applied
    # only where the map is not 1
    lam, theta = 299792458.0 / 28e9, math.radians(5.0)
    ring = SourceRing(radius_r=0.149, num_elements_N=238, order_l=2)
    spectrum = source_spectrum(ring, side, 12.0, lam, theta)
    values = spectrum.values.copy()
    launched = launch(spectrum, 10.0)
    transfer = _unfold(_transfer_function(side, 12.0, lam, 10.0), side)
    grid = np.zeros((side, side), dtype=complex)
    box = np.ix_(spectrum.bins, spectrum.bins)
    grid[box] = np.multiply(transfer[box], spectrum.values)
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
        t = mask.transmittance_map(tapered)
        assert np.array_equal(_bits(masked.samples),
                              _bits(np.where(t != 1, before * t, before)))
        assert np.array_equal(_bits(tapered.samples), _bits(before))

    before = masked.samples.copy()
    stepped = propagate(masked, 4.0)
    transfer = _unfold(_transfer_function(side, 12.0, lam, 4.0), side)
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
    # zeroed, padding included: a launch writes only its box of bins
    assert not np.any(grid.base)


@pytest.mark.parametrize("side", [64, 1024])
def test_a_step_or_mask_without_out_copies_into_a_padded_grid(side):
    # not in place: the copy goes to a grid with _grid's row stride, which
    # holds no memory of the field's, whether the field's grid is padded or
    # not
    field = _bandlimited_field(side)
    mask = ObstructionMask("disk", 0.1, 0.0, (0.2,), 0.0)
    for f in (field, _own(field)):
        for made in (propagate(f, 0.5), apply_mask(f, mask)):
            grid = made.samples
            assert grid.strides[0] % 64 == 0
            assert grid.strides[0] // 64 % 2 == 1
            assert not np.shares_memory(grid, f.samples)


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


@pytest.mark.parametrize("shape, cx, cy, size, z", [
    ("disk", 0.0, 0.0, (1.0,), math.nan),
    ("disk", 0.0, 0.0, (1.0,), math.inf),
    ("disk", math.nan, 0.0, (1.0,), 5.0),
    ("disk", 0.0, -math.inf, (1.0,), 5.0),
    ("disk", 0.0, 0.0, (math.nan,), 5.0),
    ("disk", 0.0, 0.0, (math.inf,), 5.0),
    ("rectangle", 0.0, 0.0, (1.0, math.nan), 5.0),
    ("rectangle", 0.0, 0.0, (math.inf, 1.0), 5.0)])
def test_non_finite_mask_geometry_is_rejected(shape, cx, cy, size, z):
    # a NaN plane would pass apply_mask's plane check (|nan - z| > 1e-9 is
    # False), and a NaN size or centre would block nothing
    with pytest.raises(GeometryError):
        ObstructionMask(shape, cx, cy, size, z)


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
    f = spectrum_field(source_spectrum(ring, 1024, 12.0, lam,
                                       math.radians(5.0)))
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
    f = spectrum_field(source_spectrum(ring, 1024, 12.0, lam,
                                       math.radians(5.0)))
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


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("side", [64, 128])
def test_sample_at_has_the_bits_of_the_finished_field(side, cores,
                                                      monkeypatch):
    # the last step finishes only the rows the points read; the points sit
    # in the top and bottom taper strips, on the grid's middle rows, between
    # rows and on one row; the walks end in a launch, a step into a new
    # grid and a step in the field's own grid
    monkeypatch.setattr(propagation, "_FFT_WORKERS", cores)
    spectrum = _ring_spectrum(side)
    step = 12.0 / side
    edge = (side // 2 - 1) * step
    rows = {"top": [[-0.3, -6.0 + 0.4 * step], [0.2, -6.0 + 0.9 * step]],
            "bottom": [[0.0, edge], [-5.9, edge - 0.5 * step]],
            "middle": [[-0.21, 0.05], [0.0, 0.05], [0.21, 0.05]],
            "one row": [[0.5 * step, 2 * step]]}
    field = propagate_to(spectrum, 10.0, edge_margin=0.05)
    samples = field.samples.copy()
    for points in rows.values():
        for margin in (0.0, 0.05):
            for source, z in ((spectrum, 8.0), (field, 30.0)):
                expected = sample_points(
                    propagate_to(source, z, 10.0, margin), points)
                got = sample_at(source, z, points, 10.0, margin)
                assert np.array_equal(_bits(got), _bits(expected))
            assert np.array_equal(field.samples, samples)   # never written
            own = _own(field)
            got = sample_at(own, 30.0, points, 10.0, margin,
                            in_place=True)
            assert np.array_equal(_bits(got), _bits(expected))   # z = 30 m
    with pytest.raises(OutOfExtentError):
        sample_at(field, 30.0, [[0.0, 6.0]])
