"""Azimuthal mode spectra, field similarity, healing curves and the walk
of the clear and obstructed beams."""

import math
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import fft as scipy_fft

from oamlink import (ObstructionMask, ScalarField, SourceRing,
                     angular_bandlimit, apply_mask, field_similarity,
                     propagation, run_scenario, scenario_from_config,
                     source_spectrum, synthesize_source_field,
                     validate_config)
from oamlink.analysis import HealingCurve, azimuthal_spectrum
from oamlink.errors import GeometryError, NyquistError
from oamlink.propagation import advance_beams, propagate_to, sample_points


def _ring_field(side=2048, extent=4.0, ring=1.9, width=0.1, modes=((2, 1.0),),
                lam=0.0107):
    """Smooth annular field: Gaussian radial envelope times a sum of
    azimuthal harmonics.  The 2048-point grid keeps the bilinear ring
    sampling bias below the tolerances asserted here."""
    c = (np.arange(side) - side // 2) * (extent / side)
    X, Y = np.meshgrid(c, c)
    rho = np.sqrt(X ** 2 + Y ** 2)
    phi = np.arctan2(Y, X)
    g = np.exp(-((rho - ring) / width) ** 2)
    u = np.zeros_like(g, dtype=complex)
    for m, amp in modes:
        u += amp * np.exp(1j * m * phi)
    return ScalarField(g * u, extent, 0.0, lam)


def test_equal_amplitude_modes_split_evenly():
    f = _ring_field(modes=((2, 1.0), (4, 1.0)))
    spec = azimuthal_spectrum(f, 1.9, max_mode=8)
    assert spec.powers[2] == pytest.approx(0.5, abs=1e-6)
    assert spec.powers[4] == pytest.approx(0.5, abs=1e-6)
    assert spec.powers[3] < 1e-12
    assert spec.purity(2) == spec.powers[2]
    assert spec.purity(7) < 1e-12


def test_ring_parseval():
    f = _ring_field(modes=((3, 1.0),))
    spec = azimuthal_spectrum(f, 1.9, max_mode=8)
    assert sum(spec.powers.values()) == pytest.approx(1.0, abs=1e-9)


def test_unbalanced_amplitudes():
    f = _ring_field(modes=((1, 1.0), (5, 2.0)))
    spec = azimuthal_spectrum(f, 1.9, max_mode=8)
    assert spec.powers[5] / spec.powers[1] == pytest.approx(4.0, rel=1e-5)


def test_negative_modes_resolved():
    f = _ring_field(modes=((-3, 1.0),))
    spec = azimuthal_spectrum(f, 1.9, max_mode=8)
    assert spec.powers[-3] == pytest.approx(1.0, abs=1e-6)
    assert spec.powers[3] < 1e-12


def test_spectrum_validation():
    f = _ring_field(side=128, extent=4.0, ring=1.0, width=0.3)
    with pytest.raises(GeometryError):
        azimuthal_spectrum(f, 3.0, max_mode=8)        # ring outside grid
    with pytest.raises(GeometryError):
        azimuthal_spectrum(f, -1.0, max_mode=8)
    with pytest.raises(NyquistError):
        azimuthal_spectrum(f, 1.0, max_mode=8, num_samples=16)
    zero = f.with_samples(np.zeros_like(f.samples))
    with pytest.raises(GeometryError):
        azimuthal_spectrum(zero, 1.0, max_mode=8)


def test_obstructed_beam_spectrum_matches_overlap_oracle():
    # order-2 ring source, lower half blocked at the source plane, propagated
    # to 50 m; the FFT ring spectrum must match a direct overlap-integral
    # quadrature (independent summation at a different sample count)
    lam = 0.010707
    ring = SourceRing(radius_r=0.149, num_elements_N=238, order_l=2)
    f = synthesize_source_field(ring, 512, 12.0, lam)
    f = angular_bandlimit(f, math.radians(5.0))
    half = ObstructionMask("rectangle", 0.0, -3.0, (12.0, 6.0), 0.0)
    f = apply_mask(f, half)
    g = propagate_to(f, 50.0, max_step=10.0, edge_margin=0.05)

    r_ring = 1.75
    ns = 4096
    spec = azimuthal_spectrum(g, r_ring, max_mode=8, num_samples=ns)

    phi = 2.0 * np.pi * np.arange(ns) / ns
    pts = np.column_stack([r_ring * np.cos(phi), r_ring * np.sin(phi)])
    trace = sample_points(g, pts)
    total = float(np.mean(np.abs(trace) ** 2))
    for m in range(-8, 9):
        coeff = np.sum(trace * np.exp(-1j * m * phi)) / ns
        oracle = float(np.abs(coeff) ** 2 / total)
        assert spec.powers[m] == pytest.approx(oracle, abs=1e-6)
    # the default (coarser) ring sampling is already converged to ~1e-5
    coarse = azimuthal_spectrum(g, r_ring, max_mode=8)
    for m in range(-8, 9):
        assert coarse.powers[m] == pytest.approx(spec.powers[m], abs=1e-4)


def test_similarity_identical_and_invariances():
    f = _ring_field(side=256, extent=4.0, ring=1.0, width=0.3)
    assert field_similarity(f, f, (0.5, 1.5)) == pytest.approx(1.0, abs=1e-12)
    # global complex scale on either argument changes nothing
    g = f.with_samples(f.samples * (0.3 - 0.8j))
    assert field_similarity(g, f, (0.5, 1.5)) == pytest.approx(1.0, abs=1e-12)


def test_similarity_orthogonal_rings():
    a = _ring_field(side=256, extent=4.0, ring=1.0, width=0.3, modes=((2, 1.0),))
    b = _ring_field(side=256, extent=4.0, ring=1.0, width=0.3, modes=((3, 1.0),))
    assert field_similarity(a, b, (0.4, 1.6)) == pytest.approx(0.0, abs=1e-9)


def test_similarity_bounds_and_errors():
    a = _ring_field(side=256, extent=4.0, ring=1.0, width=0.3)
    rng = np.random.default_rng(0)
    noisy = a.with_samples(a.samples + 0.5 * rng.standard_normal(a.samples.shape))
    s = field_similarity(noisy, a, (0.5, 1.5))
    assert 0.0 < s < 1.0
    with pytest.raises(GeometryError):
        field_similarity(a, a, (1.5, 0.5))
    with pytest.raises(GeometryError):
        field_similarity(a, a, (-0.1, 1.0))
    zero = a.with_samples(np.zeros_like(a.samples))
    with pytest.raises(GeometryError):
        field_similarity(zero, a, (0.5, 1.5))
    from oamlink.errors import PlaneMismatchError
    b = ScalarField(a.samples, a.extent, 7.0, a.wavelength)
    with pytest.raises(PlaneMismatchError):
        field_similarity(b, a, (0.5, 1.5))


def _full_grid_similarity(obstructed, clear, annulus):
    """Reference: the annulus selected on the full meshgrid, overlap summed
    by numpy."""
    r_in, r_out = annulus
    X, Y = obstructed.meshgrid()
    rho2 = X ** 2 + Y ** 2
    region = (rho2 >= r_in ** 2) & (rho2 <= r_out ** 2)
    u = obstructed.samples[region]
    v = clear.samples[region]
    nu = float(np.sum(np.abs(u) ** 2))
    nv = float(np.sum(np.abs(v) ** 2))
    return float(np.abs(np.sum(u.conj() * v)) ** 2 / (nu * nv))


@pytest.mark.parametrize("annulus", [
    (0.5, 1.5),        # inside the grid
    (0.5, 1.0),        # r_out exactly on a grid coordinate (64 * 4/256)
    (1.0, 2.5),        # r_out beyond the grid edge
    (0.0, 3.5),        # r_out beyond the grid corner: the whole grid
    (0.99, 1.01),      # thin annulus
])
def test_similarity_matches_full_grid_reference(annulus):
    side, extent = 256, 4.0
    c = (np.arange(side) - side // 2) * (extent / side)
    X, Y = np.meshgrid(c, c)
    rng = np.random.default_rng(5)
    # off-centre beam against a perturbed copy of it
    beam = np.exp(-((X - 0.4) ** 2 + (Y + 0.3) ** 2) / 0.8) \
        * np.exp(1j * np.arctan2(Y + 0.3, X - 0.4))
    noise = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    a = ScalarField(beam, extent, 0.0, 0.0107)
    b = a.with_samples(beam + 0.3 * noise)
    assert field_similarity(b, a, annulus) == _full_grid_similarity(b, a, annulus)
    assert field_similarity(a, b, annulus) == _full_grid_similarity(a, b, annulus)


def test_similarity_annulus_off_the_grid_has_no_power():
    a = _ring_field(side=256, extent=4.0, ring=1.0, width=0.3)
    with pytest.raises(GeometryError):
        field_similarity(a, a, (3.0, 3.5))      # past the grid corner


def _healing_curve(source, mask, z_samples):
    """The healing curve of ``source`` past ``mask`` at ``z_samples``, as
    ``scenario`` builds it for an order-2 ring of radius 0.149 m."""
    curve = HealingCurve(z_values=[], similarity=[], mode_purity=[])
    for z, clear, obst in advance_beams(source, mask, z_samples):
        curve.add(z, clear, obst, 2, 0.149)
    return curve


def test_healing_curve_control_and_validation():
    lam = 0.010707
    ring = SourceRing(radius_r=0.149, num_elements_N=238, order_l=2)
    src = synthesize_source_field(ring, 256, 3.0, lam)
    src = angular_bandlimit(src, math.radians(5.0))
    # control run without a mask: similarity is identically 1
    curve = _healing_curve(src, None, [1.0, 2.0])
    assert isinstance(curve, HealingCurve)
    assert curve.z_values == [1.0, 2.0]
    assert all(s == pytest.approx(1.0, abs=1e-12) for s in curve.similarity)
    assert all(0.0 <= p <= 1.0 for p in curve.mode_purity)

    mask = ObstructionMask("rectangle", 0.0, -0.1, (0.3, 0.2), 0.5)
    with pytest.raises(GeometryError):
        _healing_curve(src, mask, [2.0, 1.5])      # not increasing
    with pytest.raises(GeometryError):
        _healing_curve(src, mask, [0.4, 1.0])      # before the mask
    curve = _healing_curve(src, mask, [1.0, 2.0])
    assert curve.z_values == [1.0, 2.0]
    assert all(0.0 <= s <= 1.0 + 1e-12 for s in curve.similarity)


def _walk(monkeypatch, cores, source, mask, planes, threads):
    """Every plane of ``advance_beams`` with the core count set to
    ``cores``, each field copied as it is yielded; ``threads`` collects the
    name of the thread of every ``propagate`` call."""
    real = propagation.propagate

    def recording(field, dz, *args, **kwargs):
        threads.append(threading.current_thread().name)
        return real(field, dz, *args, **kwargs)

    monkeypatch.setattr(propagation, "_FFT_WORKERS", cores)
    monkeypatch.setattr(propagation, "propagate", recording)
    yielded, copies = [], []
    for z, clear, obst in advance_beams(source, mask, planes):
        yielded.append((z, clear, obst))
        copies.append((z, clear.samples.copy(),
                       None if obst is None else obst.samples.copy()))
    return yielded, copies


def test_concurrent_walk_matches_the_sequential_one(monkeypatch):
    lam = 299792458.0 / 28e9
    ring = SourceRing(radius_r=0.149, num_elements_N=238, order_l=2)
    source = source_spectrum(ring, 256, 6.0, lam, math.radians(5.0))
    values = source.values.copy()
    mask = ObstructionMask("rectangle", 0.0, -0.5, (1.2, 1.6), 10.0)
    planes = [11.0, 15.0, 30.0]
    walks = {}
    for cores in (1, 2, 4):
        threads = []
        yielded, copies = _walk(monkeypatch, cores, source, mask, planes,
                                threads)
        # the walk wrote neither its source nor a field it had yielded
        assert np.array_equal(source.values, values)
        for (z, clear, obst), (_, c, o) in zip(yielded, copies):
            assert np.array_equal(clear.samples, c)
            assert np.array_equal(obst.samples, o)
        on_pool = sum(name.startswith("oamlink-beam") for name in threads)
        assert on_pool == (0 if cores == 1 else len(threads) // 2)
        assert [z for z, _, _ in copies] == planes   # one yield per plane
        walks[cores] = copies
    for cores in (2, 4):
        for (z1, c1, o1), (z2, c2, o2) in zip(walks[1], walks[cores]):
            assert z1 == z2
            assert np.array_equal(c1, c2)
            assert np.array_equal(o1, o2)


def _record_fft_threads(monkeypatch):
    """The names of the threads that run ``propagation``'s FFTs, as they
    run."""
    names = []

    def recording(transform):
        def run(*args, **kwargs):
            names.append(threading.current_thread().name)
            return transform(*args, **kwargs)
        return run

    monkeypatch.setattr(propagation, "fft", SimpleNamespace(
        fft=recording(scipy_fft.fft), ifft=recording(scipy_fft.ifft)))
    return names


def test_one_beam_stays_on_the_calling_thread(monkeypatch):
    f = _ring_field(side=128, extent=2.0, ring=0.5)
    threads = []
    parts = _record_fft_threads(monkeypatch)
    yielded, _ = _walk(monkeypatch, 2, f, None, [1.0, 2.0], threads)
    assert len(threads) == len(yielded)
    assert not any(name.startswith("oamlink-beam") for name in threads)
    # each step's FFT passes run in two parts, one on the calling thread and
    # one on the helper pool
    assert len(parts) == 2 * 4 * len(yielded)
    assert parts.count(threading.current_thread().name) == len(parts) // 2
    assert sum(name.startswith("oamlink-part") for name in parts) \
        == len(parts) // 2
    # an obstructed scenario carries its one beam past the mask on the
    # calling thread too (two cores and the recording propagate still set):
    # a 10 m launch to the mask, then four 10 m steps to the receiver, each
    # split between this thread and the pool
    threads.clear()
    parts.clear()
    cfg = validate_config({"grid": {"side": 64}})
    run_scenario(scenario_from_config(cfg, 2, obstructed=True))
    assert len(threads) == 4
    assert not any(name.startswith("oamlink-beam") for name in threads)
    assert parts.count(threading.current_thread().name) == len(parts) // 2
    assert sum(name.startswith("oamlink-part") for name in parts) \
        == len(parts) // 2
