"""Azimuthal mode spectra, field similarity, healing curves and the walk
of the clear and obstructed beams."""

import math
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from oamlink import (ObstructionMask, ScalarField, SourceRing, apply_mask,
                     field_similarity, generate_pilot, propagation,
                     run_scenario, scenario, scenario_from_config,
                     source_spectrum, spectrum_field, validate_config)
from oamlink.analysis import HealingCurve, azimuthal_spectrum
from oamlink.errors import ConfigError, GeometryError, NyquistError
from oamlink.propagation import propagate_to, sample_points, _GRID_PAD
from oamlink.scenario import obstruction_from
from tests.test_propagation import _count_builds


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
    f = spectrum_field(source_spectrum(ring, 512, 12.0, lam,
                                       math.radians(5.0)))
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
    (0.2, 0.5),        # a box of 65 rows: a block and one row
    (0.1, 0.45),       # a box of 57 rows: less than one block
    (1.6, 1.99),       # a box of 255 rows: three blocks and 63 rows
])
def test_similarity_matches_full_grid_reference(annulus):
    # the box of the first five spans 193, 129, 256, 256 and 129 rows:
    # field_similarity sums 64 rows at a time, so only the order of the
    # sums differs from the reference's, by a few units in the last place
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
    for u, v in ((b, a), (a, b)):
        assert field_similarity(u, v, annulus) == pytest.approx(
            _full_grid_similarity(u, v, annulus), rel=1e-13, abs=0)


def test_similarity_annulus_off_the_grid_has_no_power():
    a = _ring_field(side=256, extent=4.0, ring=1.0, width=0.3)
    with pytest.raises(GeometryError):
        field_similarity(a, a, (3.0, 3.5))      # past the grid corner


def _run_order(cfg, planes, l=2):
    """``scenario._run_order`` of order ``l`` of ``cfg`` through ``planes``,
    as ``run_experiment`` calls it; returns the order's report entry."""
    rx = cfg["rx"]
    pilot = generate_pilot(rx["pilot_seed"], rx["pilot_symbols"])
    return scenario._run_order(cfg, l, obstruction_from(cfg), planes, pilot,
                               None)[0]


def _healing_curve(mask, z_samples):
    """The healing curve of the order-2 ring (radius 0.149 m) on a 256^2
    grid over 3 m, past the ``mask`` config section, at ``z_samples``."""
    cfg = validate_config({"grid": {"side": 256, "extent_m": 3.0},
                           "link": {"wavelength_override_m": 0.010707},
                           "obstruction": mask})
    return _run_order(cfg, z_samples)["healing_curve"]


def test_healing_curve_control_and_validation():
    # control run without a mask: similarity is identically 1
    curve = _healing_curve({"enabled": False}, [1.0, 2.0])
    assert curve["z_m"] == [1.0, 2.0]
    assert all(s == pytest.approx(1.0, abs=1e-12) for s in curve["similarity"])
    assert all(0.0 <= p <= 1.0 for p in curve["mode_purity"])

    mask = {"center_y_m": -0.1, "width_m": 0.3, "height_m": 0.2, "z_m": 0.5}
    # the run's planes are the config's: they must increase and lie past
    # the mask
    for planes in ([2.0, 1.5], [0.4, 1.0]):             # not increasing,
        with pytest.raises(ConfigError) as err:         # before the mask
            validate_config({"obstruction": mask,
                             "healing": {"z_samples_m": planes}})
        assert err.value.field == "healing.z_samples_m"
    curve = _healing_curve(mask, [1.0, 2.0])
    assert curve["z_m"] == [1.0, 2.0]
    assert all(0.0 <= s <= 1.0 + 1e-12 for s in curve["similarity"])


def _walk(monkeypatch, cores, cfg, planes, threads):
    """``_run_order`` of order 2 of ``cfg`` through ``planes`` with the core
    count set to ``cores``.  Returns copies of the (z, clear, obstructed)
    fields of each plane as the healing curve reads them, and the source
    spectrum the run launched with a copy of its values; ``threads``
    collects the name of the thread of every ``propagate`` call."""
    real, real_add = propagation.propagate, HealingCurve.add
    real_source = scenario.source_spectrum
    copies, sources = [], []

    def recording(field, dz, *args, **kwargs):
        threads.append(threading.current_thread().name)
        return real(field, dz, *args, **kwargs)

    def add(curve, z, clear, obst, *args):
        copies.append((z, clear.samples.copy(),
                       None if obst is None else obst.samples.copy()))
        real_add(curve, z, clear, obst, *args)

    def source(*args):
        spectrum = real_source(*args)
        sources.append((spectrum, spectrum.values.copy()))
        return spectrum

    monkeypatch.setattr(propagation, "_FFT_WORKERS", cores)
    monkeypatch.setattr(propagation, "propagate", recording)
    monkeypatch.setattr(HealingCurve, "add", add)
    monkeypatch.setattr(scenario, "source_spectrum", source)
    _run_order(cfg, planes)
    return copies, sources


def _bits(samples):
    return np.ascontiguousarray(samples).view(np.uint64)


def _walk_case(side=256):
    """The default config on a ``side``^2 grid over 6 m, and three of the
    planes past its mask."""
    return (validate_config({"grid": {"side": side, "extent_m": 6.0}}),
            [11.0, 15.0, 30.0])


def test_concurrent_walk_matches_the_sequential_one(monkeypatch):
    cfg, planes = _walk_case()
    mask = obstruction_from(cfg)
    # the reference: public steps, each into a grid of its own
    clear = propagate_to(scenario._source_spectrum(cfg, 2), mask.z_position,
                         10.0, 0.05)
    obst = apply_mask(clear, mask)
    chain = []
    for z in planes:
        clear = propagate_to(clear, z, 10.0, 0.05)
        obst = propagate_to(obst, z, 10.0, 0.05)
        chain.append((z, clear.samples, obst.samples))
    for cores in (1, 2, 4):
        threads = []
        copies, [(source, values)] = _walk(monkeypatch, cores, cfg, planes,
                                           threads)
        assert np.array_equal(source.values, values)   # never written
        # the beams step one after the other: every step starts on the
        # calling thread, whatever the core count, and the run starts no
        # thread of its own
        assert threads and set(threads) == {threading.current_thread().name}
        assert not any(t.name.startswith("oamlink-beam")
                       for t in threading.enumerate())
        assert [z for z, _, _ in copies] == planes   # one entry per plane
        for (z, c, o), (z_ref, c_ref, o_ref) in zip(copies, chain):
            assert z == z_ref
            assert np.array_equal(_bits(c), _bits(c_ref))
            assert np.array_equal(_bits(o), _bits(o_ref))


def _peak_grids(run, side, cold=False):
    """The peak memory a second call of ``run`` allocates, in grids of
    ``side * (side + _GRID_PAD)`` complex128 samples.  The first call fills
    the held transfer-function quadrant and starts the helper threads;
    ``cold`` drops the quadrant before the second call, so every build
    counts."""
    run()
    if cold:
        propagation._HELD.clear()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (side * (side + _GRID_PAD) * 16)


def _default_walk(side, orders=(2,)):
    """A call that runs each of ``orders`` of the default config on a
    ``side``^2 grid, one order after the other, as ``run_experiment`` does:
    the launch to the mask at 10 m, then hops of 1, 4 and 5 m, with the
    healing curve at every plane."""
    cfg = validate_config({"grid": {"side": side}})
    planes = cfg["healing"]["z_samples_m"]   # 11, 15, 20, ..., 50 m

    def walk():
        for l in orders:
            _run_order(cfg, planes, l)   # its beams are gone when it returns

    return walk


def test_runs_hold_one_grid_per_beam(monkeypatch, tmp_path):
    # each beam steps in the grid the run made for it: up to the last plane
    # the run holds the clear and the obstructed beam's grids, not a copy of
    # each per step.  The peak is read there, before the receive chain,
    # whose streams take as much as two 256^2 grids
    cfg, planes = _walk_case()
    walked, real_add = [], HealingCurve.add

    def add(curve, z, *args):
        real_add(curve, z, *args)
        if z == planes[-1]:
            walked.append(tracemalloc.get_traced_memory()[1])

    monkeypatch.setattr(HealingCurve, "add", add)
    _peak_grids(lambda: _run_order(cfg, planes), 256)
    assert walked[-1] / (256 * (256 + _GRID_PAD) * 16) < 3
    # from cold, the default run adds one transfer-function quadrant (0.25
    # grids) and a build's temporaries: each hop length, the launch's
    # included, frees the quadrant of the one before
    assert _peak_grids(_default_walk(1024), 1024, cold=True) < 2.4
    # both orders, one after the other: the similarity's temporaries are a
    # block of rows, not the annulus
    assert _peak_grids(_default_walk(1024, (2, 4)), 1024, cold=True) < 2.5
    # the obstructed scenario launches, masks and steps one grid, and
    # writes its snapshots from that grid as the beam passes each plane
    s = scenario_from_config(validate_config({}), 2, obstructed=True)
    assert _peak_grids(lambda: run_scenario(s), 1024) < 1.2
    assert _peak_grids(lambda: run_scenario(s, dump_dir=tmp_path), 1024) \
        < 1.2


def test_beams_that_miss_a_key_together_build_it_once(monkeypatch):
    # the launch builds the 10 m quadrant; both beams reach each new hop
    # length, the clear beam's step builds its quadrant and the obstructed
    # beam's step reads it
    monkeypatch.setattr(propagation, "_FFT_WORKERS", 2)
    walk = _default_walk(256)
    built = _count_builds(monkeypatch)
    walk()
    assert [key[-1] for key in built] == [10.0, 1.0, 4.0, 5.0]


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
        fft=recording(np.fft.fft), ifft=recording(np.fft.ifft)))
    return names


def test_one_beam_stays_on_the_calling_thread(monkeypatch, tmp_path):
    # without the mask one beam runs: a launch to the first plane, whose
    # box is the whole 64^2 grid over 12 m (two passes), then a step to
    # each later plane (four passes), each pass in two parts, one on the
    # calling thread and one on the helper pool
    cfg = validate_config({"grid": {"side": 64},
                           "obstruction": {"enabled": False}})
    planes = [1.0, 2.0, 3.0]
    threads = []
    parts = _record_fft_threads(monkeypatch)
    copies, _ = _walk(monkeypatch, 2, cfg, planes, threads)
    assert [z for z, _, obst in copies if obst is None] == planes
    assert threads == [threading.current_thread().name] * (len(planes) - 1)
    assert len(parts) == 2 * 2 + 2 * 4 * (len(planes) - 1)
    assert parts.count(threading.current_thread().name) == len(parts) // 2
    assert sum(name.startswith("oamlink-part") for name in parts) \
        == len(parts) // 2
    # an obstructed scenario carries its one beam past the mask on the
    # calling thread too (two cores and the recording propagate still set):
    # a 10 m launch to the mask (two passes), then four 10 m steps to the
    # receiver (four passes), each pass split between this thread and the
    # pool, but for the last step's inverse along the rows: it finishes the
    # receiver's rows alone, on this thread
    threads.clear()
    parts.clear()
    cfg = validate_config({"grid": {"side": 64}})
    run_scenario(scenario_from_config(cfg, 2, obstructed=True))
    assert len(threads) == 4
    assert not any(name.startswith("oamlink-beam") for name in threads)
    assert len(parts) == 2 * 2 + 2 * 4 * 4 - 1
    assert parts.count(threading.current_thread().name) == 2 + 4 * 4
    assert sum(name.startswith("oamlink-part") for name in parts) \
        == 2 + 4 * 4 - 1
    # a run that writes its planes finishes every row of the last step
    parts.clear()
    run_scenario(scenario_from_config(cfg, 2, obstructed=True),
                 dump_dir=tmp_path)
    assert parts.count(threading.current_thread().name) \
        == sum(name.startswith("oamlink-part") for name in parts)
