"""Wave-vector identities of the bent-waveguide healing model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oamlink import (WaveVectorTriple, beam_radius_at, guide_wavelength_coax,
                     wavevectors_at)
from oamlink.bessel import first_max_abscissa
from oamlink.errors import CutoffError, GeometryError


def test_coax_guide_wavelength_and_cutoff_boundary():
    lam = 0.011
    r = 0.149
    expected = lam / math.sqrt(1.0 - (2 * lam / (2 * math.pi * r)) ** 2)
    assert guide_wavelength_coax(r, lam, 2) == pytest.approx(expected, rel=1e-14)
    # cutoff raised exactly when |l| * lambda >= 2 pi r
    r_cut = 3 * lam / (2 * math.pi)
    with pytest.raises(CutoffError):
        guide_wavelength_coax(r_cut, lam, 3)
    with pytest.raises(CutoffError):
        guide_wavelength_coax(r_cut * 0.999, lam, 3)
    assert guide_wavelength_coax(r_cut * 1.001, lam, 3) > lam


def test_coax_free_space_limit():
    lam = 0.011
    assert guide_wavelength_coax(1e6 * lam, lam, 3) == pytest.approx(
        lam, rel=1e-9)


def test_triple_invariant_enforced():
    WaveVectorTriple(k=5.0, k_z=4.0, k_T=3.0)
    with pytest.raises(GeometryError):
        WaveVectorTriple(k=5.0, k_z=4.0, k_T=3.1)
    with pytest.raises(GeometryError):
        WaveVectorTriple(k=5.0, k_z=-4.0, k_T=3.0)


@settings(max_examples=300, deadline=None)
@given(r=st.floats(0.05, 10.0), lam=st.floats(1e-3, 0.1),
       l=st.integers(-8, 8))
def test_identities_random_draws(r, lam, l):
    ratio = abs(l) * lam / (2.0 * math.pi * r)
    if ratio >= 1.0:
        with pytest.raises(CutoffError):
            guide_wavelength_coax(r, lam, l)
        return
    lam_z = guide_wavelength_coax(r, lam, l)
    triple = wavevectors_at(r, lam_z, l)
    # k^2 = k_z^2 + k_T^2 (enforced by the dataclass, re-checked here)
    assert abs(triple.k ** 2 - triple.k_z ** 2 - triple.k_T ** 2) \
        <= 1e-12 * triple.k ** 2
    assert triple.k_T == pytest.approx(abs(l) / r, rel=1e-14)
    assert triple.k_z == pytest.approx(2.0 * math.pi / lam_z, rel=1e-14)
    # round trip: the assembled k matches the free-space wavenumber
    assert triple.k == pytest.approx(2.0 * math.pi / lam, rel=1e-9)


def test_beam_radius_small_argument_and_exact():
    L, l, r, k = 50.0, 2, 0.149, 2.0 * math.pi / 0.010707
    approx = beam_radius_at(L, l, r, k)
    assert approx == pytest.approx(L * 3.0 / (r * k), rel=1e-14)
    exact = beam_radius_at(L, l, r, k, exact=True)
    assert exact == pytest.approx(L * first_max_abscissa(2) / (r * k), rel=1e-14)
    assert exact > approx  # j'_{2,1} = 3.054 > |l| + 1 = 3
    with pytest.raises(GeometryError):
        beam_radius_at(-1.0, l, r, k)

