"""Bessel implementation against an independent high-precision oracle."""

import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.special import jv

from oamlink import bessel_j, bessel_j_signed, first_max_abscissa
from oamlink.bessel import MAX_ARG, MAX_ORDER
from oamlink.errors import GeometryError

mp.mp.dps = 30

# arguments at and near 0, where a backward recurrence started for
# |x| = MAX_ARG in the same call overflows unless it rescales each element
TINY = [0.0, 5e-324, 1e-300, -1e-300, 1e-8, -1e-8]


def _oracle(order, xs):
    return np.array([float(mp.besselj(order, mp.mpf(float(x)))) for x in xs])


def test_matches_oracle_across_domain():
    # coarse scan of the full supported domain, both signs, with the tiny
    # arguments in the same call as +-MAX_ARG; the dense 1e3-point grid of
    # the low orders lives in the acceptance suite
    xs = np.concatenate([np.linspace(-MAX_ARG, MAX_ARG, 121), TINY])
    # np.max, not max: a NaN anywhere must fail the bound
    worst = np.max([np.abs(bessel_j(order, xs) - _oracle(order, xs))
                    for order in range(MAX_ORDER + 1)])
    assert worst <= 1e-10


def test_series_recurrence_cutover_continuity():
    # the power series runs below |x| = 1 and the backward recurrence from
    # it up; both sides of the switch, and [10, 14], match the oracle
    for xs in (np.linspace(0.9, 1.1, 41), np.linspace(-1.1, -0.9, 41),
               np.linspace(10.0, 14.0, 81)):
        for order in (0, 3, 8):
            err = np.abs(bessel_j(order, xs) - _oracle(order, xs))
            assert np.max(err) <= 1e-12


def test_matches_scipy_densely_without_warnings():
    xs = np.concatenate([np.linspace(-MAX_ARG, MAX_ARG, 20001), TINY])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for order in range(MAX_ORDER + 1):
            err = np.abs(bessel_j(order, xs) - jv(order, xs))
            assert np.max(err) <= 1e-13, order


def test_three_term_recurrence_residual():
    xs = np.linspace(0.5, 80.0, 400)
    for order in range(1, 9):
        lhs = bessel_j(order - 1, xs) + bessel_j(order + 1, xs)
        rhs = 2.0 * order / xs * bessel_j(order, xs)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_negative_argument_parity():
    xs = np.linspace(0.0, 30.0, 100)
    for order in range(0, 6):
        sign = (-1.0) ** order
        assert np.allclose(bessel_j(order, -xs), sign * bessel_j(order, xs),
                           rtol=0, atol=1e-14)


def test_signed_negative_order():
    xs = np.linspace(0.0, 30.0, 50)
    for order in range(1, 6):
        sign = (-1.0) ** order
        assert np.allclose(bessel_j_signed(-order, xs),
                           sign * bessel_j_signed(order, xs),
                           rtol=0, atol=0)


def test_scalar_and_array_shapes():
    v = bessel_j(0, 0.0)
    assert isinstance(v, float) and v == 1.0
    assert bessel_j(3, 0.0) == 0.0
    out = bessel_j(2, np.ones((3, 4)))
    assert out.shape == (3, 4)


def test_domain_errors():
    with pytest.raises(GeometryError):
        bessel_j(MAX_ORDER + 1, 1.0)
    with pytest.raises(GeometryError):
        bessel_j(-1, 1.0)
    with pytest.raises(GeometryError):
        bessel_j(0, MAX_ARG + 1.0)
    with pytest.raises(GeometryError):
        bessel_j(0.5, 1.0)


def test_first_max_abscissa_against_oracle():
    # independent oracle: root of d/dx J_n(x) via mpmath
    expected = {1: 1.84118378134, 2: 3.05423692823, 3: 4.20118894121,
                4: 5.31755312608, 5: 6.4156163757, 6: 7.50126614468}
    for order, x_peak in expected.items():
        assert first_max_abscissa(order) == pytest.approx(x_peak, abs=1e-9)
        # it is genuinely a stationary point of the implementation's J
        h = 1e-5
        slope = (bessel_j(order, x_peak + h) - bessel_j(order, x_peak - h)) / (2 * h)
        assert abs(slope) < 1e-8


def test_first_max_abscissa_is_scipys_first_zero_of_the_derivative():
    # the pinned table holds scipy's values bit for bit, for either sign
    from scipy.special import jnp_zeros
    for n in range(1, MAX_ORDER + 1):
        zero = float(jnp_zeros(n, 1)[0])
        assert first_max_abscissa(n) == zero
        assert first_max_abscissa(-n) == zero


def test_first_max_value_order_two():
    # J_2 evaluated at its first maximum
    assert bessel_j(2, 3.0542) == pytest.approx(0.48650, abs=1e-4)


def test_first_max_abscissa_errors():
    with pytest.raises(GeometryError):
        first_max_abscissa(0)
    with pytest.raises(GeometryError):
        first_max_abscissa(MAX_ORDER + 1)
