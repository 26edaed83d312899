"""Physics checks on the receiver channel that hold whatever the bits: the
channel is affine in the blocker's transmittance, a transparent blocker is
no blocker, and order -l mirrors order l across the x-symmetric geometry;
and, to the bit, ``experiment`` with one analysis plane gives the channels
of ``simulate``.  They run on the default config at small grids."""

import numpy as np
import pytest

from oamlink import (run_experiment, run_scenario, scenario_from_config,
                     validate_config)

SIDES = (64, 128)
ORDERS = (2, 4)
# order -l takes the ring radius of order l
MIRRORED_RADII = {"-2": 0.149, "-4": 0.218}


def _h_raw(side, order_l, obstructed, **over):
    cfg = validate_config({"grid": {"side": side}, "modes": [order_l],
                           **over})
    return run_scenario(scenario_from_config(cfg, order_l, obstructed)).h_raw


def _transmittance(t):
    return {"obstruction": {"transmittance": t}}


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("order_l", ORDERS)
def test_channel_is_affine_in_transmittance(side, order_l):
    # the mask multiplies the field by t over the blocker and by 1 off it,
    # and every step after it is linear
    h0 = _h_raw(side, order_l, True, **_transmittance(0.0))
    h1 = _h_raw(side, order_l, True, **_transmittance(1.0))
    scale = np.max(np.abs(h1))
    for t in (0.25, 0.5, 0.8):
        ht = _h_raw(side, order_l, True, **_transmittance(t))
        assert np.max(np.abs(ht - ((1 - t) * h0 + t * h1))) <= 1e-13 * scale


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("order_l", ORDERS)
def test_transparent_blocker_is_no_blocker(side, order_l):
    # both runs take the same steps, so the bits match too
    clear = _h_raw(side, order_l, False)
    seen = _h_raw(side, order_l, True, **_transmittance(1.0))
    assert np.array_equal(seen.view(np.uint64), clear.view(np.uint64))


@pytest.mark.parametrize("side", SIDES)
def test_transparent_blocker_changes_no_metric(side):
    report = run_experiment({"grid": {"side": side}, **_transmittance(1.0)})
    for entry in report["modes"].values():
        assert entry["h_obstructed"] == entry["h_clear"]
        assert entry["d_power_db"] == 0.0
        # the same channel and noise seed give the same receive pass
        assert entry["d_snr_db_mean"] == 0.0
        assert entry["d_evm_pct_mean"] == 0.0


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("order_l", ORDERS)
@pytest.mark.parametrize("obstructed", [False, True])
def test_negative_order_mirrors_across_the_array(side, order_l, obstructed):
    # x -> -x takes order l to -l and antenna i to n-1-i; the lattice (-N/2
    # to N/2-1) and the bilinear splat are not mirror-symmetric, so the
    # match is to 1e-4 (measured: 4.5e-5 at 64^2-256^2)
    plus = np.abs(_h_raw(side, order_l, obstructed))
    minus = np.abs(_h_raw(side, -order_l, obstructed,
                          ring_radii_m=MIRRORED_RADII))
    assert np.max(np.abs(minus - plus[::-1]) / plus[::-1]) <= 1e-4


@pytest.mark.parametrize("side", SIDES)
def test_one_plane_experiment_gives_the_scenario_channels(side):
    # with the one analysis plane at the receiver and the mask at 10 m, the
    # experiment's beams take the steps run_scenario takes: the launch to
    # the mask, then four 10 m steps.  Both channels are scaled by the one
    # factor that brings the clear channel's mean |h| to 1
    report = run_experiment({"grid": {"side": side},
                             "healing": {"z_samples_m": [50.0]}})
    for order_l in ORDERS:
        clear = _h_raw(side, order_l, False)
        obstructed = _h_raw(side, order_l, True)
        scale = 1.0 / float(np.mean(np.abs(clear)))
        entry = report["modes"][str(order_l)]
        for key, h in (("h_clear", clear), ("h_obstructed", obstructed)):
            assert entry[key] == [[float(v.real), float(v.imag)]
                                  for v in h * scale]
