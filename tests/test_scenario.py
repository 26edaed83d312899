"""Config handling, the scenario pipeline and the command-line interface."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oamlink import (ScalarField, SourceRing, apply_mask, default_config,
                     propagate_to, read_field, run_experiment, run_scenario,
                     sample_points, scenario_from_config, source_spectrum,
                     spectrum_field, validate_config)
from oamlink.cli import main
from oamlink.errors import (ChannelError, ConfigError, GeometryError,
                            OamLinkError, OutOfExtentError)
from oamlink.scenario import (obstruction_from, ring_radius_for,
                              rx_positions_from, wavelength_from)


def _small_cfg(**over):
    cfg = {
        "grid": {"side": 128, "extent_m": 2.0},
        "healing": {"z_samples_m": [11.0, 50.0]},
    }
    for key, value in over.items():
        node = cfg.setdefault(key, {})
        if isinstance(value, dict):
            node.update(value)
        else:
            cfg[key] = value
    return validate_config(cfg)


def test_defaults_validate_and_merge():
    cfg = validate_config({})
    assert cfg == default_config()
    cfg = validate_config({"rx": {"snr_db": 12}})
    assert cfg["rx"]["snr_db"] == 12
    assert cfg["grid"]["side"] == 1024   # untouched default


def test_unknown_and_mistyped_fields():
    with pytest.raises(ConfigError):
        validate_config({"rx": {"snr": 12}})
    with pytest.raises(ConfigError):
        validate_config({"turbo": True})
    with pytest.raises(ConfigError):
        validate_config({"grid": {"side": "big"}})
    with pytest.raises(ConfigError):
        validate_config({"modes": []})
    with pytest.raises(ConfigError):
        validate_config({"obstruction": {"z_m": 60.0}})
    # a key that is not a string, which only a Python caller can pass
    assert _config_error_field({"ring_radii_m": {2: 0.1}}) == "ring_radii_m.2"
    try:
        validate_config({"grid": {"side": "big"}})
    except ConfigError as e:
        assert "grid.side" in str(e)


def _config_error_field(cfg):
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    return err.value.field


def test_num_noise_seeds_must_be_positive():
    assert _config_error_field({"rx": {"num_noise_seeds": 0}}) \
        == "rx.num_noise_seeds"
    assert validate_config({"rx": {"num_noise_seeds": 1}})


@pytest.mark.parametrize("side", [100, 32, 0, -64])
def test_grid_side_must_be_power_of_two_from_64(side, tmp_path, capsys):
    assert _config_error_field({"grid": {"side": side}}) == "grid.side"
    # a command-line override goes through the same check
    rc = main(["simulate", "--grid", str(side), "--mode", "2",
               "--out", str(tmp_path)])
    assert rc == 1
    assert "grid.side" in capsys.readouterr().err


@pytest.mark.parametrize("step", [0.0, -10.0, float("nan")])
def test_max_step_must_be_positive(step, tmp_path, capsys):
    assert _config_error_field({"grid": {"max_step_m": step}}) \
        == "grid.max_step_m"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"grid": {"max_step_m": step}}))
    assert main(["experiment", "--config", str(cfg_path), "--grid", "64",
                 "--out", str(tmp_path)]) == 1
    assert "grid.max_step_m" in capsys.readouterr().err


@pytest.mark.parametrize("z", [0.0, -1.0])
def test_obstruction_must_lie_past_the_source(z):
    assert _config_error_field({"obstruction": {"z_m": z}}) == "obstruction.z_m"
    # the mask's position is not checked while the mask is off
    assert validate_config({"obstruction": {"enabled": False, "z_m": z}})


@pytest.mark.parametrize("modes", [[40], [-17], [2, 0], [2.0], [True]])
def test_modes_must_be_nonzero_integers_up_to_16(modes):
    assert _config_error_field({"modes": modes}) == "modes"
    assert validate_config({"modes": [-16, 16]})["modes"] == [-16, 16]


def test_snr_must_not_be_nan():
    assert _config_error_field({"rx": {"snr_db": float("nan")}}) == "rx.snr_db"
    assert validate_config({"rx": {"snr_db": float("inf")}})


def test_snr_must_not_be_minus_inf(tmp_path, capsys):
    assert _config_error_field({"rx": {"snr_db": float("-inf")}}) == "rx.snr_db"
    assert main(["simulate", "--grid", "64", "--snr-db=-inf",
                 "--out", str(tmp_path)]) == 1
    assert "rx.snr_db" in capsys.readouterr().err


@pytest.mark.parametrize("snr_db", [-4000.0, -3300.0, 3100.0, 1e300])
def test_snr_must_give_a_finite_positive_noise_scale(snr_db, tmp_path,
                                                     capsys):
    # 10**(snr_db/10) underflows to 0 below about -3240 dB and overflows
    # above about 3080 dB; the noise scale is then not a positive number
    assert _config_error_field({"rx": {"snr_db": snr_db}}) == "rx.snr_db"
    assert main(["simulate", "--grid", "64", f"--snr-db={snr_db}",
                 "--out", str(tmp_path)]) == 1
    assert "rx.snr_db" in capsys.readouterr().err
    assert validate_config({"rx": {"snr_db": -3000.0}})
    assert validate_config({"rx": {"snr_db": 3000.0}})


@pytest.mark.parametrize("name", ["noise_seed", "pilot_seed", "guard_samples"])
def test_seeds_and_guard_must_not_be_negative(name, tmp_path, capsys):
    assert _config_error_field({"rx": {name: -3}}) == "rx." + name
    assert validate_config({"rx": {name: 0}})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"rx": {name: -3}}))
    assert main(["simulate", "--config", str(cfg_path), "--grid", "64",
                 "--out", str(tmp_path)]) == 1
    assert "rx." + name in capsys.readouterr().err


def test_seed_override_must_not_be_negative(tmp_path, capsys):
    assert main(["simulate", "--grid", "64", "--seed", "-1",
                 "--out", str(tmp_path)]) == 1
    assert "rx.noise_seed" in capsys.readouterr().err


@pytest.mark.parametrize("planes", [
    [], [50.0, 11.0], [5.0], [10.0], [60.0], [11.0, 11.0], [11.0, "50"],
    [True], [11.0, float("nan"), 50.0]])
def test_z_samples_must_be_increasing_planes_past_the_mask(planes, tmp_path,
                                                          capsys):
    assert _config_error_field({"healing": {"z_samples_m": planes}}) \
        == "healing.z_samples_m"
    # the check runs before any field work, through the CLI too
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"healing": {"z_samples_m": planes}}))
    assert main(["experiment", "--config", str(cfg_path),
                 "--out", str(tmp_path)]) == 1
    assert "healing.z_samples_m" in capsys.readouterr().err


def test_z_samples_bound_follows_the_mask():
    # without the mask the planes may start anywhere past the source
    assert validate_config({"obstruction": {"enabled": False},
                            "healing": {"z_samples_m": [5.0, 50]}})
    assert _config_error_field({"obstruction": {"enabled": False},
                                "healing": {"z_samples_m": [0.0]}}) \
        == "healing.z_samples_m"
    assert _config_error_field({"obstruction": {"z_m": 20.0},
                                "healing": {"z_samples_m": [15.0, 50.0]}}) \
        == "healing.z_samples_m"


@pytest.mark.parametrize("override, field", [
    ({"link": {"rf_hz": 0.0}}, "link.rf_hz"),
    ({"link": {"rf_hz": float("inf")}}, "link.rf_hz"),
    ({"healing": {"max_mode": 3}}, "healing.max_mode"),
    ({"receiver": {"num_antennas": 0}}, "receiver.num_antennas"),
    ({"grid": {"edge_margin": -0.05}}, "grid.edge_margin"),
    ({"grid": {"edge_margin": float("nan")}}, "grid.edge_margin"),
    ({"grid": {"extent_m": 0.0}}, "grid.extent_m"),
    ({"grid": {"extent_m": -12.0}}, "grid.extent_m"),
    ({"grid": {"theta_max_deg": 0.0}}, "grid.theta_max_deg"),
    ({"grid": {"theta_max_deg": 90.0}}, "grid.theta_max_deg"),
    ({"obstruction": {"shape": "sphere"}}, "obstruction.shape"),
    ({"obstruction": {"width_m": 0.0}}, "obstruction.width_m"),
    ({"obstruction": {"height_m": -1.6}}, "obstruction.height_m"),
    ({"obstruction": {"shape": "disk", "width_m": float("nan")}},
     "obstruction.width_m"),
    ({"obstruction": {"transmittance": 1.5}}, "obstruction.transmittance"),
    ({"obstruction": {"transmittance": -0.1}}, "obstruction.transmittance"),
    ({"ring_radii_m": 5}, "ring_radii_m"),
    ({"ring_radii_m": {"2": "abc"}}, "ring_radii_m"),
    ({"ring_radii_m": {"4": 0.0}}, "ring_radii_m"),
    ({"ring_radii_m": {"2": float("nan")}}, "ring_radii_m"),
    ({"link": {"wavelength_override_m": "abc"}}, "link.wavelength_override_m"),
    ({"link": {"wavelength_override_m": -0.011}},
     "link.wavelength_override_m"),
    ({"link": {"wavelength_override_m": float("inf")}},
     "link.wavelength_override_m"),
    ({"receiver": {"theta_deg": float("nan")}}, "receiver.theta_deg"),
    ({"receiver": {"spacing_m": float("nan")}}, "receiver.spacing_m"),
    ({"obstruction": {"center_x_m": float("nan")}}, "obstruction.center_x_m"),
    ({"link": {"bandwidth_hz": float("inf")}}, "link.bandwidth_hz"),
    # a bool is not a count or a length, although Python takes it as one
    ({"receiver": {"num_antennas": True}}, "receiver.num_antennas"),
    ({"rx": {"pilot_seed": False}}, "rx.pilot_seed"),
    ({"grid": {"side": True}}, "grid.side"),
    ({"link": {"rf_hz": True}}, "link.rf_hz"),
    ({"rx": {"snr_db": False}}, "rx.snr_db"),
    # a ring radius is keyed by an order ring_radius_for can look up
    ({"ring_radii_m": {"0": 0.2}}, "ring_radii_m.0"),
    ({"ring_radii_m": {"17": 0.2}}, "ring_radii_m.17"),
    ({"ring_radii_m": {"03": 0.2}}, "ring_radii_m.03"),
    ({"ring_radii_m": {"three": 0.2}}, "ring_radii_m.three"),
    # a taper margin past the whole grid
    ({"grid": {"edge_margin": 1.5}}, "grid.edge_margin"),
    # a link plan of one mode, a bandwidth past the receiver's IF and a ring
    # too coarse for order 4
    ({"link": {"num_modes": 1}}, "link.num_modes"),
    ({"link": {"bandwidth_hz": 2e9}}, "link.bandwidth_hz"),
    ({"ring_elements": 4}, "ring_elements"),
    # link fields the link plan rejects, a section that is not an object,
    # and geometry the grid cannot hold: a receiver row or span off the grid
    # and a grid too small for a ring of modes
    ({"link": {"rx_spacing_m": 0.0}}, "link.rx_spacing_m"),
    ({"link": {"beam_radius_m": 10.0}}, "link.beam_radius_m"),
    ({"grid": 5}, "grid"),
    ({"receiver": {"theta_deg": 20.0}}, "receiver.theta_deg"),
    ({"receiver": {"spacing_m": 5.0}}, "receiver.spacing_m"),
    ({"grid": {"extent_m": 0.5}}, "grid.extent_m"),
    # a link distance at or behind the source, which used to be reported as
    # the mask's plane, or with the mask off as the analysis planes
    ({"link": {"distance_m": -5.0}}, "link.distance_m"),
    ({"link": {"distance_m": -5.0}, "obstruction": {"enabled": False}},
     "link.distance_m"),
    # an int angle numpy cannot take the radians of, and antenna rows longer
    # than the grid is wide, which used to end in a TypeError, a ValueError
    # from np.arange and gigabytes of positions built before any check
    ({"receiver": {"theta_deg": 2 ** 64}}, "receiver.theta_deg"),
    ({"receiver": {"num_antennas": 2 ** 64}}, "receiver.num_antennas"),
    ({"receiver": {"num_antennas": 10 ** 9}}, "receiver.num_antennas"),
    # healing.max_mode is no field (a mode's purity is |c_l|^2 over the
    # whole ring power, whatever the spectrum's width): a config that sets
    # it is refused as an unknown field
    ({"healing": {"max_mode": 17}}, "healing.max_mode"),
    ({"healing": {"max_mode": 10 ** 9}}, "healing.max_mode"),
    # sizes past what a run can allocate or loop over, which used to end in
    # a ValueError from numpy, "ring falls outside the grid" at synthesis
    # (a side of 2**64) or a run that did not end (2**64 noise seeds)
    ({"rx": {"pilot_symbols": 2 ** 64}}, "rx.pilot_symbols"),
    ({"rx": {"pilot_symbols": 2 ** 18 + 1}}, "rx.pilot_symbols"),
    ({"rx": {"guard_samples": 2 ** 64}}, "rx.guard_samples"),
    ({"rx": {"guard_samples": 2 ** 16 + 1}}, "rx.guard_samples"),
    ({"ring_elements": 2 ** 64}, "ring_elements"),
    ({"ring_elements": 2 ** 16 + 1}, "ring_elements"),
    ({"grid": {"side": 2 ** 64}}, "grid.side"),
    ({"grid": {"side": 2 ** 40}}, "grid.side"),
    ({"grid": {"side": 2 ** 14}}, "grid.side"),   # the next power of two
    ({"rx": {"num_noise_seeds": 2 ** 64}}, "rx.num_noise_seeds"),
    ({"rx": {"num_noise_seeds": 1001}}, "rx.num_noise_seeds"),
    # walks that did not end: about 4e301 steps to the receiver, 1e8 steps
    # of 10 m, and more analysis planes than the bound
    ({"grid": {"max_step_m": 1e-300}}, "grid.max_step_m"),
    ({"link": {"distance_m": 1e9}, "receiver": {"theta_deg": 0.0}},
     "grid.max_step_m"),
    ({"healing": {"z_samples_m": [10 + 40 * (i + 1) / 1001
                                  for i in range(1001)]}},
     "healing.z_samples_m"),
    # a taper margin past half the grid, whose strips overlapped: a broken
    # window that jumped from 0.74 to 1 inside the strip (0.6), or rose at
    # one edge alone (1.0)
    ({"grid": {"edge_margin": 0.6}}, "grid.edge_margin"),
    ({"grid": {"edge_margin": 1.0}}, "grid.edge_margin"),
])
def test_bad_values_are_rejected_by_field(override, field, tmp_path, capsys):
    # each of these used to fail later: a ZeroDivisionError (rf 0), purity
    # 0.0 at every plane (a healing.max_mode below |l| = 4), "channel has zero
    # magnitude" (no antennas), an unlabelled GeometryError, a TypeError or
    # ValueError (ring radii, wavelength), an IndexError (NaN receiver
    # geometry), a run with no mask applied (NaN mask centre), a
    # ValueError from the taper (a margin past the whole grid), an
    # unlabelled GeometryError from the link plan (one mode, a bandwidth
    # past the IF) or a NyquistError at synthesis (too few ring elements);
    # the last six ended in a GeometryError from the link plan, a section's
    # first key reported missing, an OutOfExtentError at sampling after the
    # whole walk, or a GeometryError at synthesis
    assert _config_error_field(override) == field
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(override))
    assert main(["simulate", "--config", str(cfg_path), "--grid", "64",
                 "--out", str(tmp_path)]) == 1
    assert f"config field '{field}':" in capsys.readouterr().err


def test_simulate_checks_the_order_it_runs(tmp_path, capsys):
    # simulate --mode sets modes to the order it runs: its ring must fit
    # the grid and the ring elements must carry it.  This run used to fail
    # at synthesis with no config field
    small = {"grid": {"extent_m": 1.0}, "receiver": {"theta_deg": 0.0}}
    assert validate_config(small)                  # modes 2 and 4 fit
    assert validate_config({**small, "modes": [4]})
    assert _config_error_field({**small, "modes": [6]}) == "grid.extent_m"
    assert validate_config({"ring_elements": 10})  # 2|l| = 8 for order 4
    assert _config_error_field({"ring_elements": 10, "modes": [5]}) \
        == "ring_elements"
    for cfg, field in ((small, "grid.extent_m"),
                       ({"ring_elements": 10}, "ring_elements")):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        argv = ["simulate", "--config", str(cfg_path), "--grid", "64",
                "--mode", "6", "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: config field '{field}':")
    # the order a run does take still passes
    cfg_path.write_text(json.dumps(small))
    assert main(["simulate", "--config", str(cfg_path), "--grid", "64",
                 "--mode", "2", "--out", str(tmp_path / "out")]) == 0


def _typed_leaves(node=None, prefix=""):
    """(path, default) of every leaf of ``default_config()`` whose default
    is not None, outside ``ring_radii_m`` (its keys are free)."""
    for key, value in (default_config() if node is None else node).items():
        if isinstance(value, dict):
            if key != "ring_radii_m":
                yield from _typed_leaves(value, prefix + key + ".")
        elif value is not None:
            yield prefix + key, value


def _wrong_types(default):
    """Values whose type is not that of ``default``: a bool is no number,
    and a float no count."""
    wrong = [1 if isinstance(default, str) else "x", None, {}]
    if isinstance(default, bool):
        wrong.append(1)
    elif isinstance(default, (int, float)):
        wrong.append(True)
    if type(default) is int:
        wrong.append(float(default))
    return wrong


def _at_path(path, value):
    section, _, key = path.partition(".")
    return {section: {key: value}} if key else {section: value}


@pytest.mark.parametrize("path, value", [
    (path, value) for path, default in _typed_leaves()
    for value in _wrong_types(default)])
def test_every_field_takes_only_the_type_of_its_default(path, value):
    # the cases come from default_config(), so a field added later is
    # covered with no new list
    assert _config_error_field(_at_path(path, value)) == path


def test_a_whole_number_is_taken_for_a_float_if_it_fits_one():
    assert validate_config(default_config()) == default_config()
    for path, default in _typed_leaves():
        if type(default) is not float:
            continue
        if default.is_integer():
            cfg = validate_config(_at_path(path, int(default)))
            section, _, key = path.partition(".")
            assert type(cfg[section][key]) is int   # not rewritten
        # JSON reads 1 and 400 zeros as an int, which used to end in an
        # OverflowError from float()
        assert _config_error_field(_at_path(path, 10 ** 400)) == path


@pytest.mark.parametrize("mode", ["0", "17", "-17"])
def test_simulate_mode_must_be_an_order(mode, tmp_path, capsys):
    # 0 used to be reported as config field 'modes', and 17 and -17 as an
    # order outside the supported range with no flag named
    line = _cli_error(["simulate", "--grid", "64", "--mode", mode,
                       "--out", str(tmp_path)], capsys)
    assert "--mode" in line and "|l| <= 16" in line


def test_modes_must_not_repeat(tmp_path, capsys):
    # order 2 used to run twice, with one report entry and every one of its
    # correlation rows written twice
    assert _config_error_field({"modes": [2, 2]}) == "modes"
    assert _config_error_field({"modes": [2, 4, 2]}) == "modes"
    assert validate_config({"modes": [2, -2]})["modes"] == [2, -2]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"modes": [2, 2]}))
    assert "config field 'modes':" in _cli_error(
        ["experiment", "--config", str(cfg_path), "--grid", "64",
         "--out", str(tmp_path)], capsys)


@pytest.mark.parametrize("receiver", [
    {"theta_deg": 6.84}, {"theta_deg": 6.85},      # the row at y = -6 m
    {"theta_deg": -6.63}, {"theta_deg": -6.64},    # at y = +5.8125 m
    {"spacing_m": 3.87}, {"spacing_m": 3.88}])     # x = -1.5 s at -5.8125 m
def test_receiver_check_agrees_with_sampling(receiver):
    # on a 64^2 grid over 12 m the samples span -6 .. 5.8125 m; a receiver
    # passes the config boundary exactly when sample_points takes it
    cfg = default_config()
    cfg["grid"]["side"] = 64
    cfg["receiver"].update(receiver)
    grid = ScalarField(np.zeros((64, 64), dtype=complex), 12.0, 50.0, 0.0107)
    try:
        sample_points(grid, rx_positions_from(cfg))
        sampled = True
    except OutOfExtentError:
        sampled = False
    if sampled:
        assert validate_config(cfg)
    else:
        assert _config_error_field(cfg) == "receiver." + next(iter(receiver))


@pytest.mark.parametrize("side", [64, 128])
@pytest.mark.parametrize("receiver", [
    {}, {"num_antennas": 3},                       # even and odd rows
    {"num_antennas": 5, "theta_deg": 6.8},         # in the top taper strip
    {"num_antennas": 1, "theta_deg": -6.6}])       # in the bottom strip
def test_scenario_channel_is_that_of_the_finished_field(side, receiver,
                                                        tmp_path):
    # without a dump the last step finishes only the receiver's rows; the
    # channel and the metrics keep the bits of sampling the whole field
    cfg = validate_config({"grid": {"side": side}, "receiver": receiver})
    for obstructed in (False, True):
        s = scenario_from_config(cfg, 3, obstructed, h_scale=None)
        rows = run_scenario(s)
        kept = run_scenario(s, dump_dir=tmp_path / str(obstructed))
        assert np.array_equal(rows.h_raw.view(np.uint64),
                              kept.h_raw.view(np.uint64))
        assert repr(rows.metrics) == repr(kept.metrics)


def test_receiver_row_limits():
    # an int angle is echoed as given and placed as its float
    cfg = validate_config({"receiver": {"theta_deg": 1}})
    assert type(cfg["receiver"]["theta_deg"]) is int
    assert np.array_equal(rx_positions_from(cfg),
                          rx_positions_from(default_config()))
    # a row may hold as many antennas as the grid has columns, no more
    row = {"grid": {"side": 64}, "receiver": {"spacing_m": 0.01}}
    row["receiver"]["num_antennas"] = 64
    assert validate_config(row)
    row["receiver"]["num_antennas"] = 65
    assert _config_error_field(row) == "receiver.num_antennas"


def test_a_ring_radius_for_any_order():
    cfg = _small_cfg(modes=[3], ring_radii_m={"3": 0.2, "-16": 0.25})
    assert cfg["ring_radii_m"] == {"2": 0.149, "4": 0.218, "3": 0.2,
                                   "-16": 0.25}
    assert ring_radius_for(cfg, 3) == 0.2
    report = run_experiment(_small_cfg(modes=[3], ring_radii_m={"3": 0.2}))
    assert report["modes"]["3"]["ring_radius_m"] == 0.2


def test_limits_of_the_boundary_checks():
    assert validate_config({"grid": {"side": 2 ** 13},
                            "ring_elements": 2 ** 16,
                            "rx": {"pilot_symbols": 2 ** 18,
                                   "guard_samples": 2 ** 16,
                                   "num_noise_seeds": 1000}})
    # a walk of 10 000 steps to the receiver, and 1000 analysis planes
    assert validate_config({"grid": {"max_step_m": 0.005}})
    assert validate_config({"healing": {"z_samples_m": [
        10 + (i + 1) / 25 for i in range(1000)]}})
    # a step count of inf, whose ceil would raise OverflowError, is past it
    assert _config_error_field({"grid": {"max_step_m": 5e-324}}) \
        == "grid.max_step_m"
    assert validate_config({"grid": {"edge_margin": 0.0}})
    assert validate_config({"grid": {"edge_margin": 0.5}})
    assert validate_config({"receiver": {"num_antennas": 1}})
    assert validate_config({"obstruction": {"transmittance": 1.0}})
    # a disk has no height, and a mask that is off is not checked
    assert validate_config({"obstruction": {"shape": "disk",
                                            "height_m": 0.0}})
    assert validate_config({"obstruction": {"enabled": False,
                                            "shape": "sphere",
                                            "width_m": 0.0}})
    # the beam radius stays below d*F/(2B), 4.9152 m, which the error gives
    assert validate_config({"link": {"beam_radius_m": 4.9}})
    with pytest.raises(ConfigError, match=r"\(0, 4\.9152\) m"):
        validate_config({"link": {"beam_radius_m": 4.9152}})
    # a grid exactly 4x the largest ring radius (0.218 m, order 4) holds it
    assert validate_config({"grid": {"extent_m": 4 * 0.218},
                            "receiver": {"theta_deg": 0.0, "spacing_m": 0.1}})


@pytest.mark.parametrize("symbols", [1023, 64, 0, -2048])
def test_pilot_symbols_must_reach_1024(symbols):
    assert _config_error_field({"rx": {"pilot_symbols": symbols}}) \
        == "rx.pilot_symbols"
    assert validate_config({"rx": {"pilot_symbols": 1024}})


def test_ring_radius_lookup_and_matching():
    cfg = validate_config({})
    assert ring_radius_for(cfg, 2) == 0.149
    assert ring_radius_for(cfg, 4) == 0.218
    # unlisted orders fall back to Bessel matching against the order-2 ring
    assert ring_radius_for(cfg, 3) == pytest.approx(
        0.149 * 4.20118894121 / 3.05423692823, rel=1e-9)
    # order 0 has no first maximum to match: the error names the order, not
    # a config field (the config rules and simulate --mode refuse order 0)
    with pytest.raises(GeometryError, match="order 0"):
        ring_radius_for(cfg, 0)


def test_wavelength_and_geometry_helpers():
    cfg = validate_config({})
    assert wavelength_from(cfg) == pytest.approx(299792458.0 / 28e9, rel=1e-12)
    cfg2 = validate_config({"link": {"wavelength_override_m": 0.011}})
    assert wavelength_from(cfg2) == 0.011

    pos = rx_positions_from(cfg)
    assert pos.shape == (4, 2)
    assert np.allclose(pos[:, 0], [-0.21, -0.07, 0.07, 0.21])
    assert np.allclose(pos[:, 1], -50.0 * np.tan(np.radians(1.0)))

    mask = obstruction_from(cfg)
    assert mask.shape == "rectangle" and mask.z_position == 10.0
    cfg_off = validate_config({"obstruction": {"enabled": False}})
    assert obstruction_from(cfg_off) is None


_RUN_IMPORTS = """
import sys
import numpy as np
import oamlink
from oamlink import run_scenario, scenario_from_config
cfg = oamlink.validate_config({"grid": {"side": 64}})
oamlink.generate_pilot(cfg["rx"]["pilot_seed"], cfg["rx"]["pilot_symbols"])
oamlink.run_experiment(cfg, out_dir=sys.argv[1])
for order in (1, 3):   # no configured ring radius: the matched-radius path
    for obstructed in (False, True):
        run_scenario(scenario_from_config(cfg, order, obstructed))
for order in range(17):
    oamlink.bessel_j(order, np.linspace(-100.0, 100.0, 2001))
oamlink.far_field(oamlink.FarFieldPattern(
    order_l=2, radius_r=0.149, wavelength=0.010707), 0.03, 0.5)
print(" ".join(m for m in ("scipy", "scipy.fft", "scipy.special",
                           "scipy.constants", "numpy.ma") if m in sys.modules))
"""


def test_a_run_imports_no_scipy_submodule(tmp_path):
    # a fresh process: the import, the setup, both kinds of run, the Bessel
    # function and the far-field pattern load no scipy module, not even
    # the top-level package, and no numpy.ma
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", _RUN_IMPORTS, str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == ""
    assert (tmp_path / "report.json").exists()


def test_run_scenario_clear_small_grid(tmp_path):
    cfg = _small_cfg()
    s = scenario_from_config(cfg, 2, obstructed=False, h_scale=None)
    result = run_scenario(s, dump_dir=tmp_path)
    assert result.metrics.combined_evm_pct < 50.0
    assert sorted(p.name for p in tmp_path.iterdir()) \
        == ["receiver_plane.oamf", "source.oamf"]
    assert read_field(tmp_path / "receiver_plane.oamf").z_position \
        == pytest.approx(50.0)
    # auto-normalization: mean |h| of the snapshot is unity
    assert np.mean(np.abs(result.channel.h)) == pytest.approx(1.0, rel=1e-9)


def test_source_dump_is_the_band_limited_source(tmp_path):
    # the launched spectrum's own field, as written; its closeness to the
    # band-limited splat is test_beams' to check
    cfg = _small_cfg()
    run_scenario(scenario_from_config(cfg, 2, obstructed=True),
                 dump_dir=tmp_path)
    ring = SourceRing(radius_r=ring_radius_for(cfg, 2),
                      num_elements_N=cfg["ring_elements"], order_l=2)
    ref = spectrum_field(source_spectrum(
        ring, 128, 2.0, wavelength_from(cfg),
        math.radians(cfg["grid"]["theta_max_deg"])))
    src = read_field(tmp_path / "source.oamf")
    assert src.z_position == 0.0
    assert np.array_equal(src.samples, ref.samples.astype(np.complex64))
    assert sorted(p.name for p in tmp_path.iterdir()) \
        == ["obstruction_plane.oamf", "receiver_plane.oamf", "source.oamf"]


def test_kept_fields_are_the_planes_of_public_steps(tmp_path):
    # the run steps one grid to the receiver and writes each plane as the
    # beam passes it: as complex64, the planes of public steps into grids
    # of their own
    cfg = _small_cfg()
    run_scenario(scenario_from_config(cfg, 2, obstructed=True),
                 dump_dir=tmp_path)
    ring = SourceRing(radius_r=ring_radius_for(cfg, 2),
                      num_elements_N=cfg["ring_elements"], order_l=2)
    grid, mask = cfg["grid"], obstruction_from(cfg)
    source = source_spectrum(ring, 128, 2.0, wavelength_from(cfg),
                             math.radians(grid["theta_max_deg"]))
    masked = apply_mask(propagate_to(source, mask.z_position,
                                     grid["max_step_m"], grid["edge_margin"]),
                        mask)
    received = propagate_to(masked, 50.0, grid["max_step_m"],
                            grid["edge_margin"])
    for name, ref in (("obstruction_plane", masked),
                      ("receiver_plane", received)):
        kept = read_field(tmp_path / f"{name}.oamf")
        assert kept.z_position == ref.z_position
        assert np.array_equal(kept.samples,
                              ref.samples.astype(np.complex64))


def test_full_blockage_fails_in_rx_stage():
    cfg = _small_cfg(obstruction={"width_m": 10.0, "height_m": 10.0,
                                  "center_y_m": 0.0})
    s = scenario_from_config(cfg, 2, obstructed=True, h_scale=None)
    with pytest.raises(ChannelError) as err:
        run_scenario(s)
    assert str(err.value) == "[rx_chain] mode 2: channel has zero magnitude"


def test_experiment_without_obstruction_has_zero_deltas():
    cfg = _small_cfg(obstruction={"enabled": False})
    report = run_experiment(cfg)
    for l in ("2", "4"):
        data = report["modes"][l]
        assert data["d_power_db"] == pytest.approx(0.0, abs=1e-12)
        assert data["final_similarity"] == 1.0
        for run in data["noise_runs"]:
            assert run["d_snr_db"] == pytest.approx(0.0, abs=1e-12)


def test_experiment_report_structure_and_prediction():
    cfg = _small_cfg()
    report = run_experiment(cfg)
    assert report["tool"]["name"] == "oamlink"
    assert report["config"]["grid"]["side"] == 128
    assert report["link_plan"]["num_elements"] == 229
    assert set(report["modes"]) == {"2", "4"}
    curve = report["modes"]["2"]["healing_curve"]
    assert curve["z_m"] == [11.0, 50.0]
    pred = report["prediction"]
    assert set(pred) == {"tangential_wavevector_rad_per_m"}
    # larger order carries the larger tangential wave vector
    assert pred["tangential_wavevector_rad_per_m"]["4"] \
        > pred["tangential_wavevector_rad_per_m"]["2"]


def test_experiment_outputs_and_determinism(tmp_path):
    cfg = _small_cfg()
    a, b = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, out_dir=a)
    run_experiment(cfg, out_dir=b)
    for name in ("report.json", "healing_curve.csv", "correlations.csv"):
        assert (a / name).exists()
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    header = (a / "healing_curve.csv").read_text().splitlines()[0]
    assert header == "mode,z_m,similarity,mode_purity"


def test_a_noiseless_report_is_strict_json(tmp_path):
    # a noiseless run's config echo holds snr_db = inf, which strict JSON
    # has no number for
    def refuse(constant):
        raise ValueError(f"non-finite JSON value {constant}")

    cfg = validate_config({"grid": {"side": 64}})
    cfg["rx"]["snr_db"] = math.inf
    run_experiment(cfg, out_dir=tmp_path)
    with open(tmp_path / "report.json") as fh:
        report = json.load(fh, parse_constant=refuse)
    assert report["config"]["rx"]["snr_db"] == "inf"


def test_experiment_dumps_every_orders_fields_without_out_dir(tmp_path):
    # dump_dir alone: each order's last-plane fields, and no report
    run_experiment(_small_cfg(), dump_dir=tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        f"field_l{l}_{run}_z50.oamf" for l in (2, 4)
        for run in ("clear", "obstructed")]
    for path in tmp_path.iterdir():
        assert read_field(path).z_position == 50.0


def test_cli_plan(tmp_path, capsys):
    rc = main(["plan", "--out", str(tmp_path)])
    assert rc == 0
    plan = json.loads((tmp_path / "plan.json").read_text())
    assert plan["max_beam_radius_m"] == pytest.approx(4.9152)
    assert plan["reference_comparison"]["num_elements"]["discrepancy"] is True


def test_cli_simulate_and_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "grid": {"side": 128, "extent_m": 2.0},
        "healing": {"z_samples_m": [11.0, 50.0]},
    }))
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(out),
               "--mode", "2", "--clear", "--snr-db", "25", "--dump-fields"])
    assert rc == 0
    summary = json.loads((out / "scenario.json").read_text())
    assert summary["scenario"] == "clear"
    # the snapshots are .oamf files alone, as experiment writes them
    assert sorted(p.name for p in out.iterdir()) == [
        "receiver_plane.oamf", "scenario.json", "source.oamf"]


def test_cli_experiment_and_heal_curve(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "grid": {"side": 128, "extent_m": 2.0},
        "healing": {"z_samples_m": [11.0, 50.0]},
    }))
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(cfg_path),
                 "--out", str(out)]) == 0
    assert (out / "report.json").exists()
    rows = (out / "healing_curve.csv").read_text().splitlines()
    assert len(rows) == 1 + 2 * 2    # header, then 2 modes x 2 planes
    # the healing curves come from ``experiment``; heal-curve is gone
    out2 = tmp_path / "out2"
    with pytest.raises(SystemExit) as err:
        main(["heal-curve", "--config", str(cfg_path), "--out", str(out2)])
    assert err.value.code == 2
    assert not out2.exists()


def test_cli_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nonsense": 1}))
    rc = main(["experiment", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def _cli_error(argv, capsys):
    """The one line ``main(argv)`` prints to stderr, which must end the run
    with exit code 1."""
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


def test_cli_input_errors_are_one_line(tmp_path, capsys):
    # each of these used to end in a traceback: an AttributeError from
    # validate_config, a FileNotFoundError, a JSONDecodeError, a
    # UnicodeDecodeError and a FileExistsError
    listed = tmp_path / "list.json"
    listed.write_text("[1]")
    assert "(top level)" in _cli_error(
        ["plan", "--config", str(listed), "--out", str(tmp_path)], capsys)
    with pytest.raises(ConfigError) as err:
        validate_config([1])
    assert err.value.field == "(top level)"
    missing = tmp_path / "missing.json"
    assert str(missing) in _cli_error(
        ["plan", "--config", str(missing), "--out", str(tmp_path)], capsys)
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"grid": ')
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe")
    for path in (malformed, binary):
        assert str(path) in _cli_error(
            ["experiment", "--config", str(path), "--out", str(tmp_path)],
            capsys)
    taken = tmp_path / "taken"
    taken.write_text("")
    for command in ("plan", "simulate", "experiment"):
        assert str(taken) in _cli_error(
            [command, "--grid", "64", "--out", str(taken)], capsys)


def test_cli_seed_and_grid_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "grid": {"extent_m": 2.0},
        "healing": {"z_samples_m": [11.0, 50.0]},
    }))
    out = tmp_path / "o1"
    rc = main(["experiment", "--config", str(cfg_path), "--out", str(out),
               "--grid", "128", "--seed", "99"])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["grid"]["side"] == 128
    assert report["config"]["rx"]["noise_seed"] == 99


def test_stage_labels_are_prefixed():
    # a ring that cannot fit the requested grid fails at the config
    # boundary; set in a validated config, it fails in the synthesis stage
    assert _config_error_field({"grid": {"side": 128, "extent_m": 2.0},
                                "ring_radii_m": {"2": 10.0}}) \
        == "grid.extent_m"
    cfg = _small_cfg()
    cfg["ring_radii_m"]["2"] = 10.0
    s = scenario_from_config(cfg, 2, obstructed=False)
    with pytest.raises(OamLinkError) as err:
        run_scenario(s)
    assert str(err.value).startswith("[synthesis]")
    # so does an order the ring cannot carry
    with pytest.raises(OamLinkError) as err:
        run_scenario(scenario_from_config(cfg, 17, obstructed=False))
    assert str(err.value).startswith("[synthesis]")


def test_experiment_errors_carry_stage_labels(monkeypatch):
    # run_experiment validates its config, so a ring too large for the grid
    # no longer reaches synthesis; an error raised there is labelled
    from oamlink import scenario
    from oamlink.errors import GeometryError

    def failing_synthesis(*args, **kwargs):
        raise GeometryError("grid extent must be at least 4x the ring radius")

    with monkeypatch.context() as patch:
        patch.setattr(scenario, "source_spectrum", failing_synthesis)
        with pytest.raises(OamLinkError) as err:
            run_experiment(_small_cfg())
    assert str(err.value).startswith("[synthesis]")
    assert err.value.stage == "synthesis"
    # a mask over the whole grid leaves nothing to analyse at the planes
    cfg = _small_cfg(obstruction={"width_m": 10.0, "height_m": 10.0,
                                  "center_y_m": 0.0})
    with pytest.raises(OamLinkError) as err:
        run_experiment(cfg)
    assert str(err.value).startswith("[sampling] ")


def test_error_in_the_obstructed_step_keeps_its_stage_label(monkeypatch):
    # past the mask the obstructed beam steps in the grid the mask wrote;
    # an error in that step reaches run_experiment's caller labelled
    from oamlink import propagation, scenario
    from oamlink.errors import GeometryError
    real_mask, real_propagate = scenario.apply_mask, propagation.propagate
    masked = []

    def recording_mask(*args, **kwargs):
        field = real_mask(*args, **kwargs)
        masked.append(field.samples)
        return field

    def failing_obstructed(field, dz, *args, **kwargs):
        if masked and np.shares_memory(field.samples, masked[-1]):
            raise GeometryError("obstructed step failed")
        return real_propagate(field, dz, *args, **kwargs)

    monkeypatch.setattr(scenario, "apply_mask", recording_mask)
    monkeypatch.setattr(propagation, "propagate", failing_obstructed)
    with pytest.raises(GeometryError) as err:
        run_experiment(_small_cfg())
    assert str(err.value) == "[propagation] obstructed step failed"
    assert err.value.stage == "propagation"
    assert len(masked) == 1   # the first order's obstructed beam failed


def test_propagation_steps_per_run(monkeypatch):
    # The clear and obstructed beams share the hop to the mask plane, then
    # each takes its own hop to every analysis plane; a single scenario
    # walks straight to the receiver in max_step hops.  The first step of
    # every walk launches the source spectrum; the rest are propagate calls.
    from oamlink import propagation
    steps, launches = [], []
    real_propagate, real_launch = propagation.propagate, propagation.launch

    def counting(field, dz, *args, **kwargs):
        steps.append(dz)
        return real_propagate(field, dz, *args, **kwargs)

    def counting_launch(spectrum, dz, **kwargs):
        steps.append(dz)
        launches.append(dz)
        return real_launch(spectrum, dz, **kwargs)

    monkeypatch.setattr(propagation, "propagate", counting)
    monkeypatch.setattr(propagation, "launch", counting_launch)
    cfg = validate_config({"grid": {"side": 64}})
    run_experiment(cfg)
    per_order = [10.0] + [dz for dz in (1.0, 4.0) + (5.0,) * 7
                          for _beam in ("clear", "obstructed")]
    assert len(per_order) == 19
    assert steps == per_order * len(cfg["modes"])
    assert launches == [10.0] * len(cfg["modes"])
    for obstructed in (False, True):
        steps.clear()
        launches.clear()
        run_scenario(scenario_from_config(cfg, 2, obstructed))
        assert steps == [10.0] * 5
        assert launches == [10.0]
    # With the mask off the 10 m grid of steps, only the obstructed beam
    # stops at it; the clear one still walks 50 m in five 10 m steps.
    cfg = validate_config({"grid": {"side": 64}, "obstruction": {"z_m": 15.0},
                           "healing": {"z_samples_m": [50.0]}})
    steps.clear()
    launches.clear()
    run_scenario(scenario_from_config(cfg, 2, obstructed=False))
    assert steps == [10.0] * 5
    assert launches == [10.0]
    steps.clear()
    launches.clear()
    run_scenario(scenario_from_config(cfg, 2, obstructed=True))
    assert steps == [7.5, 7.5] + [8.75] * 4
    assert launches == [7.5]


def test_receive_chain_runs_once_per_channel(monkeypatch, tmp_path):
    # Each channel passes the receive chain once per noise seed, and
    # correlations.csv is written from the traces of the first seed's pass.
    from oamlink import rxchain
    calls = []
    real = rxchain.apply_channel

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(rxchain, "apply_channel", counting)
    cfg = validate_config({"grid": {"side": 64},
                           "rx": {"num_noise_seeds": 2}})
    report = run_experiment(cfg, out_dir=tmp_path)
    assert len(calls) == 2 * len(cfg["modes"]) * 2

    rx = cfg["rx"]
    pilot = rxchain.generate_pilot(rx["pilot_seed"], rx["pilot_symbols"])
    expected = []
    for l in cfg["modes"]:
        for label, key in (("clear", "h_clear"), ("obstructed", "h_obstructed")):
            h = np.array([complex(re, im) for re, im in report["modes"][str(l)][key]])
            traces, _, _ = rxchain.receive(
                rxchain.ChannelSnapshot(h, label, l), pilot, rx["snr_db"],
                rx["noise_seed"], guard_samples=rx["guard_samples"])
            expected += [[str(l), label, str(i + 1), str(lag), float(mag)]
                         for i, t in enumerate(traces)
                         for lag, mag in zip(t.lags, t.magnitude)]
    with open(tmp_path / "correlations.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["mode", "scenario", "antenna", "lag", "magnitude"]
    assert [r[:4] + [float(r[4])] for r in rows[1:]] == expected
