"""Config handling, the scenario pipeline and the command-line interface."""

import csv
import json
import math

import numpy as np
import pytest

from oamlink import (SourceRing, angular_bandlimit, default_config,
                     run_experiment, run_scenario, scenario_from_config,
                     synthesize_source_field, validate_config)
from oamlink.cli import main
from oamlink.errors import ChannelError, ConfigError, OamLinkError
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
    # the healing analysis must resolve the largest order too
    assert validate_config({"modes": [-16, 16], "healing": {"max_mode": 16}}
                           )["modes"] == [-16, 16]


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
])
def test_bad_values_are_rejected_by_field(override, field, tmp_path, capsys):
    # each of these used to fail later: a ZeroDivisionError (rf 0), purity
    # 0.0 at every plane (max_mode below |l| = 4), "channel has zero
    # magnitude" (no antennas), an unlabelled GeometryError, a TypeError or
    # ValueError (ring radii, wavelength), an IndexError (NaN receiver
    # geometry), or a run with no mask applied (NaN mask centre)
    assert _config_error_field(override) == field
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(override))
    assert main(["simulate", "--config", str(cfg_path), "--grid", "64",
                 "--out", str(tmp_path)]) == 1
    assert field in capsys.readouterr().err


def test_a_ring_radius_for_any_order():
    cfg = _small_cfg(modes=[3], ring_radii_m={"3": 0.2, "-16": 0.25})
    assert cfg["ring_radii_m"] == {"2": 0.149, "4": 0.218, "3": 0.2,
                                   "-16": 0.25}
    assert ring_radius_for(cfg, 3) == 0.2
    report = run_experiment(_small_cfg(modes=[3], ring_radii_m={"3": 0.2}))
    assert report["modes"]["3"]["ring_radius_m"] == 0.2


def test_limits_of_the_boundary_checks():
    assert validate_config({"healing": {"max_mode": 4}})
    assert validate_config({"grid": {"edge_margin": 0.0}})
    assert validate_config({"receiver": {"num_antennas": 1}})
    assert validate_config({"obstruction": {"transmittance": 1.0}})
    # a disk has no height, and a mask that is off is not checked
    assert validate_config({"obstruction": {"shape": "disk",
                                            "height_m": 0.0}})
    assert validate_config({"obstruction": {"enabled": False,
                                            "shape": "sphere",
                                            "width_m": 0.0}})


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
    with pytest.raises(ConfigError):
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


def test_run_scenario_clear_small_grid():
    cfg = _small_cfg()
    s = scenario_from_config(cfg, 2, obstructed=False, h_scale=None)
    result = run_scenario(s, keep_fields=True)
    assert result.metrics.combined_evm_pct < 50.0
    assert set(result.fields) == {"source", "receiver_plane"}
    assert result.fields["receiver_plane"].z_position == pytest.approx(50.0)
    # auto-normalization: mean |h| of the snapshot is unity
    assert np.mean(np.abs(result.channel.h)) == pytest.approx(1.0, rel=1e-9)


def test_source_dump_is_the_band_limited_source():
    cfg = _small_cfg()
    result = run_scenario(scenario_from_config(cfg, 2, obstructed=True),
                          keep_fields=True)
    ring = SourceRing(radius_r=ring_radius_for(cfg, 2),
                      num_elements_N=cfg["ring_elements"], order_l=2)
    ref = angular_bandlimit(
        synthesize_source_field(ring, 128, 2.0, wavelength_from(cfg)),
        math.radians(cfg["grid"]["theta_max_deg"]))
    src = result.fields["source"]
    assert src.z_position == 0.0
    assert np.max(np.abs(src.samples - ref.samples)) \
        <= 1e-12 * np.max(np.abs(ref.samples))
    assert set(result.fields) == {"source", "obstruction_plane",
                                  "receiver_plane"}


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
    # larger order carries the larger tangential wave vector
    assert pred["tangential_wavevector_rad_per_m"]["4"] \
        > pred["tangential_wavevector_rad_per_m"]["2"]
    assert pred["better_of_first_two"] == "4"
    assert pred["healing_order_most_to_least"][0] == "4"


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
    assert (out / "source.oamf").exists()
    assert (out / "receiver_plane.csv").exists()


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
    # a ring that cannot fit the requested grid fails in the synthesis stage
    cfg = _small_cfg(ring_radii_m={"2": 10.0, "4": 0.218})
    s = scenario_from_config(cfg, 2, obstructed=False)
    with pytest.raises(OamLinkError) as err:
        run_scenario(s)
    assert str(err.value).startswith("[synthesis]")
    # so does an order the ring cannot carry
    with pytest.raises(OamLinkError) as err:
        run_scenario(scenario_from_config(cfg, 17, obstructed=False))
    assert str(err.value).startswith("[synthesis]")


def test_experiment_errors_carry_stage_labels():
    cfg = _small_cfg(ring_radii_m={"2": 10.0})
    with pytest.raises(OamLinkError) as err:
        run_experiment(cfg)
    assert str(err.value).startswith("[synthesis]")
    assert err.value.stage == "synthesis"
    # a mask over the whole grid leaves nothing to analyse at the planes
    cfg = _small_cfg(obstruction={"width_m": 10.0, "height_m": 10.0,
                                  "center_y_m": 0.0})
    with pytest.raises(OamLinkError) as err:
        run_experiment(cfg)
    assert str(err.value).startswith("[sampling] ")


def test_error_on_the_beam_thread_keeps_its_stage_label(monkeypatch):
    # past the mask the obstructed beam steps on the pool's thread when the
    # process has two cores; its error reaches the caller labelled
    import threading
    from oamlink import propagation
    from oamlink.errors import SamplingError
    real = propagation.propagate

    def failing_off_main(field, dz, *args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise SamplingError("beam thread failed")
        return real(field, dz, *args, **kwargs)

    monkeypatch.setattr(propagation, "_FFT_WORKERS", 2)
    monkeypatch.setattr(propagation, "propagate", failing_off_main)
    with pytest.raises(SamplingError) as err:
        run_experiment(_small_cfg())
    assert str(err.value) == "[propagation] beam thread failed"
    assert err.value.stage == "propagation"


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

    def counting_launch(spectrum, dz):
        steps.append(dz)
        launches.append(dz)
        return real_launch(spectrum, dz)

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
