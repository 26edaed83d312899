"""The ``oamlink`` command line, run in process through ``cli.main``: the
exit code of each command, the files it writes and the snapshots it dumps,
strict JSON, the one ``error:`` line of an input it refuses, and a run
with scipy refused."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from oamlink import read_field, validate_config
from oamlink.cli import main
from oamlink.errors import ConfigError


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


def _strict_json(path):
    """``path`` parsed as strict JSON: a NaN or an infinity fails."""
    def refuse(constant):
        raise ValueError(f"non-finite JSON value {constant}")

    with open(path) as fh:
        return json.load(fh, parse_constant=refuse)


_FIELDS = [f"field_l{l}_{run}_z50.oamf" for l in (2, 4)
           for run in ("clear", "obstructed")]
_CSVS = ["correlations.csv", "healing_curve.csv"]


@pytest.mark.parametrize("argv, files", [
    pytest.param(["plan"], ["plan.json"], id="plan"),
    pytest.param(["simulate"], ["scenario.json"], id="simulate"),
    # an obstructed run writes each plane as its beam passes it
    pytest.param(["simulate", "--dump-fields"],
                 ["obstruction_plane.oamf", "receiver_plane.oamf",
                  "scenario.json", "source.oamf"], id="simulate-obstructed"),
    pytest.param(["simulate", "--clear", "--dump-fields"],
                 ["receiver_plane.oamf", "scenario.json", "source.oamf"],
                 id="simulate-clear"),
    # each order's last-plane fields
    pytest.param(["experiment", "--dump-fields"],
                 [*_CSVS, *_FIELDS, "report.json"], id="experiment"),
    # noiseless runs: the config echo holds an infinite SNR
    pytest.param(["simulate", "--snr-db", "inf"], ["scenario.json"],
                 id="simulate-noiseless"),
    pytest.param(["experiment", "--snr-db", "inf"], [*_CSVS, "report.json"],
                 id="experiment-noiseless"),
])
def test_each_command_writes_its_files(argv, files, tmp_path):
    # every JSON a command writes is strict JSON, and every snapshot it
    # dumps reads back
    out = tmp_path / "out"
    assert main([*argv, "--grid", "64", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(files)
    for path in out.iterdir():
        assert path.stat().st_size > 0
        if path.suffix == ".json":
            _strict_json(path)
        elif path.suffix == ".oamf":
            assert read_field(path).side == 64


def test_a_noiseless_reports_config_loads_back_through_plan(tmp_path,
                                                           capsys):
    # the config echo of --snr-db inf holds "snr_db": "inf", which
    # --config takes back as +inf
    run = tmp_path / "run"
    assert main(["experiment", "--grid", "64", "--snr-db", "inf",
                 "--out", str(run)]) == 0
    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps(
        json.loads((run / "report.json").read_text())["config"]))
    capsys.readouterr()
    assert main(["plan", "--config", str(echo),
                 "--out", str(tmp_path / "plan")]) == 0
    assert "error:" not in capsys.readouterr().err


def test_plan_takes_no_dump_fields(tmp_path):
    # plan writes no field, so the flag is not among its options
    with pytest.raises(SystemExit) as err:
        main(["plan", "--dump-fields", "--out", str(tmp_path / "plan")])
    assert err.value.code == 2
    assert not (tmp_path / "plan").exists()


@pytest.mark.parametrize("text, field", [
    pytest.param('{"grid": 5}', "grid", id="section"),
    pytest.param('{"receiver": {"theta_deg": 20.0}}', "receiver.theta_deg",
                 id="receiver"),
    pytest.param('{"link": {"distance_m": -5.0}}', "link.distance_m",
                 id="distance"),
    # no field: a mode's purity needs no spectrum cap
    pytest.param('{"healing": {"max_mode": 1000000000}}', "healing.max_mode",
                 id="max_mode"),
    # sizes past what a run can allocate or loop over
    pytest.param('{"rx": {"pilot_symbols": 18446744073709551616}}',
                 "rx.pilot_symbols", id="pilot_symbols"),
    pytest.param('{"rx": {"guard_samples": 18446744073709551616}}',
                 "rx.guard_samples", id="guard_samples"),
    pytest.param('{"ring_elements": 18446744073709551616}', "ring_elements",
                 id="ring_elements"),
    pytest.param('{"grid": {"side": 1099511627776}}', "grid.side", id="side"),
    pytest.param('{"rx": {"num_noise_seeds": 18446744073709551616}}',
                 "rx.num_noise_seeds", id="num_noise_seeds"),
    # a taper margin past half the grid
    pytest.param('{"grid": {"edge_margin": 0.6}}', "grid.edge_margin",
                 id="edge_margin"),
    # walks of more than 10 000 steps
    pytest.param('{"grid": {"max_step_m": 1e-300}}', "grid.max_step_m",
                 id="max_step"),
    pytest.param('{"link": {"distance_m": 1e9}, '
                 '"receiver": {"theta_deg": 0.0}}', "grid.max_step_m",
                 id="long_link"),
])
def test_plan_refuses_a_bad_config_by_field(text, field, tmp_path, capsys):
    # the config file as JSON text: integers past 2**63 included
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    line = _cli_error(["plan", "--config", str(cfg_path),
                       "--out", str(tmp_path / "plan")], capsys)
    assert line.startswith(f"error: config field '{field}':")


_NO_SCIPY = """
import json
import sys


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"scipy is refused: {name}", name=name)
        return None


sys.meta_path.insert(0, RefuseScipy())

import numpy as np
from oamlink import FarFieldPattern, far_field
from oamlink.cli import main

for command in ("plan", "simulate", "experiment"):
    assert main([command, "--grid", "64", "--out", sys.argv[1]]) == 0
pattern = FarFieldPattern(order_l=2, radius_r=0.149, wavelength=0.010707)
value = far_field(pattern, np.linspace(0.0, 0.3, 301), 0.5)
assert np.all(np.isfinite(value))
print(json.dumps(sorted(m for m in sys.modules
                        if m.partition(".")[0] == "scipy")))
"""


def test_every_command_runs_with_scipy_refused(tmp_path):
    # the package needs numpy alone: in a process whose every scipy import
    # fails, and whose RuntimeWarnings are errors, each command and the
    # far-field pattern run, and no scipy module is loaded
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                          "-c", _NO_SCIPY, str(tmp_path)],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == []
    assert (tmp_path / "report.json").stat().st_size > 0
