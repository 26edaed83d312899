"""The benchmark's workloads: the configs each one hands the program, the
pass it times, and the outputs its correctness check reads back.

Both are propagation-bound (``propagate`` takes 89% and 84% of a pass on a
2-core x86-64 host) but exercise different mechanisms:

* ``matrix_default`` -- ``run_experiment`` on the default config as
  ``oamlink experiment`` runs it: orders 2 and 4, 1024^2 grid over 12 m,
  10 analysis planes, one noise seed, writing ``report.json``,
  ``healing_curve.csv`` and ``correlations.csv``.  Clear and obstructed
  beams advance in lockstep past the mask (what batching would exploit);
  hop lengths vary; it is the only one with analysis planes, link-plan
  derivation, report writing and a receive-channel re-run.
* ``scenario_sweep`` -- the ``oamlink simulate`` path, ``run_scenario`` for
  orders 1..6 x {clear, obstructed} on the default grid.  Every hop is
  10 m, so 98% of ``propagate`` calls repeat a transfer-function key; no
  beam has a partner at the same plane; six ring radii, four of them from
  the Bessel matching; no analysis planes and no files written.

The benchmark seed selects the receiver noise seed (``rx.noise_seed``); the
program sees only the generated config.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path

NAMES = ("matrix_default", "scenario_sweep")

# Reference outputs are recorded for this many noise seeds per workload.
NOISE_SEED_SLOTS = 16
NOISE_SEED_BASE = 1001
SWEEP_ORDERS = range(1, 7)
EXPERIMENT_OUTPUTS = ("d_power_db", "d_snr_db_mean", "d_evm_pct_mean",
                      "final_similarity", "h_clear", "h_obstructed")


def noise_seed(seed: int) -> int:
    return NOISE_SEED_BASE + seed % NOISE_SEED_SLOTS


def config(name: str, seed: int, smoke: bool = False) -> dict:
    """Partial config, merged over the program's defaults, for one pass.

    ``smoke`` shrinks the grid so the benchmark's own code can be exercised
    in seconds."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}")
    cfg = {"rx": {"noise_seed": noise_seed(seed)}}
    if smoke:
        cfg["grid"] = {"side": 64}
    return cfg


def setup(oamlink, cfg: dict) -> dict:
    """What every run pays before any field work: config validation and
    pilot generation."""
    full = oamlink.validate_config(cfg)
    rx = full["rx"]
    oamlink.generate_pilot(rx["pilot_seed"], rx["pilot_symbols"])
    return full


def run_pass(name: str, oamlink, cfg: dict, full: dict, out_dir: Path):
    """The timed work.  Calls go through module attributes so that traced
    wrappers, when installed, are the ones called."""
    scenario = oamlink.scenario
    if name == "scenario_sweep":
        return [scenario.run_scenario(scenario.scenario_from_config(
                    full, l, obstructed, h_scale=None))
                for l in SWEEP_ORDERS for obstructed in (False, True)]
    return scenario.run_experiment(cfg, out_dir=out_dir)


def _csv_rows(path: Path) -> int:
    with open(path, newline="") as fh:
        return sum(1 for _ in csv.reader(fh)) - 1


def outputs(name: str, result, out_dir: Path):
    """The checked outputs of one pass, read back from what it wrote."""
    if name == "scenario_sweep":
        return [{"mode": r.scenario.order_l,
                 "scenario": "clear" if r.scenario.obstruction is None
                 else "obstructed",
                 "h_raw": [[float(v.real), float(v.imag)] for v in r.h_raw],
                 "metrics": dataclasses.asdict(r.metrics)}
                for r in result]
    with open(out_dir / "report.json") as fh:
        report = json.load(fh)
    return {
        "modes": {l: {k: m[k] for k in EXPERIMENT_OUTPUTS}
                  for l, m in report["modes"].items()},
        "csv_rows": {f: _csv_rows(out_dir / f) for f in
                     ("healing_curve.csv", "correlations.csv")},
    }
