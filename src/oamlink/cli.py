"""Command-line interface: plan / simulate / experiment.  ``experiment``
writes the healing curves too (``healing_curve.csv``)."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bessel import MAX_ORDER
from .errors import ConfigError, OamLinkError
from .scenario import (default_config, is_order, link_plan, report_json,
                       run_experiment, run_scenario, scenario_from_config,
                       validate_config, write_report)


def _load_config(path):
    if path is None:
        return default_config()
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except ValueError as e:   # not JSON, or not text
            raise ConfigError("(top level)", f"{path} is not JSON: {e}") \
                from None
    return validate_config(cfg)


def _apply_overrides(cfg, args):
    if getattr(args, "mode", None) is not None:
        cfg["modes"] = [args.mode]
    if getattr(args, "seed", None) is not None:
        cfg["rx"]["noise_seed"] = args.seed
    if getattr(args, "grid", None) is not None:
        cfg["grid"]["side"] = args.grid
    if getattr(args, "snr_db", None) is not None:
        cfg["rx"]["snr_db"] = args.snr_db
    return validate_config(cfg)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_plan(args):
    cfg = _apply_overrides(_load_config(args.config), args)
    plan = link_plan(cfg)
    write_report(plan, _out_dir(args) / "plan.json")
    print(report_json(plan))


def cmd_simulate(args):
    if not is_order(args.mode):
        raise OamLinkError(f"--mode must be a nonzero integer with |l| <= "
                           f"{MAX_ORDER}, got {args.mode}")
    cfg = _apply_overrides(_load_config(args.config), args)
    out = _out_dir(args)
    s = scenario_from_config(cfg, args.mode, obstructed=not args.clear,
                             h_scale=None)
    result = run_scenario(s, dump_dir=out if args.dump_fields else None)
    summary = {
        "mode": s.order_l,
        "scenario": "clear" if args.clear else "obstructed",
        "h": [[float(v.real), float(v.imag)] for v in result.h_raw],
        "rx_power_db": result.metrics.rx_power_db,
        "rx_power_avg_db": result.metrics.rx_power_avg_db,
        "snr_db": result.metrics.snr_db,
        "combined_evm_pct": result.metrics.combined_evm_pct,
        "channel_phases_deg": result.metrics.channel_phases_deg,
    }
    write_report(summary, out / "scenario.json")
    print(report_json(summary))


def cmd_experiment(args):
    cfg = _apply_overrides(_load_config(args.config), args)
    out = _out_dir(args)
    report = run_experiment(cfg, out, out if args.dump_fields else None)
    for l, data in sorted(report["modes"].items(), key=lambda kv: int(kv[0])):
        print(f"mode {l}: d_power={data['d_power_db']:+.2f} dB  "
              f"d_snr={data['d_snr_db_mean']:+.2f} dB  "
              f"d_evm={data['d_evm_pct_mean']:+.2f} pct  "
              f"similarity@final={data['final_similarity']:.3f}")
    print(f"report written to {Path(args.out) / 'report.json'}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oamlink",
        description="Simulate self-healing OAM millimeter-wave links")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=str, default=None,
                       help="JSON experiment config (defaults are built in)")
        p.add_argument("--out", type=str, default="out",
                       help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the noise seed")
        p.add_argument("--grid", type=int, default=None,
                       help="override the grid side length")
        p.add_argument("--snr-db", dest="snr_db", type=float, default=None,
                       help="override the configured RX SNR")

    def dump_fields(p):
        p.add_argument("--dump-fields", action="store_true",
                       help="write field snapshots")

    p = sub.add_parser("plan", help="derive the link geometry")
    common(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("simulate", help="run a single scenario")
    common(p)
    dump_fields(p)
    p.add_argument("--mode", type=int, default=2, help="OAM order")
    p.add_argument("--clear", action="store_true",
                   help="run without the obstruction")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("experiment", help="run the clear/obstructed matrix")
    common(p)
    dump_fields(p)
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (OamLinkError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
