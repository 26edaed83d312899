"""Scenario runner: binds synthesis, propagation, analysis and the receive
chain into the clear-versus-obstructed experiment matrix, with JSON/CSV
reporting."""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .analysis import HealingCurve
from .beams import SourceRing, matched_radius, source_spectrum
from .bessel import MAX_ORDER
from .errors import ChannelError, ConfigError, OamLinkError
from .field import FieldSpectrum, write_field
from .link_design import (LinkBudget, compare_with_reference, derive_link,
                          max_beam_radius)
from .propagation import (ObstructionMask, advance_beams, apply_mask,
                          propagate_to, sample_points, spectrum_field)
from .rxchain import (MIN_PILOT_SYMBOLS, ChannelSnapshot, compute_metrics,
                      generate_pilot, noise_sigma, receive)
from .wavevector import beam_radius_at, healing_prediction, wavevectors_at

_REFERENCE_RING = (2, 0.149)   # order and radius every unmatched mode scales from
# The ``ring_radii_m`` keys ``ring_radius_for`` can look up: str(l) for every
# nonzero order with |l| <= MAX_ORDER.
_ORDER_KEYS = frozenset(str(l) for l in range(-MAX_ORDER, MAX_ORDER + 1) if l)


def default_config() -> dict:
    """Every physical default written out explicitly."""
    return {
        "link": {
            "bandwidth_hz": 20e6,
            "num_modes": 5,
            "distance_m": 50.0,
            "rx_spacing_m": 0.20,
            "digital_if_hz": 983.04e6,
            "rf_hz": 28e9,
            "beam_radius_m": 0.87,
            "wavelength_override_m": None,
        },
        "modes": [2, 4],
        # Ring radii of the experimental link.  0.218 m is the as-built ring
        # for order 4; exact Bessel matching to the order-2 ring gives 0.259 m.
        "ring_radii_m": {"2": 0.149, "4": 0.218},
        "ring_elements": 238,
        "grid": {
            "side": 1024,
            "extent_m": 12.0,
            "theta_max_deg": 5.0,
            "max_step_m": 10.0,
            "edge_margin": 0.05,
        },
        # Person-on-a-stepladder scale absorber over the lower arc of the
        # beam annulus.  Only the position is known for the modeled link;
        # the cross-section is a declared default, not ground truth.
        "obstruction": {
            "enabled": True,
            "shape": "rectangle",
            "width_m": 1.2,
            "height_m": 1.6,
            "center_x_m": 0.0,
            "center_y_m": -0.5,
            "z_m": 10.0,
            "transmittance": 0.0,
        },
        "receiver": {
            "num_antennas": 4,
            "spacing_m": 0.14,
            "theta_deg": 1.0,
        },
        "rx": {
            "snr_db": 20.0,
            "pilot_symbols": 2048,
            "pilot_seed": 7,
            "noise_seed": 1001,
            "num_noise_seeds": 1,
            "guard_samples": 64,
        },
        "healing": {
            "z_samples_m": [11.0, 15.0, 20.0, 25.0, 30.0,
                            35.0, 40.0, 45.0, 50.0],
            "max_mode": 8,
        },
    }


def _require(cfg: dict, path: str, kind):
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(path, "missing")
        node = node[part]
    if isinstance(node, bool) and kind is not bool:
        raise ConfigError(path, f"expected {kind.__name__}, got bool")
    if kind is float and isinstance(node, int):
        node = float(node)
    if not isinstance(node, kind):
        raise ConfigError(path, f"expected {kind.__name__}, got {type(node).__name__}")
    return node


def _positive_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and 0 < value < math.inf


def validate_config(cfg: dict) -> dict:
    """Fill a user config over the defaults and type-check the result."""
    merged = default_config()

    def deep_merge(base, extra, prefix=""):
        for key, value in extra.items():
            if prefix == "ring_radii_m." and key not in _ORDER_KEYS:
                raise ConfigError(f"{prefix}{key}", f"unknown field: an order "
                                  f"key is a nonzero integer with |l| <= "
                                  f"{MAX_ORDER}")
            if key not in base and prefix != "ring_radii_m.":
                raise ConfigError(f"{prefix}{key}", "unknown field")
            if isinstance(base.get(key), dict) and isinstance(value, dict):
                deep_merge(base[key], value, prefix + key + ".")
            else:
                base[key] = value

    deep_merge(merged, cfg or {})
    for path, kind in [
        ("link.bandwidth_hz", float), ("link.distance_m", float),
        ("link.rx_spacing_m", float), ("link.digital_if_hz", float),
        ("link.rf_hz", float), ("link.beam_radius_m", float),
        ("link.num_modes", int),
        ("modes", list), ("ring_elements", int),
        ("grid.side", int), ("grid.extent_m", float),
        ("grid.theta_max_deg", float), ("grid.max_step_m", float),
        ("grid.edge_margin", float),
        ("obstruction.enabled", bool), ("obstruction.shape", str),
        ("obstruction.width_m", float), ("obstruction.height_m", float),
        ("obstruction.center_x_m", float), ("obstruction.center_y_m", float),
        ("obstruction.z_m", float), ("obstruction.transmittance", float),
        ("receiver.num_antennas", int), ("receiver.spacing_m", float),
        ("receiver.theta_deg", float),
        ("rx.snr_db", float), ("rx.pilot_symbols", int),
        ("rx.pilot_seed", int), ("rx.noise_seed", int),
        ("rx.num_noise_seeds", int), ("rx.guard_samples", int),
        ("healing.z_samples_m", list), ("healing.max_mode", int),
    ]:
        value = _require(merged, path, kind)
        # rx.snr_db = +inf is a noiseless run; its other values are checked
        # with the noise scale below
        if kind is float and path != "rx.snr_db" and not math.isfinite(value):
            raise ConfigError(path, f"must be finite, got {value!r}")
    radii = merged["ring_radii_m"]
    if not isinstance(radii, dict) or not all(
            _positive_number(r) for r in radii.values()):
        raise ConfigError("ring_radii_m", f"must map each order to a positive, "
                                          f"finite radius in m, got {radii!r}")
    override = merged["link"]["wavelength_override_m"]
    if override is not None and not _positive_number(override):
        raise ConfigError("link.wavelength_override_m",
                          f"must be null or a positive, finite length in m, "
                          f"got {override!r}")
    if not merged["modes"]:
        raise ConfigError("modes", "must list at least one OAM order")
    for order in merged["modes"]:
        if isinstance(order, bool) or not isinstance(order, int) \
                or order == 0 or abs(order) > MAX_ORDER:
            raise ConfigError("modes", f"each order must be a nonzero integer "
                                       f"with |l| <= {MAX_ORDER}, got {order!r}")
    if not merged["link"]["rf_hz"] > 0:
        raise ConfigError("link.rf_hz", "must be positive")
    grid = merged["grid"]
    side = grid["side"]
    if side < 64 or side & (side - 1):
        raise ConfigError("grid.side", f"must be a power of two >= 64, got {side}")
    if not grid["extent_m"] > 0:
        raise ConfigError("grid.extent_m", "must be positive")
    if not grid["max_step_m"] > 0:
        raise ConfigError("grid.max_step_m", "must be positive")
    if not 0 < grid["theta_max_deg"] < 90:
        raise ConfigError("grid.theta_max_deg", "must lie in (0, 90) degrees")
    if not grid["edge_margin"] >= 0:
        raise ConfigError("grid.edge_margin", "must not be negative")
    if merged["receiver"]["num_antennas"] < 1:
        raise ConfigError("receiver.num_antennas", "must be at least 1")
    if merged["rx"]["num_noise_seeds"] < 1:
        raise ConfigError("rx.num_noise_seeds", "must be at least 1")
    snr_db = merged["rx"]["snr_db"]
    if math.isnan(snr_db) or snr_db == -math.inf:
        raise ConfigError("rx.snr_db", "must not be NaN or -inf")
    if snr_db != math.inf:
        try:
            sigma = float(noise_sigma(snr_db))
        except (OverflowError, ZeroDivisionError):
            sigma = math.nan
        if not (math.isfinite(sigma) and sigma > 0):
            raise ConfigError("rx.snr_db", f"{snr_db:g} dB gives no finite, "
                                           f"positive noise scale")
    for name in ("noise_seed", "pilot_seed", "guard_samples"):
        if merged["rx"][name] < 0:
            raise ConfigError("rx." + name, "must not be negative")
    if merged["rx"]["pilot_symbols"] < MIN_PILOT_SYMBOLS:
        raise ConfigError("rx.pilot_symbols",
                          f"must be at least {MIN_PILOT_SYMBOLS}")
    distance = merged["link"]["distance_m"]
    obstruction = merged["obstruction"]
    if obstruction["enabled"]:
        if not 0 < obstruction["z_m"] < distance:
            raise ConfigError("obstruction.z_m", "must lie between the source "
                                                 "and the receiver plane")
        if obstruction["shape"] not in ("disk", "rectangle"):
            raise ConfigError("obstruction.shape", f"must be 'disk' or "
                              f"'rectangle', got {obstruction['shape']!r}")
        sizes = ("width_m",) if obstruction["shape"] == "disk" \
            else ("width_m", "height_m")
        for name in sizes:
            if not obstruction[name] > 0:
                raise ConfigError("obstruction." + name, "must be positive")
        if not 0 <= obstruction["transmittance"] <= 1:
            raise ConfigError("obstruction.transmittance",
                              "must lie in [0, 1]")
    max_mode = merged["healing"]["max_mode"]
    if max_mode < max(abs(order) for order in merged["modes"]):
        raise ConfigError("healing.max_mode", f"must reach the largest |l| "
                                              f"in modes, got {max_mode}")
    z_min = obstruction["z_m"] if obstruction["enabled"] else 0.0
    planes = merged["healing"]["z_samples_m"]
    if not planes or any(isinstance(z, bool) or not isinstance(z, (int, float))
                         or not z_min < z <= distance for z in planes) \
            or any(b <= a for a, b in zip(planes, planes[1:])):
        raise ConfigError("healing.z_samples_m",
                          f"must be a non-empty, strictly increasing list of "
                          f"planes in ({z_min:g}, {distance:g}] m, got {planes!r}")
    return merged


def ring_radius_for(cfg: dict, order_l: int) -> float:
    radii = cfg["ring_radii_m"]
    key = str(order_l)
    if key in radii:
        return float(radii[key])
    ref_l, ref_r = _REFERENCE_RING
    if order_l == 0:
        raise ConfigError("modes", "order 0 has no matched ring radius")
    return matched_radius(order_l, ref_l, ref_r)


def wavelength_from(cfg: dict) -> float:
    override = cfg["link"]["wavelength_override_m"]
    if override is not None:
        return float(override)
    return 299792458.0 / cfg["link"]["rf_hz"]


def obstruction_from(cfg: dict) -> ObstructionMask | None:
    o = cfg["obstruction"]
    if not o["enabled"]:
        return None
    if o["shape"] == "disk":
        size = (float(o["width_m"]),)
    else:
        size = (float(o["width_m"]), float(o["height_m"]))
    return ObstructionMask(shape=o["shape"], center_x=float(o["center_x_m"]),
                           center_y=float(o["center_y_m"]), size=size,
                           z_position=float(o["z_m"]),
                           transmittance=float(o["transmittance"]))


def rx_positions_from(cfg: dict) -> np.ndarray:
    r = cfg["receiver"]
    n = r["num_antennas"]
    y = -cfg["link"]["distance_m"] * np.tan(np.radians(r["theta_deg"]))
    xs = (np.arange(n) - (n - 1) / 2.0) * r["spacing_m"]
    return np.column_stack([xs, np.full(n, y)])


@dataclass
class Scenario:
    """One clear or obstructed run of a single OAM order: the validated
    config, the order, the mask (None for the clear run) and the channel
    scale (None normalizes the mean |h| to 1)."""

    cfg: dict
    order_l: int
    obstruction: ObstructionMask | None
    h_scale: float | None = 1.0


@dataclass
class ScenarioResult:
    scenario: Scenario
    h_raw: np.ndarray
    channel: ChannelSnapshot
    metrics: object
    fields: dict = dc_field(default_factory=dict)


def scenario_from_config(cfg: dict, order_l: int, obstructed: bool,
                         h_scale: float | None = 1.0) -> Scenario:
    return Scenario(cfg=cfg, order_l=order_l,
                    obstruction=obstruction_from(cfg) if obstructed else None,
                    h_scale=h_scale)


@contextmanager
def _stage(name: str):
    """Prefix a simulator error raised inside with the stage ``[name]`` and
    record it as ``err.stage``; an inner stage's label is kept."""
    try:
        yield
    except OamLinkError as err:
        if getattr(err, "stage", None) is None:
            err.stage = name
            err.args = (f"[{name}] {err.args[0] if err.args else ''}",)
        raise


def _source_spectrum(cfg: dict, order_l: int) -> FieldSpectrum:
    """The order's ring at the source plane, as its spectrum band-limited to
    the cone."""
    with _stage("synthesis"):
        ring = SourceRing(radius_r=ring_radius_for(cfg, order_l),
                          num_elements_N=cfg["ring_elements"], order_l=order_l)
        grid = cfg["grid"]
        return source_spectrum(ring, grid["side"], grid["extent_m"],
                               wavelength_from(cfg),
                               float(np.radians(grid["theta_max_deg"])))


def _unit_scale(h: np.ndarray, order_l: int) -> float:
    """The factor that brings the mean |h| of a channel to 1."""
    mean_mag = float(np.mean(np.abs(h)))
    if not mean_mag > 0:
        raise ChannelError(f"mode {order_l}: channel has zero magnitude")
    return 1.0 / mean_mag


def run_scenario(s: Scenario, keep_fields: bool = False) -> ScenarioResult:
    """End-to-end run: the field from the ring to the receiver plane, then
    the receive chain.  The one beam is stepped to the mask, through it
    and on to the receiver; the unmasked field is dropped once the mask is
    applied.  ``keep_fields`` keeps the source, mask-plane and
    receiver-plane fields in ``fields``."""
    cfg, grid, rx = s.cfg, s.cfg["grid"], s.cfg["rx"]
    max_step, margin = grid["max_step_m"], grid["edge_margin"]
    mask = s.obstruction
    beam = _source_spectrum(cfg, s.order_l)
    fields = {"source": spectrum_field(beam)} if keep_fields else {}
    with _stage("propagation"):
        if mask is not None:
            beam = propagate_to(beam, mask.z_position, max_step, margin)
            beam = apply_mask(beam, mask)
            if keep_fields:
                fields["obstruction_plane"] = beam
        beam = propagate_to(beam, cfg["link"]["distance_m"], max_step,
                            margin)
        if keep_fields:
            fields["receiver_plane"] = beam
    with _stage("sampling"):
        h_raw = sample_points(beam, rx_positions_from(cfg))
    label = "obstructed" if mask is not None else "clear"
    with _stage("rx_chain"):
        scale = _unit_scale(h_raw, s.order_l) if s.h_scale is None \
            else s.h_scale
        chan = ChannelSnapshot(h=h_raw * scale, scenario_label=label,
                               mode=s.order_l)
        pilot = generate_pilot(rx["pilot_seed"], rx["pilot_symbols"])
        _, _, report = receive(chan, pilot, rx["snr_db"], rx["noise_seed"],
                               guard_samples=rx["guard_samples"])
    return ScenarioResult(scenario=s, h_raw=h_raw, channel=chan,
                          metrics=report, fields=fields)


def link_plan(cfg: dict) -> dict:
    """Derived link geometry of a validated config, as ``oamlink plan``
    writes it and ``report.json`` carries it."""
    link = cfg["link"]
    budget = LinkBudget(bandwidth_B=link["bandwidth_hz"],
                        num_modes_K=link["num_modes"],
                        link_distance_L=link["distance_m"],
                        rx_spacing_d=link["rx_spacing_m"],
                        digital_if_F=link["digital_if_hz"],
                        rf_frequency=link["rf_hz"])
    derived = derive_link(budget, link["beam_radius_m"],
                          wavelength=link["wavelength_override_m"])
    return {
        "max_beam_radius_m": max_beam_radius(budget),
        "beam_radius_m": derived.beam_radius_R,
        "wavelength_m": derived.wavelength_lambda,
        "tx_radius_m": derived.tx_radius_r,
        "far_field_m": derived.far_field_L_far,
        "num_elements": derived.num_elements_N,
        "reference_comparison": compare_with_reference(
            derive_link(budget, 0.87, wavelength=0.011)),
    }


def _complex_list(values) -> list:
    return [[float(v.real), float(v.imag)] for v in np.asarray(values)]


def run_experiment(cfg: dict, out_dir=None, dump_fields: bool = False) -> dict:
    """Run the (modes) x (clear, obstructed) matrix and assemble the report.

    Clear line-of-sight channel magnitudes are equalized across modes before
    the obstructed comparison, mirroring the equal-received-level calibration
    of the modeled experiment.
    """
    cfg = validate_config(cfg)
    lam = wavelength_from(cfg)
    k = 2.0 * np.pi / lam
    mask = obstruction_from(cfg)
    z_samples = [float(z) for z in cfg["healing"]["z_samples_m"]]
    L = cfg["link"]["distance_m"]
    if z_samples[-1] != L:
        z_samples = z_samples + [L]
    pilot = generate_pilot(cfg["rx"]["pilot_seed"], cfg["rx"]["pilot_symbols"])
    with _stage("link_plan"):
        plan = link_plan(cfg)

    report = {
        "tool": {"name": "oamlink", "version": __version__,
                 "numpy": np.__version__, "scipy": scipy.__version__},
        "config": cfg,
        "link_plan": plan,
        "modes": {},
        "prediction": {},
    }

    modes = [int(l) for l in cfg["modes"]]
    dump_dir = Path(out_dir) if dump_fields and out_dir is not None else None
    traces = []
    for l in modes:
        report["modes"][str(l)], pair = _run_order(cfg, l, mask, z_samples,
                                                   pilot, dump_dir)
        traces += pair

    # Model-side prediction, kept separate from the simulated outcome.
    r_at_l = {l: beam_radius_at(L, l, ring_radius_for(cfg, l), k)
              for l in modes}
    report["prediction"] = {
        "tangential_wavevector_rad_per_m": {
            str(l): wavevectors_at(r_at_l[l], lam, l).k_T for l in modes},
        "healing_order_most_to_least": [
            str(l) for l in sorted(modes, key=lambda l: -abs(l))],
    }
    if len(modes) >= 2:
        winner = healing_prediction(modes[0], modes[1], r_at_l[modes[0]])
        report["prediction"]["better_of_first_two"] = \
            None if winner is None else str(winner)

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_report(report, out / "report.json")
        write_healing_csv(report, out / "healing_curve.csv")
        write_correlations_csv(traces, out / "correlations.csv")
    return report


def _run_order(cfg: dict, l: int, mask, z_samples, pilot, dump_dir):
    """One order of the matrix: the clear and obstructed beams through the
    analysis planes, sharing the hop to the mask, with the healing curve on
    the way; then their channels at the last plane, equalized, through the
    receive chain.  The last-plane fields go to ``dump_dir`` unless it is
    None.  Returns the order's report entry and the (channel, correlation
    traces) pairs of the clear and obstructed runs at the first noise
    seed."""
    grid, rx = cfg["grid"], cfg["rx"]
    walk = advance_beams(_source_spectrum(cfg, l), mask, z_samples,
                         grid["max_step_m"], grid["edge_margin"])
    radius = ring_radius_for(cfg, l)
    curve = HealingCurve(z_values=[], similarity=[], mode_purity=[])
    with _stage("propagation"):
        for z, clear, obst in walk:
            with _stage("sampling"):
                curve.add(z, clear, obst, l, radius,
                          cfg["healing"]["max_mode"])
    with _stage("sampling"):
        positions = rx_positions_from(cfg)
        h_clear = sample_points(clear, positions)
        h_obst = sample_points(obst, positions) if obst is not None \
            else h_clear

    if dump_dir is not None:
        dump_dir.mkdir(parents=True, exist_ok=True)
        write_field(clear, dump_dir / f"field_l{l}_clear_z{clear.z_position:g}.oamf")
        if obst is not None:
            write_field(obst, dump_dir / f"field_l{l}_obstructed_z{obst.z_position:g}.oamf")

    with _stage("rx_chain"):
        # Equalize clear-LOS mean |h| across modes to a common unit reference.
        scale = _unit_scale(h_clear, l)
        h_clear = h_clear * scale
        h_obst = h_obst * scale
        chan_clear = ChannelSnapshot(h_clear, "clear", l)
        chan_obst = ChannelSnapshot(h_obst, "obstructed", l)
        seed_deltas = []
        for i in range(rx["num_noise_seeds"]):
            seed = rx["noise_seed"] + i
            traces_clear, _, rep_clear = receive(
                chan_clear, pilot, rx["snr_db"], seed,
                guard_samples=rx["guard_samples"])
            traces_obst, _, rep_obst = receive(
                chan_obst, pilot, rx["snr_db"], seed,
                guard_samples=rx["guard_samples"])
            if i == 0:
                traces = [(chan_clear, traces_clear), (chan_obst, traces_obst)]
            deltas = compute_metrics(rep_clear, rep_obst)
            deltas["noise_seed"] = seed
            seed_deltas.append(deltas)

    power_clear = float(np.mean(np.abs(h_clear) ** 2))
    power_obst = float(np.mean(np.abs(h_obst) ** 2))
    entry = {
        "ring_radius_m": radius,
        "h_clear": _complex_list(h_clear),
        "h_obstructed": _complex_list(h_obst),
        "d_power_db": 10.0 * np.log10(power_obst / power_clear),
        "noise_runs": seed_deltas,
        "d_snr_db_mean": float(np.mean([d["d_snr_db"] for d in seed_deltas])),
        "d_evm_pct_mean": float(np.mean([d["d_evm_pct"] for d in seed_deltas])),
        "healing_curve": {
            "z_m": curve.z_values,
            "similarity": curve.similarity,
            "mode_purity": curve.mode_purity,
        },
        "final_similarity": curve.similarity[-1],
    }
    return entry, traces


def write_report(report: dict, path):
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_healing_csv(report: dict, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mode", "z_m", "similarity", "mode_purity"])
        for l in sorted(report["modes"], key=int):
            curve = report["modes"][l]["healing_curve"]
            for z, s, p in zip(curve["z_m"], curve["similarity"],
                               curve["mode_purity"]):
                writer.writerow([l, z, s, p])


def write_correlations_csv(traces, path):
    """One row per lag of each antenna's pilot correlation; ``traces`` holds
    (channel, per-antenna correlation traces) pairs."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mode", "scenario", "antenna", "lag", "magnitude"])
        for chan, chan_traces in traces:
            for i, trace in enumerate(chan_traces):
                for lag, mag in zip(trace.lags, trace.magnitude):
                    writer.writerow([chan.mode, chan.scenario_label, i + 1,
                                     int(lag), float(mag)])
