"""Scenario runner: binds synthesis, propagation, analysis and the receive
chain into the clear-versus-obstructed experiment matrix, with JSON/CSV
reporting."""

from __future__ import annotations

import csv
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import HealingCurve
from .beams import SourceRing, matched_radius, source_spectrum
from .bessel import MAX_ORDER
from .errors import ChannelError, ConfigError, OamLinkError
from .field import FieldSpectrum, write_field
from .link_design import (REFERENCE_REPORTED, SPEED_OF_LIGHT, LinkBudget,
                          compare_with_reference, derive_link, max_beam_radius)
from .propagation import (ObstructionMask, apply_mask, propagate_to,
                          sample_at, sample_points, spectrum_field)
from .rxchain import (MIN_PILOT_SYMBOLS, ChannelSnapshot, compute_metrics,
                      generate_pilot, noise_sigma, receive)
from .wavevector import beam_radius_at, wavevectors_at

_REFERENCE_RING = (2, 0.149)   # order and radius every unmatched mode scales from


def is_order(l) -> bool:
    """Whether ``l`` is an OAM order a run can take: a nonzero int, not a
    bool, with |l| <= MAX_ORDER."""
    return isinstance(l, int) and not isinstance(l, bool) \
        and 0 < abs(l) <= MAX_ORDER


# The ``ring_radii_m`` keys ``ring_radius_for`` can look up: str(l) of every
# order.
_ORDER_KEYS = frozenset(str(l) for l in range(-MAX_ORDER, MAX_ORDER + 1)
                        if is_order(l))


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
        },
    }


def _positive_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and 0 < value < math.inf


def _has_noise_scale(snr_db) -> bool:
    """+inf is a noiseless run; far from 0 dB, 10**(snr_db/10) underflows
    to 0 or overflows, and the noise scale is then no positive number."""
    if snr_db == math.inf:
        return True
    try:
        sigma = float(noise_sigma(snr_db))
    except (OverflowError, ZeroDivisionError):
        return False
    return math.isfinite(sigma) and sigma > 0


def _check_type(path: str, value, default) -> None:
    """``value`` must have the type of ``default``: an int is taken for a
    float, a bool never for a number, and a float must be finite (an int
    too, as a float), except ``rx.snr_db = +inf``."""
    kind = type(default)
    if isinstance(value, bool) != (kind is bool) or not isinstance(
            value, (int, float) if kind is float else kind):
        raise ConfigError(path, f"expected {kind.__name__}, "
                                f"got {type(value).__name__}")
    if kind is float and not (abs(value) <= sys.float_info.max or
                              path == "rx.snr_db" and value == math.inf):
        raise ConfigError(path, f"must be finite, got {value!r}")


# Sizes past these fail here, by field, not mid-run in numpy or in a loop
# that does not end: a run holds about 2.4 padded grids (2.5 GiB at 8192^2);
# 2**18 pilot symbols are 16 MiB of stream per antenna; 2**16 guard samples
# (0.5 ms) and ring elements are far past a 50 m hop's delay and the 238
# elements of the modelled ring; each noise seed is two receive passes; the
# walk to the receiver takes link.distance_m / grid.max_step_m steps (5 by
# default), and each analysis plane at least one more per beam.
_MAX_SIDE, _MAX_PILOT_SYMBOLS, _MAX_GUARD_SAMPLES = 2 ** 13, 2 ** 18, 2 ** 16
_MAX_RING_ELEMENTS, _MAX_NOISE_SEEDS = 2 ** 16, 1000
_MAX_STEPS, _MAX_PLANES = 10_000, 1000

# The rules of a single field, checked in this order once every value has
# its default's type: (path, test, message).  The obstruction's rows hold
# only while the mask is enabled.
_RULES = [
    ("ring_radii_m", lambda v: all(map(_positive_number, v.values())),
     "must map each order to a positive, finite radius in m"),
    ("link.wavelength_override_m", lambda v: v is None or _positive_number(v),
     "must be null or a positive, finite length in m"),
    ("modes", lambda v: v and all(map(is_order, v)) and len(set(v)) == len(v),
     f"must list distinct orders, each a nonzero integer with "
     f"|l| <= {MAX_ORDER}"),
    ("link.rf_hz", lambda v: v > 0, "must be positive"),
    ("link.num_modes", lambda v: v >= 2, "must be at least 2"),
    ("link.rx_spacing_m", lambda v: v > 0, "must be positive"),
    ("link.distance_m", lambda v: v > 0, "must be positive"),
    ("grid.side", lambda v: 64 <= v <= _MAX_SIDE and not v & (v - 1),
     f"must be a power of two in [64, {_MAX_SIDE}]"),
    ("grid.max_step_m", lambda v: v > 0, "must be positive"),
    ("grid.theta_max_deg", lambda v: 0 < v < 90, "must lie in (0, 90) degrees"),
    ("grid.edge_margin", lambda v: 0 <= v <= 0.5, "must lie in [0, 0.5]"),
    ("receiver.num_antennas", lambda v: v >= 1, "must be at least 1"),
    ("rx.num_noise_seeds", lambda v: 1 <= v <= _MAX_NOISE_SEEDS,
     f"must lie in [1, {_MAX_NOISE_SEEDS}]"),
    ("rx.snr_db", _has_noise_scale, "must give a finite, positive noise scale"),
    ("rx.noise_seed", lambda v: v >= 0, "must not be negative"),
    ("rx.pilot_seed", lambda v: v >= 0, "must not be negative"),
    ("rx.guard_samples", lambda v: 0 <= v <= _MAX_GUARD_SAMPLES,
     f"must lie in [0, {_MAX_GUARD_SAMPLES}]"),
    ("rx.pilot_symbols",
     lambda v: MIN_PILOT_SYMBOLS <= v <= _MAX_PILOT_SYMBOLS,
     f"must lie in [{MIN_PILOT_SYMBOLS}, {_MAX_PILOT_SYMBOLS}]"),
    ("ring_elements", lambda v: v <= _MAX_RING_ELEMENTS,
     f"must be at most {_MAX_RING_ELEMENTS}"),
    ("obstruction.shape", lambda v: v in ("disk", "rectangle"),
     "must be 'disk' or 'rectangle'"),
    ("obstruction.width_m", lambda v: v > 0, "must be positive"),
    ("obstruction.transmittance", lambda v: 0 <= v <= 1, "must lie in [0, 1]"),
]


def validate_config(cfg: dict) -> dict:
    """Fill a user config over the defaults and check the result, in three
    passes: each value given against the type of its default, as it is
    merged; then the single-field rules of ``_RULES``; then the rules that
    tie fields together.  The first rule broken raises a ``ConfigError``
    naming its field."""
    if cfg is not None and not isinstance(cfg, dict):
        raise ConfigError("(top level)", f"expected an object of config "
                                         f"sections, got {type(cfg).__name__}")
    merged = default_config()

    def deep_merge(base, extra, prefix=""):
        for key, value in extra.items():
            path, default = f"{prefix}{key}", base.get(key)
            if prefix == "ring_radii_m.":   # free keys; a rule checks values
                if key not in _ORDER_KEYS:
                    raise ConfigError(path, f"unknown field: an order key is "
                                            f"a nonzero integer with |l| <= "
                                            f"{MAX_ORDER}")
            elif key not in base:
                raise ConfigError(path, "unknown field")
            elif isinstance(default, dict):
                if not isinstance(value, dict):
                    raise ConfigError(path, f"expected an object, "
                                            f"got {type(value).__name__}")
                deep_merge(default, value, path + ".")
                continue
            elif default is not None:
                _check_type(path, value, default)
            base[key] = value

    deep_merge(merged, cfg or {})
    obstruction = merged["obstruction"]
    for path, test, message in _RULES:
        section, _, key = path.partition(".")
        if section == "obstruction" and not obstruction["enabled"]:
            continue
        value = merged[section][key] if key else merged[section]
        if not test(value):
            raise ConfigError(path, f"{message}, got {value!r}")

    link, grid, modes = merged["link"], merged["grid"], merged["modes"]
    distance, max_step = link["distance_m"], grid["max_step_m"]
    # the float ratio: its ceil raises OverflowError once it is inf
    if distance / max_step > _MAX_STEPS:
        raise ConfigError("grid.max_step_m", f"must be at least link.distance_m"
                          f" / {_MAX_STEPS}, a walk of at most {_MAX_STEPS} "
                          f"steps: got {max_step!r} m for a {distance:g} m link")
    widest = max(abs(order) for order in modes)
    if merged["ring_elements"] <= 2 * widest:
        raise ConfigError("ring_elements", f"must exceed 2|l| = {2 * widest} "
                                           f"to carry every order of the run")
    if not 0 < link["bandwidth_hz"] < link["digital_if_hz"]:
        raise ConfigError("link.bandwidth_hz", f"must be positive and below "
                                               f"link.digital_if_hz "
                                               f"({link['digital_if_hz']:g})")
    if obstruction["enabled"]:
        if not 0 < obstruction["z_m"] < distance:
            raise ConfigError("obstruction.z_m", "must lie between the source "
                                                 "and the receiver plane")
        if obstruction["shape"] == "rectangle" \
                and not obstruction["height_m"] > 0:
            raise ConfigError("obstruction.height_m", "must be positive")
    z_min = obstruction["z_m"] if obstruction["enabled"] else 0.0
    planes = merged["healing"]["z_samples_m"]
    if len(planes) > _MAX_PLANES:
        raise ConfigError("healing.z_samples_m", f"must hold at most "
                          f"{_MAX_PLANES} planes, got {len(planes)}")
    if not planes or any(isinstance(z, bool) or not isinstance(z, (int, float))
                         or not z_min < z <= distance for z in planes) \
            or any(b <= a for a, b in zip(planes, planes[1:])):
        raise ConfigError("healing.z_samples_m",
                          f"must be a non-empty, strictly increasing list of "
                          f"planes in ({z_min:g}, {distance:g}] m, got {planes!r}")
    bound = max_beam_radius(_link_budget(merged))
    if not 0 < link["beam_radius_m"] < bound:
        raise ConfigError("link.beam_radius_m", f"must lie in (0, d*F/(2B)) = "
                                                f"(0, {bound:g}) m")
    extent, side = grid["extent_m"], grid["side"]
    for order in modes:
        radius = ring_radius_for(merged, order)
        if extent < 4.0 * radius:   # also a grid.extent_m <= 0
            raise ConfigError("grid.extent_m", f"must be at least 4x the ring "
                              f"radius, {radius:g} m for order {order}")
    # the row's length, before any position, then sample_points's test
    if merged["receiver"]["num_antennas"] > side:
        raise ConfigError("receiver.num_antennas",
                          f"must not exceed grid.side ({side})")
    at = rx_positions_from(merged) / (extent / side) + side // 2
    for axis, path in ((1, "receiver.theta_deg"), (0, "receiver.spacing_m")):
        if not np.all((at[:, axis] >= 0) & (at[:, axis] <= side - 1)):
            raise ConfigError(path, f"puts an antenna off the {extent:g} m grid")
    return merged


def ring_radius_for(cfg: dict, order_l: int) -> float:
    radii = cfg["ring_radii_m"]
    key = str(order_l)
    if key in radii:
        return float(radii[key])
    return matched_radius(order_l, *_REFERENCE_RING)


def wavelength_from(cfg: dict) -> float:
    override = cfg["link"]["wavelength_override_m"]
    if override is not None:
        return float(override)
    return SPEED_OF_LIGHT / cfg["link"]["rf_hz"]


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
    y = -cfg["link"]["distance_m"] * np.tan(np.radians(float(r["theta_deg"])))
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


def run_scenario(s: Scenario, dump_dir: Path | None = None) -> ScenarioResult:
    """End-to-end run: the field from the ring to the receiver plane, then
    the receive chain.  The one beam is launched to the mask, masked and
    stepped on to the receiver in the one grid its launch made
    (``in_place``); without ``dump_dir`` the last step finishes the
    receiver's rows alone (``sample_at``).  With it, each plane is written
    there as the beam passes it: ``source.oamf`` before the launch,
    ``obstruction_plane.oamf`` once masked (obstructed runs only) and
    ``receiver_plane.oamf`` after the full last step, so no field is held
    beside the beam.  A run that fails keeps the snapshots it wrote."""
    cfg, grid, rx = s.cfg, s.cfg["grid"], s.cfg["rx"]
    max_step, margin = grid["max_step_m"], grid["edge_margin"]
    mask = s.obstruction
    positions = rx_positions_from(cfg)
    beam = _source_spectrum(cfg, s.order_l)
    if dump_dir is not None:
        dump_dir.mkdir(parents=True, exist_ok=True)
        write_field(spectrum_field(beam), dump_dir / "source.oamf")
    with _stage("propagation"):
        if mask is not None:
            beam = propagate_to(beam, mask.z_position, max_step, margin)
            beam = apply_mask(beam, mask, in_place=True)
            if dump_dir is not None:
                write_field(beam, dump_dir / "obstruction_plane.oamf")
        z = cfg["link"]["distance_m"]
        if dump_dir is None:
            h_raw = sample_at(beam, z, positions, max_step, margin,
                              in_place=True)
        else:
            beam = propagate_to(beam, z, max_step, margin, in_place=True)
            write_field(beam, dump_dir / "receiver_plane.oamf")
            with _stage("sampling"):
                h_raw = sample_points(beam, positions)
    label = "obstructed" if mask is not None else "clear"
    with _stage("rx_chain"):
        scale = _unit_scale(h_raw, s.order_l) if s.h_scale is None \
            else s.h_scale
        chan = ChannelSnapshot(h=h_raw * scale, scenario_label=label,
                               mode=s.order_l)
        pilot = generate_pilot(rx["pilot_seed"], rx["pilot_symbols"])
        _, _, report = receive(chan, pilot, rx["snr_db"], rx["noise_seed"],
                               guard_samples=rx["guard_samples"])
    return ScenarioResult(scenario=s, h_raw=h_raw, channel=chan, metrics=report)


def _link_budget(cfg: dict) -> LinkBudget:
    link = cfg["link"]
    return LinkBudget(bandwidth_B=link["bandwidth_hz"],
                      num_modes_K=link["num_modes"],
                      link_distance_L=link["distance_m"],
                      rx_spacing_d=link["rx_spacing_m"],
                      digital_if_F=link["digital_if_hz"],
                      rf_frequency=link["rf_hz"])


def link_plan(cfg: dict) -> dict:
    """Derived link geometry of a validated config, as ``oamlink plan``
    writes it and ``report.json`` carries it."""
    link = cfg["link"]
    budget = _link_budget(cfg)
    derived = derive_link(budget, link["beam_radius_m"],
                          wavelength=link["wavelength_override_m"])
    return {
        "max_beam_radius_m": max_beam_radius(budget),
        "beam_radius_m": derived.beam_radius_R,
        "wavelength_m": derived.wavelength_lambda,
        "tx_radius_m": derived.tx_radius_r,
        "far_field_m": derived.far_field_L_far,
        "num_elements": derived.num_elements_N,
        "reference_comparison": compare_with_reference(derive_link(
            budget, REFERENCE_REPORTED["beam_radius_operating_m"],
            wavelength=REFERENCE_REPORTED["wavelength_m"])),
    }


def _complex_list(values) -> list:
    return [[float(v.real), float(v.imag)] for v in np.asarray(values)]


def run_experiment(cfg: dict, out_dir=None, dump_dir=None) -> dict:
    """Run the (modes) x (clear, obstructed) matrix and assemble the report.

    Clear line-of-sight channel magnitudes are equalized across modes before
    the obstructed comparison, mirroring the equal-received-level calibration
    of the modeled experiment.  The report and its CSVs go to ``out_dir``,
    each order's last-plane fields to the ``Path`` ``dump_dir``; either may
    be None.
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

    modes = [int(l) for l in cfg["modes"]]
    report = {
        "tool": {"name": "oamlink", "version": __version__,
                 "numpy": np.__version__},
        "config": cfg,
        "link_plan": plan,
        "modes": {},
        # the model's side, kept apart from the simulated outcome
        "prediction": {"tangential_wavevector_rad_per_m": {
            str(l): wavevectors_at(beam_radius_at(
                L, l, ring_radius_for(cfg, l), k), lam, l).k_T
            for l in modes}},
    }
    traces = []
    for l in modes:
        report["modes"][str(l)], pair = _run_order(cfg, l, mask, z_samples,
                                                   pilot, dump_dir)
        traces += pair

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_report(report, out / "report.json")
        write_healing_csv(report, out / "healing_curve.csv")
        write_correlations_csv(traces, out / "correlations.csv")
    return report


def _run_order(cfg: dict, l: int, mask, z_samples, pilot, dump_dir):
    """One order of the matrix: the clear and obstructed beams through the
    analysis planes, sharing the launch to the mask, with the healing curve
    on the way; then their channels at the last plane, equalized, through
    the receive chain.  From the mask, where the obstructed beam is split
    off as a masked copy, each beam steps in its own grid (``in_place``),
    the clear one first.  The last-plane fields go to ``dump_dir`` unless it
    is None.  Returns the order's report entry and the (channel, correlation
    traces) pairs of the clear and obstructed runs at the first noise
    seed."""
    grid, rx = cfg["grid"], cfg["rx"]
    max_step, margin = grid["max_step_m"], grid["edge_margin"]
    radius = ring_radius_for(cfg, l)
    curve = HealingCurve(z_values=[], similarity=[], mode_purity=[])
    clear, obst = _source_spectrum(cfg, l), None
    with _stage("propagation"):
        if mask is not None:
            clear = propagate_to(clear, mask.z_position, max_step, margin)
            obst = apply_mask(clear, mask)
        for z in z_samples:
            # the first hop from the source is its launch, into a new grid
            clear = propagate_to(clear, z, max_step, margin, in_place=True)
            if obst is not None:
                obst = propagate_to(obst, z, max_step, margin, in_place=True)
            with _stage("sampling"):
                curve.add(z, clear, obst, l, radius)
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


def report_json(report: dict) -> str:
    """``report`` as strict JSON, indented, keys sorted: a non-finite float
    is written as its str, "inf", "-inf" or "nan"."""
    def strict(v):
        if isinstance(v, dict):
            return {k: strict(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [strict(x) for x in v]
        return str(v) if isinstance(v, float) and not math.isfinite(v) else v
    return json.dumps(strict(report), indent=2, sort_keys=True,
                      allow_nan=False)


def write_report(report: dict, path):
    Path(path).write_text(report_json(report) + "\n")


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
