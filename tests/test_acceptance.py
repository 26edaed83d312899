"""Acceptance gate: the ten release criteria, one printed pass/fail line per
criterion.  Heavy shared simulations live in module-scoped fixtures."""

import json
import math
import sys
import time

import mpmath as mp
import numpy as np
import pytest

from oamlink import (ChannelSnapshot, ScalarField, apply_channel, bessel_j,
                     derive_link, compare_with_reference, generate_pilot,
                     guide_wavelength_coax, mrc_combine, propagate, receive,
                     run_experiment, validate_config, wavevectors_at)
from oamlink.errors import CutoffError
from oamlink.link_design import REFERENCE_BUDGET
from oamlink.propagation import propagate_to
from oamlink.rxchain import evm_percent, to_symbols
from tests.oracles import analytic_source, rayleigh_sommerfeld_reference
from tests.test_propagation import _bandlimited_field

mp.mp.dps = 30


@pytest.fixture
def verdict(capfd):
    """One always-visible pass/fail line per criterion."""
    def _emit(num, ok, detail):
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
        with capfd.disabled():
            print(line, file=sys.stdout, flush=True)
        assert ok, line
    return _emit


@pytest.fixture(scope="module")
def default_report():
    """Default experiment (1024^2 grids, both modes) with 20 noise seeds."""
    cfg = validate_config({"rx": {"num_noise_seeds": 20}})
    t0 = time.time()
    report = run_experiment(cfg)
    return report, time.time() - t0


@pytest.fixture(scope="module")
def sweep_report():
    """Order sweep 1..6, every ring Bessel-matched to the order-2 ring.

    The order-4 default is the as-built 0.218 m ring, so it must be
    overridden with the matched value; all other orders fall back to
    Bessel matching automatically."""
    cfg = validate_config({
        "modes": [1, 2, 3, 4, 5, 6],
        "ring_radii_m": {"2": 0.149, "4": 0.2594151778},
    })
    return run_experiment(cfg)


def test_criterion_1_power_ordering(default_report, verdict):
    report, elapsed = default_report
    d2 = report["modes"]["2"]["d_power_db"]
    d4 = report["modes"]["4"]["d_power_db"]
    ok = (d2 < d4 < 0.0) and (d4 - d2 >= 1.0) and elapsed <= 300.0
    verdict(1, ok, "power deltas "
             f"l=2: {d2:+.2f} dB < l=4: {d4:+.2f} dB < 0, gap "
             f"{d4 - d2:.2f} dB >= 1 dB, runtime {elapsed:.0f}s <= 300s")


def test_criterion_2_snr_evm_ordering(default_report, verdict):
    report, _ = default_report
    runs2 = report["modes"]["2"]["noise_runs"]
    runs4 = report["modes"]["4"]["noise_runs"]
    snr_ok = [a["d_snr_db"] < b["d_snr_db"] for a, b in zip(runs2, runs4)]
    evm_ok = [a["d_evm_pct"] > b["d_evm_pct"] for a, b in zip(runs2, runs4)]
    mean_snr2 = report["modes"]["2"]["d_snr_db_mean"]
    mean_snr4 = report["modes"]["4"]["d_snr_db_mean"]
    mean_evm2 = report["modes"]["2"]["d_evm_pct_mean"]
    mean_evm4 = report["modes"]["4"]["d_evm_pct_mean"]
    ok = (len(runs2) >= 20 and mean_snr2 < mean_snr4
          and mean_evm2 > mean_evm4
          and np.mean(snr_ok) >= 0.9 and np.mean(evm_ok) >= 0.9)
    verdict(2, ok, f"over {len(runs2)} seeds: dSNR {mean_snr2:+.2f} < "
             f"{mean_snr4:+.2f} dB ({100 * np.mean(snr_ok):.0f}% of seeds), "
             f"dEVM {mean_evm2:+.2f} > {mean_evm4:+.2f} pct "
             f"({100 * np.mean(evm_ok):.0f}% of seeds)")


def test_criterion_3_healing_with_distance(default_report, verdict):
    report, _ = default_report
    details = []
    ok = True
    for l in ("2", "4"):
        curve = report["modes"][l]["healing_curve"]
        s11 = curve["similarity"][curve["z_m"].index(11.0)]
        s50 = curve["similarity"][curve["z_m"].index(50.0)]
        ok = ok and (s50 - s11 >= 0.05)
        details.append(f"l={l}: {s11:.3f}@11m -> {s50:.3f}@50m "
                       f"(+{s50 - s11:.3f})")
    verdict(3, ok, "similarity rises >= 0.05: " + ", ".join(details))


def test_criterion_4_healing_with_order(sweep_report, verdict):
    sims = [sweep_report["modes"][str(l)]["final_similarity"]
            for l in range(1, 7)]
    violations = [max(0.0, sims[i] - sims[i + 1]) for i in range(5)]
    bad = [v for v in violations if v > 0.0]
    ok = len(bad) <= 1 and all(v <= 0.01 for v in bad)
    verdict(4, ok, "similarity@50m for l=1..6: "
             + ", ".join(f"{s:.3f}" for s in sims)
             + f"; adjacent violations {len(bad)} (max "
             f"{max(violations):.4f} <= 0.01)")


def test_criterion_5_numerical_engine(verdict):
    t0 = time.time()
    f = _bandlimited_field()
    p0 = f.power()
    cons = abs(propagate(f, 0.5).power() - p0) / p0
    one = propagate(f, 0.8)
    two = propagate(propagate(f, 0.3), 0.5)
    semi = np.sqrt(np.mean(np.abs(one.samples - two.samples) ** 2)
                   / np.mean(np.abs(one.samples) ** 2))
    side, extent, lam, dz = 64, 0.64, 0.0107, 0.5
    c = (np.arange(side) - side // 2) * (extent / side)
    X, Y = np.meshgrid(c, c)
    g = ScalarField(analytic_source(X, Y, 2 * np.pi / lam), extent, 0.0, lam)
    ref = rayleigh_sommerfeld_reference(side, extent, lam, dz)
    asm = propagate(g, dz)
    rs = np.sqrt(np.mean(np.abs(asm.samples - ref) ** 2)
                 / np.mean(np.abs(ref) ** 2))
    elapsed = time.time() - t0
    ok = cons <= 1e-9 and semi <= 1e-8 and rs <= 1e-3 and elapsed <= 60.0
    verdict(5, ok, f"power conservation {cons:.1e} <= 1e-9, semigroup "
             f"{semi:.1e} <= 1e-8, RS-oracle {rs:.1e} <= 1e-3, "
             f"runtime {elapsed:.0f}s <= 60s")


def test_criterion_6_bessel_accuracy(verdict):
    # np.max over every error is NaN, and fails, if any error is NaN
    xs = np.linspace(0.0, 50.0, 1000)
    errors = []
    for order in range(0, 9):
        oracle = np.array([float(mp.besselj(order, mp.mpf(float(x))))
                           for x in xs])
        errors.append(np.abs(bessel_j(order, xs) - oracle))
    worst = float(np.max(errors))
    xr = np.linspace(0.5, 50.0, 500)
    residuals = []
    for order in range(1, 9):
        lhs = bessel_j(order - 1, xr) + bessel_j(order + 1, xr)
        rhs = 2.0 * order / xr * bessel_j(order, xr)
        residuals.append(np.abs(lhs - rhs))
    resid = float(np.max(residuals))
    ok = worst <= 1e-10 and resid <= 1e-9
    verdict(6, ok, f"max |J - oracle| {worst:.1e} <= 1e-10 over l<=8 on "
             f"1000 points of [0, 50]; recurrence residual {resid:.1e} <= 1e-9")


def test_criterion_7_wavevector_identities(verdict):
    rng = np.random.default_rng(2024)
    draws = 10000
    residuals = []
    cutoff_checks = 0
    for _ in range(draws):
        r = rng.uniform(0.05, 10.0)
        lam = rng.uniform(1e-3, 0.1)
        l = int(rng.integers(-8, 9))
        at_cutoff = abs(l) * lam >= 2 * math.pi * r
        try:
            lam_z = guide_wavelength_coax(r, lam, l)
            raised = False
        except CutoffError:
            raised = True
        assert raised == at_cutoff
        if raised:
            cutoff_checks += 1
            continue
        triple = wavevectors_at(r, lam_z, l)
        residuals += [abs(triple.k ** 2 - triple.k_z ** 2 - triple.k_T ** 2)
                      / triple.k ** 2,
                      abs(triple.k - 2 * math.pi / lam) / (2 * math.pi / lam)]
    worst = float(np.max(residuals))   # NaN, and a failure, if any is NaN
    ok = worst <= 1e-12
    verdict(7, ok, f"k^2 identity residual {worst:.1e} <= 1e-12 over "
             f"{draws} draws; cutoff raised iff |l|*lambda >= 2*pi*r "
             f"({cutoff_checks} cutoff cases)")


def test_criterion_8_link_design_regression(verdict):
    derived = derive_link(REFERENCE_BUDGET, 0.87, wavelength=0.011)
    cmp = compare_with_reference(derived)
    r_ok = abs(derived.tx_radius_r - 0.201) / 0.201 <= 0.005
    flags_ok = (cmp["far_field_m"]["discrepancy"] is True
                and cmp["num_elements"]["discrepancy"] is True
                and cmp["tx_radius_m"]["discrepancy"] is False)
    ok = r_ok and flags_ok
    verdict(8, ok, f"r = {derived.tx_radius_r:.4f} m (0.201 +/- 0.5%); "
             f"computed far-field {derived.far_field_L_far:.2f} m vs 32.35, "
             f"N {derived.num_elements_N} vs 238, discrepancy flags set")


def test_criterion_9_rx_chain_laws(verdict):
    pilot = generate_pilot(5, 1024)
    h4 = np.ones(4, dtype=complex)
    _, _, noiseless = receive(ChannelSnapshot(h=h4), pilot,
                              snr_db=float("inf"), guard_samples=64)
    evm0 = noiseless.combined_evm_pct

    gains, evms = [], []
    chan1 = ChannelSnapshot(h=np.array([1.0 + 0j]))
    for t in range(120):
        streams = apply_channel(pilot, ChannelSnapshot(h=h4), 10.0,
                                noise_seed=5000 + t)
        branch = np.mean(np.abs(streams - pilot.samples[None, :]) ** 2)
        comb = np.mean(np.abs(mrc_combine(streams, ChannelSnapshot(h=h4))
                              - pilot.samples) ** 2)
        gains.append(10 * np.log10(branch / comb))
        s1 = apply_channel(pilot, chan1, 20.0, noise_seed=6000 + t)
        evms.append(evm_percent(to_symbols(s1[0]), pilot.symbols))
    gain = float(np.mean(gains))
    evm = float(np.mean(evms))
    predicted = 100.0 / math.sqrt(4.0 * 10.0 ** 2.0)  # symbol-level SNR
    ok = (evm0 <= 1e-8 and abs(gain - 6.02) <= 0.3
          and abs(evm - predicted) / predicted <= 0.05)
    verdict(9, ok, f"noiseless EVM {evm0:.1e}% <= 1e-8%; MRC gain "
             f"{gain:.2f} dB = 6.02 +/- 0.3; EVM {evm:.3f}% vs "
             f"100/sqrt(SNR) = {predicted:.3f}% within 5% "
             f"({len(gains)} trials)")


def test_criterion_10_determinism(tmp_path, verdict):
    cfg = {"grid": {"side": 256, "extent_m": 4.0},
           "healing": {"z_samples_m": [11.0, 30.0, 50.0]}}
    a, b = tmp_path / "a", tmp_path / "b"
    run_experiment(dict(cfg), out_dir=a)
    run_experiment(dict(cfg), out_dir=b)
    bytes_a = (a / "report.json").read_bytes()
    bytes_b = (b / "report.json").read_bytes()
    ok = bytes_a == bytes_b
    verdict(10, ok, f"two experiment runs, report.json byte-identical "
             f"({len(bytes_a)} bytes)")


def test_report_is_valid_json(default_report):
    report, _ = default_report
    # the full report serializes cleanly with sorted keys
    json.dumps(report, sort_keys=True)
