"""Receive-chain laws: pilot statistics, noise calibration, correlation,
least-squares estimation, combining gain and the EVM-SNR relation."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import oamlink
from oamlink import (ChannelSnapshot, MetricsReport, apply_channel,
                     compute_metrics, correlate_pilot, estimate_channel,
                     evm_percent, generate_pilot, mrc_combine, receive)
from oamlink import rxchain
from oamlink.errors import ChannelError, GeometryError
from oamlink.rxchain import (OVERSAMPLE, SAMPLE_RATE, SYMBOL_RATE,
                             decide_symbols, noise_sigma, to_symbols,
                             wrap_degrees)


def test_rates_and_oversampling():
    assert SYMBOL_RATE == 30.72e6
    assert SAMPLE_RATE == 122.88e6
    assert OVERSAMPLE == 4
    pilot = generate_pilot(1, 1024)
    assert pilot.samples.size == 4 * pilot.symbols.size
    # rectangular hold: each symbol repeated 4 times
    assert np.all(pilot.samples[:4] == pilot.symbols[0])


def test_pilot_determinism_and_alphabet():
    a = generate_pilot(7, 2048)
    b = generate_pilot(7, 2048)
    assert np.array_equal(a.symbols, b.symbols)
    c = generate_pilot(8, 2048)
    assert not np.array_equal(a.symbols, c.symbols)
    assert set(np.unique(a.symbols)) <= {1 + 1j, -1 - 1j}
    with pytest.raises(GeometryError):
        generate_pilot(0, 512)   # too short


def test_pilot_symbol_balance():
    pilot = generate_pilot(3, 10000)
    frac = np.mean(pilot.symbols == 1 + 1j)
    assert frac == pytest.approx(0.5, abs=0.05)


def test_noise_sigma_calibration():
    # Es = 2 for the two-point alphabet; at 20 dB sigma^2 = 2/100
    assert noise_sigma(20.0) == pytest.approx(np.sqrt(0.02), rel=1e-12)
    assert noise_sigma(0.0) == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_noiseless_channel_is_exact():
    # +inf dB needs no branch of its own: the noise scale is exactly 0
    assert noise_sigma(float("inf")) == 0.0
    pilot = generate_pilot(2, 1024)
    chan = ChannelSnapshot(h=np.array([0.3 - 0.4j, -1.2 + 0j, 0.5j]))
    streams = apply_channel(pilot, chan, snr_db=float("inf"), noise_seed=4,
                            guard_samples=16)
    assert np.array_equal(streams[:, 16:-16],
                          chan.h[:, None] * pilot.samples)
    assert np.all(streams[:, :16] == 0)
    assert np.all(streams[:, -16:] == 0)


def test_stream_snr_matches_configuration():
    # 1e6 samples: empirical per-stream SNR within 0.1 dB of configured
    pilot = generate_pilot(11, 250000)
    chan = ChannelSnapshot(h=np.array([1.0 + 0j]))
    streams = apply_channel(pilot, chan, snr_db=20.0, noise_seed=5)
    noise = streams[0] - pilot.samples
    snr = np.mean(np.abs(pilot.samples) ** 2) / np.mean(np.abs(noise) ** 2)
    assert 10 * np.log10(snr) == pytest.approx(20.0, abs=0.1)


def test_apply_channel_guard_padding():
    pilot = generate_pilot(2, 1024)
    chan = ChannelSnapshot(h=np.array([0.5 + 0.5j, -1.0 + 0j]))
    streams = apply_channel(pilot, chan, snr_db=float("inf"), guard_samples=32)
    assert streams.shape == (2, pilot.samples.size + 64)
    assert np.all(streams[:, :32] == 0)
    assert np.all(streams[:, -32:] == 0)
    assert np.allclose(streams[0, 32:-32], chan.h[0] * pilot.samples)


def test_all_zero_channel_rejected():
    with pytest.raises(ChannelError):
        ChannelSnapshot(h=np.zeros(4, dtype=complex))


def test_correlation_peak_lag_height_and_gain():
    pilot = generate_pilot(5, 1024)
    h = 0.25 * np.exp(1j * 0.8)
    rng = np.random.default_rng(9)
    delay = 200
    stream = 0.01 * (rng.standard_normal(pilot.samples.size + 400)
                     + 1j * rng.standard_normal(pilot.samples.size + 400))
    stream[delay:delay + pilot.samples.size] += h * pilot.samples
    trace = correlate_pilot(stream, pilot)
    assert trace.peak_lag == delay
    assert trace.peak_height == pytest.approx(1.0, abs=0.01)
    assert trace.gain == pytest.approx(h, abs=0.005)
    # the correlation by FFT against the direct sum at every lag, to a few
    # units in the last place of the peak
    direct = np.array([np.sum(stream[lag:lag + pilot.samples.size]
                              * np.conj(pilot.samples))
                       for lag in trace.lags])
    win = np.array([np.sum(np.abs(stream[lag:lag + pilot.samples.size]) ** 2)
                    for lag in trace.lags])
    reference = np.abs(direct) / np.sqrt(pilot.energy * win)
    assert np.max(np.abs(trace.magnitude - reference)) < 1e-14
    # energy normalization: scaling the stream does not move or grow the peak
    scaled = correlate_pilot(7.0 * stream, pilot)
    assert scaled.peak_lag == delay
    assert scaled.peak_height == pytest.approx(trace.peak_height, rel=1e-9)
    with pytest.raises(GeometryError):
        correlate_pilot(stream[:100], pilot)


def test_receive_correlates_over_smooth_lengths_with_one_pilot_spectrum(
        monkeypatch):
    def smooth(n):
        for p in (2, 3, 5):
            while n % p == 0:
                n //= p
        return n == 1
    lengths = [rxchain._smooth_length(n) for n in range(1, 2000)]
    assert lengths == [next(m for m in range(n, 2 * n + 1) if smooth(m))
                       for n in range(1, 2000)]
    # the default stream (2^7*5*13) and a 4096-symbol one (2^7*3*43)
    assert rxchain._smooth_length(8320) == 8640
    assert rxchain._smooth_length(16512) == 16875
    pilot = generate_pilot(7, 1024)
    chan = ChannelSnapshot(h=np.array([1.0, 0.5j, -0.5, 0.2 + 0.2j]))
    streams = apply_channel(pilot, chan, 20.0, 1001, 64)
    built = []
    spectrum = rxchain._pilot_spectrum
    monkeypatch.setattr(rxchain, "_pilot_spectrum",
                        lambda *a: built.append(a) or spectrum(*a))
    traces = receive(chan, pilot, 20.0, noise_seed=1001, guard_samples=64)[0]
    assert len(built) == 1
    # each antenna's trace has the bits of its own correlation
    for stream, trace in zip(streams, traces):
        alone = correlate_pilot(stream, pilot)
        assert np.array_equal(trace.magnitude, alone.magnitude)
        assert (trace.peak_lag, trace.gain) == (alone.peak_lag, alone.gain)


def test_least_squares_estimate_exact_noiseless():
    pilot = generate_pilot(5, 1024)
    h_true = np.array([0.3 - 0.4j, 1.2 + 0j, -0.1 + 0.9j, 0.0 + 0.05j])
    streams = h_true[:, None] * pilot.samples[None, :]
    est = estimate_channel(streams, pilot)
    assert np.allclose(est.h, h_true, rtol=0, atol=1e-14)


def test_estimate_variance_scales_with_pilot_length_and_snr():
    h_true = np.array([1.0 + 0j])
    trials = 200

    def spread(num_symbols, snr_db):
        errs = []
        for t in range(trials):
            pilot = generate_pilot(5, num_symbols)
            streams = apply_channel(pilot, ChannelSnapshot(h=h_true), snr_db,
                                    noise_seed=1000 + t)
            errs.append(estimate_channel(streams, pilot).h[0] - h_true[0])
        return float(np.var(np.abs(errs)) + np.mean(np.abs(errs)) ** 2)

    v_base = spread(1024, 20.0)
    v_long = spread(4096, 20.0)     # 4x pilot -> 1/4 variance
    v_quiet = spread(1024, 26.02)   # 4x SNR -> 1/4 variance
    assert v_base / v_long == pytest.approx(4.0, rel=0.2)
    assert v_base / v_quiet == pytest.approx(4.0, rel=0.2)


def test_mrc_combining_recovers_symbols():
    pilot = generate_pilot(5, 1024)
    h = np.array([0.3 - 0.4j, 1.2 + 0j, -0.1 + 0.9j, 0.5 + 0.5j])
    chan = ChannelSnapshot(h=h)
    streams = h[:, None] * pilot.samples[None, :]
    combined = mrc_combine(streams, chan)
    assert np.allclose(combined, pilot.samples, rtol=0, atol=1e-12)
    assert evm_percent(to_symbols(combined), pilot.symbols) <= 1e-10


def test_mrc_gain_four_equal_branches():
    # over >= 100 noisy trials the combining gain of 4 equal branches is
    # 10*log10(4) = 6.02 dB
    pilot = generate_pilot(5, 1024)
    h = np.ones(4, dtype=complex)
    chan = ChannelSnapshot(h=h)
    gains = []
    for t in range(120):
        streams = apply_channel(pilot, chan, snr_db=10.0, noise_seed=2000 + t)
        branch_noise = np.mean(np.abs(streams - h[:, None]
                                      * pilot.samples[None, :]) ** 2)
        combined = mrc_combine(streams, chan)
        comb_noise = np.mean(np.abs(combined - pilot.samples) ** 2)
        gains.append(10 * np.log10(branch_noise / comb_noise))
    assert np.mean(gains) == pytest.approx(6.02, abs=0.3)


def test_mrc_not_worse_than_best_branch():
    # unequal branches: combined output SNR >= best single branch (within
    # Monte-Carlo tolerance)
    pilot = generate_pilot(5, 2048)
    h = np.array([1.0, 0.5, 0.25, 0.1], dtype=complex)
    chan = ChannelSnapshot(h=h)
    best_db, comb_db = [], []
    for t in range(100):
        streams = apply_channel(pilot, chan, snr_db=10.0, noise_seed=3000 + t)
        noise = streams - h[:, None] * pilot.samples[None, :]
        branch_snr = (np.abs(h) ** 2 * np.mean(np.abs(pilot.samples) ** 2)
                      / np.mean(np.abs(noise) ** 2, axis=1))
        combined = mrc_combine(streams, chan)
        comb_snr = (np.mean(np.abs(pilot.samples) ** 2)
                    / np.mean(np.abs(combined - pilot.samples) ** 2))
        best_db.append(10 * np.log10(np.max(branch_snr)))
        comb_db.append(10 * np.log10(comb_snr))
    assert np.mean(comb_db) >= np.mean(best_db) - 0.2


def test_evm_snr_law():
    # symbol-level SNR = 4x the per-sample SNR (matched filter over the
    # rectangular hold); EVM(%) = 100/sqrt(SNR_symbol) within 5% relative
    pilot = generate_pilot(5, 1024)
    chan = ChannelSnapshot(h=np.array([1.0 + 0j]))
    evms = []
    for t in range(120):
        streams = apply_channel(pilot, chan, snr_db=20.0, noise_seed=4000 + t)
        syms = to_symbols(streams[0])
        evms.append(evm_percent(syms, pilot.symbols))
    snr_symbol = 4.0 * 10.0 ** (20.0 / 10.0)
    assert np.mean(evms) == pytest.approx(100.0 / np.sqrt(snr_symbol), rel=0.05)


def test_decision_and_evm_basics():
    syms = np.array([1.1 + 0.9j, -0.9 - 1.2j, 0.1 + 0.1j, -0.1 - 0.05j])
    decided = decide_symbols(syms)
    assert np.array_equal(decided, np.array([1 + 1j, -1 - 1j, 1 + 1j, -1 - 1j]))
    assert evm_percent(np.array([1 + 1j, -1 - 1j])) == 0.0
    # single symbol displaced by 0.1 along the real axis
    e = evm_percent(np.array([1.1 + 1j]), np.array([1 + 1j]))
    assert e == pytest.approx(100 * 0.1 / np.sqrt(2), rel=1e-12)


def test_wrap_degrees():
    assert wrap_degrees(190.0) == pytest.approx(-170.0)
    assert wrap_degrees(-190.0) == pytest.approx(170.0)
    assert wrap_degrees(180.0) == pytest.approx(180.0)
    assert wrap_degrees(-180.0) == pytest.approx(180.0)
    assert wrap_degrees(540.0) == pytest.approx(180.0)
    assert np.allclose(wrap_degrees([10.0, -10.0]), [10.0, -10.0])


def test_receive_noiseless_end_to_end():
    pilot = generate_pilot(5, 2048)
    h = np.array([0.9 + 0.1j, 1.0 + 0j, 0.8 - 0.3j, 1.1 + 0.2j])
    chan = ChannelSnapshot(h=h, scenario_label="clear", mode=2)
    traces, est, report = receive(chan, pilot, snr_db=float("inf"),
                                  guard_samples=64)
    assert len(traces) == len(h)
    for trace in traces:
        assert trace.peak_lag == 64
        assert trace.peak_height == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(est.h, h, rtol=0, atol=1e-12)
    assert report.combined_evm_pct <= 1e-8
    assert isinstance(report, MetricsReport)
    expected_power = 10 * np.log10(np.abs(h) ** 2
                                   * np.mean(np.abs(pilot.samples) ** 2))
    assert np.allclose(report.rx_power_db, expected_power, atol=1e-9)
    assert np.allclose(report.channel_phases_deg,
                       wrap_degrees(np.degrees(np.angle(h))), atol=1e-9)


def test_receive_alignment_with_noise_and_guard():
    pilot = generate_pilot(5, 2048)
    h = np.array([1.0 + 0j, 0.5 + 0.5j, -0.7 + 0.2j, 0.9 - 0.1j])
    chan = ChannelSnapshot(h=h)
    _, est, report = receive(chan, pilot, snr_db=20.0, noise_seed=42,
                             guard_samples=64)
    assert np.allclose(est.h, h, rtol=0, atol=0.02)
    assert report.snr_db == pytest.approx(20.0
                                          + 10 * np.log10(np.mean(np.abs(h) ** 2)),
                                          abs=0.3)
    assert 0.0 < report.combined_evm_pct < 10.0


def test_receive_determinism():
    pilot = generate_pilot(5, 1024)
    chan = ChannelSnapshot(h=np.array([1.0, 0.5j, -0.5, 0.2 + 0.2j]))
    _, _, a = receive(chan, pilot, 15.0, noise_seed=3, guard_samples=16)
    _, _, b = receive(chan, pilot, 15.0, noise_seed=3, guard_samples=16)
    assert a.combined_evm_pct == b.combined_evm_pct
    assert a.snr_db == b.snr_db


# Receive passes in a fresh process; prints the CPU seconds that threads
# other than Python's took during them: BLAS workers.  The workers' own
# start-up spin is over before the count begins.
_FOREIGN_CPU_CHILD = textwrap.dedent("""
    import os, threading, time
    import numpy as np
    from oamlink import ChannelSnapshot, generate_pilot, receive

    def foreign_cpu_s():
        python = {t.native_id for t in threading.enumerate()}
        ticks = 0
        for tid in os.listdir("/proc/self/task"):
            if int(tid) not in python:
                with open(f"/proc/self/task/{tid}/stat") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
                ticks += int(fields[11]) + int(fields[12])  # utime, stime
        return ticks / os.sysconf("SC_CLK_TCK")

    pilot = generate_pilot(7, 2048)
    chan = ChannelSnapshot(h=np.array([1.0, 0.5j, -0.5, 0.2 + 0.2j]))
    before, idle = foreign_cpu_s(), 0
    for _ in range(40):
        time.sleep(0.1)
        now = foreign_cpu_s()
        idle = idle + 1 if now == before else 0
        before = now
        if idle == 3:
            break
    for seed in range(24):
        receive(chan, pilot, 20.0, noise_seed=seed, guard_samples=64)
    print(foreign_cpu_s() - before)
""")


def _run_child(child: str, **env_set) -> str:
    """The standard output of ``child`` run in a fresh Python process on
    this checkout's package, with the BLAS thread settings cleared and then
    ``env_set`` set."""
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")}
    src = str(Path(oamlink.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-c", child],
                          env={**env, **env_set}, capture_output=True,
                          text=True, check=True, timeout=120).stdout


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs Linux /proc and at least two cores")
def test_receive_wakes_no_blas_worker():
    # the receive chain makes no BLAS call, so no BLAS worker spins beside
    # the caller whatever the BLAS thread count
    assert float(_run_child(_FOREIGN_CPU_CHILD)) < 0.03


# One receive pass at 4096 pilot symbols in a fresh process; prints a digest
# of the bits of its traces, estimate and metrics.
_RECEIVE_BITS_CHILD = textwrap.dedent("""
    import hashlib
    import numpy as np
    from oamlink import ChannelSnapshot, generate_pilot, receive

    pilot = generate_pilot(7, 4096)
    chan = ChannelSnapshot(h=np.array([1.0, 0.5j, -0.5, 0.2 + 0.2j]))
    traces, est, report = receive(chan, pilot, 20.0, noise_seed=1001,
                                  guard_samples=64)
    digest = hashlib.sha256(repr(report).encode() + est.h.tobytes())
    for trace in traces:
        digest.update(trace.magnitude.tobytes() + repr(trace.gain).encode())
    print(digest.hexdigest())
""")


def test_receive_bits_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits a long dot product over its threads (a 4096-symbol
    # pilot's 16384 samples are long enough), and the order of its sums
    # follows the thread count; the receive chain takes no BLAS call
    assert _run_child(_RECEIVE_BITS_CHILD, OPENBLAS_NUM_THREADS="1") \
        == _run_child(_RECEIVE_BITS_CHILD, OPENBLAS_NUM_THREADS="2")


def test_compute_metrics_deltas():
    clear = MetricsReport(rx_power_db=[0, 0, 0, 0], rx_power_avg_db=0.0,
                          snr_db=20.0, combined_evm_pct=10.0,
                          channel_phases_deg=[170.0, 0.0, -10.0, 90.0],
                          correlation_peaks=[1, 1, 1, 1])
    obst = MetricsReport(rx_power_db=[-6, -6, -6, -6], rx_power_avg_db=-6.0,
                         snr_db=15.5, combined_evm_pct=12.7,
                         channel_phases_deg=[-170.0, 5.0, -20.0, 100.0],
                         correlation_peaks=[1, 1, 1, 1])
    d = compute_metrics(clear, obst)
    assert d["d_power_db"] == pytest.approx(-6.0)
    assert d["d_snr_db"] == pytest.approx(-4.5)
    assert d["d_evm_pct"] == pytest.approx(2.7)
    # 170 -> -170 is a +20 degree rotation once wrapped
    assert d["d_phases_deg"][0] == pytest.approx(20.0)
    assert d["d_phases_deg"][1] == pytest.approx(5.0)
