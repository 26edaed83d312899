"""Baseband receive chain: pilot generation, flat-fading channel with
additive noise, pilot correlation, least-squares channel estimation,
maximal-ratio combining and link metrics.  It makes no BLAS call (the
correlation runs on ``numpy.fft``, the sums are numpy's), so its bits do
not depend on the BLAS thread count.

The channel per antenna is a single complex gain taken from the sampled
field (frequency-flat: 20 MHz over a 50 m line-of-sight hop gives
sub-nanosecond delay spread across the array).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChannelError, GeometryError

SYMBOL_RATE = 30.72e6
SAMPLE_RATE = 122.88e6
OVERSAMPLE = 4          # SAMPLE_RATE / SYMBOL_RATE, rectangular hold
MIN_PILOT_SYMBOLS = 1024

_ALPHABET = (1.0 + 1.0j, -1.0 - 1.0j)


@dataclass(frozen=True)
class PilotSignal:
    """Pseudo-random two-point pilot, reproducible from its seed."""

    symbols: np.ndarray
    seed: int

    @property
    def samples(self) -> np.ndarray:
        """Symbol stream oversampled by rectangular hold."""
        return np.repeat(self.symbols, OVERSAMPLE)

    @property
    def energy(self) -> float:
        """sum |samples|^2, exact for the pilot's alphabet in any order."""
        p = self.samples
        return float(np.sum(p.real ** 2 + p.imag ** 2))


@dataclass(frozen=True)
class ChannelSnapshot:
    """Per-antenna complex gains for one scenario."""

    h: np.ndarray                      # (4,) complex
    scenario_label: str = "clear"      # "clear" | "obstructed"
    mode: int = 0

    def __post_init__(self):
        if not np.any(np.abs(self.h) > 0):
            raise ChannelError("all-zero channel")


@dataclass
class CorrelationTrace:
    lags: np.ndarray
    magnitude: np.ndarray              # normalized cross-correlation
    peak_lag: int
    peak_height: float
    gain: complex


@dataclass
class MetricsReport:
    rx_power_db: list                  # per antenna
    rx_power_avg_db: float
    snr_db: float
    combined_evm_pct: float
    channel_phases_deg: list
    correlation_peaks: list            # per-antenna peak heights


def generate_pilot(seed: int, num_symbols: int) -> PilotSignal:
    """Pseudo-random symbols from {(1+j), (-1-j)} at the fixed symbol rate."""
    if num_symbols < MIN_PILOT_SYMBOLS:
        raise GeometryError(f"pilot needs at least {MIN_PILOT_SYMBOLS} symbols")
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=num_symbols)
    symbols = np.where(bits == 0, _ALPHABET[0], _ALPHABET[1])
    return PilotSignal(symbols=symbols.astype(np.complex128), seed=int(seed))


def noise_sigma(snr_db: float) -> float:
    """Per-sample complex noise std-dev giving the requested SNR at |h| = 1
    (0 at +inf)."""
    es = float(np.mean(np.abs(np.array(_ALPHABET)) ** 2))  # = 2
    return np.sqrt(es / 10.0 ** (snr_db / 10.0))


def apply_channel(pilot: PilotSignal, chan: ChannelSnapshot, snr_db: float,
                  noise_seed: int = 0, guard_samples: int = 0) -> np.ndarray:
    """Received streams h_i * pilot + circular white Gaussian noise, scaled
    so the per-antenna SNR at unit |h| equals ``snr_db``.

    ``guard_samples`` pads each stream with that many noise-only samples on
    both sides, delaying the pilot so correlation alignment has work to do.
    """
    p = pilot.samples
    rng = np.random.default_rng(noise_seed)
    n_ant = len(chan.h)
    total = p.size + 2 * guard_samples
    streams = noise_sigma(snr_db) / np.sqrt(2.0) * (
        rng.standard_normal((n_ant, total))
        + 1j * rng.standard_normal((n_ant, total)))
    streams[:, guard_samples:guard_samples + p.size] += chan.h[:, None] * p[None, :]
    return streams


def _smooth_length(n: int) -> int:
    """The least 2*3*5-smooth length at or past ``n``: for each 3^i * 5^j
    below the best so far, the least multiple of it by a power of two at or
    past ``n``."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        m = p5
        while m < best:
            best = min(best, m << (-(-n // m) - 1).bit_length())
            m *= 3
        p5 *= 5
    return best


def _pilot_spectrum(pilot: PilotSignal, size: int) -> np.ndarray:
    """The pilot's conjugate spectrum over ``_smooth_length(size)``."""
    return np.conj(np.fft.fft(pilot.samples, _smooth_length(size)))


def correlate_pilot(stream: np.ndarray, pilot: PilotSignal, *,
                    _spectrum: np.ndarray | None = None) -> CorrelationTrace:
    """Normalized cross-correlation magnitude of a stream against the pilot.

    Lag l compares stream[l : l+Np] with the pilot; normalization uses the
    sliding-window stream energy so an attenuated, delayed copy still peaks
    at height 1.  The complex gain at the peak is reported separately.
    <s[l:l+Np], p> is a circular correlation by FFTs over the least
    2*3*5-smooth length at or past the stream's, which no valid lag wraps:
    the direct sum to a few ulp of the peak.  ``_spectrum`` is the pilot's
    (``_pilot_spectrum``) for streams of this length, which ``receive``
    computes once for all its antennas."""
    p = pilot.samples
    s = np.asarray(stream)
    if s.size < p.size:
        raise GeometryError("stream shorter than the pilot")
    if _spectrum is None:
        _spectrum = _pilot_spectrum(pilot, s.size)
    n_lags = s.size - p.size + 1
    full = np.fft.ifft(np.fft.fft(s, _spectrum.size) * _spectrum)[:n_lags]
    energy = np.concatenate([[0.0], np.cumsum(np.abs(s) ** 2)])
    win = energy[p.size:] - energy[:n_lags]
    norm_p = np.sqrt(pilot.energy)
    with np.errstate(divide="ignore", invalid="ignore"):
        mag = np.abs(full) / (norm_p * np.sqrt(win))
    mag[~np.isfinite(mag)] = 0.0
    peak = int(np.argmax(mag))
    gain = full[peak] / norm_p ** 2
    return CorrelationTrace(lags=np.arange(n_lags), magnitude=mag,
                            peak_lag=peak, peak_height=float(mag[peak]),
                            gain=complex(gain))


def estimate_channel(streams: np.ndarray, pilot: PilotSignal,
                     label: str = "clear", mode: int = 0) -> ChannelSnapshot:
    """Least-squares per-antenna gains h_i = <stream_i, pilot> / ||pilot||^2."""
    p = pilot.samples
    denom = pilot.energy
    if denom <= 0:
        raise ChannelError("pilot has zero energy")
    h = (streams[:, :p.size] * np.conj(p)).sum(axis=1) / denom
    return ChannelSnapshot(h=h, scenario_label=label, mode=mode)


def mrc_combine(streams: np.ndarray, chan: ChannelSnapshot) -> np.ndarray:
    """Pseudo-inverse combining y = sum h_i^* s_i / sum |h_i|^2."""
    denom = float(np.sum(np.abs(chan.h) ** 2))
    if denom <= 0:
        raise ChannelError("cannot combine an all-zero channel")
    return (np.conj(chan.h)[:, None] * streams).sum(axis=0) / denom


def to_symbols(stream: np.ndarray) -> np.ndarray:
    """Matched-filter the rectangular hold: average each group of 4 samples."""
    n_sym = stream.size // OVERSAMPLE
    return stream[:n_sym * OVERSAMPLE].reshape(n_sym, OVERSAMPLE).mean(axis=1)


def decide_symbols(symbols: np.ndarray) -> np.ndarray:
    """Nearest-point decisions on the two-point pilot alphabet."""
    ref = _ALPHABET[0]
    return np.where(np.real(symbols * np.conj(ref)) >= 0, _ALPHABET[0], _ALPHABET[1])


def evm_percent(symbols: np.ndarray, reference: np.ndarray | None = None) -> float:
    """RMS error vector over decided (or given) reference symbols, as a
    percentage of the RMS reference magnitude."""
    ref = decide_symbols(symbols) if reference is None else reference
    err = symbols - ref
    return float(100.0 * np.sqrt(np.mean(np.abs(err) ** 2)
                                 / np.mean(np.abs(ref) ** 2)))


def wrap_degrees(angle_deg):
    """Wrap angles to (-180, 180]."""
    a = np.asarray(angle_deg, dtype=float)
    wrapped = -(np.mod(-a + 180.0, 360.0) - 180.0)
    return wrapped


def receive(chan: ChannelSnapshot, pilot: PilotSignal, snr_db: float,
            noise_seed: int = 0, guard_samples: int = 0) -> tuple:
    """Full receive pass: channel + noise, correlate, align, estimate,
    combine.

    Returns (per-antenna CorrelationTraces of the received streams,
    estimated ChannelSnapshot, MetricsReport).
    """
    streams = apply_channel(pilot, chan, snr_db, noise_seed, guard_samples)
    spectrum = _pilot_spectrum(pilot, streams.shape[1])
    traces = [correlate_pilot(s, pilot, _spectrum=spectrum) for s in streams]
    # Align on the strongest antenna's correlation peak (the array shares a
    # common timebase).
    best = max(traces, key=lambda t: t.peak_height)
    lag = best.peak_lag
    streams = streams[:, lag:lag + pilot.samples.size]
    est = estimate_channel(streams, pilot, chan.scenario_label, chan.mode)
    combined = mrc_combine(streams, est)
    syms = to_symbols(combined)
    evm = evm_percent(syms, pilot.symbols)

    es = float(np.mean(np.abs(pilot.samples) ** 2))
    p = pilot.samples
    per_ant_power = np.abs(est.h) ** 2 * es
    resid = streams - est.h[:, None] * p[None, :]
    noise_power = float(np.mean(np.abs(resid) ** 2))
    if noise_power > 0:
        snr = float(np.mean(per_ant_power)) / noise_power
        snr_out_db = 10.0 * np.log10(snr)
    else:
        snr_out_db = float("inf")
    with np.errstate(divide="ignore"):
        power_db = 10.0 * np.log10(per_ant_power)
    report = MetricsReport(
        rx_power_db=[float(v) for v in power_db],
        rx_power_avg_db=float(10.0 * np.log10(np.mean(per_ant_power))),
        snr_db=snr_out_db,
        combined_evm_pct=evm,
        channel_phases_deg=[float(v) for v in
                            wrap_degrees(np.degrees(np.angle(est.h)))],
        correlation_peaks=[t.peak_height for t in traces],
    )
    return traces, est, report


def compute_metrics(clear: MetricsReport, obstructed: MetricsReport) -> dict:
    """Obstruction-induced deltas, mirroring the measured-link comparison:
    power and SNR changes in dB, EVM change in percentage points, and
    per-antenna phase changes wrapped to (-180, 180]."""
    d_phases = wrap_degrees(
        np.array(obstructed.channel_phases_deg)
        - np.array(clear.channel_phases_deg))
    return {
        "d_power_db": obstructed.rx_power_avg_db - clear.rx_power_avg_db,
        "d_snr_db": obstructed.snr_db - clear.snr_db,
        "d_evm_pct": obstructed.combined_evm_pct - clear.combined_evm_pct,
        "d_phases_deg": [float(v) for v in d_phases],
    }
