"""Baseband receive chain: pilot generation, flat-fading channel with
additive noise, pilot correlation, least-squares channel estimation,
maximal-ratio combining and link metrics.  It works on the antenna array:
the received streams are one (antennas x samples) array from the channel
through correlation, estimation and combining, and each quantity is
computed once per ``receive`` (the pilot's stream and energy once per
pilot).  It makes no BLAS call (the correlation runs on ``numpy.fft``, the
sums are numpy's), so its bits do not depend on the BLAS thread count.

The channel per antenna is a single complex gain taken from the sampled
field (frequency-flat: 20 MHz over a 50 m line-of-sight hop gives
sub-nanosecond delay spread across the array).
"""

from __future__ import annotations

import math
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
    """Pseudo-random two-point pilot, reproducible from its seed, with its
    symbol stream oversampled by rectangular hold (``samples``, read-only:
    every caller shares it) and that stream's energy sum |samples|^2, exact
    for the pilot's alphabet in any order.  ``generate_pilot`` sets both."""

    symbols: np.ndarray
    seed: int
    samples: np.ndarray
    energy: float


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
    symbols = np.where(bits == 0, *_ALPHABET).astype(np.complex128)
    samples = np.repeat(symbols, OVERSAMPLE)
    samples.flags.writeable = False
    return PilotSignal(symbols=symbols, seed=int(seed), samples=samples,
                       energy=float(np.sum(samples.real ** 2
                                           + samples.imag ** 2)))


def noise_sigma(snr_db: float) -> float:
    """Per-sample complex noise std-dev giving the requested SNR at |h| = 1
    (0 at +inf).  Any other SNR whose scale is no finite, positive number
    raises a ``ChannelError``: NaN, -inf, and values so far from 0 dB that
    10**(snr_db/10) overflows or underflows to 0."""
    es = float(np.mean(np.abs(np.array(_ALPHABET)) ** 2))  # = 2
    try:
        sigma = np.sqrt(es / 10.0 ** (snr_db / 10.0))
    except (OverflowError, ZeroDivisionError):
        sigma = math.nan
    if not (0 < sigma < math.inf or snr_db == math.inf):
        raise ChannelError(f"snr_db {snr_db!r} gives no finite, positive "
                           f"noise scale")
    return sigma


def apply_channel(pilot: PilotSignal, chan: ChannelSnapshot, snr_db: float,
                  noise_seed: int = 0, guard_samples: int = 0) -> np.ndarray:
    """Received streams h_i * pilot + circular white Gaussian noise, scaled
    so the per-antenna SNR at unit |h| equals ``snr_db``.

    ``guard_samples`` pads each stream with that many noise-only samples on
    both sides, delaying the pilot so correlation alignment has work to do.
    """
    if guard_samples < 0:
        raise GeometryError(f"guard_samples must not be negative, "
                            f"got {guard_samples}")
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


def correlate_pilot(streams: np.ndarray, pilot: PilotSignal) -> list:
    """Normalized cross-correlation magnitude of each row of ``streams``
    (antennas x samples, as ``apply_channel`` returns them) against the
    pilot: one ``CorrelationTrace`` per row.

    Lag l compares row[l : l+Np] with the pilot; normalization uses the
    sliding-window row energy so an attenuated, delayed copy still peaks
    at height 1.  The complex gain at the peak is reported separately.
    <s[l:l+Np], p> is a circular correlation by FFTs over the least
    2*3*5-smooth length at or past the rows', which no valid lag wraps:
    the direct sum to a few ulp of the peak.  The pilot's conjugate
    spectrum is taken once for all rows, and each row's trace has the bits
    of that row correlated alone."""
    p, s = pilot.samples, np.asarray(streams)
    if s.ndim != 2:
        raise GeometryError("streams must be an (antennas x samples) array")
    if s.shape[1] < p.size:
        raise GeometryError("stream shorter than the pilot")
    size = _smooth_length(s.shape[1])
    n_lags = s.shape[1] - p.size + 1
    spectra = np.fft.fft(s, size)
    spectra *= np.conj(np.fft.fft(p, size))
    full = np.fft.ifft(spectra, out=spectra)[:, :n_lags]
    energy = np.zeros((s.shape[0], s.shape[1] + 1))
    np.cumsum(np.abs(s) ** 2, axis=1, out=energy[:, 1:])
    win = energy[:, p.size:] - energy[:, :n_lags]
    norm_p = np.sqrt(pilot.energy)
    with np.errstate(divide="ignore", invalid="ignore"):
        mag = np.abs(full) / (norm_p * np.sqrt(win))
    mag[~np.isfinite(mag)] = 0.0
    lags = np.arange(n_lags)
    return [CorrelationTrace(lags=lags, magnitude=m, peak_lag=int(k),
                             peak_height=float(m[k]),
                             gain=complex(f[k] / norm_p ** 2))
            for m, f, k in zip(mag, full, np.argmax(mag, axis=1))]


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
    return -(np.mod(-a + 180.0, 360.0) - 180.0)


def receive(chan: ChannelSnapshot, pilot: PilotSignal, snr_db: float,
            noise_seed: int = 0, guard_samples: int = 0) -> tuple:
    """Full receive pass on the antenna array: channel + noise, one
    correlation of all the streams, alignment, estimation, combining.

    Returns (per-antenna CorrelationTraces of the received streams,
    estimated ChannelSnapshot, MetricsReport).
    """
    p = pilot.samples
    streams = apply_channel(pilot, chan, snr_db, noise_seed, guard_samples)
    traces = correlate_pilot(streams, pilot)
    # Align on the strongest antenna's correlation peak (the array shares a
    # common timebase).
    lag = max(traces, key=lambda t: t.peak_height).peak_lag
    streams = streams[:, lag:lag + p.size]
    est = estimate_channel(streams, pilot, chan.scenario_label, chan.mode)
    combined = mrc_combine(streams, est)
    syms = to_symbols(combined)
    evm = evm_percent(syms, pilot.symbols)

    es = float(np.mean(np.abs(p) ** 2))
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
