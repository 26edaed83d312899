"""Free-space propagation of sampled scalar fields and of band-limited
spectra, obstruction masks, and the walk of the clear and obstructed beams
through the analysis planes (``advance_beams``).

Propagation uses the band-limited angular-spectrum method (Matsushima &
Shimobaba, Opt. Express 17, 19662, 2009): FFT the field, advance every
propagating plane-wave component by exp(j*dz*kz), zero the evanescent
components, and clip the transfer function beyond the anti-aliasing band
limit tied to the step size and grid extent.  Long hops should be split
into sub-steps (see ``propagate_to``) so the band limit stays generous.

A step copies the field into a fresh FFT grid and, in that grid, runs the
forward FFT (``scipy.fft``, complex128), the multiply by the transfer
function H and the inverse FFT; the returned field holds the grid.  A
field passed in is never written.  A walk that starts from a band-limited
spectrum (``FieldSpectrum``, e.g. the source from
``beams.source_spectrum``) takes its first step as a ``launch``: the
spectrum's box of bins times H and one inverse FFT, with no forward FFT.
The inverse along the columns runs only on the box's columns, since every
other column is zero, and the inverse along the rows on every row.

Every grid is a ``(side, side)`` view of a ``(side, side + 12)`` buffer
(``_grid``), so a row is an odd number of 64-byte cache lines: side/4 + 3,
259 at 1024^2.  With an even number of lines the samples of a column map
to half of the cache sets or fewer (to one with a power-of-two stride),
and the transforms along the columns thrash.

H depends only on (side, extent, wavelength, dz, band_limited), so it is
built once per key and kept, read-only, in a least-recently-used cache of
``_TRANSFER_CACHE_SIZE`` = 4 entries: the four hop lengths of the default
experiment (10, 1, 4 and 5 m).  H is even in fx and in fy, so an entry
holds only the quadrant of bins 0..side//2 of H and of its kept-band mask,
``(side//2 + 1)**2 * 17`` bytes (4.2 MiB at 1024^2); bin i of the grid
reads row or column ``min(i, side - i)`` of the quadrant (``_unfold``).

A step uses the cores its thread was given: ``_FFT_WORKERS``, all cores in
the process's affinity set (``os.sched_getaffinity``, else
``os.cpu_count()``), with no setting; ``advance_beams`` gives each of its
two beams half of them (``_given_cores``).  A step runs as passes over the
grid with a barrier between them: the copy and the forward FFT along the
columns, the forward FFT along the rows and the multiply by H, the inverse
FFT along the columns, the inverse along the rows, and the edge taper of
``propagate_to`` on the rows.  Each pass is split (``_split``) into one
range of columns or rows per core; the calling thread runs the first and
helper threads (``_part_pool``, started on first use) the others.  Every
FFT runs on one thread.  The 1-D transforms are independent and the
inverse's 1/side per pass is a power of two, so the output is bit for bit
that of ``ifft2(fft2(field) * H)`` whatever the count.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy import fft

from .errors import GeometryError, OutOfExtentError, PlaneMismatchError, SamplingError
from .field import FieldSpectrum, ScalarField

_TRANSFER_CACHE_SIZE = 4
_FFT_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
_GRID_PAD = 12
_THREAD = threading.local()


def _cores() -> int:
    """Cores for a step started on this thread."""
    return getattr(_THREAD, "cores", None) or _FFT_WORKERS


@contextmanager
def _given_cores(cores: int):
    """Run the steps this thread starts inside the block on ``cores``
    cores."""
    outer = getattr(_THREAD, "cores", None)
    _THREAD.cores = cores
    try:
        yield
    finally:
        _THREAD.cores = outer


@functools.cache
def _part_pool() -> ThreadPoolExecutor:
    """The helper threads that run all but the first part of a pass, started
    on first use.  A part never waits on another, so any number of them
    ends on even one thread."""
    return ThreadPoolExecutor(max_workers=max(1, _FFT_WORKERS - 1),
                              thread_name_prefix="oamlink-part")


def _split(n: int, work) -> None:
    """``work(lo, hi)`` over 0..n in one contiguous range per core of this
    thread (``_cores``): the first range on this thread, the others on the
    helper pool.  Returns once every part has ended, then raises the first
    error."""
    parts = min(_cores(), n)
    bounds = [n * i // parts for i in range(parts + 1)]
    pending = [_part_pool().submit(work, lo, hi)
               for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        work(bounds[0], bounds[1])
    finally:
        wait(pending)
    for part in pending:
        part.result()


def _grid(side: int) -> np.ndarray:
    """A ``(side, side)`` view of a new ``(side, side + 12)`` complex128
    buffer."""
    return np.empty((side, side + _GRID_PAD), dtype=np.complex128)[:, :side]


def _band_limit(extent: float, wavelength: float, dz: float) -> float:
    dfreq = 1.0 / extent
    return 1.0 / (math.sqrt((2.0 * dfreq * dz) ** 2 + 1.0) * wavelength)


def band_limit_frequency(f: ScalarField, dz: float) -> float:
    """Anti-aliasing limit on |fx| (and |fy|) for one step of length dz."""
    return _band_limit(f.extent, f.wavelength, dz)


@functools.lru_cache(maxsize=_TRANSFER_CACHE_SIZE)
def _transfer_function(side: int, extent: float, wavelength: float, dz: float,
                       band_limited: bool):
    """Read-only quadrants (H, keep) for one step, over bins 0..side//2 of
    each axis: H = exp(j*2*pi*dz*sqrt(1/lambda^2 - fx^2 - fy^2)) on the
    kept band, 0 elsewhere; ``keep`` marks the propagating (and, if
    ``band_limited``, in-band) components.

    Bins i and side - i hold frequencies of opposite sign and equal
    magnitude, bit for bit, and H depends on each axis only through fx^2 and
    |fx|.  So ``_unfold`` of a quadrant equals the full-grid build element
    for element."""
    fx = np.fft.fftfreq(side, d=extent / side)[:side // 2 + 1]
    fx2 = fx * fx
    kz_sq = 1.0 / wavelength ** 2 - fx2[None, :] - fx2[:, None]
    keep = kz_sq > 0
    if band_limited:
        in_band = np.abs(fx) <= _band_limit(extent, wavelength, dz)
        keep &= in_band[None, :] & in_band[:, None]
    phase = np.maximum(kz_sq, 0.0, out=kz_sq)
    np.sqrt(phase, out=phase)
    phase *= 2.0 * np.pi
    phase *= dz
    transfer = phase * 1j
    np.exp(transfer, out=transfer)
    transfer *= keep
    transfer.flags.writeable = False
    keep.flags.writeable = False
    return transfer, keep


def _mirror(side: int, h: int, lo: int, hi: int):
    """(grid slice, quadrant slice) pairs that cover indices lo..hi of an
    axis of a ``(side, side)`` grid from a quadrant of ``h = side // 2 + 1``
    rows and columns: index i reads quadrant index ``min(i, side - i)``."""
    pairs = []
    if lo < min(hi, h):
        pairs.append((slice(lo, min(hi, h)), slice(lo, min(hi, h))))
    if max(lo, h) < hi:
        pairs.append((slice(max(lo, h), hi),
                      slice(side - max(lo, h), side - hi, -1)))
    return pairs


def _unfold(quadrant: np.ndarray, side: int) -> np.ndarray:
    """The ``(side, side)`` array the quadrant stands for."""
    full = np.empty((side, side), dtype=quadrant.dtype)
    axis = _mirror(side, quadrant.shape[0], 0, side)
    for rows, from_rows in axis:
        for cols, from_cols in axis:
            full[rows, cols] = quadrant[from_rows, from_cols]
    return full


def _multiply_unfolded(grid: np.ndarray, quadrant: np.ndarray, lo: int,
                       hi: int) -> None:
    """``grid[lo:hi] *= _unfold(quadrant, side)[lo:hi]``, in place, through
    views of the quadrant."""
    side, h = grid.shape[0], quadrant.shape[0]
    for rows, from_rows in _mirror(side, h, lo, hi):
        for cols, from_cols in _mirror(side, h, 0, side):
            grid[rows, cols] *= quadrant[from_rows, from_cols]


def _filter(samples: np.ndarray, scale_rows, check=None) -> np.ndarray:
    """``ifft2(fft2(samples) * S)`` in a new grid, in four passes, each split
    over this thread's cores: the copy and the forward FFT on column ranges,
    the forward FFT and ``scale_rows(spectrum, lo, hi)``, which multiplies
    rows lo..hi by S, on row ranges, then the inverse FFT on column ranges
    and on row ranges.  ``check(spectrum)``, if given, sees the whole
    spectrum before any row is scaled, which then takes a pass of its own.
    ``samples`` is not written."""
    side = samples.shape[0]
    grid = _grid(side)

    def forward_columns(lo, hi):
        columns = grid[:, lo:hi]
        columns[...] = samples[:, lo:hi]
        fft.fft(columns, axis=0, overwrite_x=True, workers=1)

    def forward_rows(lo, hi):
        fft.fft(grid[lo:hi], axis=1, overwrite_x=True, workers=1)
        if check is None:
            scale_rows(grid, lo, hi)

    _split(side, forward_columns)
    _split(side, forward_rows)
    if check is not None:
        check(grid)
        _split(side, lambda lo, hi: scale_rows(grid, lo, hi))
    _split(side, lambda lo, hi: fft.ifft(grid[:, lo:hi], axis=0,
                                         overwrite_x=True, workers=1))
    _split(side, lambda lo, hi: fft.ifft(grid[lo:hi], axis=1,
                                         overwrite_x=True, workers=1))
    return grid


def propagate(field: ScalarField, dz: float, band_limited: bool = True,
              max_truncation: float | None = None) -> ScalarField:
    """Field at z + dz via the (band-limited) angular-spectrum method.

    ``max_truncation``, if given, raises SamplingError when more than that
    fraction of the spectral power falls outside the retained band.
    """
    if dz <= 0:
        raise GeometryError("dz must be positive")
    transfer, keep = _transfer_function(field.side, field.extent,
                                        field.wavelength, dz, band_limited)

    def check(spectrum):
        total = float(np.sum(np.abs(spectrum) ** 2))
        kept = float(np.sum(np.abs(spectrum[_unfold(keep, field.side)]) ** 2))
        if total > 0 and 1.0 - kept / total > max_truncation:
            raise SamplingError(
                "field angular bandwidth exceeds the grid's representable range")

    out = _filter(field.samples,
                  lambda grid, lo, hi: _multiply_unfolded(grid, transfer, lo, hi),
                  None if max_truncation is None else check)
    return field.with_samples(out, z=field.z_position + dz)


def launch(spectrum: FieldSpectrum, dz: float) -> ScalarField:
    """Field at z + dz of a field given by its band-limited spectrum: the box
    times the step's cached (band-limited) H, scattered into an empty grid,
    and one inverse FFT.  It equals ``propagate`` of the spectrum's field,
    without the forward FFT."""
    if dz <= 0:
        raise GeometryError("dz must be positive")
    transfer, _ = _transfer_function(spectrum.side, spectrum.extent,
                                     spectrum.wavelength, dz, True)
    fold = np.minimum(spectrum.bins, spectrum.side - spectrum.bins)
    return _inverse(spectrum, spectrum.values * transfer[np.ix_(fold, fold)],
                    dz)


def spectrum_field(spectrum: FieldSpectrum) -> ScalarField:
    """The sampled field of ``spectrum`` at its own plane."""
    return _inverse(spectrum, spectrum.values, 0.0)


def _inverse(spectrum: FieldSpectrum, values: np.ndarray,
             dz: float) -> ScalarField:
    """The field whose spectrum is ``values`` on the box of ``spectrum``.

    The inverse along axis 0 runs on the box's columns only; the other
    columns are zero and stay zero.  The inverse along axis 1 then runs on
    every row of the grid, each row range zero-filled and given its part
    of the columns first.  ``ifft2`` makes the same two passes in the same
    order, and its 1/side**2 scale, taken here as 1/side per pass, is a
    power of two (a ``ScalarField`` side is one), so the samples are bit for
    bit those of ``ifft2``."""
    side, bins = spectrum.side, spectrum.bins
    columns = np.zeros((side, len(bins)), dtype=np.complex128)
    columns[bins] = values
    _split(len(bins), lambda lo, hi: fft.ifft(columns[:, lo:hi], axis=0,
                                              overwrite_x=True, workers=1))
    grid = _grid(side)

    def rows(lo, hi):
        block = grid[lo:hi]
        block[...] = 0
        block[:, bins] = columns[lo:hi]
        fft.ifft(block, axis=1, overwrite_x=True, workers=1)

    _split(side, rows)
    return ScalarField(samples=grid, extent=spectrum.extent,
                       z_position=spectrum.z_position + dz,
                       wavelength=spectrum.wavelength)


def propagate_to(field: ScalarField | FieldSpectrum, z_target: float,
                 max_step: float = 10.0,
                 edge_margin: float = 0.0) -> ScalarField:
    """Propagate to an absolute plane, splitting into steps of at most
    ``max_step``.  ``edge_margin`` > 0 applies a soft absorbing taper over
    that outer fraction of the grid after every step (suppresses wrap-around
    on long hops at the cost of strict power conservation).  From a
    ``FieldSpectrum`` the first step is its ``launch``."""
    dz_total = z_target - field.z_position
    if dz_total <= 0:
        raise GeometryError("target plane must lie beyond the current plane")
    n_steps = max(1, math.ceil(dz_total / max_step))
    step = dz_total / n_steps
    out = field
    for _ in range(n_steps):
        if isinstance(out, FieldSpectrum):
            out = launch(out, step)
        else:
            out = propagate(out, step)
        if edge_margin > 0:
            _absorb_edges(out.samples, edge_margin)
    return out


def _absorb_edges(samples: np.ndarray, margin: float) -> None:
    """Taper the outer ``margin`` of the grid in place: a raised-cosine ramp
    along the rows, then along the columns, split over row ranges.  The
    window is 1 inside the margin, so only the border strips are
    touched."""
    n = samples.shape[0]
    m = max(2, int(margin * n))
    w = np.ones(n)
    ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(m) / m))
    w[:m] = ramp
    w[n - m:] = ramp[::-1]
    m = min(m, n // 2)   # strips meet, not overlap, when the margin is wide

    def rows(lo, hi):
        for strip in (slice(lo, min(hi, m)), slice(max(lo, n - m), hi)):
            samples[strip] *= w[strip, None]
        block = samples[lo:hi]
        block[:, :m] *= w[:m]
        block[:, n - m:] *= w[n - m:]

    _split(n, rows)


def angular_bandlimit(field: ScalarField, theta_max: float) -> ScalarField:
    """Zero all plane-wave components steeper than ``theta_max`` (rad).

    Keeps a splatted ring source, whose energy spreads across the whole
    grid band, inside the paraxial cone the simulation cares about.  The
    runners take that spectrum directly from ``beams.source_spectrum``;
    this two-FFT form is its full-grid reference.
    """
    if not 0 < theta_max < np.pi / 2:
        raise GeometryError("theta_max must lie in (0, pi/2)")
    fx = np.fft.fftfreq(field.side, d=field.spacing)
    fx2 = fx * fx
    f_max = math.sin(theta_max) / field.wavelength

    def cone(grid, lo, hi):
        grid[lo:hi] *= fx2[None, :] + fx2[lo:hi, None] <= f_max ** 2

    return field.with_samples(_filter(field.samples, cone))


@dataclass(frozen=True)
class ObstructionMask:
    """Amplitude mask at one z-plane: ``transmittance`` inside the shape,
    unity outside."""

    shape: str                      # "disk" or "rectangle"
    center_x: float
    center_y: float
    size: tuple                     # (diameter,) or (width, height), m
    z_position: float
    transmittance: float = 0.0

    def __post_init__(self):
        if self.shape not in ("disk", "rectangle"):
            raise GeometryError(f"unknown mask shape '{self.shape}'")
        if any(s <= 0 for s in self.size):
            raise GeometryError("mask size must be positive")
        if self.shape == "disk" and len(self.size) != 1:
            raise GeometryError("disk mask takes (diameter,)")
        if self.shape == "rectangle" and len(self.size) != 2:
            raise GeometryError("rectangle mask takes (width, height)")
        if not 0.0 <= self.transmittance <= 1.0:
            raise GeometryError("transmittance must lie in [0, 1]")

    def transmittance_map(self, field: ScalarField) -> np.ndarray:
        """``transmittance`` at the samples inside the shape, 1 elsewhere.
        Built from the 1-D offsets of the columns (x) and the rows (y)."""
        c = field.coords()
        return self._map(c - self.center_x, c - self.center_y)

    def _spans(self, dx: np.ndarray, dy: np.ndarray):
        """Which columns (offsets ``dx``) and rows (offsets ``dy``) the shape
        reaches: every sample inside it lies on both."""
        if self.shape == "disk":
            r2 = (self.size[0] / 2.0) ** 2
            return dx ** 2 <= r2, dy ** 2 <= r2
        w, h = self.size
        return np.abs(dx) <= w / 2.0, np.abs(dy) <= h / 2.0

    def _map(self, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
        if self.shape == "disk":
            inside = dx[None, :] ** 2 + dy[:, None] ** 2 \
                <= (self.size[0] / 2.0) ** 2
        else:
            cols, rows = self._spans(dx, dy)
            inside = np.outer(rows, cols)
        return np.where(inside, self.transmittance, 1.0)


def apply_mask(field: ScalarField, mask: ObstructionMask,
               atol: float = 1e-9) -> ScalarField:
    """Pointwise multiply the field by the mask's transmittance map.

    The map is built, and multiplied, only over the box of rows and columns
    the shape reaches; it is 1 outside.  The rest of the grid is multiplied
    by 1, not copied: the complex product clears the sign of some zero
    components (the edge taper leaves exact zeros), and the masked field
    keeps the bits of the full-map product."""
    if abs(mask.z_position - field.z_position) > atol:
        raise PlaneMismatchError(
            f"mask at z={mask.z_position} but field at z={field.z_position}")
    c = field.coords()
    dx, dy = c - mask.center_x, c - mask.center_y
    cols, rows = (np.flatnonzero(span) for span in mask._spans(dx, dy))
    out = np.multiply(field.samples, 1.0, out=_grid(field.side))
    if cols.size and rows.size:
        box = (slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1))
        np.multiply(field.samples[box], mask._map(dx[box[1]], dy[box[0]]),
                    out=out[box])
    return field.with_samples(out)


def advance_beams(source: ScalarField | FieldSpectrum,
                  mask: ObstructionMask | None, z_planes,
                  max_step: float = 10.0, edge_margin: float = 0.05):
    """Carry the clear beam from ``source`` and, behind ``mask``, the
    obstructed beam through the strictly increasing ``z_planes``, which must
    all lie beyond the mask.  From a spectrum the first step is its launch
    (``propagate_to``).

    Yields ``(z, clear, obstructed)`` once per plane of ``z_planes``;
    obstructed is None when ``mask`` is None.  Both beams share the hop to
    the mask, where the obstructed one is split off.  The walk keeps no
    field it no longer advances, so a caller that wants memory to stay flat
    must not hold a yielded field while the walk goes on.  The walk never
    writes ``source`` or a field it has yielded.

    With a mask and at least two cores on this thread (``_cores``), each
    hop steps the obstructed beam on a one-thread pool and the clear beam on
    the calling thread, each with half the cores for its steps; an error on
    the pool's thread is raised here.  The fields are bit for bit those of
    stepping the beams one after the other.
    """
    z_planes = list(z_planes)
    if any(b <= a for a, b in zip(z_planes, z_planes[1:])):
        raise GeometryError("planes must be strictly increasing")
    if mask is not None and z_planes and z_planes[0] <= mask.z_position:
        raise GeometryError("all planes must lie beyond the obstruction")
    clear, obstructed = source, None
    del source
    if mask is not None:
        clear = propagate_to(clear, mask.z_position, max_step, edge_margin)
        obstructed = apply_mask(clear, mask)
    cores = _cores()
    both = obstructed is not None and cores >= 2
    for z in z_planes:
        if both:
            clear, obstructed = _step_both(clear, obstructed, z, max_step,
                                           edge_margin, cores // 2)
        else:
            clear = propagate_to(clear, z, max_step, edge_margin)
            if obstructed is not None:
                obstructed = propagate_to(obstructed, z, max_step,
                                          edge_margin)
        yield z, clear, obstructed


@functools.cache
def _beam_pool() -> ThreadPoolExecutor:
    """The thread that steps the obstructed beam, started on first use."""
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="oamlink-beam")


def _step_both(clear: ScalarField, obstructed: ScalarField, z: float,
               max_step: float, edge_margin: float, cores: int):
    """Both beams at plane ``z``, each stepped on ``cores`` cores: the
    obstructed one from the pool's thread while this thread steps the clear
    one."""

    def step(beam):
        with _given_cores(cores):
            return propagate_to(beam, z, max_step, edge_margin)

    pending = _beam_pool().submit(step, obstructed)
    try:
        clear = step(clear)
    except BaseException:
        pending.exception()   # the pool's step ends before this error leaves
        raise
    return clear, pending.result()


def sample_points(field: ScalarField, points) -> np.ndarray:
    """Bilinear interpolation of the complex grid at (x, y) positions."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    n = field.side
    half = n // 2
    fc = pts[:, 0] / field.spacing + half
    fr = pts[:, 1] / field.spacing + half
    inside = (fc >= 0) & (fr >= 0) & (fc <= n - 1) & (fr <= n - 1)
    if not inside.all():   # a NaN point fails every comparison
        raise OutOfExtentError("sample point outside the grid extent")
    c0 = np.minimum(np.floor(fc).astype(int), n - 2)
    r0 = np.minimum(np.floor(fr).astype(int), n - 2)
    wc = fc - c0
    wr = fr - r0
    u = field.samples
    return ((1 - wr) * (1 - wc) * u[r0, c0]
            + (1 - wr) * wc * u[r0, c0 + 1]
            + wr * (1 - wc) * u[r0 + 1, c0]
            + wr * wc * u[r0 + 1, c0 + 1])
