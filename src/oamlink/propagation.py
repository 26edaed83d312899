"""Free-space propagation of sampled scalar fields and of band-limited
spectra, obstruction masks, and bilinear sampling of a field at points.

Propagation uses the band-limited angular-spectrum method (Matsushima &
Shimobaba, Opt. Express 17, 19662, 2009): FFT the field, advance every
propagating plane-wave component by exp(j*dz*kz), zero the evanescent
components, and clip the transfer function beyond the anti-aliasing band
limit tied to the step size and grid extent.  Long hops should be split
into sub-steps (see ``propagate_to``) so the band limit stays generous.

A step runs, in one grid, the forward FFT, the multiply by the transfer
function H and the inverse FFT; the returned field holds the grid.  The
FFTs are ``numpy.fft``'s (complex128), each in place through ``out``:
numpy 2 wraps the same pocketfft code as ``scipy.fft``, with the same
bits, and a run imports no scipy module.  A step, or ``apply_mask``,
runs in a new grid into which ``_target`` copies the field, which is never
written, or, with ``in_place=True``, in the field's own grid with no copy.
``propagate_to`` steps in place from its second step on, since those
fields are its own, and the runners (``scenario.run_scenario``,
``scenario._run_order``) pass ``in_place=True`` for the beams they own, so
a walk holds one grid per beam.  A walk that starts from a band-limited
spectrum (``FieldSpectrum``, e.g. the source from ``beams.source_spectrum``)
takes its first step as a ``launch``: the spectrum's box of bins times H
and one inverse FFT, with no forward FFT, into a new grid, whatever
``in_place`` says.  The launch gathers its box of H (195^2 bins at 1024^2)
from the held quadrant of its key, as a step reads it.  The inverse
(``_inverse``) scatters the box into the new grid, which is zeroed, and
runs the inverse along the columns only on the box's columns, each run of
consecutive bins in place (a source spectrum's box has two), since every
other column is zero, and along the rows on every row.  A mask multiplies
only the samples of its shape's box where its map is not 1; the rest keep
their bits, and the taper's signed zeros with them.

Every grid is a ``(side, side)`` view of a ``(side, side + 12)`` buffer
(``_grid``), zeroed for the inverse's scatter and left unset under
``_target``'s copy, so a row is an odd number of 64-byte cache lines:
side/4 + 3, 259 at 1024^2.  With an even number of lines the samples of a
column map to half of the cache sets or fewer (to one with a power-of-two
stride), and the transforms along the columns thrash.

H depends only on (side, extent, wavelength, dz).  H is even in fx and
in fy, so a step needs only the quadrant of bins 0..side//2 of H,
``(side//2 + 1)**2 * 16`` bytes (4.0 MiB at 1024^2); bin i of the grid
reads row or column ``min(i, side - i)`` of the quadrant (``_mirror``).
Every step and launch reads the held quadrant of its key: the process
holds one, read-only (``_HELD``, reached through ``_transfer``), and a
step or launch with another key frees it and then builds its own, so no
more than one quadrant is alive, even during a build.  A walk whose hop
lengths alternate rebuilds them (the default experiment builds its 10, 1,
4 and 5 m quadrants once per order), and a rebuilt quadrant has the bits
of the first.  A build runs ``_BUILD_ROWS`` rows at a time, its rows
split over the cores as an FFT pass is, so its temporaries are one
block's per core.  Builds are single-flight: ``_transfer`` runs under a
lock, so two threads that miss a key at once build it once.

Threads run the FFT passes and the quadrant's build.  A step runs as
passes over the grid with a barrier between them: the forward FFT along
the columns, the forward FFT along the rows and the multiply by H, the
inverse FFT along the columns (both column passes run by ``_columns``),
the inverse along the rows with ``propagate_to``'s edge taper
(``_inverse_rows``).  Each pass, and each build, is split (``_split``)
into one range of columns or rows per core, over ``_FFT_WORKERS`` cores:
all cores in the process's affinity set (``os.sched_getaffinity``, else
``os.cpu_count()``), with no setting.  The calling thread runs the first
range and helper threads (``_part_pool``, started on first use) the
others.  ``_target``'s copy, the mask's multiply and the launch's gather
and scatter run on the calling thread (the copy, the multiply and the
scatter are memory-bound: at 1024^2 on 2 cores no split ran faster).  A
runner's beams step one after the other.  Each FFT runs on one thread
and releases the GIL.  The 1-D transforms are independent, each element
of H is built the same way in any block, and 1/side per inverse pass is a
power of two, so whatever the count a step is bit for bit ``fft`` along
axis 0, then axis 1, times H, then ``ifft`` along axis 0, then axis 1.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np
from numpy import fft

from .errors import GeometryError, PlaneMismatchError
from .field import FieldSpectrum, ScalarField, cell_corners

_FFT_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
_GRID_PAD = 12
_BUILD_ROWS = 64
_TRANSFER_LOCK = threading.Lock()
_HELD = {}   # the quadrant of H the last step read, by key: one entry at most


@functools.cache
def _part_pool() -> ThreadPoolExecutor:
    """The helper threads that run all but the first part of a pass, started
    on first use.  A part never waits on another, so any number of them
    ends on even one thread."""
    return ThreadPoolExecutor(max_workers=max(1, _FFT_WORKERS - 1),
                              thread_name_prefix="oamlink-part")


def _split(n: int, work) -> None:
    """``work(lo, hi)`` over 0..n in one contiguous range per core
    (``_FFT_WORKERS``): the first range on this thread, the others on the
    helper pool.  Returns once every part has ended, then raises the first
    error."""
    parts = min(_FFT_WORKERS, n)
    bounds = [n * i // parts for i in range(parts + 1)]
    pending = [_part_pool().submit(work, lo, hi)
               for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        work(bounds[0], bounds[1])
    finally:
        wait(pending)
    for part in pending:
        part.result()


def _grid(side: int, new=np.zeros) -> np.ndarray:
    """A ``(side, side)`` view of a new ``(side, side + 12)`` complex128
    buffer, zeroed unless ``new`` is ``np.empty``."""
    return new((side, side + _GRID_PAD), dtype=np.complex128)[:, :side]


def _target(samples: np.ndarray, in_place: bool) -> np.ndarray:
    """The grid a step or a mask writes: ``samples`` itself if
    ``in_place``, else a new grid holding a copy of ``samples``, written
    once on the calling thread with no memset before it (its padding
    columns, never read, are left as they come)."""
    if in_place:
        return samples
    grid = _grid(samples.shape[0], np.empty)
    grid[...] = samples
    return grid


def _band_limit(extent: float, wavelength: float, dz: float) -> float:
    dfreq = 1.0 / extent
    return 1.0 / (math.sqrt((2.0 * dfreq * dz) ** 2 + 1.0) * wavelength)


def _transfer_block(fy: np.ndarray, fx: np.ndarray, extent: float,
                    wavelength: float, dz: float, out: np.ndarray) -> None:
    """H at row frequencies ``fy`` and column frequencies ``fx``, written to
    ``out``: exp(j*2*pi*dz*sqrt(1/lambda^2 - fx^2 - fy^2)) on the kept band, 0
    elsewhere.  The band keeps the propagating components with |fx|, |fy|
    <= ``_band_limit``.  Each element is the same sequence of operations
    wherever the block lies, so blocks of a grid equal its one-piece build
    bit for bit."""
    f_lim = _band_limit(extent, wavelength, dz)
    fx2, fy2 = fx * fx, fy * fy
    kz_sq = 1.0 / wavelength ** 2 - fx2[None, :] - fy2[:, None]
    keep = (kz_sq > 0) & (np.abs(fx) <= f_lim)[None, :] \
        & (np.abs(fy) <= f_lim)[:, None]
    phase = np.maximum(kz_sq, 0.0, out=kz_sq)
    np.sqrt(phase, out=phase)
    phase *= 2.0 * np.pi
    phase *= dz
    np.multiply(phase, 1j, out=out)
    np.exp(out, out=out)
    out *= keep


def _transfer_function(side: int, extent: float, wavelength: float,
                       dz: float) -> np.ndarray:
    """A new, read-only quadrant of H for one step, over bins 0..side//2 of
    each axis (``_transfer_block``), built ``_BUILD_ROWS`` rows at a time,
    its rows split over the cores (``_split``).  Steps and launches reach it
    through ``_transfer``.

    Bins i and side - i hold frequencies of opposite sign and equal
    magnitude, bit for bit, and H depends on each axis only through fx^2 and
    |fx|.  So the quadrant, read at ``min(i, side - i)`` on each axis,
    equals the full-grid build element for element."""
    fx = np.fft.fftfreq(side, d=extent / side)[:side // 2 + 1]
    transfer = np.empty((len(fx), len(fx)), dtype=np.complex128)

    def work(lo, hi):
        for a in range(lo, hi, _BUILD_ROWS):
            rows = slice(a, min(a + _BUILD_ROWS, hi))
            _transfer_block(fx[rows], fx, extent, wavelength, dz,
                            transfer[rows])

    _split(len(fx), work)
    transfer.flags.writeable = False
    return transfer


def _transfer(side: int, extent: float, wavelength: float,
              dz: float) -> np.ndarray:
    """The quadrant of H for one step: the held one if its key matches,
    else a new build, which replaces it.  The held quadrant is dropped
    before the build starts, so the two are never alive together (unless a
    caller still holds the old one).  Threads that miss a key at the same
    time build it once: the first builds, the others wait on the lock and
    read it."""
    key = (side, extent, wavelength, dz)
    with _TRANSFER_LOCK:
        transfer = _HELD.get(key)
        if transfer is None:
            _HELD.clear()
            transfer = _HELD[key] = _transfer_function(*key)
        return transfer


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


def _multiply_unfolded(grid: np.ndarray, quadrant: np.ndarray, lo: int,
                       hi: int) -> None:
    """Rows lo..hi of ``grid`` times those of the ``(side, side)`` array the
    quadrant stands for, in place, through views of the quadrant."""
    side, h = grid.shape[0], quadrant.shape[0]
    for rows, from_rows in _mirror(side, h, lo, hi):
        for cols, from_cols in _mirror(side, h, 0, side):
            grid[rows, cols] *= quadrant[from_rows, from_cols]


def _require_step(dz: float) -> None:
    if not 0 < dz < math.inf:
        raise GeometryError(f"dz must be positive and finite, got {dz!r}")


def propagate(field: ScalarField, dz: float, in_place: bool = False, *,
              _margin: float = 0.0, _rows=None) -> ScalarField:
    """Field at z + dz via the band-limited angular-spectrum method: the
    2-D FFT, times H, and the inverse 2-D FFT, in four FFT passes, each
    split over the cores (``_split``): the forward FFT on column ranges
    (``_columns``); the forward FFT and the multiply by H on row ranges;
    the inverse FFT on column ranges (``_columns``), then on row ranges
    (``_inverse_rows``, with ``propagate_to``'s taper and rows).

    The passes run in a new grid that ``_target`` fills with a copy of the
    field, or, if ``in_place``, in the field's own grid, which then holds
    no field if the step raises.
    """
    _require_step(dz)
    transfer = _transfer(field.side, field.extent, field.wavelength, dz)
    grid = _target(field.samples, in_place)

    def forward_rows(lo, hi):
        rows = grid[lo:hi]
        fft.fft(rows, axis=1, out=rows)
        _multiply_unfolded(grid, transfer, lo, hi)

    columns = np.arange(field.side)
    _columns(grid, columns, fft.fft)
    _split(field.side, forward_rows)
    _columns(grid, columns, fft.ifft)
    _inverse_rows(grid, _margin, _rows)
    return field.with_samples(grid, z=field.z_position + dz)


def _columns(grid: np.ndarray, columns: np.ndarray, transform) -> None:
    """``transform`` (``fft.fft`` or ``fft.ifft``) along axis 0 of the
    sorted ``columns`` of ``grid``, in place, one run of consecutive columns
    at a time (``_runs``), split over the cores (``_split``)."""
    def work(lo, hi):
        for a, b in _runs(columns[lo:hi]):
            block = grid[:, a:b]
            transform(block, axis=0, out=block)

    _split(len(columns), work)


def _inverse_rows(grid: np.ndarray, margin: float, rows) -> None:
    """The inverse FFT along the rows of ``grid``, in place; each range of
    rows is then tapered while in cache, if ``margin`` > 0, by a raised
    cosine over the outer ``margin``: its rows' weights, then its columns'.
    A margin in [0, 0.5] keeps the strips apart; at most they meet.
    ``rows`` is None, for every row split over the cores (``_split``), or a
    ``propagate`` step's (lo, hi) span alone, on the calling thread, leaving
    the rest unfinished."""
    side = grid.shape[0]
    m = max(2, int(margin * side)) if margin > 0 else 0
    w = np.ones(side)
    w[:m] = 0.5 * (1.0 - np.cos(np.pi * np.arange(m) / m))
    w[side - m:] = w[:m][::-1]

    def work(lo, hi):
        block = grid[lo:hi]
        fft.ifft(block, axis=1, out=block)
        for a, b in ((lo, min(hi, m)), (max(lo, side - m), hi)):
            grid[a:b] *= w[a:b, None]   # empty unless the span has strip rows
        block[:, :m] *= w[:m]
        block[:, side - m:] *= w[side - m:]

    _split(side, work) if rows is None else work(*rows)


def launch(spectrum: FieldSpectrum, dz: float, *,
           _margin: float = 0.0) -> ScalarField:
    """Field at z + dz of a field given by its band-limited spectrum: the box
    times H over the box's bins, scattered into a zeroed grid, and one
    inverse FFT, over every row.  It equals ``propagate`` of the spectrum's
    field, without the forward FFT.  H's box is gathered from the held
    quadrant of the step's key (``_transfer``), as a step reads it: bin i
    reads quadrant index ``min(i, side - i)``."""
    _require_step(dz)
    side = spectrum.side
    fold = np.minimum(spectrum.bins, side - spectrum.bins)
    box = _transfer(side, spectrum.extent, spectrum.wavelength,
                    dz)[np.ix_(fold, fold)]
    # The bits of a complex product depend on the operands' order, so the
    # order is written out: H times the values, in H's box.
    return _inverse(spectrum, np.multiply(box, spectrum.values, out=box), dz,
                    _margin)


def spectrum_field(spectrum: FieldSpectrum) -> ScalarField:
    """The sampled field of ``spectrum`` at its own plane."""
    return _inverse(spectrum, spectrum.values, 0.0)


def _runs(indices: np.ndarray) -> list:
    """(lo, hi) of each run of consecutive values in the sorted
    ``indices``."""
    cut = np.flatnonzero(np.diff(indices) != 1) + 1
    return [(int(run[0]), int(run[-1]) + 1)
            for run in np.split(indices, cut) if len(run)]


def _inverse(spectrum: FieldSpectrum, values: np.ndarray, dz: float,
             margin: float = 0.0) -> ScalarField:
    """The field whose spectrum is ``values`` on the box of ``spectrum``.

    ``values`` is scattered into the new, zeroed grid; the inverse along
    axis 0 then runs on the box's columns only, one run of consecutive
    columns at a time, since the other columns are zero and stay zero, and
    the inverse along axis 1 of every row as ``_inverse_rows`` runs it: bit
    for bit ``ifft`` along axis 0, then axis 1, of the whole grid, as in
    ``scipy.fft.ifft2`` (``numpy.fft.ifft2`` runs axis 1 first, with other
    bits), since 1/side per pass is a power of two."""
    bins = spectrum.bins
    grid = _grid(spectrum.side)
    grid[np.ix_(bins, bins)] = values
    _columns(grid, np.sort(bins), fft.ifft)
    _inverse_rows(grid, margin, None)
    return ScalarField(samples=grid, extent=spectrum.extent,
                       z_position=spectrum.z_position + dz,
                       wavelength=spectrum.wavelength)


def propagate_to(field: ScalarField | FieldSpectrum, z_target: float,
                 max_step: float = 10.0, edge_margin: float = 0.0,
                 in_place: bool = False, *, _rows=None) -> ScalarField:
    """Propagate to an absolute plane, splitting into steps of at most
    ``max_step``.  ``edge_margin`` in [0, 0.5] applies, if > 0, a soft
    absorbing taper over that outer fraction of the grid in every step
    (suppresses wrap-around on long hops at the cost of strict power
    conservation).  From a ``FieldSpectrum`` the first step is its
    ``launch``, into a new grid, whatever ``in_place`` says: a spectrum has
    no grid to overwrite.

    The first step of a ``ScalarField`` takes ``in_place`` as ``propagate``
    does; every later step runs in the grid of the step before.  So without
    ``in_place`` the field passed in is never written, and with it the
    steps hold no grid but the field's.  A last step that is a
    ``propagate`` finishes only ``sample_at``'s ``_rows`` unless they are
    None; a launch finishes every row."""
    dz_total = z_target - field.z_position
    if not 0 < dz_total < math.inf:
        raise GeometryError("target plane must lie a finite distance beyond "
                            "the current plane")
    if not 0 < max_step < math.inf:
        raise GeometryError(f"max_step must be positive and finite, got "
                            f"{max_step!r}")
    if not 0 <= edge_margin <= 0.5:
        raise GeometryError(f"edge_margin must lie in [0, 0.5], got "
                            f"{edge_margin!r}")
    n_steps = max(1, math.ceil(dz_total / max_step))
    step = dz_total / n_steps
    beam = field
    for i in range(n_steps):
        if isinstance(beam, FieldSpectrum):
            beam = launch(beam, step, _margin=edge_margin)
        else:
            beam = propagate(beam, step, in_place, _margin=edge_margin,
                             _rows=_rows if i == n_steps - 1 else None)
        in_place = True
    return beam


def angular_bandlimit(field: ScalarField, theta_max: float) -> ScalarField:
    """Zero all plane-wave components steeper than ``theta_max`` (rad), by
    two full-grid FFTs.  No runner calls it: it is the reference the tests
    hold ``beams.source_spectrum`` to, and perfbench's per-layer metrics
    name it."""
    if not 0 < theta_max < np.pi / 2:
        raise GeometryError("theta_max must lie in (0, pi/2)")
    fx = np.fft.fftfreq(field.side, d=field.spacing)
    fx2 = fx * fx
    cone = fx2[None, :] + fx2[:, None] \
        <= (math.sin(theta_max) / field.wavelength) ** 2
    return field.with_samples(np.fft.ifft2(np.fft.fft2(field.samples) * cone))


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
        if not all(0 < s < math.inf for s in self.size):
            raise GeometryError(f"mask size must be positive and finite, "
                                f"got {self.size!r}")
        if not all(-math.inf < v < math.inf for v in
                   (self.center_x, self.center_y, self.z_position)):
            raise GeometryError("mask centre and z must be finite")
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
               in_place: bool = False) -> ScalarField:
    """Pointwise multiply the field by the mask's transmittance map; the
    mask's plane must be the field's to within 1e-9 m.

    The map is built only over the box of rows and columns the shape
    reaches, and multiplied only where it is not 1: samples where the map is
    1 keep the input's bits, signed zeros included, and the rest are input
    times map, in a new grid that ``_target`` fills with a copy of the
    samples, or, if ``in_place``, in the field's own grid."""
    if abs(mask.z_position - field.z_position) > 1e-9:
        raise PlaneMismatchError(
            f"mask at z={mask.z_position} but field at z={field.z_position}")
    grid = _target(field.samples, in_place)
    c = field.coords()
    dx, dy = c - mask.center_x, c - mask.center_y
    cols, rows = (np.flatnonzero(span) for span in mask._spans(dx, dy))
    if cols.size and rows.size:
        rows, cols = slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1)
        box, t = grid[rows, cols], mask._map(dx[cols], dy[rows])
        np.multiply(box, t, out=box, where=t != 1)
    return field.with_samples(grid)


def sample_points(field: ScalarField, points) -> np.ndarray:
    """Bilinear interpolation of the complex grid at (x, y) positions."""
    r0, c0, wr, wc = cell_corners(field.side, field.spacing, points)
    u = field.samples
    return ((1 - wr) * (1 - wc) * u[r0, c0]
            + (1 - wr) * wc * u[r0, c0 + 1]
            + wr * (1 - wc) * u[r0 + 1, c0]
            + wr * wc * u[r0 + 1, c0 + 1])


def sample_at(field: ScalarField | FieldSpectrum, z_target: float, points,
              max_step: float = 10.0, edge_margin: float = 0.0,
              in_place: bool = False) -> np.ndarray:
    """``sample_points(propagate_to(field, z_target, max_step, edge_margin,
    in_place), points)``, bit for bit, but a last step that is a
    ``propagate`` finishes, on the calling thread, only the rows the points
    read; no field of that unfinished grid (with ``in_place``, the field's
    own) is returned."""
    r0 = cell_corners(field.side, field.extent / field.side, points)[0]
    rows = (int(r0.min()), int(r0.max()) + 2) if r0.size else (0, 0)
    return sample_points(propagate_to(field, z_target, max_step, edge_margin,
                                      in_place, _rows=rows), points)
