"""References the tests hold the program to, in plain numpy: a direct
Rayleigh-Sommerfeld sum for the angular-spectrum step, the direct DFT of
the source ring's box of bins, and the edge taper as a pass of its own."""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from oamlink.beams import _splat


def analytic_source(X, Y, k):
    """Smooth compact reference source: tilted offset Gaussian plus a
    charge-1 vortex, used for the quadrature oracle comparison."""
    g1 = np.exp(-((X - 0.01) ** 2 + Y ** 2) / (2 * 0.03 ** 2)) \
        * np.exp(1j * k * 0.02 * X)
    g2 = (X + 1j * Y) / 0.03 \
        * np.exp(-(X ** 2 + (Y + 0.015) ** 2) / (2 * 0.025 ** 2))
    return g1 + 0.5 * g2


def rayleigh_sommerfeld_reference(side, extent, lam, dz, fine=128):
    """Direct quadrature of the first Rayleigh-Sommerfeld integral of the
    analytic source, evaluated on the coarse target grid.  The source is
    sampled at ``fine``^2 points; 128 vs 192 agree to 7 digits, so the
    quadrature is converged far below the comparison tolerance.

    The target spacing is ``fine // side`` source spacings, so every
    source-to-target offset is a whole number of source spacings on each
    axis.  The kernel, even in both offsets, is tabulated once on that
    lattice, and target (i, j) sums the source times the ``fine``^2 window
    of the table that starts ``fine // side`` rows and columns earlier per
    step of i and j: an ``einsum`` over strided views of the table, with no
    FFT and no BLAS."""
    step = fine // side
    if step * side != fine:
        raise ValueError("fine must be a multiple of side")
    k = 2 * np.pi / lam
    d = extent / fine
    cf = (np.arange(fine) - fine // 2) * d
    XF, YF = np.meshgrid(cf, cf)
    us = analytic_source(XF, YF, k)
    # offsets of -(fine - 1)..(fine - 1) spacings; offset n is at n + fine - 1
    n = np.arange(1 - fine, fine) * d
    r = np.sqrt(n[None, :] ** 2 + n[:, None] ** 2 + dz * dz)
    kern = dz * (1 - 1j * k * r) * np.exp(1j * k * r) / (2 * np.pi * r ** 3)
    # source p sits step*i - p spacings from target i, as far as p - step*i
    windows = sliding_window_view(kern, (fine, fine))[fine - 1::-step,
                                                      fine - 1::-step]
    return np.einsum("ijpm,pm->ij", windows, us) * d * d


def source_spectrum_reference(ring, side, extent, wavelength, theta_max):
    """The values of ``beams.source_spectrum``'s box by a direct DFT of the
    splat's bounding block: twiddles exp(-2*pi*j*m/side) looked up at the
    integer-reduced phase m = (k*n) mod side, and two ``np.einsum``
    contractions, no FFT and no BLAS."""
    top, left, block = _splat(ring, side, extent)
    fx = np.fft.fftfreq(side, d=extent / side)
    fx2 = fx * fx
    f_max = math.sin(theta_max) / wavelength
    bins = np.flatnonzero(fx2 <= f_max ** 2)
    twiddle = np.exp(-2j * np.pi * (np.arange(side) / side))
    rows = twiddle[np.outer(bins, np.arange(top, top + block.shape[0]))
                   % side]
    cols = twiddle[np.outer(bins, np.arange(left, left + block.shape[1]))
                   % side]
    values = np.einsum("kr,rj->kj", rows,
                       np.einsum("rc,jc->rj", block, cols))
    fx2 = fx2[bins]
    values *= fx2[None, :] + fx2[:, None] <= f_max ** 2
    return values


def absorb_edges(samples, margin):
    """The edge taper of ``propagate_to`` as a pass over the finished grid,
    in place: a raised-cosine ramp on the top and bottom rows, then on the
    left and right columns, so each sample is multiplied by its row's
    weight, then by its column's.  The window is 1 inside the margin, so
    only the border strips are touched."""
    n = samples.shape[0]
    m = max(2, int(margin * n))
    w = np.ones(n)
    ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(m) / m))
    w[:m] = ramp
    w[n - m:] = ramp[::-1]
    m = min(m, n // 2)   # strips meet, not overlap, when the margin is wide
    samples[:m] *= w[:m, None]
    samples[n - m:] *= w[n - m:, None]
    samples[:, :m] *= w[:m]
    samples[:, n - m:] *= w[n - m:]
