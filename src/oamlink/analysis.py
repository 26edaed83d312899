"""Structural beam analysis: azimuthal (OAM) spectra on rings, field
similarity, and the healing curve of an obstructed beam against the clear
one, one ``HealingCurve.add`` per analysis plane the beams reach
(``scenario._run_order``)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, NyquistError
from .field import ScalarField
from .propagation import sample_points
from .wavevector import beam_radius_at

_SIMILARITY_ROWS = 64


@dataclass(frozen=True)
class ModeSpectrum:
    """Power fraction per azimuthal mode index on one ring."""

    powers: dict                 # mode index m -> power fraction
    ring_radius: float
    z_position: float

    def purity(self, l: int) -> float:
        return self.powers.get(int(l), 0.0)


@dataclass(frozen=True)
class HealingCurve:
    z_values: list
    similarity: list
    mode_purity: list

    def add(self, z: float, clear: ScalarField,
            obstructed: ScalarField | None, order_l: int,
            ring_radius: float) -> None:
        """Append plane ``z``: the similarity and mode purity of the
        obstructed beam against the clear one, on the annulus the
        conical-spread estimate puts around a ring of ``ring_radius``.
        Without an obstructed beam the clear one is its own reference:
        similarity 1, purity of the clear beam.  The purity, |c_l|^2 over the
        whole ring power, needs no mode past |l|."""
        beam_r = beam_radius_at(z, order_l, ring_radius, clear.wavenumber)
        beam_r = min(beam_r, (clear.extent / 2.0 - clear.spacing) / 1.5)
        if obstructed is None:
            similarity, beam = 1.0, clear
        else:
            similarity = field_similarity(obstructed, clear,
                                          (0.5 * beam_r, 1.5 * beam_r))
            beam = obstructed
        purity = azimuthal_spectrum(beam, beam_r, abs(order_l)).purity(order_l)
        self.z_values.append(z)
        self.similarity.append(similarity)
        self.mode_purity.append(purity)


def azimuthal_spectrum(field: ScalarField, ring_radius: float, max_mode: int,
                       num_samples: int | None = None) -> ModeSpectrum:
    """Azimuthal DFT of the field on a centered ring.

    Samples the ring bilinearly, Fourier-transforms over azimuth, and
    normalizes per-mode powers by the total ring power; only modes in
    [-max_mode, max_mode] are reported, so fractions sum to at most 1.
    """
    if ring_radius <= 0 or ring_radius > field.extent / 2.0 - field.spacing:
        raise GeometryError("ring outside the grid extent")
    ns = num_samples if num_samples is not None else max(
        256, 8 * max_mode, int(np.ceil(2.0 * np.pi * ring_radius / field.spacing)))
    if ns < 4 * max_mode:
        raise NyquistError(f"{ns} ring samples undersample max mode {max_mode}")
    phi = 2.0 * np.pi * np.arange(ns) / ns
    pts = np.column_stack([ring_radius * np.cos(phi), ring_radius * np.sin(phi)])
    ring = sample_points(field, pts)
    coeffs = np.fft.fft(ring) / ns
    total = float(np.sum(np.abs(ring) ** 2) / ns)
    if total <= 0:
        raise GeometryError("zero field power on the ring")
    powers = {}
    for m in range(-max_mode, max_mode + 1):
        powers[m] = float(np.abs(coeffs[m % ns]) ** 2 / total)
    return ModeSpectrum(powers=powers, ring_radius=ring_radius,
                        z_position=field.z_position)


def field_similarity(obstructed: ScalarField, clear: ScalarField,
                     annulus: tuple) -> float:
    """Normalized overlap |<u, v>|^2 / (|u|^2 |v|^2) restricted to a centered
    annulus (r_inner, r_outer).

    Only the square of rows and columns whose coordinate c has
    c**2 <= r_outer**2 is read; no sample outside it can lie in the
    annulus.  The region, |u|^2, |v|^2 and conj(u)*v are built and summed
    ``_SIMILARITY_ROWS`` rows of that square at a time, so the temporaries
    are one block's, not the annulus's.  The samples selected are those of
    a full-grid selection; only the order of the sums differs (one numpy
    sum per block, then the blocks in turn), which moves the value by a
    few units in the last place (at most 7.1e-16 relative over the default
    experiment's planes, at 512^2 and 1024^2).  The sums are numpy's, not
    BLAS dot products, so their rounding does not depend on the BLAS
    thread count."""
    obstructed.require_same_plane(clear)
    r_in, r_out = annulus
    if not 0 <= r_in < r_out:
        raise GeometryError("annulus needs 0 <= r_inner < r_outer")
    c2 = obstructed.coords() ** 2
    rows = np.flatnonzero(c2 <= r_out ** 2)   # never empty: c = 0 is on the grid
    box = slice(rows[0], rows[-1] + 1)
    c2 = c2[box]
    us, vs = obstructed.samples[box, box], clear.samples[box, box]
    nu = nv = 0.0
    overlap = 0j
    for lo in range(0, len(c2), _SIMILARITY_ROWS):
        block = slice(lo, lo + _SIMILARITY_ROWS)
        rho2 = c2[None, :] + c2[block, None]
        region = (rho2 >= r_in ** 2) & (rho2 <= r_out ** 2)
        u, v = us[block][region], vs[block][region]
        nu += float(np.sum(np.abs(u) ** 2))
        nv += float(np.sum(np.abs(v) ** 2))
        np.conjugate(u, out=u)   # u is its own copy: u.conj() * v, in place
        u *= v
        overlap += complex(np.sum(u))
    if nu <= 0 or nv <= 0:
        raise GeometryError("zero field power in the annulus region")
    return abs(overlap) ** 2 / (nu * nv)
