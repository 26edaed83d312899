"""Structural beam analysis: azimuthal (OAM) spectra on rings, field
similarity, and healing curves of obstructed versus clear beams."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, NyquistError
from .field import FieldSpectrum, ScalarField
from .propagation import ObstructionMask, apply_mask, propagate_to, sample_points
from .wavevector import beam_radius_at


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
            obstructed: ScalarField | None, order_l: int, ring_radius: float,
            max_mode: int = 8) -> None:
        """Append plane ``z``: the similarity and mode purity of the
        obstructed beam against the clear one, on the annulus the
        conical-spread estimate puts around a ring of ``ring_radius``.
        Without an obstructed beam the clear one is its own reference:
        similarity 1, purity of the clear beam."""
        beam_r = beam_radius_at(z, order_l, ring_radius, clear.wavenumber)
        beam_r = min(beam_r, (clear.extent / 2.0 - clear.spacing) / 1.5)
        if obstructed is None:
            similarity, beam = 1.0, clear
        else:
            similarity = field_similarity(obstructed, clear,
                                          (0.5 * beam_r, 1.5 * beam_r))
            beam = obstructed
        purity = azimuthal_spectrum(beam, beam_r, max_mode).purity(order_l)
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

    The region is built only over the square of rows and columns whose
    coordinate c has c**2 <= r_outer**2; no sample outside it can lie in the
    annulus, so the selected samples and their order match a full-grid
    selection.  The overlap is a numpy sum, not a BLAS dot product, so its
    rounding does not depend on the BLAS thread count."""
    obstructed.require_same_plane(clear)
    r_in, r_out = annulus
    if not 0 <= r_in < r_out:
        raise GeometryError("annulus needs 0 <= r_inner < r_outer")
    c2 = obstructed.coords() ** 2
    rows = np.flatnonzero(c2 <= r_out ** 2)   # never empty: c = 0 is on the grid
    box = slice(rows[0], rows[-1] + 1)
    c2 = c2[box]
    rho2 = c2[None, :] + c2[:, None]
    region = (rho2 >= r_in ** 2) & (rho2 <= r_out ** 2)
    u = obstructed.samples[box, box][region]
    v = clear.samples[box, box][region]
    nu = float(np.sum(np.abs(u) ** 2))
    nv = float(np.sum(np.abs(v) ** 2))
    if nu <= 0 or nv <= 0:
        raise GeometryError("zero field power in the annulus region")
    return float(np.abs(np.sum(u.conj() * v)) ** 2 / (nu * nv))


def advance_beams(source: ScalarField | FieldSpectrum,
                  mask: ObstructionMask | None, z_planes,
                  max_step: float = 10.0, edge_margin: float = 0.05,
                  keep_clear: bool = True):
    """Carry the clear beam from ``source`` and, behind ``mask``, the
    obstructed beam through the strictly increasing ``z_planes``.  From a
    spectrum the first step is its launch (``propagate_to``).

    Yields ``(z, clear, obstructed)`` at the mask plane (obstructed is the
    masked field there), then at each plane of ``z_planes``; all of them
    must lie beyond the mask.  Both beams share the hop to the mask.  Past
    it the clear beam is carried only if ``keep_clear``; a beam not carried
    is None, as is the obstructed beam when ``mask`` is None.  The walk
    keeps no field it no longer advances, so a caller that wants memory to
    stay flat must not hold a yielded field while the walk goes on.
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
        if not keep_clear:
            clear = None
        yield mask.z_position, clear, obstructed
    for z in z_planes:
        if clear is not None:
            clear = propagate_to(clear, z, max_step, edge_margin)
        if obstructed is not None:
            obstructed = propagate_to(obstructed, z, max_step, edge_margin)
        yield z, clear, obstructed


def healing_curve(source: ScalarField | FieldSpectrum, mask: ObstructionMask,
                  order_l: int, ring_radius: float, z_samples,
                  max_step: float = 10.0, edge_margin: float = 0.05,
                  max_mode: int = 8) -> HealingCurve:
    """Similarity and mode purity of the obstructed beam versus the clear one
    at each requested plane.

    ``source`` is the field, or its spectrum, at the source plane;
    ``ring_radius`` the radius of the transmitting ring (sets the per-plane
    analysis annulus through the conical-spread estimate).  ``mask`` may be
    None for a control run.
    """
    curve = HealingCurve(z_values=[], similarity=[], mode_purity=[])
    for z, clear, obstructed in advance_beams(source, mask, z_samples,
                                              max_step, edge_margin):
        if mask is None or z != mask.z_position:
            curve.add(z, clear, obstructed, order_l, ring_radius, max_mode)
    return curve
