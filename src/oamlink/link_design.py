"""Link-budget dependency chain: from a desired link specification to the
derived antenna and beam geometry of the 28 GHz experimental OAM link.

The derivations follow the design rules of the outdoor link this simulator
models.  The published parameter table for that link contains a couple of
internal inconsistencies (two different beam radii, a far-field distance and
element count that do not follow from the stated formulas at the listed
wavelength); ``compare_with_reference`` reports computed values side by side
with the published ones and flags the mismatches instead of hiding them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import GeometryError

SPEED_OF_LIGHT = 299792458.0   # m/s, exact by the SI definition of the metre


@dataclass(frozen=True)
class LinkBudget:
    """Desired link specification (all SI units)."""

    bandwidth_B: float        # signal bandwidth, Hz
    num_modes_K: int          # co-channel OAM data streams
    link_distance_L: float    # TX to RX, m
    rx_spacing_d: float       # max UE antenna spacing, m
    digital_if_F: float       # receiver ADC bandwidth, Hz
    rf_frequency: float       # carrier, Hz

    def __post_init__(self):
        for name in ("bandwidth_B", "num_modes_K", "link_distance_L",
                     "rx_spacing_d", "digital_if_F", "rf_frequency"):
            if not 0 < getattr(self, name) < math.inf:
                raise GeometryError(f"LinkBudget.{name} must be positive and "
                                    f"finite")
        if self.bandwidth_B >= self.digital_if_F:
            raise GeometryError("bandwidth_B must be below digital_if_F")


@dataclass(frozen=True)
class LinkDerived:
    """Dependent link parameters chained from a LinkBudget."""

    beam_radius_R: float      # operating conical-beam radius at RX, m
    wavelength_lambda: float  # RF wavelength, m
    tx_radius_r: float        # largest TX ring radius, m
    far_field_L_far: float    # far-field boundary of the TX aperture, m
    num_elements_N: int       # TX ring element count


def max_beam_radius(budget: LinkBudget) -> float:
    """Exclusive upper bound d*F/(2B) on the usable beam radius at RX."""
    return budget.rx_spacing_d * budget.digital_if_F / (2.0 * budget.bandwidth_B)


def tx_radius(K: int, wavelength: float, L: float, R: float) -> float:
    """Largest TX ring radius r = (K-1)*lambda*L / (4*pi*R)."""
    if R <= 0 or K < 2:
        raise GeometryError("tx_radius needs R > 0 and at least two modes")
    return (K - 1) * wavelength * L / (4.0 * math.pi * R)


def far_field_distance(r: float, wavelength: float) -> float:
    """Far-field boundary 2*(2r)^2/lambda of an aperture of radius r."""
    if r < 0 or wavelength <= 0:
        raise GeometryError("far_field_distance needs r >= 0 and wavelength > 0")
    return 2.0 * (2.0 * r) ** 2 / wavelength


def num_elements(r: float, wavelength: float) -> int:
    """Element count of a half-wavelength-spaced ring: floor(2*pi*r / (lambda/2))."""
    if r <= 0 or wavelength <= 0:
        raise GeometryError("num_elements needs r > 0 and wavelength > 0")
    return int(math.floor(4.0 * math.pi * r / wavelength))


def derive_link(budget: LinkBudget, chosen_R: float,
                wavelength: float | None = None) -> LinkDerived:
    """Chain wavelength, TX radius, far-field distance and element count.

    ``wavelength`` overrides the exact c/f value (the published table used a
    rounded 0.011 m).
    """
    bound = max_beam_radius(budget)
    if not 0 < chosen_R < bound:
        raise GeometryError(
            f"beam radius {chosen_R} m outside (0, {bound:.4f}) m bound")
    lam = wavelength if wavelength is not None else SPEED_OF_LIGHT / budget.rf_frequency
    r = tx_radius(budget.num_modes_K, lam, budget.link_distance_L, chosen_R)
    return LinkDerived(
        beam_radius_R=chosen_R,
        wavelength_lambda=lam,
        tx_radius_r=r,
        far_field_L_far=far_field_distance(r, lam),
        num_elements_N=num_elements(r, lam),
    )


# Parameter set of the experimental outdoor 28 GHz link this simulator models.
REFERENCE_BUDGET = LinkBudget(
    bandwidth_B=20e6,
    num_modes_K=5,
    link_distance_L=50.0,
    rx_spacing_d=0.20,
    digital_if_F=983.04e6,
    rf_frequency=28e9,
)

# Values published for that link.  The radius row lists both the computed
# bound-side value (2.4576 m) and the operating value (0.87 m); only the
# latter reproduces the 0.201 m TX radius.
REFERENCE_REPORTED = {
    "beam_radius_bound_m": 2.4576,
    "beam_radius_operating_m": 0.87,
    "wavelength_m": 0.011,
    "tx_radius_m": 0.201,
    "far_field_m": 32.35,
    "num_elements": 238,
}


def compare_with_reference(derived: LinkDerived,
                           rel_tol: float = 0.01) -> dict:
    """Computed dependent parameters next to the published ones, with a
    ``discrepancy`` flag wherever they disagree beyond ``rel_tol``."""

    pairs = {
        "tx_radius_m": (derived.tx_radius_r, REFERENCE_REPORTED["tx_radius_m"]),
        "far_field_m": (derived.far_field_L_far, REFERENCE_REPORTED["far_field_m"]),
        "num_elements": (float(derived.num_elements_N),
                         float(REFERENCE_REPORTED["num_elements"])),
    }
    out = {}
    for name, (computed, reported) in pairs.items():
        rel = abs(computed - reported) / abs(reported)
        out[name] = {
            "computed": computed,
            "reported": reported,
            "discrepancy": bool(rel > rel_tol),
        }
    out["beam_radius_m"] = {
        "operating": REFERENCE_REPORTED["beam_radius_operating_m"],
        "bound_value": REFERENCE_REPORTED["beam_radius_bound_m"],
        "note": "published table lists both; the operating value reproduces "
                "the 0.201 m TX radius",
    }
    return out
