"""Scalar-diffraction simulator for self-healing OAM millimeter-wave links."""

__version__ = "0.1.0"

from .analysis import (HealingCurve, ModeSpectrum, azimuthal_spectrum,
                       field_similarity, healing_curve)
from .beams import (FarFieldPattern, SourceRing, cone_angle, far_field,
                    matched_radius, source_spectrum, synthesize_source_field)
from .bessel import bessel_j, bessel_j_signed, first_max_abscissa
from .errors import (ChannelError, ConfigError, CutoffError, GeometryError,
                     NyquistError, OamLinkError, OutOfExtentError,
                     PlaneMismatchError, SamplingError)
from .field import (FieldSpectrum, ScalarField, read_field, write_field,
                    write_field_csv)
from .link_design import (LinkBudget, LinkDerived, compare_with_reference,
                          derive_link, far_field_distance, max_beam_radius,
                          num_elements, tx_radius)
from .propagation import (ObstructionMask, angular_bandlimit, apply_mask,
                          launch, propagate, propagate_to, sample_points,
                          spectrum_field)
from .rxchain import (ChannelSnapshot, MetricsReport, PilotSignal,
                      apply_channel, compute_metrics, correlate_pilot,
                      estimate_channel, evm_percent, generate_pilot,
                      mrc_combine, receive)
from .scenario import (Scenario, ScenarioResult, default_config,
                       run_experiment, run_scenario, scenario_from_config,
                       validate_config)
from .wavevector import (WaveguideGeom, WaveVectorTriple, beam_radius_at,
                         guide_wavelength_coax, guide_wavelength_rect,
                         healing_prediction, wavevectors_at)
