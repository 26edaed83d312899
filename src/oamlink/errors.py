"""Exception types shared across the simulator."""


class OamLinkError(Exception):
    """Base class for all simulator errors."""


class GeometryError(OamLinkError):
    """Degenerate or out-of-range geometry (radii, counts, extents)."""


class CutoffError(OamLinkError):
    """Guided-mode cutoff reached: the requested mode cannot propagate."""


class NyquistError(OamLinkError):
    """Discretization too coarse for the requested azimuthal order."""


class PlaneMismatchError(OamLinkError):
    """Operands live at different z-planes or on different grids."""


class OutOfExtentError(OamLinkError):
    """Requested sample position falls outside the grid extent."""


class ChannelError(OamLinkError):
    """Degenerate receive channel (e.g. all-zero gains, empty pilot)."""


class ConfigError(OamLinkError):
    """Invalid experiment configuration; carries the offending field path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field '{field}': {message}")
