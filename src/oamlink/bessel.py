"""Bessel functions of the first kind for the beam-pattern code.

Integer orders only, over the modest domain the annular-array patterns
need (order <= 16, |x| <= 100).  Values come from ``scipy.special.jv``
behind that domain guard, imported at the first call; against a 30-digit
reference its absolute error stays below 1e-14 across the supported
domain.  The first maxima (``first_max_abscissa``) are read from a pinned
table of the first zeros of J_n', so a run that only needs those imports
no scipy.
"""

from __future__ import annotations

import numpy as np

from .errors import GeometryError

MAX_ORDER = 16
MAX_ARG = 100.0

# The first positive zero of J_n' for n = 1..16: the repr of
# ``scipy.special.jnp_zeros(n, 1)[0]``.
_FIRST_MAX = (
    1.8411837813406595, 3.0542369282271404, 4.201188941210528,
    5.317553126083994, 6.415616375700241, 7.5012661446841475,
    8.577836489714073, 9.647421651997217, 10.711433970699945,
    11.77087667495558, 12.826491228033467, 13.878843069697277,
    14.928374492964716, 15.975438807484322, 17.02032327282784,
    18.063264993723692,
)


def bessel_j(order: int, x):
    """J_order(x) for integer 0 <= order <= 16 and |x| <= 100.

    Accepts scalars or arrays; returns the same shape.
    """
    if not float(order).is_integer() or not 0 <= order <= MAX_ORDER:
        raise GeometryError(f"Bessel order {order} outside supported [0, {MAX_ORDER}]")
    xa = np.asarray(x, dtype=float)
    if np.any(np.abs(xa) > MAX_ARG):
        raise GeometryError(f"Bessel argument beyond |x| <= {MAX_ARG}")
    from scipy import special
    out = special.jv(int(order), xa)
    return float(out) if xa.ndim == 0 else out


def bessel_j_signed(order: int, x):
    """J_order(x) extended to negative integer orders via J_{-n} = (-1)^n J_n."""
    n = abs(int(order))
    val = bessel_j(n, x)
    return -val if (order < 0 and n % 2 == 1) else val


def first_max_abscissa(order: int) -> float:
    """Abscissa of the first off-axis maximum of J_order, i.e. the first
    positive zero of J_order' (order >= 1)."""
    n = abs(int(order))
    if n < 1:
        raise GeometryError("order 0 has its maximum on axis; no off-axis peak")
    if n > MAX_ORDER:
        raise GeometryError(f"order {order} outside supported range")
    return _FIRST_MAX[n - 1]
