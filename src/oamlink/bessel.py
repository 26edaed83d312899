"""Bessel functions of the first kind for the beam-pattern code.

Integer orders only, over the modest domain the annular-array patterns
need (order <= 16, |x| <= 100), in numpy alone: the power series for
|x| < 1, Miller's backward recurrence above it (Gautschi, SIAM Rev. 9, 24,
1967; Press et al., Numerical Recipes, section 6.5), and
J_n(-x) = (-1)^n J_n(x).  Against ``scipy.special.jv`` its absolute error
is below 6e-15 for every order over 40 001 points of [-100, 100] and
arguments down to 5e-324.  The first maxima (``first_max_abscissa``) are
read from a pinned table of the first zeros of J_n'.
"""

from __future__ import annotations

import math

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
    n, ax = int(order), np.abs(xa).ravel()
    big = ax >= 1.0   # the power series below |x| = 1 (and for NaN)
    half = ax[~big] / 2.0
    term = acc = half ** n / math.factorial(n)
    # sum_k (-x^2/4)^k (x/2)^n / (k! (n+k)!): the first term left out is
    # under 1.3e-16 of the first at |x| = 1
    for k in range(1, 12):
        term = term * (-half * half / (k * (n + k)))
        acc = acc + term
    out = np.empty_like(ax)
    out[~big] = acc
    if big.any():
        # Miller: J_{j-1} = (2j/x) J_j - J_{j+1} down from an even index far
        # past the call's largest |x|, each element rescaled on its own
        # against overflow, normalised by J_0 + 2 sum_k J_2k = 1
        t, top = 2.0 / ax[big], float(ax[big].max())
        start = 2 * ((int(top + math.sqrt(40.0 * top)) + 15) // 2 + 1)
        prev, cur, norm, ans = 0.0, np.ones_like(t), 0.0, 0.0
        for j in range(start, 0, -1):
            prev, cur = cur, j * t * cur - prev
            norm = norm + cur if j % 2 else norm
            ans = cur if j - 1 == n else ans
            s = np.where(np.abs(cur) > 2.0 ** 300, 2.0 ** -300, 1.0)
            prev, cur, norm, ans = prev * s, cur * s, norm * s, ans * s
        out[big] = ans / (2.0 * norm - cur)
    if n % 2:
        out[xa.ravel() < 0] *= -1.0
    return float(out[0]) if xa.ndim == 0 else out.reshape(xa.shape)


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
