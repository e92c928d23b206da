"""Radial special functions.

Provides the spherical Bessel function j_n and the outgoing Hankel function
h_n with the composite f_n(z) + z f_n'(z) that appears in curl formulas of
multipole fields, both by three-term recurrences.
"""

from __future__ import annotations

import math


def radial(n, z, outgoing):
    """(f_n(z), f_n(z) + z f_n'(z)) for an integer n >= 0 and a real z > 0.

    f is the spherical Bessel function j_n, or the outgoing Hankel function
    h_n = j_n + i y_n when outgoing.  j runs by Miller's downward recurrence
    (Gautschi, SIAM Review 9, 1967) from n + z + 10 z^(1/3) + 16, a dozen
    widths (z/2)^(1/3) of the turning region past n + z, so that the
    start's error has decayed to rounding by n.  The row is rescaled to 1
    before a step could overflow, and scaled to the closed form of
    j_0 = sin z / z or j_1 = sin z / z^2 - cos z / z, whichever is larger,
    so never to a zero.  y runs upward from y_{-1} = sin z / z and
    y_0 = -cos z / z.  The composite is read off the same row,
    f_n + z f_n' = z f_{n-1} - n f_n, with j_{-1} = cos z / z.
    """
    if not z > 0:
        raise ValueError(f"radial functions need a real z > 0, got {z!r}")
    s, c = math.sin(z), math.cos(z)
    f, f_prev = s / z, c / z  # j_0, j_{-1}
    if n > 0:
        # p, a multiple of j, runs down by p_{k-1} = (2k+1)/z p_k - p_{k+1}: step k
        # leaves (hi, lo) = (p_k, p_{k-1}), and kept = (p_n, p_{n-1})
        start = n + int(z + 10 * z ** (1 / 3)) + 16
        top = 1e300 * min(z, 1.0) / (2 * start + 3)  # no step from below top overflows
        hi, lo, kept = 0.0, 1.0, (0.0, 0.0)
        for k in range(start, 0, -1):
            hi, lo = lo, (2 * k + 1) / z * lo - hi
            if k == n:
                kept = (hi, lo)
            if abs(lo) > top:
                hi, kept, lo = hi / lo, (kept[0] / lo, kept[1] / lo), 1.0
        j1 = (f - c) / z
        scale = f / lo if abs(f) >= abs(j1) else j1 / hi
        f, f_prev = kept[0] * scale, kept[1] * scale
    if outgoing:
        y_prev, y = s / z, -c / z
        for k in range(n):
            y_prev, y = y, (2 * k + 1) / z * y - y_prev
        f, f_prev = complex(f, y), complex(f_prev, y_prev)
    return f, z * f_prev - n * f

