"""Exact phase reduction for sums of unit-modulus terms e(f * alpha).

A double is a dyadic rational, so for an integer frequency f the fractional
part of f * alpha can be computed exactly with big-integer arithmetic:
alpha = num / 2^e gives (f * num mod 2^e) / 2^e.  This makes e(f * alpha)
exactly periodic in alpha (shifting alpha by a representable integer changes
nothing, bit for bit) and keeps the phase error of each term at one rounding
of the final division, no matter how large f is.
"""

from __future__ import annotations

import math
from typing import Iterable


def unit_sum(freqs: Iterable[int], alpha: float) -> complex:
    """Sum of e(f * alpha) over integer frequencies, compensated."""
    num, den = float(alpha).as_integer_ratio()
    re = []
    im = []
    two_pi = 2.0 * math.pi
    for f in freqs:
        ph = two_pi * (((f * num) % den) / den)
        re.append(math.cos(ph))
        im.append(math.sin(ph))
    return complex(math.fsum(re), math.fsum(im))
