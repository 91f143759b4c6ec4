"""Exact phase reduction for sums of unit-modulus terms e(f * alpha).

A double is a dyadic rational, so for an integer frequency f the fractional
part of f * alpha can be computed exactly with integer arithmetic:
alpha = num / 2^e gives (f * num mod 2^e) / 2^e.  This makes e(f * alpha)
exactly periodic in alpha (shifting alpha by a representable integer changes
nothing, bit for bit) and keeps the phase error of each term at one rounding
of the final division, no matter how large f is.

Two routes compute the same reduction, chosen from the input.  When
2^e <= 2^64 and every frequency fits in int64, the residues come from
wrapping uint64 arithmetic: reduction mod 2^64 respects products, so
(f mod 2^64) * (num mod 2^64) mod 2^64, masked to its low e bits, is
f * num mod 2^e.  Converting that residue to a double rounds to nearest and
dividing by 2^e is exact, which is the correctly rounded quotient Python's
int division gives, so both routes produce the same phase doubles.  Small
alphas (2^e > 2^64) and frequencies past int64 take the big-integer loop.
Either way the terms are summed with math.fsum, which does not depend on
their order.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

_TWO_PI = 2.0 * math.pi
_WORD = 1 << 64


def _reduced_uint64(freqs: Sequence[int], num: int, den: int) -> np.ndarray | None:
    """(f * num mod den) / den for each f as float64, or None when den > 2^64
    or some frequency does not fit in int64."""
    if den > _WORD:
        return None
    f = np.array(freqs)
    if f.dtype.kind != "i":     # past int64, numpy infers uint64, float or object
        return None
    r = f.astype(np.int64, copy=False).view(np.uint64) * np.uint64(num % _WORD)
    return (r & np.uint64(den - 1)).astype(np.float64) / float(den)


def unit_sum(freqs: Sequence[int], alpha: float) -> complex:
    """Sum of e(f * alpha) over integer frequencies, compensated."""
    num, den = float(alpha).as_integer_ratio()
    frac = _reduced_uint64(freqs, num, den)
    if frac is not None:
        ph = _TWO_PI * frac
        return complex(math.fsum(np.cos(ph).tolist()),
                       math.fsum(np.sin(ph).tolist()))
    re = []
    im = []
    for f in freqs:
        ph = _TWO_PI * (((f * num) % den) / den)
        re.append(math.cos(ph))
        im.append(math.sin(ph))
    return complex(math.fsum(re), math.fsum(im))
