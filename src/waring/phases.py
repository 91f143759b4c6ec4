"""Exact phase reduction for sums of unit-modulus terms e(f * alpha), and
the correctly rounded float sum every moment and phase sum goes through.

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
alphas (2^e > 2^64) and frequencies past int64 take the big-integer loop
over Python ints.

Either way the terms are summed by exact_sum, which returns the double
math.fsum returns: the exact sum, rounded once, half to even.  It does not
depend on the order of the terms.  It sums arrays of 1024 terms or more by
exponent buckets in a few numpy passes, exact for up to 2^26 terms per
pass, so longer arrays go in chunks of 2^26; shorter arrays, where a list
is faster, go to math.fsum itself.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

_TWO_PI = 2.0 * math.pi
_WORD = 1 << 64
# Below this length math.fsum of a list is faster than the bucket passes
# (both near 50 us at 1024 terms on a 2-core x86 VM, numpy 2.4).
_FSUM_BELOW = 1024
# A chunk puts at most 2^26 parts below 2^27 in a bucket, so each bucket's
# float64 partial sums stay below 2^53 in units of the part: exact.
_CHUNK = 1 << 26


def exact_sum(x: np.ndarray) -> float:
    """math.fsum(x.tolist()) for a float64 array, bit for bit.

    frexp writes each finite x as t * 2^(e - 27) with |t| < 2^27 and 26
    fraction bits; trunc(t) and t - trunc(t) are summed exactly per
    exponent e by bincount, in chunks of at most 2^26 terms.  The buckets
    then combine into one Python int over 2^1126, and int true division
    rounds that once, half to even.  Short arrays, non-finite input, a sum
    that could overflow on the way (so fsum raises OverflowError) and an
    exact zero (fsum chooses the sign) are left to math.fsum.
    """
    x = np.ravel(x)
    if len(x) < _FSUM_BELOW:
        return math.fsum(x.tolist())
    total = 0
    for i in range(0, len(x), _CHUNK):
        m, e = np.frexp(x[i:i + _CHUNK])
        e += 1073                        # frexp exponents start at -1073
        t = m * (1 << 27)
        hi = np.bincount(e, np.trunc(t, out=m))
        # |x| < 2^(len(hi) - 1074); past this cut a prefix sum could near
        # 2^1023 and fsum could overflow on the way, so fsum takes the input
        if len(hi) + len(x).bit_length() >= 2097 or not np.isfinite(hi).all():
            return math.fsum(x.tolist())
        t -= m                           # exact: the 26 fraction bits of t
        lo = np.bincount(e, t)
        for b in np.flatnonzero(hi).tolist():
            total += int(hi[b]) << (b + 26)
        for b in np.flatnonzero(lo).tolist():
            total += int(lo[b] * (1 << 26)) << b
    return total / (1 << 1126) if total else math.fsum(x.tolist())


def _reduced_uint64(freqs: Sequence[int], num: int, den: int) -> np.ndarray | None:
    """(f * num mod den) / den for each f as float64, or None when den > 2^64
    or some frequency does not fit in int64."""
    if den > _WORD:
        return None
    f = np.asarray(freqs)
    if f.dtype.kind != "i":     # past int64, numpy infers uint64, float or object
        return None
    r = f.astype(np.int64, copy=False).view(np.uint64) * np.uint64(num % _WORD)
    return (r & np.uint64(den - 1)).astype(np.float64) / float(den)


def unit_sum(freqs: Sequence[int], alpha: float) -> complex:
    """Sum of e(f * alpha) over integer frequencies (a sequence of ints or
    an int64 array), each part correctly rounded."""
    num, den = float(alpha).as_integer_ratio()
    frac = _reduced_uint64(freqs, num, den)
    if frac is not None:
        ph = _TWO_PI * frac
        return complex(exact_sum(np.cos(ph)), exact_sum(np.sin(ph)))
    if isinstance(freqs, np.ndarray):
        freqs = freqs.tolist()   # int64 products would overflow below
    phs = [_TWO_PI * (((f * num) % den) / den) for f in freqs]
    return complex(exact_sum(np.array([math.cos(p) for p in phs])),
                   exact_sum(np.array([math.sin(p) for p in phs])))
