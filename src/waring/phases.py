"""Exact phase reduction for sums of unit-modulus terms e(f * alpha), and
the correctly rounded float sums every moment and phase sum goes through.

A double is a dyadic rational, so for an integer frequency f the fractional
part of f * alpha can be computed exactly with integer arithmetic:
alpha = num / 2^e gives (f * num mod 2^e) / 2^e.  This makes e(f * alpha)
exactly periodic in alpha (shifting alpha by a representable integer changes
nothing, bit for bit) and keeps the phase error of each term at one rounding
of the final division, no matter how large f is.

Two routes compute the same reduction, chosen per alpha from the input.
When 2^e <= 2^64 and every frequency fits in int64, the residues come from
wrapping uint64 arithmetic: reduction mod 2^64 respects products, so
(f mod 2^64) * (num mod 2^64) mod 2^64, masked to its low e bits, is
f * num mod 2^e.  Converting that residue to a double rounds to nearest and
dividing by 2^e is exact, which is the correctly rounded quotient Python's
int division gives, so both routes produce the same phase doubles.  Small
alphas (2^e > 2^64) and frequencies past int64 take the big-integer loop
over Python ints, with math.cos and math.sin.

unit_sums evaluates one frequency list at many alphas in blocks of at most
_BLOCK terms, one row of cos terms and one of sin terms per alpha; the
uint64 route takes one np.cos and one np.sin per block.  unit_sum is its
one-alpha case.

Each row is summed to the double math.fsum returns (the exact sum, rounded
once, half to even), by exponent buckets over a whole block when the rows
are long enough: frexp writes each finite x as t * 2^(e - 27) with
|t| < 2^27 and 26 fraction bits, and one bincount each sums trunc(t) and
t - trunc(t) per (row, e), exactly, in column chunks of about _CHUNK
elements that bound the memory however long the rows.  Scaled by ldexp
each bucket sum stays exact, subnormals included (a multiple of 2^-1074 of
at most 53 bits), so math.fsum of a row's bucket values is math.fsum of
the row.  A row goes to math.fsum itself if it holds a nan or an inf, if
its largest exponent plus the bit length of its length reaches 1023 (fsum
may overflow on the way and raise), or if it sums to exactly zero (fsum
picks the sign).  exact_sum is the one-row case.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import as_int, as_real

_TWO_PI = 2.0 * math.pi
_WORD = 1 << 64
# math.fsum of lists beats the bucket passes below this many terms in all
# or per row (one core of a 2-core x86 VM, numpy 2.4): one row of 1024 took
# 38 us bucketed, 36 us by fsum; unit_sums at 512 alphas over 64 terms took
# 4.3 ms bucketed, 4.7 ms by fsum, and over 50 terms 3.8 ms either way
_FSUM_BELOW, _ROW_BELOW = 1024, 64
# Elements per bucket pass (max(1, _CHUNK // rows) columns), to bound its
# memory.  A bucket sums at most _CHUNK parts below 2^27, so its float64
# partial sums stay below 2^53 units of the part, exact, for _CHUNK <= 2^26.
_CHUNK = 1 << 16
# Terms per unit_sums block: 2^13 ran unit_sums fastest of 2^12..2^15 at
# P = 200 and 1000, and larger blocks raise the peak RSS
_BLOCK = 1 << 13


def _row_sums(x: np.ndarray) -> list[float]:
    """[math.fsum(row) for row in x.tolist()] for a 2-D float64 array, bit
    for bit, by the bucket passes of the module docstring."""
    rows, n = x.shape
    if x.size < _FSUM_BELOW or n < _ROW_BELOW:
        return [math.fsum(r.tolist()) for r in x]
    parts, bad = [], np.zeros(rows, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):   # rows fsum takes
        step = max(1, _CHUNK // rows)
        for i in range(0, n, step):
            m, e = np.frexp(x[:, i:i + step])
            top = e.max(axis=1)
            bad |= top + n.bit_length() >= 1023
            low = int(e.min())
            span = int(top.max()) - low + 1
            idx = (e - low + np.arange(0, rows * span, span)[:, None]).ravel()
            t = m * (1 << 27)
            hi = np.bincount(idx, np.trunc(t, out=m).ravel(), rows * span)
            t -= m                           # exact: the 26 fraction bits of t
            lo = np.bincount(idx, t.ravel(), rows * span)
            scale = np.arange(low - 27, low - 27 + span)
            parts += [np.ldexp(hi.reshape(rows, span), scale),
                      np.ldexp(lo.reshape(rows, span), scale)]
    vals = np.hstack(parts)
    bad |= ~np.isfinite(vals).all(axis=1)
    sums = [0.0 if b else math.fsum(v.tolist()) for v, b in zip(vals, bad.tolist())]
    return [s or math.fsum(r.tolist()) for s, r in zip(sums, x)]


def exact_sum(x: np.ndarray) -> float:
    """math.fsum(x.tolist()) for a float64 array, bit for bit; a 1-D view,
    strided or not, is read in place."""
    return _row_sums(np.reshape(x, (1, -1)))[0]


def _word_terms(freqs, ratios: list) -> np.ndarray:
    """Rows of cos, then rows of sin, from uint64 residues (den <= 2^64 and
    every frequency in int64)."""
    words = np.asarray(freqs).astype(np.int64, copy=False).view(np.uint64)
    r = np.multiply.outer(np.array([num % _WORD for num, _ in ratios],
                                   dtype=np.uint64), words)
    r &= np.array([den - 1 for _, den in ratios], dtype=np.uint64)[:, None]
    ph = r.astype(np.float64)
    # r * (2 pi / den) rounds once, as (r / den) * 2 pi does: den is a power
    # of 2, so neither division rounds
    ph *= np.array([_TWO_PI / den for _, den in ratios])[:, None]
    out = np.empty((2,) + ph.shape)
    np.cos(ph, out=out[0])
    np.sin(ph, out=out[1])
    return out.reshape(-1, ph.shape[1])


def _big_terms(freqs, ratios: list) -> np.ndarray:
    """Rows of cos, then rows of sin, from Python int residues."""
    ints = list(map(as_int, freqs.tolist() if isinstance(freqs, np.ndarray)
                    else freqs))
    phs = [[_TWO_PI * (((f * num) % den) / den) for f in ints]
           for num, den in ratios]
    return np.array([[math.cos(p) for p in row] for row in phs]
                    + [[math.sin(p) for p in row] for row in phs])


def unit_sums(freqs: Sequence[int], alphas: Sequence[float]) -> list[complex]:
    """Sum of e(f * alpha) over integer frequencies (a sequence of ints or
    an int64 array) at each alpha, each part correctly rounded.  A nan,
    infinite or non-real alpha or a non-integer frequency is a DomainError."""
    ratios = [as_real("alpha", a).as_integer_ratio() for a in alphas]
    f = np.asarray(freqs)    # past int64, numpy infers uint64, float or object
    routes = ([], [])
    for i, (_, den) in enumerate(ratios):
        routes[f.dtype.kind != "i" or den > _WORD].append(i)
    out = [0j] * len(ratios)
    step = max(1, _BLOCK // max(1, len(f)))
    for terms, idx in ((_word_terms, routes[0]), (_big_terms, routes[1])):
        for j in range(0, len(idx), step):
            block = idx[j:j + step]
            sums = _row_sums(terms(freqs, [ratios[i] for i in block]))
            for i, re, im in zip(block, sums, sums[len(block):]):
                out[i] = complex(re, im)
    return out


def unit_sum(freqs: Sequence[int], alpha: float) -> complex:
    """unit_sums at one alpha."""
    return unit_sums(freqs, [alpha])[0]
