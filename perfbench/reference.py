"""Reference routes for the benchmark's output checks.

Nothing here calls into waring.  Primes come from a numpy sieve, solution
counts from numpy tables, exponential sums from exact integer phase
reduction summed with numpy, and nested differences from their literal
definition on integers.

Counts whose sums do not fit in int64 are made with two moduli below
2**31: two sums share a key only if they agree modulo both, so the count
is exact unless two distinct sums collide modulo their product (about
4.6e18).  A collision could only raise the reference count, and a given
seed gives the same answer on every run.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from itertools import product

import numpy as np

_M1, _M2 = 2_147_483_629, 2_147_483_587
_DENSE_LIMIT = 1 << 24          # largest sum tabulated densely
_INT64_LIMIT = 1 << 62          # headroom below 2**63 for one more addition


def digest(values) -> str:
    """sha256 of the values as little-endian int64, for compact comparison."""
    return hashlib.sha256(np.asarray(values, dtype="<i8").tobytes()).hexdigest()


def primes_between(lo: int, hi: int) -> np.ndarray:
    """Primes in [lo, hi] from a boolean sieve of [0, hi]."""
    is_p = np.ones(hi + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, math.isqrt(hi) + 1):
        if is_p[p]:
            is_p[p * p::p] = False
    return np.flatnonzero(is_p[lo:]) + lo


def _tuple_keys(values: list[int], s: int, combine=np.add) -> np.ndarray:
    """One int64 key per s-tuple of values, folded left to right by
    `combine`; two keys are equal when the folded integers are equal."""
    def fold(v, m=None):
        acc = v
        for _ in range(s - 1):
            acc = combine.outer(acc, v).ravel()
            if m:
                acc %= m
        return acc

    if s * max(values) < _INT64_LIMIT:
        return fold(np.array(values, dtype=np.int64))
    r1, r2 = (fold(np.array([x % m for x in values], dtype=np.int64), m)
              for m in (_M1, _M2))
    return r1 * _M2 + r2


def s_count(X, s: int, k: int) -> int:
    """Solutions of x_1^k+..+x_s^k = y_1^k+..+y_s^k over a set X."""
    powers = [x**k for x in sorted(set(int(x) for x in X))]
    if s * powers[-1] < _DENSE_LIMIT:
        # r_j[n] = number of j-tuples summing to n, one shifted add per power
        r = np.zeros(powers[-1] + 1, dtype=np.int64)
        r[powers] = 1
        for _ in range(s - 1):
            nxt = np.zeros(len(r) + powers[-1], dtype=np.int64)
            for p in powers:
                nxt[p:p + len(r)] += r
            r = nxt
        return int(np.dot(r, r))
    _, counts = np.unique(_tuple_keys(powers, s), return_counts=True)
    return int(np.dot(counts, counts))


def t_pq_count_s2(E, k: int, p: int, q: int) -> int:
    """Solutions of p^k (x1^k - y1^k) = q^k (y^k - x^k) over E^4."""
    powers = [x**k for x in sorted(set(int(x) for x in E))]
    # the differences y^k - x^k form a multiset symmetric under negation
    lk, lc = np.unique(_tuple_keys([p**k * v for v in powers], 2, np.subtract),
                       return_counts=True)
    rk, rc = np.unique(_tuple_keys([q**k * v for v in powers], 2, np.subtract),
                       return_counts=True)
    _, li, ri = np.intersect1d(lk, rk, assume_unique=True, return_indices=True)
    return int(np.dot(lc[li], rc[ri]))


def unit_sum(freqs, alpha: float) -> complex:
    """Sum of e(f * alpha), each phase reduced exactly mod 1 with integers."""
    num, den = float(alpha).as_integer_ratio()
    frac = np.array([((f * num) % den) / den for f in freqs])
    ph = 2.0 * np.pi * frac
    return complex(np.cos(ph).sum(), np.sin(ph).sum())


def nested_diff_freqs(q: int, k: int, H, windows, x_range: int) -> list[int]:
    """Frequencies q^k psi(x; h; p) of a nested difference sum.

    psi is evaluated from its definition: psi_0(x) = x^k and
    psi_j(x) = (psi_{j-1}(x + h_j p_j^k) - psi_{j-1}(x)) / p_j^k.
    """
    def value(x, steps):
        if not steps:
            return x**k
        h, m = steps[-1]
        diff = value(x + h * m, steps[:-1]) - value(x, steps[:-1])
        quot, rem = divmod(diff, m)
        if rem:
            raise ArithmeticError(f"difference {diff} not divisible by {m}")
        return quot

    out = []
    qk = q**k
    for hs in product(*(range(1, b + 1) for b in H)):
        for ps in product(*windows):
            steps = tuple(zip(hs, (p**k for p in ps)))
            out.extend(qk * value(x, steps) for x in range(1, x_range + 1))
    return out


def minor_arc_ratio(candidates, P: int, k: int) -> tuple[float, float, int]:
    """(max ratio, argmax, minor count) of |f(alpha)| / P^(1 - 2^(1-k)).

    alpha is on a major arc when |alpha - a/q| <= 1/(q tau) for some
    1 <= a <= q <= P with tau = 2k P^(k-1); the test is exact in integers
    after a floating-point screen with a wide margin.
    """
    tau = Fraction(2 * k * P ** (k - 1))
    qs = np.arange(1, P + 1)
    scale = P ** (1 - 1 / 2 ** (k - 1))
    freqs = [x**k for x in range(1, P + 1)]
    best = None
    n_minor = 0
    for alpha in candidates:
        aq = alpha * qs
        near = np.flatnonzero(np.abs(aq - np.rint(aq)) <= 2 / float(tau) + 1e-9)
        exact = Fraction(alpha)
        major = False
        for q in (int(v) for v in qs[near]):
            a = round(exact * q)
            if 1 <= a <= q and abs(exact * q - a) <= 1 / tau:
                major = True
                break
        if major:
            continue
        n_minor += 1
        ratio = abs(unit_sum(freqs, alpha)) / scale
        if best is None or ratio > best[0]:
            best = (ratio, alpha)
    return best[0], best[1], n_minor
