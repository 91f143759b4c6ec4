"""Exponential sums, arc dissections, and their moments.

Full-interval moments of products of these sums are computed on a uniform
grid with more points than the total frequency span, where the grid mean of
a trigonometric polynomial equals its integral exactly; counting moments
therefore come out as integers up to rounding noise.  Arc-restricted moments
use composite midpoint quadrature per interval with a halving-based error
estimate, since odd absolute powers are not trigonometric polynomials.

Rational classification walks the continued-fraction convergents of alpha:
for arc radii below 1/(2q^2) every covering fraction is a convergent, so the
first covering convergent is the major-arc label with smallest q.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Union

import numpy as np

from . import differences
from .errors import BudgetError, DomainError
from .phases import unit_sum

DEFAULT_GRID_BUDGET = 1 << 26
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# Sum specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FullInterval:
    """f(alpha) = sum_{1 <= x <= P} e(x^k alpha)."""
    P: int
    k: int


@dataclass(frozen=True)
class SetPowers:
    """g(alpha) = sum_{x in elements} e(x^k alpha)."""
    elements: tuple
    k: int


@dataclass(frozen=True)
class SinglePrime:
    """f(alpha, p) = sum_{x in elements} e(p^k x^k alpha)."""
    elements: tuple
    p: int
    k: int


@dataclass(frozen=True)
class PrimeSmooth:
    """h(alpha) = sum over primes X/2 < p <= X and x in inner of e(p^k x^k alpha),
    with X = floor(sqrt(P))."""
    k: int
    P: float
    primes: tuple
    elements: tuple

    @staticmethod
    def make(k: int, P: float, inner=None) -> "PrimeSmooth":
        from . import smooth_sets
        X = math.floor(math.sqrt(P))
        if X < 2:
            raise DomainError(f"P={P} too small: sqrt window below 2")
        win = smooth_sets.primes_in(2, X)
        primes = tuple(p for p in win.primes if 2 * p > X)
        if inner is None:
            inner = range(1, X + 1)
        return PrimeSmooth(k=k, P=float(P), primes=primes,
                           elements=tuple(sorted(set(inner))))


@dataclass(frozen=True)
class DifferenceSum:
    """Nested difference-polynomial sum with per-level step bounds and windows."""
    q: int
    k: int
    H: tuple
    windows: tuple   # tuple of tuples of primes
    x_range: int


ExpSumSpec = Union[FullInterval, SetPowers, SinglePrime, PrimeSmooth,
                   DifferenceSum]


@lru_cache(maxsize=64)
def frequencies(spec: ExpSumSpec) -> tuple:
    """All integer frequencies of the sum, with multiplicity."""
    if isinstance(spec, FullInterval):
        return tuple(x**spec.k for x in range(1, spec.P + 1))
    if isinstance(spec, SetPowers):
        if not spec.elements:
            raise DomainError("set-backed sum has no elements")
        return tuple(x**spec.k for x in spec.elements)
    if isinstance(spec, SinglePrime):
        if not spec.elements:
            raise DomainError("set-backed sum has no elements")
        pk = spec.p**spec.k
        return tuple(pk * x**spec.k for x in spec.elements)
    if isinstance(spec, PrimeSmooth):
        if not spec.primes or not spec.elements:
            raise DomainError("prime-smooth sum has an empty range")
        return tuple(p**spec.k * x**spec.k
                     for p in spec.primes for x in spec.elements)
    if isinstance(spec, DifferenceSum):
        return differences.nested_frequencies(spec.q, spec.k, spec.H,
                                              spec.windows, spec.x_range)
    raise DomainError(f"unknown spec {spec!r}")


def term_count(spec: ExpSumSpec) -> int:
    if isinstance(spec, FullInterval):
        return spec.P
    if isinstance(spec, SetPowers):
        return len(spec.elements)
    if isinstance(spec, SinglePrime):
        return len(spec.elements)
    if isinstance(spec, PrimeSmooth):
        return len(spec.primes) * len(spec.elements)
    if isinstance(spec, DifferenceSum):
        return (math.prod(spec.H) * math.prod(len(w) for w in spec.windows)
                * spec.x_range)
    raise DomainError(f"unknown spec {spec!r}")


def max_frequency(spec: ExpSumSpec) -> int:
    """Largest |frequency|, computable without enumerating the terms."""
    if isinstance(spec, FullInterval):
        return spec.P**spec.k
    if isinstance(spec, SetPowers):
        return max(spec.elements) ** spec.k
    if isinstance(spec, SinglePrime):
        return spec.p**spec.k * max(spec.elements) ** spec.k
    if isinstance(spec, PrimeSmooth):
        return (max(spec.primes) * max(spec.elements)) ** spec.k
    if isinstance(spec, DifferenceSum):
        # psi coefficients are positive and increase in every argument
        hs = tuple(spec.H)
        ps = tuple(max(w) for w in spec.windows)
        poly = differences.psi(spec.k, hs, ps).result
        return spec.q**spec.k * poly.evaluate(spec.x_range)
    raise DomainError(f"unknown spec {spec!r}")


def eval_at(spec: ExpSumSpec, alpha: float) -> complex:
    """Exact finite sum of unit-modulus terms at alpha."""
    return unit_sum(frequencies(spec), alpha)


# ---------------------------------------------------------------------------
# Arc dissection and classification
# ---------------------------------------------------------------------------

class Major(NamedTuple):
    q: int
    a: int


@dataclass(frozen=True)
class ArcDissection:
    """Rational-neighborhood structure on [1/tau, 1 + 1/tau], tau = 2k P^(k-1).

    Wide arcs: center a/q, radius 1/(q tau), for q <= P.  Narrow arcs:
    radius W/(q tau P) for q <= W, with W <= P (default sqrt(P)).
    """

    P: float
    k: int
    tau: float
    Q_major: int
    W: float
    interval: tuple

    @staticmethod
    def make(P: float, k: int, W: float | None = None) -> "ArcDissection":
        if k < 2:
            raise DomainError(f"k must be >= 2, got {k}")
        if P < 2:
            raise DomainError(f"P must be >= 2, got {P}")
        tau = 2 * k * P ** (k - 1)
        if W is None:
            W = math.sqrt(P)
        if not 1 <= W <= P:
            raise DomainError(f"W must lie in [1, P], got {W}")
        return ArcDissection(P=float(P), k=k, tau=tau, Q_major=math.floor(P),
                             W=float(W), interval=(1 / tau, 1 + 1 / tau))

    def _raw_arcs(self, qmax: int, radius_of_q) -> list:
        arcs = []
        for q in range(1, qmax + 1):
            r = radius_of_q(q)
            for a in range(1, q + 1):
                if math.gcd(a, q) == 1:
                    arcs.append((q, a, a / q, r))
        return arcs

    def raw_major_arcs(self) -> list:
        """(q, a, center, halfwidth) for the wide family, unmerged."""
        return self._raw_arcs(self.Q_major, lambda q: 1 / (q * self.tau))

    def raw_narrow_arcs(self) -> list:
        return self._raw_arcs(math.floor(self.W),
                              lambda q: self.W / (q * self.tau * self.P))

    def _merged(self, raw) -> list:
        lo0, hi0 = self.interval
        ivs = sorted((max(c - r, lo0), min(c + r, hi0)) for (_, _, c, r) in raw)
        merged = []
        for lo, hi in ivs:
            if hi <= lo:
                continue
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        return merged

    def major_intervals(self) -> list:
        return self._merged(self.raw_major_arcs())

    def narrow_intervals(self) -> list:
        return self._merged(self.raw_narrow_arcs())

    def minor_intervals(self) -> list:
        return _subtract(self.interval, self.major_intervals())

    def major_minus_narrow_intervals(self) -> list:
        narrow = self.narrow_intervals()
        out = []
        for lo, hi in self.major_intervals():
            out.extend(_subtract((lo, hi), narrow))
        return out

    def region_intervals(self, region: str) -> list:
        table = {
            "major": self.major_intervals,
            "narrow": self.narrow_intervals,
            "minor": self.minor_intervals,
            "major_minus_narrow": self.major_minus_narrow_intervals,
        }
        if region not in table:
            raise DomainError(f"unknown region {region!r}")
        return table[region]()


def _subtract(interval, ivs) -> list:
    """Parts of interval not covered by the sorted, disjoint ivs."""
    out = []
    cur = interval[0]
    for lo, hi in ivs:
        if hi <= interval[0] or lo >= interval[1]:
            continue
        if lo > cur:
            out.append((cur, lo))
        cur = max(cur, hi)
    if cur < interval[1]:
        out.append((cur, interval[1]))
    return out


def _convergents(num: int, den: int):
    """Continued-fraction convergents of num/den, ascending denominator."""
    p0, q0, p1, q1 = 0, 1, 1, 0
    while den:
        a, rem = divmod(num, den)
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        num, den = den, rem
        yield p1, q1


def classify(alpha: float, d: ArcDissection, which: str = "M") -> Major | None:
    """Smallest-q arc label covering alpha, or None for the complement.

    which="M" classifies against the wide arcs (q <= P, radius 1/(q tau));
    which="N" against the narrow arcs (q <= W, radius W/(q tau P)).  The
    returned label is re-verified against its defining inequality.
    """
    if which not in ("M", "N"):
        raise DomainError(f"which must be 'M' or 'N', got {which!r}")
    lo0, hi0 = d.interval
    if not lo0 - 1e-12 <= alpha <= hi0 + 1e-12:
        raise DomainError(f"alpha={alpha} outside the base interval")
    qmax = d.Q_major if which == "M" else math.floor(d.W)
    tau = Fraction(d.tau)
    exact_alpha = Fraction(alpha)
    if which == "M":
        def radius(q):
            return Fraction(1, q) / tau
    else:
        W, P = Fraction(d.W), Fraction(d.P)
        def radius(q):
            return W / (q * tau * P)
    num, den = exact_alpha.as_integer_ratio()
    for a, q in _convergents(num, den):
        if q > qmax:
            break
        if not 1 <= a <= q:
            continue
        if abs(exact_alpha - Fraction(a, q)) <= radius(q):
            assert abs(alpha - a / q) <= float(radius(q)) * (1 + 1e-12)
            return Major(q=q, a=a)
    return None


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentFactor:
    spec: ExpSumSpec
    exponent: int
    conjugated: bool = False


@dataclass(frozen=True)
class MomentSpec:
    factors: tuple
    region: str = "full"
    target: int | None = None      # insert e(-target * alpha)
    absolute: bool = True


def abs_power(spec: ExpSumSpec, power: int, region: str = "full") -> MomentSpec:
    """|F|^power as a moment spec; even powers become a conjugate pair."""
    if power < 1:
        raise DomainError(f"power must be >= 1, got {power}")
    if power % 2 == 0:
        half = power // 2
        factors = (MomentFactor(spec, half, False), MomentFactor(spec, half, True))
    else:
        factors = (MomentFactor(spec, power, False),)
    return MomentSpec(factors=factors, region=region, absolute=True)


def _frequency_span(m: MomentSpec) -> int:
    span = sum(f.exponent * max_frequency(f.spec) for f in m.factors)
    if m.target is not None:
        span += abs(m.target)
    return span


def _conjugate_paired(m: MomentSpec) -> bool:
    bal: dict = {}
    for f in m.factors:
        bal[f.spec] = bal.get(f.spec, 0) + (-f.exponent if f.conjugated
                                            else f.exponent)
    return all(v == 0 for v in bal.values())


def exact_moment(m: MomentSpec, budget_grid: int = DEFAULT_GRID_BUDGET) -> float:
    """Mean of the factor product over a grid finer than its frequency span.

    Exact for the full-interval integral of the trigonometric polynomial,
    so counting moments land on integers to rounding.  Absolute-value
    moments must be expressed through conjugate pairs (|F|^(2s)); odd
    absolute powers are not polynomials and are rejected.

    Each distinct factor spec is transformed once per call: its frequency
    counts (np.bincount on the grid) go through one inverse FFT, shared by
    F and conj(F).  The grid sum is math.fsum, which is order-independent,
    so the result depends only on the grid length and the factor products.
    """
    if m.region != "full":
        raise DomainError("exact_moment requires region='full'")
    if m.absolute and m.target is None and not _conjugate_paired(m):
        raise DomainError("absolute moments need conjugate-paired factors; "
                          "odd powers only via arc_moment")
    M = _frequency_span(m) + 1
    if M > budget_grid:
        raise BudgetError(f"grid of {M} points exceeds budget {budget_grid}",
                          predicted=M, budget=budget_grid)
    transforms: dict = {}
    prod = np.ones(M, dtype=complex)
    for f in m.factors:
        vals = transforms.get(f.spec)
        if vals is None:
            freqs = np.array(frequencies(f.spec), dtype=np.int64) % M
            counts = np.bincount(freqs, minlength=M)
            vals = transforms[f.spec] = np.fft.ifft(counts) * M
        if f.conjugated:
            vals = np.conj(vals)
        prod *= vals**f.exponent
    if m.target is not None:
        js = np.arange(M, dtype=np.int64)
        ph = (m.target % M) * js % M
        prod *= np.exp(-2j * np.pi * ph / M)
    real = math.fsum(prod.real.tolist()) / M
    imag = math.fsum(prod.imag.tolist()) / M
    if abs(imag) > 1e-6 * max(1.0, abs(real)):
        raise DomainError(f"moment is not real (imag mean {imag:.3e}); "
                          "check the factor specification")
    return real


@dataclass(frozen=True)
class ArcMomentResult:
    value: float
    err_est: float
    region: str
    n_intervals: int
    measure: float
    samples_per_arc: int


def _sampled_product(m: MomentSpec, pts: np.ndarray) -> np.ndarray:
    sums: dict = {}
    prod = np.ones(len(pts), dtype=complex)
    for f in m.factors:
        vals = sums.get(f.spec)
        if vals is None:
            freqs = np.array(frequencies(f.spec), dtype=float)
            vals = np.exp(2j * np.pi * np.outer(pts, freqs)).sum(axis=1)
            sums[f.spec] = vals
        if f.conjugated:
            vals = np.conj(vals)
        prod *= vals**f.exponent
    if m.target is not None:
        prod *= np.exp(-2j * np.pi * m.target * pts)
    if m.absolute:
        return np.abs(prod)
    return prod


def arc_moment(m: MomentSpec, d: ArcDissection,
               samples_per_arc: int = 64) -> ArcMomentResult:
    """Composite midpoint quadrature of the moment over an arc region.

    The error estimate is the difference against a half-resolution pass;
    it is a refinement indicator, not a rigorous bound.
    """
    if m.region == "full":
        raise DomainError("arc_moment requires an arc region; "
                          "use exact_moment for region='full'")
    if samples_per_arc < 16:
        raise DomainError(f"samples_per_arc must be >= 16, got {samples_per_arc}")
    ivs = d.region_intervals(m.region)

    def pass_at(n: int) -> complex:
        acc = 0j
        for lo, hi in ivs:
            h = (hi - lo) / n
            pts = lo + (np.arange(n) + 0.5) * h
            vals = _sampled_product(m, pts)
            acc += complex(math.fsum(vals.real), math.fsum(vals.imag)) * h
        return acc

    fine = pass_at(samples_per_arc)
    coarse = pass_at(max(8, samples_per_arc // 2))
    value = fine.real
    err = abs(fine - coarse) + (abs(fine.imag) if not m.absolute else 0.0)
    return ArcMomentResult(value=value, err_est=err, region=m.region,
                           n_intervals=len(ivs),
                           measure=sum(hi - lo for lo, hi in ivs),
                           samples_per_arc=samples_per_arc)


# ---------------------------------------------------------------------------
# Minor-arc ratio tracking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SamplingPolicy:
    """Deterministic low-discrepancy candidates; explicit points override."""
    n_points: int = 512
    seed: int = 0
    explicit: tuple | None = None

    def candidates(self, d: ArcDissection) -> list:
        if self.explicit is not None:
            return list(self.explicit)
        offset = random.Random(self.seed).random()
        lo = d.interval[0]
        return [lo + (offset + j * _GOLDEN) % 1.0 for j in range(self.n_points)]


@dataclass(frozen=True)
class WeylReport:
    max_ratio: float
    argmax_alpha: float
    n_minor: int
    n_candidates: int
    scale: float


def weyl_ratio(P: int, k: int, policy: SamplingPolicy = SamplingPolicy()) -> WeylReport:
    """Max of |f(alpha)| / P^(1 - 1/2^(k-1)) over minor-arc sample points."""
    d = ArcDissection.make(P, k)
    spec = FullInterval(P=P, k=k)
    scale = P ** (1 - 1 / 2 ** (k - 1))
    best = None
    n_minor = 0
    cands = policy.candidates(d)
    for alpha in cands:
        if classify(alpha, d, "M") is not None:
            continue
        n_minor += 1
        ratio = abs(eval_at(spec, alpha)) / scale
        if best is None or ratio > best[0]:
            best = (ratio, alpha)
    if best is None:
        raise DomainError("sampling policy produced no minor-arc points")
    return WeylReport(max_ratio=best[0], argmax_alpha=best[1],
                      n_minor=n_minor, n_candidates=len(cands), scale=scale)
