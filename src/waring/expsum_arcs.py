"""Exponential sums, arc dissections, and their moments.

Full-interval moments of products of these sums are computed on a uniform
grid with more points than the total frequency span, where the grid mean of
a trigonometric polynomial equals its integral exactly; counting moments
therefore come out as integers up to rounding noise.  The grid budget
charges a length by its FFT cost, so a length with a large prime factor
counts as numpy's padded Bluestein transform.  Arc-restricted moments use
composite midpoint quadrature per interval, since odd absolute powers are
not trigonometric polynomials; their halving-based error estimate runs its
half-resolution pass only when it is first read.

Rational classification walks the continued-fraction convergents of alpha:
for arc radii below 1/(2q^2) every covering fraction is a convergent, so the
first covering convergent is the major-arc label with smallest q.  Alpha
and tau are read as exact integer ratios and each convergent is tested by
integer cross-multiplication, so an arc edge is decided exactly.

Both set-backed sums, FullInterval and PrimeSmooth, are one product form,
the sum of e((m x)^k alpha) over multipliers m and elements x.  In one
moment call each distinct factor spec is evaluated once (an inverse FFT of
its grid counts, or its sum at the arc samples), and F and conj(F) share it.
Arc moments integrate |F|^p, so their odd powers need no conjugate pair.
"""

from __future__ import annotations

import math
import numbers
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Union

import numpy as np

from . import differences, smooth_sets
from .errors import DomainError, as_int, as_real, at_least, check_budget
from .phases import exact_sum, unit_sum, unit_sums

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

    def __post_init__(self):
        _product_form(self)


@dataclass(frozen=True)
class PrimeSmooth:
    """h(alpha) = sum over p in primes and x in elements of e(p^k x^k alpha).

    make(k, P) takes the primes X/2 < p <= X and the elements 1..X, with
    X = floor(sqrt(P)); built directly, any multipliers and elements serve.
    """
    k: int
    P: float
    primes: tuple
    elements: tuple

    def __post_init__(self):
        _product_form(self)

    @staticmethod
    def make(k: int, P: float) -> "PrimeSmooth":
        if as_real("P", P) < 4:
            raise DomainError(f"P={P} too small: sqrt window below 2")
        X = math.floor(math.sqrt(P))
        return PrimeSmooth(k=k, P=float(P),
                           primes=smooth_sets.primes_in(X // 2 + 1, X).primes,
                           elements=tuple(range(1, X + 1)))


@dataclass(frozen=True)
class DifferenceSum:
    """Nested difference-polynomial sum with per-level step bounds and windows."""
    q: int
    k: int
    H: tuple
    windows: tuple   # tuple of tuples of primes
    x_range: int

    def __post_init__(self):
        differences.nested_ranges(self.q, self.k, self.H, self.windows,
                                  self.x_range)


ExpSumSpec = Union[FullInterval, PrimeSmooth, DifferenceSum]


def _product_form(spec) -> tuple:
    """(multipliers, elements, k) of a set-backed spec, both nonempty, k an
    int >= 1 and FullInterval.P an int.  Specs run this on construction, as
    FullInterval(5, 2.0) == FullInterval(5, 2) would hit frequencies' cache."""
    if isinstance(spec, FullInterval):
        ms, xs = (1,), range(1, as_int(spec.P) + 1)
    elif isinstance(spec, PrimeSmooth):
        ms, xs = spec.primes, spec.elements
    else:
        raise DomainError(f"unknown spec {spec!r}")
    k = at_least("k", spec.k, 1)
    if not ms or not xs:
        raise DomainError(f"{type(spec).__name__} sum has no terms")
    return ms, xs, k


@lru_cache(maxsize=64)
def frequencies(spec: ExpSumSpec) -> np.ndarray | tuple:
    """All integer frequencies of the sum, with multiplicity: a read-only
    int64 array when every one fits, else a tuple of ints."""
    if isinstance(spec, DifferenceSum):
        freqs = differences.nested_frequencies(spec.q, spec.k, spec.H,
                                               spec.windows, spec.x_range)
    else:
        ms, xs, k = _product_form(spec)
        freqs = (np.multiply.outer(ms, xs, dtype=np.int64).ravel() ** k
                 if max_frequency(spec) < 2**63  # so is each lower power
                 else tuple((m * x)**k for m in ms for x in xs))
    arr = np.asarray(freqs)
    if arr.dtype.kind != "i":   # past int64, numpy infers uint64, float or object
        return freqs
    arr.flags.writeable = False
    return arr


def term_count(spec: ExpSumSpec) -> int:
    if isinstance(spec, DifferenceSum):
        return differences.nested_ranges(spec.q, spec.k, spec.H, spec.windows,
                                         spec.x_range)[-1]
    ms, xs, _ = _product_form(spec)
    return len(ms) * len(xs)


def max_frequency(spec: ExpSumSpec) -> int:
    """Largest |frequency|, computable without enumerating the terms."""
    if isinstance(spec, DifferenceSum):
        # psi coefficients are positive and increase in every argument
        ps = tuple(max(w) for w in spec.windows)
        d = differences.psi(spec.k, spec.H, ps)
        return as_int(spec.q)**d.k * d.result.evaluate(as_int(spec.x_range))
    ms, xs, k = _product_form(spec)
    return (max(map(abs, ms)) * max(map(abs, xs)))**k


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

    Major arcs: center a/q, radius 1/(q tau), for q <= P; the minor arcs are
    the rest.  W = sqrt(P) is carried for the arcs header.
    """

    P: float
    k: int
    tau: float
    Q_major: int
    W: float
    interval: tuple

    @staticmethod
    def make(P: float, k: int) -> "ArcDissection":
        k = at_least("k", k, 2)
        if not (isinstance(P, numbers.Real) and 2 <= P <= sys.float_info.max):
            raise DomainError(f"P must be finite and >= 2, got {P}")
        if isinstance(P, numbers.Integral):  # numpy's too: tau stays exact
            P = int(P)
        tau = 2 * k * P ** (k - 1)
        return ArcDissection(P=float(P), k=k, tau=tau, Q_major=math.floor(P),
                             W=math.sqrt(P), interval=(1 / tau, 1 + 1 / tau))

    def raw_major_arcs(self) -> list:
        """(q, a, center, halfwidth) for each major arc, unmerged."""
        return [(q, a, a / q, 1 / (q * self.tau))
                for q in range(1, self.Q_major + 1)
                for a in range(1, q + 1) if math.gcd(a, q) == 1]

    def major_intervals(self) -> list:
        lo0, hi0 = self.interval
        ivs = sorted((max(c - r, lo0), min(c + r, hi0))
                     for (_, _, c, r) in self.raw_major_arcs())
        merged = []
        for lo, hi in ivs:
            if hi <= lo:
                continue
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        return merged

    def minor_intervals(self) -> list:
        """Parts of the base interval outside the major arcs."""
        out = []
        cur, end = self.interval
        for lo, hi in self.major_intervals():
            if lo > cur:
                out.append((cur, lo))
            cur = max(cur, hi)
        if cur < end:
            out.append((cur, end))
        return out

    def region_intervals(self, region: str) -> list:
        if region == "major":
            return self.major_intervals()
        if region == "minor":
            return self.minor_intervals()
        raise DomainError(f"unknown region {region!r}")


def _convergents(num: int, den: int):
    """Continued-fraction convergents of num/den, ascending denominator."""
    p0, q0, p1, q1 = 0, 1, 1, 0
    while den:
        a, rem = divmod(num, den)
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        num, den = den, rem
        yield p1, q1


def classify(alpha: float, d: ArcDissection) -> Major | None:
    """Smallest-q major-arc label (q <= P, radius 1/(q tau)) covering alpha,
    or None for the minor arcs.

    alpha = num/den and tau = tn/td are read exactly as integer ratios, and
    a convergent a/q covers alpha when |num q - a den| tn <= td den, the
    arc inequality cross-multiplied.  A returned label is re-checked once
    against that inequality in Fractions.
    """
    lo0, hi0 = d.interval
    if not lo0 - 1e-12 <= alpha <= hi0 + 1e-12:
        raise DomainError(f"alpha={alpha} outside the base interval")
    num, den = alpha.as_integer_ratio()
    tn, td = d.tau.as_integer_ratio()
    for a, q in _convergents(num, den):
        if q > d.Q_major:
            break
        if 1 <= a <= q and abs(num * q - a * den) * tn <= td * den:
            assert (abs(Fraction(alpha) - Fraction(a, q))
                    <= 1 / (q * Fraction(d.tau)))
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

    def __post_init__(self):
        object.__setattr__(self, "exponent", as_int(self.exponent))
        if self.exponent < 1:
            raise DomainError(f"exponent {self.exponent!r} is not a positive int")


@dataclass(frozen=True)
class MomentSpec:
    factors: tuple
    region: str = "full"
    target: int | None = None      # insert e(-target * alpha)


def abs_power(spec: ExpSumSpec, power: int, region: str = "full") -> MomentSpec:
    """|F|^power as a moment spec; even powers become a conjugate pair."""
    if (power := as_int(power)) % 2 == 0:
        half = power // 2
        factors = (MomentFactor(spec, half, False), MomentFactor(spec, half, True))
    else:
        factors = (MomentFactor(spec, power, False),)
    return MomentSpec(factors=factors, region=region)


def _frequency_span(m: MomentSpec) -> int:
    return (sum(f.exponent * max_frequency(f.spec) for f in m.factors)
            + abs(m.target or 0))


def _conjugate_paired(m: MomentSpec) -> bool:
    bal: dict = {}
    for f in m.factors:
        bal[f.spec] = bal.get(f.spec, 0) + (-f.exponent if f.conjugated
                                            else f.exponent)
    return all(v == 0 for v in bal.values())


def _factor_product(m: MomentSpec, n: int, values) -> np.ndarray:
    """Product of m's factors at n points; values(frequencies) gives one
    factor's n values, once per distinct spec, before the product exists."""
    cache = {spec: values(frequencies(spec))
             for spec in dict.fromkeys(f.spec for f in m.factors)}
    prod = np.ones(n, dtype=complex)
    for f in m.factors:
        vals = cache[f.spec]
        if f.conjugated:
            vals = np.conj(vals)
        prod *= vals**f.exponent
    return prod


def _smooth_ceil(n: int) -> int:
    """Least 11-smooth integer >= n, the padded length numpy's FFT picks."""
    odd = [1]
    for p in (3, 5, 7, 11):
        for o in list(odd):
            while (o := o * p) < 2 * n:
                odd.append(o)
    return min(o << (-(-n // o) - 1).bit_length() for o in odd)


def grid_cost(M: int) -> int:
    """FFT work exact_moment's budget charges for a grid of M points.

    M, unless the largest prime factor p of M has p^2 > M: numpy's FFT then
    runs a padded Bluestein transform, three transforms of the least
    11-smooth length >= 2M - 1, and that is the charge.  Such a p is what
    is left of M divided by every prime up to isqrt(M), M itself if M < 4.
    """
    rest = M
    for p in smooth_sets.primes_in(2, math.isqrt(M)).primes if M >= 4 else ():
        while rest % p == 0:
            rest //= p
    return 3 * _smooth_ceil(2 * M - 1) if rest > 1 else M


def exact_moment(m: MomentSpec, budget_grid: int = DEFAULT_GRID_BUDGET) -> float:
    """Mean of the factor product over a grid finer than its frequency span.

    Exact for the full-interval integral of the trigonometric polynomial,
    so counting moments land on integers to rounding.  Without a target
    the factors must come in conjugate pairs (|F|^(2s), |F|^2 |G|^2, ...);
    odd absolute powers are not polynomials and are rejected.  Both grid sums
    (the real part and the imaginary part the realness check reads) are
    phases.exact_sum: the exact sum of the grid values rounded once, the
    double math.fsum gives, so the result depends only on the grid length
    and the factor products, not on the order of the points.

    The budget bounds grid_cost(M), the FFT work of the grid length M; a
    grid longer than the budget is refused on its length alone, charged M.
    Memory: one complex grid per distinct spec, transformed in place, plus
    the product.  For a length with a large prime factor (2^20 + 1 = 17 *
    61681) numpy's FFT workspace, outside these arrays, sets the peak.
    """
    if m.region != "full":
        raise DomainError("exact_moment requires region='full'")
    if m.target is None and not _conjugate_paired(m):
        raise DomainError("absolute moments need conjugate-paired factors; "
                          "odd powers only via arc_moment")
    M = _frequency_span(m) + 1
    check_budget(f"exact_moment: grid of {M} points",
                 M if M > budget_grid else grid_cost(M), budget_grid)
    def transform(freqs):
        grid = np.bincount(np.asarray(freqs, dtype=np.int64) % M,
                           minlength=M).astype(complex)
        np.fft.ifft(grid, out=grid)
        grid *= M
        return grid

    prod = _factor_product(m, M, transform)
    if m.target is not None:
        js = np.arange(M, dtype=np.int64)
        ph = (m.target % M) * js % M
        prod *= np.exp(-2j * np.pi * ph / M)
    real = exact_sum(prod.real) / M
    imag = exact_sum(prod.imag) / M
    if abs(imag) > 1e-6 * max(1.0, abs(real)):
        raise DomainError(f"moment is not real (imag mean {imag:.3e}); "
                          "check the factor specification")
    return real


@dataclass(frozen=True)
class ArcMomentResult:
    """An arc moment's value, and its error estimate on demand.

    err_est is |value - coarse|, the coarse pass at half resolution
    (max(8, samples_per_arc // 2) samples per interval).  That pass runs on
    the first read of err_est, which caches it, so a caller that reads only
    value pays for the fine pass alone.
    """
    value: float
    region: str
    n_intervals: int
    measure: float
    samples_per_arc: int
    _pass_at: Callable[[int], float] = field(repr=False, compare=False)

    @cached_property
    def err_est(self) -> float:
        return abs(self.value - self._pass_at(max(8, self.samples_per_arc // 2)))


def arc_moment(m: MomentSpec, d: ArcDissection,
               samples_per_arc: int = 64) -> ArcMomentResult:
    """Composite midpoint quadrature of |factor product| over an arc region.

    A target phase has modulus 1, so it is not applied.  Only the fine pass
    runs here.  The error estimate, the difference against a half-resolution
    pass, is computed when err_est is first read; it is a refinement
    indicator, not a rigorous bound.
    """
    if m.region == "full":
        raise DomainError("arc_moment requires an arc region; "
                          "use exact_moment for region='full'")
    samples_per_arc = at_least("samples_per_arc", samples_per_arc, 16)
    ivs = d.region_intervals(m.region)

    def pass_at(n: int) -> float:
        acc = 0.0
        for lo, hi in ivs:
            h = (hi - lo) / n
            pts = lo + (np.arange(n) + 0.5) * h
            vals = _factor_product(m, n, lambda freqs: np.exp(
                2j * np.pi * np.outer(pts, np.array(freqs, dtype=float))).sum(axis=1))
            acc += exact_sum(np.abs(vals)) * h
        return acc

    return ArcMomentResult(value=pass_at(samples_per_arc), region=m.region,
                           n_intervals=len(ivs),
                           measure=sum(hi - lo for lo, hi in ivs),
                           samples_per_arc=samples_per_arc, _pass_at=pass_at)


# ---------------------------------------------------------------------------
# Minor-arc ratio tracking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SamplingPolicy:
    """Deterministic low-discrepancy candidates."""
    n_points: int = 512
    seed: int = 0

    def __post_init__(self):
        at_least("n_points", self.n_points, 1)

    def candidates(self, d: ArcDissection) -> list:
        offset = random.Random(as_int(self.seed)).random()
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
    """Max of |f(alpha)| / P^(1 - 1/2^(k-1)) over minor-arc sample points,
    reached first at argmax_alpha.  Every candidate is classified first, then
    all the minor ones are evaluated in one phases.unit_sums pass."""
    d = ArcDissection.make(P := as_int(P), k)
    spec = FullInterval(P=P, k=k)
    scale = P ** (1 - 1 / 2 ** (k - 1))
    cands = policy.candidates(d)
    minor = [alpha for alpha in cands if classify(alpha, d) is None]
    if not minor:
        raise DomainError("sampling policy produced no minor-arc points")
    ratios = [abs(v) / scale for v in unit_sums(frequencies(spec), minor)]
    best = max(range(len(minor)), key=ratios.__getitem__)
    return WeylReport(max_ratio=ratios[best], argmax_alpha=minor[best],
                      n_minor=len(minor), n_candidates=len(cands), scale=scale)
