"""Product-set constructions over prime windows, and their diagnostics.

Every construction runs one level loop: level j is the set at level j+1
times the primes of one window [Z/2, Z].  The single-exponent builders form
every product; the multi-level one, with a per-level exponent schedule,
keeps only the coprime products (p, x) = 1.  The base of the recursion is a
full integer interval; its size is recorded in the spec because every
downstream count depends on it.

Elements are kept within 64 bits with checked arithmetic: a product that
would exceed the width raises instead of wrapping.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import reduce
from operator import truediv

import numpy as np

from .errors import DomainError, EmptyWindowError, WidthOverflowError

SIEVE_LIMIT = 10**9
WIDTH_LIMIT = 2**63 - 1
_SEGMENT = 1 << 20


@dataclass(frozen=True)
class PrimeWindow:
    lo: int
    hi: int
    primes: tuple[int, ...]

    @property
    def Z(self) -> int:
        return len(self.primes)


def primes_in(lo: int, hi: int) -> PrimeWindow:
    """Exact primes in [lo, hi] by a segmented sieve.

    In each segment every prime up to sqrt(hi) crosses off its multiples
    with one slice assignment.
    """
    if hi < lo:
        raise DomainError(f"empty range: hi={hi} < lo={lo}")
    if lo < 2:
        raise DomainError(f"lo must be >= 2, got {lo}")
    if hi > SIEVE_LIMIT:
        raise DomainError(f"hi={hi} exceeds sieve limit {SIEVE_LIMIT}")
    root = math.isqrt(hi)
    base = np.ones(root + 1, dtype=bool)
    base[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if base[p]:
            base[p * p::p] = False
    small = np.flatnonzero(base).tolist()
    out: list[int] = []
    for start in range(lo, hi + 1, _SEGMENT):
        stop = min(start + _SEGMENT, hi + 1)
        seg = np.ones(stop - start, dtype=bool)
        for p in small:
            if p * p >= stop:
                break
            seg[max(p * p, -(-start // p) * p) - start::p] = False
        out.extend((np.flatnonzero(seg) + start).tolist())
    return PrimeWindow(lo=lo, hi=hi, primes=tuple(out))


def is_prime(n: int) -> bool:
    """Primality of one number by trial division; primes_in enumerates ranges."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def window_for_size(size: float) -> PrimeWindow:
    """Primes in the inclusive integer window [ceil(size/2), floor(size)]."""
    hi = math.floor(size)
    lo = max(2, math.ceil(size / 2))
    if hi < lo:
        return PrimeWindow(lo=lo, hi=hi, primes=())
    return primes_in(lo, hi)


@dataclass(frozen=True)
class SmoothSpec:
    k: int
    mode: str                      # "single" | "multi" | "imported"
    P_top: float
    theta: float | None = None
    levels: int = 0
    thetas: tuple[float, ...] | None = None
    base_floor: int = 1
    theta_at_limit: bool = False


@dataclass(frozen=True)
class SmoothSet:
    spec: SmoothSpec | None
    level: int
    elements: tuple[int, ...]
    windows: tuple[PrimeWindow, ...]   # in application order, base outward
    collision_count: int


def _window(size: float, level: int, detail: str) -> PrimeWindow:
    """window_for_size, refusing a window without primes."""
    w = window_for_size(size)
    if not w.primes:
        raise EmptyWindowError(
            f"level {level}: no primes in [{w.lo}, {w.hi}] ({detail})",
            level=level)
    return w


def _product_levels(spec, base, wins, coprime: bool) -> list[SmoothSet]:
    """The base at level len(wins), then level j = level j+1 times wins[j]
    down to 0; collision_count sums attempted pairs less distinct products."""
    sets = [SmoothSet(spec=spec, level=len(wins), elements=tuple(base),
                      windows=(), collision_count=0)]
    for j in reversed(range(len(wins))):
        below, primes = sets[-1], wins[j].primes
        seen, attempts = set(), 0
        for x in below.elements:
            for p in primes:
                if coprime and x % p == 0:
                    continue
                attempts += 1
                prod = x * p
                if prod > WIDTH_LIMIT:
                    raise WidthOverflowError(
                        f"product {x} * {p} exceeds the 64-bit element contract")
                seen.add(prod)
        sets.append(SmoothSet(
            spec=spec, level=j, elements=tuple(sorted(seen)),
            windows=below.windows + (wins[j],),
            collision_count=below.collision_count + attempts - len(seen)))
    return sets


def build_single(base, window: PrimeWindow) -> SmoothSet:
    """One product layer {x * p : x in base, p in window}, deduplicated."""
    base = tuple(base)
    if not base:
        raise DomainError("base set must be nonempty")
    if list(base) != sorted(set(base)):
        raise DomainError("base must be sorted and duplicate-free")
    return _product_levels(None, base, (window,), coprime=False)[-1]


def build_single_levels(k: int, P: float, theta: float, levels: int) -> SmoothSet:
    """Recursive single-exponent construction with an interval base.

    Level parameters shrink by P -> P^(1/(1+theta)); the window for each
    layer holds the primes in [P_inner^theta / 2, P_inner^theta].  The base
    is {1..base_floor} with base_floor = floor(P / prod(window midpoints)),
    clamped to at least 1.  levels=0 returns the bare interval [1..floor(P)].
    """
    if k < 3:
        raise DomainError(f"k must be >= 3, got {k}")
    if levels < 0:
        raise DomainError(f"levels must be >= 0, got {levels}")
    if not 0.0 < theta <= 1.0:
        raise DomainError(f"theta must lie in (0, 1], got {theta}")
    at_limit = theta <= 1.0 / k
    if at_limit:
        warnings.warn(f"theta={theta} is at or below 1/k for k={k}; "
                      "the construction is only the limiting case",
                      stacklevel=2)
    params = [float(P)]
    for _ in range(levels):
        params.append(params[-1] ** (1.0 / (1.0 + theta)))
    wins = [_window(x**theta, j, f"inner parameter {x:.4g}")
            for j, x in enumerate(params[1:])]
    midprod = math.prod(0.75 * x**theta for x in params[1:])
    base_floor = max(1, math.floor(P / midprod))
    spec = SmoothSpec(k=k, mode="single", P_top=float(P), theta=theta,
                      levels=levels, base_floor=base_floor,
                      theta_at_limit=at_limit)
    return _product_levels(spec, range(1, base_floor + 1), wins,
                           coprime=False)[-1]


def multilevel_spec(k: int, thetas) -> SmoothSpec:
    """Spec for the multi-level construction from a schedule of exponents."""
    ths = tuple(float(t) for t in getattr(thetas, "thetas", thetas))
    if len(ths) != k:
        raise DomainError(f"need {k} exponents, got {len(ths)}")
    return SmoothSpec(k=k, mode="multi", P_top=0.0, thetas=ths)


def build_multilevel(spec: SmoothSpec, P: float) -> list[SmoothSet]:
    """All levels of the coprime product construction, level k down to 0.

    Level sizes follow Z_i = P^theta_i and P_{i+1} = P_i / Z_{i+1}; level k
    is the full interval [1, floor(P_k)], and level i multiplies level i+1
    by the primes of window i+1 subject to (p, x) = 1.
    """
    if spec.mode != "multi" or spec.thetas is None:
        raise DomainError("spec must be a multi-mode spec with a schedule")
    Z = [P**t for t in spec.thetas]
    wins = [_window(z, i, f"Z_{i} = {z:.4g}") for i, z in enumerate(Z, start=1)]
    # P_k = P/Z_1/.../Z_k in that order; P/prod(Z) rounds differently
    base_floor = max(1, math.floor(reduce(truediv, Z, float(P))))
    filled = replace(spec, P_top=float(P), base_floor=base_floor)
    return _product_levels(filled, range(1, base_floor + 1), wins,
                           coprime=True)


@dataclass(frozen=True)
class ResidueProfile:
    q: int
    counts: dict
    phi_q: int
    max_deviation: float


def residue_profile(elements, q: int) -> ResidueProfile:
    """Exact counts of elements per residue class coprime to q."""
    if q < 2:
        raise DomainError(f"q must be >= 2, got {q}")
    elems = getattr(elements, "elements", elements)
    coprime = [a for a in range(1, q + 1) if math.gcd(a, q) == 1]
    counts = {a: 0 for a in coprime}
    for x in elems:
        r = x % q
        if r in counts:
            counts[r] += 1
    n = len(elems)
    phi_q = len(coprime)
    if n == 0:
        raise DomainError("empty element set")
    max_dev = max(abs(counts[a] * phi_q / n - 1.0) for a in coprime)
    return ResidueProfile(q=q, counts=counts, phi_q=phi_q,
                          max_deviation=max_dev)


_LOGLOG_FLOOR = math.exp(math.e)  # below this, log log P is not >= 1


def size_estimate(k: int, P: float) -> float:
    """Heuristic size P/(log P)^((eta+1)/2) * ((k+1)/2)^eta, eta = k log log P.

    Report-only: the value can exceed P for small P and is compared against
    built sets side by side, never asserted.
    """
    if P < _LOGLOG_FLOOR:
        raise DomainError(f"P must be >= e^e ~ {_LOGLOG_FLOOR:.3f}, got {P}")
    eta = k * math.log(math.log(P))
    log_val = (math.log(P)
               - (eta + 1) / 2 * math.log(math.log(P))
               + eta * math.log((k + 1) / 2))
    try:
        return math.exp(log_val)
    except OverflowError:
        return math.inf


def read_set(path) -> SmoothSet:
    """A set file: a '# waring-set k=<k> mode=<mode> P=<P>' header line,
    then one decimal element per line."""
    with open(path, encoding="utf-8", errors="replace") as fh:
        lines = fh.read().splitlines()
    header = lines[0].strip() if lines else ""
    if not header.startswith("# waring-set "):
        raise DomainError(f"{path}:1: not a set file: header {header!r}")
    lineno = 1
    try:
        fields = dict(part.split("=", 1) for part in header[13:].split())
        spec = SmoothSpec(k=int(fields["k"]), mode=fields["mode"],
                          P_top=float(fields["P"]))
        elements = []
        for lineno, line in enumerate(lines[1:], start=2):
            if line.strip():
                elements.append(int(line))
    except (KeyError, ValueError) as exc:
        raise DomainError(
            f"{path}:{lineno}: bad line {lines[lineno - 1]!r}; a set file is "
            "'# waring-set k=<int> mode=<name> P=<float>' then one integer "
            "per line") from exc
    return SmoothSet(spec=spec, level=0, elements=tuple(elements), windows=(),
                     collision_count=0)
