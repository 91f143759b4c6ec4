"""Exact representation-function and solution-count machinery.

All counts are exact integers.  gamma tables are built by convolving
per-domain k-th power tables with a balanced (meet-in-the-middle) split; the
predicted cost of a build is the product of the domain sizes and is checked
against a budget first.

Two routes compute the same table, and the input alone picks one before any
work is done.  When sum_i max|x|^k over the domains (which bounds every
partial sum) and the product of the domain sizes (which bounds every count)
are both below 2^63, an int64 kernel merges (values, counts) arrays: the
outer sums and outer count products of a block of rows are sorted and each
run of equal sums is added up.  Otherwise the tables are Counters of Python
ints.  The kernel works through the outer product in row blocks of about
_BLOCK_PAIRS entries (at least one row, and no row is longer than the
number of distinct sums) and merges the reduced blocks as it goes, so
memory stays within twice the number of distinct sums plus one block.

brute_force_s_count and brute_force_t_pq enumerate tuples directly; they are
the independent reference route and share no code with the fast path.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import product

import numpy as np

from . import smooth_sets
from .errors import BudgetError, CoprimalityError, DomainError

DEFAULT_BUDGET = 10**9
_INT64 = 2**63             # every value the int64 kernel forms lies below this
_BLOCK_PAIRS = 1 << 18     # outer-product entries the kernel reduces at once


@dataclass(frozen=True, eq=False)
class RepFunction:
    """gamma(m): multiplicity of each attainable sum of k-th powers.

    values and counts hold the table as parallel arrays: int64 and ascending
    when the int64 kernel built it, Python ints (dtype object) in no
    particular order otherwise.  table is the same map as a dict.
    """

    k: int
    s: int
    domains: tuple[tuple[int, ...], ...]
    values: np.ndarray
    counts: np.ndarray
    total: int

    @cached_property
    def table(self) -> dict:
        return dict(zip(self.values.tolist(), self.counts.tolist()))


@dataclass(frozen=True)
class CountResult:
    S: int
    s: int
    k: int
    set_size: int
    diagonal_lb: int
    P_param: float


@dataclass(frozen=True)
class DistinctSums:
    distinct: int
    lower_bound: float
    total: int
    sum_gamma_sq: int


@dataclass(frozen=True)
class ExponentFit:
    points: tuple[tuple[float, int], ...]
    slope: float
    intercept: float


@dataclass(frozen=True)
class Lemma1Report:
    lhs: int
    rhs: int
    ratio: float
    Z: int
    inner_size: int
    outer_size: int
    P: float
    theta: float
    base_levels: int


def _normalize_domains(domains) -> tuple[tuple[int, ...], ...]:
    out = []
    for X in domains:
        xs = tuple(sorted(set(int(x) for x in X)))
        if not xs:
            raise DomainError("every domain must be nonempty")
        out.append(xs)
    return tuple(out)


def _check_budget(cost: int, budget: int, what: str) -> None:
    if cost > budget:
        raise BudgetError(f"{what}: predicted cost {cost} exceeds budget {budget}",
                          predicted=cost, budget=budget)


def _convolve(a: Counter, b: Counter) -> Counter:
    out: Counter = Counter()
    for va, ca in a.items():
        for vb, cb in b.items():
            out[va + vb] += ca * cb
    return out


def _runs(values: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values ascending, each with the sum of its counts."""
    order = np.argsort(values, kind="stable")
    values = values[order]
    starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    return values[starts], np.add.reduceat(counts[order], starts)


def _merge_top(stack: list) -> None:
    """Replace the top two tables of the stack by their union, counts added."""
    (v2, c2), (v1, c1) = stack.pop(), stack.pop()
    at = np.searchsorted(v1, v2)
    found = at < len(v1)
    found[found] = v1[at[found]] == v2[found]
    c1 = c1.copy()
    c1[at[found]] += c2[found]        # v2 is distinct, so no index repeats
    new = ~found
    stack.append((np.insert(v1, at[new], v2[new]), np.insert(c1, at[new], c2[new])))


def _convolve_int64(a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray]:
    """int64 convolution of two (values, counts) tables; result ascending.

    The caller guarantees that every sum and every count product fits.
    Reduced row blocks stay on a stack whose tables at least halve in length
    towards the top, so at most twice the distinct sums are held at once.
    """
    (av, ac), (bv, bc) = a, b
    rows = max(1, _BLOCK_PAIRS // len(bv))
    stack: list = []
    for i in range(0, len(av), rows):
        stack.append(_runs(np.add.outer(av[i:i + rows], bv).ravel(),
                           np.multiply.outer(ac[i:i + rows], bc).ravel()))
        while len(stack) > 1 and 2 * len(stack[-1][0]) >= len(stack[-2][0]):
            _merge_top(stack)
    while len(stack) > 1:
        _merge_top(stack)
    return stack[0]


def rep_function(domains, k: int, budget_ops: int = DEFAULT_BUDGET) -> RepFunction:
    """Exact gamma table for sums x_1^k + ... + x_s^k over the given domains.

    The int64 kernel runs when sum_i max_{x in X_i} |x|^k < 2^63 and
    prod_i |X_i| < 2^63: the first bounds the absolute value of every
    partial sum, the second every count and count product.  Otherwise the
    Counter convolution over Python ints runs.  The kernel's memory is
    O(distinct sums + _BLOCK_PAIRS), whatever |X_1| * ... * |X_s| is.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    doms = _normalize_domains(domains)
    total = math.prod(len(X) for X in doms)
    _check_budget(total, budget_ops, "rep_function")
    powers = [[x**k for x in X] for X in doms]
    # |x| and so |x^k| is largest at an end of the sorted domain
    top = sum(max(abs(ps[0]), abs(ps[-1])) for ps in powers)
    if top < _INT64 and total < _INT64:
        combine = _convolve_int64
        tables = [_runs(np.array(ps, dtype=np.int64), np.ones(len(ps), dtype=np.int64))
                  for ps in powers]
    else:
        combine = _convolve
        tables = [Counter(ps) for ps in powers]

    def build(lo: int, hi: int):
        if hi - lo == 1:
            return tables[lo]
        mid = (lo + hi + 1) // 2  # left block takes ceil(s/2) domains
        return combine(build(lo, mid), build(mid, hi))

    table = build(0, len(doms))
    if combine is _convolve:
        table = (np.fromiter(table, dtype=object, count=len(table)),
                 np.fromiter(table.values(), dtype=object, count=len(table)))
    values, counts = table
    assert int(counts.sum()) == total
    return RepFunction(k=k, s=len(doms), domains=doms, values=values,
                       counts=counts, total=total)


def _sum_of_squares(rep: RepFunction) -> int:
    """sum gamma^2, in int64 only when total^2 (which bounds it) fits."""
    c = rep.counts
    if rep.total**2 >= _INT64:
        c = c.astype(object, copy=False)
    return int(np.dot(c, c))


def s_count(X, s: int, k: int, budget_ops: int = DEFAULT_BUDGET) -> CountResult:
    """Number of solutions of x_1^k+..+x_s^k = y_1^k+..+y_s^k over X^{2s}."""
    if s < 1:
        raise DomainError(f"s must be >= 1, got {s}")
    rep = rep_function([X] * s, k, budget_ops=budget_ops)
    n = len(rep.domains[0])
    return CountResult(S=_sum_of_squares(rep), s=s, k=k, set_size=n,
                       diagonal_lb=n**s, P_param=float(max(rep.domains[0])))


def distinct_sums_bound(domains, k: int,
                        budget_ops: int = DEFAULT_BUDGET) -> DistinctSums:
    """Distinct attainable sums vs. the Cauchy-Schwarz floor total^2 / sum(gamma^2)."""
    rep = rep_function(domains, k, budget_ops=budget_ops)
    ssq = _sum_of_squares(rep)
    distinct = len(rep.values)
    # exact integer comparison before any float is formed
    assert distinct * ssq >= rep.total**2
    return DistinctSums(distinct=distinct, lower_bound=rep.total**2 / ssq,
                        total=rep.total, sum_gamma_sq=ssq)


def t_pq_count(E, s: int, k: int, p: int, q: int,
               budget_ops: int = DEFAULT_BUDGET) -> CountResult:
    """Solutions of p^k(sum x_i^k - sum y_i^k) = q^k(y^k - x^k) over E^{2s}.

    The two sides are tabulated separately (differences of (s-1)-fold sums
    against single-power differences) and matched, so the cost is
    |E|^(2s-2) + |E|^2 rather than |E|^(2s).  The tables are int64 arrays
    matched by binary search when max(p, q)^k * 2(s-1) * max|x|^k and
    |E|^(2s) are below 2^63 (they bound every value and every product of
    counts), and Counters of Python ints otherwise.
    """
    E = tuple(sorted(set(int(x) for x in E)))
    if not E:
        raise DomainError("E must be nonempty")
    if s < 2:
        raise DomainError(f"s must be >= 2, got {s}")
    for name, v in (("p", p), ("q", q)):
        if not smooth_sets.is_prime(v):
            raise DomainError(f"{name}={v} is not prime")
    if p == q:
        raise DomainError("p and q must be distinct")
    for x in E:
        if x % p == 0:
            raise CoprimalityError(f"element {x} is not coprime to p={p}")
    _check_budget(len(E) ** (2 * s), budget_ops, "t_pq_count")

    rep = rep_function([E] * (s - 1), k, budget_ops=budget_ops)
    pk, qk = p**k, q**k
    top = max(abs(E[0]), abs(E[-1])) ** k
    if max(pk, qk) * 2 * (s - 1) * top < _INT64 and len(E) ** (2 * s) < _INT64:
        lv, lc = _convolve_int64((rep.values, rep.counts),
                                 (-rep.values, rep.counts))
        powers = np.array([x**k for x in E], dtype=np.int64)
        ones = np.ones(len(E), dtype=np.int64)
        rv, rc = _convolve_int64((powers, ones), (-powers, ones))
        lv, rv = pk * lv, qk * rv
        at = np.minimum(np.searchsorted(rv, lv), len(rv) - 1)
        hit = rv[at] == lv
        count = int(np.dot(lc[hit], rc[at[hit]]))
    else:
        scaled = Counter({pk * a: c for a, c in rep.table.items()})
        left = _convolve(scaled, Counter({-v: c for v, c in scaled.items()}))
        right = _convolve(Counter(qk * x**k for x in E),
                          Counter(-qk * x**k for x in E))
        count = sum(c * right[v] for v, c in left.items() if v in right)
    return CountResult(S=count, s=s, k=k, set_size=len(E),
                       diagonal_lb=len(E) ** s, P_param=float(max(E)))


def brute_force_s_count(X, s: int, k: int) -> int:
    """Reference enumeration over all 2s-tuples; independent of the fast path."""
    X = sorted(set(X))
    hits = 0
    sums = Counter(sum(t) for t in product([x**k for x in X], repeat=s))
    for c in sums.values():
        hits += c * c
    return hits


def brute_force_t_pq(E, s: int, k: int, p: int, q: int) -> int:
    """Reference enumeration of the auxiliary congruence equation count."""
    E = sorted(set(E))
    pk, qk = p**k, q**k
    count = 0
    for xs in product(E, repeat=s - 1):
        lx = sum(v**k for v in xs)
        for ys in product(E, repeat=s - 1):
            ly = sum(v**k for v in ys)
            for x in E:
                for y in E:
                    if pk * (lx - ly) == qk * (y**k - x**k):
                        count += 1
    return count


def lemma1_sides(inner_elements, window: smooth_sets.PrimeWindow, s: int,
                 k: int, P: float,
                 budget_ops: int = DEFAULT_BUDGET) -> Lemma1Report:
    """Both sides of the one-level count estimate, from explicit pieces."""
    inner = tuple(sorted(set(inner_elements)))
    outer = smooth_sets.build_single(inner, window)
    Z = window.Z
    lhs = s_count(outer.elements, s, k, budget_ops=budget_ops).S
    rhs = (Z**s * s_count(inner, s, k, budget_ops=budget_ops).S
           + Z ** (2 * s) * math.floor(P)
           * s_count(inner, s - 1, k, budget_ops=budget_ops).S)
    return Lemma1Report(lhs=lhs, rhs=rhs, ratio=lhs / rhs, Z=Z,
                        inner_size=len(inner), outer_size=len(outer.elements),
                        P=float(P), theta=math.nan, base_levels=-1)


def lemma1_check(k: int, s: int, P: float, theta: float, base_levels: int = 0,
                 budget_ops: int = DEFAULT_BUDGET) -> Lemma1Report:
    """Compare the exact count over one product level against its estimate.

    Builds the inner set at parameter P (base_levels product layers over an
    interval base), multiplies by the window [P^theta/2, P^theta] to get the
    outer set, and reports lhs = S_s(outer) against
    rhs = Z^s S_s(inner) + Z^(2s) floor(P) S_{s-1}(inner).
    """
    inner = smooth_sets.build_single_levels(k, P, theta, base_levels)
    window = smooth_sets.window_for_size(P**theta)
    if not window.primes:
        raise DomainError(
            f"no primes in the top window [{window.lo}, {window.hi}]")
    report = lemma1_sides(inner.elements, window, s, k, P,
                          budget_ops=budget_ops)
    return replace(report, theta=theta, base_levels=base_levels)


def exponent_fit(runs) -> ExponentFit:
    """Least-squares slope of log S against log P."""
    pts = [(float(P), int(S)) for P, S in runs]
    if len(pts) < 3:
        raise DomainError(f"need at least 3 points, got {len(pts)}")
    if len({P for P, _ in pts}) != len(pts):
        raise DomainError("P values must be distinct")
    xs = [math.log(P) for P, _ in pts]
    ys = [math.log(S) for _, S in pts]
    n = len(pts)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return ExponentFit(points=tuple(pts), slope=slope,
                       intercept=my - slope * mx)
