"""Exact representation-function and solution-count machinery.

All counts are exact integers.  gamma tables are built from per-domain k-th
power tables: s equal domains in a row form each multiset of s entries once,
weighted by its multinomial coefficient times its entries' counts, and
different domains convolve by a balanced (meet-in-the-middle) split; the
predicted cost, the product of the domain sizes, is checked first.

One kernel serves every width of sum.  A table holds its distinct sums as an
(L, n) int64 array of keys, least significant limb first: every limb but the
top one is an unsigned 62-bit digit and the top limb is signed.  L is the
fewest limbs whose top limb holds sum_i max|x|^k over the domains, which
bounds every partial sum, so L = 1 (a plain int64 key) when the sums fit
int64.  Outer sums add limb by limb, then carry once (digit sums stay below
2^63).  Counts are int64 while the product of the domain sizes, which bounds
every count and count product, is below 2^63, and Python ints above it.
The kernel sorts the outer sums of a block of about _BLOCK_PAIRS entries,
adds up each run of equal keys and merges the reduced blocks as it goes, so
memory stays within twice the number of distinct sums plus one block (and,
for s > 2 equal domains, the unreduced multisets of s - 1 entries, each level
built from n copies of the one below).  Keys of L > 1 limbs sort once on an
int64 lead made from their top two limbs, which ascends with the key; a
group of equal leads is lexsorted only if it holds unequal keys.  At every L
reduced tables merge by a stable sort, keys and counts move by np.take and
np.compress (far faster than fancy indexing of the (L, n) keys), and
distinct keys skip reduceat.

brute_force_t_pq enumerates tuples directly; it is the independent reference
route and shares no code with the fast path.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby, product

import numpy as np

from . import smooth_sets
from .errors import BudgetError, CoprimalityError, DomainError

DEFAULT_BUDGET = 10**9
_INT64 = 2**63             # every int64 count the kernel forms lies below this
_LIMB = 62                 # bits in each limb below the top one
_DIGIT = (1 << _LIMB) - 1
_BLOCK_PAIRS = 1 << 18     # outer-product entries the kernel reduces at once


@dataclass(frozen=True, eq=False)
class RepFunction:
    """gamma(m): multiplicity of each attainable sum of k-th powers.

    keys holds the distinct sums ascending as L limbs (see the module
    docstring), counts their gamma.  values (int64 when L = 1, else Python
    ints) and table (a dict) give the same map; both are built on first use.
    """

    k: int
    s: int
    domains: tuple[tuple[int, ...], ...]
    keys: np.ndarray
    counts: np.ndarray
    total: int

    @cached_property
    def values(self) -> np.ndarray:
        values = self.keys[-1]
        for limb in self.keys[-2::-1]:
            values = (values.astype(object) << _LIMB) + limb.astype(object)
        return values

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


def _limbs(top: int) -> int:
    """Fewest limbs whose signed top limb holds every value of size at most top."""
    return 1 + max(top.bit_length() - 2, 0) // _LIMB


def _split(values, L: int) -> np.ndarray:
    return np.array([[v >> _LIMB * j if j == L - 1 else (v >> _LIMB * j) & _DIGIT
                      for v in values] for j in range(L)], dtype=np.int64)


def _lead(keys: np.ndarray) -> np.ndarray:
    """The top limb shifted left b bits, then the top b bits of the next limb.

    b = 62 minus the bit width of the largest |top limb|, at least 0, so the
    shift never overflows and the lead ascends (not strictly) with the key.
    """
    top = keys[-1]
    b = max(0, _LIMB - max(-int(top.min()), int(top.max())).bit_length())
    return (top << b) | (keys[-2] >> (_LIMB - b))


def _runs(tables: list) -> tuple[np.ndarray, np.ndarray]:
    """Distinct keys ascending, each with the sum of its counts (rows of counts).

    Empties the input list of (keys, counts) tables and gathers one array at
    a time by np.take, so the peak stays near twice the input.  Equal keys
    (sums of distinct tuples) form one run in any order, so one table sorts
    unstably; two or more are ascending runs, which at any L a stable sort
    merges in linear time.  Keys of L > 1 limbs sort on their int64 _lead,
    then only groups of equal leads holding unequal keys are lexsorted in
    place.  Keys that all differ are returned without a reduction.
    """
    keys = np.concatenate([k for k, _ in tables], axis=1)
    counts = np.concatenate([c for _, c in tables])
    kind = "stable" if len(tables) > 1 else None
    tables.clear()
    if len(keys) == 1:
        order = np.argsort(keys[0], kind=kind)
    else:
        lead = _lead(keys)
        order = np.argsort(lead, kind=kind)
        lead = np.take(lead, order)
        tied = lead[1:] == lead[:-1]
        del lead  # before the gathers, which set the peak
    counts = np.take(counts, order, axis=0)
    keys = np.take(keys, order, axis=1)
    del order
    new = (keys[:, 1:] != keys[:, :-1]).any(axis=0)
    if len(keys) > 1 and (tied & new).any():
        _sort_ties(keys, counts, tied, new)
    if new.all():
        return keys, counts
    starts = np.flatnonzero(np.concatenate(([True], new)))
    counts = np.add.reduceat(counts, starts)  # frees the unreduced counts first
    return np.take(keys, starts, axis=1), counts


def _sort_ties(keys: np.ndarray, counts: np.ndarray, tied: np.ndarray,
               new: np.ndarray) -> None:
    """Lexsort in place each group of equal leads that holds unequal keys.

    tied[i] says keys i and i+1 share a lead and new[i] that they differ;
    new is mended inside the groups.  One lexsort over all such groups keeps
    each group in its place, as the lead ascends with the key.
    """
    group = np.concatenate(([0], np.cumsum(~tied)))
    hot = np.zeros(group[-1] + 1, dtype=bool)
    hot[np.compress(tied & new, group[1:])] = True
    idx = np.flatnonzero(np.take(hot, group))
    del group
    sub = np.take(idx, np.lexsort(np.take(keys, idx, axis=1)))
    keys[:, idx] = np.take(keys, sub, axis=1)
    counts[idx] = np.take(counts, sub, axis=0)
    inner = np.compress(np.take(tied, idx[:-1]), idx[:-1])
    new[inner] = (np.take(keys, inner + 1, axis=1) != np.take(keys, inner, axis=1)).any(0)


def _add(ak: np.ndarray, bk: np.ndarray) -> np.ndarray:
    """Every key of ak plus every key of bk, row-major; _runs gets the only copy."""
    sums = (ak[:, :, None] + bk[:, None, :]).reshape(len(ak), -1)
    for j in range(len(sums) - 1):
        sums[j + 1] += sums[j] >> _LIMB
        sums[j] &= _DIGIT
    return sums


def _blocks(rows: int, cols, block) -> tuple[np.ndarray, np.ndarray]:
    """block(i, e), the (keys, counts) of rows i..e-1, reduced over blocks of
    about _BLOCK_PAIRS entries and merged; no row from i on passes cols(i).

    Reduced blocks stay on a stack whose tables at least halve in length
    towards the top, so at most twice the distinct sums are held at once;
    after the last block the whole stack is merged.
    """
    stack, i = [], 0
    while i < rows:
        e = min(rows, i + max(1, _BLOCK_PAIRS // cols(i)))
        stack.append(_runs([block(i, e)]))
        i = e
        while len(stack) > 1 and (i == rows or 2 * len(stack[-1][1]) >= len(stack[-2][1])):
            stack.append(_runs([stack.pop(), stack.pop()]))
    return stack[0]


def _convolve(a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Convolution of two (keys, counts) tables, in row blocks of a."""
    (ak, ac), (bk, bc) = a, b
    return _blocks(len(ac), lambda i: len(bc), lambda i, e: (
        _add(ak[:, i:e], bk), np.multiply.outer(ac[i:e], bc).ravel()))


def _power(t: tuple, s: int) -> tuple[np.ndarray, np.ndarray]:
    """s-fold _convolve(t, ..., t), each multiset of s entries formed once.

    Level j, unreduced, holds each multiset of j entry indices as its key,
    count product, multinomial coefficient, least index (ascending) and that
    index's multiplicity m.  Entry a joins the multisets of level j - 1 whose
    least index is >= a; the coefficient becomes coef j / (m + 1), with m = 0
    unless a is that index, which is exact and at most j!.  Level s goes
    through _blocks, and only its final multiply meets a coefficient, so no
    product passes total.  At s = 2 row a keeps b >= a: 2 c_a c_b, or c_a^2.
    """
    if s == 1:
        return t
    keys, c = t
    n = len(c)
    lk, prod, coef, least = keys, c, np.ones_like(c), np.arange(n)
    mult = np.ones_like(least)
    for j in range(2, s):
        keep = (least >= np.arange(n)[:, None]).ravel()
        rows, cols = np.divmod(np.flatnonzero(keep), len(least))
        m = np.where(least[cols] == rows, mult[cols], 0)
        lk = np.compress(keep, _add(keys, lk), axis=1)
        prod, coef = c[rows] * prod[cols], coef[cols] * j // (m + 1)
        least, mult = rows, m + 1
    start = np.searchsorted(least, np.arange(n + 1))  # row a: start[a] onwards
    grow, tie = coef * s, coef * s // (mult + 1)      # a below, or at, the least

    def block(i, e):
        lo, rows = start[i], np.arange(i, e)[:, None]
        w = np.multiply.outer(c[i:e], prod[lo:])
        np.multiply(w, grow[lo:], out=w, where=least[lo:] > rows)
        band = np.arange(lo, start[e])                # least index in [i, e)
        w[least[band] - i, band - lo] *= tie[band]
        keep = (least[lo:] >= rows).ravel()
        return (np.compress(keep, _add(keys[:, i:e], lk[:, lo:]), axis=1),
                np.compress(keep, w))
    return _blocks(n, lambda i: len(least) - start[i], block)


def _table(runs: list, L: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """(keys, counts) of the sums with one term from each list, in L limbs:
    each (list, m), m equal lists in a row, is one _power, and different
    runs combine by a balanced _convolve."""
    if len(runs) > 1:
        mid = (len(runs) + 1) // 2  # left block takes ceil(len/2) runs
        return _convolve(_table(runs[:mid], L, dtype), _table(runs[mid:], L, dtype))
    (values, m), = runs
    return _power(_runs([(_split(values, L), np.ones(len(values), dtype=dtype))]), m)


def rep_function(domains, k: int, budget_ops: int = DEFAULT_BUDGET) -> RepFunction:
    """Exact gamma table for sums x_1^k + ... + x_s^k over the given domains.

    L comes from sum_i max_{x in X_i} |x|^k (plain int64 keys when every sum
    fits); m equal domains in a row sum each multiset of m elements once.
    Memory is O(L * distinct sums + _BLOCK_PAIRS), plus the (m-1)-multisets
    when m > 2."""
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    doms = _normalize_domains(domains)
    total = math.prod(len(X) for X in doms)
    _check_budget(total, budget_ops, "rep_function")
    powers = [[x**k for x in X] for X in doms]
    # |x| and so |x^k| is largest at an end of the sorted domain
    top = sum(max(abs(ps[0]), abs(ps[-1])) for ps in powers)
    keys, counts = _table([(p, len(list(g))) for p, g in groupby(powers)],
                          _limbs(top), np.int64 if total < _INT64 else object)
    assert int(counts.sum()) == total
    return RepFunction(k=k, s=len(doms), domains=doms, keys=keys,
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
                       diagonal_lb=n**s)


def distinct_sums_bound(domains, k: int,
                        budget_ops: int = DEFAULT_BUDGET) -> DistinctSums:
    """Distinct attainable sums vs. the Cauchy-Schwarz floor total^2 / sum(gamma^2)."""
    rep = rep_function(domains, k, budget_ops=budget_ops)
    ssq = _sum_of_squares(rep)
    distinct = len(rep.counts)
    # exact integer comparison before any float is formed
    assert distinct * ssq >= rep.total**2
    return DistinctSums(distinct=distinct, lower_bound=rep.total**2 / ssq,
                        total=rep.total, sum_gamma_sq=ssq)


def t_pq_count(E, s: int, k: int, p: int, q: int,
               budget_ops: int = DEFAULT_BUDGET) -> CountResult:
    """Solutions of p^k(sum x_i^k - sum y_i^k) = q^k(y^k - x^k) over E^{2s}.

    The two sides are tabulated separately (differences of (s-1)-fold sums
    against single-power differences) and matched, so the cost is
    |E|^(2s-2) + |E|^2 rather than |E|^(2s).  Both tables use the L that
    holds the larger side's bound, and one union of them, with the left and
    right counts in two columns, puts each common value in one row.  Counts
    are int64 when |E|^(2s), which bounds every count product, is below 2^63.
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

    pk, qk = p**k, q**k
    powers = [x**k for x in E]
    L = _limbs(max(2 * (s - 1) * pk, 2 * qk) * max(abs(powers[0]), abs(powers[-1])))
    dtype = np.int64 if len(E) ** (2 * s) < _INT64 else object
    lk, lc = _table([([pk * v for v in powers], s - 1),
                     ([-pk * v for v in powers], s - 1)], L, dtype)
    rk, rc = _table([([qk * v for v in powers], 1), ([-qk * v for v in powers], 1)],
                    L, dtype)
    _, both = _runs([(lk, np.column_stack((lc, 0 * lc))),
                     (rk, np.column_stack((0 * rc, rc)))])
    count = int(np.dot(both[:, 0], both[:, 1]))
    return CountResult(S=count, s=s, k=k, set_size=len(E),
                       diagonal_lb=len(E) ** s)


def brute_force_t_pq(E, s: int, k: int, p: int, q: int) -> int:
    """Reference enumeration of the auxiliary congruence equation count."""
    E = sorted(set(E))
    sums = [sum(v**k for v in xs) for xs in product(E, repeat=s - 1)]
    return sum(p**k * (lx - ly) == q**k * (y**k - x**k)
               for lx in sums for ly in sums for x in E for y in E)


def lemma1_check(k: int, s: int, P: float, theta: float, base_levels: int = 0,
                 budget_ops: int = DEFAULT_BUDGET) -> Lemma1Report:
    """Compare the exact count over one product level against its estimate.

    Builds the inner set at parameter P (base_levels product layers over an
    interval base), multiplies by the window [P^theta/2, P^theta] to get the
    outer set, and reports lhs = S_s(outer) against
    rhs = Z^s S_s(inner) + Z^(2s) floor(P) S_{s-1}(inner).
    """
    if not (isinstance(s, numbers.Integral) and s >= 2):
        raise DomainError(f"s must be an integer >= 2, got {s!r}")
    inner = smooth_sets.build_single_levels(k, P, theta, base_levels).elements
    window = smooth_sets.window_for_size(P**theta)
    if not window.primes:
        raise DomainError(
            f"no primes in the top window [{window.lo}, {window.hi}]")
    outer = smooth_sets.build_single(inner, window).elements
    Z = window.Z
    lhs = s_count(outer, s, k, budget_ops=budget_ops).S
    rhs = (Z**s * s_count(inner, s, k, budget_ops=budget_ops).S
           + Z ** (2 * s) * math.floor(P)
           * s_count(inner, s - 1, k, budget_ops=budget_ops).S)
    return Lemma1Report(lhs=lhs, rhs=rhs, ratio=lhs / rhs, Z=Z,
                        inner_size=len(inner), outer_size=len(outer),
                        P=float(P), theta=theta, base_levels=base_levels)


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
