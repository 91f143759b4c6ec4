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
The kernel pairs the rows of one table with a prefix of the columns of a
key-sorted table and cuts the pairs into blocks of about _BLOCK_PAIRS by
their sums: a block holds the pairs whose sums lie in [B_t, B_t+1), with the
bounds B taken from a sample of pair sums, and each row's split at B is
found exactly.  Each block is sorted and each run of equal keys added up,
so the reduced blocks come out in ascending, disjoint key ranges and are
never merged.  rep_function joins them; s_count and distinct_sums_bound fold
them one at a time, so their memory is one block (plus, for s > 2 equal
domains, the unreduced multisets of s - 1 entries, each level built from n
copies of the one below).  One-limb blocks of _PACK_FROM or more entries
sort once as packed words of key and index, smaller ones by argsort.  Keys
of L > 1 limbs sort once on an int64 lead made from their top two limbs,
which ascends with the key.  A group of equal words or leads is lexsorted
only if it holds unequal keys.  Keys and counts move by np.take (far faster
than fancy indexing of the (L, n) keys), and distinct keys skip reduceat.

brute_force_t_pq enumerates tuples directly; it is the independent reference
route and shares no code with the fast path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby, product

import numpy as np

from . import smooth_sets
from .errors import (CoprimalityError, DomainError, as_int, as_real, at_least,
                     check_budget)

DEFAULT_BUDGET = 10**9
_INT64 = 2**63             # every int64 count the kernel forms lies below this
_LIMB = 62                 # bits in each limb below the top one
_DIGIT = (1 << _LIMB) - 1
_BLOCK_PAIRS = 1 << 18     # outer-product entries the kernel reduces at once
# one-limb tables from this length sort as packed words: on sums of two cubes
# (x86 VM, five sweeps) 0.84-0.87x argsort's time at 2^12 entries and about
# 0.75x at 2^18, but 0.92-1.6x at 2^8..2^11, where verify's small tables sit
_PACK_FROM = 1 << 12


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


def _normalize_domains(domains, name: str = "every domain") -> tuple:
    """Each domain as a sorted tuple of distinct ints; an ascending range stays unread."""
    out = tuple(X if isinstance(X, range) and X.step > 0
                else tuple(sorted(set(map(as_int, X)))) for X in domains)
    if not all(out):
        raise DomainError(f"{name} must be nonempty")
    return out


def _limbs(top: int) -> int:
    """Fewest limbs whose signed top limb holds every value of size at most top."""
    return 1 + max(top.bit_length() - 2, 0) // _LIMB


def _split(values, L: int) -> np.ndarray:
    return np.array([[v >> _LIMB * j if j == L - 1 else (v >> _LIMB * j) & _DIGIT
                      for v in values] for j in range(L)], dtype=np.int64)


def _width(limb: np.ndarray) -> int:
    """Bit width of the largest |value| in one limb."""
    return max(-int(limb.min()), int(limb.max())).bit_length()


def _lead(keys: np.ndarray, b: int) -> np.ndarray:
    """floor(key / 2^(62(L-1) - b)), which ascends (not strictly) with the
    key: the top limb shifted left b bits, then the top b bits of the next
    limb, or for b <= 0 the top limb shifted right -b bits."""
    if b <= 0:
        return keys[-1] >> -b
    return (keys[-1] << b) | (keys[-2] >> (_LIMB - b))


def _runs(table: list) -> tuple[np.ndarray, np.ndarray]:
    """Distinct keys ascending, each with the sum of its counts.

    Empties the input list [keys, counts] and gathers one array at a time
    by np.take, so the peak stays near twice the input.  Equal keys (sums of
    distinct tuples) form one run in any order, so the sort is unstable.
    One limb and _PACK_FROM or more entries sort by _packed_order, and keys
    of L > 1 limbs on their int64 _lead; then only groups of equal words or
    leads holding unequal keys are lexsorted in place.  Keys that all differ
    are returned without a reduction.
    """
    keys, counts = table
    table.clear()
    if len(keys) == 1 and len(counts) >= _PACK_FROM:
        order, tied = _packed_order(keys[0])
    elif len(keys) == 1:
        order, tied = np.argsort(keys[0]), None
    else:
        # b = 62 minus the width of the top limb, at least 0: no overflow
        lead = _lead(keys, max(0, _LIMB - _width(keys[-1])))
        order = np.argsort(lead)
        lead = np.take(lead, order)
        tied = lead[1:] == lead[:-1]
        del lead  # before the gathers, which set the peak
    counts = np.take(counts, order)
    keys = np.take(keys, order, axis=1)
    del order
    new = (keys[:, 1:] != keys[:, :-1]).any(axis=0)
    if tied is not None and (tied & new).any():
        _sort_ties(keys, counts, tied, new)
    if new.all():
        return keys, counts
    starts = np.flatnonzero(np.concatenate(([True], new)))
    counts = np.add.reduceat(counts, starts)  # frees the unreduced counts first
    return np.take(keys, starts, axis=1), counts


def _packed_order(key: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The order that sorts one limb of keys, by one sort of packed words:
    key - min (uint64, so a span up to 2^64 wraps exactly), losing low bits
    only if it must, above the entry's index.  tied[i] says words i and
    i + 1 share their key bits (None if no bit was lost); a tied group may
    hold unequal keys, in index order."""
    n, lo = len(key), key.min()
    bits = n.bit_length()
    shift = max(0, (int(key.max()) - int(lo)).bit_length() + bits - 63)
    word = (key - lo).view(np.uint64)  # a new array; int64 wraps silently
    word >>= shift
    word <<= bits
    word |= np.arange(n, dtype=np.uint64)
    word.sort()
    top = word >> bits if shift else None
    word &= (1 << bits) - 1
    return word.view(np.int64), None if top is None else top[1:] == top[:-1]


def _sort_ties(keys: np.ndarray, counts: np.ndarray, tied: np.ndarray,
               new: np.ndarray) -> None:
    """Lexsort in place each group of equal leads (or packed words' key bits)
    that holds unequal keys.

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


def _carry(sums: np.ndarray) -> np.ndarray:
    """Limb-wise sums of keys, carried in place into limbs (digit sums stay below 2^63)."""
    for j in range(len(sums) - 1):
        sums[j + 1] += sums[j] >> _LIMB
        sums[j] &= _DIGIT
    return sums


def _below(rk: np.ndarray, ck: np.ndarray, bound: int) -> np.ndarray:
    """For each row key, how many of the ascending keys ck it adds to a sum
    below bound, exactly.

    Leads floor(key / 2^S) of at most 61 bits place each row's answer among
    the columns whose lead is lead(bound) - lead(row) - 1 or one more (a
    floor of a sum is the sum of the floors or one more), which two
    searchsorted find; a bisection over the rows with such columns, adding
    and comparing limb by limb, settles the rest.  One limb of at most 61
    bits is its own lead (S = 0), and one searchsorted is exact."""
    L = len(ck)
    width = max(_width(rk[-1]), _width(ck[-1]), abs(bound >> _LIMB * (L - 1)).bit_length())
    b = 61 - width if L > 1 else min(0, 61 - width)
    lc, lr = _lead(ck, b), _lead(rk, b)
    lb = bound >> _LIMB * (L - 1) - b
    if L == 1 and b == 0:  # the leads are the keys: nothing to settle
        return np.searchsorted(lc, lb - lr, side="left")
    lo = np.searchsorted(lc, (lb - 1) - lr, side="left")
    hi = np.searchsorted(lc, lb - lr, side="right")
    rows = np.flatnonzero(hi > lo)
    if not len(rows):
        return lo
    limbs, rk = _split([bound], L)[:, 0], np.take(rk, rows, axis=1)
    a, z = np.take(lo, rows), np.take(hi, rows)
    for _ in range(int((z - a).max()).bit_length()):
        mid = (a + z) >> 1
        sums = _carry(rk + np.take(ck, np.minimum(mid, len(lc) - 1), axis=1))
        less = sums[0] < limbs[0]
        for j in range(1, L):
            less = (sums[j] < limbs[j]) | ((sums[j] == limbs[j]) & less)
        less &= a < z
        a, z = np.where(less, mid + 1, a), np.where(less, z, mid)
    lo[rows] = a
    return lo


def _bounds(rk: np.ndarray, ck: np.ndarray, end: np.ndarray, pairs: int) -> list:
    """Ascending distinct sums that cut the pairs into blocks of about
    _BLOCK_PAIRS, or of one pair per row if that is more (each bound costs a
    split of every row): each row's sum with one column drawn at random
    (fixed seed), weighted by the row's length, at evenly spaced weighted
    ranks.  Any bounds give the same table; only the balance of the blocks
    depends on them."""
    blocks = -(-pairs // max(_BLOCK_PAIRS, len(end)))
    if blocks == 1:
        return []
    sums = _carry(rk + np.take(ck, np.random.default_rng(0).integers(end), axis=1))
    order = np.lexsort(sums)
    ranks = np.searchsorted(np.cumsum(np.take(end, order)), np.arange(1, blocks) * pairs // blocks)
    picks = np.take(sums, np.take(order, ranks), axis=1)
    return sorted({sum(int(x) << _LIMB * j for j, x in enumerate(col)) for col in picks.T})


def _block(rows: tuple, cols: tuple, lo: np.ndarray, hi: np.ndarray,
           end: np.ndarray | None = None, last: np.ndarray | None = None) -> list:
    """[keys, counts] of the pairs of row i with columns lo[i] .. hi[i] - 1,
    weighted by the product of their counts, with row i's count last[i]
    instead at column end[i] - 1 if last is given.  Columns are gathered
    before rows, and each index array is freed once read."""
    (rk, rc), (ck, cc) = rows, cols
    live = np.flatnonzero(hi > lo)
    n = np.take(hi, live) - np.take(lo, live)
    start = np.cumsum(n) - n
    c = np.repeat(np.take(lo, live) - start, n)
    c += np.arange(len(c))
    keys = np.take(ck, c, axis=1)
    counts = np.take(cc, c)
    del c
    r = np.repeat(live, n)
    for j in range(len(keys)):
        keys[j] += np.take(rk[j], r)
    counts *= np.take(rc, r)
    del r
    if last is not None:
        at = np.flatnonzero(np.take(hi, live) == np.take(end, live))
        counts[np.take(start + n - 1, at)] = (np.take(cc, np.take(hi, live[at]) - 1)
                                             * np.take(last, live[at]))
    return [_carry(keys), counts]


def _pairs(rows: tuple, cols: tuple, end: np.ndarray, last: np.ndarray | None = None):
    """Reduced blocks of the sums of row i's key and each of the first end[i]
    keys of the key-sorted cols, weighted by the product of their counts
    (row i's count last[i] instead at column end[i] - 1, if last is given).

    A block holds the pairs whose sums lie in [B_t, B_t+1) for the _bounds
    B; each row's columns below B are a prefix of its columns, which _below
    finds exactly, so equal sums never straddle two blocks and the blocks
    come out in ascending, disjoint key ranges.  A table of at most
    _BLOCK_PAIRS pairs is one block, built with no search.
    """
    lo = np.zeros_like(end)
    for bound in _bounds(rows[0], cols[0], end, int(end.sum())):
        hi = np.minimum(_below(rows[0], cols[0], bound), end)
        if (hi > lo).any():
            yield _runs(_block(rows, cols, lo, hi, end, last))
        lo = hi
    yield _runs(_block(rows, cols, lo, end, end, last))


def _convolve(a: tuple, b: tuple):
    """Reduced blocks of the convolution of two (keys, counts) tables; b is key-sorted."""
    return _pairs(a, b, np.full(len(a[1]), len(b[1])))


def _power(t: tuple, s: int):
    """Reduced blocks of _convolve(t, ..., t), s copies, each multiset of s
    entries formed once.

    Level j, unreduced, holds each multiset of j entry indices as its key,
    count product, multinomial coefficient, least index and that index's
    multiplicity m.  Each multiset of level j - 1 takes each entry a up to
    its least index; the coefficient becomes coef j / (m + 1), with m = 0
    unless a is that index, which is exact and at most j!.  Level s pairs
    each multiset of level s - 1 with the entries of the key-sorted t up to
    its least index, which gives its count times coef s below the least
    index and coef s / (m + 1) at it.  A row's weight prod coef s is at most
    the count of each pair below its least index, and at that index the
    product is replaced, so no count kept passes total.  At s = 2 row b
    takes a <= b: 2 c_a c_b, or c_b^2.
    """
    if s == 1:
        yield t
        return
    lk, prod = t
    coef, least = np.ones_like(prod), np.arange(len(prod))
    mult = np.ones_like(least)
    for j in range(2, s):
        end = least + 1
        i = np.repeat(np.arange(len(end)), end)                 # the old multiset
        a = np.arange(len(i)) - np.repeat(np.cumsum(end) - end, end)  # the entry
        lk, prod = _block((lk, prod), t, np.zeros_like(end), end)
        m = np.where(a == least[i], mult[i], 0)
        coef, least, mult = coef[i] * j // (m + 1), a, m + 1
    yield from _pairs((lk, prod * (coef * s)), t, least + 1,
                      prod * (coef * s // (mult + 1)))


def _join(blocks) -> tuple[np.ndarray, np.ndarray]:
    """One (keys, counts) table from reduced blocks in ascending key ranges."""
    keys, counts = zip(*blocks)
    return np.concatenate(keys, axis=1), np.concatenate(counts)


def _sums(runs: list, L: int, dtype):
    """Reduced blocks, in ascending key ranges, of the sums with one term
    from each list, in L limbs: each (list, m), m equal lists in a row, is
    one _power, and different runs combine by a balanced _convolve."""
    if len(runs) > 1:
        mid = (len(runs) + 1) // 2  # left block takes ceil(len/2) runs
        return _convolve(_join(_sums(runs[:mid], L, dtype)),
                         _join(_sums(runs[mid:], L, dtype)))
    (values, m), = runs
    return _power(_runs([_split(values, L), np.ones(len(values), dtype=dtype)]), m)


def _sum_blocks(what: str, domains, k: int, budget_ops: int, repeat: int = 1):
    """k, the normalised domains (each read once, then repeated), the number
    of tuples and the reduced blocks, in ascending key ranges, of the gamma
    table of sums of k-th powers; over budget, `what` is refused before a
    range is read.

    L comes from sum_i max_{x in X_i} |x|^k (plain int64 keys when every sum
    fits); m equal domains in a row sum each multiset of m elements once."""
    k = at_least("k", k, 1)
    doms = _normalize_domains(domains)
    total = math.prod(len(X) for X in doms) ** repeat
    check_budget(what, total, budget_ops)
    doms = tuple(map(tuple, doms)) * repeat
    powers = [[x**k for x in X] for X in doms]
    # |x| and so |x^k| is largest at an end of the sorted domain
    top = sum(max(abs(ps[0]), abs(ps[-1])) for ps in powers)
    return k, doms, total, _sums([(p, len(list(g))) for p, g in groupby(powers)],
                                 _limbs(top), np.int64 if total < _INT64 else object)


def rep_function(domains, k: int, budget_ops: int = DEFAULT_BUDGET) -> RepFunction:
    """Exact gamma table for sums x_1^k + ... + x_s^k over the given domains.

    Memory is O(L * distinct sums + _BLOCK_PAIRS), plus the (m-1)-multisets
    when m > 2 equal domains."""
    k, doms, total, blocks = _sum_blocks("rep_function", domains, k, budget_ops)
    keys, counts = _join(blocks)
    assert int(counts.sum()) == total
    return RepFunction(k=k, s=len(doms), domains=doms, keys=keys,
                       counts=counts, total=total)


def _fold(blocks, total: int) -> tuple[int, int]:
    """The number of distinct sums and sum gamma^2, one block at a time;
    gamma^2 sums in int64 only when total^2 (which bounds it) fits."""
    distinct = ssq = seen = 0
    for keys, c in blocks:
        seen += int(c.sum())
        if total**2 >= _INT64:
            c = c.astype(object, copy=False)
        distinct += len(c)
        ssq += int(np.dot(c, c))
        del keys, c  # before the next block is built
    assert seen == total
    return distinct, ssq


def s_count(X, s: int, k: int, budget_ops: int = DEFAULT_BUDGET) -> CountResult:
    """Number of solutions of x_1^k+..+x_s^k = y_1^k+..+y_s^k over X^{2s}.

    The gamma table is never held whole: memory is one block of about
    _BLOCK_PAIRS pairs, plus the (s-1)-multisets when s > 2."""
    s = at_least("s", s, 1)
    k, doms, total, blocks = _sum_blocks("s_count", [X], k, budget_ops, s)
    n = len(doms[0])
    return CountResult(S=_fold(blocks, total)[1], s=s, k=k, set_size=n,
                       diagonal_lb=n**s)


def distinct_sums_bound(domains, k: int,
                        budget_ops: int = DEFAULT_BUDGET) -> DistinctSums:
    """Distinct attainable sums vs. the Cauchy-Schwarz floor total^2 / sum(gamma^2)."""
    k, _, total, blocks = _sum_blocks("distinct_sums_bound", domains, k, budget_ops)
    distinct, ssq = _fold(blocks, total)
    # exact integer comparison before any float is formed
    assert distinct * ssq >= total**2
    return DistinctSums(distinct=distinct, lower_bound=total**2 / ssq,
                        total=total, sum_gamma_sq=ssq)


def t_pq_count(E, s: int, k: int, p: int, q: int,
               budget_ops: int = DEFAULT_BUDGET) -> CountResult:
    """Solutions of p^k(sum x_i^k - sum y_i^k) = q^k(y^k - x^k) over E^{2s}.

    The two sides are tabulated separately (differences of (s-1)-fold sums
    against single-power differences) and matched, so the cost is
    |E|^(2s-2) + |E|^2 rather than |E|^(2s).  Both tables use the L that
    holds the larger side's bound.  The right table R is symmetric (swapping
    x and y negates a value), so sum_v L(v) R(v) is the key-0 entry of
    L convolved with R: the pairs whose sums lie in [0, 1), which the
    kernel's exact splits at 0 and 1 find.  Counts are int64 when |E|^(2s),
    which bounds every count product, is below 2^63.
    """
    E, = _normalize_domains([E], "E")
    s, k, p, q = at_least("s", s, 2), as_int(k), as_int(p), as_int(q)
    for name, v in (("p", p), ("q", q)):
        if not smooth_sets.is_prime(v):
            raise DomainError(f"{name}={v} is not prime")
    if p == q:
        raise DomainError("p and q must be distinct")
    for x in E:
        if x % p == 0:
            raise CoprimalityError(f"element {x} is not coprime to p={p}")
    check_budget("t_pq_count", len(E) ** (2 * s), budget_ops)

    pk, qk = p**k, q**k
    powers = [x**k for x in E]
    L = _limbs(max(2 * (s - 1) * pk, 2 * qk) * max(abs(powers[0]), abs(powers[-1])))
    dtype = np.int64 if len(E) ** (2 * s) < _INT64 else object
    left = _join(_sums([([pk * v for v in powers], s - 1),
                        ([-pk * v for v in powers], s - 1)], L, dtype))
    right = _join(_sums([([qk * v for v in powers], 1),
                         ([-qk * v for v in powers], 1)], L, dtype))
    _, counts = _block(left, right, *(_below(left[0], right[0], b) for b in (0, 1)))
    return CountResult(S=int(counts.sum()), s=s, k=k, set_size=len(E),
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
    try:
        bad = (s := as_int(s)) < 2
    except DomainError:
        bad = True
    if bad:
        raise DomainError(f"s must be an integer >= 2, got {s!r}")
    inner = smooth_sets.build_single_levels(k, P, theta, base_levels).elements
    window = smooth_sets._window(P**theta, 0,
                                 f"lemma 1 top window, P^theta = {P**theta:.4g}")
    outer = smooth_sets.build_single(inner, window).elements
    Z = window.Z
    lhs = s_count(outer, s, k, budget_ops=budget_ops).S
    rhs = (Z**s * s_count(inner, s, k, budget_ops=budget_ops).S
           + Z ** (2 * s) * math.floor(P)
           * s_count(inner, s - 1, k, budget_ops=budget_ops).S)
    return Lemma1Report(lhs=lhs, rhs=rhs, ratio=lhs / rhs, Z=Z,
                        inner_size=len(inner), outer_size=len(outer),
                        P=float(P), theta=theta, base_levels=as_int(base_levels))


def exponent_fit(runs) -> ExponentFit:
    """Least-squares slope of log S against log P."""
    pts = [(as_real("P", P), int(S)) for P, S in runs]
    if len(pts) < 3:
        raise DomainError(f"need at least 3 points, got {len(pts)}")
    if len({P for P, _ in pts}) != len(pts):
        raise DomainError("P values must be distinct")
    if not all(P > 0 and S > 0 for P, S in pts):
        raise DomainError(f"every P and S must be positive, got {pts}")
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
