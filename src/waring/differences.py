"""Integer-polynomial difference operators and the balancing algebra.

_diff builds the modified difference (phi(x + hm) - phi(x)) / m in one pass
over the coefficients.  With t = hm, phi(x + t) - phi(x) has coefficient
sum_{j>i} c_j C(j, i) t^(j-i) at x^i; every term has j > i, so it carries a
factor t = hm, and cancelling m leaves h * sum_{j>i} c_j C(j, i) t^(j-i-1).
That is exact, and m = 1 is the forward difference.  The inner sum is
evaluated in Horner form in t, reading the binomials from a cached table of
Pascal columns per degree.  Chaining modified differences with moduli p_j^k
against x^k yields the polynomials psi_i of degree k - i with leading
coefficient k(k-1)...(k-i+1) * h_1...h_i.  psi_chains checks its ranges
once and, per h, builds each level from the last on plain lists, so a shared
prefix (h_1..h_j, p_1..p_j) is differenced once; psi is its one-chain case.

lemma7_terms evaluates the two competing terms U_i, V_i of the nested-sum
estimate in log space; with power-law model counts and a balanced
construction-exponent schedule the two agree to rounding.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache
from itertools import chain, product

from .errors import BudgetError, DomainError
from .phases import unit_sum
from .smooth_sets import is_prime

F_I_SUM_BUDGET = 10**8


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial, coefficients ascending, no trailing zeros."""

    coeffs: tuple[int, ...]

    @staticmethod
    def x_power(k: int) -> "IntPolynomial":
        return IntPolynomial((0,) * k + (1,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # zero polynomial has degree -1

    @property
    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def serialize(self) -> str:
        """Space-separated coefficient list 'c0 c1 ... cd'."""
        return " ".join(str(c) for c in self.coeffs)


def _index(v) -> int:
    """v as an exact int; a float or any other non-integer is refused."""
    try:
        return operator.index(v)
    except TypeError:
        raise DomainError(f"{v!r} is not an integer") from None


@cache
def _pascal(d: int) -> tuple:
    """For each i < d, the binomials C(j, i) for j = d down to i + 1."""
    return tuple(tuple(math.comb(j, i) for j in range(d, i, -1))
                 for i in range(d))


def _diff(cs, h: int, t: int) -> list:
    """Coefficients h * sum_{j>i} c_j C(j, i) t^(j-i-1), i = 0..deg - 1,
    each sum in Horner form in t."""
    rc, out = cs[::-1], []
    for col in _pascal(len(cs) - 1):
        acc = 0
        for c, b in zip(rc, col):   # c_d .. c_{i+1} against C(d, i) .. C(i+1, i)
            acc = acc * t + c * b
        out.append(h * acc)
    return out


@dataclass(frozen=True)
class DiffChain:
    """i-fold modified difference of x^k with moduli p_j^k."""

    k: int
    h: tuple[int, ...]
    p: tuple[int, ...]
    moduli: tuple[int, ...]
    result: IntPolynomial


def _levels(k, hs, windows) -> tuple:
    """(k, hs, windows) as ints, checked once for a chain of len(hs) levels:
    equal lengths, at most k levels, no empty range, every step positive and
    every window value prime, with one is_prime per distinct value."""
    k = _index(k)
    hs = tuple(tuple(map(_index, r)) for r in hs)
    wins = tuple(tuple(map(_index, w)) for w in windows)
    if len(hs) != len(wins):
        raise DomainError(f"|h|={len(hs)} and |p|={len(wins)} must match")
    if k < 1 or len(hs) > k:
        raise DomainError(f"need 0 <= i <= k, got i={len(hs)}, k={k}")
    if not all(hs) or not all(wins):
        raise DomainError("all ranges must be nonempty")
    for v in chain(*hs):
        if v < 1:
            raise DomainError(f"step h={v} must be positive")
    for v in dict.fromkeys(chain(*wins)):
        if not is_prime(v):
            raise DomainError(f"{v} is not prime")
    return k, hs, wins


def psi_chains(k: int, hs, windows) -> list:
    """(h, p, coeffs of psi_i(x; h; p^k)) for every h in product(*hs) and
    every p in product(*windows), p innermost.  The arguments are checked
    once; then, per h, level j's list differences each chain of level j-1's
    list once per prime of window j.  Level 1 is in closed form: coefficient
    j is h C(k, j) t^(k-j-1) with t = h_1 p_1^k."""
    k, hs, wins = _levels(k, hs, windows)
    i, binoms = len(hs), [col[0] for col in _pascal(k)]   # C(k, j), j < k
    out = []
    for h in product(*hs):
        level = ([((v,), [b * h[0] * t ** (k - 1 - j)
                          for j, b in enumerate(binoms)])
                  for v in wins[0] for t in [h[0] * v**k]]
                 if h else [((), IntPolynomial.x_power(k).coeffs)])
        for hj, w in zip(h[1:], wins[1:]):
            level = [(p + (v,), _diff(cs, hj, hj * v**k))
                     for p, cs in level for v in w]
        lead = math.prod(range(k - i + 1, k + 1)) * math.prod(h)
        for p, cs in level:
            assert len(cs) == k - i + 1 and cs[-1] == lead
            out.append((h, p, tuple(cs)))
    return out


def psi(k: int, h, p) -> DiffChain:
    """Chain modified differences with steps h_j and moduli p_j^k over x^k:
    psi_chains with one value per level, so the same checks and walk."""
    (h, p, cs), = psi_chains(k, [(v,) for v in h], [(v,) for v in p])
    k = _index(k)
    return DiffChain(k, h, p, tuple(v**k for v in p), IntPolynomial(cs))


def nested_frequencies(q: int, k: int, H, windows, x_range: int) -> tuple:
    """Frequencies q^k * psi_i(x; h; p^k) for h_j in [1, H_j], p in the
    product of the windows and x in [1, x_range], x innermost; the arguments
    are checked as nested_ranges checks them."""
    H, windows, _ = nested_ranges(q, k, H, windows, x_range)
    qk, xs = q**k, range(1, x_range + 1)
    polys = [IntPolynomial(cs) for _, _, cs in
             psi_chains(k, [range(1, b + 1) for b in H], windows)]
    return tuple(qk * poly.evaluate(x) for poly in polys for x in xs)


def nested_ranges(q: int, k: int, H, windows, x_range: int) -> tuple:
    """(H, windows, term count) with H and windows as int tuples, checked as
    psi_chains checks them and also: a positive int q, at least one level
    and a nonempty x range.  Level j's steps run 1..H_j, so its largest step
    H_j stands for the whole range in the shared check."""
    q, x_range = _index(q), _index(x_range)
    if q < 1:
        raise DomainError(f"q must be positive, got {q}")
    _, tops, wins = _levels(k, [(b,) for b in H], windows)
    if not tops:
        raise DomainError("need at least one difference level")
    if x_range < 1:
        raise DomainError("all ranges must be nonempty")
    H = tuple(b for b, in tops)
    return H, wins, math.prod(H) * math.prod(map(len, wins)) * x_range


def f_i_sum(alpha: float, q: int, k: int, H, windows, x_range: int,
            budget: int = F_I_SUM_BUDGET) -> complex:
    """Nested sum of e(q^k * psi_i(x; h; p^k) * alpha) over all ranges.

    H is the list of step bounds H_1..H_i, windows the per-level prime lists,
    x ranges over [1, x_range].  Exact phase reduction keeps the result
    deterministic; the term count is checked against the budget first.
    """
    H, wins, terms = nested_ranges(q, k, H, windows, x_range)
    if terms > budget:
        raise BudgetError(f"{terms} terms exceed budget {budget}",
                          predicted=terms, budget=budget)
    return unit_sum(nested_frequencies(q, k, H, wins, x_range), alpha)


# ---------------------------------------------------------------------------
# Balancing algebra for the multi-level construction.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BalanceGeometry:
    """Level sizes of a multi-level construction: Z_j = P^theta_j, H_j = P/Z_j^k."""

    k: int
    P: float
    thetas: tuple[float, ...]     # theta_1..theta_k
    Z: tuple[float, ...]          # Z_1..Z_k
    H: tuple[float, ...]          # H_1..H_k
    P_levels: tuple[float, ...]   # P_0..P_k

    @staticmethod
    def from_thetas(k: int, P: float, thetas) -> "BalanceGeometry":
        thetas = tuple(float(t) for t in thetas)
        if len(thetas) != k:
            raise DomainError(f"need {k} construction exponents, got {len(thetas)}")
        Z = tuple(P**t for t in thetas)
        H = tuple(P / z**k for z in Z)
        levels = [float(P)]
        for z in Z:
            levels.append(levels[-1] / z)
        return BalanceGeometry(k=k, P=float(P), thetas=thetas, Z=Z, H=H,
                               P_levels=tuple(levels))


@dataclass(frozen=True)
class BalanceCounts:
    """log S_{s-1}(P_i) for levels i = 0..k."""

    s: int
    log_S: tuple[float, ...]


def model_counts(geometry: BalanceGeometry, s: int, delta_prev: float) -> BalanceCounts:
    """Power-law counts S_{s-1}(P_i) = P_i^lam with lam = delta_prev + 2(s-1) - k."""
    lam = delta_prev + 2 * (s - 1) - geometry.k
    return BalanceCounts(
        s=s,
        log_S=tuple(lam * math.log(p) for p in geometry.P_levels),
    )


@dataclass(frozen=True)
class Lemma7Terms:
    i: int
    U: float
    V: float
    residual: float   # |log(U/V)|


def _log_u(i: int, c: BalanceCounts, g: BalanceGeometry,
           log_ht: list[float], log_zt: list[float]) -> float:
    s = c.s
    logP = math.log(g.P)
    log_z_next = math.log(g.Z[i])  # Z_{i+1} (zero-based storage)
    return (0.5 * c.log_S[i]
            + (2 * s - 3) / 2 * log_z_next
            + 0.5 * (logP + 2 * (log_ht[i] + log_zt[i]) + log_z_next
                     + c.log_S[i + 1]))


def lemma7_terms(i: int, counts: BalanceCounts,
                 geometry: BalanceGeometry) -> Lemma7Terms:
    """U_i and V_i of the nested-sum estimate, with the chained J substitute.

    V_i uses J_{i+1} ~ U_{i+1} for i+1 < k and the closing value
    J_k = Htilde_k * Ztilde_k * P * S_{s-1}(P_k) at the last level, so that
    U_{k-1} = V_{k-1} collapses to the unit-step condition H_k = 1.
    The residual |log(U_i/V_i)| is the balancing-quality metric: it vanishes
    exactly when the exponent schedule solves the balance equations.
    """
    k = geometry.k
    if not 0 <= i <= k - 1:
        raise DomainError(f"need 0 <= i <= k-1, got i={i}")
    if len(counts.log_S) != k + 1:
        raise DomainError("counts must cover levels 0..k")
    s = counts.s
    logP = math.log(geometry.P)
    # cumulative log Htilde_i, log Ztilde_i for i = 0..k
    log_ht = [0.0]
    log_zt = [0.0]
    for hj, zj in zip(geometry.H, geometry.Z):
        log_ht.append(log_ht[-1] + math.log(hj))
        log_zt.append(log_zt[-1] + math.log(zj))

    log_u_i = _log_u(i, counts, geometry, log_ht, log_zt)
    if i + 1 < k:
        log_j_next = _log_u(i + 1, counts, geometry, log_ht, log_zt)
    else:
        log_j_next = log_ht[k] + log_zt[k] + logP + counts.log_S[k]
    log_z_next = math.log(geometry.Z[i])
    log_v_i = (0.5 * counts.log_S[i]
               + (2 * s - 3) / 2 * log_z_next
               + 0.5 * (log_ht[i] + log_zt[i] + log_j_next))
    residual = abs(log_u_i - log_v_i)
    return Lemma7Terms(
        i=i,
        U=math.exp(log_u_i),
        V=math.exp(log_v_i),
        residual=residual,
    )
