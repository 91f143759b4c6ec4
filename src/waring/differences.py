"""Integer-polynomial difference operators and the balancing algebra.

_diff builds the modified difference (phi(x + hm) - phi(x)) / m in one pass
over the coefficients.  With t = hm, phi(x + t) - phi(x) has coefficient
sum_{j>i} c_j C(j, i) t^(j-i) at x^i; every term has j > i, so it carries a
factor t = hm, and cancelling m leaves h * sum_{j>i} c_j C(j, i) t^(j-i-1).
That is exact, and m = 1 is the forward difference.  The inner sum is
evaluated in Horner form in t, reading the binomials from a cached table of
Pascal columns per degree.  Chaining modified differences with moduli p_j^k
against x^k yields the polynomials psi_i of degree k - i with leading
coefficient k(k-1)...(k-i+1) * h_1...h_i.  Differences commute, so
psi_chains walks its chains' sorted step multisets as a trie and differences
each distinct prefix once; psi is its one-chain call.

lemma7_terms evaluates the two competing terms U_i, V_i of the nested-sum
estimate in log space; with power-law model counts and a balanced
construction-exponent schedule the two agree to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import chain, product

from .errors import DomainError, as_int, as_real, check_budget
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


def _shape(k: int, i: int, j: int) -> None:
    """Refuse |h| = i and |p| = j unless i = j <= k and k >= 1."""
    if i != j:
        raise DomainError(f"|h|={i} and |p|={j} must match")
    if k < 1 or i > k:
        raise DomainError(f"need 0 <= i <= k, got i={i}, k={k}")


def _steps(hs) -> None:
    """Refuse the first step below 1."""
    for v in hs:
        if v < 1:
            raise DomainError(f"step h={v} must be positive")


def _primes(ps) -> None:
    """Refuse the first non-prime, with one is_prime per distinct value."""
    for v in dict.fromkeys(ps):
        if not is_prime(v):
            raise DomainError(f"{v} is not prime")


def _key(k: int, c) -> tuple:
    """Chain c = (h, p) as exact ints, checked as psi checks it but for
    primality, keyed by its sorted steps (h_j, p_j)."""
    try:
        h, p = c
    except (TypeError, ValueError):
        raise DomainError(f"a chain is a pair (h, p), got {c!r}") from None
    # lists: freed small tuples stay on CPython's free list, and criterion
    # 10's 5,613 chains would hold about 0.15 MiB more at its peak
    h, p = list(map(as_int, h)), list(map(as_int, p))
    _shape(k, len(h), len(p))
    _steps(h)
    return tuple(sorted(zip(h, p)))


def psi_chains(k: int, chains) -> list:
    """Coefficients of psi_i(x; h; p^k) for each (h, p) in chains, in input
    order.  Each chain is checked as psi checks its one chain, but each
    distinct p is tested for primality once per call, after every chain."""
    k = as_int(k)
    keys = [_key(k, c) for c in chains]
    _shape(k, 0, 0)   # k >= 1 also when there are no chains
    _primes(p for key in keys for _, p in key)
    return _walk(k, keys)


def _walk(k: int, keys) -> list:
    """psi_chains after its checks, for chains keyed by their sorted steps:
    the distinct keys are walked in sorted order with one list per step of
    the last key on a stack, so a key differences only the steps past its
    common prefix."""
    keys = list(keys)
    done, last, stack = {}, (), [IntPolynomial.x_power(k).coeffs]
    for key in sorted(set(keys)):
        n = next((j for j, (a, b) in enumerate(zip(key, last)) if a != b),
                 min(len(key), len(last)))   # the common prefix
        del stack[n + 1:]
        for h, p in key[n:]:
            stack.append(_diff(stack[-1], h, h * p**k))
        i, cs, last = len(key), stack[-1], key
        assert len(cs) == k - i + 1 and cs[-1] == (
            math.perm(k, i) * math.prod(next(zip(*key), ())))   # h_1...h_i
        done[key] = tuple(cs)
    return list(map(done.__getitem__, keys))


def psi(k: int, h, p) -> DiffChain:
    """Chain modified differences with steps h_j and moduli p_j^k over x^k:
    the one-chain call of psi_chains, so the same checks and walk."""
    k, h, p = as_int(k), tuple(map(as_int, h)), tuple(map(as_int, p))
    cs, = psi_chains(k, [(h, p)])
    return DiffChain(k, h, p, tuple(v**k for v in p), IntPolynomial(cs))


def nested_frequencies(q: int, k: int, H, windows, x_range: int) -> tuple:
    """Frequencies q^k * psi_i(x; h; p^k) for h_j in [1, H_j], p in the
    product of the windows and x in [1, x_range], x innermost; nested_ranges
    checks the arguments, so the chains skip psi_chains' checks."""
    q, k, H, windows, x_range, _ = nested_ranges(q, k, H, windows, x_range)
    qk, xs = q**k, range(1, x_range + 1)
    chains = product(product(*(range(1, b + 1) for b in H)), product(*windows))
    keys = (tuple(sorted(zip(h, p))) for h, p in chains)
    polys = map(IntPolynomial, _walk(k, keys))
    return tuple(qk * poly.evaluate(x) for poly in polys for x in xs)


def nested_ranges(q: int, k: int, H, windows, x_range: int) -> tuple:
    """(q, k, H, windows, x_range, term count) as ints, checked as psi_chains
    checks the product's chains (H_j: steps 1..H_j) and also: a positive q,
    no empty window, at least one level and a nonempty x range."""
    if (q := as_int(q)) < 1:
        raise DomainError(f"q must be positive, got {q}")
    k, H, x_range = as_int(k), tuple(map(as_int, H)), as_int(x_range)
    wins = tuple(tuple(map(as_int, w)) for w in windows)
    _shape(k, len(H), len(wins))
    if not all(wins):
        raise DomainError("all ranges must be nonempty")
    _steps(H)
    _primes(chain(*wins))
    if not H:
        raise DomainError("need at least one difference level")
    if x_range < 1:
        raise DomainError("all ranges must be nonempty")
    return (q, k, H, wins, x_range,
            math.prod(H) * math.prod(map(len, wins)) * x_range)


def f_i_sum(alpha: float, q: int, k: int, H, windows, x_range: int,
            budget: int = F_I_SUM_BUDGET) -> complex:
    """Nested sum of e(q^k * psi_i(x; h; p^k) * alpha) over all ranges.

    H is the list of step bounds H_1..H_i, windows the per-level prime lists,
    x ranges over [1, x_range].  Exact phase reduction keeps the result
    deterministic; the term count is checked against the budget first.
    """
    q, k, H, wins, x_range, terms = nested_ranges(q, k, H, windows, x_range)
    check_budget("f_i_sum", terms, budget)
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
        if len(thetas) != (k := as_int(k)):
            raise DomainError(f"need {k} construction exponents, got {len(thetas)}")
        as_real("P", P, positive=True)
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
    s = as_int(s)
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
    if not 0 <= (i := as_int(i)) <= k - 1:
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
