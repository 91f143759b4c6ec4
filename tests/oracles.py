"""Reference routes that share no code with the fast paths they check, and
test-only helpers: modified_diff reaches the difference kernel psi_chains
runs, write_set writes the set files that read_set and count --set read,
weyl_ratio_per_candidate checks weyl_ratio's one batched pass against
eval_at at each point, and product_levels_literal builds the smooth_sets
constructions level by level from their definition."""

import math
import operator
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np

from waring import differences, expsum_arcs
from waring.differences import IntPolynomial
from waring.errors import DomainError


def brute_force_s_count(X, s: int, k: int) -> int:
    """Solutions of x_1^k+..+x_s^k = y_1^k+..+y_s^k over X^{2s}: every
    s-tuple's sum, then the squared multiplicity of each sum."""
    sums = Counter(map(sum, product([x**k for x in sorted(set(X))], repeat=s)))
    return sum(c * c for c in sums.values())


def classify_exact(alpha, d):
    """Smallest-q major-arc label of alpha in d, found in Fractions: walk the
    continued-fraction convergents of alpha and return the first a/q with
    q <= P, 1 <= a <= q and |alpha - a/q| <= 1/(q tau)."""
    exact_alpha, tau = Fraction(alpha), Fraction(d.tau)
    x = exact_alpha
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a = math.floor(x)
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if q1 > d.Q_major:
            return None
        if 1 <= p1 <= q1 and abs(exact_alpha - Fraction(p1, q1)) <= 1 / (q1 * tau):
            return (q1, p1)
        if x == a:
            return None
        x = 1 / (x - a)


def reduced_uint64(freqs, num: int, den: int):
    """(f * num mod den) / den for each f as float64 by wrapping uint64
    products, or None when den > 2^64 or some frequency does not fit in
    int64."""
    if den > 1 << 64:
        return None
    f = np.asarray(freqs)
    if f.dtype.kind != "i":     # past int64, numpy infers uint64, float or object
        return None
    r = f.astype(np.int64, copy=False).view(np.uint64) * np.uint64(num % (1 << 64))
    return (r & np.uint64(den - 1)).astype(np.float64) / float(den)


def unit_sum_per_alpha(freqs, alpha: float) -> complex:
    """phases.unit_sum as it was before unit_sums: one alpha at a time, the
    uint64 residues with np.cos and np.sin when reduced_uint64 applies, else
    the big-integer loop with math.cos and math.sin; every part summed by
    math.fsum."""
    num, den = float(alpha).as_integer_ratio()
    frac = reduced_uint64(freqs, num, den)
    if frac is not None:
        ph = 2.0 * math.pi * frac
        return complex(math.fsum(np.cos(ph).tolist()),
                       math.fsum(np.sin(ph).tolist()))
    if isinstance(freqs, np.ndarray):
        freqs = freqs.tolist()
    phs = [2.0 * math.pi * (((f * num) % den) / den) for f in freqs]
    return complex(math.fsum(map(math.cos, phs)), math.fsum(map(math.sin, phs)))


def weyl_ratio_per_candidate(P: int, k: int, policy):
    """expsum_arcs.weyl_ratio as one loop over the candidates: classify, then
    eval_at at each minor point, keeping the first maximum."""
    d = expsum_arcs.ArcDissection.make(P, k)
    spec = expsum_arcs.FullInterval(P=P, k=k)
    scale = P ** (1 - 1 / 2 ** (k - 1))
    best, n_minor = None, 0
    cands = policy.candidates(d)
    for alpha in cands:
        if expsum_arcs.classify(alpha, d) is not None:
            continue
        n_minor += 1
        ratio = abs(expsum_arcs.eval_at(spec, alpha)) / scale
        if best is None or ratio > best[0]:
            best = (ratio, alpha)
    return expsum_arcs.WeylReport(max_ratio=best[0], argmax_alpha=best[1],
                                  n_minor=n_minor, n_candidates=len(cands),
                                  scale=scale)


def nested_frequencies_per_chain(psi, q, k, H, windows, x_range):
    """The loop nested_frequencies ran before chains shared their prefixes:
    one psi(k, h, p) call per chain, p inside h, x innermost.  psi is passed
    in; this route checks the enumeration order and the frequencies, and psi
    itself is checked against the definition of the nested difference."""
    qk = q**k
    out = []
    for hs in product(*(range(1, b + 1) for b in H)):
        for ps in product(*windows):
            poly = psi(k, hs, ps).result
            out.extend(qk * poly.evaluate(x) for x in range(1, x_range + 1))
    return tuple(out)


def make_poly(coeffs) -> IntPolynomial:
    """IntPolynomial of exact int coefficients, trailing zeros dropped."""
    try:
        cs = list(map(operator.index, coeffs))
    except TypeError:
        raise DomainError(f"coefficients {coeffs!r} are not all integers") from None
    while cs and cs[-1] == 0:
        cs.pop()
    return IntPolynomial(tuple(cs))


def modified_diff(phi: IntPolynomial, h: int, m: int) -> IntPolynomial:
    """(phi(x + h*m) - phi(x)) / m through differences._diff, the one-pass
    kernel of psi_chains: coefficient i is sum_{j>i} c_j C(j, i) h t^(j-i-1)
    with t = h*m, exact with no division."""
    h, m = differences._index(h), differences._index(m)
    if m < 1 or h < 1:
        raise DomainError(f"need h >= 1 and m >= 1, got h={h}, m={m}")
    return make_poly(differences._diff(phi.coeffs, h, h * m))


def product_levels_literal(base, windows, coprime: bool) -> list[tuple]:
    """(elements, windows applied, lost products) at level len(windows), then
    at each level j down to 0, where level j is {x p : x in level j+1, p prime
    in windows[j]} and, when coprime, p does not divide x.  A window is an
    inclusive (lo, hi) pair, applied as (lo, hi, primes by trial division);
    lost products are attempted pairs less distinct products, summed."""
    level, applied, lost = set(base), (), 0
    out = [(tuple(sorted(level)), applied, lost)]
    for lo, hi in reversed(windows):
        primes = tuple(n for n in range(max(2, lo), hi + 1)
                       if all(n % d for d in range(2, math.isqrt(n) + 1)))
        pairs = [(x, p) for x in level for p in primes
                 if not (coprime and x % p == 0)]
        level = {x * p for x, p in pairs}
        applied, lost = applied + ((lo, hi, primes),), lost + len(pairs) - len(level)
        out.append((tuple(sorted(level)), applied, lost))
    return out


def write_set(path, smooth) -> None:
    """A set file as read_set reads it: the header line, then one decimal
    element per line."""
    spec = smooth.spec
    k = spec.k if spec else 0
    mode = spec.mode if spec else "raw"
    p_top = spec.P_top if spec else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# waring-set k={k} mode={mode} P={p_top!r}\n")
        for x in smooth.elements:
            fh.write(f"{x}\n")
