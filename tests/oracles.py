"""Reference routes that share no code with the fast paths they check, and
test-only helpers: modified_diff reaches the difference kernel psi_chains
runs, and write_set writes the set files that read_set and count --set read."""

import math
import operator
from collections import Counter
from fractions import Fraction
from itertools import product

from waring import differences
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
