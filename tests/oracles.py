"""Reference routes that share no code with the fast paths they check."""

import math
from collections import Counter
from fractions import Fraction
from itertools import product


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
