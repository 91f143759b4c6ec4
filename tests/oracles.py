"""Reference routes that share no code with the fast paths they check."""

from collections import Counter
from itertools import product


def brute_force_s_count(X, s: int, k: int) -> int:
    """Solutions of x_1^k+..+x_s^k = y_1^k+..+y_s^k over X^{2s}: every
    s-tuple's sum, then the squared multiplicity of each sum."""
    sums = Counter(map(sum, product([x**k for x in sorted(set(X))], repeat=s)))
    return sum(c * c for c in sums.values())
