import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waring import phases

I64_MIN, I64_MAX = -(1 << 63), (1 << 63) - 1
EPS = sys.float_info.epsilon


def literal(freqs, alpha):
    """Reduced phase fractions and the sum, one big-integer term at a time."""
    num, den = float(alpha).as_integer_ratio()
    fracs = [((f * num) % den) / den for f in freqs]
    ph = [2.0 * math.pi * x for x in fracs]
    return fracs, complex(math.fsum(map(math.cos, ph)),
                          math.fsum(map(math.sin, ph)))


def check(freqs, alpha):
    num, den = float(alpha).as_integer_ratio()
    fixed = den <= 1 << 64 and all(I64_MIN <= f <= I64_MAX for f in freqs)
    fracs, want = literal(freqs, alpha)
    got_fracs = phases._reduced_uint64(freqs, num, den)
    got = phases.unit_sum(freqs, alpha)
    if not fixed:
        assert got_fracs is None
        assert got == want
        return
    assert got_fracs.tolist() == fracs
    # np.cos/np.sin may differ from math.cos/math.sin by a few ulps per term
    tol = 8 * len(freqs) * EPS
    assert abs(got.real - want.real) <= tol
    assert abs(got.imag - want.imag) <= tol


frequency = st.one_of(st.integers(-1000, 1000),
                      st.integers(I64_MIN, I64_MAX),
                      st.sampled_from([I64_MAX, -I64_MAX, I64_MIN]),
                      st.integers(1 << 63, 1 << 80),
                      st.integers(-(1 << 80), I64_MIN - 1))
alpha = st.one_of(st.floats(-1e6, 1e6),
                  st.sampled_from([0.0, -0.0, 1.0, -3.0, 0.5, -0.375]),
                  st.integers(-(1 << 30), 1 << 30).map(lambda n: n / (1 << 20)),
                  st.floats(2.0**-80, 2.0**-12))


@settings(max_examples=300, deadline=None)
@given(freqs=st.lists(frequency, min_size=1, max_size=20), alpha=alpha)
def test_unit_sum_matches_literal_loop(freqs, alpha):
    check(freqs, alpha)


@pytest.mark.parametrize("freqs", [
    [-5, -1, 0, 3, 7],
    [I64_MAX, -I64_MAX, I64_MIN, 1],
    [1 << 63, 2],                  # past int64: numpy infers uint64
    [1 << 63, -1],                 # past int64 with a negative: float64
    [-(1 << 63) - 1, 2],           # past int64 below: object
    [1 << 90, 3],
])
@pytest.mark.parametrize("a", [0.3, -0.3, 0.0, 7.0, 0.375,
                               2.0**-12 * 0.7371, 2.0**-11 * 0.9])
def test_unit_sum_edges(freqs, a):
    check(freqs, a)


def test_route_chosen_from_input():
    small = (2.0**-12 * 0.7371).as_integer_ratio()
    assert small[1] > 1 << 64     # a full mantissa below 2^-12
    assert phases._reduced_uint64([1, 2], *small) is None
    assert phases._reduced_uint64([1, 2], *(0.3).as_integer_ratio()) is not None
    assert phases._reduced_uint64([1 << 63], *(0.3).as_integer_ratio()) is None
