import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waring import expsum_arcs as ea
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


# ---------------------------------------------------------------------------
# exact_sum: the same double as math.fsum, on this interpreter, bit for bit
# ---------------------------------------------------------------------------

N = phases._FSUM_BELOW
INF, NAN = float("inf"), float("nan")


def outcome(total, x):
    """The double total(x) returns, as hex, or the type of what it raises."""
    try:
        return total(x).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc)


def fsum_list(x):
    return math.fsum(x.tolist())


def assert_kernel_matches(x, monkeypatch):
    """exact_sum(x) == fsum, with fsum unreachable from the bucket route."""
    want = fsum_list(x)

    def refuse(_):
        raise AssertionError("the bucket route fell back to math.fsum")

    monkeypatch.setattr(phases, "math", SimpleNamespace(fsum=refuse))
    assert phases.exact_sum(x).hex() == want.hex()


@settings(max_examples=300, deadline=None)
@given(base=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                     min_size=1, max_size=40),
       n=st.integers(1, 3 * N), seed=st.integers(0, 2**32 - 1))
def test_exact_sum_matches_fsum(base, n, seed):
    # n draws from a few doubles of any magnitude, each with a random sign,
    # so x and -x cancel; overflowing sums must raise as fsum raises
    rng = np.random.default_rng(seed)
    x = rng.choice(np.array(base), n) * rng.choice([-1.0, 1.0], n)
    assert outcome(phases.exact_sum, x) == outcome(fsum_list, x)


def _pad(values, n=2 * N):
    return np.array(list(values) + [0.0] * (n - len(values)))


rng0 = np.random.default_rng(7)
WIDE = rng0.standard_normal(3000) * np.exp2(rng0.integers(-1074, 990, 3000))
SUB = rng0.integers(-(1 << 52), 1 << 52, 3000) * 5e-324
CANCEL = np.concatenate([WIDE, -WIDE[::-1], [3e-300]])


@pytest.mark.parametrize("x", [
    WIDE,                                       # exponents -1074..990
    SUB,                                        # subnormals only
    np.concatenate([SUB, [1.0, -1.0, 2.0**-1022]]),
    CANCEL,                                     # x and -x, a tiny residue
    np.concatenate([[1e16, 1.0], rng0.standard_normal(N), [-1e16]]),
    _pad([2.0**53, 1.0]),                       # tie: rounds to even, down
    _pad([2.0**53, 3.0]),                       # tie: rounds to even, up
    _pad([-(2.0**53), -1.0]),
    _pad([2.0**53, 1.0, 1e-300]),               # a tie broken by a tiny term
    np.concatenate([[2.0**53], np.full(N, 2.0**-10)]),   # a tie built of parts
    _pad([1.0, 2.0**-53]),                      # half an ulp of 1
    _pad([-0.0, 1.0]),
    np.cos(np.arange(N) * 0.01),                # exactly at the crossover
], ids=["wide", "subnormal", "subnormal_mixed", "cancel", "cancel_big",
        "tie_down", "tie_up", "tie_negative", "tie_broken", "tie_of_parts",
        "half_ulp", "signed_zero_and_one", "crossover"])
def test_exact_sum_bucket_route(x, monkeypatch):
    assert len(x) >= N
    assert_kernel_matches(x, monkeypatch)


@pytest.mark.parametrize("x", [
    np.full(2 * N, -0.0),                       # exact zero: fsum picks the sign
    np.concatenate([WIDE, -WIDE]),
    np.full(2 * N, 0.0),
    _pad([INF, 1.0]), _pad([-INF]), _pad([NAN, 1.0]), _pad([INF, -INF]),
    np.full(2 * N, 1.7e308),                    # the exact sum overflows
    _pad([1e308, 1e308, -1e308]),               # only a prefix sum overflows
    _pad([2.0**1023, -(2.0**1023), 1.0]),
    np.cos(np.arange(N - 1) * 0.01),            # one below the crossover
    np.array([-0.0]), np.array([]),
], ids=["neg_zeros", "exact_zero", "zeros", "inf", "neg_inf", "nan",
        "inf_minus_inf", "overflow", "prefix_overflow", "top_exponent",
        "below_crossover", "one_neg_zero", "empty"])
def test_exact_sum_fsum_route(x):
    assert outcome(phases.exact_sum, x) == outcome(fsum_list, x)


def test_exact_sum_chunks(monkeypatch):
    # the 2^26-term chunk limit, scaled down so the chunk loop runs here
    assert phases._CHUNK * (1 << 27) <= 1 << 53
    monkeypatch.setattr(phases, "_CHUNK", 1000)
    for x in (WIDE, SUB, CANCEL, np.cos(np.arange(5 * N) * 0.3)):
        assert_kernel_matches(x, monkeypatch)


def test_exact_sum_reads_strided_views(monkeypatch):
    z = np.exp(1j * np.arange(3 * N) * 0.7)
    assert not z.real.flags.contiguous
    assert_kernel_matches(z.real, monkeypatch)
    assert_kernel_matches(z.imag, monkeypatch)


# ---------------------------------------------------------------------------
# unit_sum on the cached frequency arrays
# ---------------------------------------------------------------------------

def test_cached_int64_array_at_small_alpha():
    # 2^e > 2^64: the cached int64 array must reach the big-integer loop as
    # Python ints, where int64 products would overflow
    spec = ea.FullInterval(P=1000, k=3)
    freqs = ea.frequencies(spec)
    assert isinstance(freqs, np.ndarray) and freqs.dtype == np.int64
    assert not freqs.flags.writeable
    a = 2.0**-12 * 0.7371
    assert a.as_integer_ratio()[1] > 1 << 64
    want = literal([x**3 for x in range(1, 1001)], a)[1]
    assert ea.eval_at(spec, a) == want
    assert ea.eval_at(spec, a) == want          # from the cache


@pytest.mark.parametrize("a", [0.3, 2.0**-12 * 0.7371])
def test_frequencies_past_int64_stay_python_ints(a):
    spec = ea.FullInterval(P=2000, k=6)
    freqs = ea.frequencies(spec)
    assert isinstance(freqs, tuple) and max(freqs) == 2000**6 > I64_MAX
    assert ea.eval_at(spec, a) == literal([x**6 for x in range(1, 2001)], a)[1]
