import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from waring import differences as df
from waring import expsum_arcs as ea
from waring import phases
from waring.errors import DomainError

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
    got_fracs = oracles.reduced_uint64(freqs, num, den)
    got = phases.unit_sum(freqs, alpha)
    assert got == oracles.unit_sum_per_alpha(freqs, alpha)
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


def test_route_chosen_from_input(monkeypatch):
    small = 2.0**-12 * 0.7371
    assert small.as_integer_ratio()[1] > 1 << 64     # a full mantissa below 2^-12
    seen = []
    for name in ("_word_terms", "_big_terms"):
        monkeypatch.setattr(phases, name, lambda fs, ratios, route=getattr(
            phases, name), name=name: seen.append((name, ratios)) or route(fs, ratios))
    edge = 2.0**-12 * (1 + EPS)                      # 2^e = 2^64 exactly
    assert edge.as_integer_ratio()[1] == 1 << 64
    phases.unit_sums([1, 2], [0.3, small, 0.5, edge])
    assert seen == [("_word_terms", [(0.3).as_integer_ratio(), (0.5).as_integer_ratio(),
                                     edge.as_integer_ratio()]),
                    ("_big_terms", [small.as_integer_ratio()])]
    seen.clear()
    phases.unit_sums([1 << 63], [0.3])
    assert seen == [("_big_terms", [(0.3).as_integer_ratio()])]


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
    """exact_sum(x) == fsum, with the bucket route barred from falling back
    to math.fsum of the terms themselves (it sums its bucket values)."""
    want = fsum_list(x)
    terms = x.tolist()

    def buckets_only(values):
        if values == terms:
            raise AssertionError("the bucket route fell back to math.fsum")
        return math.fsum(values)

    monkeypatch.setattr(phases, "math", SimpleNamespace(fsum=buckets_only))
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


# ---------------------------------------------------------------------------
# unit_sums: the per-alpha unit_sum of before, at every alpha, bit for bit
# ---------------------------------------------------------------------------

SMALL = 2.0**-12 * 0.7371                       # 2^e > 2^64: big-integer route
ALPHAS = [0.3, SMALL, 0.0, -0.0, -0.3, 0.7071067811865476, 0.3, -5.25,
          2.0**-11 * 0.9, SMALL, 0.1, 0.9999,
          2.0**-12 * (1 + EPS)]                 # 2^e = 2^64: the uint64 route


@pytest.mark.parametrize("freqs", [
    np.arange(-40, 60, dtype=np.int64) ** 3,
    list(range(1, 300)),
    np.arange(1, 2001, dtype=np.int64) ** 2,    # one row past the crossover
    [1 << 63, -1],                              # numpy reads float64
    [1 << 63, 2],                               # numpy reads uint64
    [-(1 << 63) - 1, 2],                        # numpy reads object
    [1 << 90, 3, -7],
    ea.frequencies(ea.FullInterval(P=1200, k=6)),   # 1200 Python ints
], ids=["int64", "ints", "int64_2000", "float64", "uint64", "object", "big",
        "big_1200"])
@pytest.mark.parametrize("rows", [1, 7, 100])
def test_unit_sums_match_per_alpha_oracle(freqs, rows, monkeypatch):
    # rows alphas per block: one, several, and more than the batch holds
    monkeypatch.setattr(phases, "_BLOCK", rows * len(freqs))
    blocks = []
    for name in ("_word_terms", "_big_terms"):
        monkeypatch.setattr(phases, name, lambda fs, ratios, route=getattr(
            phases, name): blocks.append(len(ratios)) or route(fs, ratios))
    want = [oracles.unit_sum_per_alpha(freqs, a) for a in ALPHAS]
    got = phases.unit_sums(freqs, ALPHAS)
    assert sum(blocks) == len(ALPHAS) and max(blocks) <= rows
    assert [(z.real.hex(), z.imag.hex()) for z in got] == \
        [(z.real.hex(), z.imag.hex()) for z in want]
    assert phases.unit_sums(freqs, []) == []
    assert phases.unit_sum(freqs, ALPHAS[1]) == want[1]


@pytest.mark.parametrize("call", [
    lambda: ea.eval_at(ea.FullInterval(5, 3), NAN),
    lambda: ea.eval_at(ea.FullInterval(5, 3), INF),
    lambda: ea.eval_at(ea.FullInterval(5, 3), -INF),
    lambda: df.f_i_sum(NAN, 2, 3, [2], [(2, 3)], 4),
    lambda: df.f_i_sum(INF, 2, 3, [2], [(2, 3)], 4),
    lambda: phases.unit_sum([1.5, 2, 3], 0.25),
    lambda: phases.unit_sum(np.array([1.0, 2.0]), 0.25),
    lambda: phases.unit_sum([1, 2, 3], "0.5"),
    lambda: phases.unit_sums([1, 2, 3], [0.5, None]),
], ids=["nan", "inf", "neg_inf", "f_i_sum_nan", "f_i_sum_inf", "float_frequency",
        "float_array", "str_alpha", "none_alpha"])
def test_bad_input_is_domain_error(call):
    with pytest.raises(DomainError):
        call()


# ---------------------------------------------------------------------------
# The row kernel: math.fsum of every row, and fsum of the row only where the
# module docstring sends it there
# ---------------------------------------------------------------------------

def special_rows(n, rng):
    """Rows of length n: the first three are summed by buckets, the rest
    fall back to math.fsum of the row."""
    wide = rng.standard_normal(n) * np.exp2(rng.integers(-60, 60, n))
    tie = np.zeros(n)
    tie[0] = 2.0**53
    tie[-1] += 1.0                              # a tie: rounds to even, down
    half = rng.permutation(np.concatenate([wide[:n // 2], -wide[:n // 2],
                                           np.zeros(n % 2)]))
    big = (np.repeat(rng.uniform(2.0**1021, 2.0**1022, n), 2)[:n]
           * np.resize([1.0, 2.0**-20 - 1], n))   # pairs that nearly cancel
    with_at = lambda v: np.concatenate([[v], wide[1:]])
    return np.array([
        wide,
        rng.integers(-(1 << 52), 1 << 52, n) * 5e-324,     # subnormals
        tie,
        with_at(NAN), with_at(INF), with_at(-INF),
        np.full(n, -0.0),
        half,                                   # cancels exactly
        big,                                    # near 2^1023: fsum's overflow rule
    ])


@pytest.mark.parametrize("n", [1, 1023, 1024, 1025])
@pytest.mark.parametrize("chunk", [phases._CHUNK, 300])
def test_row_sums_match_fsum_row_by_row(n, chunk, monkeypatch):
    x = special_rows(n, np.random.default_rng(n))
    want = [math.fsum(r).hex() for r in x.tolist()]
    summed = []

    def fsum(values):
        summed.append(values)
        return math.fsum(values)

    monkeypatch.setattr(phases, "_CHUNK", chunk)
    monkeypatch.setattr(phases, "math", SimpleNamespace(fsum=fsum))
    assert [s.hex() for s in phases._row_sums(x)] == want
    if n >= phases._ROW_BELOW:
        rows = [tuple(map(float.hex, r)) for r in x.tolist()]
        summed = {tuple(map(float.hex, v)) for v in summed}
        assert [r for r in rows if r in summed] == rows[3:]
