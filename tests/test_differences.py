import cmath
import math
import random
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import make_poly, modified_diff, nested_frequencies_per_chain
from waring import acceptance
from waring import differences as df
from waring.bound_engine import theta_schedule
from waring.errors import BudgetError, DomainError

X3 = df.IntPolynomial.x_power(3)
X2 = df.IntPolynomial.x_power(2)
PRIMES_TO_101 = [p for p in range(2, 102)
                 if all(p % d for d in range(2, math.isqrt(p) + 1))]


# The shift / subtract / exact-divide route that modified_diff replaced,
# kept as the oracle for its one-pass formula.
def shift(phi, t):
    """phi(x + t), expanded exactly."""
    out = [0] * len(phi.coeffs)
    for j, c in enumerate(phi.coeffs):
        if c == 0:
            continue
        term = 1  # binomial(j, i) * t^(j - i), built from i = j downward
        for i in range(j, -1, -1):
            out[i] += c * term
            if i:
                term = term * t * i // (j - i + 1)
    return make_poly(out)


def subtract(a, b):
    n = max(len(a.coeffs), len(b.coeffs))
    xs = list(a.coeffs) + [0] * (n - len(a.coeffs))
    ys = list(b.coeffs) + [0] * (n - len(b.coeffs))
    return make_poly(x - y for x, y in zip(xs, ys))


def divide_exact(phi, m):
    out = []
    for c in phi.coeffs:
        q, r = divmod(c, m)
        assert r == 0, f"coefficient {c} not divisible by {m}"
        out.append(q)
    return make_poly(out)


def oracle_modified_diff(phi, h, m):
    return divide_exact(subtract(shift(phi, h * m), phi), m)


def nested_difference(k, hs, ms, x):
    """sum over S of (-1)^(i-|S|) (x + sum_{j in S} h_j m_j)^k: the i-fold
    difference of x^k with steps h_j m_j, written from its definition."""
    i = len(hs)
    acc = 0
    for r in range(i + 1):
        for subset in combinations(range(i), r):
            step = sum(hs[j] * ms[j] for j in subset)
            acc += (-1) ** (i - r) * (x + step) ** k
    return acc


class TestIntPolynomial:
    def test_shift_expansion(self):
        assert shift(X3, 2).coeffs == (8, 12, 6, 1)

    def test_zero_degree_sentinel(self):
        zero = modified_diff(df.IntPolynomial.x_power(0), 1, 1)
        assert zero.degree == -1
        assert zero.coeffs == ()

    def test_evaluate_horner(self):
        p = make_poly([64, 24, 3])
        assert p.evaluate(10) == 64 + 240 + 300

    def test_serialize_round_trip(self):
        p = make_poly([64, 24, 3])
        assert p.serialize() == "64 24 3"

    @pytest.mark.parametrize("coeffs", [[1.5, 2.7], [1, 2.0], [3, "4"]])
    def test_make_refuses_non_integral_coefficients(self, coeffs):
        with pytest.raises(DomainError):
            make_poly(coeffs)

    def test_make_keeps_integer_types_exact(self):
        p = make_poly([np.int64(3), 1 << 70, 0])
        assert p.coeffs == (3, 1 << 70)
        assert all(type(c) is int for c in p.coeffs)


class TestForwardDiff:
    """The forward difference phi(x + t) - phi(x) is modified_diff with m = 1."""

    def test_square_step_one(self):
        assert modified_diff(X2, 1, 1).coeffs == (1, 2)

    def test_cube_twice(self):
        once = modified_diff(X3, 1, 1)
        twice = modified_diff(once, 1, 1)
        assert twice.coeffs == (6, 6)

    def test_constant_vanishes(self):
        c = make_poly([17])
        assert modified_diff(c, 5, 1).degree == -1

    def test_degree_drops_by_one(self):
        rng = random.Random(1)
        for _ in range(20):
            deg = rng.randint(1, 7)
            coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)]
            phi = make_poly(coeffs)
            t = rng.randint(1, 5)
            assert modified_diff(phi, t, 1).degree == phi.degree - 1


class TestModifiedDiff:
    def test_cube_mod_8(self):
        assert modified_diff(X3, 1, 8).coeffs == (64, 24, 3)

    def test_square_mod_3(self):
        assert modified_diff(X2, 2, 3).coeffs == (12, 4)

    def test_unit_modulus_matches_forward(self):
        for k in (2, 3, 5):
            xk = df.IntPolynomial.x_power(k)
            assert modified_diff(xk, 1, 1) == subtract(shift(xk, 1), xk)

    def test_divisibility_never_fails_on_power_sweep(self):
        rng = random.Random(5)
        for _ in range(200):
            k = rng.randint(1, 6)
            h = rng.randint(1, 5)
            m = rng.randint(1, 3**k)
            modified_diff(df.IntPolynomial.x_power(k), h, m)  # must not raise

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=9),
           st.integers(1, 5), st.integers(1, 50))
    def test_matches_shift_subtract_divide(self, coeffs, h, m):
        phi = make_poly(coeffs)
        assert modified_diff(phi, h, m) == oracle_modified_diff(phi, h, m)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_matches_oracle_on_criterion_10_chains(self, seed, monkeypatch):
        # psi is the one-chain call of psi_chains, so this records the pin,
        # the product cases and the random cases alike
        chains = []
        real_psi_chains = df.psi_chains

        def recording_psi_chains(k, steps):
            steps = list(steps)
            out = real_psi_chains(k, steps)
            chains.extend((k, h, p, cs) for (h, p), cs in zip(steps, out))
            return out

        monkeypatch.setattr(df, "psi_chains", recording_psi_chains)
        assert acceptance.criterion_10(seed=seed).passed
        assert len(chains) == 5614
        for k, h, p, cs in chains:
            poly = df.IntPolynomial.x_power(k)
            for hj, pj in zip(h, p):
                poly = oracle_modified_diff(poly, hj, pj**k)
            assert cs == poly.coeffs, (k, h, p)

    def test_commutation(self):
        rng = random.Random(9)
        for _ in range(30):
            k = rng.randint(2, 6)
            xk = df.IntPolynomial.x_power(k)
            h1, h2 = rng.randint(1, 4), rng.randint(1, 4)
            m1, m2 = rng.randint(1, 20), rng.randint(1, 20)
            a = modified_diff(modified_diff(xk, h1, m1), h2, m2)
            b = modified_diff(modified_diff(xk, h2, m2), h1, m1)
            assert a == b


class TestPsi:
    def test_first_level_pinned(self):
        chain = df.psi(3, [1], [2])
        assert chain.result.coeffs == (64, 24, 3)
        assert chain.moduli == (8,)

    def test_second_level(self):
        chain = df.psi(3, [1, 1], [2, 2])
        assert chain.result.degree == 1
        assert chain.result.leading == 6

    def test_full_depth_constant(self):
        chain = df.psi(4, [1, 2, 1, 3], [2, 3, 2, 5])
        assert chain.result.degree == 0

    def test_degree_and_leading_laws(self):
        rng = random.Random(13)
        for k in range(1, 9):
            for i in range(1, k + 1):
                h = tuple(rng.randint(1, 3) for _ in range(i))
                p = tuple(rng.choice([2, 3, 5]) for _ in range(i))
                chain = df.psi(k, h, p)
                assert chain.result.degree == k - i
                assert chain.result.leading == (
                    math.prod(range(k - i + 1, k + 1)) * math.prod(h))

    def test_errors(self):
        with pytest.raises(DomainError):
            df.psi(3, [1, 1], [2])
        with pytest.raises(DomainError):
            df.psi(3, [1], [4])
        with pytest.raises(DomainError):
            df.psi(2, [1, 1, 1], [2, 2, 2])
        # non-integers are refused, not truncated
        with pytest.raises(DomainError, match="1.5"):
            df.psi(3, [1.5], [2])
        with pytest.raises(DomainError, match="2.0"):
            df.psi(2.0, [1], [2])
        with pytest.raises(DomainError, match="8.0"):
            modified_diff(X3, 1, 8.0)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_literal_nested_difference(self, data):
        k = data.draw(st.integers(1, 14))
        i = data.draw(st.integers(0, k))
        h = data.draw(st.lists(st.integers(1, 50), min_size=i, max_size=i))
        p = data.draw(st.lists(st.sampled_from(PRIMES_TO_101),
                               min_size=i, max_size=i))
        x = data.draw(st.integers(-10**4, 10**4))
        ms = [v**k for v in p]
        lhs = df.psi(k, h, p).result.evaluate(x) * math.prod(ms)
        assert lhs == nested_difference(k, h, ms, x)


class TestPsiChains:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_one_chain_psi(self, data):
        k = data.draw(st.integers(1, 12))
        i = data.draw(st.integers(1, min(k, 4)))
        hs = data.draw(st.lists(
            st.lists(st.integers(1, 5), min_size=1, max_size=3, unique=True),
            min_size=i, max_size=i))
        wins = data.draw(st.lists(
            st.lists(st.sampled_from(PRIMES_TO_101), min_size=1, max_size=3,
                     unique=True), min_size=i, max_size=i))
        got = df.psi_chains(k, product(product(*hs), product(*wins)))
        want = [df.psi(k, h, p) for h in product(*hs) for p in product(*wins)]
        assert got == [chain.result.coeffs for chain in want]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_explicit_chains_match_one_chain_psi(self, data):
        # shuffled, repeated and of mixed lengths 0..k: the walk sorts its
        # keys, so input order, duplicates and shared prefixes all matter
        k = data.draw(st.integers(1, 9))
        step = st.tuples(st.integers(1, 4), st.sampled_from([2, 3, 5, 7]))
        chains = data.draw(st.lists(
            st.lists(step, max_size=k).map(lambda c: (tuple(h for h, _ in c),
                                                      tuple(p for _, p in c))),
            max_size=20))
        chains += data.draw(st.lists(st.sampled_from(chains), max_size=10)
                            if chains else st.just([]))
        chains = data.draw(st.permutations(chains))
        got = df.psi_chains(k, chains)
        assert got == [df.psi(k, h, p).result.coeffs for h, p in chains]

    @pytest.mark.parametrize("q,k,H,wins,xr", [
        (1, 1, [1], [(2,)], 1),
        (2, 3, [2, 3], [(2, 3), (5,)], 4),
        (3, 4, [2, 1, 2], [(2, 5), (3,), (7, 2)], 3),
        (1, 6, [3, 2, 2, 1], [(2, 3), (5, 7), (11,), (2, 13)], 2),
        (5, 9, [1, 2], [(97, 101), (2, 3, 5)], 5)])
    def test_nested_frequencies_match_per_chain_loop(self, q, k, H, wins, xr):
        assert df.nested_frequencies(q, k, H, wins, xr) == \
            nested_frequencies_per_chain(df.psi, q, k, H, wins, xr)

    @pytest.mark.parametrize("q,H,x_range,text", [
        (2.5, [2], 2, "2.5 is not an integer"),
        (3, [2.0], 2, "2.0 is not an integer"),
        (3, [2], 2.0, "2.0 is not an integer"),
        (3, [2], 0, "all ranges must be nonempty")],
        ids=["float-q", "float-H", "float-x-range", "empty-x-range"])
    def test_nested_frequencies_checks_its_arguments(self, q, H, x_range, text):
        with pytest.raises(DomainError, match=text):
            df.nested_frequencies(q, 3, H, [(2,)], x_range)

    def _count_diffs(self, monkeypatch):
        calls = []
        real_diff = df._diff

        def counting_diff(cs, h, t):
            calls.append(None)
            return real_diff(cs, h, t)

        monkeypatch.setattr(df, "_diff", counting_diff)
        return calls

    def test_criterion_10_diff_calls(self, monkeypatch):
        # 11,915 with one psi call per chain and 8,999 when each (k, i)
        # shared its ordered prefixes; one sorted walk per k differences
        # each distinct multiset prefix once
        calls = self._count_diffs(monkeypatch)
        assert acceptance.criterion_10(seed=0).passed
        assert len(calls) == 2602

    def test_equal_calls_make_equal_diffs(self, monkeypatch):
        # nothing is cached across calls, so criterion 14's rerun is fresh
        calls = self._count_diffs(monkeypatch)
        chains = list(product(product([1, 2], repeat=3), product([2, 3], repeat=3)))
        counts = []
        for _ in range(2):
            first = len(calls)
            df.psi_chains(5, chains)
            counts.append(len(calls) - first)
        assert counts[0] == counts[1] == 4 + 10 + 20

    def test_numpy_ints_are_taken_exactly(self):
        # 101**12 passes 2**63: numpy scalars must become Python ints first
        chains = [((np.int64(2), 1), (np.int64(101), 5)), ((1,), (2,))]
        assert df.psi_chains(12, chains) == df.psi_chains(12, [((2, 1), (101, 5)),
                                                               ((1,), (2,))])

    def test_criterion_10_peak_memory(self):
        # one sorted walk per k holds only that k's chains, keys and
        # distinct results; a dict kept for every trie node peaks near
        # 0.83 MiB
        acceptance.criterion_10(seed=0)   # fill the binomial cache first
        tracemalloc.start()
        try:
            assert acceptance.criterion_10(seed=0).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.75 * 2**20

    @pytest.mark.parametrize("k,h,p,text", [
        (3.0, [1], [2], "3.0 is not an integer"),
        (3, [1.5], [2], "1.5 is not an integer"),
        (3, [1], [2.0], "2.0 is not an integer"),
        (3, [0], [2], "step h=0 must be positive"),
        (3, [1], [4], "4 is not prime"),
        (3, [1, 1], [2], "|h|=2 and |p|=1 must match"),
        (2, [1, 1, 1], [2, 2, 2], "need 0 <= i <= k, got i=3, k=2"),
        (0, [], [], "need 0 <= i <= k, got i=0, k=0"),
        (0, [1, 1], [2], "|h|=2 and |p|=1 must match"),
        (3, [1], [4.0], "4.0 is not an integer"),
        (3, [0, -1], [2, 2], "step h=0 must be positive"),
        (3, [0], [4], "step h=0 must be positive"),
        (3, [1, 2], [9, 4], "9 is not prime")],
        ids=["float_k", "float_h", "float_p", "h_zero", "non_prime",
             "lengths", "depth", "k_zero", "lengths_before_depth",
             "ints_before_primes", "first_step", "steps_before_primes",
             "first_prime"])
    def test_refuses_what_psi_refuses(self, k, h, p, text):
        # the messages psi gave when it checked each chain itself, in its
        # order when a chain is wrong in two ways
        for call in (lambda: df.psi(k, h, p),
                     lambda: df.psi_chains(k, [(h, p)])):
            with pytest.raises(DomainError) as exc:
                call()
            assert str(exc.value) == text

    @pytest.mark.parametrize("k,chains,text", [
        (0, [], "need 0 <= i <= k, got i=0, k=0"),
        (3, [((1,), (2,)), ((1, 1), (2, 3), (5,))],
         "a chain is a pair (h, p), got ((1, 1), (2, 3), (5,))"),
        (3, [((1,),)], "a chain is a pair (h, p), got ((1,),)"),
        (3, [5], "a chain is a pair (h, p), got 5"),
        (3, [((1,), (2,)), ((1,), (4,)), ((0,), (2,))],
         "step h=0 must be positive"),
        (3, [((1,), (6,)), ((1, 2), (4,))], "|h|=2 and |p|=1 must match")],
        ids=["no_chains", "three_items", "one_item", "not_a_pair",
             "steps_before_primes", "lengths_before_primes"])
    def test_refuses_malformed_chains(self, k, chains, text):
        # every chain is checked as psi checks it; primes come last, once
        with pytest.raises(DomainError) as exc:
            df.psi_chains(k, chains)
        assert str(exc.value) == text

    @pytest.mark.parametrize("k,H,wins,x_range,text", [
        (3, [1], [(2,), ()], 2, "|h|=1 and |p|=2 must match"),
        (1, [1, 1], [(2,), ()], 2, "need 0 <= i <= k, got i=2, k=1"),
        (0, [], [], 2, "need 0 <= i <= k, got i=0, k=0"),
        (3, [0], [()], 2, "all ranges must be nonempty"),
        (3, [2, 0], [(9,), (4,)], 1, "step h=0 must be positive"),
        (3, [1], [(4, 6)], 0, "4 is not prime"),
        (3, [], [], 0, "need at least one difference level")],
        ids=["lengths", "depth", "k_zero", "empty_window", "step", "prime",
             "levels"])
    def test_ranges_refused_in_psi_order(self, k, H, wins, x_range, text):
        # each input is wrong in two ways; the first check psi makes names it
        for call in (df.nested_frequencies, df.nested_ranges):
            with pytest.raises(DomainError) as exc:
                call(2, k, H, wins, x_range)
            assert str(exc.value) == text

    @pytest.mark.parametrize("hs,wins", [([1], [()]), ([1, 1], [(2,), ()]),
                                         ([2, 3], [(), (5,)])])
    def test_empty_range_refused(self, hs, wins):
        # explicit chains have no ranges; the prime windows still do
        for call in (df.nested_frequencies, df.nested_ranges):
            with pytest.raises(DomainError, match="all ranges must be nonempty"):
                call(2, 3, hs, wins, 2)

    def test_one_is_prime_per_distinct_prime(self, monkeypatch):
        seen = []
        real_is_prime = df.is_prime

        def counting_is_prime(n):
            seen.append(n)
            return real_is_prime(n)

        monkeypatch.setattr(df, "is_prime", counting_is_prime)
        chains = df.psi_chains(4, product(product([1, 2], [1, 3], [2]),
                                          product([2, 3], [3, 5, 2], [5, 7])))
        assert len(chains) == 2 * 2 * 1 * 2 * 3 * 2
        assert sorted(seen) == [2, 3, 5, 7]
        # nested_ranges checks the windows, and its chains are not checked again
        seen.clear()
        df.nested_frequencies(2, 4, [2, 3, 1], [(2, 3), (3, 5, 2), (5, 7)], 2)
        assert sorted(seen) == [2, 3, 5, 7]


def oracle_nested_sum(alpha, q, k, H, windows, x_range):
    """Inclusion-exclusion evaluation of the nested difference sum, written
    against the recursive definition rather than polynomial algebra.  Phases
    are reduced mod 1 through Fractions to keep the reference exact."""
    from fractions import Fraction

    total = 0j
    qk = q**k
    frac_alpha = Fraction(alpha)
    for hs in product(*(range(1, b + 1) for b in H)):
        for ps in product(*windows):
            ms = [p**k for p in ps]
            denom = math.prod(ms)
            for x in range(1, x_range + 1):
                acc = nested_difference(k, hs, ms, x)
                assert acc % denom == 0
                phase = (qk * (acc // denom) * frac_alpha) % 1
                total += cmath.exp(2j * cmath.pi * float(phase))
    return total


class TestFiSum:
    def test_alpha_zero_counts_terms(self):
        val = df.f_i_sum(0.0, 2, 3, [2, 3], [(2, 3), (5,)], 4)
        assert val == pytest.approx(2 * 3 * 2 * 1 * 4)

    @pytest.mark.parametrize("alpha", [0.125, 0.3330078125, 0.7])
    def test_matches_inclusion_exclusion_oracle(self, alpha):
        H, wins, xr = [2], [(2, 3)], 5
        fast = df.f_i_sum(alpha, 3, 3, H, wins, xr)
        slow = oracle_nested_sum(alpha, 3, 3, H, wins, xr)
        assert abs(fast - slow) < 1e-9

    def test_two_level_oracle(self):
        H, wins, xr = [2, 2], [(2,), (3, 5)], 3
        fast = df.f_i_sum(0.1953125, 2, 4, H, wins, xr)
        slow = oracle_nested_sum(0.1953125, 2, 4, H, wins, xr)
        assert abs(fast - slow) < 1e-9

    def test_triangle_inequality(self):
        val = df.f_i_sum(0.372, 2, 3, [3], [(2, 3, 5)], 6)
        assert abs(val) <= 3 * 3 * 6 + 1e-9

    def test_budget(self):
        with pytest.raises(BudgetError):
            df.f_i_sum(0.1, 2, 3, [100, 100], [(2,), (3,)], 100, budget=10**4)

    def test_range_validation(self):
        with pytest.raises(DomainError):
            df.f_i_sum(0.1, 2, 3, [2], [(2,), (3,)], 4)
        with pytest.raises(DomainError):
            df.f_i_sum(0.1, 2, 3, [2], [()], 4)
        with pytest.raises(DomainError):
            df.f_i_sum(0.1, 2, 3, [], [], 4)
        with pytest.raises(DomainError):
            df.f_i_sum(0.1, 2, 3, [0], [(2,)], 4)
        with pytest.raises(DomainError):
            df.f_i_sum(0.1, 2, 3, [2], [(2,)], 0)
        with pytest.raises(DomainError, match="2.5"):
            df.f_i_sum(0.1, 2, 3, [2], [(2,)], 2.5)

    @pytest.mark.parametrize("q,text", [(2.5, "2.5 is not an integer"),
                                        (0, "q must be positive, got 0"),
                                        (-2, "q must be positive, got -2")],
                             ids=["float", "zero", "negative"])
    def test_q_validation(self, q, text):
        # the check DifferenceSum runs when it is built, with its message
        with pytest.raises(DomainError, match=text):
            df.f_i_sum(0.1, q, 3, [2], [(2,)], 3)


class TestLemma7:
    def geometry(self, k, delta, P=1e6):
        sched = theta_schedule(k, delta)
        return df.BalanceGeometry.from_thetas(k, P, sched.thetas)

    def test_balanced_schedule_residual_vanishes(self):
        for k, s, delta in [(3, 3, 1.0), (4, 3, 1.5), (5, 4, 0.7)]:
            geom = self.geometry(k, delta)
            counts = df.model_counts(geom, s, delta)
            for i in range(0, k):
                terms = df.lemma7_terms(i, counts, geom)
                assert terms.residual < 1e-9, (k, s, delta, i)

    def test_perturbed_theta_breaks_balance(self):
        k, s, delta = 4, 3, 1.5
        sched = theta_schedule(k, delta)
        thetas = list(sched.thetas)
        thetas[2] *= 1.1
        geom = df.BalanceGeometry.from_thetas(k, 1e6, thetas)
        counts = df.model_counts(geom, s, delta)
        assert df.lemma7_terms(1, counts, geom).residual > 0.01

    def test_endpoint_reduces_to_unit_step_count(self):
        # at i = k-1 the balance forces H_k = 1, i.e. theta_k = 1/k
        k, s, delta = 5, 4, 0.7
        geom = self.geometry(k, delta)
        assert geom.H[-1] == pytest.approx(1.0, rel=1e-12)
        counts = df.model_counts(geom, s, delta)
        assert df.lemma7_terms(k - 1, counts, geom).residual < 1e-9

    def test_measured_counts_accepted(self):
        # counts that do not come from the power-law model
        geom = self.geometry(3, 1.0, P=1e4)
        counts = df.BalanceCounts(
            s=3, log_S=tuple(math.log(v) for v in (10, 20, 40, 80)))
        terms = df.lemma7_terms(0, counts, geom)
        assert terms.U > 0 and terms.V > 0

    def test_missing_inputs(self):
        geom = self.geometry(3, 1.0)
        bad = df.BalanceCounts(s=3, log_S=(0.0, 1.0))
        with pytest.raises(DomainError):
            df.lemma7_terms(0, bad, geom)
        counts = df.model_counts(geom, 3, 1.0)
        with pytest.raises(DomainError):
            df.lemma7_terms(3, counts, geom)
