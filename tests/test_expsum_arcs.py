import cmath
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import brute_force_s_count, classify_exact
from waring import aux_count as ac
from waring import expsum_arcs as ea
from waring.errors import BudgetError, DomainError


class TestEval:
    def test_all_terms_at_zero(self):
        assert ea.eval_at(ea.FullInterval(P=7, k=3), 0.0) == 7 + 0j

    def test_alternating_squares(self):
        # e(x^2/2) = (-1)^x, four terms cancel
        val = ea.eval_at(ea.FullInterval(P=4, k=2), 0.5)
        assert abs(val) < 1e-12

    def test_periodicity_exact_on_dyadics(self):
        rng = random.Random(2)
        spec = ea.FullInterval(P=40, k=3)
        for _ in range(20):
            a = rng.randrange(1 << 40) / (1 << 40)
            assert ea.eval_at(spec, a) == ea.eval_at(spec, a + 1.0)

    def test_periodicity_general(self):
        # snap to a grid where a + 1 is representable, so the shifted input
        # is the same real number; the values then agree far inside 1e-12
        spec = ea.FullInterval(P=25, k=3)
        for raw in (0.1234567, 0.777215, 0.9301):
            a = round(raw * (1 << 44)) / (1 << 44)
            assert abs(ea.eval_at(spec, a) - ea.eval_at(spec, a + 1)) < 1e-12

    def test_conjugate_symmetry(self):
        spec = ea.FullInterval(P=30, k=3)
        for a in (0.21376, 0.5881, 0.90625):
            lhs = ea.eval_at(spec, -a)
            rhs = ea.eval_at(spec, a).conjugate()
            assert abs(lhs - rhs) < 1e-12

    def test_triangle_bound(self):
        rng = random.Random(4)
        spec = ea.PrimeSmooth(k=4, P=100.0, primes=(3,),
                              elements=tuple(range(3, 40, 2)))
        n = ea.term_count(spec)
        for _ in range(10):
            assert abs(ea.eval_at(spec, rng.random())) <= n + 1e-9

    def test_single_prime_scaling(self):
        base = ea.FullInterval(P=5, k=3)
        scaled = ea.PrimeSmooth(k=3, P=100.0, primes=(7,), elements=(1, 2, 3, 4, 5))
        a = 0.125 / 343
        assert ea.eval_at(scaled, a) == pytest.approx(
            ea.eval_at(base, 0.125), abs=1e-9)

    def test_brute_force_agreement(self):
        spec = ea.FullInterval(P=12, k=3)
        a = 0.37158203125
        brute = sum(cmath.exp(2j * cmath.pi * ((x**3 * Fraction(a)) % 1))
                    for x in range(1, 13))
        assert abs(ea.eval_at(spec, a) - brute) < 1e-12


    # the 73,000-term sum of the moments benchmark, pinned by float.hex
    # before its cos/sin sums moved to phases.exact_sum; the last alpha
    # has 2^e > 2^64 and takes the big-integer loop
    @pytest.mark.parametrize("alpha,real,imag", [
        (0.1, "-0x1.09bf3a3999f34p+5", "0x1.8e5042de9d5a9p-1"),
        (0.37158203125, "0x1.1b908a986a9e6p+12", "-0x1.db5961b4fd850p+5"),
        (0.7071067811865476, "-0x1.a8a7ee003ea2fp+8", "0x1.5905d8ef4ef11p+5"),
        (0.9999, "0x1.17287fcc94f66p+8", "0x1.0509c85a7d02ep+8"),
        (2.0**-20 * 0.3, "-0x1.1ce62631cc359p+7", "-0x1.630950258a852p+8"),
    ])
    def test_prime_smooth_sum_bytes_pinned(self, alpha, real, imag):
        val = ea.eval_at(ea.PrimeSmooth.make(3, 1e6), alpha)
        assert (val.real.hex(), val.imag.hex()) == (real, imag)


class TestSpecs:
    def test_frequencies_full(self):
        assert ea.frequencies(ea.FullInterval(P=4, k=2)).tolist() == [1, 4, 9, 16]
        assert ea.max_frequency(ea.FullInterval(P=4, k=2)) == 16

    def test_prime_smooth_window(self):
        ps = ea.PrimeSmooth.make(3, 100.0)
        # X = 10, primes in (5, 10]
        assert ps.primes == (7,)
        assert ps.elements == tuple(range(1, 11))
        assert ea.max_frequency(ps) == (7 * 10) ** 3

    def test_prime_smooth_at_zero(self):
        ps = ea.PrimeSmooth.make(3, 400.0)
        val = ea.eval_at(ps, 0.0)
        assert val.real == pytest.approx(len(ps.primes) * len(ps.elements))
        assert ea.term_count(ps) == len(ps.primes) * len(ps.elements)

    def test_prime_smooth_too_small(self):
        with pytest.raises(DomainError):
            ea.PrimeSmooth.make(3, 2.0)

    def test_difference_sum_matches_module(self):
        from waring import differences as df
        spec = ea.DifferenceSum(q=3, k=3, H=(2,), windows=((2, 3),), x_range=5)
        a = 0.333984375
        direct = df.f_i_sum(a, 3, 3, [2], [(2, 3)], 5)
        assert ea.eval_at(spec, a) == direct
        assert ea.term_count(spec) == 2 * 2 * 5

    def test_difference_max_frequency_is_max(self):
        spec = ea.DifferenceSum(q=2, k=3, H=(2, 2), windows=((2,), (3, 5)),
                                x_range=4)
        freqs = ea.frequencies(spec)
        assert ea.max_frequency(spec) == max(freqs)

    @pytest.mark.parametrize("spec", [
        ea.PrimeSmooth(k=2, P=100.0, primes=(3,), elements=(-5, 1)),
        ea.PrimeSmooth(k=3, P=100.0, primes=(2,), elements=(-5, -1)),
        ea.PrimeSmooth(k=3, P=100.0, primes=(5,), elements=(-4, 3)),
        ea.PrimeSmooth(k=3, P=100.0, primes=(7,), elements=(-10, -2, 3))])
    def test_max_frequency_of_mixed_signs(self, spec):
        assert ea.max_frequency(spec) == max(map(abs, ea.frequencies(spec)))

    def test_empty_set_rejected(self):
        with pytest.raises(DomainError):
            ea.frequencies(ea.PrimeSmooth(k=3, P=100.0, primes=(), elements=()))

    # each spec kind, and unsorted signed sets times one prime, against its
    # frequencies written out by hand, in order
    @pytest.mark.parametrize("spec,freqs", [
        (ea.FullInterval(P=4, k=3), [x**3 for x in range(1, 5)]),
        (ea.PrimeSmooth(k=3, P=100.0, primes=(2,), elements=(-3, 2, -1)),
         [-216, 64, -8]),
        (ea.PrimeSmooth(k=2, P=100.0, primes=(3,), elements=(-5, 1)), [225, 9]),
        (ea.PrimeSmooth(k=3, P=100.0, primes=(5,), elements=(-4, 3)),
         [5**3 * x**3 for x in (-4, 3)]),
        (ea.PrimeSmooth(k=3, P=100.0, primes=(5, 7), elements=(-2, 1, 3)),
         [p**3 * x**3 for p in (5, 7) for x in (-2, 1, 3)]),
        (ea.DifferenceSum(q=2, k=3, H=(2,), windows=((2, 3),), x_range=3),
         [2**3 * (((x + h * p**3)**3 - x**3) // p**3)
          for h in (1, 2) for p in (2, 3) for x in (1, 2, 3)]),
    ], ids=["full", "set", "set_k2", "single_prime", "prime_smooth", "difference"])
    def test_frequency_table(self, spec, freqs):
        assert ea.frequencies(spec).tolist() == freqs
        assert ea.term_count(spec) == len(ea.frequencies(spec))
        assert ea.max_frequency(spec) == max(map(abs, ea.frequencies(spec)))

    # below 2^63 the table is one int64 outer product raised to the k-th
    # power; at the edge the largest |p x| is 2^21 - 1 = 7 * 299593
    @pytest.mark.parametrize("spec", [
        ea.PrimeSmooth.make(3, 1e6),
        ea.PrimeSmooth(k=5, P=100.0, primes=(2,), elements=(-9, -4, 0, 3, 7)),
        ea.PrimeSmooth(k=3, P=100.0, primes=(7,),
                       elements=(-299593, -2, 299593)),
        ea.PrimeSmooth(k=3, P=100.0, primes=(3,), elements=(-(2**19), 3)),
    ], ids=["prime_smooth", "negatives", "int64_edge", "single_prime"])
    def test_int64_table_equals_tuple_build(self, spec):
        ms, xs = ea._product_form(spec)
        want = np.array(tuple((m * x)**spec.k for m in ms for x in xs))
        got = ea.frequencies(spec)
        assert got.dtype == want.dtype == np.int64
        assert not got.flags.writeable
        assert np.array_equal(got, want)

    def test_past_int64_stays_a_tuple(self):
        spec = ea.PrimeSmooth(k=3, P=100.0, primes=(2,), elements=(-3, 2**20))
        assert ea.max_frequency(spec) == 2**63
        assert ea.frequencies(spec) == (-216, 2**63)

    @pytest.mark.parametrize("make", [
        lambda: ea.FullInterval(P=0, k=3),
        lambda: ea.FullInterval(P=5, k=2.0),
        lambda: ea.FullInterval(P=5, k=-1),
        lambda: ea.FullInterval(P=5, k=0),
        lambda: ea.FullInterval(P=2.5, k=3),
        lambda: ea.PrimeSmooth(k=2.5, P=100.0, primes=(7,), elements=(1, 2)),
        lambda: ea.PrimeSmooth(k=2, P=100.0, primes=(), elements=()),
        lambda: ea.PrimeSmooth(k=2, P=100.0, primes=(3,), elements=()),
        lambda: ea.PrimeSmooth(k=3, P=100.0, primes=(), elements=(1, 2)),
        lambda: ea.PrimeSmooth(k=3, P=100.0, primes=(7,), elements=()),
        lambda: ("not", "a spec"),
        lambda: ea.DifferenceSum(q=2, k=3, H=(), windows=(), x_range=3),
        lambda: ea.DifferenceSum(q=2, k=3, H=(0,), windows=((2,),), x_range=3),
        lambda: ea.DifferenceSum(q=2, k=3, H=(2,), windows=((),), x_range=3),
        lambda: ea.DifferenceSum(q=2, k=3, H=(2,), windows=((2,), (3,)),
                                 x_range=3),
        lambda: ea.DifferenceSum(q=2, k=3, H=(2,), windows=((2,),), x_range=0),
        lambda: ea.DifferenceSum(q=2, k=3, H=(2,), windows=((4,),), x_range=3),
        lambda: ea.DifferenceSum(q=2, k=2, H=(1, 1, 1),
                                 windows=((2,), (3,), (5,)), x_range=3),
        lambda: ea.DifferenceSum(q=2, k=3, H=(2.9,), windows=((2.5,),),
                                 x_range=3),
        lambda: ea.DifferenceSum(q=2, k=3, H=(2,), windows=((2,),),
                                 x_range=2.5),
        lambda: ea.DifferenceSum(q=2, k=3.0, H=(2,), windows=((2,),),
                                 x_range=3),
        lambda: ea.DifferenceSum(q=2.5, k=3, H=(2,), windows=((2,),),
                                 x_range=3),
        lambda: ea.DifferenceSum(q=0, k=3, H=(2,), windows=((2,),), x_range=3),
        lambda: ea.DifferenceSum(q=-2, k=3, H=(2,), windows=((2,),),
                                 x_range=3),
    ], ids=["full_P0", "full_float_k", "full_negative_k", "full_zero_k",
            "full_float_P", "prime_smooth_float_k", "set_empty",
            "single_prime_empty", "no_primes",
            "no_elements", "unknown", "diff_no_level", "diff_zero_step",
            "diff_empty_window", "diff_unequal_lengths", "diff_x_range_0",
            "diff_not_prime", "diff_more_than_k_levels", "diff_float_step",
            "diff_float_x_range", "diff_float_k", "diff_float_q",
            "diff_zero_q", "diff_negative_q"])
    @pytest.mark.parametrize("entry", [
        ea.frequencies, ea.term_count, ea.max_frequency,
        lambda spec: ea.eval_at(spec, 0.25),
        lambda spec: ea.exact_moment(ea.abs_power(spec, 2)),
    ], ids=["frequencies", "term_count", "max_frequency", "eval_at",
            "exact_moment"])
    def test_empty_or_malformed_spec_rejected(self, make, entry):
        with pytest.raises(DomainError):
            entry(make())


class TestClassify:
    def setup_method(self):
        self.d = ea.ArcDissection.make(10, 3)

    def brute(self, alpha, qmax, radius):
        best = None
        for q in range(1, qmax + 1):
            a = round(alpha * q)
            if not 1 <= a <= q or math.gcd(a, q) != 1:
                continue
            if abs(alpha - a / q) <= radius(q) and (best is None or q < best[0]):
                best = (q, a)
        return best

    def test_exact_rational_center(self):
        assert ea.classify(0.5, self.d) == ea.Major(q=2, a=1)

    def test_golden_ratio_minor(self):
        assert ea.classify((math.sqrt(5) - 1) / 2, self.d) is None

    def test_agrees_with_direct_scan(self):
        rng = random.Random(6)
        tau = self.d.tau
        for _ in range(300):
            alpha = 1 / tau + rng.random()
            got = ea.classify(alpha, self.d)
            want = self.brute(alpha, 10, lambda q: 1 / (q * tau))
            assert got == (ea.Major(*want) if want else None)

    def test_label_satisfies_inequality(self):
        rng = random.Random(12)
        for _ in range(100):
            alpha = self.d.interval[0] + rng.random()
            label = ea.classify(alpha, self.d)
            if label:
                assert abs(alpha - label.a / label.q) <= 1 / (label.q * self.d.tau) * (1 + 1e-12)

    def test_outside_interval(self):
        with pytest.raises(DomainError):
            ea.classify(-0.5, self.d)

    def test_covered_arc_edge(self):
        # inside the arc of 17/18 exactly, outside it after float rounding
        d = ea.ArcDissection.make(50, 3)
        assert ea.classify(0.9444481481481481, d) == ea.Major(q=18, a=17)

    def test_arcs_are_closed(self):
        # tau = 32: for q a power of two, a/q +- 1/(q tau) is a double exactly
        d = ea.ArcDissection.make(8, 2)
        for q in (1, 2, 4, 8):
            for a in range(1, q + 1, 2):
                for alpha in (a / q - 1 / (q * 32), a / q + 1 / (q * 32)):
                    if d.interval[0] <= alpha <= d.interval[1]:
                        assert ea.classify(alpha, d) == ea.Major(q=q, a=a)
                        assert classify_exact(alpha, d) == (q, a)

    @pytest.mark.parametrize("P", [10, 12, 50, 200, 1000, 37.5])
    def test_matches_exact_oracle(self, P):
        d = ea.ArcDissection.make(P, 3)
        rng = random.Random(P)
        alphas = [d.interval[0] + rng.random() for _ in range(300)]
        for q in range(1, min(d.Q_major, 40) + 1):
            for a in (a for a in range(1, q + 1) if math.gcd(a, q) == 1):
                for s in (1, 0.999999, 1.0000001):
                    alphas += [a / q - s / (q * d.tau), a / q + s / (q * d.tau)]
        lo, hi = d.interval
        for alpha in alphas:
            if lo <= alpha <= hi:
                want = classify_exact(alpha, d)
                assert ea.classify(alpha, d) == (ea.Major(*want) if want else None)


class TestDissection:
    def test_tau_value(self):
        d = ea.ArcDissection.make(10, 3)
        assert d.tau == 600.0
        assert d.interval == (1 / 600, 1 + 1 / 600)

    def test_measure_additivity(self):
        d = ea.ArcDissection.make(10, 3)
        total = (sum(hi - lo for lo, hi in d.major_intervals())
                 + sum(hi - lo for lo, hi in d.minor_intervals()))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_raw_arc_dump_shape(self):
        d = ea.ArcDissection.make(10, 3)
        arcs = d.raw_major_arcs()
        assert len(arcs) == sum(1 for q in range(1, 11)
                                for a in range(1, q + 1) if math.gcd(a, q) == 1)
        for q, a, center, hw in arcs:
            assert center == a / q and hw == 1 / (q * d.tau)

    def test_domain(self):
        for P, k in ((10, 1), (10, 3.0), (1.5, 3), (math.nan, 3), (math.inf, 3)):
            with pytest.raises(DomainError):
                ea.ArcDissection.make(P, k)


class TestExactMoment:
    def test_parseval_small(self):
        m = ea.abs_power(ea.FullInterval(P=2, k=2), 2)
        assert ea.exact_moment(m) == pytest.approx(2.0, abs=1e-9)

    def test_fourth_moment(self):
        m = ea.abs_power(ea.FullInterval(P=3, k=2), 4)
        assert ea.exact_moment(m) == pytest.approx(15.0, abs=1e-6)

    def test_representation_count_with_target(self):
        m = ea.MomentSpec(
            factors=(ea.MomentFactor(ea.FullInterval(P=5, k=3), 1, False),),
            target=27)
        assert ea.exact_moment(m) == pytest.approx(1.0, abs=1e-9)

    def test_matches_s_count_master_oracle(self):
        for k, P, s in [(2, 3, 2), (3, 6, 2), (3, 4, 3), (2, 8, 2)]:
            S = ac.s_count(range(1, P + 1), s, k).S
            mom = ea.exact_moment(ea.abs_power(ea.FullInterval(P=P, k=k), 2 * s))
            assert abs(mom - S) < 1e-6

    @settings(max_examples=40, deadline=None)
    @given(P=st.integers(1, 12), k=st.integers(1, 4), s=st.integers(1, 3))
    def test_parseval_property(self, P, k, s):
        mom = ea.exact_moment(ea.abs_power(ea.FullInterval(P=P, k=k), 2 * s))
        assert round(mom) == ac.s_count(range(1, P + 1), s, k).S

    @settings(max_examples=40, deadline=None)
    @given(neg=st.sets(st.integers(-12, -1), min_size=1, max_size=3),
           rest=st.sets(st.integers(-12, 12), max_size=3),
           k=st.integers(1, 3), s=st.integers(1, 2))
    def test_negative_elements_property(self, neg, rest, k, s):
        # the prime scales every frequency by 2^k and leaves the count alone
        elements = tuple(sorted(neg | rest))
        spec = ea.PrimeSmooth(k=k, P=100.0, primes=(2,), elements=elements)
        mom = ea.exact_moment(ea.abs_power(spec, 2 * s))
        assert round(mom) == brute_force_s_count(elements, s, k)

    @pytest.mark.parametrize("elements,k,S", [((-5, 1), 2, 2), ((-5, -1), 3, 2)])
    def test_negative_elements_pinned(self, elements, k, S):
        spec = ea.PrimeSmooth(k=k, P=100.0, primes=(3,), elements=elements)
        mom = ea.exact_moment(ea.abs_power(spec, 2))
        assert round(mom) == S == brute_force_s_count(elements, 1, k)

    def test_one_inverse_fft_per_distinct_factor(self, monkeypatch):
        calls = []
        ifft = np.fft.ifft
        monkeypatch.setattr(np.fft, "ifft", lambda a: calls.append(1) or ifft(a))
        mom = ea.exact_moment(ea.abs_power(ea.FullInterval(P=10, k=3), 4))
        assert round(mom) == 190 and len(calls) == 1
        # |F|^2 |G|^2 counts x^2 + y^3 = u^2 + v^3 over [1, 8]^4
        F, G = ea.FullInterval(P=8, k=2), ea.FullInterval(P=8, k=3)
        m = ea.MomentSpec(factors=(
            ea.MomentFactor(F, 1), ea.MomentFactor(G, 1, True),
            ea.MomentFactor(F, 1, True), ea.MomentFactor(G, 1)))
        reps = Counter(x**2 + y**3 for x in range(1, 9) for y in range(1, 9))
        assert round(ea.exact_moment(m)) == sum(r * r for r in reps.values())
        assert len(calls) == 3

    # float.hex of the grid mean, taken before the grid sums moved from
    # math.fsum to phases.exact_sum; both grids are past its fsum crossover
    @pytest.mark.parametrize("P,k,power,pinned", [
        (40, 3, 4, "0x1.94ffffffffffep+11"),
        (300, 2, 6, "0x1.97cee92fffffep+32"),
    ])
    def test_grid_mean_bytes_pinned(self, P, k, power, pinned):
        m = ea.abs_power(ea.FullInterval(P=P, k=k), power)
        assert power * P**k + 1 > 1024      # grid points
        assert ea.exact_moment(m).hex() == pinned

    def test_smooth_set_moment(self):
        # p in {5, 7} and x in [1, 8]; the products keep their multiplicity
        spec = ea.PrimeSmooth.make(3, 64.0)
        prods = [p * x for p in spec.primes for x in spec.elements]
        reps = Counter(a**3 + b**3 for a in prods for b in prods)
        m = ea.abs_power(spec, 4)
        assert ea.exact_moment(m) == pytest.approx(
            sum(r * r for r in reps.values()), abs=1e-6)

    def test_odd_absolute_power_rejected(self):
        m = ea.abs_power(ea.FullInterval(P=4, k=3), 5)
        with pytest.raises(DomainError):
            ea.exact_moment(m)

    def test_region_guard(self):
        m = ea.abs_power(ea.FullInterval(P=4, k=3), 4, region="major")
        with pytest.raises(DomainError):
            ea.exact_moment(m)

    def test_budget(self):
        m = ea.abs_power(ea.FullInterval(P=50, k=3), 4)
        with pytest.raises(BudgetError):
            ea.exact_moment(m, budget_grid=1000)

    @pytest.mark.parametrize("exponent", [-1, 0, 2.5])
    def test_exponent_must_be_positive_int(self, exponent):
        spec = ea.FullInterval(P=5, k=3)
        d = ea.ArcDissection.make(5, 3)
        with pytest.raises(DomainError):
            ea.exact_moment(ea.MomentSpec(
                factors=(ea.MomentFactor(spec, exponent),)))
        with pytest.raises(DomainError):
            ea.arc_moment(ea.MomentSpec(factors=(ea.MomentFactor(spec, exponent),),
                                        region="major"), d, samples_per_arc=64)
        with pytest.raises(DomainError):
            ea.exact_moment(ea.abs_power(spec, exponent))
        with pytest.raises(DomainError):
            ea.arc_moment(ea.abs_power(spec, exponent, "major"), d,
                          samples_per_arc=64)


class TestArcMoment:
    def setup_method(self):
        self.d = ea.ArcDissection.make(10, 3)
        self.spec = ea.FullInterval(P=10, k=3)

    def test_split_identity(self):
        exact = ea.exact_moment(ea.abs_power(self.spec, 4))
        major = ea.arc_moment(ea.abs_power(self.spec, 4, "major"), self.d,
                              samples_per_arc=256)
        minor = ea.arc_moment(ea.abs_power(self.spec, 4, "minor"), self.d,
                              samples_per_arc=256)
        assert abs(exact - major.value - minor.value) <= 0.02 * exact
        assert major.err_est >= 0 and minor.err_est >= 0

    def test_odd_power_allowed(self):
        res = ea.arc_moment(ea.abs_power(self.spec, 5, "major"), self.d,
                            samples_per_arc=64)
        assert res.value > 0
        assert res.measure == pytest.approx(
            sum(hi - lo for lo, hi in self.d.major_intervals()))

    def test_full_region_rejected(self):
        with pytest.raises(DomainError):
            ea.arc_moment(ea.abs_power(self.spec, 4), self.d)

    def test_min_samples(self):
        with pytest.raises(DomainError):
            ea.arc_moment(ea.abs_power(self.spec, 4, "major"), self.d,
                          samples_per_arc=8)


class TestWeylRatio:
    def test_pinned_values(self):
        policy = ea.SamplingPolicy(n_points=512, seed=0)
        r50 = ea.weyl_ratio(50, 3, policy)
        r200 = ea.weyl_ratio(200, 3, policy)
        assert r50.max_ratio == pytest.approx(0.9658866149, rel=1e-6)
        assert r200.max_ratio == pytest.approx(0.6664231669, rel=1e-6)

    def test_non_explosion(self):
        policy = ea.SamplingPolicy(n_points=512, seed=0)
        r50 = ea.weyl_ratio(50, 3, policy)
        r200 = ea.weyl_ratio(200, 3, policy)
        assert 0 < r200.max_ratio <= 2 * r50.max_ratio

    def test_major_candidates_rejected(self):
        # seed 21 draws one candidate, on the major arc of 1/6: never minor
        policy = ea.SamplingPolicy(n_points=1, seed=21)
        d = ea.ArcDissection.make(10, 3)
        [alpha] = policy.candidates(d)
        assert ea.classify(alpha, d) == ea.Major(q=6, a=1)
        with pytest.raises(DomainError):
            ea.weyl_ratio(10, 3, policy)

    def test_no_candidates_rejected(self):
        with pytest.raises(DomainError):
            ea.weyl_ratio(10, 3, ea.SamplingPolicy(n_points=0))

    @pytest.mark.parametrize("n", [0, -3, 2.5, 2.0, "8", None])
    def test_n_points_checked_when_built(self, n):
        with pytest.raises(DomainError):
            ea.SamplingPolicy(n_points=n)
        assert ea.SamplingPolicy(n_points=np.int64(3)).n_points == 3

    def test_minor_points_counted(self):
        policy = ea.SamplingPolicy(n_points=512, seed=2)
        d = ea.ArcDissection.make(10, 3)
        minor = [a for a in policy.candidates(d) if ea.classify(a, d) is None]
        rep = ea.weyl_ratio(10, 3, policy)
        assert (rep.n_minor, rep.n_candidates) == (len(minor), 512)
        assert 0 < len(minor) < 512
        assert rep.argmax_alpha in minor
        assert rep.max_ratio == max(abs(ea.eval_at(ea.FullInterval(P=10, k=3), a))
                                    for a in minor) / rep.scale

    def test_non_int_k_rejected(self):
        with pytest.raises(DomainError):
            ea.weyl_ratio(50, 2.5)

    def test_scale_exponent(self):
        rep = ea.weyl_ratio(50, 3, ea.SamplingPolicy(n_points=64, seed=1))
        assert rep.scale == pytest.approx(50 ** 0.75)


class TestWeylRatioOracle:
    @pytest.mark.parametrize("P", [10, 50, 200, 1000])
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_candidate_loop(self, P, k, seed):
        policy = ea.SamplingPolicy(n_points=512, seed=seed)
        assert ea.weyl_ratio(P, k, policy) == oracles.weyl_ratio_per_candidate(
            P, k, policy)

    def test_first_maximum_kept(self, monkeypatch):
        # every minor point ties: the first one is the argmax
        policy = ea.SamplingPolicy(n_points=64, seed=3)
        monkeypatch.setattr(ea, "unit_sums", lambda freqs, alphas: [1j] * len(alphas))
        d = ea.ArcDissection.make(50, 3)
        first = next(a for a in policy.candidates(d) if ea.classify(a, d) is None)
        assert ea.weyl_ratio(50, 3, policy).argmax_alpha == first

    def test_every_point_past_int64(self):
        # 200^9 > 2^63: the frequencies are Python ints at every alpha
        policy = ea.SamplingPolicy(n_points=512, seed=4)
        assert isinstance(ea.frequencies(ea.FullInterval(P=200, k=9)), tuple)
        assert ea.weyl_ratio(200, 9, policy) == oracles.weyl_ratio_per_candidate(
            200, 9, policy)
