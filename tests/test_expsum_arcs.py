import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        spec = ea.SetPowers(elements=tuple(range(3, 40, 2)), k=4)
        n = ea.term_count(spec)
        for _ in range(10):
            assert abs(ea.eval_at(spec, rng.random())) <= n + 1e-9

    def test_single_prime_scaling(self):
        base = ea.SetPowers(elements=(1, 2, 5), k=3)
        scaled = ea.SinglePrime(elements=(1, 2, 5), p=7, k=3)
        a = 0.125 / 343
        assert ea.eval_at(scaled, a) == pytest.approx(
            ea.eval_at(base, 0.125), abs=1e-9)

    def test_brute_force_agreement(self):
        spec = ea.FullInterval(P=12, k=3)
        a = 0.37158203125
        brute = sum(cmath.exp(2j * cmath.pi * ((x**3 * Fraction(a)) % 1))
                    for x in range(1, 13))
        assert abs(ea.eval_at(spec, a) - brute) < 1e-12


class TestSpecs:
    def test_frequencies_full(self):
        assert ea.frequencies(ea.FullInterval(P=4, k=2)) == (1, 4, 9, 16)
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

    def test_empty_set_rejected(self):
        with pytest.raises(DomainError):
            ea.frequencies(ea.SetPowers(elements=(), k=3))


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
        assert ea.classify(0.5, self.d, "M") == ea.Major(q=2, a=1)

    def test_golden_ratio_minor(self):
        assert ea.classify((math.sqrt(5) - 1) / 2, self.d, "M") is None

    def test_agrees_with_direct_scan(self):
        rng = random.Random(6)
        tau = self.d.tau
        for _ in range(300):
            alpha = 1 / tau + rng.random()
            got = ea.classify(alpha, self.d, "M")
            want = self.brute(alpha, 10, lambda q: 1 / (q * tau))
            assert got == (ea.Major(*want) if want else None)

    def test_narrow_classification(self):
        d = ea.ArcDissection.make(10, 3, W=4.0)
        rng = random.Random(8)
        for _ in range(200):
            alpha = d.interval[0] + rng.random()
            got = ea.classify(alpha, d, "N")
            want = self.brute(alpha, 4, lambda q: 4.0 / (q * d.tau * 10))
            assert got == (ea.Major(*want) if want else None)

    def test_narrow_inside_wide(self):
        d = ea.ArcDissection.make(12, 3)
        rng = random.Random(10)
        for _ in range(200):
            alpha = d.interval[0] + rng.random()
            if ea.classify(alpha, d, "N") is not None:
                assert ea.classify(alpha, d, "M") is not None

    def test_label_satisfies_inequality(self):
        rng = random.Random(12)
        for _ in range(100):
            alpha = self.d.interval[0] + rng.random()
            label = ea.classify(alpha, self.d, "M")
            if label:
                assert abs(alpha - label.a / label.q) <= 1 / (label.q * self.d.tau) * (1 + 1e-12)

    def test_outside_interval(self):
        with pytest.raises(DomainError):
            ea.classify(-0.5, self.d, "M")

    def test_bad_which(self):
        with pytest.raises(DomainError):
            ea.classify(0.5, self.d, "X")


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

    def test_narrow_equals_major_when_w_is_p(self):
        d = ea.ArcDissection.make(10, 3, W=10.0)
        assert d.narrow_intervals() == d.major_intervals()

    def test_major_minus_narrow_disjoint_from_narrow(self):
        d = ea.ArcDissection.make(10, 3)
        narrow = d.narrow_intervals()
        for lo, hi in d.major_minus_narrow_intervals():
            for nlo, nhi in narrow:
                assert hi <= nlo + 1e-15 or lo >= nhi - 1e-15

    def test_domain(self):
        with pytest.raises(DomainError):
            ea.ArcDissection.make(10, 1)
        with pytest.raises(DomainError):
            ea.ArcDissection.make(10, 3, W=20.0)


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
            target=27, absolute=False)
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

    def test_one_inverse_fft_per_distinct_factor(self, monkeypatch):
        calls = []
        ifft = np.fft.ifft
        monkeypatch.setattr(np.fft, "ifft", lambda a: calls.append(1) or ifft(a))
        mom = ea.exact_moment(ea.abs_power(ea.FullInterval(P=10, k=3), 4))
        assert round(mom) == 190 and len(calls) == 1
        # x^2 = y^3 over [1, 8]^2: (1, 1) and (8, 4)
        m = ea.MomentSpec(
            factors=(ea.MomentFactor(ea.FullInterval(P=8, k=2), 1),
                     ea.MomentFactor(ea.FullInterval(P=8, k=3), 1, True)),
            absolute=False)
        assert round(ea.exact_moment(m)) == 2 and len(calls) == 3

    def test_smooth_set_moment(self):
        elements = (2, 3, 5, 7)
        S = ac.s_count(elements, 2, 3).S
        m = ea.abs_power(ea.SetPowers(elements=elements, k=3), 4)
        assert ea.exact_moment(m) == pytest.approx(S, abs=1e-6)

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

    def test_narrow_equals_major_at_w_equals_p(self):
        d = ea.ArcDissection.make(10, 3, W=10.0)
        m_major = ea.arc_moment(ea.abs_power(self.spec, 4, "major"), d,
                                samples_per_arc=64)
        m_narrow = ea.arc_moment(ea.abs_power(self.spec, 4, "narrow"), d,
                                 samples_per_arc=64)
        assert m_narrow.value <= m_major.value * 1.02
        assert m_narrow.value == pytest.approx(m_major.value, rel=1e-12)

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
        # 1/2 is the exact center of a wide arc: never counted as minor
        policy = ea.SamplingPolicy(explicit=(0.5,))
        with pytest.raises(DomainError):
            ea.weyl_ratio(10, 3, policy)

    def test_explicit_minor_point_used(self):
        golden = (math.sqrt(5) - 1) / 2
        policy = ea.SamplingPolicy(explicit=(0.5, golden))
        rep = ea.weyl_ratio(10, 3, policy)
        assert rep.n_minor == 1
        assert rep.argmax_alpha == golden

    def test_scale_exponent(self):
        rep = ea.weyl_ratio(50, 3, ea.SamplingPolicy(n_points=64, seed=1))
        assert rep.scale == pytest.approx(50 ** 0.75)
