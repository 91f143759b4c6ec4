import math

import pytest

from oracles import product_levels_literal, write_set
from waring import smooth_sets as sm
from waring.bound_engine import theta_schedule
from waring.errors import (DomainError, EmptyWindowError, WidthOverflowError)


class TestPrimesIn:
    def test_small(self):
        win = sm.primes_in(2, 10)
        assert win.primes == (2, 3, 5, 7)
        assert win.Z == 4

    def test_empty_window(self):
        assert sm.primes_in(8, 10).primes == ()

    def test_million_window(self):
        win = sm.primes_in(10**6, 10**6 + 100)
        assert win.Z == 6
        assert win.primes[0] == 1000003

    def test_crosses_segment_boundary(self):
        lo = (1 << 20) - 50
        win = sm.primes_in(lo, lo + 200)
        brute = tuple(n for n in range(lo, lo + 201)
                      if all(n % d for d in range(2, math.isqrt(n) + 1)))
        assert win.primes == brute

    def test_errors(self):
        with pytest.raises(DomainError):
            sm.primes_in(10, 8)
        with pytest.raises(DomainError):
            sm.primes_in(1, 10)
        with pytest.raises(DomainError):
            sm.primes_in(2, 10**9 + 1)


def _plain_sieve(lo, hi):
    flags = bytearray([1]) * (hi + 1)
    flags[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(hi) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, hi + 1, p)))
    return tuple(n for n in range(lo, hi + 1) if flags[n])


class TestSegmentedSieve:
    @pytest.mark.parametrize("lo,hi", [
        (2, 2), (2, 3), (3, 3), (2, 4), (3, 100),
        (2, sm._SEGMENT + 1000),
        (3, 2 * sm._SEGMENT + 5),
        (5 * 10**6 - 7, 5 * 10**6 + sm._SEGMENT + 17),
    ])
    def test_matches_plain_sieve(self, lo, hi):
        assert sm.primes_in(lo, hi).primes == _plain_sieve(lo, hi)

    @pytest.mark.parametrize("lo,hi", [(2, 3000), (3, 3000), (49, 2500),
                                       (121, 169)])
    def test_many_segments(self, monkeypatch, lo, hi):
        monkeypatch.setattr(sm, "_SEGMENT", 64)
        assert sm.primes_in(lo, hi).primes == _plain_sieve(lo, hi)

    def test_primes_are_python_ints(self):
        assert all(type(p) is int for p in sm.primes_in(2, 100).primes)

    def test_is_prime_matches_sieve(self):
        primes = set(_plain_sieve(2, 5000))
        assert [n for n in range(-5, 5001) if sm.is_prime(n)] == sorted(primes)


class TestBuildSingle:
    def test_all_products_distinct(self):
        out = sm.build_single([1, 2, 3], sm.PrimeWindow(5, 7, (5, 7)))
        assert out.elements == (5, 7, 10, 14, 15, 21)
        assert out.collision_count == 0

    def test_collision_counted(self):
        out = sm.build_single([2, 5], sm.PrimeWindow(2, 5, (2, 5)))
        assert out.elements == (4, 10, 25)
        assert out.collision_count == 1  # 2*5 == 5*2

    def test_singleton(self):
        out = sm.build_single([1], sm.PrimeWindow(13, 13, (13,)))
        assert out.elements == (13,)

    def test_size_bound_vs_collisions(self):
        base = list(range(1, 40))
        win = sm.primes_in(2, 7)
        out = sm.build_single(base, win)
        assert len(out.elements) <= len(base) * win.Z
        assert (len(out.elements) == len(base) * win.Z) == (out.collision_count == 0)

    def test_membership_by_trial_division(self):
        base = list(range(1, 30))
        win = sm.primes_in(11, 31)
        out = sm.build_single(base, win)
        for x in out.elements[:100]:
            assert any(x % p == 0 and x // p in base for p in win.primes)

    def test_determinism(self):
        a = sm.build_single(list(range(1, 25)), sm.primes_in(5, 17))
        b = sm.build_single(list(range(1, 25)), sm.primes_in(5, 17))
        assert a.elements == b.elements

    def test_width_overflow(self):
        with pytest.raises(WidthOverflowError):
            sm.build_single([2**62], sm.PrimeWindow(3, 3, (3,)))

    def test_bad_base(self):
        with pytest.raises(DomainError):
            sm.build_single([], sm.PrimeWindow(2, 3, (2, 3)))
        with pytest.raises(DomainError):
            sm.build_single([3, 1], sm.PrimeWindow(2, 3, (2, 3)))


class TestBuildSingleLevels:
    def test_zero_levels_is_interval(self):
        out = sm.build_single_levels(3, 16, 0.4, 0)
        assert out.elements == tuple(range(1, 17))
        assert out.spec.base_floor == 16

    def test_one_level_small(self):
        out = sm.build_single_levels(3, 16, 0.4, 1)
        # inner parameter 16^(1/1.4) ~ 7.25, window [2,2], base floor 9
        assert out.spec.base_floor == 9
        assert out.elements == tuple(2 * x for x in range(1, 10))

    def test_empty_window_reports_level(self):
        with pytest.raises(EmptyWindowError) as err:
            sm.build_single_levels(3, 8, 0.4, 1)
        assert err.value.level == 0

    def test_theta_limit_flag_warns(self):
        with pytest.warns(UserWarning):
            out = sm.build_single_levels(3, 100, 1 / 3, 0)
        assert out.spec.theta_at_limit

    def test_every_prime_factor_in_some_window(self):
        # with a base of ones every element is a pure product of window primes
        win = sm.primes_in(5, 11)
        out = sm.build_single([1], win)
        out = sm.build_single(list(out.elements), sm.primes_in(13, 31))
        for x in out.elements:
            rest = x
            for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
                while rest % p == 0:
                    rest //= p
            assert rest == 1


class TestBuildMultilevel:
    def setup_method(self):
        self.sched = theta_schedule(3, 1.0)
        self.spec = sm.multilevel_spec(3, self.sched)
        self.sets = sm.build_multilevel(self.spec, 1e4)

    def test_levels_order_and_windows(self):
        assert [s.level for s in self.sets] == [3, 2, 1, 0]
        zs = [1e4**t for t in self.sched.thetas]
        # window bounds are the inclusive integer ranges [ceil(Z/2), floor(Z)]
        final = self.sets[-1]
        used = list(reversed(final.windows))  # outermost window first
        for z, win in zip(zs, used):
            assert win.lo == max(2, math.ceil(z / 2))
            assert win.hi == math.floor(z)

    def test_pinned_regression(self):
        final = self.sets[-1]
        assert final.elements == (1001, 1309, 1463, 2002, 2618, 2926, 3003,
                                  3927, 4389)

    def test_coprime_chain(self):
        # each element factors with exactly one prime from each applied window
        final = self.sets[-1]
        windows = [set(w.primes) for w in final.windows]
        for x in final.elements:
            rest = x
            for wps in reversed(windows):
                hits = [p for p in wps if rest % p == 0]
                assert len(hits) == 1
                assert rest % hits[0] ** 2 != 0 or rest // hits[0] % hits[0] != 0
                rest //= hits[0]
            assert rest >= 1

    def test_no_prime_square_from_coprime_step(self):
        for sset in self.sets[1:]:
            win = sset.windows[-1]
            prev = {s.level: s for s in self.sets}[sset.level + 1]
            for x in sset.elements:
                for p in win.primes:
                    if x % p == 0 and (x // p) in prev.elements:
                        assert (x // p) % p != 0

    def test_elements_within_level_parameter(self):
        zs = [1e4**t for t in self.sched.thetas]
        P_levels = [1e4]
        for z in zs:
            P_levels.append(P_levels[-1] / z)
        for sset in self.sets:
            assert max(sset.elements) <= P_levels[sset.level] + 1e-9

    def test_empty_window_names_level(self):
        # Z_1 = 10^theta_1 ~ 1.82, so the first window is [2, 1]: empty
        with pytest.raises(EmptyWindowError) as err:
            sm.build_multilevel(self.spec, 10.0)
        assert err.value.level == 1

    def test_determinism(self):
        again = sm.build_multilevel(self.spec, 1e4)
        assert [s.elements for s in again] == [s.elements for s in self.sets]


def _window(z):
    """The inclusive integer window [ceil(z/2), floor(z)] of a size z."""
    return max(2, math.ceil(z / 2)), math.floor(z)


def _as_levels(sets):
    return [(s.elements, tuple((w.lo, w.hi, w.primes) for w in s.windows),
             s.collision_count) for s in sets]


class TestLevelsAgainstOracle:
    @pytest.mark.parametrize("k", [3, 4, 5])
    @pytest.mark.parametrize("P", [1e4, 1e6, 1e7])
    @pytest.mark.parametrize("delta", [1.0, 2.0])
    def test_multilevel_every_level(self, k, P, delta):
        sched = theta_schedule(k, delta)
        sets = sm.build_multilevel(sm.multilevel_spec(k, sched), P)
        zs = [P**t for t in sched.thetas]
        P_k = P
        for z in zs:
            P_k /= z
        base_floor = max(1, math.floor(P_k))
        assert {s.spec.base_floor for s in sets} == {base_floor}
        assert [s.level for s in sets] == list(range(k, -1, -1))
        assert _as_levels(sets) == product_levels_literal(
            range(1, base_floor + 1), [_window(z) for z in zs], coprime=True)

    def test_coprime_filter_can_empty_level_zero(self):
        # windows 1 and 2 are both [6, 10] = {7}: level 1 is all multiples
        # of 7, so no pair at level 0 is coprime
        sets = sm.build_multilevel(
            sm.multilevel_spec(4, theta_schedule(4, 2.0)), 1e6)
        assert [(w.lo, w.hi, w.primes) for w in sets[-1].windows[-2:]] == \
            [(6, 10, (7,)), (6, 10, (7,))]
        assert [len(s.elements) for s in sets] == [21, 102, 266, 159, 0]

    @pytest.mark.parametrize("k,P,theta", [(3, 1e5, 0.4), (4, 1e4, 0.5),
                                           (3, 1e6, 0.35)])
    @pytest.mark.parametrize("levels", [0, 1, 2, 3])
    def test_single_levels_final_level(self, k, P, theta, levels):
        out = sm.build_single_levels(k, P, theta, levels)
        params = [float(P)]
        for _ in range(levels):
            params.append(params[-1] ** (1.0 / (1.0 + theta)))
        zs = [x**theta for x in params[1:]]
        base_floor = max(1, math.floor(P / math.prod(0.75 * z for z in zs)))
        assert out.level == 0 and out.spec.base_floor == base_floor
        assert _as_levels([out]) == product_levels_literal(
            range(1, base_floor + 1), [_window(z) for z in zs],
            coprime=False)[-1:]

    @pytest.mark.parametrize("base,lo,hi", [
        ([1, 2, 3], 5, 7), ([2, 5], 2, 5), ([1], 13, 13),
        (range(1, 40), 2, 7), (range(1, 30), 11, 31), (range(1, 10), 24, 28)])
    def test_single_layer(self, base, lo, hi):
        out = sm.build_single(base, sm.primes_in(lo, hi))
        assert out.level == 0 and out.spec is None
        assert _as_levels([out]) == product_levels_literal(
            base, [(lo, hi)], coprime=False)[-1:]

    @pytest.mark.parametrize("build,level,message", [
        (lambda: sm.build_single_levels(3, 8, 0.4, 1), 0,
         "level 0: no primes in [2, 1] (inner parameter 4.416)"),
        (lambda: sm.build_single_levels(3, 100, 0.9, 5), 2,
         "level 2: no primes in [2, 1] (inner parameter 1.957)"),
        (lambda: sm.build_single_levels(3, 1e4, 0.4, 5), 4,
         "level 4: no primes in [2, 1] (inner parameter 5.543)"),
        (lambda: sm.build_multilevel(
            sm.multilevel_spec(3, theta_schedule(3, 1.0)), 10.0), 1,
         "level 1: no primes in [2, 1] (Z_1 = 1.817)"),
        (lambda: sm.build_multilevel(
            sm.multilevel_spec(5, theta_schedule(5, 2.0)), 100.0), 1,
         "level 1: no primes in [2, 1] (Z_1 = 1.935)")])
    def test_empty_window_messages_pinned(self, build, level, message):
        with pytest.raises(EmptyWindowError) as err:
            build()
        assert (err.value.level, str(err.value)) == (level, message)


class TestResidueProfile:
    def test_hand_counts(self):
        prof = sm.residue_profile([5, 7, 10, 14, 15, 21], 4)
        assert prof.counts == {1: 2, 3: 2}
        assert prof.phi_q == 2
        assert prof.max_deviation == pytest.approx(1 / 3)

    def test_all_odd_mod_2(self):
        prof = sm.residue_profile([3, 5, 9, 15], 2)
        assert prof.counts == {1: 4}
        assert prof.max_deviation == 0.0

    def test_trend_toward_equidistribution(self):
        devs = []
        for P in (1000, 3000):
            win = sm.window_for_size(P**0.4)
            built = sm.build_single(list(range(1, P + 1)), win)
            devs.append(sm.residue_profile(built, 5).max_deviation)
        assert all(d < 0.5 for d in devs)
        assert devs[1] < devs[0]

    def test_domain(self):
        with pytest.raises(DomainError):
            sm.residue_profile([1, 2], 1)


class TestSizeEstimate:
    def test_pinned_value(self):
        assert sm.size_estimate(3, 1e6) == pytest.approx(2039.8277, rel=1e-6)
        # two significant digits: ~2.0e3
        assert round(sm.size_estimate(3, 1e6), -2) == 2000.0

    def test_boundary(self):
        val = sm.size_estimate(3, math.exp(math.e))
        assert math.isfinite(val) and val > 0

    def test_domain(self):
        with pytest.raises(DomainError):
            sm.size_estimate(3, 15.0)

    def test_can_exceed_p_for_small_p(self):
        # report-only quantity; just above the domain floor it tops P
        assert sm.size_estimate(3, 16.0) > 16.0


class TestSetFiles:
    def test_round_trip(self, tmp_path):
        sched = theta_schedule(3, 1.0)
        final = sm.build_multilevel(sm.multilevel_spec(3, sched), 1e4)[-1]
        path = tmp_path / "set.txt"
        write_set(path, final)
        back = sm.read_set(path)
        assert back.elements == final.elements
        assert back.spec.k == 3
        assert back.spec.mode == "multi"
        assert back.spec.P_top == 1e4

    def test_header_validation(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("17\n23\n")
        with pytest.raises(DomainError):
            sm.read_set(path)

    def test_non_integer_element_names_file_and_line(self, tmp_path):
        path = tmp_path / "set.txt"
        path.write_text("# waring-set k=3 mode=single P=10\n1\n\nx2\n")
        with pytest.raises(DomainError, match=r"set\.txt:4: .*'x2'"):
            sm.read_set(path)

    @pytest.mark.parametrize("header", ["k=3 P=10", "mode=single P=10",
                                        "k=3 mode=single", "k=3 mode P=10",
                                        "k=three mode=single P=10"])
    def test_incomplete_header_names_file_and_line(self, tmp_path, header):
        path = tmp_path / "set.txt"
        path.write_text(f"# waring-set {header}\n1\n")
        with pytest.raises(DomainError, match=r"set\.txt:1: "):
            sm.read_set(path)
