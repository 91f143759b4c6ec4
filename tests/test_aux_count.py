import hashlib
import math
import random
import sys
import tracemalloc
from collections import Counter
from itertools import combinations_with_replacement, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_s_count
from waring import aux_count as ac
from waring import bound_engine, smooth_sets
from waring import expsum_arcs as ea
from waring.errors import (BudgetError, CoprimalityError, DomainError,
                           EmptyWindowError)


class TestRepFunction:
    def test_two_squares(self):
        rep = ac.rep_function([[1, 2], [1, 2]], 2)
        assert rep.table == {2: 1, 5: 2, 8: 1}
        assert rep.total == 4

    def test_single_domain_power(self):
        rep = ac.rep_function([[1]], 5)
        assert rep.table == {1: 1}

    def test_injective_single(self):
        rep = ac.rep_function([[1, 2, 3]], 3)
        assert rep.table == {1: 1, 8: 1, 27: 1}
        assert rep.total == 3

    def test_conservation(self):
        rng = random.Random(7)
        for _ in range(20):
            doms = [sorted(rng.sample(range(0, 20), rng.randint(1, 6)))
                    for _ in range(rng.randint(1, 4))]
            rep = ac.rep_function(doms, rng.randint(1, 4))
            assert sum(rep.table.values()) == rep.total
            assert all(c >= 1 for c in rep.table.values())

    def test_budget(self):
        with pytest.raises(BudgetError) as err:
            ac.rep_function([list(range(100))] * 3, 2, budget_ops=10**5)
        assert err.value.predicted == 100**3

    def test_empty_domain(self):
        with pytest.raises(DomainError):
            ac.rep_function([[1], []], 2)


class TestSCount:
    def test_pair_of_squares(self):
        assert ac.s_count([1, 2], 2, 2).S == 6

    def test_interval_squares(self):
        assert ac.s_count([1, 2, 3], 2, 2).S == 15

    def test_strictly_monotone_single(self):
        res = ac.s_count([1, 2, 3], 1, 3)
        assert res.S == 3 == res.set_size

    def test_diagonal_bound(self):
        rng = random.Random(11)
        for _ in range(15):
            X = sorted(rng.sample(range(1, 40), rng.randint(2, 7)))
            s = rng.randint(1, 3)
            res = ac.s_count(X, s, rng.randint(1, 4))
            assert res.S >= res.diagonal_lb == len(X) ** s

    def test_diagonal_equality_when_sums_unique(self):
        # powers of 10 make every multiset sum unique
        res = ac.s_count([1, 10, 100], 2, 2)
        # 2*9 - 3 solutions counting order: diagonal only when tuple-sorted
        assert res.S == 15  # (x1,x2) vs (y1,y2): 9 diagonal + 6 swaps

    def test_relabel_invariance(self):
        a = ac.s_count([3, 1, 2], 2, 3).S
        b = ac.s_count((1, 2, 3), 2, 3).S
        assert a == b

    def test_matches_brute_force(self):
        rng = random.Random(3)
        for _ in range(10):
            X = sorted(rng.sample(range(1, 25), rng.randint(2, 6)))
            s = rng.randint(1, 3)
            k = rng.randint(1, 3)
            if len(X) ** s > 10**5:
                continue
            assert ac.s_count(X, s, k).S == brute_force_s_count(X, s, k)


class TestDistinctSums:
    def test_hand_case(self):
        res = ac.distinct_sums_bound([[1, 2], [1, 2]], 2)
        assert res.distinct == 3
        assert res.lower_bound == pytest.approx(16 / 6)

    def test_equality_constant_gamma(self):
        res = ac.distinct_sums_bound([[1]], 1)
        assert res.distinct == 1 == res.lower_bound

    def test_inequality_with_slack(self):
        res = ac.distinct_sums_bound([list(range(1, 11))] * 2, 3)
        assert res.distinct >= res.lower_bound
        assert res.distinct * res.sum_gamma_sq >= res.total**2


class TestTpqCount:
    def test_pinned(self):
        assert ac.t_pq_count([1, 3], 2, 2, 2, 5).S == 4

    def test_singleton(self):
        assert ac.t_pq_count([1], 2, 3, 2, 5).S == 1
        assert ac.t_pq_count([1], 3, 2, 3, 7).S == 1

    def test_coprimality_names_element(self):
        with pytest.raises(CoprimalityError) as err:
            ac.t_pq_count([1, 4], 2, 2, 2, 3)
        assert "4" in str(err.value)

    def test_p_equals_q(self):
        with pytest.raises(DomainError):
            ac.t_pq_count([1, 3], 2, 2, 5, 5)

    def test_not_prime(self):
        with pytest.raises(DomainError):
            ac.t_pq_count([1, 3], 2, 2, 4, 5)

    def test_large_even_q_is_refused_in_one_segment(self):
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=f"q={10**18} is not prime"):
                ac.t_pq_count([1, 3], 2, 2, 5, 10**18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_budget(self):
        with pytest.raises(BudgetError):
            ac.t_pq_count(list(range(1, 32, 2)), 4, 2, 2, 3, budget_ops=10**6)

    @pytest.mark.parametrize("E,s,k,p,q", [
        ((1, 3), 2, 2, 2, 5),
        ((1, 2), 2, 2, 3, 5),
        ((1, 2, 4), 2, 3, 3, 5),
        ((1, 3, 7), 2, 2, 2, 5),
        ((1, 2), 3, 2, 3, 7),
        ((1, 2, 3, 4), 2, 2, 5, 3),
    ])
    def test_matches_enumeration(self, E, s, k, p, q):
        assert ac.t_pq_count(E, s, k, p, q).S == ac.brute_force_t_pq(E, s, k, p, q)

    def test_ratio_against_size_times_lower_order(self):
        # reporting-style comparison: count stays within a small multiple of
        # |E| * S_{s-1}(E)
        E = [1, 3, 7, 9]
        t = ac.t_pq_count(E, 2, 2, 2, 5).S
        s1 = ac.s_count(E, 1, 2).S
        assert 0 < t <= 4 * len(E) * s1


class TestInt64Kernel:
    """The limb kernel and the limb width the input selects, against the oracles.

    One limb is a plain int64 key; the wide cases take two or three.
    """

    @settings(max_examples=60, deadline=None)
    @given(X=st.lists(st.integers(-40, 40), min_size=1, max_size=8, unique=True),
           s=st.integers(1, 3), k=st.integers(1, 5))
    def test_s_count_matches_brute_force(self, X, s, k):
        assert ac.s_count(X, s, k).S == brute_force_s_count(X, s, k)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_t_pq_matches_brute_force(self, data):
        p, q = data.draw(st.sampled_from([(2, 3), (3, 2), (2, 5), (5, 3), (3, 7)]))
        s = data.draw(st.integers(2, 3))
        E = data.draw(st.lists(st.integers(-30, 30).filter(lambda x: x % p),
                               min_size=1, max_size=6 if s == 2 else 4,
                               unique=True))
        k = data.draw(st.integers(1, 4))
        assert ac.t_pq_count(E, s, k, p, q).S == ac.brute_force_t_pq(E, s, k, p, q)

    # |x| <= 2^40, k <= 4 and s <= 3 put sums up to 3 * 2^160: one to three limbs
    wide = st.one_of(st.integers(-40, 40), st.integers(-(2**40), 2**40))

    @settings(max_examples=80, deadline=None)
    @given(X=st.lists(wide, min_size=1, max_size=6, unique=True),
           s=st.integers(1, 3), k=st.integers(1, 4))
    def test_wide_s_count_matches_brute_force(self, X, s, k):
        assert ac.s_count(X, s, k).S == brute_force_s_count(X, s, k)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_wide_t_pq_matches_brute_force(self, data):
        p, q = data.draw(st.sampled_from([(2, 3), (3, 2), (5, 3)]))
        s = data.draw(st.integers(2, 3))
        E = data.draw(st.lists(self.wide.filter(lambda x: x % p), min_size=1,
                               max_size=5 if s == 2 else 3, unique=True))
        k = data.draw(st.integers(1, 4))
        assert ac.t_pq_count(E, s, k, p, q).S == ac.brute_force_t_pq(E, s, k, p, q)

    @pytest.mark.parametrize("c", [0, 1, 12345, 2**61 - 1])
    def test_equal_low_limbs_never_merge(self, c):
        # c + c, c + (2^62 + c) and 2(2^62 + c) share their low limb, 2c
        X = [c, 2**62 + c]
        rep = ac.rep_function([X] * 2, 1)
        assert len(rep.keys) == 2
        assert rep.table == {2 * c: 1, 2**62 + 2 * c: 2, 2**63 + 2 * c: 1}
        assert ac.s_count(X, 2, 1).S == brute_force_s_count(X, 2, 1) == 6

    @pytest.mark.parametrize("X,dtype", [
        # k=1, s=2: 2 * max|x| is 2^63 - 2, just inside one limb
        ([2**62 - 3, 2**62 - 2, 2**62 - 1], np.int64),
        ([-(2**62) + 1, -5, 7, 2**62 - 1], np.int64),
        # 2 * max|x| reaches 2^63: two limbs, values as Python ints
        ([2**62 - 2, 2**62 - 1, 2**62], object),
        ([-(2**62), -5, 7, 2**62 - 1], object),
    ])
    def test_s_count_at_the_int64_edge(self, X, dtype):
        rep = ac.rep_function([X] * 2, 1)
        assert len(rep.keys) == (1 if dtype is np.int64 else 2)
        assert rep.values.dtype == dtype
        assert ac.s_count(X, 2, 1).S == brute_force_s_count(X, 2, 1)

    @pytest.mark.parametrize("T,one_limb", [
        (1537228672809129301, True),    # 6T < 2^63: q(y - x) reaches 6T
        (1537228672809129303, False),   # 6T > 2^63: two limbs
    ])
    def test_t_pq_at_the_int64_edge(self, monkeypatch, T, one_limb):
        widths = set()
        runs = ac._runs
        monkeypatch.setattr(ac, "_runs", lambda table: widths.add(len(table[0]))
                            or runs(table))
        E = [-T, 1, T]
        assert ac.t_pq_count(E, 2, 1, 2, 3).S == ac.brute_force_t_pq(E, 2, 1, 2, 3)
        assert widths == {1 if one_limb else 2}

    @pytest.mark.parametrize("block", [1, 7, 64, 1000])
    def test_many_row_blocks(self, monkeypatch, block):
        X = list(range(1, 40))
        want = Counter(map(sum, product([x**3 for x in X], repeat=3)))
        monkeypatch.setattr(ac, "_BLOCK_PAIRS", block)
        rep = ac.rep_function([X] * 3, 3)
        assert rep.table == want
        assert list(rep.values) == sorted(rep.values)
        assert ac.s_count(X, 3, 3).S == sum(c * c for c in want.values())
        assert ac.t_pq_count(X[::2], 2, 3, 2, 3).S == ac.brute_force_t_pq(X[::2], 2, 3, 2, 3)

    @pytest.mark.parametrize("block", [1, 7])
    def test_many_row_blocks_over_limbs(self, monkeypatch, block):
        # sums reach 3 * 2^123: two limbs, with both signs
        X = [2**41 - 2 - 3**i for i in range(10)] + [-(2**41) + 5, -7, 1]
        want = Counter(map(sum, product([x**3 for x in X], repeat=3)))
        monkeypatch.setattr(ac, "_BLOCK_PAIRS", block)
        rep = ac.rep_function([X] * 3, 3)
        assert len(rep.keys) == 2
        assert rep.table == want
        assert list(rep.values) == sorted(rep.values)
        assert ac.s_count(X, 3, 3).S == sum(c * c for c in want.values())
        E = X[::3]
        assert ac.t_pq_count(E, 2, 3, 2, 3).S == ac.brute_force_t_pq(E, 2, 3, 2, 3)

    def test_counts_past_int64_are_python_ints(self, monkeypatch):
        # a lowered limit stands in for a tuple product past 2^63
        monkeypatch.setattr(ac, "_INT64", 8)
        X = [-3, 1, 2, 5]
        assert ac.rep_function([X] * 3, 2).counts.dtype == object
        assert ac.s_count(X, 3, 2).S == brute_force_s_count(X, 3, 2)
        E = [-3, 1, 5]
        assert ac.t_pq_count(E, 2, 3, 2, 3).S == ac.brute_force_t_pq(E, 2, 3, 2, 3)

    def test_table_holds_python_ints(self):
        for X, k in (([1, 2, 3], 3), ([1, 2**62, -(2**62)], 1)):
            table = ac.rep_function([X] * 2, k).table
            assert all(type(v) is int and type(c) is int for v, c in table.items())


class TestRunsOracle:
    """_runs against a sorted dict: one to three limbs; int64 and object
    counts; one to four raw or pre-reduced parts, joined into one table,
    whose keys are mixed, all distinct or all repeated."""

    @staticmethod
    def value(L):
        """Keys of L limbs; small tops and clustered low limbs share leads."""
        low = st.sampled_from([0, 1, 2, 3, 2**61, 2**62 - 1]) | st.integers(0, 2**62 - 1)
        top = st.integers(-3, 3) | st.integers(-(2**63), 2**63 - 1)
        return st.tuples(*[low] * (L - 1), top).map(
            lambda limbs: sum(x << 62 * j for j, x in enumerate(limbs)))

    @staticmethod
    def reduce(entries):
        """Sorted (value, count) pairs with the counts of equal values summed."""
        total = {}
        for v, c in entries:
            old = total.get(v)
            total[v] = c if old is None else old + c
        return sorted(total.items())

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_equals_sorted_dict(self, data):
        L = data.draw(st.integers(1, 3), label="L")
        kind = data.draw(st.sampled_from(["int64", "object"]))
        shape = data.draw(st.sampled_from(["mixed", "distinct", "duplicate"]))
        pool = data.draw(st.lists(self.value(L), min_size=1, max_size=30,
                                  unique=True))
        if shape == "mixed":
            pool = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60))
        elif shape == "duplicate":
            pool = pool * data.draw(st.integers(2, 3))
        pool = data.draw(st.permutations(pool))
        count = {"int64": st.integers(1, 3), "object": st.integers(2**64, 2**64 + 3)}[kind]
        entries = list(zip(pool, data.draw(st.lists(
            count, min_size=len(pool), max_size=len(pool)))))
        parts = data.draw(st.integers(1, min(4, len(entries))))
        cuts = sorted(data.draw(st.sets(st.integers(1, len(entries) - 1),
                                        min_size=parts - 1, max_size=parts - 1))
                      if parts > 1 else [])
        tables = [entries[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, len(entries)])]
        if data.draw(st.booleans(), label="reduced"):
            tables = [self.reduce(t) for t in tables]
        dtype = object if kind == "object" else np.int64
        joined = [e for t in tables for e in t]
        keys, counts = ac._runs([ac._split([v for v, _ in joined], L),
                                 np.array([c for _, c in joined], dtype=dtype)])
        want = self.reduce(joined)
        assert keys.dtype == np.int64 and keys.shape == (L, len(want))
        assert counts.dtype == dtype
        values = [sum(int(x) << 62 * j for j, x in enumerate(col)) for col in keys.T]
        assert values == [v for v, _ in want]
        assert counts.tolist() == [c for _, c in want]


class TestLeadSort:
    """_runs sorts keys of L > 1 limbs once on an int64 lead and lexsorts only
    the groups of equal leads that hold unequal keys; one limb argsorts as
    before below _PACK_FROM entries (TestPackedSort covers the rest)."""

    @staticmethod
    def runs(tables, L):
        """_runs over (values, counts) tables of Python ints, joined into one
        table, as plain lists."""
        keys, counts = ac._runs([ac._split([v for vs, _ in tables for v in vs], L),
                                 np.array([c for _, cs in tables for c in cs],
                                          dtype=np.int64)])
        rep = ac.RepFunction(k=1, s=1, domains=(), keys=keys, counts=counts,
                             total=0)
        return rep.values.tolist(), counts.tolist()

    @staticmethod
    def want(tables):
        total = Counter()
        for vs, cs in tables:
            for v, c in zip(vs, cs):
                total[v] += c
        values = sorted(total)
        return values, [total[v] for v in values]

    @staticmethod
    def tables(values, parts, seed):
        """values shuffled with counts 1..3, cut into parts tables; with
        parts > 1 each table is first reduced, as the kernel's blocks are."""
        rng = random.Random(seed)
        values = list(values)
        rng.shuffle(values)
        cuts = sorted(rng.sample(range(1, len(values)), parts - 1))
        out = []
        for lo, hi in zip([0] + cuts, cuts + [len(values)]):
            table = (values[lo:hi], [rng.randint(1, 3) for _ in values[lo:hi]])
            if parts > 1:
                table = TestLeadSort.want([table])
            out.append(table)
        return out

    # top limbs in [-3, 3] leave b = 60, so sums that differ only in the two
    # lowest bits of the next limb share a lead
    near = [t * 2**62 + m + j for t in (-3, -1, 0, 2, 3)
            for m in (0, 4 * 12345, 2**61, 2**62 - 4) for j in range(4)]
    cases = {
        "equal_leads": (near * 2, 2),
        "duplicates_only": ([-(2**70) + 7, 5 * 2**62, 2**65 - 1] * 40, 2),
        "negative_top": ([-(2**64) - 3 * j for j in range(50)] * 2, 2),
        # the top limb spans [-2^63, 2^63): b clamps to 0 and the lead is it
        "widest_top": ([t * 2**62 + d for t in (-(2**63), -1, 2**63 - 1)
                        for d in (0, 1, 2**61, 2**62 - 1)] * 3, 2),
        "three_limbs": ([t * 2**124 + m * 2**62 + j for t in (-2, 0, 1)
                         for m in (0, 3, 2**62 - 1) for j in (0, 1, 2, 3)] * 2, 3),
    }

    @pytest.mark.parametrize("parts", [1, 3])
    @pytest.mark.parametrize("name", list(cases))
    def test_against_sorted(self, name, parts):
        values, L = self.cases[name]
        for seed in range(3):
            tables = self.tables(values, parts, seed)
            assert self.runs(tables, L) == self.want(tables)

    @staticmethod
    def sorts(monkeypatch):
        """Record each argsort's kind and each lexsort's length."""
        calls = []
        argsort, lexsort = np.argsort, np.lexsort
        monkeypatch.setattr(np, "argsort", lambda a, kind=None: calls.append(
            ("argsort", kind)) or argsort(a, kind=kind))
        monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(
            ("lexsort", keys.shape[1])) or lexsort(keys))
        return calls

    def test_one_limb_sorts(self, monkeypatch):
        calls = self.sorts(monkeypatch)
        ac._runs([np.array([[5, 1, 5, -2]]), np.ones(4, dtype=np.int64)])
        assert calls == [("argsort", None)]

    def test_lexsort_only_unequal_ties(self, monkeypatch):
        calls = self.sorts(monkeypatch)
        # top limbs all 0: b = 62 and the lead is the whole low limb
        tables = self.tables([3, 1, 2**62 - 1, 0, 2**40, 7] * 2, 2, 0)
        assert self.runs(tables, 2) == self.want(tables)
        assert calls == [("argsort", None)]
        del calls[:]
        # top limbs 1 and 2 leave b = 60: the five sums 2^62 + 0..3 share one
        # lead, 2^63 + 2 and 2^63 + 3 another, and 2^62 + 2^60 is alone
        tied = [2**62, 2**62 + 1, 2**62 + 1, 2**62 + 2, 2**62 + 3,
                2**62 + 2**60, 2**63 + 2, 2**63 + 3]
        vals, _ = self.runs([(tied, [1] * len(tied))], 2)
        assert vals == sorted(set(tied))
        assert calls == [("argsort", None), ("lexsort", 7)]

    @settings(max_examples=60, deadline=None)
    @given(X=st.lists(TestInt64Kernel.wide, min_size=1, max_size=6, unique=True),
           s=st.integers(1, 3), k=st.integers(1, 4))
    def test_keys_strictly_ascend(self, X, s, k):
        values = ac.rep_function([X] * s, k).values.tolist()
        assert all(a < b for a, b in zip(values, values[1:]))


def _packed_cases(n: int) -> dict:
    rng = random.Random(7)
    return {
        "narrow_span": [rng.randint(-40, 40) for _ in range(n)],
        # span 2^64 - 1: the shift drops 14 bits and key - min wraps in int64;
        # runs of neighbours share their dropped-bit words
        "wide_span": [-(2**63), 2**63 - 1]
                     + [rng.randint(-(2**63), 2**63 - 1) for _ in range(n)]
                     + [t + j for t in (-(2**63), -5, 2**62)
                        for j in range(0, 200, 3)] * 3,
        "many_duplicates": [rng.choice([-(2**62), -1, 0, 3, 2**61]) for _ in range(n)],
    }


class TestPackedSort:
    """One unsorted one-limb table of at least _PACK_FROM entries sorts as
    packed words, key - min above the entry's index, which drop low key bits
    only when the two do not fit in 63 bits.  Words that dropped bits may tie
    on unequal keys, which _sort_ties orders."""

    n = ac._PACK_FROM + 321
    cases = _packed_cases(n)

    @pytest.mark.parametrize("name", list(cases))
    def test_against_counter(self, name):
        values = self.cases[name]
        assert len(values) >= ac._PACK_FROM
        rng = random.Random(name)
        for _ in range(2):
            values = rng.sample(values, len(values))
            table = (values, [rng.randint(1, 3) for _ in values])
            assert TestLeadSort.runs([table], 1) == TestLeadSort.want([table])

    def test_wide_span_shifts_and_ties(self):
        _, tied = ac._packed_order(np.array(self.cases["wide_span"]))
        assert tied is not None and tied.any()
        _, tied = ac._packed_order(np.array(self.cases["narrow_span"]))
        assert tied is None

    def test_object_counts(self):
        vs = self.cases["many_duplicates"]
        cs = [2**70 + i for i in range(len(vs))]
        keys, counts = ac._runs([np.array([vs]), np.array(cs, dtype=object)])
        assert (keys[0].tolist(), counts.tolist()) == TestLeadSort.want([(vs, cs)])

    def test_one_sort_no_argsort(self, monkeypatch):
        calls = TestLeadSort.sorts(monkeypatch)

        def profile(frame, event, arg):
            if (event == "c_call" and getattr(arg, "__name__", "") == "sort"
                    and isinstance(getattr(arg, "__self__", None), np.ndarray)):
                calls.append(("sort", len(arg.__self__)))
        keys = np.array([self.cases["narrow_span"]])
        sys.setprofile(profile)
        try:
            ac._runs([keys, np.ones(self.n, dtype=np.int64)])
        finally:
            sys.setprofile(None)
        assert calls == [("sort", self.n)]


class TestSquare:
    """_power(t, s), the kernel for s equal lists, against the s-fold
    _convolve: each multiset of s entries once, weighted by its multinomial
    coefficient times its count product.  At s = 2 it squares a table, c_a^2
    on the diagonal and 2 c_a c_b off it."""

    # element ranges whose sums of four 4th powers take one, two and three limbs
    ranges = {1: 2**12, 2: 2**25, 3: 2**40}

    @pytest.mark.parametrize("block", [1, 7, 64, 1000])
    @pytest.mark.parametrize("dtype", [np.int64, object])
    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_equals_general_convolution(self, monkeypatch, L, dtype, block):
        monkeypatch.setattr(ac, "_BLOCK_PAIRS", block)
        rng = random.Random(L * block)
        hi = self.ranges[L]
        for s in (1, 2, 3, 4):
            X = [hi] + [rng.randint(-hi, hi) for _ in range(rng.randint(0, 9 if s < 4 else 5))]
            # x and -x share a 4th power, so _runs merges them: counts > 1
            values = [x**4 for x in X + [-x for x in X[::2]]] + [-(x**4) for x in X[::3]]
            assert ac._limbs(4 * max(map(abs, values))) == L
            counts = [rng.randint(1, 5) + (2**70 if dtype is object else 0)
                      for _ in values]
            t = ac._runs([ac._split(values, L), np.array(counts, dtype=dtype)])
            want_keys, want = t
            for _ in range(s - 1):
                want_keys, want = ac._join(ac._convolve((want_keys, want), t))
            keys, got = ac._join(ac._power(t, s))
            assert keys.dtype == np.int64 and got.dtype == want.dtype
            assert np.array_equal(keys, want_keys), s
            assert got.tolist() == want.tolist(), s

    def test_diagonal_count_is_never_doubled(self):
        # 2 (2^31 + 5)^2 passes 2^63; (2^31 + 5)^2 + 2 (2^31 + 5) + 1 does not
        c = 2**31 + 5
        t = (ac._split([1, 2**40], 1), np.array([c, 1], dtype=np.int64))
        keys, counts = ac._join(ac._power(t, 2))
        assert counts.dtype == np.int64
        assert keys.tolist() == [[2, 2**40 + 1, 2**41]]
        assert counts.tolist() == [c * c, 2 * c, 1]
        assert int(counts.sum()) == (c + 1)**2 < 2**63

    def test_triple_counts_at_the_int64_edge(self):
        # (c + 2)^3 < 2^63 bounds every count, but 3 c^3 passes 2^63: a
        # kernel that scaled c^3 by 3 before dividing by 3 would wrap
        c = 2**21 - 3
        values = [1, 2**20, 2**40]
        t = (ac._split(values, 1), np.array([c, 1, 1], dtype=np.int64))
        keys, counts = ac._join(ac._power(t, 3))
        want = Counter()
        for idx in product(range(3), repeat=3):
            want[sum(values[i] for i in idx)] += math.prod((c, 1, 1)[i] for i in idx)
        assert counts.dtype == np.int64
        assert keys.tolist() == [sorted(want)]
        assert counts.tolist() == [want[v] for v in sorted(want)]
        assert max(want.values()) == c**3 > 2**62
        assert int(counts.sum()) == (c + 2)**3 < 2**63

    def test_runs_gets_each_multiset_once(self, monkeypatch):
        # C(102, 3) = 171,700 multisets of 100 entries; the pair table times
        # the single table would send 5,050 * 100 = 505,000 entries
        sizes = []
        runs = ac._runs
        monkeypatch.setattr(ac, "_runs", lambda table: sizes.append(len(table[1]))
                            or runs(table))
        assert ac.s_count(range(1, 101), 3, 3).S == 7475446
        assert sizes[0] == 100   # the single table
        assert sum(sizes[1:]) == math.comb(102, 3) == 171_700

    @staticmethod
    def powers(monkeypatch):
        """Record (table entries, s) of each _power call."""
        calls = []
        power = ac._power
        monkeypatch.setattr(ac, "_power", lambda t, s: calls.append((len(t[1]), s))
                            or power(t, s))
        return calls

    # s equal domains are one _power of s; the old second id counted squarings
    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_s_count_matches_brute_force(self, monkeypatch, s):
        calls = self.powers(monkeypatch)
        monkeypatch.setattr(ac, "_BLOCK_PAIRS", 16)
        rng = random.Random(s)
        for k in (1, 2, 3):
            X = rng.sample(range(-15, 16), 7 if s < 4 else 5)
            assert ac.s_count(X, s, k).S == brute_force_s_count(X, s, k)
        assert [m for _, m in calls] == [s] * 3

    def test_t_pq_left_table_is_squared(self, monkeypatch):
        calls = self.powers(monkeypatch)
        monkeypatch.setattr(ac, "_BLOCK_PAIRS", 16)
        for E, k in (([-5, 1, 3, 7], 2), ([-7, -1, 3, 5], 3)):
            assert ac.t_pq_count(E, 3, k, 2, 3).S == ac.brute_force_t_pq(E, 3, k, 2, 3)
        # the two halves of the left table, p^k x^k and -p^k x^k, are squared;
        # the right table's lists differ, so each is a power of one
        assert calls == [(4, 2), (4, 2), (4, 1), (4, 1)] * 2


class TestRangeBlocks:
    """The pair kernel cuts a table into blocks of the pairs whose sums lie
    in [B_t, B_t+1): _below splits each row exactly at B, the reduced blocks
    ascend with no overlap, and no block is merged with another."""

    @staticmethod
    def value(L):
        """Keys of L limbs whose sums of two fit L limbs: wide, or clustered
        near 0 and the limb edges, where leads tie and carries happen."""
        edge = 2 ** (62 * L) - 1
        near = st.sampled_from([0, 1, 2**61, 2**62 - 1, 2**62, edge])
        return (st.integers(-edge, edge)
                | st.builds(lambda v, d, neg: (v + d) * (-1) ** neg,
                            near, st.integers(-3, 3), st.booleans())
                ).map(lambda v: max(-edge, min(edge, v)))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_below_counts_exactly(self, data):
        L = data.draw(st.integers(1, 3), label="L")
        rows = data.draw(st.lists(self.value(L), min_size=1, max_size=12))
        cols = sorted(data.draw(st.lists(self.value(L), min_size=1, max_size=12)))
        sums = [r + c for r in rows for c in cols]
        bound = data.draw(st.sampled_from(sums) | st.integers(min(sums) - 2, max(sums) + 2))
        got = ac._below(ac._split(rows, L), ac._split(cols, L), bound)
        assert got.tolist() == [sum(r + c < bound for c in cols) for r in rows]

    @staticmethod
    def ascending(monkeypatch):
        """Wrap _pairs: each reduced block's keys ascend strictly and lie
        above the last key of the block before.  Returns (pairs, distinct
        sums) of each block, in the order built."""
        sizes, block, pairs = [], ac._block, ac._pairs
        spy = lambda *args: sizes.append([len((out := block(*args))[1])]) or out

        def checked(*args):
            last, blocks = None, pairs(*args)
            while True:
                monkeypatch.setattr(ac, "_block", spy)
                try:
                    keys, counts = next(blocks)
                except StopIteration:
                    return
                finally:
                    monkeypatch.setattr(ac, "_block", block)
                values = ac.RepFunction(1, 1, (), keys, counts, 0).values.tolist()
                assert all(a < b for a, b in zip(values, values[1:]))
                assert last is None or values[0] > last
                last = values[-1]
                sizes[-1].append(len(values))
                yield keys, counts
        monkeypatch.setattr(ac, "_pairs", checked)
        return sizes

    # runs of one sum longer than _BLOCK_PAIRS (k = 1), negative elements
    # at odd k (x^3 + (-x)^3 = 0), and s = 2, 3 and 4
    cases = [(range(-70, 71), 2, 1), (range(-20, 21), 2, 3),
             (range(-12, 13), 3, 3), (range(-8, 9), 4, 1)]

    @pytest.mark.parametrize("block", [1, 7, 64])
    @pytest.mark.parametrize("X,s,k", cases)
    def test_blocks_ascend(self, monkeypatch, block, X, s, k):
        sizes = self.ascending(monkeypatch)
        monkeypatch.setattr(ac, "_BLOCK_PAIRS", block)
        want = Counter(map(sum, product([x**k for x in X], repeat=s)))
        rep = ac.rep_function([X] * s, k)
        assert rep.table == want
        assert len(sizes) > 1
        if k == 1:  # one sum's pairs, one per multiset, outnumber _BLOCK_PAIRS
            runs = Counter(map(sum, combinations_with_replacement(X, s)))
            assert max(runs.values()) > block
        assert ac.s_count(X, s, k).S == sum(c * c for c in want.values())

    def test_s_count_at_the_default_block_size(self, monkeypatch):
        sizes = self.ascending(monkeypatch)
        cubes = np.arange(1, 2001, dtype=np.int64) ** 3
        _, gamma = np.unique((cubes[:, None] + cubes).ravel(), return_counts=True)
        assert ac.s_count(range(1, 2001), 2, 3).S == int(gamma @ gamma)
        assert len(sizes) >= 2_001_000 // ac._BLOCK_PAIRS

    def test_two_limb_table_at_the_default_block_size(self, monkeypatch):
        # low limbs 2^61 + 7x carry into the top limb; x + y repeats
        sizes = self.ascending(monkeypatch)
        X = [3 * 2**61 + 7 * x for x in range(800)]
        assert ac._limbs(2 * max(X)) == 2
        assert ac.s_count(X, 2, 1).S == brute_force_s_count(X, 2, 1)
        assert len(sizes) > 1

    def test_s_count_memory(self):
        # pairs_k10's input (count_wide, seed 1): its whole table is 11.5 MiB,
        # and holding it with a copy passes 23 MiB; a sorted block of about
        # 2^18 two-limb pairs peaks near 13 MiB
        X = sorted(random.Random(1).sample(range(1, 3001), 1000))
        tracemalloc.start()
        try:
            assert ac.s_count(X, 2, 10).S == 1999000
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 17 * 2**20


class TestPinnedTables:
    """sha256 of rep_function's key bytes and counts on the count_wide inputs
    at seed 1, taken from the kernel before its gathers went through
    np.take: the kernel's data movement must not change one bit."""

    @staticmethod
    def inputs():
        X = sorted(random.Random(1).sample(range(1, 3001), 1000))
        spec = smooth_sets.multilevel_spec(3, bound_engine.theta_schedule(3, 1.0))
        smooth = smooth_sets.build_multilevel(spec, 1e6)[-1].elements
        return {"pairs_k10": ([X] * 2, 10),
                "smooth_pairs_k8": ([smooth] * 2, 8),
                "triples_k11": ([range(1, 101)] * 3, 11)}

    pins = {
        "pairs_k10": (
            (2, 500500),
            "286efc0ad6ab48d35f3d045ae62bbdc901de99da8c6a641ed0d15c8fd6d0c148",
            "72ca546ef0ecdfda87966308d5c364a808b2456f80e74a39d805e4feef9a4233"),
        "smooth_pairs_k8": (
            (3, 361675),
            "49020064123d062ff95f7e5b882452812430fe7fb61f6bfa58ffc19c035ceaed",
            "c3934b5e0e72e4ed34c47971aeddcfb8f5c13355ab01f6f2150d9cac2049a4dd"),
        "triples_k11": (
            (2, 171700),
            "c7e05bb591c17009c34b34a4b4b5dd8490b5981b333ec477c63116f80f1bd671",
            "b95212edede6a55b5cf9b91e76a0837822d46de1454b607c960083fe7c965b6b"),
    }

    def test_key_and_count_bytes(self):
        for name, (domains, k) in self.inputs().items():
            rep = ac.rep_function(domains, k)
            assert rep.counts.dtype == np.int64
            got = (rep.keys.shape, hashlib.sha256(rep.keys.tobytes()).hexdigest(),
                   hashlib.sha256(rep.counts.tobytes()).hexdigest())
            assert got == self.pins[name], name


class TestLemma1:
    @pytest.mark.parametrize("P,lhs,rhs", [
        (8, 120, 184), (12, 284, 428), (16, 1471, 6144)])
    def test_pinned_sides(self, P, lhs, rhs):
        rep = ac.lemma1_check(3, 2, P, 0.4, base_levels=0)
        assert (rep.lhs, rep.rhs) == (lhs, rhs)
        assert rep.ratio <= 2.0
        assert (rep.theta, rep.base_levels, rep.inner_size) == (0.4, 0, P)

    def test_window_required(self):
        # P^theta below 2 leaves no primes to multiply by; theta <= 1/k also
        # trips the limiting-case warning on the inner build
        with pytest.warns(UserWarning):
            with pytest.raises(DomainError):
                ac.lemma1_check(3, 2, 4, 0.2, base_levels=0)

    def test_empty_top_window_is_the_construction_error(self):
        # the same check as every level of smooth_sets: EmptyWindowError with
        # its level, which is a DomainError too
        with pytest.raises(EmptyWindowError) as err:
            ac.lemma1_check(3, 2, 2.5, 0.4)
        assert str(err.value) == ("level 0: no primes in [2, 1] "
                                  "(lemma 1 top window, P^theta = 1.443)")
        assert err.value.level == 0
        assert isinstance(err.value, DomainError)

    @pytest.mark.parametrize("s", [1, 0, -2, 2.0, 2.5, "3", None])
    def test_s_refused_before_any_set(self, monkeypatch, s):
        def build(*args):
            raise AssertionError("a set was built")
        monkeypatch.setattr(smooth_sets, "build_single_levels", build)
        with pytest.raises(DomainError, match=f"got {s!r}"):
            ac.lemma1_check(3, s, 8, 0.4)


class TestExponentFit:
    def test_synthetic_exact_square(self):
        fit = ac.exponent_fit([(10, 100), (20, 400), (40, 1600)])
        assert fit.slope == pytest.approx(2.0, abs=1e-9)

    def test_cube_pairs_slope(self):
        runs = [(P, ac.s_count(range(1, P + 1), 2, 3).S) for P in (20, 40, 80)]
        fit = ac.exponent_fit(runs)
        assert 1.8 <= fit.slope <= 2.2

    def test_degenerate(self):
        with pytest.raises(DomainError):
            ac.exponent_fit([(10, 100), (20, 400)])
        with pytest.raises(DomainError):
            ac.exponent_fit([(10, 100), (10, 105), (20, 400)])


class TestParsevalConsistency:
    @pytest.mark.parametrize("k,P,s", [(2, 3, 2), (3, 4, 2), (2, 5, 2)])
    def test_moment_equals_count(self, k, P, s):
        S = ac.s_count(range(1, P + 1), s, k).S
        mom = ea.exact_moment(ea.abs_power(ea.FullInterval(P=P, k=k), 2 * s))
        assert round(mom) == S
        assert abs(mom - S) < 1e-6
