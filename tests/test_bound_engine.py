import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from waring import bound_engine as be
from waring.errors import DomainError, RootBracketError


class TestLambdaClosed:
    def test_seed_k3(self):
        assert be.lambda_closed(3, 2) == 2.0

    def test_seed_collapses_for_every_k(self):
        for k in range(3, 30):
            assert be.lambda_closed(k, 2) == pytest.approx(2.0, abs=1e-15)

    def test_hand_value(self):
        assert be.lambda_closed(3, 3) == pytest.approx(3.75, abs=1e-15)

    @pytest.mark.parametrize("k,s", [(2, 3), (3, 1), (0, 2)])
    def test_domain(self, k, s):
        with pytest.raises(DomainError):
            be.lambda_closed(k, s)


class TestLambdaIterate:
    def test_hand_value(self):
        table = be.lambda_iterate(3, 3, 1 / 3)
        assert table.lambda_at(3) == pytest.approx(3.75, abs=1e-12)
        assert table.lambda_at(3) == pytest.approx(be.lambda_closed(3, 3))

    def test_seed_only(self):
        table = be.lambda_iterate(3, 2, 0.9)
        assert table.lambdas == (2.0,)
        assert table.s_max == 2

    def test_matches_closed_form_at_limit(self):
        table = be.lambda_iterate(10, 50, 1 / 10)
        for s in range(2, 51):
            assert abs(table.lambda_at(s) - be.lambda_closed(10, s)) < 1e-9

    def test_delta_column_consistent(self):
        table = be.lambda_iterate(5, 20, 0.3)
        for s in range(2, 21):
            assert table.delta_at(s) == pytest.approx(
                table.lambda_at(s) - (2 * s - 5), abs=1e-12)

    def test_policy_tag(self):
        assert be.lambda_iterate(3, 5, 0.5).policy == "fixed-theta"

    def test_theta_domain(self):
        with pytest.raises(DomainError):
            be.lambda_iterate(3, 5, 0.0)
        with pytest.raises(DomainError):
            be.lambda_iterate(3, 5, 1.5)


class TestSolveSigma:
    def test_k3_root(self):
        sig = be.solve_sigma(3)
        assert sig.lambda_root == pytest.approx(1.486, abs=5e-4)
        assert sig.sigma_hat == pytest.approx(0.02893, abs=5e-6)
        assert sig.beta == pytest.approx(16 / 9)

    def test_residual_invariant(self):
        for k in (3, 7, 50, 1000):
            sig = be.solve_sigma(k)
            assert abs((1 + sig.lambda_root) * sig.beta
                       - math.exp(sig.lambda_root)) < 1e-9

    def test_large_k_trend(self):
        # root approaches log k + log log k
        for k in (50, 100, 500):
            sig = be.solve_sigma(k)
            ratio = sig.lambda_root / (math.log(k) + math.log(math.log(k)))
            assert 0.8 < ratio < 1.2

    def test_s_star(self):
        sig = be.solve_sigma(3)
        assert sig.s_star == pytest.approx(sig.lambda_root / math.log(4 / 3))

    def test_domain(self):
        with pytest.raises(DomainError):
            be.solve_sigma(2)

    @pytest.mark.parametrize("ks", [range(37_690, 37_801),
                                    range(37_801, 200_001, 997)])
    def test_large_k_root_is_a_closed_sign_change(self, ks):
        # past k = 37,700 one ulp of the root moves the residual past 1e-9
        for k in ks:
            sig = be.solve_sigma(k)
            x, step = sig.lambda_root, 2 * math.ulp(sig.lambda_root)
            assert be._sigma_gap(x - step, sig.beta) > 0 >= be._sigma_gap(x + step, sig.beta)
            assert sig.residual <= 4 * step * sig.beta * (1 + x)

    def test_no_sign_change_is_refused(self, monkeypatch):
        monkeypatch.setattr(be, "_sigma_gap", lambda x, beta: 1.0)
        with pytest.raises(RootBracketError, match="no sign change"):
            be.solve_sigma(37_701)


class TestSigmaOfS:
    def test_integer_max_near_sigma_hat(self):
        # per-s saving (1 - (k-2)(k/(k+1))^(s-2)) / (4s); its maximum over
        # integer s sits next to the continuous optimum sigma_hat
        sig = be.solve_sigma(3)
        best = max((1 - (3 - 2) * (3 / 4) ** (s - 2)) / (4 * s)
                   for s in range(2, 60))
        assert abs(best - sig.sigma_hat) < 0.05 * sig.sigma_hat


class TestThetaSchedule:
    def test_endpoint_collapses(self):
        assert be.theta_schedule(3, 1.0).thetas[-1] == 1 / 3

    def test_endpoint_exact_across_k(self):
        for k in range(3, 31):
            for d in (0.25, 1.0, k - 0.25):
                assert be.theta_schedule(k, d).thetas[-1] == 1.0 / k

    def test_first_value_hand(self):
        sched = be.theta_schedule(3, 1.0)
        assert sched.thetas[0] == pytest.approx(7 / 27, abs=1e-12)

    def test_linear_step_identity(self):
        for k in (3, 7, 19):
            for d in (0.5, 2.5, k / 2):
                if not 0 < d < k:
                    continue
                sched = be.theta_schedule(k, d)
                a, b = (k - d) / (2 * k), 1 / (2 * k)
                for j in range(k - 1):
                    res = sched.thetas[j] - (a * sched.thetas[j + 1] + b)
                    assert abs(res) < 1e-12

    def test_monotone_and_bounded(self):
        sched = be.theta_schedule(8, 3.0)
        assert all(x < y for x, y in zip(sched.thetas, sched.thetas[1:]))
        assert all(0 < t <= 1 / 8 for t in sched.thetas)

    def test_domain(self):
        with pytest.raises(DomainError):
            be.theta_schedule(3, 3.0)
        with pytest.raises(DomainError):
            be.theta_schedule(3, 0.0)


class TestDeltaIterate:
    def test_seed(self):
        assert be.delta_iterate(3, 5).delta_at(2) == 1.0
        assert be.delta_iterate(9, 5).delta_at(2) == 7.0

    def test_hand_value(self):
        assert be.delta_iterate(3, 3).delta_at(3) == pytest.approx(0.6, abs=1e-12)

    def test_monotone_decreasing_positive(self):
        for table in (be.delta_iterate(6, 80), be.delta_iterate(6, 80).variant):
            ds = [table.delta_at(s) for s in range(2, 81)]
            assert all(x > y > 0 for x, y in zip(ds, ds[1:]))

    def test_decay_bound_holds_at_k5(self):
        table = be.delta_iterate(5, 50)
        for s in range(2, 51):
            assert table.delta_at(s) <= be.delta_bound(5, s)

    def test_variant_decays_slower(self):
        # the full two-term theta is larger, which keeps delta larger
        table = be.delta_iterate(12, 40)
        for s in range(3, 41):
            assert table.variant.delta_at(s) >= table.delta_at(s)

    def test_variant_built_on_first_read(self):
        table = be.delta_iterate(7, 30)
        assert "variant" not in vars(table)
        full = be._delta_steps(7, 30, full=True)
        assert table.variant == full
        assert table.variant is table.variant
        assert table.variant.variant is None

    def test_fixed_theta_has_no_variant(self):
        assert be.lambda_iterate(5, 20, 0.2).variant is None

    def test_lambda_column(self):
        table = be.delta_iterate(4, 10)
        for s in range(2, 11):
            assert table.lambda_at(s) == pytest.approx(
                table.delta_at(s) + 2 * s - 4)


class TestGkBound:
    def test_pinned_t1_k10(self):
        r = be.gk_bound(10, "T1")
        assert r.bound == 121
        assert r.choice["v"] == 46
        assert r.continuous_optimum == pytest.approx(45.654, abs=2e-3)

    def test_pinned_t2_k10(self):
        r = be.gk_bound(10, "T2")
        assert r.bound == 83
        assert r.choice["u"] == 31
        assert r.choice["bound_exact_delta"] == 77

    @pytest.mark.parametrize("k,thm,pinned", [
        (20, "T1", 267), (20, "T2", 175), (50, "T1", 765), (50, "T2", 473)])
    def test_pinned_regressions(self, k, thm, pinned):
        assert be.gk_bound(k, thm).bound == pinned

    def test_pinned_t2_large_k(self):
        # the exact scan reads Delta(s) past s = 830,000, and keeps Delta alone
        r = be.gk_bound(100_000, "T2")
        assert (r.bound, r.choice["bound_exact_delta"],
                r.choice["scan_exact_bound_best"]) == (1762313, 1834093, 1762297)

    def test_t2_below_t1(self):
        for k in (10, 20, 50):
            assert be.gk_bound(k, 2).bound < be.gk_bound(k, 1).bound

    def test_bound_equals_formula_at_choice(self):
        sig = be.solve_sigma(20)
        r1 = be.gk_bound(20, "T1")
        v, ct = r1.choice["v"], r1.choice["ceil_term"]
        assert ct == math.ceil(18 / (2 * sig.sigma_hat) * (20 / 21) ** v)
        assert r1.bound == 7 + 2 * v + 2 * ct
        r2 = be.gk_bound(20, "T2")
        u, ct = r2.choice["u"], r2.choice["ceil_term"]
        assert ct == math.ceil(be.delta_bound(20, u) / (2 * sig.sigma_hat))
        assert r2.bound == 3 + 2 * u + 2 * ct

    def test_scan_minimum_not_above_prescribed(self):
        r = be.gk_bound(20, "T2")
        assert r.choice["scan_bound_best"] <= r.bound

    def test_asymptote_fields(self):
        r1 = be.gk_bound(50, "T1")
        assert r1.asymptote == pytest.approx(
            100 * (math.log(50 * math.log(50)) + 1 + math.log(2)))
        r2 = be.gk_bound(50, "T2")
        assert r2.asymptote == pytest.approx(50 * math.log(50 * math.log(50)))

    def test_asymptotic_sanity(self):
        # T1 against its leading term sits in the window pointwise; the T2
        # ratio decreases into the window as k grows.
        t2_ratios = []
        for k in (50, 100, 500, 1000):
            r1 = be.gk_bound(k, "T1")
            lead = 2 * k * math.log(k * math.log(k))
            assert 0.9 < r1.bound / lead < 1.5
            r2 = be.gk_bound(k, "T2")
            t2_ratios.append(r2.bound / (k * math.log(k * math.log(k))))
        assert all(a > b for a, b in zip(t2_ratios, t2_ratios[1:]))
        assert 0.9 < t2_ratios[-1] < 1.5

    def test_small_k_caveat(self):
        assert be.gk_bound(3, "T1").small_k_caveat
        assert not be.gk_bound(10, "T1").small_k_caveat

    def test_theorem_tags(self):
        assert be.gk_bound(10, 1).theorem == "T1"
        assert be.gk_bound(10, "2").theorem == "T2"
        with pytest.raises(DomainError):
            be.gk_bound(10, "T3")


def _full_scan_gk(k, theorem):
    """The bound scans as they were before they stopped early: every v in
    [0, max(8, ceil(8 * max(vstar, 1)))] and every u within 6k of the
    prescribed u (but >= 2) is evaluated.  Those windows hold each optimum:
    none lies on their upper edge.  The oracle for the pruned scans of
    gk_bound."""
    sig = be.solve_sigma(k)
    caveat = k < be.SMALL_K_CUTOFF

    def t1_value(v):
        arg = (k - 2) / (2 * sig.sigma_hat) * (k / (k + 1)) ** v
        ceil_term = math.ceil(arg)
        return 7 + 2 * v + 2 * ceil_term, arg, ceil_term

    def t2_value(u, delta_u):
        ceil_term = math.ceil(delta_u / (2 * sig.sigma_hat))
        return 3 + 2 * u + 2 * ceil_term, ceil_term

    if theorem == "T1":
        vstar = math.log(sig.mu * (k - 2) / (2 * sig.sigma_hat)) / sig.mu
        v_hi = max(8, math.ceil(8 * max(vstar, 1.0)))
        values = [t1_value(v)[0] for v in range(0, v_hi + 1)]
        best_bound = min(values)
        minimizers = [v for v, b in enumerate(values) if b == best_bound]
        v_opt = min(minimizers, key=lambda v: (abs(v - vstar), v))
        assert max(minimizers) < v_hi, k
        _, arg, ceil_term = t1_value(v_opt)
        return be.GkResult(
            k=k, theorem="T1", bound=best_bound,
            choice={"v": v_opt, "t": 1 + ceil_term, "ceil_term": ceil_term,
                    "ceil_arg": arg},
            continuous_optimum=vstar,
            asymptote=2 * k * (math.log(k * math.log(k)) + 1 + math.log(2)),
            small_k_caveat=caveat,
        )

    u_cont = 1 + (k + 1) / 2 * math.log(1 / sig.sigma_hat)
    u = 1 + math.ceil((k + 1) / 2 * math.log(1 / sig.sigma_hat))
    scan_lo, scan_hi = max(2, u - 6 * k), u + 6 * k
    table = be.delta_iterate(k, scan_hi)
    delta_u_closed = be.delta_bound(k, u)
    delta_u_exact = table.delta_at(u)
    bound_closed, ceil_term = t2_value(u, delta_u_closed)
    bound_exact, _ = t2_value(u, delta_u_exact)

    def scan(delta_of_u):
        best = None
        for uu in range(scan_lo, scan_hi + 1):
            b, _ = t2_value(uu, delta_of_u(uu))
            if best is None or b < best[1]:
                best = (uu, b)
        assert best[0] < scan_hi, k
        return best

    scan_closed = scan(lambda uu: be.delta_bound(k, uu))
    scan_exact = scan(lambda uu: table.delta_at(uu))
    return be.GkResult(
        k=k, theorem="T2", bound=bound_closed,
        choice={"u": u, "t": 1 + ceil_term, "ceil_term": ceil_term,
                "delta_u_bound": delta_u_closed, "delta_u_exact": delta_u_exact,
                "bound_exact_delta": bound_exact,
                "scan_u_best": scan_closed[0], "scan_bound_best": scan_closed[1],
                "scan_exact_u_best": scan_exact[0],
                "scan_exact_bound_best": scan_exact[1]},
        continuous_optimum=u_cont,
        asymptote=k * math.log(k * math.log(k)),
        small_k_caveat=caveat,
    )


def _continued(arg, x):
    """arg[x]; past the end of arg its steps keep rising by 1/16 each, so
    the sequence stays convex and its lower bound grows without end."""
    n = len(arg)
    if x < n:
        return arg[x]
    last, j = (arg[-1] - arg[-2] if n > 1 else 0.0), x - n + 1
    return arg[-1] + j * last + j * (j + 1) / 32


@st.composite
def _scan_cases(draw):
    """(c, arg, start, lo, ties) for _scan_outward over x >= lo, with arg
    read through _continued.  arg is convex: its steps only rise, and they
    are multiples of 1/16, so every sum is exact and ceil sees exact
    integers too."""
    steps = sorted(draw(st.lists(st.integers(-96, 96), max_size=40)))
    arg = [draw(st.integers(-160, 160)) / 16]
    for step in steps:
        arg.append(arg[-1] + step / 16)
    n = len(arg)
    return (draw(st.integers(-10, 10)), arg, draw(st.integers(-3, n + 2)),
            draw(st.integers(0, n - 1)),
            draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))


def _record_scans(monkeypatch):
    """Wrap _scan_outward so each call appends the list of the x it reads."""
    scan, reads = be._scan_outward, []

    def recorded(c, arg_at, *args, **kwargs):
        reads.append([])

        def arg(x):
            reads[-1].append(x)
            return arg_at(x)
        return scan(c, arg, *args, **kwargs)

    monkeypatch.setattr(be, "_scan_outward", recorded)
    return reads


class TestPrunedScans:
    @pytest.mark.parametrize("theorem", ["T1", "T2"])
    def test_equal_to_full_scan(self, theorem):
        for k in [*range(3, 301), 1000, 5000]:
            assert be.gk_bound(k, theorem) == _full_scan_gk(k, theorem), k

    def test_exact_deltas_keep_ceil_term_nonnegative(self, monkeypatch):
        # the scans stop on the right only because every arg is >= 0; for
        # the exact T2 scan that is Delta(s) > 0 at every s it reads
        reads = _record_scans(monkeypatch)
        for k in [*range(3, 301), 1000, 5000]:
            reads.clear()
            be.gk_bound(k, "T2")
            read = reads[1]     # the closed scan first, then the exact one
            table = be.delta_iterate(k, max(read))
            assert all(table.delta_at(s) > 0 for s in read), k

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(3, 3000))
    @pytest.mark.parametrize("theorem", ["T1", "T2"])
    def test_equal_to_full_scan_any_k(self, theorem, k):
        assert be.gk_bound(k, theorem) == _full_scan_gk(k, theorem)

    @settings(max_examples=300, deadline=None)
    @given(_scan_cases())
    # the point after the start wins (bound 10 against 12) although its
    # lower bound 9.8 is above 12 - 3, so a stop margin 4 below +1 fails
    @example((0, [5.01, 3.9, 3.9, 4.9, 5.9], 0, 0, [0] * 5))
    def test_scan_outward_equals_brute_force(self, case):
        # past x = len(arg) + 96 the steps of arg are >= 0, so the values
        # rise from there on and the brute-force min may stop at +100
        c, arg, start, lo, ties = case

        def tie(x):
            return ties[x % len(ties)]
        got = be._scan_outward(c, lambda x: _continued(arg, x), start, lo,
                               tie=tie)
        assert got == min(
            (c + 2 * x + 2 * math.ceil(_continued(arg, x)), tie(x), x,
             _continued(arg, x)) for x in range(lo, len(arg) + 100))

    @pytest.mark.parametrize("k", [1000, 5000])
    def test_scans_read_order_sqrt_k_points(self, k, monkeypatch):
        # a scan that walks from a far end reads order k points or more
        reads = _record_scans(monkeypatch)
        be.gk_bound(k, "T1")
        be.gk_bound(k, "T2")
        assert len(reads) == 3
        assert max(map(len, reads)) <= 6 * math.sqrt(k), reads

    def test_t2_excess_over_log_shape_falls(self):
        # refs [4] and [8] give G(k) <= k(log k + log log k + O(1)); T2's
        # excess bound/k - log k - log log k stays bounded and trends down
        excess = [be.gk_bound(k, "T2").bound / k - math.log(k)
                  - math.log(math.log(k))
                  for k in (3, 10, 30, 100, 300, 1000, 3000, 10000)]
        assert all(a >= b for a, b in zip(excess, excess[1:])), excess
        assert max(excess) < 7.2
