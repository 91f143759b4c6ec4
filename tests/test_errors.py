"""errors.as_int, the one reader of an integer argument, at every entry point
that takes one."""

import re

import numpy as np
import pytest

from waring import aux_count as ac
from waring import bound_engine as be
from waring import differences as df
from waring import expsum_arcs as ea
from waring import phases
from waring import smooth_sets as ss
from waring.errors import DomainError

ARCS = ea.ArcDissection.make(4.0, 2)
MINOR = ea.abs_power(ea.FullInterval(4, 2), 2, "minor")
TABLE = be.delta_iterate(10, 20)
GEOMETRY = df.BalanceGeometry.from_thetas(3, 1e4, [0.3, 0.2, 0.1])
SMALL = 2.0**-12 * 0.7371                      # phases' big-integer route


def _sum(spec):
    """A spec's largest frequency and its frequencies, computed afresh."""
    ea.frequencies.cache_clear()
    return ea.max_frequency(spec), list(ea.frequencies(spec))


def _moment(e):
    f = ea.MomentFactor(ea.FullInterval(3, 2), e)
    conj = ea.MomentFactor(ea.FullInterval(3, 2), e, True)
    return f, ea.exact_moment(ea.MomentSpec((f, conj)))


# each entry: one call with its integer argument v, and a valid int for v
CASES = {
    "rep_function.domain": (lambda v: ac.rep_function([[1, v], [2, 3]], 2), 2),
    "rep_function.k": (lambda v: ac.rep_function([[1, 2]], v), 3),
    "s_count.element": (lambda v: ac.s_count([v, 2], 2, 3), 1),
    "s_count.s": (lambda v: ac.s_count([1, 2], v, 3), 2),
    "s_count.k": (lambda v: ac.s_count([1, 2], 2, v), 3),
    "distinct_sums_bound.domain": (
        lambda v: ac.distinct_sums_bound([[1, v], [1, 2]], 3), 3),
    "distinct_sums_bound.k": (lambda v: ac.distinct_sums_bound([[1, 2]], v), 3),
    "t_pq_count.E": (lambda v: ac.t_pq_count([1, v], 2, 2, 2, 5), 3),
    "t_pq_count.s": (lambda v: ac.t_pq_count([1, 3], v, 2, 2, 5), 2),
    "t_pq_count.k": (lambda v: ac.t_pq_count([1, 3], 2, v, 2, 5), 2),
    "t_pq_count.p": (lambda v: ac.t_pq_count([1, 3], 2, 2, v, 5), 2),
    "t_pq_count.q": (lambda v: ac.t_pq_count([1, 3], 2, 2, 2, v), 5),
    "lemma1_check.s": (lambda v: ac.lemma1_check(3, v, 100, 0.4), 2),
    "lemma1_check.k": (lambda v: ac.lemma1_check(v, 2, 100, 0.4), 3),
    "lemma1_check.base_levels": (
        lambda v: ac.lemma1_check(3, 2, 500, 0.4, base_levels=v), 1),
    "lambda_closed.k": (lambda v: be.lambda_closed(v, 5), 10),
    "lambda_closed.s": (lambda v: be.lambda_closed(10, v), 5),
    "lambda_iterate.s_max": (lambda v: be.lambda_iterate(10, v, 0.1), 20),
    "solve_sigma.k": (be.solve_sigma, 10),
    "theta_schedule.k": (lambda v: be.theta_schedule(v, 1.5), 10),
    "delta_bound.s": (lambda v: be.delta_bound(10, v), 5),
    "delta_iterate.k": (lambda v: be.delta_iterate(v, 20), 5),
    "delta_iterate.s_max": (lambda v: be.delta_iterate(5, v), 20),
    "delta_at.s": (TABLE.delta_at, 5),
    "gk_bound.k": (lambda v: be.gk_bound(v, 2), 10),
    "primes_in.lo": (lambda v: ss.primes_in(v, 30), 2),
    "primes_in.hi": (lambda v: ss.primes_in(2, v), 30),
    "build_single_levels.k": (lambda v: ss.build_single_levels(v, 100, 0.5, 1), 3),
    "build_single_levels.levels": (
        lambda v: ss.build_single_levels(3, 100, 0.5, v), 1),
    "multilevel_spec.k": (lambda v: ss.multilevel_spec(v, [0.3, 0.3, 0.3]), 3),
    "residue_profile.q": (lambda v: ss.residue_profile(range(1, 50), v), 5),
    "size_estimate.k": (lambda v: ss.size_estimate(v, 100.0), 3),
    "model_counts.s": (lambda v: df.model_counts(GEOMETRY, v, 1.0), 2),
    "FullInterval.P": (lambda v: _sum(ea.FullInterval(v, 3)), 10),
    "FullInterval.k": (lambda v: _sum(ea.FullInterval(100, v)), 10),
    "PrimeSmooth.k": (lambda v: _sum(ea.PrimeSmooth(v, 9.0, (2, 3), (1, 2))), 3),
    "DifferenceSum.q": (
        lambda v: _sum(ea.DifferenceSum(v, 7, (2,), ((3,),), 5)), 1000),
    "ArcDissection.k": (lambda v: ea.ArcDissection.make(10.0, v), 3),
    "arc_moment.samples_per_arc": (lambda v: ea.arc_moment(MINOR, ARCS, v), 16),
    "SamplingPolicy.n_points": (
        lambda v: ea.SamplingPolicy(v).candidates(ARCS), 8),
    "SamplingPolicy.seed": (
        lambda v: ea.SamplingPolicy(8, v).candidates(ARCS), 3),
    "weyl_ratio.P": (lambda v: ea.weyl_ratio(v, 3, ea.SamplingPolicy(16)), 10),
    "MomentFactor.exponent": (_moment, 2),
    "abs_power.power": (lambda v: ea.abs_power(ea.FullInterval(3, 2), v), 4),
    "unit_sum.frequency": (lambda v: phases.unit_sum([1, v], SMALL), 3),
}


class _NoWork:
    """Stands in for a module's numpy or math: any use is work begun before
    the argument was read."""

    def __getattr__(self, name):
        raise AssertionError(f"{name} was used before the argument was read")


@pytest.mark.parametrize("call,good", CASES.values(), ids=list(CASES))
def test_integer_argument_is_read_exactly(monkeypatch, call, good):
    # an int64 reads as the int: the same result, with no numpy scalar in it
    want = repr(call(good))
    assert repr(call(np.int64(good))) == want
    # a float, an integral float or a str is refused, naming the value,
    # before any set, table or sieve is built
    for module in (ac, be, ea, ss):
        monkeypatch.setattr(module, "math", _NoWork())
    for module in (ac, ea, ss):
        monkeypatch.setattr(module, "np", _NoWork())
    for bad in (good + 0.5, float(good), str(good)):
        with pytest.raises(DomainError, match=re.escape(repr(bad))):
            call(bad)
