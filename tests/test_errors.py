"""errors' readers and checks at every entry point: as_int for an integer
argument, at_least for an integer floor, as_real for a real argument and
check_budget for predicted work; and no other module refusing on its own."""

import ast
import math
import pathlib
import re
import tracemalloc

import numpy as np
import pytest

from waring import aux_count as ac
from waring import bound_engine as be
from waring import cli_reports as cli
from waring import differences as df
from waring import expsum_arcs as ea
from waring import phases
from waring import smooth_sets as ss
from waring.errors import BudgetError, DomainError

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


# each entry: one call with its real argument v, a valid value for v and,
# where the call refuses v by a range check of its own, that message for v
REAL_CASES = {
    "PrimeSmooth.make.P": (lambda v: ea.PrimeSmooth.make(3, v), 9.0),
    "build_single_levels.P": (lambda v: ss.build_single_levels(3, v, 0.4, 1), 100.0),
    "build_multilevel.P": (
        lambda v: ss.build_multilevel(ss.multilevel_spec(3, [0.3, 0.2, 0.1]), v), 1e4),
    "lemma1_check.P": (lambda v: ac.lemma1_check(3, 2, v, 0.4), 100.0),
    "size_estimate.P": (lambda v: ss.size_estimate(3, v), 100.0),
    "BalanceGeometry.from_thetas.P": (
        lambda v: df.BalanceGeometry.from_thetas(3, v, [0.3, 0.2, 0.1]), 1e4),
    "exponent_fit.P": (lambda v: ac.exponent_fit([(v, 5), (20, 9), (30, 12)]), 10.0),
    "unit_sum.alpha": (lambda v: phases.unit_sum([1, 2], v), 0.25),
    "ArcDissection.make.P": (lambda v: ea.ArcDissection.make(v, 3), 10.0,
                             "P must be finite and >= 2, got {}"),
    "build_single_levels.theta": (
        lambda v: ss.build_single_levels(3, 100.0, v, 1), 0.4,
        "theta must lie in (0, 1], got {}"),
    "lambda_iterate.theta": (lambda v: be.lambda_iterate(10, 20, v), 0.2,
                             "theta must lie in (0, 1], got {}"),
    "theta_schedule.delta_prev": (lambda v: be.theta_schedule(5, v), 1.0,
                                  "delta_prev must lie in (0, k); got {} for k=5"),
}


@pytest.mark.parametrize("case", REAL_CASES.values(), ids=list(REAL_CASES))
def test_real_argument_is_read_finite(monkeypatch, case):
    call, good, message = (*case, None)[:3]
    call(good)
    for module in (ac, be, df, ea, phases, ss):
        monkeypatch.setattr(module, "math", _NoWork())
    for module in (ac, ea, phases, ss):
        monkeypatch.setattr(module, "np", _NoWork())
    for bad in (math.nan, math.inf, -math.inf, "3", None):
        want = (re.escape(repr(bad)) if message is None
                else f"^{re.escape(message.format(bad))}$")
        with pytest.raises(DomainError, match=want):
            call(bad)


SCHEDULE = [0.3, 0.2, 0.1]


@pytest.mark.parametrize("call,P", [
    (lambda P: ss.build_single_levels(3, P, 0.4, 1), -5.0),
    (lambda P: ss.build_single_levels(3, P, 0.4, 0), -5.0),
    (lambda P: ss.build_multilevel(ss.multilevel_spec(3, SCHEDULE), P), -1e4),
    (lambda P: ss.build_multilevel(ss.multilevel_spec(3, SCHEDULE), P), 0.0),
    (lambda P: ac.lemma1_check(3, 2, P, 0.4), -100.0),
], ids=["single", "single-levels0", "multi", "multi0", "lemma1"])
def test_nonpositive_P_is_refused_as_geometry_refuses_it(call, P):
    # not a complex power's TypeError, the bare interval {1} at levels 0,
    # nor an EmptyWindowError at P = 0
    with pytest.raises(DomainError) as err:
        call(P)
    assert (type(err.value), str(err.value)) == (DomainError,
                                                 f"P must be positive, got {P}")
    with pytest.raises(DomainError, match=f"^{re.escape(str(err.value))}$"):
        df.BalanceGeometry.from_thetas(3, P, SCHEDULE)


@pytest.mark.parametrize("call", [
    lambda: ea.PrimeSmooth.make(3, -5.0),
    lambda: df.BalanceGeometry.from_thetas(3, -1.0, [0.3, 0.2, 0.1]),
    lambda: df.BalanceGeometry.from_thetas(3, 0.0, [0.3, 0.2, 0.1]),
    lambda: ac.exponent_fit([(0, 5), (20, 9), (30, 12)]),
    lambda: ac.exponent_fit([(10, 0), (20, 9), (30, 12)]),
], ids=["PrimeSmooth", "geometry-", "geometry0", "fit-P", "fit-S"])
def test_real_argument_outside_its_domain_is_refused(call):
    with pytest.raises(DomainError):
        call()


# each entry: the name a floor refusal gives, the floor and one call with v
FLOORS = {
    "rep_function.k": ("k", 1, lambda v: ac.rep_function([[1, 2]], v)),
    "s_count.s": ("s", 1, lambda v: ac.s_count([1, 2], v, 3)),
    "t_pq_count.s": ("s", 2, lambda v: ac.t_pq_count([1, 3], v, 2, 2, 5)),
    "lambda_closed.k": ("k", 3, lambda v: be.lambda_closed(v, 5)),
    "lambda_closed.s": ("s", 2, lambda v: be.lambda_closed(10, v)),
    "FullInterval.k": ("k", 1, lambda v: ea.FullInterval(10, v)),
    "ArcDissection.k": ("k", 2, lambda v: ea.ArcDissection.make(10.0, v)),
    "arc_moment.samples_per_arc": (
        "samples_per_arc", 16, lambda v: ea.arc_moment(MINOR, ARCS, v)),
    "SamplingPolicy.n_points": ("n_points", 1, ea.SamplingPolicy),
    "build_single_levels.k": (
        "k", 3, lambda v: ss.build_single_levels(v, 100, 0.5, 1)),
    "build_single_levels.levels": (
        "levels", 0, lambda v: ss.build_single_levels(3, 100, 0.5, v)),
    "residue_profile.q": ("q", 2, lambda v: ss.residue_profile(range(1, 50), v)),
    "primes_in.lo": ("lo", 2, lambda v: ss.primes_in(v, 30)),
    "diff.k": ("k", 1, lambda v: cli._cmd_diff(cli.RunConfig("diff", k=v))),
}


@pytest.mark.parametrize("name,least,call", FLOORS.values(), ids=list(FLOORS))
def test_floor_message(name, least, call):
    with pytest.raises(DomainError) as err:
        call(least - 1)
    assert str(err.value) == f"{name} must be >= {least}, got {least - 1}"


# each entry: the name a budget refusal gives and one over-budget call
BUDGETS = {
    "rep_function": lambda: ac.rep_function([range(100)] * 3, 2, budget_ops=10**5),
    "s_count": lambda: ac.s_count(range(100), 3, 2, budget_ops=10**5),
    "distinct_sums_bound": lambda: ac.distinct_sums_bound([[1, 2, 3]] * 3, 2,
                                                          budget_ops=26),
    "t_pq_count": lambda: ac.t_pq_count([1, 3, 5], 2, 2, 2, 7, budget_ops=80),
    "exact_moment: grid of 41 points": lambda: ea.exact_moment(
        ea.abs_power(ea.FullInterval(10, 1), 4), budget_grid=40),
    "f_i_sum": lambda: df.f_i_sum(0.1, 2, 3, [10, 10], [(2,), (3,)], 10, budget=999),
}


@pytest.mark.parametrize("what,call", BUDGETS.items(), ids=list(BUDGETS))
def test_budget_refusal_names_the_refused_function(what, call):
    with pytest.raises(BudgetError) as err:
        call()
    e = err.value
    assert str(e) == f"{what}: predicted cost {e.predicted} exceeds budget {e.budget}"
    assert e.predicted > e.budget


def test_s_count_refuses_a_range_unread():
    # (10^6 - 1)^2 pairs: refused on the range's length, with no tuple of it
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="^s_count: "):
            ac.s_count(range(1, 10**6), 2, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _template(node) -> str:
    """A message's literal text, with {} for each formatted value."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant) else "{}"
                       for v in node.values)
    return ""


def test_only_errors_formats_floors_and_budgets():
    # an integer floor is "must be >= " then a number or a formatted value;
    # a real floor (size_estimate's "P must be >= e^e ~ ...") is not one
    floor = re.compile(r"must be >= (\d|\{\})")
    src = pathlib.Path(ac.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
                continue
            func = node.exc.func
            name = getattr(func, "id", getattr(func, "attr", ""))
            if name == "BudgetError" or (name == "DomainError" and any(
                    floor.search(_template(a)) for a in node.exc.args)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
