"""Acceptance gate: every criterion, one test each, pass/fail line printed.

Criterion 6 is implemented exactly as stated and is expected to fail at
k=50: the exact coupled recursion exceeds the closed decay bound
2k*exp(-2(s-1)/(k+1)) by up to ~18% in the mid range (the bound's
derivation rests on a differential-equation approximation that undershoots
the early steps).  The red result is intentional; see the analysis in the
project's decisions ledger.
"""

import dataclasses

import pytest

from waring import acceptance


def _run(fn):
    res = fn(seed=0, quick=False)
    status = "PASS" if res.passed else "FAIL"
    print(f"{status} {res.cid:02d} {res.name} {res.detail} [{res.seconds:.2f}s]")
    return res


def test_criterion_1_closed_form_identity():
    res = _run(acceptance.criterion_1)
    assert res.passed, res.detail
    assert res.seconds < 1.0, f"runtime {res.seconds:.2f}s exceeds 1 s"


def test_criterion_2_parseval_master_oracle():
    res = _run(acceptance.criterion_2)
    assert res.passed, res.detail
    assert res.seconds < 60.0


def test_criterion_3_hand_pinned_counts():
    res = _run(acceptance.criterion_3)
    assert res.passed, res.detail


def test_criterion_4_distinct_sums_bound():
    res = _run(acceptance.criterion_4)
    assert res.passed, res.detail
    assert res.seconds < 10.0


def test_criterion_5_theta_schedule():
    res = _run(acceptance.criterion_5)
    assert res.passed, res.detail


def test_criterion_6_delta_bound_dominance():
    res = _run(acceptance.criterion_6)
    assert res.seconds < 5.0
    # Stated tolerance: pointwise dominance for k in {5,10,20,50}.  This
    # fails at k=50 (max ratio ~1.1774 around s=123); the assertion is kept
    # faithful to the criterion rather than weakened to make it green.
    assert res.passed, (
        "criterion 6 is unattainable as specified; the closed decay bound "
        "is violated at k=50: " + res.detail)


def test_criterion_7_gk_pinned_regressions():
    res = _run(acceptance.criterion_7)
    assert res.passed, res.detail


def test_criterion_8_lemma1_empirics():
    res = _run(acceptance.criterion_8)
    assert res.passed, res.detail
    assert res.seconds < 120.0


def test_criterion_9_tpq_oracle():
    res = _run(acceptance.criterion_9)
    assert res.passed, res.detail


def test_criterion_10_difference_laws():
    res = _run(acceptance.criterion_10)
    assert res.passed, res.detail


def test_criterion_11_weyl_non_explosion():
    res = _run(acceptance.criterion_11)
    assert res.passed, res.detail
    assert res.seconds < 60.0


def test_criterion_12_arc_self_consistency():
    res = _run(acceptance.criterion_12)
    assert res.passed, res.detail


def test_criterion_13_exponent_fit():
    res = _run(acceptance.criterion_13)
    assert res.passed, res.detail
    assert res.seconds < 120.0


def test_criterion_14_reproducibility():
    first = acceptance.run_criteria(seed=0, quick=False)
    res = _run(lambda **kw: acceptance.criterion_14(first, **kw))
    assert res.passed, res.detail


# the two cheapest criteria stand in for 1..13 where only the runs matter
_CHEAP = [acceptance.criterion_3, acceptance.criterion_5]


def test_run_all_runs_criteria_twice(monkeypatch):
    calls = []
    real = acceptance.run_criteria

    def counted(**kwargs):
        calls.append(kwargs)
        return real(**kwargs)

    monkeypatch.setattr(acceptance, "_CRITERIA", _CHEAP)
    monkeypatch.setattr(acceptance, "run_criteria", counted)
    results = acceptance.run_all(seed=0, quick=True)
    assert len(calls) == 2
    assert [r.cid for r in results] == [3, 5, 14]
    assert results[-1].passed


def test_criterion_14_detects_an_altered_first_run(monkeypatch):
    monkeypatch.setattr(acceptance, "_CRITERIA", _CHEAP)
    first = acceptance.run_criteria(seed=0, quick=True)
    first[1] = dataclasses.replace(first[1], detail=first[1].detail + " ")
    res = acceptance.criterion_14(seed=0, quick=True, first=first)
    assert not res.passed
    assert "identical=False" in res.detail


def test_quick_mode_runs_everything_fast():
    results = acceptance.run_all(seed=0, quick=True)
    assert len(results) == 14
    total = sum(r.seconds for r in results)
    assert total < 300.0
    # every criterion except the known-red dominance check passes in quick mode
    assert all(r.passed for r in results if r.cid != 6)
