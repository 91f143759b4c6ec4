"""The five benchmark workloads.

A workload builds its inputs from a seed, then runs a fixed list of
operations through waring's public functions; one run of the list is a
pass.  Every operation has a reference computed outside the timed region
by an independent route (reference.py) or taken from a pinned value, a
check comparing the two, and a corruption used to show that the check can
fail.  `collect` turns a raw result into the small value that is kept, so
results held across passes do not add to the memory being measured.

Functions are always looked up on their module at call time, so a traced
run sees the wrapped versions.
"""

from __future__ import annotations

import contextlib
import csv
import io
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from waring import (acceptance, aux_count, bound_engine, cli_reports,
                    differences, expsum_arcs, smooth_sets)

import reference as ref

# Pinned outputs of the seed code, each confirmed once against an
# independent numpy construction of the same sets.
PRIMES_5E6_1E7 = 316066          # pi(10^7) - pi(5 * 10^6)
MULTILEVEL_K3 = (850, "51ddeb20c1d62078db2ca68ad69316cba6c6f5e1e8c46c86603952c8acba018b")
LEMMA1_PINS = {3: (299470, 1945336), 11: (297606, 1941624)}   # P=500, theta=0.4

# frequencies() is an lru_cache; keep its cache_clear before any tracing
# wrapper replaces the module attribute.
_clear_frequencies = expsum_arcs.frequencies.cache_clear


def clear_caches() -> None:
    """Empty the caches a fresh CLI invocation would start without."""
    _clear_frequencies()


def _same(result, expected) -> bool:
    return result == expected


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[dict], Any]                  # timed
    reference: Callable[[dict], Any]            # untimed
    check: Callable[[Any, Any], bool] = _same
    corrupt: Callable[[Any], Any] = lambda r: r + 1
    collect: Callable[[Any, dict], Any] = lambda r, inp: r


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int, Path], dict]
    ops: tuple[Op, ...]


# ---------------------------------------------------------------------------
# verify: the full acceptance gate through the CLI
# ---------------------------------------------------------------------------

def _verify_inputs(seed: int, scratch: Path) -> dict:
    out = scratch / "verify.txt"
    return {"seed": seed, "out": out,
            "argv": ["verify", "--seed", str(seed), "--out", str(out)]}


def _run_cli(inp: dict) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli_reports.main(inp["argv"])
    return rc, buf.getvalue()


def _verify_collect(raw, inp: dict) -> tuple[int, str, str]:
    rc, stdout = raw
    text = inp["out"].read_text(encoding="utf-8")
    body = text.split("\n", 1)[1]      # drop the '# generated:' timestamp
    return rc, stdout, body


def _verify_reference(inp: dict) -> str:
    seed = inp["seed"]
    lines = acceptance.report_lines(acceptance.run_all(seed=seed))
    return f"# mode: full seed={seed}\n" + "\n".join(lines) + "\n"


def _verify_check(res, expected_body: str) -> bool:
    rc, stdout, body = res
    lines = body.splitlines()[1:]
    fails = [line.split()[1] for line in lines if line.startswith("FAIL ")]
    return (rc == 4 and fails == ["06"] and len(lines) == 14
            and lines[13].startswith("PASS 14 ")
            and "identical=True" in lines[13]
            and "13/14 criteria passed" in stdout
            and body == expected_body)


VERIFY = Workload("verify", _verify_inputs, (
    Op("verify", _run_cli, _verify_reference, _verify_check,
       corrupt=lambda r: (0, r[1], r[2]), collect=_verify_collect),
))


# ---------------------------------------------------------------------------
# count and count_wide: smooth_sets and aux_count
# ---------------------------------------------------------------------------

def _multilevel_k3() -> tuple:
    spec = smooth_sets.multilevel_spec(3, bound_engine.theta_schedule(3, 1.0))
    return smooth_sets.build_multilevel(spec, 1e6)[-1].elements


def _odd_sample(rng: random.Random, n: int, hi: int) -> list[int]:
    # odd elements are coprime to p = 2; 170^4 tuples stay under the
    # default operation budget of t_pq_count
    return sorted(rng.sample(range(1, hi + 1, 2), n))


def _count_inputs(seed: int, scratch: Path) -> dict:
    rng = random.Random(seed)
    return {"X": sorted(rng.sample(range(1, 4001), 1000)),
            "E": _odd_sample(rng, 170, 2000)}


def _primes_collect(window, inp) -> tuple[int, str]:
    return len(window.primes), ref.digest(window.primes)


def _primes_reference(inp) -> tuple[int, str]:
    primes = ref.primes_between(5_000_000, 10_000_000)
    return PRIMES_5E6_1E7, ref.digest(primes)


def _multilevel_run(inp) -> tuple:
    elements = _multilevel_k3()
    return elements, aux_count.s_count(elements, 2, 3).S


def _multilevel_reference(inp) -> tuple:
    return (*MULTILEVEL_K3, ref.s_count(_multilevel_k3(), 2, 3))


def _lemma1(k: int) -> Op:
    def run(inp):
        rep = aux_count.lemma1_check(k, 2, 500, 0.4, base_levels=1)
        return rep.lhs, rep.rhs
    return Op(f"lemma1_k{k}", run, lambda inp: LEMMA1_PINS[k],
              corrupt=lambda r: (r[0] + 1, r[1]))


COUNT = Workload("count", _count_inputs, (
    Op("primes", lambda inp: smooth_sets.primes_in(5_000_000, 10_000_000),
       _primes_reference, corrupt=lambda r: (r[0] - 1, r[1]),
       collect=_primes_collect),
    Op("pairs_k3", lambda inp: aux_count.s_count(inp["X"], 2, 3).S,
       lambda inp: ref.s_count(inp["X"], 2, 3)),
    Op("triples_k3", lambda inp: aux_count.s_count(range(1, 101), 3, 3).S,
       lambda inp: ref.s_count(range(1, 101), 3, 3)),
    Op("multilevel_k3", _multilevel_run, _multilevel_reference,
       corrupt=lambda r: (r[0], r[1], r[2] + 1),
       collect=lambda r, inp: (len(r[0]), ref.digest(r[0]), r[1])),
    Op("tpq_k3", lambda inp: aux_count.t_pq_count(inp["E"], 2, 3, 2, 3).S,
       lambda inp: ref.t_pq_count_s2(inp["E"], 3, 2, 3)),
    _lemma1(3),
))


def _count_wide_inputs(seed: int, scratch: Path) -> dict:
    rng = random.Random(seed)
    return {"X": sorted(rng.sample(range(1, 3001), 1000)),
            "E": _odd_sample(rng, 170, 2000),
            "smooth": _multilevel_k3()}


COUNT_WIDE = Workload("count_wide", _count_wide_inputs, (
    Op("pairs_k10", lambda inp: aux_count.s_count(inp["X"], 2, 10).S,
       lambda inp: ref.s_count(inp["X"], 2, 10)),
    Op("triples_k11", lambda inp: aux_count.s_count(range(1, 101), 3, 11).S,
       lambda inp: ref.s_count(range(1, 101), 3, 11)),
    Op("smooth_pairs_k8", lambda inp: aux_count.s_count(inp["smooth"], 2, 8).S,
       lambda inp: ref.s_count(inp["smooth"], 2, 8)),
    Op("tpq_k9", lambda inp: aux_count.t_pq_count(inp["E"], 2, 9, 2, 3).S,
       lambda inp: ref.t_pq_count_s2(inp["E"], 9, 2, 3)),
    _lemma1(11),
))


# ---------------------------------------------------------------------------
# moments: expsum_arcs, phases and differences
# ---------------------------------------------------------------------------

def _moments_inputs(seed: int, scratch: Path) -> dict:
    rng = random.Random(seed)
    return {
        "f4": expsum_arcs.FullInterval(P=64, k=3),
        "f6": expsum_arcs.FullInterval(P=300, k=2),
        "f12": expsum_arcs.FullInterval(P=12, k=3),
        "d12": expsum_arcs.ArcDissection.make(12, 3),
        "policy": expsum_arcs.SamplingPolicy(n_points=512, seed=seed),
        "smooth": expsum_arcs.PrimeSmooth.make(3, 1e6),
        "alphas": [rng.random() for _ in range(16)],
        "diff": expsum_arcs.DifferenceSum(q=2, k=4, H=(3, 3),
                                          windows=((5, 7, 11), (13, 17, 19)),
                                          x_range=200),
        "beta": rng.random(),
    }


def _moment(key: str, power: int) -> Callable:
    def run(inp):
        return expsum_arcs.exact_moment(expsum_arcs.abs_power(inp[key], power))
    return run


def _arcs_run(inp) -> tuple[float, float]:
    spec, d = inp["f12"], inp["d12"]
    return tuple(expsum_arcs.arc_moment(expsum_arcs.abs_power(spec, 4, region),
                                        d, samples_per_arc=1024).value
                 for region in ("major", "minor"))


def _arcs_check(res, exact: int) -> bool:
    major, minor = res
    return major > 0 and minor > 0 and abs(major + minor - exact) <= 0.02 * exact


def _weyl_run(inp) -> tuple:
    r = expsum_arcs.weyl_ratio(1000, 3, inp["policy"])
    return r.max_ratio, r.argmax_alpha, r.n_minor, r.n_candidates


def _weyl_reference(inp) -> tuple:
    cands = inp["policy"].candidates(expsum_arcs.ArcDissection.make(1000, 3))
    return (*ref.minor_arc_ratio(cands, 1000, 3), len(cands))


def _weyl_check(res, expected) -> bool:
    return (res[1:] == expected[1:]
            and abs(res[0] - expected[0]) <= 1e-9 * expected[0])


def _close_sums(values, expected, terms: int) -> bool:
    # each unit term carries a few ulps of error; allow about 4500 ulps each
    return (len(values) == len(expected)
            and all(abs(v - e) <= 1e-12 * terms for v, e in zip(values, expected)))


def _smooth_reference(inp) -> list[complex]:
    # PrimeSmooth(3, 10^6): primes in (500, 1000] times x in [1, 1000]
    freqs = [(p * x) ** 3 for p in ref.primes_between(501, 1000).tolist()
             for x in range(1, 1001)]
    return [ref.unit_sum(freqs, a) for a in inp["alphas"]]


def _diff_run(inp) -> tuple[complex, complex]:
    ds, beta = inp["diff"], inp["beta"]
    return (expsum_arcs.eval_at(ds, beta),
            differences.f_i_sum(beta, ds.q, ds.k, ds.H, ds.windows, ds.x_range))


def _diff_reference(inp) -> tuple[complex, complex]:
    ds = inp["diff"]
    freqs = ref.nested_diff_freqs(ds.q, ds.k, ds.H, ds.windows, ds.x_range)
    value = ref.unit_sum(freqs, inp["beta"])
    return value, value


MOMENTS = Workload("moments", _moments_inputs, (
    Op("moment4_p64_k3", _moment("f4", 4),
       lambda inp: ref.s_count(range(1, 65), 2, 3),
       check=lambda v, s: round(v) == s),
    Op("moment6_p300_k2", _moment("f6", 6),
       lambda inp: ref.s_count(range(1, 301), 3, 2),
       check=lambda v, s: round(v) == s),
    Op("arcs_p12", _arcs_run, lambda inp: ref.s_count(range(1, 13), 2, 3),
       check=_arcs_check, corrupt=lambda r: (2 * r[0], r[1])),
    Op("weyl_p1000", _weyl_run, _weyl_reference, check=_weyl_check,
       corrupt=lambda r: (r[0], r[1], r[2] - 1, r[3])),
    Op("eval_smooth",
       lambda inp: [expsum_arcs.eval_at(inp["smooth"], a) for a in inp["alphas"]],
       _smooth_reference,
       check=lambda v, e: _close_sums(v, e, 73_000),
       corrupt=lambda r: [r[0] + 1] + r[1:]),
    Op("eval_difference", _diff_run, _diff_reference,
       check=lambda v, e: _close_sums(v, e, 16_200),
       corrupt=lambda r: (r[0], r[1] + 1)),
))


# ---------------------------------------------------------------------------
# bounds: the calculator half through the CLI
# ---------------------------------------------------------------------------

def _bounds_inputs(seed: int, scratch: Path) -> dict:
    a = random.Random(seed).randint(3, 10)
    out = scratch / "bounds.csv"
    return {"ks": range(a, a + 200), "out": out,
            "argv": ["bounds", "--k-range", f"{a}:{a + 199}", "--out", str(out)]}


def _bounds_collect(rc: int, inp: dict) -> tuple:
    """Exit code, rows per record type, and the pinned (k, theorem) rows."""
    records: Counter = Counter()
    pinned = {}
    with open(inp["out"], encoding="utf-8", newline="") as fh:
        rows = csv.DictReader(line for line in fh if not line.startswith("#"))
        for row in rows:
            records[row["record"]] += 1
            key = (int(row["k"]), row["theorem"] or None)
            if row["record"] == "gk" and key[0] in acceptance.U_PINS:
                choice = dict(part.split("=", 1) for part in row["choice"].split(";"))
                pinned[key] = (int(row["bound_paper"]), choice.get("u"))
    return rc, dict(records), pinned


def _bounds_reference(inp: dict) -> tuple:
    ks = inp["ks"]
    records = {"sigma": len(ks), "gk": 2 * len(ks),
               "exponent": sum(max(20, 2 * k) - 1 for k in ks)}
    pinned = {(k, thm): (bound, str(acceptance.U_PINS[k]) if thm == "T2" else None)
              for (k, thm), bound in acceptance.GK_PINS.items()}
    return 0, records, pinned


def _bounds_corrupt(res) -> tuple:
    rc, records, pinned = res
    key = next(iter(pinned))
    bound, u = pinned[key]
    return rc, records, {**pinned, key: (bound + 1, u)}


BOUNDS = Workload("bounds", _bounds_inputs, (
    Op("bounds", lambda inp: cli_reports.main(inp["argv"]), _bounds_reference,
       corrupt=_bounds_corrupt, collect=_bounds_collect),
))


WORKLOADS = {w.name: w for w in (VERIFY, COUNT, COUNT_WIDE, MOMENTS, BOUNDS)}
