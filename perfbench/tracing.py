"""Span tracing of waring's public functions, installed from outside.

install() replaces each traced function with a wrapper under every name it
is bound to in the loaded waring modules: its own module attribute, copies
made by `from .x import f`, and the package namespace.  Calls a module makes
through its globals are therefore traced too.  Microsecond helpers
(delta_bound, lambda_closed, the IntPolynomial methods, ...) stay unwrapped.

Each call becomes a span (id, parent id, name, start, end) kept in memory
until write_spans(); start and end are read from the clock the Tracer is
given (the benchmark passes its host-speed-normalized program clock).  A span's self time is its duration minus the time its
traced children took; the cost of computing counters is charged to no span.
Counters are computed from a call's arguments and result only.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import os
import statistics
import sys
import time
from collections import defaultdict


def _cli_output_bytes(a, r):
    argv = list(a["argv"] or ())
    if "--out" in argv:
        return {"output_bytes": os.path.getsize(argv[argv.index("--out") + 1])}
    return {}


def _grid(a, r, expsum_arcs):
    m = a["m"]
    points = sum(f.exponent * expsum_arcs.max_frequency(f.spec)
                 for f in m.factors) + abs(m.target or 0) + 1
    # complex product array, plus a float count array and a complex
    # transform per factor: bytes computed from the grid length, not measured
    return {"grid_points": points,
            "grid_bytes": points * (16 + 24 * len(m.factors)),
            "int_gap": abs(r - round(r))}


def _built(sets):
    last = sets[-1] if isinstance(sets, list) else sets
    kept = (sum(len(s.elements) for s in sets[1:]) if isinstance(sets, list)
            else len(sets.elements))
    return {"products": kept + last.collision_count,
            "collisions": last.collision_count}


def layers(w) -> list[tuple]:
    """(span name, module, attribute, counter) for every traced function.

    `w` is the waring package.  A counter maps (bound arguments, result) to
    increments; keys ending in `int_gap` keep the maximum instead.
    """
    ss, ac, ea = w.smooth_sets, w.aux_count, w.expsum_arcs
    return [
        ("smooth_sets.primes_in", ss, "primes_in",
         lambda a, r: {"numbers": a["hi"] - a["lo"] + 1}),
        ("smooth_sets.build", ss, "build_single", lambda a, r: _built(r)),
        ("smooth_sets.build", ss, "build_single_levels", lambda a, r: _built(r)),
        ("smooth_sets.build", ss, "build_multilevel", lambda a, r: _built(r)),
        ("aux_count.rep_function", ac, "rep_function",
         lambda a, r: {"tuples": r.total, "distinct_sums": len(r.table)}),
        ("aux_count.s_count", ac, "s_count", None),
        ("aux_count.t_pq_count", ac, "t_pq_count", None),
        ("expsum_arcs.exact_moment", ea, "exact_moment",
         lambda a, r: _grid(a, r, ea)),
        ("expsum_arcs.arc_moment", ea, "arc_moment",
         lambda a, r: {"samples": r.n_intervals * (r.samples_per_arc
                                                   + max(8, r.samples_per_arc // 2))}),
        ("expsum_arcs.classify", ea, "classify", None),
        ("expsum_arcs.eval_at", ea, "eval_at",
         lambda a, r: {"terms": ea.term_count(a["spec"])}),
        ("expsum_arcs.frequencies", ea, "frequencies", None),
        ("expsum_arcs.weyl_ratio", ea, "weyl_ratio", None),
        ("phases.unit_sum", w.phases, "unit_sum",
         lambda a, r: {"terms": len(a["freqs"])}),
        ("differences.psi", w.differences, "psi", None),
        ("differences.f_i_sum", w.differences, "f_i_sum",
         lambda a, r: {"terms": math.prod(a["H"]) * a["x_range"]
                       * math.prod(len(p) for p in a["windows"])}),
        ("bound_engine.gk_bound", w.bound_engine, "gk_bound", None),
        ("bound_engine.delta_iterate", w.bound_engine, "delta_iterate",
         lambda a, r: {"steps": len(r.variant.deltas) if r.variant else 0}),
        ("bound_engine.solve_sigma", w.bound_engine, "solve_sigma", None),
        ("cli_reports.main", w.cli_reports, "main", _cli_output_bytes),
        ("acceptance.run_criteria", w.acceptance, "run_criteria", None),
        # run_all's result carries the per-criterion times verify prints
        ("acceptance", w.acceptance, "run_all",
         lambda a, r: {f"criterion_{c.cid:02d}.s": c.seconds for c in r}),
    ]


class Tracer:
    def __init__(self, now=time.perf_counter):
        self._now = now                       # span clock, in seconds
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._stack: list[list] = []          # [span id, child seconds]
        self._patched: list[tuple] = []       # (module, attr, original)
        self.self_s: dict = defaultdict(float)
        self.counts: dict = defaultdict(float)

    def take(self) -> tuple[dict, dict]:
        """Self seconds and counters accumulated since the last take()."""
        taken = dict(self.self_s), dict(self.counts)
        self.self_s.clear()
        self.counts.clear()
        return taken

    def _wrap(self, name, fn, counter):
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [next(self._ids), 0.0]
            parent = self._stack[-1] if self._stack else None
            self._stack.append(frame)
            start = self._now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self._now()
                self._stack.pop()
            self.self_s[name] += end - start - frame[1]
            self.counts[name + ".calls"] += 1
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, val in counter(bound.arguments, result).items():
                    key = f"{name}.{key}"
                    if key.endswith("int_gap"):
                        self.counts[key] = max(self.counts[key], val)
                    else:
                        self.counts[key] += val
            self.spans.append((frame[0], parent[0] if parent else None,
                               name, start, end))
            if parent is not None:
                # the parent is charged for this call but not for counting
                parent[1] += self._now() - start
            return result

        return traced

    def install(self, package) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == package.__name__ or key.startswith(package.__name__ + ".")]
        for name, module, attr, counter in layers(package):
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, counter)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


_RATES = {
    "smooth_sets.primes_in.numbers_per_s": ("smooth_sets.primes_in.numbers",
                                            "smooth_sets.primes_in"),
    "aux_count.rep_function.tuples_per_s": ("aux_count.rep_function.tuples",
                                            "aux_count.rep_function"),
    "phases.unit_sum.terms_per_s": ("phases.unit_sum.terms", "phases.unit_sum"),
}


def metric(name: str, self_s: dict, counts: dict) -> float:
    """Value of one per-layer metric from one pass's self times and counters."""
    if name == "cli_reports.output_bytes":
        name = "cli_reports.main.output_bytes"
    if name in _RATES:
        work, span = _RATES[name]
        return counts.get(work, 0) / self_s[span] if self_s.get(span) else 0.0
    if name == "smooth_sets.build.collision_ratio":
        products = counts.get("smooth_sets.build.products", 0)
        return counts["smooth_sets.build.collisions"] / products if products else 0.0
    if name.endswith(".s") and name[:-2] in self_s:
        return self_s[name[:-2]]
    return counts.get(name, 0)


def is_counter(name: str) -> bool:
    """Counters repeat exactly for the same inputs; times and rates do not."""
    return not (name.endswith(".s") or name.endswith("_per_s"))


def summarize(names, passes: list[tuple[dict, dict]]) -> tuple[dict, list]:
    """Median of each metric over traced passes, and counters that differ."""
    values = {n: [metric(n, s, c) for s, c in passes] for n in names}
    unstable = [n for n in names
                if is_counter(n) and len(set(values[n])) > 1]
    return {n: statistics.median(v) for n, v in values.items()}, unstable
