"""Command-line surface: bound tables, verification suites, report files.

Subcommands: bounds, count, smooth, arcs, diff, verify.  CSV is the default
format (one provenance column per row naming the producing operation); JSON
carries the same rows with the header metadata inline.  Exit codes: 0 ok,
2 config error, 3 budget error, 4 verification failure, 1 other errors.

Reports start with a '# generated:' timestamp line; everything after it is
deterministic for a fixed config and seed (timing columns excepted, where an
interface prescribes them).  A CSV row is rendered by a '%s' template of
its shape (its tuple of keys), filled with its values in column order: it
takes str() of each value, as csv.writer does, and leaves the columns the
shape lacks empty.  The line is kept if csv.writer would write the same: one
comma fewer than there are columns, no '"', '\\r', '\\n' or 'None' (csv
writes None as ''), and not empty (csv writes a lone empty cell as '""').
Other rows, and the header, go through csv.writer, so the bodies are byte
for byte csv.writer's.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from operator import itemgetter

from . import acceptance, aux_count, bound_engine, differences, expsum_arcs, \
    smooth_sets
from .errors import BudgetError, DomainError, WaringError


class ConfigError(WaringError):
    pass


# Option parsers: each turns the text of a flag or config entry into the
# option's value, or raises ValueError saying what the text should be.

def _checked(cast, ok, why: str):
    def parse(text: str):
        val = cast(text)
        if not ok(val):
            raise ValueError(why)
        return val
    return parse


def _positive(cast):
    # the comparison is false for nan too
    return _checked(cast, lambda v: 0 < v < math.inf, "must be finite and > 0")


def _one_of(*allowed: str):
    return _checked(str, allowed.__contains__, "expected " + " or ".join(allowed))


def _list(cast, sep: str = ","):
    return lambda text: tuple(cast(v) for v in text.split(sep))


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}
_bool = _checked(lambda text: _BOOLS.get(text.lower()), lambda v: v is not None,
                 "expected one of " + ", ".join(_BOOLS))


def _option(parse, default=None, help=None):
    """A RunConfig field that is also an option.  `parse` checks and converts
    its text, from a flag or a config file; `help` is the flag's help."""
    return field(default=default, metadata={"parse": parse, "help": help})


@dataclass
class RunConfig:
    """Settings of one run.  Every field after `command` is an option: its
    name is the config key, and the flag is the name with '-' for '_'.  A
    subcommand offers, as flags and as config keys, only the options its
    handler reads (_HANDLERS)."""
    command: str
    k: int | None = _option(int)
    k_range: tuple[int, int] | None = _option(
        _checked(_list(int, ":"), lambda r: len(r) == 2 and r[0] <= r[1],
                 "expected a:b with a <= b"), help="inclusive range a:b")
    theorem: str | None = _option(_one_of("1", "2"), help="1 or 2")
    P: tuple[float, ...] = _option(_list(_positive(float)), (),
                                   "comma-separated list")
    theta: float = _option(float, 0.4)
    s: int | None = _option(_positive(int))
    budget_ops: int = _option(_positive(int), aux_count.DEFAULT_BUDGET)
    budget_grid: int = _option(_positive(int), expsum_arcs.DEFAULT_GRID_BUDGET)
    seed: int = _option(int, 0)
    format: str = _option(_one_of("csv", "json"), "csv", "csv or json")
    out: str | None = _option(_checked(
        str, lambda path: os.path.isdir(os.path.dirname(path) or ".")
        and not os.path.isdir(path), "must name a file in an existing directory"))
    paper_faithful: bool = _option(_bool, False)
    tpq: tuple[int, int] | None = _option(
        _checked(_list(int), lambda v: len(v) == 2 and min(v) > 0,
                 "expected p,q > 0"), help="p,q primes")
    set: str | None = _option(str, help="set file to count over instead of "
                              "[1..P]")
    levels: int | None = _option(
        _checked(int, lambda v: v >= 0, "must be >= 0"),
        help="smooth: default 0; diff: default min(3, k)")
    delta: float | None = _option(float)
    q: tuple[int, ...] = _option(_list(int), (), "comma-separated moduli")
    points: int = _option(_positive(int), 512)
    h_max: int = _option(_positive(int), 2)
    quick: bool = _option(_bool, False)


_OPTIONS = {f.name: f.metadata for f in fields(RunConfig) if f.metadata}


def _parse_config_file(path: str, command: str) -> dict:
    values: dict = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, val = (part.strip() for part in line.split("=", 1))
                key = key.replace("-", "_")
                if key not in _HANDLERS[command][1].split():
                    raise ConfigError(
                        f"{path}:{lineno}: unknown key {key!r} for {command}")
                values[key] = val
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return values


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line (unknown flag, missing subcommand) as a
    ConfigError instead of printing usage and exiting; subparsers inherit it."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="waring", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)
    for name, (_, offered) in _HANDLERS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        for key in offered.split():
            meta = _OPTIONS[key]
            # a switch stores the text "true", which _bool then parses
            kind = ({"action": "store_const", "const": "true"}
                    if meta["parse"] is _bool else {})
            p.add_argument("--" + key.replace("_", "-"), help=meta["help"],
                           **kind)
    return top


def _merge(args: argparse.Namespace) -> RunConfig:
    """Config-file entries, then flags over them, each parsed from text."""
    texts = (_parse_config_file(args.config, args.command) if args.config
             else {})
    texts.update((key, text) for key, text in vars(args).items()
                 if key in _OPTIONS and text is not None)
    cfg = RunConfig(command=args.command)
    for key, text in texts.items():
        try:
            setattr(cfg, key, _OPTIONS[key]["parse"](text))
        except ValueError as exc:
            raise ConfigError(f"bad value {text!r} for {key}: {exc}") from exc
    return cfg


# ---------------------------------------------------------------------------
# Report writing
# ---------------------------------------------------------------------------

def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _emit(cfg: RunConfig, meta: dict, rows: list) -> None:
    meta = {"flags": f"paper_faithful={cfg.paper_faithful} seed={cfg.seed}",
            **meta}
    if cfg.format == "json":
        payload = {"generated": _timestamp(), "meta": meta, "rows": rows}
        text = json.dumps(payload, indent=2, default=str) + "\n"
    else:
        buf = io.StringIO()
        buf.write(f"# generated: {_timestamp()}\n")
        for key, val in meta.items():
            buf.write(f"# {key}: {val}\n")
        templates = dict.fromkeys(tuple(row) for row in rows)   # row shapes
        cols = list(dict.fromkeys(c for shape in templates for c in shape))
        for shape in templates:
            keys = [c for c in cols if c in shape]
            templates[shape] = (
                ",".join("%s" if c in shape else "" for c in cols),
                itemgetter(*keys) if len(keys) > 1   # one key gives no tuple
                else lambda row, keys=keys: tuple(map(row.get, keys)))
        writer = csv.writer(buf)
        writer.writerow(cols)
        for row in rows:
            template, values = templates[tuple(row)]
            line = template % values(row)
            if (line and line.count(",") == len(cols) - 1 and "None" not in line
                    and '"' not in line and "\r" not in line and "\n" not in line):
                buf.write(line + "\r\n")
            else:
                writer.writerow([row.get(c, "") for c in cols])
        text = buf.getvalue()
    if cfg.out:
        _write(cfg.out, text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_bounds(cfg: RunConfig) -> int:
    if cfg.k is None and cfg.k_range is None:
        raise ConfigError("need --k or --k-range")
    a, b = cfg.k_range or (cfg.k, cfg.k)
    rows = []
    theorems = ["T" + cfg.theorem] if cfg.theorem else ["T1", "T2"]
    for k in range(a, b + 1):
        run = bound_engine.KBounds(k)
        sig = run.sig
        rows.append({
            "record": "sigma", "k": k, "beta": sig.beta,
            "lambda_root": sig.lambda_root, "sigma_hat": sig.sigma_hat,
            "mu": sig.mu, "s_star": sig.s_star,
            "provenance": "bound_engine.solve_sigma",
        })
        for thm in theorems:
            r = run.gk(thm)
            feat = r.bound
            if r.theorem == "T2" and not cfg.paper_faithful:
                feat = r.choice["bound_exact_delta"]
            rows.append({
                "record": "gk", "k": k, "theorem": r.theorem, "bound": feat,
                "bound_paper": r.bound,
                "bound_exact_delta": r.choice.get("bound_exact_delta", r.bound),
                "scan_best": r.choice.get("scan_bound_best", r.bound),
                "choice": ";".join(f"{key}={val}" for key, val in r.choice.items()
                                   if not key.startswith("scan")),
                "continuous_optimum": r.continuous_optimum,
                "asymptote": r.asymptote,
                "ratio_to_asymptote": r.bound / r.asymptote,
                "small_k_caveat": r.small_k_caveat,
                "provenance": "bound_engine.gk_bound",
            })
        for s, lam, delta, theta, closed in run.exponent_rows(cfg.s or max(20, 2 * k)):
            rows.append({
                "record": "exponent", "k": k, "s": s, "lambda": lam,
                "delta": delta, "theta_used": theta, "delta_closed_bound": closed,
                "provenance": "bound_engine.delta_iterate",
            })
    del run   # its Delta list can run far past the rows; free it before _emit
    note = ("bound column: T2 headline uses the closed decay bound at the "
            "prescribed u; the same count written as 1+2u+2t with "
            "t = 1 + ceil-term gives the identical total")
    _emit(cfg, {"subcommand": "bounds", "note": note}, rows)
    return 0


def _cmd_count(cfg: RunConfig) -> int:
    if cfg.k is None:
        raise ConfigError("count needs --k")
    s = cfg.s or 2
    try:
        imported = smooth_sets.read_set(cfg.set) if cfg.set else None
    except OSError as exc:
        raise ConfigError(f"cannot read set file {cfg.set}: {exc}") from exc
    if imported is not None and not cfg.P:
        if not imported.elements:
            raise ConfigError(f"set file {cfg.set} is empty; give --P")
        cfg.P = (float(max(imported.elements)),)
    if not cfg.P:
        raise ConfigError("count needs --P or --set")
    rows = []
    runs = []
    for P in cfg.P:
        X = (imported.elements if imported is not None
             else range(1, math.floor(P) + 1))
        t0 = time.perf_counter()
        res = aux_count.s_count(X, s, cfg.k, budget_ops=cfg.budget_ops)
        dt = time.perf_counter() - t0
        runs.append((P, res.S))
        rows.append({"k": cfg.k, "s": s, "P": P, "|X|": res.set_size,
                     "S": res.S, "diag_lb": res.diagonal_lb,
                     "seconds": f"{dt:.3f}",
                     "provenance": "aux_count.s_count"})
    if len(runs) >= 3:
        fit = aux_count.exponent_fit(runs)
        rows.append({"k": cfg.k, "s": s, "P": "fit", "S": "",
                     "slope": fit.slope, "intercept": fit.intercept,
                     "provenance": "aux_count.exponent_fit"})
    if cfg.tpq:
        p, q = cfg.tpq
        P = cfg.P[0]
        E = [x for x in range(1, math.floor(P) + 1) if x % p != 0]
        t0 = time.perf_counter()
        res = aux_count.t_pq_count(E, s, cfg.k, p, q, budget_ops=cfg.budget_ops)
        dt = time.perf_counter() - t0
        rows.append({"k": cfg.k, "s": s, "P": P, "|X|": res.set_size,
                     "S": res.S, "diag_lb": res.diagonal_lb,
                     "seconds": f"{dt:.3f}", "p": p, "q": q,
                     "provenance": "aux_count.t_pq_count"})
    _emit(cfg, {"subcommand": "count"}, rows)
    return 0


def _cmd_smooth(cfg: RunConfig) -> int:
    if cfg.k is None or not cfg.P:
        raise ConfigError("smooth needs --k and --P")
    k = cfg.k
    rows = []
    for P in cfg.P:
        if cfg.delta is not None:
            sched = bound_engine.theta_schedule(k, cfg.delta)
            spec = smooth_sets.multilevel_spec(k, sched)
            sets = smooth_sets.build_multilevel(spec, P)
            for sset in sets:
                win = sset.windows[-1] if sset.windows else None
                rows.append({
                    "record": "level", "k": k, "P": P, "level": sset.level,
                    "size": len(sset.elements),
                    "window": f"[{win.lo},{win.hi}]" if win else "",
                    "window_Z": win.Z if win else "",
                    "collisions": sset.collision_count,
                    "provenance": "smooth_sets.build_multilevel",
                })
            final = sets[-1]
        else:
            final = smooth_sets.build_single_levels(k, P, cfg.theta,
                                                    cfg.levels or 0)
            rows.append({
                "record": "level", "k": k, "P": P, "level": 0,
                "size": len(final.elements),
                "collisions": final.collision_count,
                "base_floor": final.spec.base_floor,
                "provenance": "smooth_sets.build_single_levels",
            })
        est = smooth_sets.size_estimate(k, P)
        rows.append({
            "record": "size_estimate", "k": k, "P": P, "size": est,
            "built_size": len(final.elements),
            "exceeds_P": est > P,
            "provenance": "smooth_sets.size_estimate",
        })
        for q in cfg.q or []:
            prof = smooth_sets.residue_profile(final, q)
            rows.append({
                "record": "residue", "k": k, "P": P, "q": q,
                "phi_q": prof.phi_q, "max_deviation": prof.max_deviation,
                "counts": ";".join(f"{a}:{c}" for a, c in sorted(prof.counts.items())),
                "provenance": "smooth_sets.residue_profile",
            })
    note = ("base of the recursion: single mode uses the interval "
            "[1, floor(P/prod(window midpoints))], multi mode the interval "
            "[1, floor(P_k)]; sizes depend on this choice")
    _emit(cfg, {"subcommand": "smooth", "note": note}, rows)
    return 0


def _cmd_arcs(cfg: RunConfig) -> int:
    if cfg.k is None or not cfg.P:
        raise ConfigError("arcs needs --k and --P")
    k = cfg.k
    P = cfg.P[0]
    d = expsum_arcs.ArcDissection.make(P, k)
    rows = []
    for q, a, center, halfwidth in d.raw_major_arcs():
        rows.append({"record": "arc", "q": q, "a": a, "center": center,
                     "halfwidth": halfwidth,
                     "provenance": "expsum_arcs.ArcDissection.raw_major_arcs"})
    policy = expsum_arcs.SamplingPolicy(n_points=cfg.points, seed=cfg.seed)
    w = expsum_arcs.weyl_ratio(int(P), k, policy)
    rows.append({"record": "weyl", "P": P, "k": k,
                 "max_ratio": w.max_ratio, "argmax_alpha": w.argmax_alpha,
                 "n_minor": w.n_minor, "n_candidates": w.n_candidates,
                 "provenance": "expsum_arcs.weyl_ratio"})
    spec = expsum_arcs.FullInterval(P=int(P), k=k)
    for moment_id, power, region in (
            ("abs_f4_full", 4, "full"), ("abs_f4_major", 4, "major"),
            ("abs_f4_minor", 4, "minor"), ("abs_f_k2_major", k + 2, "major")):
        t0 = time.perf_counter()
        mspec = expsum_arcs.abs_power(spec, power, region)
        if region == "full":
            m = expsum_arcs.exact_moment(mspec, budget_grid=cfg.budget_grid)
            value, err_est, via = m, 0.0, "exact_moment"
        else:
            m = expsum_arcs.arc_moment(mspec, d, samples_per_arc=256)
            value, err_est, via = m.value, m.err_est, "arc_moment"
        row = {"record": "moment", "moment_id": moment_id, "P": P, "k": k,
               "params": f"|f|^{power}", "region": region, "value": value,
               "err_est": err_est}
        if moment_id == "abs_f_k2_major":
            row["ratio_to_P2"] = value / P**2
        rows.append({**row, "seconds": f"{time.perf_counter() - t0:.3f}",
                     "provenance": f"expsum_arcs.{via}"})
    _emit(cfg, {"subcommand": "arcs", "tau": d.tau, "W": d.W}, rows)
    return 0


def _cmd_diff(cfg: RunConfig) -> int:
    if cfg.k is None:
        raise ConfigError("diff needs --k")
    if cfg.levels == 0:
        raise ConfigError("diff needs --levels >= 1, got 0")
    k = cfg.k
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    rows = []
    primes = (2, 3, 5, 7)
    levels = min(3, k) if cfg.levels is None else cfg.levels
    for i in range(1, levels + 1):
        h = tuple(1 + (j % cfg.h_max) for j in range(i))
        p = tuple(primes[j % len(primes)] for j in range(i))
        chain = differences.psi(k, h, p)
        rows.append({"record": "psi", "k": k, "i": i,
                     "h": ";".join(map(str, h)), "p": ";".join(map(str, p)),
                     "degree": chain.result.degree,
                     "leading": chain.result.leading,
                     "coeffs": chain.result.serialize(),
                     "provenance": "differences.psi"})
    if cfg.delta is not None:
        s = cfg.s or 3
        P = cfg.P[0] if cfg.P else 1e6
        sched = bound_engine.theta_schedule(k, cfg.delta)
        geom = differences.BalanceGeometry.from_thetas(k, P, sched.thetas)
        counts = differences.model_counts(geom, s, cfg.delta)
        for i in range(0, k):
            terms = differences.lemma7_terms(i, counts, geom)
            rows.append({"record": "balance", "k": k, "i": i, "s": s,
                         "P": P, "U": terms.U, "V": terms.V,
                         "residual": terms.residual,
                         "provenance": "differences.lemma7_terms"})
    _emit(cfg, {"subcommand": "diff"}, rows)
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    mode = "quick" if cfg.quick else "full"
    results = acceptance.run_all(seed=cfg.seed, quick=cfg.quick)
    lines = acceptance.report_lines(results)
    body = "\n".join(lines) + "\n"
    for r, line in zip(results, lines):
        print(f"{line}  [{r.seconds:.2f}s]")
    n_fail = sum(1 for r in results if not r.passed)
    print(f"{len(results) - n_fail}/{len(results)} criteria passed"
          f" ({mode} mode, seed {cfg.seed})")
    if cfg.out:
        _write(cfg.out, f"# generated: {_timestamp()}\n"
               f"# mode: {mode} seed={cfg.seed}\n{body}")
    return 4 if n_fail else 0


# each subcommand's handler and the options it reads, which are the only
# ones it offers
_HANDLERS = {
    "bounds": (_cmd_bounds, "k k_range theorem s paper_faithful format out"),
    "count": (_cmd_count, "k s P budget_ops set tpq format out"),
    "smooth": (_cmd_smooth, "k P theta levels delta q format out"),
    "arcs": (_cmd_arcs, "k P points seed budget_grid format out"),
    "diff": (_cmd_diff, "k P s levels delta h_max format out"),
    "verify": (_cmd_verify, "seed quick out"),
}


def _error_record(exc: Exception) -> str:
    return json.dumps({"error": type(exc).__name__, "message": str(exc)})


def main(argv=None) -> int:
    try:
        cfg = _merge(_build_parser().parse_args(argv))
        return _HANDLERS[cfg.command][0](cfg)
    except ConfigError as exc:
        print(_error_record(exc), file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(_error_record(exc), file=sys.stderr)
        return 3
    except WaringError as exc:
        print(_error_record(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
