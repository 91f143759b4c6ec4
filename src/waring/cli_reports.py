"""Command-line surface: bound tables, verification suites, report files.

Subcommands: bounds, count, smooth, arcs, diff, verify.  CSV is the default
format (one provenance column per row naming the producing operation); JSON
carries the same rows with the header metadata inline.  Exit codes: 0 ok,
2 config error, 3 budget error, 4 verification failure, 1 other errors.

Reports start with a '# generated:' timestamp line; everything after it is
deterministic for a fixed config and seed (timing columns excepted, where an
interface prescribes them).  Handlers pass _emit blocks of rows, which it
writes as they are computed, byte for byte as csv.writer or as
json.dumps(payload, indent=2) would write the whole report; --out is
replaced only when its report is complete.
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import math
import os
import stat
import sys
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from itertools import islice
from operator import itemgetter

from . import acceptance, aux_count, bound_engine, differences, expsum_arcs, \
    smooth_sets
from .errors import BudgetError, WaringError, at_least


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
    budget_grid: int = _option(
        _positive(int), expsum_arcs.DEFAULT_GRID_BUDGET,
        "FFT work of the full-moment grid: its length M, or 3x the least "
        "11-smooth length >= 2M-1 when M's largest prime factor p has p^2 > M")
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
    for name, (_, offered, _) in _HANDLERS.items():
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


@contextmanager
def _report(path: str | None):
    """The file a report is written to: stdout, or a sibling temporary file
    that replaces `path` only once the report is complete, so a run that
    fails leaves no partial report and an older one as it was.  A `path`
    that exists but is no regular file (/dev/null, a FIFO) is written in
    place; one that exists and is not writable is refused."""
    if path is None:
        yield sys.stdout
        return
    try:
        try:
            mode = os.stat(path).st_mode   # through a symlink, as open(path) goes
        except FileNotFoundError:
            mode = None
        if mode is not None and not stat.S_ISREG(mode):
            # a device, FIFO or /dev/fd/N has no file to replace: write it
            with open(path, "w", encoding="utf-8") as fh:
                yield fh
            return
        if mode is not None and not os.access(path, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
        target = os.path.realpath(path)
        tmp = os.path.join(os.path.dirname(target),
                           f".{os.path.basename(target)}.{os.getpid()}.tmp")
        with open(tmp, "x", encoding="utf-8") as fh:   # refuses a planted name
            try:
                if mode is not None:   # open(path, "w") keeps an existing mode
                    os.chmod(tmp, stat.S_IMODE(mode))
                yield fh
                fh.close()
                os.replace(tmp, target)
            finally:
                with suppress(OSError):
                    os.remove(tmp)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _emit(cfg: RunConfig, meta: dict, columns: list, blocks) -> None:
    """Write a report of `blocks` to --out or stdout, each block as it
    arrives.  A block is (keys, rows): a tuple of columns and a non-empty
    list of value tuples in the order of `keys`.  A JSON block is json.dumps
    of its rows, indented to their place in the payload.  A CSV block is
    the lines of its key tuple's '%s' template, filled with each row's
    values in column order, if csv.writer would write the same text, and
    csv.writer's lines if it would not."""
    meta = {"flags": f"paper_faithful={cfg.paper_faithful} seed={cfg.seed}",
            **meta}
    with _report(cfg.out) as fh:
        as_json = cfg.format == "json"
        if as_json:
            head = json.dumps({"generated": _timestamp(), "meta": meta, "rows": []},
                              indent=2, default=str)
            fh.write(head[:-4])   # cut at the '[]' of "rows", the last key
            encode = json.JSONEncoder(indent=2, default=str).encode
        else:
            fh.write(f"# generated: {_timestamp()}\n"
                     + "".join(f"# {key}: {val}\n" for key, val in meta.items()))
            writer = csv.writer(fh)
            writer.writerow(columns)
        sep, commas, templates = "[", len(columns) - 1, {}
        for keys, rows in blocks:
            if as_json:   # each row after ',\n    ', the first after '[\n    '
                fh.write(sep + encode([dict(zip(keys, row)) for row in rows])[1:-2]
                         .replace("\n", "\n  "))
                sep = ","
                continue
            if keys not in templates:   # every key is a column
                order = [keys.index(c) for c in columns if c in keys]
                templates[keys] = (   # itemgetter of one key gives no tuple
                    ",".join("%s" if c in keys else "" for c in columns) + "\r\n",
                    itemgetter(*order) if len(order) > 1 else tuple)
            template, values = templates[keys]
            text, n = "".join(map(template.__mod__, map(values, rows))), len(rows)
            # csv.writer quotes a cell that holds ',', '"', '\r' or '\n', and a
            # lone empty cell, and writes None as ''; values can only add
            # commas, so the sum finds a value that holds one
            if (text.count(",") == commas * n and text.count("\r") == n
                    and text.count("\n") == n and '"' not in text and "None" not in text
                    and not text.startswith("\r") and "\n\r" not in text):
                fh.write(text)
                continue
            for cells in (dict(zip(keys, row)) for row in rows):
                writer.writerow([cells.get(c, "") for c in columns])
        if as_json:
            fh.write("[]\n}\n" if sep == "[" else "\n  ]\n}\n")


def _emit_rows(cfg: RunConfig, meta: dict, rows: list) -> None:
    """_emit of dict rows, each a block of its own, under their keys in the
    order they first appear."""
    _emit(cfg, meta, list(dict.fromkeys(c for row in rows for c in row)),
          ((tuple(row), [tuple(row.values())]) for row in rows))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

# the keys of the three bounds records, in column order
_SIGMA_KEYS = ("record", "k", "beta", "lambda_root", "sigma_hat", "mu", "s_star",
               "provenance")
_GK_KEYS = ("record", "k", "theorem", "bound", "bound_paper", "bound_exact_delta",
            "scan_best", "choice", "continuous_optimum", "asymptote",
            "ratio_to_asymptote", "small_k_caveat", "provenance")
_EXPONENT_KEYS = ("record", "k", "s", "lambda", "delta", "theta_used",
                  "delta_closed_bound", "provenance")
# exponent rows per block: one block of a k's 2k rows would hold them all
# at once, which at k = 10^5 nearly triples the peak memory
_BLOCK_ROWS = 512


def _bounds_rows(cfg: RunConfig, a: int, b: int):
    """The blocks of each k in a..b, from one KBounds per k; a k's Delta
    list is dropped when the next k's KBounds replaces it."""
    theorems = ["T" + cfg.theorem] if cfg.theorem else ["T1", "T2"]
    for k in range(a, b + 1):
        run = bound_engine.KBounds(k)
        sig = run.sig
        yield _SIGMA_KEYS, [("sigma", k, sig.beta, sig.lambda_root, sig.sigma_hat,
                             sig.mu, sig.s_star, "bound_engine.solve_sigma")]
        gk = []
        for thm in theorems:
            r = run.gk(thm)
            exact = r.choice.get("bound_exact_delta", r.bound)   # T2 only
            gk.append((
                "gk", k, r.theorem, r.bound if cfg.paper_faithful else exact,
                r.bound, exact,
                r.choice.get("scan_bound_best", r.bound),
                ";".join(f"{key}={val}" for key, val in r.choice.items()
                         if not key.startswith("scan")),
                r.continuous_optimum, r.asymptote, r.bound / r.asymptote,
                r.small_k_caveat, "bound_engine.gk_bound"))
        yield _GK_KEYS, gk
        rows = run.exponent_rows(cfg.s or max(20, 2 * k))
        while block := [("exponent", k, *row, "bound_engine.delta_iterate")
                        for row in islice(rows, _BLOCK_ROWS)]:
            yield _EXPONENT_KEYS, block


def _cmd_bounds(cfg: RunConfig) -> int:
    if cfg.k is None and cfg.k_range is None:
        raise ConfigError("need --k or --k-range")
    a, b = cfg.k_range or (cfg.k, cfg.k)
    bound_engine._check_ks(a, cfg.s or 2)   # every k >= a; before any byte
    note = ("bound column: T2 headline uses the closed decay bound at the "
            "prescribed u; the same count written as 1+2u+2t with "
            "t = 1 + ceil-term gives the identical total")
    _emit(cfg, {"subcommand": "bounds", "note": note},
          list(dict.fromkeys(_SIGMA_KEYS + _GK_KEYS + _EXPONENT_KEYS)),
          _bounds_rows(cfg, a, b))
    return 0


def _cmd_count(cfg: RunConfig) -> int:
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

    def timed_row(count: str, P, X, *pq) -> None:
        # through the module attribute, where a tracer may have wrapped it
        t0 = time.perf_counter()
        res = getattr(aux_count, count)(X, s, cfg.k, *pq,
                                        budget_ops=cfg.budget_ops)
        rows.append({"k": cfg.k, "s": s, "P": P, "|X|": res.set_size,
                     "S": res.S, "diag_lb": res.diagonal_lb,
                     "seconds": f"{time.perf_counter() - t0:.3f}",
                     **dict(zip("pq", pq)), "provenance": f"aux_count.{count}"})

    for P in cfg.P:
        timed_row("s_count", P, imported.elements if imported is not None
                  else range(1, math.floor(P) + 1))
    if len(rows) >= 3:
        fit = aux_count.exponent_fit([(row["P"], row["S"]) for row in rows])
        rows.append({"k": cfg.k, "s": s, "P": "fit", "S": "",
                     "slope": fit.slope, "intercept": fit.intercept,
                     "provenance": "aux_count.exponent_fit"})
    if cfg.tpq:
        p, q = cfg.tpq
        timed_row("t_pq_count", cfg.P[0],
                  [x for x in range(1, math.floor(cfg.P[0]) + 1) if x % p != 0],
                  p, q)
    _emit_rows(cfg, {"subcommand": "count"}, rows)
    return 0


def _cmd_smooth(cfg: RunConfig) -> int:
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
    _emit_rows(cfg, {"subcommand": "smooth", "note": note}, rows)
    return 0


def _cmd_arcs(cfg: RunConfig) -> int:
    k = cfg.k
    P = cfg.P[0]
    d = expsum_arcs.ArcDissection.make(P, k)
    spec = expsum_arcs.FullInterval(P=int(P), k=k)
    moments = []   # first: an over-budget grid is refused before the arcs
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
        moments.append({**row, "seconds": f"{time.perf_counter() - t0:.3f}",
                        "provenance": f"expsum_arcs.{via}"})
    rows = [{"record": "arc", "q": q, "a": a, "center": center,
             "halfwidth": halfwidth,
             "provenance": "expsum_arcs.ArcDissection.raw_major_arcs"}
            for q, a, center, halfwidth in d.raw_major_arcs()]
    policy = expsum_arcs.SamplingPolicy(n_points=cfg.points, seed=cfg.seed)
    w = expsum_arcs.weyl_ratio(int(P), k, policy)
    rows.append({"record": "weyl", "P": P, "k": k,
                 "max_ratio": w.max_ratio, "argmax_alpha": w.argmax_alpha,
                 "n_minor": w.n_minor, "n_candidates": w.n_candidates,
                 "provenance": "expsum_arcs.weyl_ratio"})
    _emit_rows(cfg, {"subcommand": "arcs", "tau": d.tau, "W": d.W}, rows + moments)
    return 0


def _cmd_diff(cfg: RunConfig) -> int:
    if cfg.levels == 0:
        raise ConfigError("diff needs --levels >= 1, got 0")
    k = at_least("k", cfg.k, 1)
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
    _emit_rows(cfg, {"subcommand": "diff"}, rows)
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
        with _report(cfg.out) as fh:
            fh.write(f"# generated: {_timestamp()}\n"
                     f"# mode: {mode} seed={cfg.seed}\n{body}")
    return 4 if n_fail else 0


# each subcommand's handler, the options it reads, which are the only ones
# it offers, and the options it needs, which main refuses to run without
_HANDLERS = {
    "bounds": (_cmd_bounds, "k k_range theorem s paper_faithful format out", ""),
    "count": (_cmd_count, "k s P budget_ops set tpq format out", "k"),
    "smooth": (_cmd_smooth, "k P theta levels delta q format out", "k P"),
    "arcs": (_cmd_arcs, "k P points seed budget_grid format out", "k P"),
    "diff": (_cmd_diff, "k P s levels delta h_max format out", "k"),
    "verify": (_cmd_verify, "seed quick out", ""),
}


def main(argv=None) -> int:
    try:
        cfg = _merge(_build_parser().parse_args(argv))
        handler, _, needed = _HANDLERS[cfg.command]
        if any(getattr(cfg, key) in (None, ()) for key in needed.split()):
            raise ConfigError(f"{cfg.command} needs " + " and ".join(
                "--" + key.replace("_", "-") for key in needed.split()))
        return handler(cfg)
    except WaringError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return (2 if isinstance(exc, ConfigError)
                else 3 if isinstance(exc, BudgetError) else 1)


if __name__ == "__main__":
    sys.exit(main())
