"""Command-line surface: bound tables, verification suites, report files.

Subcommands: bounds, count, smooth, arcs, diff, verify.  CSV is the default
format (one provenance column per row naming the producing operation); JSON
carries the same rows with the header metadata inline.  Exit codes: 0 ok,
2 config error, 3 budget error, 4 verification failure, 1 other errors.

Reports start with a '# generated:' timestamp line; everything after it is
deterministic for a fixed config and seed (timing columns excepted, where an
interface prescribes them).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone

from . import acceptance, aux_count, bound_engine, differences, expsum_arcs, \
    smooth_sets
from .errors import BudgetError, WaringError


class ConfigError(WaringError):
    pass


@dataclass
class RunConfig:
    command: str
    k: int | None = None
    k_range: tuple[int, int] | None = None
    theorem: str | None = None
    P: list[float] = field(default_factory=list)
    theta: float | None = None
    s: int | None = None
    budget_ops: int = aux_count.DEFAULT_BUDGET
    budget_grid: int = expsum_arcs.DEFAULT_GRID_BUDGET
    seed: int = 0
    format: str = "csv"
    out: str | None = None
    paper_faithful: bool = False
    levels: int = 0
    delta: float | None = None
    q: list[int] = field(default_factory=list)
    W: float | None = None
    points: int = 512
    quick: bool = False
    h_max: int = 2
    x_range: int = 8
    tpq: tuple[int, int] | None = None
    set: str | None = None

    def k_values(self) -> list[int]:
        if self.k_range is not None:
            a, b = self.k_range
            return list(range(a, b + 1))
        if self.k is not None:
            return [self.k]
        raise ConfigError("need --k or --k-range")

    def validate(self) -> None:
        if self.budget_ops <= 0 or self.budget_grid <= 0:
            raise ConfigError("budgets must be positive")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"unknown format {self.format!r}")
        if self.k_range is not None and self.k_range[0] > self.k_range[1]:
            raise ConfigError(f"empty k range {self.k_range}")
        if self.theorem not in (None, "1", "2"):
            raise ConfigError(f"theorem must be 1 or 2, got {self.theorem!r}")
        if any(p <= 0 for p in self.P):
            raise ConfigError("P values must be positive")


_CONFIG_KEYS = {f.name for f in fields(RunConfig)}


def _parse_config_file(path: str) -> dict:
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
                if key not in _CONFIG_KEYS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = val
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return values


def _coerce(key: str, val: str):
    """Typed value of a flag or config entry given as text."""
    try:
        if key in ("k", "s", "seed", "levels", "points", "h_max", "x_range",
                   "budget_ops", "budget_grid"):
            return int(val)
        if key in ("theta", "delta", "W"):
            return float(val)
        if key in ("paper_faithful", "quick"):
            return val.lower() in ("1", "true", "yes", "on")
        if key == "P":
            return [float(v) for v in val.split(",")]
        if key == "q":
            return [int(v) for v in val.split(",")]
        if key == "k_range":
            a, b = val.split(":")
            return (int(a), int(b))
        if key == "tpq":
            a, b = val.split(",")
            return (int(a), int(b))
    except ValueError as exc:
        raise ConfigError(f"bad value {val!r} for {key}: {exc}") from exc
    return val


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="waring", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None)
        p.add_argument("--k", default=None)
        p.add_argument("--k-range", dest="k_range", default=None,
                       help="inclusive range a:b")
        p.add_argument("--theorem", default=None, help="1 or 2")
        p.add_argument("--P", default=None, help="comma-separated list")
        p.add_argument("--theta", default=None)
        p.add_argument("--s", default=None)
        p.add_argument("--budget-ops", dest="budget_ops", default=None)
        p.add_argument("--budget-grid", dest="budget_grid", default=None)
        p.add_argument("--seed", default=None)
        p.add_argument("--format", default=None, help="csv or json")
        p.add_argument("--out", default=None)
        p.add_argument("--paper-faithful", dest="paper_faithful",
                       action="store_true", default=None)

    for name in ("bounds", "count", "smooth", "arcs", "diff", "verify"):
        p = sub.add_parser(name)
        common(p)
        if name == "count":
            p.add_argument("--tpq", default=None, help="p,q primes")
            p.add_argument("--set", default=None,
                           help="set file to count over instead of [1..P]")
        if name == "smooth":
            p.add_argument("--levels", default=None)
            p.add_argument("--delta", default=None)
            p.add_argument("--q", default=None, help="comma-separated moduli")
        if name == "arcs":
            p.add_argument("--W", default=None)
            p.add_argument("--points", default=None)
        if name == "diff":
            p.add_argument("--levels", default=None)
            p.add_argument("--delta", default=None)
            p.add_argument("--h-max", dest="h_max", default=None)
            p.add_argument("--x-range", dest="x_range", default=None)
        if name == "verify":
            p.add_argument("--quick", action="store_true", default=None)
    return top


def _merge(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    file_vals = _parse_config_file(args.config) if args.config else {}
    for key, raw in file_vals.items():
        if key == "command":
            continue
        setattr(cfg, key, _coerce(key, raw))
    for key in vars(args):
        if key in ("config", "command"):
            continue
        val = getattr(args, key)
        if val is None:
            continue
        # store_true flags arrive as booleans, every other value as text
        setattr(cfg, key, _coerce(key, val) if isinstance(val, str) else val)
    try:
        cfg.validate()
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


# ---------------------------------------------------------------------------
# Report writing
# ---------------------------------------------------------------------------

def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


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
        cols: list = []
        for row in rows:
            for c in row:
                if c not in cols:
                    cols.append(c)
        writer = csv.DictWriter(buf, fieldnames=cols, restval="")
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_bounds(cfg: RunConfig) -> int:
    rows = []
    theorems = [cfg.theorem] if cfg.theorem else ["1", "2"]
    for k in cfg.k_values():
        sig = bound_engine.solve_sigma(k)
        rows.append({
            "record": "sigma", "k": k, "beta": sig.beta,
            "lambda_root": sig.lambda_root, "sigma_hat": sig.sigma_hat,
            "mu": sig.mu, "s_star": sig.s_star,
            "provenance": "bound_engine.solve_sigma",
        })
        for thm in theorems:
            r = bound_engine.gk_bound(k, thm)
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
        s_hi = cfg.s or max(20, 2 * k)
        table = bound_engine.delta_iterate(k, s_hi)
        for s in range(2, s_hi + 1):
            rows.append({
                "record": "exponent", "k": k, "s": s,
                "lambda": table.lambda_at(s), "delta": table.delta_at(s),
                "theta_used": table.theta_at(s),
                "delta_closed_bound": bound_engine.delta_bound(k, s),
                "provenance": "bound_engine.delta_iterate",
            })
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
        cfg.P = [float(max(imported.elements))]
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
            theta = cfg.theta if cfg.theta is not None else 0.4
            final = smooth_sets.build_single_levels(k, P, theta, cfg.levels)
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
    d = expsum_arcs.ArcDissection.make(P, k, W=cfg.W)
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
    t0 = time.perf_counter()
    exact4 = expsum_arcs.exact_moment(expsum_arcs.abs_power(spec, 4),
                                      budget_grid=cfg.budget_grid)
    rows.append({"record": "moment", "moment_id": "abs_f4_full", "P": P,
                 "k": k, "params": "|f|^4", "region": "full", "value": exact4,
                 "err_est": 0.0, "seconds": f"{time.perf_counter() - t0:.3f}",
                 "provenance": "expsum_arcs.exact_moment"})
    for region in ("major", "minor"):
        t0 = time.perf_counter()
        m = expsum_arcs.arc_moment(expsum_arcs.abs_power(spec, 4, region), d,
                                   samples_per_arc=256)
        rows.append({"record": "moment", "moment_id": f"abs_f4_{region}",
                     "P": P, "k": k, "params": "|f|^4", "region": region,
                     "value": m.value, "err_est": m.err_est,
                     "seconds": f"{time.perf_counter() - t0:.3f}",
                     "provenance": "expsum_arcs.arc_moment"})
    t0 = time.perf_counter()
    m = expsum_arcs.arc_moment(expsum_arcs.abs_power(spec, k + 2, "major"), d,
                               samples_per_arc=256)
    rows.append({"record": "moment", "moment_id": "abs_f_k2_major", "P": P,
                 "k": k, "params": f"|f|^{k + 2}", "region": "major",
                 "value": m.value, "err_est": m.err_est,
                 "ratio_to_P2": m.value / P**2,
                 "seconds": f"{time.perf_counter() - t0:.3f}",
                 "provenance": "expsum_arcs.arc_moment"})
    _emit(cfg, {"subcommand": "arcs", "tau": d.tau, "W": d.W}, rows)
    return 0


def _cmd_diff(cfg: RunConfig) -> int:
    if cfg.k is None:
        raise ConfigError("diff needs --k")
    k = cfg.k
    rows = []
    primes = (2, 3, 5, 7)
    levels = cfg.levels or min(3, k)
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
    note = ("x in the nested sums ranges over [1, x_range]; "
            "the inner bound is a configuration choice")
    _emit(cfg, {"subcommand": "diff", "note": note}, rows)
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    quick = bool(cfg.quick)
    results = acceptance.run_all(seed=cfg.seed, quick=quick)
    lines = acceptance.report_lines(results)
    body = "\n".join(lines) + "\n"
    for r, line in zip(results, lines):
        print(f"{line}  [{r.seconds:.2f}s]")
    n_fail = sum(1 for r in results if not r.passed)
    print(f"{len(results) - n_fail}/{len(results)} criteria passed"
          f" ({'quick' if quick else 'full'} mode, seed {cfg.seed})")
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(f"# generated: {_timestamp()}\n")
            fh.write(f"# mode: {'quick' if quick else 'full'} seed={cfg.seed}\n")
            fh.write(body)
    return 4 if n_fail else 0


_HANDLERS = {
    "bounds": _cmd_bounds,
    "count": _cmd_count,
    "smooth": _cmd_smooth,
    "arcs": _cmd_arcs,
    "diff": _cmd_diff,
    "verify": _cmd_verify,
}


def _error_record(exc: Exception) -> str:
    return json.dumps({"error": type(exc).__name__, "message": str(exc)})


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge(args)
        return _HANDLERS[cfg.command](cfg)
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
