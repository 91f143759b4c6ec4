"""Exponent recursions, the minor-arc saving constant, and the G(k) bounds.

Everything here is closed-form or a one-dimensional iteration/scan, in double
precision.  The two headline calculators:

  * gk_bound(k, "T1"): minimize 7 + 2v + 2*ceil(C * r^v) over integer v,
    where C = (k-2)/(2*sigma_hat) and r = k/(k+1); the scan stops at the
    first v with 7 + 2v above the best bound so far.
  * gk_bound(k, "T2"): evaluate 3 + 2u + 2*ceil(Delta(u)/(2*sigma_hat)) at
    the prescribed u = 1 + ceil((k+1)/2 * log(1/sigma_hat)), with Delta(u)
    taken both from the closed decay bound 2k*exp(-2(u-1)/(k+1)) (headline)
    and from the exact coupled iteration (recorded alongside).  A scan of
    each over u near the prescribed one stops at the first u with 3 + 2u at
    or above its best bound so far.

sigma_hat comes from solve_sigma: the positive root of (1+x)*beta = e^x with
beta = (k-2)(k+1)^2/k^2 feeds sigma_hat = log(1+1/k)/(4(1+root)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import DomainError, RootBracketError

SMALL_K_CUTOFF = 10  # results below this k are computed but flagged


@dataclass(frozen=True)
class ExponentTable:
    """lambda_s and Delta(s) = lambda_s - (2s - k) for s = 2..s_max.

    thetas_used[0] is NaN (the seed s = 2 uses no construction exponent).
    For the coupled policy, `variant` is the same table computed with the
    full two-term schedule formula instead of the truncated 1/(k + Delta);
    it is built on first read.  Other policies have no variant (None).
    """

    k: int
    policy: str                      # "fixed-theta" | "coupled" | "coupled-full"
    theta: float | None
    lambdas: tuple[float, ...]
    deltas: tuple[float, ...]
    thetas_used: tuple[float, ...]

    @cached_property
    def variant(self) -> "ExponentTable | None":
        if self.policy != "coupled":
            return None
        return _delta_steps(self.k, self.s_max, full=True)

    @property
    def s_max(self) -> int:
        return len(self.lambdas) + 1

    def _idx(self, s: int) -> int:
        if not 2 <= s <= self.s_max:
            raise DomainError(f"s={s} outside table range [2, {self.s_max}]")
        return s - 2

    def lambda_at(self, s: int) -> float:
        return self.lambdas[self._idx(s)]

    def delta_at(self, s: int) -> float:
        return self.deltas[self._idx(s)]


@dataclass(frozen=True)
class SigmaData:
    """Saving-exponent data derived from the root of (1+x)*beta = e^x."""

    k: int
    beta: float
    lambda_root: float
    sigma_hat: float
    mu: float          # log((k+1)/k)
    s_star: float      # lambda_root / log(1 + 1/k)
    residual: float


@dataclass(frozen=True)
class ThetaSchedule:
    """Per-level construction exponents theta_1..theta_k; theta_k = 1/k."""

    k: int
    delta_prev: float
    thetas: tuple[float, ...]


@dataclass(frozen=True)
class GkResult:
    k: int
    theorem: str               # "T1" | "T2"
    bound: int
    choice: dict
    continuous_optimum: float
    asymptote: float
    small_k_caveat: bool


def _check_ks(k: int, s: int) -> None:
    if k < 3:
        raise DomainError(f"k must be >= 3, got {k}")
    if s < 2:
        raise DomainError(f"s must be >= 2, got {s}")


def lambda_closed(k: int, s: int) -> float:
    """(2s - k) + (k - 2) * (k/(k+1))^(s-2): the fixed-point solution of the
    exponent recursion at theta = 1/k."""
    _check_ks(k, s)
    return (2 * s - k) + (k - 2) * (k / (k + 1)) ** (s - 2)


def lambda_iterate(k: int, s_max: int, theta: float) -> ExponentTable:
    """Iterate lambda_s = (lambda_{s-1} + 1 + 2 s theta)/(1 + theta) from
    lambda_2 = 2."""
    _check_ks(k, s_max)
    if not 0.0 < theta <= 1.0:
        raise DomainError(f"theta must lie in (0, 1], got {theta}")
    lambdas = [2.0]
    thetas_used = [math.nan]
    for s in range(3, s_max + 1):
        lambdas.append((lambdas[-1] + 1 + 2 * s * theta) / (1 + theta))
        thetas_used.append(theta)
    deltas = tuple(lam - (2 * s - k) for s, lam in enumerate(lambdas, start=2))
    return ExponentTable(k=k, policy="fixed-theta", theta=theta,
                         lambdas=tuple(lambdas), deltas=deltas,
                         thetas_used=tuple(thetas_used))


def solve_sigma(k: int) -> SigmaData:
    """Bracketed bisection for the positive root of (1+x)*beta = e^x."""
    if k < 3:
        raise DomainError(f"k must be >= 3, got {k}")
    beta = (k - 2) * (k + 1) ** 2 / k**2

    def f(x: float) -> float:
        return (1 + x) * beta - math.exp(x)

    lo, hi = 0.0, 4 * math.log(k) + 10
    if f(lo) <= 0 or f(hi) >= 0:
        raise RootBracketError(
            f"no sign change on (0, {hi:.3f}] for k={k}")
    while hi - lo > 1e-16 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    residual = abs(f(root))
    if residual > 1e-9:
        raise RootBracketError(
            f"bisection stalled at residual {residual:.3e} for k={k}")
    mu = math.log((k + 1) / k)
    return SigmaData(
        k=k,
        beta=beta,
        lambda_root=root,
        sigma_hat=mu / (4 * (1 + root)),
        mu=mu,
        s_star=root / mu,
        residual=residual,
    )


def theta_schedule(k: int, delta_prev: float) -> ThetaSchedule:
    """Balanced construction exponents
    theta_j = 1/(k+D) + (1/k - 1/(k+D)) * ((k-D)/(2k))^(k-j), D = delta_prev.

    The last entry is pinned to exactly 1/k.
    """
    if k < 3:
        raise DomainError(f"k must be >= 3, got {k}")
    if not 0.0 < delta_prev < k:
        raise DomainError(
            f"delta_prev must lie in (0, k); got {delta_prev} for k={k}")
    base = 1.0 / (k + delta_prev)
    gap = 1.0 / k - base
    ratio = (k - delta_prev) / (2 * k)
    thetas = [base + gap * ratio ** (k - j) for j in range(1, k)]
    thetas.append(1.0 / k)
    return ThetaSchedule(k=k, delta_prev=delta_prev, thetas=tuple(thetas))


def delta_bound(k: int, s: int) -> float:
    """Closed decay bound 2k * exp(-2(s-1)/(k+1)) for Delta(s)."""
    _check_ks(k, s)
    return 2 * k * math.exp(-2 * (s - 1) / (k + 1))


def _delta_steps(k: int, s_max: int, full: bool) -> ExponentTable:
    deltas = [float(k - 2)]
    thetas_used = [math.nan]
    for _ in range(3, s_max + 1):
        d = deltas[-1]
        theta = 1.0 / (k + d)
        if full:
            theta += (1.0 / k - 1.0 / (k + d)) * ((k - d) / (2 * k)) ** (k - 1)
        deltas.append((d + k * theta - 1) / (1 + theta))
        thetas_used.append(theta)
    lambdas = tuple(d + (2 * s - k) for s, d in enumerate(deltas, start=2))
    return ExponentTable(k=k, policy="coupled-full" if full else "coupled",
                         theta=None, lambdas=lambdas, deltas=tuple(deltas),
                         thetas_used=tuple(thetas_used))


def delta_iterate(k: int, s_max: int) -> ExponentTable:
    """Coupled iteration Delta(s) = (Delta(s-1) + k*theta - 1)/(1 + theta)
    with theta = 1/(k + Delta(s-1)), seeded at Delta(2) = k - 2.

    The returned table's `variant`, computed on its first read, carries the
    same iteration driven by the full two-term schedule value of theta_1
    instead of the truncation.
    """
    _check_ks(k, s_max)
    return _delta_steps(k, s_max, full=False)


def _t2_value(k: int, u: int, delta_u: float, sig: SigmaData) -> tuple[int, int]:
    ceil_term = math.ceil(delta_u / (2 * sig.sigma_hat))
    return 3 + 2 * u + 2 * ceil_term, ceil_term


def gk_bound(k: int, theorem: str | int, scan_factor: float = 4.0) -> GkResult:
    """Upper bound for the least number of k-th powers, by either route.

    T1 scans v upward from 0 and keeps the minimizing value (ties resolved
    toward the continuous optimum).  The ceil term is never negative, so the
    scan stops at the first v with 7 + 2v > best: every later v is worse and
    every tied minimizer has been seen.  T2 uses the prescribed u and the
    closed Delta bound for the headline number; the exact-iteration variant
    and the first strict minimum of a scan over u, by either Delta, are
    recorded in `choice`.  Both Deltas are positive (the iteration maps D > 0
    to D(k+D-1)/(k+D+1)), so each scan stops at the first u with
    3 + 2u >= best.  `scan_hi` (scan_factor times the continuous optimum)
    and `scan_window` (+-3k around u at the default scan_factor) are the
    caps of the scans, not where they stopped.
    """
    thm = {"T1": "T1", "T2": "T2", 1: "T1", 2: "T2", "1": "T1", "2": "T2"}.get(theorem)
    if thm is None:
        raise DomainError(f"theorem must be 1 or 2, got {theorem!r}")
    sig = solve_sigma(k)
    caveat = k < SMALL_K_CUTOFF

    if thm == "T1":
        vstar = math.log(sig.mu * (k - 2) / (2 * sig.sigma_hat)) / sig.mu
        v_hi = max(8, math.ceil(scan_factor * max(vstar, 1.0)))
        best = (math.inf,)  # (bound, |v - vstar|, v, ceil_arg, ceil_term)
        for v in range(v_hi + 1):
            if 7 + 2 * v > best[0]:  # every later v is worse still
                break
            arg = (k - 2) / (2 * sig.sigma_hat) * (k / (k + 1)) ** v
            ceil_term = math.ceil(arg)
            best = min(best, (7 + 2 * v + 2 * ceil_term, abs(v - vstar), v,
                              arg, ceil_term))
        best_bound, _, v_opt, arg, ceil_term = best
        return GkResult(
            k=k, theorem="T1", bound=best_bound,
            choice={"v": v_opt, "t": 1 + ceil_term, "ceil_term": ceil_term,
                    "ceil_arg": arg, "scan_hi": v_hi},
            continuous_optimum=vstar,
            asymptote=2 * k * (math.log(k * math.log(k)) + 1 + math.log(2)),
            small_k_caveat=caveat,
        )

    u_cont = 1 + (k + 1) / 2 * math.log(1 / sig.sigma_hat)
    u = 1 + math.ceil((k + 1) / 2 * math.log(1 / sig.sigma_hat))
    scan_lo, scan_hi = max(2, u - math.ceil(scan_factor / 4.0 * 3 * k)), \
        u + math.ceil(scan_factor / 4.0 * 3 * k)
    table = delta_iterate(k, scan_hi)
    delta_u_closed = delta_bound(k, u)
    delta_u_exact = table.delta_at(u)
    bound_closed, ceil_term = _t2_value(k, u, delta_u_closed, sig)
    bound_exact, _ = _t2_value(k, u, delta_u_exact, sig)

    def scan(delta_of_u) -> tuple[int, int]:
        best = (None, math.inf)
        for uu in range(scan_lo, scan_hi + 1):
            if 3 + 2 * uu >= best[1]:  # no later uu can improve strictly
                break
            b, _ = _t2_value(k, uu, delta_of_u(uu), sig)
            if b < best[1]:
                best = (uu, b)
        return best

    scan_closed = scan(lambda uu: delta_bound(k, uu))
    scan_exact = scan(lambda uu: table.deltas[uu - 2])
    return GkResult(
        k=k, theorem="T2", bound=bound_closed,
        choice={"u": u, "t": 1 + ceil_term, "ceil_term": ceil_term,
                "delta_u_bound": delta_u_closed, "delta_u_exact": delta_u_exact,
                "bound_exact_delta": bound_exact,
                "scan_u_best": scan_closed[0], "scan_bound_best": scan_closed[1],
                "scan_exact_u_best": scan_exact[0],
                "scan_exact_bound_best": scan_exact[1],
                "scan_window": (scan_lo, scan_hi)},
        continuous_optimum=u_cont,
        asymptote=k * math.log(k * math.log(k)),
        small_k_caveat=caveat,
    )
