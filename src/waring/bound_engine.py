"""Exponent recursions, the minor-arc saving constant, and the G(k) bounds.

Everything here is closed-form or a one-dimensional iteration/scan, in double
precision.  The two headline calculators:

  * gk_bound(k, "T1"): minimize 7 + 2v + 2*ceil(C * r^v) over integer v >= 0,
    where C = (k-2)/(2*sigma_hat) and r = k/(k+1).
  * gk_bound(k, "T2"): evaluate 3 + 2u + 2*ceil(Delta(u)/(2*sigma_hat)) at
    the prescribed u = 1 + ceil((k+1)/2 * log(1/sigma_hat)), with Delta(u)
    taken both from the closed decay bound 2k*exp(-2(u-1)/(k+1)) (headline)
    and from the exact coupled iteration (recorded alongside), and minimize
    the same value over u >= 2 by each Delta.

Each scan runs outward from the optimum of its value with the ceil dropped,
a convex lower bound, and stops each side once that bound passes the best
value so far: O(sqrt k) points per scan, with no cap on how far it may go.

sigma_hat comes from solve_sigma: the positive root of (1+x)*beta = e^x with
beta = (k-2)(k+1)^2/k^2 feeds sigma_hat = log(1+1/k)/(4(1+root)).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from itertools import count, islice
from operator import itemgetter

from .errors import DomainError, RootBracketError, as_int, at_least

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
        if not 2 <= as_int(s) <= self.s_max:
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


def _check_ks(k: int, s: int) -> tuple[int, int]:
    return at_least("k", k, 3), at_least("s", s, 2)


def lambda_closed(k: int, s: int) -> float:
    """(2s - k) + (k - 2) * (k/(k+1))^(s-2): the fixed-point solution of the
    exponent recursion at theta = 1/k."""
    k, s = _check_ks(k, s)
    return (2 * s - k) + (k - 2) * (k / (k + 1)) ** (s - 2)


def lambda_iterate(k: int, s_max: int, theta: float) -> ExponentTable:
    """Iterate lambda_s = (lambda_{s-1} + 1 + 2 s theta)/(1 + theta) from
    lambda_2 = 2."""
    k, s_max = _check_ks(k, s_max)
    if not (isinstance(theta, numbers.Real) and 0.0 < theta <= 1.0):
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


def _sigma_gap(x: float, beta: float) -> float:
    return (1 + x) * beta - math.exp(x)


def solve_sigma(k: int) -> SigmaData:
    """Bracketed bisection for the positive root of (1+x)*beta = e^x.  The
    final bracket, a sign change a few ulps wide, certifies the root; past
    k = 37,700 one ulp of x moves the residual past any 1e-9 bound."""
    k, _ = _check_ks(k, 2)
    beta = (k - 2) * (k + 1) ** 2 / k**2
    lo, hi = 0.0, 4 * math.log(k) + 10
    if _sigma_gap(lo, beta) <= 0 or _sigma_gap(hi, beta) >= 0:
        raise RootBracketError(
            f"no sign change on (0, {hi:.3f}] for k={k}")
    while hi - lo > 1e-16 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if _sigma_gap(mid, beta) > 0:
            lo = mid
        else:
            hi = mid
    if not (_sigma_gap(lo, beta) > 0 >= _sigma_gap(hi, beta)
            and hi - lo <= 4 * math.ulp(hi)):
        raise RootBracketError(f"bisection left [{lo!r}, {hi!r}] open for k={k}")
    root = 0.5 * (lo + hi)
    residual = abs(_sigma_gap(root, beta))
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
    k, _ = _check_ks(k, 2)
    if not (isinstance(delta_prev, numbers.Real) and 0.0 < delta_prev < k):
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
    k, s = _check_ks(k, s)
    return 2 * k * math.exp(-2 * (s - 1) / (k + 1))


def _coupled_steps(k: int, full: bool = False):
    """(theta used, Delta(s)) for s = 2, 3, ... of the coupled iteration,
    without end; the seed Delta(2) = k - 2 comes with theta NaN."""
    d = float(k - 2)
    yield math.nan, d
    while True:
        theta = 1.0 / (k + d)
        if full:
            theta += (1.0 / k - 1.0 / (k + d)) * ((k - d) / (2 * k)) ** (k - 1)
        d = (d + k * theta - 1) / (1 + theta)
        yield theta, d


def _delta_steps(k: int, s_max: int, full: bool) -> ExponentTable:
    thetas_used, deltas = zip(*islice(_coupled_steps(k, full), s_max - 1))
    lambdas = tuple(d + (2 * s - k) for s, d in enumerate(deltas, start=2))
    return ExponentTable(k=k, policy="coupled-full" if full else "coupled",
                         theta=None, lambdas=lambdas, deltas=deltas,
                         thetas_used=thetas_used)


def delta_iterate(k: int, s_max: int) -> ExponentTable:
    """Coupled iteration Delta(s) = (Delta(s-1) + k*theta - 1)/(1 + theta)
    with theta = 1/(k + Delta(s-1)), seeded at Delta(2) = k - 2.

    The returned table's `variant`, computed on its first read, carries the
    same iteration driven by the full two-term schedule value of theta_1
    instead of the truncation.
    """
    k, s_max = _check_ks(k, s_max)
    return _delta_steps(k, s_max, full=False)


def _scan_outward(c: int, arg_at, start: int, lo: int,
                  tie=lambda x: 0) -> tuple:
    """Least (c + 2x + 2*ceil(arg), tie(x), x, arg), arg = arg_at(x), over
    integer x >= lo, scanning right from start (raised to lo), then left.

    c + 2x + 2*arg, from the float the ceil sees, is convex in x and bounds
    the value below; once it passes the best value by more than 1 (a margin
    for rounding), every x further out on that side is worse still, so the
    side stops there and no minimiser or tie is missed.  arg must be >= 0,
    so the bound grows without end to the right and the right side stops.
    """
    start = max(start, lo)
    best = (math.inf,)
    for side in (count(start), range(start - 1, lo - 1, -1)):
        for x in side:
            arg = arg_at(x)
            if c + 2 * x + 2 * arg > best[0] + 1:
                break
            best = min(best, (c + 2 * x + 2 * math.ceil(arg), tie(x), x, arg))
    return best


class KBounds:
    """The numeric work of one k, each part done once: sigma_hat from one
    solve_sigma, and one coupled Delta iteration, kept as Delta alone
    (deltas[s - 2] = Delta(s)) and extended only as far as it is read.  Both
    theorems' scans and a report's exponent rows share them; gk_bound is gk
    on a fresh one."""

    def __init__(self, k: int):
        self.k, self.sig = k, solve_sigma(k)
        self.deltas, self._steps = [], map(itemgetter(1), _coupled_steps(k))

    def delta(self, s: int) -> float:
        if len(self.deltas) < s - 1:
            self.deltas.extend(islice(self._steps, s - 1 - len(self.deltas)))
        return self.deltas[s - 2]

    def exponent_rows(self, s_max: int):
        """(s, lambda_s, Delta(s), theta used, closed bound) for s = 2..s_max,
        each float computed as delta_iterate(k, s_max) and delta_bound do."""
        k, s_max = _check_ks(self.k, s_max)
        theta = math.nan
        self.delta(s_max)
        for s, d in zip(range(2, s_max + 1), self.deltas):
            yield (s, d + (2 * s - k), d, theta,
                   2 * k * math.exp(-2 * (s - 1) / (k + 1)))
            theta = 1.0 / (k + d)

    def gk(self, thm: str) -> GkResult:
        """gk_bound's result for thm "T1" or "T2"."""
        k, sig = self.k, self.sig
        if thm == "T1":
            vstar = math.log(sig.mu * (k - 2) / (2 * sig.sigma_hat)) / sig.mu
            best_bound, _, v_opt, arg = _scan_outward(
                7, lambda v: (k - 2) / (2 * sig.sigma_hat) * (k / (k + 1)) ** v,
                round(vstar), 0, tie=lambda v: abs(v - vstar))
            ceil_term = math.ceil(arg)
            return GkResult(
                k=k, theorem="T1", bound=best_bound,
                choice={"v": v_opt, "t": 1 + ceil_term, "ceil_term": ceil_term,
                        "ceil_arg": arg},
                continuous_optimum=vstar,
                asymptote=2 * k * (math.log(k * math.log(k)) + 1 + math.log(2)),
                small_k_caveat=k < SMALL_K_CUTOFF,
            )

        u_cont = 1 + (k + 1) / 2 * math.log(1 / sig.sigma_hat)
        u = 1 + math.ceil((k + 1) / 2 * math.log(1 / sig.sigma_hat))
        delta_u_closed = delta_bound(k, u)
        delta_u_exact = self.delta(u)
        ceil_term = math.ceil(delta_u_closed / (2 * sig.sigma_hat))
        bound_exact = 3 + 2 * u + 2 * math.ceil(delta_u_exact / (2 * sig.sigma_hat))
        closed_opt = 1 + (k + 1) / 2 * math.log(2 * k / ((k + 1) * sig.sigma_hat))
        d_opt = sig.sigma_hat * (k + 1) / (1 - sig.sigma_hat)
        exact_opt = 2 + ((k + 1) * math.log((k - 2) / d_opt) + k - 2 - d_opt) / 2
        scan_closed = _scan_outward(
            3, lambda uu: delta_bound(k, uu) / (2 * sig.sigma_hat),
            round(closed_opt), 2)
        scan_exact = _scan_outward(
            3, lambda uu: self.delta(uu) / (2 * sig.sigma_hat),
            round(exact_opt), 2)
        return GkResult(
            k=k, theorem="T2", bound=3 + 2 * u + 2 * ceil_term,
            choice={"u": u, "t": 1 + ceil_term, "ceil_term": ceil_term,
                    "delta_u_bound": delta_u_closed, "delta_u_exact": delta_u_exact,
                    "bound_exact_delta": bound_exact,
                    "scan_u_best": scan_closed[2], "scan_bound_best": scan_closed[0],
                    "scan_exact_u_best": scan_exact[2],
                    "scan_exact_bound_best": scan_exact[0]},
            continuous_optimum=u_cont,
            asymptote=k * math.log(k * math.log(k)),
            small_k_caveat=k < SMALL_K_CUTOFF,
        )


def gk_bound(k: int, theorem: str | int) -> GkResult:
    """Upper bound for the least number of k-th powers, by either route.

    T1 keeps the least 7 + 2v + 2*ceil(C * r^v) over v >= 0, ties resolved
    toward the continuous optimum vstar.  T2 uses the prescribed u and the
    closed Delta bound for the headline number; the exact-iteration variant
    and the least u >= 2 minimising 3 + 2u + 2*ceil(Delta(u)/(2*sigma_hat)),
    by either Delta, are recorded in `choice`.  Each scan runs outward from
    the minimiser of its value with the ceil dropped: vstar for T1,
    1 + (k+1)/2 * log(2k/((k+1)*sigma_hat)) for the closed Delta, and for
    the exact one the s where the flow dDelta/ds = -2*Delta/(k+Delta+1),
    which the iteration follows, reaches sigma_hat*(k+1)/(1-sigma_hat).
    The exact lower bound is convex since Delta(s+1) =
    Delta(k+Delta-1)/(k+Delta+1) falls and stays positive, so its steps
    2 - 2*Delta/((k+Delta+1)*sigma_hat) rise; Delta is iterated only as far
    as the scan reads.
    """
    thm = {"T1": "T1", "T2": "T2", 1: "T1", 2: "T2", "1": "T1", "2": "T2"}.get(theorem)
    if thm is None:
        raise DomainError(f"theorem must be 1 or 2, got {theorem!r}")
    return KBounds(_check_ks(k, 2)[0]).gk(thm)
