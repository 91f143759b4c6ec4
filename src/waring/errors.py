"""Exception types shared by every module, and what every entry point reads
and refuses its arguments through before any work: as_int (an integer),
at_least (an integer floor), as_real (a finite real) and check_budget (cost).

The distinct classes matter to callers: the CLI maps BudgetError to its own
exit code, and the construction errors carry enough context (level index,
offending element, predicted cost) to be actionable without a traceback.
"""

import numbers
import operator
import sys


class WaringError(Exception):
    """Base class for all library errors."""


class DomainError(WaringError, ValueError):
    """An argument lies outside the operation's mathematical domain."""


def as_int(v) -> int:
    """v as an exact int; a float, a str or any other non-integer is refused."""
    try:
        return operator.index(v)
    except TypeError:
        raise DomainError(f"{v!r} is not an integer") from None


def at_least(name: str, v, least: int) -> int:
    """v read by as_int, refused if it is below least."""
    if (n := as_int(v)) < least:
        raise DomainError(f"{name} must be >= {least}, got {n}")
    return n


def as_real(name: str, v, positive: bool = False) -> float:
    """v as a finite float; nan, an infinity, a str, None or any non-real is
    refused, and so is v <= 0 when positive is set."""
    if isinstance(v, numbers.Real) and abs(v) <= sys.float_info.max:
        if positive and v <= 0:
            raise DomainError(f"{name} must be positive, got {v}")
        return float(v)
    raise DomainError(f"{name} must be a finite real number, got {v!r}")


class BudgetError(WaringError):
    """Predicted cost of an exact computation exceeds the configured budget."""

    def __init__(self, message: str, predicted: float | None = None,
                 budget: float | None = None):
        super().__init__(message)
        self.predicted = predicted
        self.budget = budget


def check_budget(what: str, cost: int, budget: int) -> None:
    """Refuse the work `what`, named by its public function, over budget."""
    if cost > budget:
        raise BudgetError(f"{what}: predicted cost {cost} exceeds budget {budget}",
                          predicted=cost, budget=budget)


class EmptyWindowError(DomainError):
    """A construction level's prime window contains no primes."""

    def __init__(self, message: str, level: int | None = None):
        super().__init__(message)
        self.level = level


class WidthOverflowError(WaringError):
    """A product would exceed the 64-bit element contract; never wrapped."""


class CoprimalityError(WaringError):
    """A set element violates a required coprimality condition."""


class RootBracketError(WaringError):
    """A bracketed root solve found no sign change, or failed to converge."""
