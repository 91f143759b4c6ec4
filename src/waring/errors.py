"""Exception types shared by every module.

The distinct classes matter to callers: the CLI maps BudgetError to its own
exit code, and the construction errors carry enough context (level index,
offending element, predicted cost) to be actionable without a traceback.
"""


class WaringError(Exception):
    """Base class for all library errors."""


class DomainError(WaringError, ValueError):
    """An argument lies outside the operation's mathematical domain."""


class BudgetError(WaringError):
    """Predicted cost of an exact computation exceeds the configured budget."""

    def __init__(self, message: str, predicted: float | None = None,
                 budget: float | None = None):
        super().__init__(message)
        self.predicted = predicted
        self.budget = budget


class EmptyWindowError(WaringError):
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
