"""Exception hierarchy shared across the package.

Everything raised on purpose derives from :class:`IdealpackError`, so callers
(and the CLI) can distinguish our failures from genuine bugs.  Usage errors
subclass :class:`InvalidParam`; budget/scale exhaustion subclasses
:class:`BudgetError`.
"""

from __future__ import annotations

__all__ = [
    "IdealpackError",
    "InvalidParam",
    "InvalidTable",
    "KindMismatch",
    "ScaleMismatch",
    "ShiftOutOfBudget",
    "RangeExceedsMargin",
    "SetSyntaxError",
    "UnknownPrimitive",
    "UnknownName",
    "BudgetError",
    "BudgetExceeded",
    "AvoidanceNotFound",
    "NotFoundAtScale",
    "LengthBudgetTooSmall",
    "PreconditionFailed",
]


class IdealpackError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParam(IdealpackError, ValueError):
    """A parameter violates a documented precondition."""


class InvalidTable(InvalidParam):
    """A multiplication table fails the group axioms."""


class KindMismatch(IdealpackError):
    """An operation was asked to run on a group kind it does not support."""


class ScaleMismatch(IdealpackError):
    """Two materialized sets live on different groups or windows."""


class ShiftOutOfBudget(IdealpackError):
    """A translation exceeds the window's declared shift margin."""


class RangeExceedsMargin(InvalidParam):
    """A candidate-translator range exceeds the declared shift margin."""


class SetSyntaxError(IdealpackError, ValueError):
    """Set-expression text failed to parse.

    Carries the 0-based offset of the offending token and a human-readable
    description of what was expected there.
    """

    def __init__(self, message: str, position: int, expected: str = ""):
        super().__init__(f"{message} at offset {position}" + (f" (expected {expected})" if expected else ""))
        self.position = position
        self.expected = expected


class UnknownPrimitive(SetSyntaxError):
    """An identifier was applied like a primitive but is not one."""


class UnknownName(IdealpackError):
    """A name reference did not resolve against the active catalog."""


class BudgetError(IdealpackError):
    """Base class for search/enumeration budget exhaustion."""


class BudgetExceeded(BudgetError):
    """An enumeration would exceed its configured cap; nothing was searched."""


class AvoidanceNotFound(BudgetError):
    """No translate of the base interval avoided the set within the search bound."""

    def __init__(self, bound: int):
        super().__init__(f"no avoiding translate within |y| <= {bound}")
        self.bound = bound


class NotFoundAtScale(IdealpackError):
    """No translator family establishing largeness exists within the given bounds.

    ``best_residual_size`` reports the smallest leftover achieved, and
    ``best_family`` the translator set achieving it, so callers can see how
    close the search came.
    """

    def __init__(self, message: str, best_family=None, best_residual_size: int | None = None):
        super().__init__(message)
        self.best_family = best_family
        self.best_residual_size = best_residual_size


class LengthBudgetTooSmall(IdealpackError):
    """The word-ball depth leaves no core region to decide the question on."""


class PreconditionFailed(IdealpackError):
    """A checked mathematical precondition does not hold for the given input."""
