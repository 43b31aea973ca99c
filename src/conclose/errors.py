"""Exception types shared across the package."""

from __future__ import annotations


class ClosureError(Exception):
    """Base class for every error raised by this package."""


class GroundSetTooLarge(ClosureError):
    """A ground set, or a set handed to an exhaustive check, exceeds a size limit."""


class MismatchedGroundSets(ClosureError):
    """Two objects that must share a ground set do not."""


class NotStandard(ClosureError):
    """The operation is only defined for standard closure systems."""


class InvalidParams(ClosureError):
    """Generator or constructor parameters are out of range."""


class HypothesesNotMet(ClosureError):
    """A conditional check was invoked although its preconditions fail."""

    def __init__(self, failed: list[str]):
        self.failed = list(failed)
        super().__init__("hypotheses not satisfied: " + ", ".join(self.failed))


class ParseError(ClosureError):
    """A text instance could not be parsed. Carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class OutputLimitExceeded(ClosureError):
    """An enumeration produced more results than its configured cap.

    The exception carries the phase name, the cap, and the sorted int
    masks of the keys or independent sets found so far. Callers must
    treat the partial list as incomplete; it is never a final answer.
    """

    def __init__(self, phase: str, cap: int, partial: list):
        self.phase = phase
        self.cap = cap
        self.partial = partial
        super().__init__(f"{phase}: output cap of {cap} exceeded (at least {len(partial)} results)")
