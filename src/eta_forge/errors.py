"""Exception types shared by every module.

The split mirrors the error contracts of the public operations: domain
errors for violated preconditions, range errors for representability
limits, pole errors carrying the offending location, convergence errors
carrying the best estimate reached, and verification errors for exact
identity checks that fail.
"""

from __future__ import annotations


class EtaForgeError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(EtaForgeError, ValueError):
    """An argument lies outside the domain of the operation."""


class RangeError(EtaForgeError, OverflowError):
    """A result (or intermediate) exceeds the representable range."""


class PoleError(EtaForgeError, ZeroDivisionError):
    """Evaluation at (or too near) a pole.

    ``location`` is the nearest pole as a complex number.
    """

    def __init__(self, message: str, location: complex | None = None):
        super().__init__(message)
        self.location = location


class SingularPrefactorError(DomainError):
    """Inside the exclusion disk (radius 1e-6) around zeta's pole at s = 1.

    ``center`` names the disk center, 1.
    """

    def __init__(self, message: str, center: complex):
        super().__init__(message)
        self.center = center


class ConvergenceError(EtaForgeError, ArithmeticError):
    """An iteration or series failed to meet its stopping rule.

    ``best`` carries the best estimate reached (may be None).
    """

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class VerificationError(EtaForgeError, AssertionError):
    """An exact identity that the library asserts turned out false."""
