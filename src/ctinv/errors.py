"""Exception hierarchy for the ctinv package.

Every failure the library can signal deliberately derives from CtinvError so
callers can catch one type at the CLI boundary and map subclasses to exit
codes.
"""

from __future__ import annotations


class CtinvError(Exception):
    """Base class for all deliberate ctinv failures."""


class DomainError(CtinvError, ValueError):
    """Argument outside the mathematical domain (x <= 0, order <= -1/2, ...)."""


class SaturationError(CtinvError, ArithmeticError):
    """A special-function value overflowed or lost all precision.

    Raised instead of silently returning inf/nan, e.g. for the irregular
    solution near the origin at large order.
    """


class SingularConfigurationError(CtinvError, ValueError):
    """Sets S and T collide (some L equals some ell within tolerance).

    Every denominator of the form ell(ell+1) - L(L+1) vanishes in that case,
    so no quantity downstream is defined.
    """


class IllConditionedWarning(UserWarning):
    """A linear solve went through but the matrix condition exceeds 1e12."""


class InternalInconsistencyError(CtinvError, RuntimeError):
    """A quantity that must be real/unimodular by construction is not.

    Signals a genuine inconsistency (or severe ill-conditioning) rather than
    a user error.
    """


class NoValidTError(CtinvError, ValueError):
    """Expansion coefficients do not correspond to any admissible real T."""


class InadmissibleConfigurationError(CtinvError, ValueError):
    """The GLM determinant vanishes inside the requested radial range."""


class TailFitError(CtinvError, RuntimeError):
    """The oscillatory tail could not be fitted; a larger range is needed."""


class BracketingError(CtinvError, RuntimeError):
    """Root bracketing failed to isolate the requested zero."""


class WindowTooSmallError(CtinvError, RuntimeError):
    """Phase extraction window too short or fit residual too large."""


class InsufficientDataError(CtinvError, ValueError):
    """An operation needs more inputs than were supplied (e.g. missing B_ell)."""


class ParseError(CtinvError, ValueError):
    """A user-supplied file could not be parsed.

    `line`, when given, is the 1-based number of the offending line; the
    message then starts "line N:".
    """

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
