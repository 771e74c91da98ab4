"""Exception hierarchy for the ctinv package.

Every failure the library can signal deliberately derives from CtinvError so
callers can catch one type at the CLI boundary and map subclasses to exit
codes.  There is no warning class: ill-conditioning is reported (the
cos_cond of each candidate), not warned about.
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


class InternalInconsistencyError(CtinvError, RuntimeError):
    """A computation that must succeed by construction does not.

    A singular M_cos in the large-r matching solve, or a scan that contradicts the
    single-channel rule: a genuine inconsistency (or ill-conditioning), not a user error.
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


class ParseError(CtinvError, ValueError):
    """A user-supplied file could not be parsed.

    `line`, when given, is the 1-based number of the offending line; the
    message then starts "line N:".
    """

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
