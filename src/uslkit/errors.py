"""Exception types shared across the toolkit.

Every error raised on purpose derives from UslError so callers can catch
the whole family, while the CLI maps the specific classes onto distinct
exit codes.
"""

from __future__ import annotations

__all__ = [
    "UslError", "DomainError", "MissingBaselineError", "ZeroBaselineError",
    "MissingNormalizationError", "InsufficientDataError", "DegenerateDataError",
    "MismatchedDatasetError", "NoSteadyStateError", "TrimExceedsRunError", "ParseError",
]


class UslError(Exception):
    """Base class for all toolkit errors."""


class DomainError(UslError, ValueError):
    """An argument is outside the mathematically valid range."""


class MissingBaselineError(UslError):
    """The operation needs an n = 1 measurement and none is present."""


class ZeroBaselineError(UslError):
    """The n = 1 measurement has zero throughput, so ratios are undefined."""


class MissingNormalizationError(UslError):
    """Throughput prediction requested but the parameters carry no x1."""


class InsufficientDataError(UslError):
    """Too few distinct points for the requested computation."""


class DegenerateDataError(UslError):
    """The data carries no usable signal (for example all zeros)."""


class MismatchedDatasetError(UslError):
    """A fit result was evaluated against a dataset it does not describe."""


class NoSteadyStateError(UslError):
    """No window of the run satisfies the steady-state criteria."""


class TrimExceedsRunError(UslError):
    """Explicit trim boundaries leave no usable window."""


class ParseError(UslError):
    """A data file could not be parsed.

    Carries the offending path and 1-based line number when known.
    """

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f"{path}:" if line is None else f"{path}:{line}:"
        super().__init__(f"{where} {message}".strip())
