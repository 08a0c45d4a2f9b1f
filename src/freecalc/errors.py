"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "CheckFailure",
    "DomainError",
    "FreecalcError",
    "SeriesCapError",
    "ShapeError",
    "ValidationError",
]


class FreecalcError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(FreecalcError, ValueError):
    """Operands have incompatible dimensions or a ragged block layout."""


class DomainError(FreecalcError, ValueError):
    """Input lies outside the admissible domain of an operation.

    Raised for non-finite entries, singular similarity matrices, evaluation
    points outside the region of convergence, and empty sample sets.
    """


class CheckFailure(FreecalcError):
    """A verification run in assert mode found a genuine violation."""


class SeriesCapError(FreecalcError):
    """The series evaluation hit its term cap before certification.

    Carries the partial report computed so far in ``report``.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class ValidationError(FreecalcError, ValueError):
    """A JSON document failed schema validation.

    ``path`` anchors the offending element ("entries[0][1].coeff");
    ``line``/``col`` are set when the underlying parser reports them.
    """

    def __init__(self, message: str, path: str = "$", line: int | None = None,
                 col: int | None = None):
        self.path = path
        self.line = line
        self.col = col
        anchor = path if line is None else f"{path} (line {line}, column {col})"
        super().__init__(f"{anchor}: {message}")
