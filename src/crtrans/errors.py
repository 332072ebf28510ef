"""Exception types shared across the package."""

from __future__ import annotations


class CrtransError(Exception):
    """Base class for all library errors."""


class ArityMismatch(CrtransError):
    """Operands live in rings with different numbers of variables."""


class TruncationMismatch(CrtransError):
    """An operation needs more truncated data than is available."""


class NotAUnit(CrtransError):
    """Inversion was requested for a series with zero constant term."""


class NotPointed(CrtransError):
    """A substitution argument has a nonzero constant term."""


class NormalizationRequired(CrtransError):
    """The implicit equation is not in solved-for form.

    Raised when d(rhs)/du at the origin is nonzero; the caller must divide
    through by (1 - d(rhs)/du(0,0)) first.
    """


class FieldRestriction(CrtransError):
    """A construction needs a scalar that is not a Gaussian rational."""


class DivisionUncertifiable(CrtransError):
    """Division by a series that vanishes up to its truncation degree."""


class NotSolvableAtTruncation(CrtransError):
    """A triangular system has a diagonal entry with no visible nonzero term."""


class InconsistentData(CrtransError):
    """Supplied jet data does not satisfy the defining relation."""


class NoWitness(CrtransError):
    """A certification was requested but no witness exists up to truncation."""


class StructureError(CrtransError):
    """An object violates a structural precondition of the operation."""


class GrammarError(CrtransError):
    """Input text could not be parsed.

    Carries 1-based line and column of the offending token.
    """

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column
