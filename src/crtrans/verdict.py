"""Three-valued certification results.

Nonvanishing beyond the truncation degree can never be refuted from truncated
data, so every classifier answers CertifiedTrue, CertifiedFalse, or
UnknownAtTruncation. Certified answers always carry a witness that can be
reproduced by re-evaluation (a coefficient, a minor, an exact scalar) plus the
truncation degree that was actually used.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Mapping, Optional

from .record import Record

if TYPE_CHECKING:
    from .series import Series


class Status(str, enum.Enum):
    CERTIFIED_TRUE = "certified_true"
    CERTIFIED_FALSE = "certified_false"
    UNKNOWN_AT_TRUNCATION = "unknown_at_truncation"


class Verdict(Record):
    status: Status
    witness: Optional[Mapping[str, Any]] = None
    degree_used: Optional[int] = None

    @property
    def is_true(self) -> bool:
        return self.status is Status.CERTIFIED_TRUE

    @property
    def is_false(self) -> bool:
        return self.status is Status.CERTIFIED_FALSE

    @property
    def is_unknown(self) -> bool:
        return self.status is Status.UNKNOWN_AT_TRUNCATION


def certified_true(witness: Optional[Mapping[str, Any]] = None, degree: Optional[int] = None) -> Verdict:
    return Verdict(Status.CERTIFIED_TRUE, witness, degree)


def certified_false(witness: Optional[Mapping[str, Any]] = None, degree: Optional[int] = None) -> Verdict:
    return Verdict(Status.CERTIFIED_FALSE, witness, degree)


def unknown(witness: Optional[Mapping[str, Any]] = None, degree: Optional[int] = None) -> Verdict:
    return Verdict(Status.UNKNOWN_AT_TRUNCATION, witness, degree)


def vanishes(s: "Series", witness: Mapping[str, Any]) -> Verdict:
    """certified_true(witness) when s is zero up to its degree, else
    certified_false at the graded-lex leading coefficient of s."""
    if s.is_zero:
        return certified_true(witness, s.degree)
    lead = s.leading_index()
    return certified_false({"index": list(lead), "value": str(s.coefficient(lead))}, s.degree)
