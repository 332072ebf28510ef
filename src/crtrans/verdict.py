"""Three-valued certification results.

Nonvanishing beyond the truncation degree can never be refuted from truncated
data, so every classifier answers CertifiedTrue, CertifiedFalse, or
UnknownAtTruncation. Certified answers always carry a witness that can be
reproduced by re-evaluation (a coefficient, a minor, an exact scalar) plus the
truncation degree that was actually used.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Dict, Iterable, Mapping, Optional, Tuple

from .multiindex import MultiIndex, grlex_key
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
    return certified_false(coefficient_witness(s), s.degree)


def nonzero(key: str, value: Any, degree: Optional[int]) -> Verdict:
    """certified_true when the exact scalar `value` is nonzero, else
    certified_false; the witness holds it under `key` either way."""
    return (certified_true if value else certified_false)({key: str(value)}, degree)


def coefficient_witness(
    s: "Series", idx: Optional[MultiIndex] = None, **context: Any
) -> Dict[str, Any]:
    """The entries of `context`, then the index and value of the coefficient
    of s at idx, by default at its graded-lex leading index."""
    if idx is None:
        idx = s.leading_index()
    return {**context, "index": list(idx), "value": str(s.coefficient(idx))}


def lowest_power(
    s: "Series", var: int, indices: Iterable[MultiIndex]
) -> Tuple[int, Dict[str, Any]]:
    """The lowest power of variable `var` among `indices`, nonzero terms of s,
    and the witness of the graded-lex first of them with that power."""
    indices = list(indices)
    k = min(idx[var] for idx in indices)
    lead = min((idx for idx in indices if idx[var] == k), key=grlex_key)
    return k, coefficient_witness(s, lead)
