"""Fractions of truncated series, the working field for rank and jets.

A FracSeries is a pair num/den of Series over the same ring, den nonzero up
to its truncation degree. No series division is ever performed: arithmetic
stays in cross-multiplied form and equality is decided by cross-multiplying.

Certified-degree bookkeeping: `cert` bounds the degree through which the
represented quotient is pinned down by the truncated data (after adjusting
for the denominator's vanishing order). When numerator and denominator are
both exact polynomials the quotient is known completely and cert is
infinite; exact operands are silently lifted to whatever working degree a
product needs, so equalities of polynomial data are genuinely exact.

Cost: every `+`, `-` and `==` cross-multiplies the two denominators, so a
chain of sums over powers of one series p multiplies ever larger powers of p.
The prolongation solver therefore does no FracSeries arithmetic: it keeps
each jet as numerators over one power of its pivot and builds FracSeries only
for its results (see `prolongation`). `from_series` puts a series over the
exact one, which `Series.__mul__` multiplies without the general product.
Subtraction cross-multiplies with the sign in `_plus`, without a negated copy
of the subtrahend.
"""

from __future__ import annotations

import math
from typing import Sequence, Union

from .errors import ArityMismatch, DivisionUncertifiable
from .scalar import GaussianRational, ScalarLike
from .series import Series

Cert = Union[int, float]


def _times(a: Series, b: Series) -> Series:
    """Product that lifts exact operands so no exact content is truncated away."""
    if a.exact and b.exact:
        t = a.poly_degree + b.poly_degree
        return a.lift(t) * b.lift(t)
    return a * b


def _plus(a: Series, b: Series, sign: int = 1) -> Series:
    if a.exact and b.exact:
        t = max(a.poly_degree, b.poly_degree)
        a, b = a.lift(t), b.lift(t)
    return a + b if sign > 0 else a - b


def _series_eq(a: Series, b: Series) -> bool:
    if a.exact and b.exact:
        return a.terms == b.terms
    d = min(a.degree, b.degree)
    return a.truncate(d).terms == b.truncate(d).terms


def _monomial_floor(s: Series) -> tuple:
    floor = None
    for key in s.terms:
        floor = key if floor is None else tuple(map(min, floor, key))
    return floor or (0,) * s.arity


def _strip_common_monomial(num: Series, den: Series) -> tuple:
    """Divide out the largest monomial dividing both; display-only convenience."""
    g = tuple(map(min, _monomial_floor(num), _monomial_floor(den)))
    for var, amount in enumerate(g):
        num, den = num.shift_down(var, amount), den.shift_down(var, amount)
    return num, den


class FracSeries:
    """num/den with explicit certified-degree tracking."""

    __slots__ = ("num", "den", "cert")

    def __init__(self, num: Series, den: Series, cert: Cert | None = None) -> None:
        if num.arity != den.arity:
            raise ArityMismatch("numerator and denominator live in different rings")
        if den.is_zero:
            raise DivisionUncertifiable(
                f"denominator vanishes up to truncation degree {den.degree}"
            )
        self.num = num
        self.den = den
        if cert is None:
            # precision of the quotient: an unknown tail of the numerator is
            # divided by den once, one in the denominator acts through den^2
            p_n = math.inf if num.exact else num.degree
            p_d = math.inf if den.exact else den.degree
            od = den.order()
            cert = min(p_n - od, p_d - 2 * od + num.order())
        self.cert = cert

    # ---------------- constructors / coercion ----------------

    @classmethod
    def from_series(cls, s: Series) -> "FracSeries":
        return cls(s, Series.one(s.arity, s.degree))

    @classmethod
    def zero(cls, arity: int, degree: int) -> "FracSeries":
        return cls.from_series(Series.zero(arity, degree))

    @classmethod
    def coerce(cls, value: Union["FracSeries", Series], arity: int, degree: int) -> "FracSeries":
        if isinstance(value, FracSeries):
            return value
        if isinstance(value, Series):
            return cls.from_series(value)
        return cls.from_series(Series.constant(GaussianRational.coerce(value), arity, degree))

    # ---------------- queries ----------------

    @property
    def arity(self) -> int:
        return self.num.arity

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def valuation(self):
        return self.num.order() - self.den.order()

    def __repr__(self) -> str:
        return f"<FracSeries ({self.num.to_str()}) / ({self.den.to_str()})>"

    def to_str(self, names: Sequence[str] | None = None) -> str:
        if self.num.is_zero:
            return self.num.to_str(names)
        num, den = _strip_common_monomial(self.num, self.den)
        if den.poly_degree == 0:
            c = den.constant_term
            if c != GaussianRational(1):
                num = num.scale(GaussianRational(1) / c)
            return num.to_str(names)
        return f"({num.to_str(names)}) / ({den.to_str(names)})"

    # ---------------- arithmetic ----------------

    def __neg__(self) -> "FracSeries":
        return FracSeries(-self.num, self.den, self.cert)

    def _coerce_other(self, other) -> "FracSeries":
        if isinstance(other, FracSeries):
            return other
        if isinstance(other, Series):
            return FracSeries.from_series(other)
        return FracSeries.from_series(
            Series.constant(GaussianRational.coerce(other), self.arity, self.num.degree)
        )

    def __add__(self, other) -> "FracSeries":
        o = self._coerce_other(other)
        num = _plus(_times(self.num, o.den), _times(o.num, self.den))
        den = _times(self.den, o.den)
        return FracSeries(num, den, min(self.cert, o.cert))

    __radd__ = __add__

    def __sub__(self, other) -> "FracSeries":
        o = self._coerce_other(other)
        num = _plus(_times(self.num, o.den), _times(o.num, self.den), -1)
        den = _times(self.den, o.den)
        return FracSeries(num, den, min(self.cert, o.cert))

    def __rsub__(self, other) -> "FracSeries":
        return self._coerce_other(other) - self

    def __mul__(self, other) -> "FracSeries":
        o = self._coerce_other(other)
        num = _times(self.num, o.num)
        den = _times(self.den, o.den)
        cert = min(self.cert + min(o.valuation, math.inf),
                   o.cert + min(self.valuation, math.inf))
        return FracSeries(num, den, cert)

    __rmul__ = __mul__

    def reciprocal(self) -> "FracSeries":
        if self.num.is_zero:
            raise DivisionUncertifiable("reciprocal of a series vanishing up to truncation")
        cert = self.cert - 2 * self.valuation
        return FracSeries(self.den, self.num, cert)

    def __truediv__(self, other) -> "FracSeries":
        return self * self._coerce_other(other).reciprocal()

    def scale(self, value: ScalarLike) -> "FracSeries":
        return FracSeries(self.num.scale(value), self.den, self.cert)

    # ---------------- comparison ----------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (FracSeries, Series, int)):
            o = self._coerce_other(other)
        else:
            return NotImplemented
        return _series_eq(_times(self.num, o.den), _times(o.num, self.den))

    __hash__ = None  # type: ignore[assignment]
