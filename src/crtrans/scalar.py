"""Exact complex scalars with rational real and imaginary parts.

All coefficient arithmetic in the package happens in this field. Values are
immutable, equality is exact, and nothing ever rounds.

A scalar is three ints (re, im, den) for (re + im*i) / den, in lowest terms:
den > 0 and gcd(re, im, den) == 1. That is the form of one coefficient of a
`Series`, Gaussian-integer numerators over one int denominator, so the series
kernel reads and builds scalars without a conversion; and it is canonical, so
equality compares ints. No command imports `fractions`: a `Fraction` operand
is recognised through `sys.modules`, since an instance exists only once its
module is loaded, and only `.re`, `.im`, `hash`, `repr` and a constructor
argument that is neither an int nor a `Fraction` build a `Fraction`.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, Optional, Tuple, TypeAlias, Union

if TYPE_CHECKING:
    from fractions import Fraction

# string aliases: a quoted name inside a Union builds a typing.ForwardRef, which
# compiles its text at import, and `Fraction` is never imported at run time
RationalLike: TypeAlias = "Union[int, Fraction]"
ScalarLike: TypeAlias = "Union[GaussianRational, int, Fraction]"


class GaussianRational:
    """A complex number (re + im*i) / den with int parts in lowest terms."""

    __slots__ = ("_re", "_im", "_den")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0) -> None:
        (a, p), (b, q) = _rational(re), _rational(im)
        den = p * q // math.gcd(p, q)  # each part is in lowest terms, so the pair is too
        self._re, self._im, self._den = a * (den // p), b * (den // q), den

    @property
    def re(self) -> "Fraction":
        from fractions import Fraction

        return Fraction(self._re, self._den)

    @property
    def im(self) -> "Fraction":
        from fractions import Fraction

        return Fraction(self._im, self._den)

    @classmethod
    def coerce(cls, value: ScalarLike) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        parts = _parts(value)
        if parts is None:
            raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")
        return _reduced(*parts)

    def conjugate(self) -> "GaussianRational":
        return _reduced(self._re, -self._im, self._den)

    @property
    def is_real(self) -> bool:
        return self._im == 0

    def __bool__(self) -> bool:
        return bool(self._re) or bool(self._im)

    def __eq__(self, other: object) -> bool:
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        return (self._re, self._im, self._den) == parts

    def __hash__(self) -> int:
        return hash(self.re) if self.is_real else hash((self.re, self.im))

    def __neg__(self) -> "GaussianRational":
        return _reduced(-self._re, -self._im, self._den)

    def __add__(self, other: ScalarLike) -> "GaussianRational":
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        c, e, q = parts
        p = self._den
        return _reduced(self._re * q + c * p, self._im * q + e * p, p * q)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "GaussianRational":
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        c, e, q = parts
        p = self._den
        return _reduced(self._re * q - c * p, self._im * q - e * p, p * q)

    def __rsub__(self, other: ScalarLike) -> "GaussianRational":
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        return _reduced(*parts) - self

    def __mul__(self, other: ScalarLike) -> "GaussianRational":
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        a, b = self._re, self._im
        c, e, q = parts
        return _reduced(a * c - b * e, a * e + b * c, self._den * q)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "GaussianRational":
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        a, b = self._re, self._im
        c, e, q = parts
        norm = c * c + e * e
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        # (a + bi)/p / ((c + ei)/q) = (a + bi)(c - ei) q / (p (c^2 + e^2))
        return _reduced((a * c + b * e) * q, (b * c - a * e) * q, self._den * norm)

    def __rtruediv__(self, other: ScalarLike) -> "GaussianRational":
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        return _reduced(*parts) / self

    def __pow__(self, power: int) -> "GaussianRational":
        if power < 0:
            return ONE / (self ** (-power))
        return square_and_multiply(ONE, self, power)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        """The parts as `Fraction` prints them, each reduced on its own, and no
        imaginary coefficient 1: `1/4+1/2i`, `-i`, `3`."""
        re, im, den = self._re, self._im, self._den
        if not im:
            return _ratio_str(re, den)
        mag = "" if abs(im) == den else _ratio_str(abs(im), den)
        sign = "-" if im < 0 else "+" if re else ""
        return f"{_ratio_str(re, den) if re else ''}{sign}{mag}i"


_new = object.__new__


def _reduced(re: int, im: int, den: int) -> GaussianRational:
    """(re + im*i) / den for a positive den, brought to lowest terms."""
    g = math.gcd(re, im, den)
    out = _new(GaussianRational)
    out._re, out._im, out._den = re // g, im // g, den // g
    return out


def _parts(value: object) -> Optional[Tuple[int, int, int]]:
    """The (re, im, den) an arithmetic operand stands for, or None for a
    foreign type, whose reflected operator then gets its turn."""
    if isinstance(value, GaussianRational):
        return value._re, value._im, value._den
    if isinstance(value, int):
        return int(value), 0, 1
    fractions = sys.modules.get("fractions")  # a Fraction exists only once it is loaded
    if fractions is not None and isinstance(value, fractions.Fraction):
        return value.numerator, 0, value.denominator
    return None


def _rational(value: object) -> Tuple[int, int]:
    """(numerator, denominator) of a constructor argument: an int or a Fraction
    as it is, anything else as `Fraction` reads it."""
    parts = None if isinstance(value, GaussianRational) else _parts(value)
    if parts is None:
        from fractions import Fraction

        value = Fraction(value)
        return value.numerator, value.denominator
    return parts[0], parts[2]


def _ratio_str(n: int, d: int) -> str:
    """str(Fraction(n, d))."""
    g = math.gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


def square_and_multiply(out, base, k: int):
    """out * base^k for k >= 0: one product per set bit of k and one squaring
    per bit below the highest, as a last square would go unused."""
    while k:
        if k & 1:
            out = out * base
        k >>= 1
        if k:
            base = base * base
    return out


def qr(re: RationalLike = 0, im: RationalLike = 0) -> GaussianRational:
    """Shorthand constructor."""
    return GaussianRational(re, im)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
TWO_I = GaussianRational(0, 2)
