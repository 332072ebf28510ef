"""Exact complex scalars with rational real and imaginary parts.

All coefficient arithmetic in the package happens in this field. Values are
immutable, equality is exact, and nothing ever rounds.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

RationalLike = Union[int, Fraction]
ScalarLike = Union["GaussianRational", int, Fraction]


class GaussianRational:
    """A complex number a + b*i with Fraction parts a and b."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0) -> None:
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def coerce(cls, value: ScalarLike) -> "GaussianRational":
        out = _operand(value)
        if out is None:
            raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")
        return out

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __add__(self, other: ScalarLike) -> "GaussianRational":
        other = _operand(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "GaussianRational":
        other = _operand(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other: ScalarLike) -> "GaussianRational":
        other = _operand(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other: ScalarLike) -> "GaussianRational":
        other = _operand(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "GaussianRational":
        other = _operand(other)
        if other is None:
            return NotImplemented
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other: ScalarLike) -> "GaussianRational":
        other = _operand(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, power: int) -> "GaussianRational":
        if power < 0:
            return ONE / (self ** (-power))
        out = ONE
        base = self
        k = power
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return _imag_str(self.im)
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{_imag_str(abs(self.im))}"


def _operand(value: object) -> Optional[GaussianRational]:
    """The Gaussian rational an arithmetic operand stands for, or None for a
    foreign type, whose reflected operator then gets its turn."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    return None


def _imag_str(f: Fraction) -> str:
    if f == 1:
        return "i"
    if f == -1:
        return "-i"
    return f"{f}i"


def qr(re: RationalLike = 0, im: RationalLike = 0) -> GaussianRational:
    """Shorthand constructor."""
    return GaussianRational(re, im)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)
TWO_I = GaussianRational(0, 2)
