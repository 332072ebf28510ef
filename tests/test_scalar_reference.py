"""GaussianRational in its (re, im, den) integer form against the Fraction-based
class it replaced.

`RefGaussianRational` below is the earlier class, two `Fraction` parts, kept as
the reference; `ref_split` is the conversion the series kernel used to make
from it. Derandomized property tests check that the arithmetic, comparison,
hashing and printing of the integer form agree with it on int, bool,
`Fraction` and Gaussian-rational operands, that every result is in lowest
terms, and that a `Series` built from the scalars stores the numerators and
the denominator the reference conversion gives. Needs the optional
`hypothesis` package (the `test` extra); the module is skipped without it.
"""

import math
import operator
import sys
from fractions import Fraction
from typing import Optional, Union

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from crtrans.scalar import GaussianRational  # noqa: E402
from crtrans.series import Series  # noqa: E402

RationalLike = Union[int, Fraction]


# ---------------- reference ----------------


class RefGaussianRational:
    """A complex number a + b*i with Fraction parts a and b."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0) -> None:
        self.re = Fraction(re)
        self.im = Fraction(im)

    def conjugate(self):
        return RefGaussianRational(self.re, -self.im)

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RefGaussianRational(other)
        if not isinstance(other, RefGaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __neg__(self):
        return RefGaussianRational(-self.re, -self.im)

    def __add__(self, other):
        other = _ref_operand(other)
        if other is None:
            return NotImplemented
        return RefGaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _ref_operand(other)
        if other is None:
            return NotImplemented
        return RefGaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _ref_operand(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _ref_operand(other)
        if other is None:
            return NotImplemented
        return RefGaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _ref_operand(other)
        if other is None:
            return NotImplemented
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return RefGaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        other = _ref_operand(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, power: int):
        if power < 0:
            return REF_ONE / (self ** (-power))
        out = REF_ONE
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
            return _ref_imag_str(self.im)
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{_ref_imag_str(abs(self.im))}"


def _ref_operand(value: object) -> Optional[RefGaussianRational]:
    if isinstance(value, RefGaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return RefGaussianRational(value)
    return None


def _ref_imag_str(f: Fraction) -> str:
    if f == 1:
        return "i"
    if f == -1:
        return "-i"
    return f"{f}i"


REF_ONE = RefGaussianRational(1)


def ref_split(c: RefGaussianRational):
    """(re, im, den) in lowest terms with c == (re + im*i) / den."""
    rd, idn = c.re.denominator, c.im.denominator
    den = rd * idn // math.gcd(rd, idn)
    return c.re.numerator * (den // rd), c.im.numerator * (den // idn), den


# ---------------- strategies ----------------

MODULUS = sys.hash_info.modulus  # a denominator it divides hashes as infinity

numerators = st.integers(-6, 6) | st.integers(-10**30, 10**30)
denominators = (st.integers(1, 12) | st.integers(1, 10**20)
                | st.sampled_from([MODULUS, 3 * MODULUS, MODULUS - 1]))
rationals = st.builds(Fraction, numerators, denominators)
parts = numerators | rationals


@st.composite
def operands(draw):
    """(kind, value): an int, a bool, a Fraction or the parts of a Gaussian rational."""
    kind = draw(st.sampled_from(["int", "bool", "fraction", "gaussian", "gaussian"]))
    if kind == "int":
        return kind, draw(numerators)
    if kind == "bool":
        return kind, draw(st.booleans())
    if kind == "fraction":
        return kind, draw(rationals)
    return kind, (draw(parts), draw(parts))


def new(operand):
    kind, value = operand
    return GaussianRational(*value) if kind == "gaussian" else value


def ref(operand):
    kind, value = operand
    return RefGaussianRational(*value) if kind == "gaussian" else value


def assert_same(got, want) -> None:
    """A result of the integer form against the reference's."""
    if not isinstance(want, RefGaussianRational):
        assert type(got) is type(want) and got == want
        return
    assert type(got) is GaussianRational
    assert (got.re, got.im) == (want.re, want.im)
    assert got._den > 0 and math.gcd(got._re, got._im, got._den) == 1
    assert (str(got), repr(got), hash(got), bool(got)) == (str(want), repr(want), hash(want),
                                                          bool(want))
    assert got.is_real == want.is_real


def outcome(op, *args):
    try:
        return op(*args)
    except ZeroDivisionError:
        return ZeroDivisionError


OPERATORS = [operator.add, operator.sub, operator.mul, operator.truediv, operator.eq,
             operator.ne]


# ---------------- properties ----------------


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.tuples(parts, parts), operands())
def test_arithmetic_and_comparison_match_the_fraction_reference(x, y):
    a, r = GaussianRational(*x), RefGaussianRational(*x)
    assert_same(a, r)
    assert_same(-a, -r)
    assert_same(a.conjugate(), r.conjugate())
    for op in OPERATORS:
        for got, want in ((outcome(op, a, new(y)), outcome(op, r, ref(y))),
                          (outcome(op, new(y), a), outcome(op, ref(y), r))):
            if want is ZeroDivisionError:
                assert got is ZeroDivisionError
            else:
                assert_same(got, want)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.tuples(st.integers(-5, 5) | rationals, st.integers(-5, 5) | rationals),
       st.integers(-4, 6))
def test_powers_match_the_fraction_reference(x, k):
    got, want = outcome(pow, GaussianRational(*x), k), outcome(pow, RefGaussianRational(*x), k)
    if want is ZeroDivisionError:
        assert got is ZeroDivisionError
    else:
        assert_same(got, want)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(parts)
def test_a_real_scalar_equals_and_hashes_as_its_rational(x):
    a = GaussianRational(x)
    assert a == x and x == a and hash(a) == hash(x) == hash(Fraction(x))
    assert_same(a, RefGaussianRational(x))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                       st.tuples(parts, parts), max_size=6))
def test_a_series_stores_the_split_of_the_reference_scalars(terms):
    s = Series(2, 6, {idx: GaussianRational(*x) for idx, x in terms.items()})
    split = {idx: ref_split(RefGaussianRational(*x)) for idx, x in terms.items()
             if any(x) and sum(idx) <= 6}
    den = math.lcm(*(d for _, _, d in split.values()))
    want = {idx: (re * (den // d), im * (den // d)) for idx, (re, im, d) in split.items()}
    assert s._den == den
    assert {idx: s._num[key] for idx, key in zip(s.terms, s._num)} == want
    for idx, c in s.terms.items():
        assert_same(c, RefGaussianRational(*terms[idx]))


def test_other_constructor_arguments_go_through_fraction():
    assert GaussianRational(0.5, "1/3") == GaussianRational(Fraction(1, 2), Fraction(1, 3))
    assert GaussianRational(True, False) == 1
    with pytest.raises(TypeError):
        GaussianRational(GaussianRational(1))
