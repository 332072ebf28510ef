"""Gaussian rational arithmetic."""

from fractions import Fraction

import pytest

from crtrans.scalar import GaussianRational, I, ONE, ZERO, qr


def test_construction_and_coercion():
    a = GaussianRational(1, 2)
    assert a.re == Fraction(1) and a.im == Fraction(2)
    assert GaussianRational.coerce(3) == GaussianRational(3)
    assert GaussianRational.coerce(Fraction(1, 2)) == GaussianRational(Fraction(1, 2))
    assert GaussianRational.coerce(a) is a


def test_equality_against_plain_numbers():
    assert GaussianRational(2) == 2
    assert GaussianRational(Fraction(1, 2)) == Fraction(1, 2)
    assert GaussianRational(0, 1) != 0
    assert hash(GaussianRational(2)) == hash(GaussianRational(2, 0))


def test_field_operations():
    a = qr(1, 2)
    b = qr(3, -1)
    assert a + b == qr(4, 1)
    assert a - b == qr(-2, 3)
    assert a * b == qr(5, 5)  # (1+2i)(3-i) = 3 - i + 6i + 2
    assert (a / b) * b == a
    assert -a == qr(-1, -2)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_conjugate_and_reality():
    a = qr(Fraction(1, 2), Fraction(-3, 4))
    assert a.conjugate() == qr(Fraction(1, 2), Fraction(3, 4))
    assert (a * a.conjugate()).is_real
    assert not a.is_real
    assert I * I == -1


def test_powers():
    assert I ** 2 == qr(-1)
    assert I ** 3 == qr(0, -1)
    assert qr(2) ** 10 == 1024
    assert qr(2) ** -2 == Fraction(1, 4)
    assert qr(1, 1) ** 0 == ONE


def test_str_forms():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(I) == "i"
    assert str(-I) == "-i"
    assert str(qr(0, 2)) == "2i"
    assert str(qr(1, 2)) == "1+2i"
    assert str(qr(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4i"
    assert str(qr(0, Fraction(1, 3))) == "1/3i"


def test_series_operand_gets_its_reflected_operator():
    from crtrans.series import Series

    s = Series.polynomial(2, 4, {(1, 0): qr(1, 1), (0, 2): Fraction(1, 3)})
    assert qr(2) * s == s * qr(2)
    assert qr(2) + s == s + qr(2)
    assert qr(2) - s == -(s - qr(2))


def test_foreign_operand_still_raises_type_error():
    for op in (
        lambda: qr(2) * "x",
        lambda: "x" * qr(2),
        lambda: qr(2) + "x",
        lambda: qr(2) - "x",
        lambda: "x" - qr(2),
        lambda: qr(2) / "x",
        lambda: "x" / qr(2),
    ):
        with pytest.raises(TypeError):
            op()
    assert 2 - qr(1) == 1 and 1 / qr(2) == Fraction(1, 2)
