"""Series fractions: cross-multiplied arithmetic and certified degrees.

The `ref_` functions keep the arithmetic of an earlier `FracSeries`, where
every series product went through the general kernel and subtraction added a
negated copy; a property test holds the current operators to them. It needs
the optional `hypothesis` package (the `test` extra) and is left out without it.
"""

import math
import random
from fractions import Fraction

import pytest

from crtrans import multiindex as mi, series
from crtrans.errors import CrtransError, DivisionUncertifiable
from crtrans.fracseries import FracSeries, _plus, _series_eq
from crtrans.scalar import qr
from crtrans.series import Series, invert_unit

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the property test below needs the `test` extra
    given = None


def x_var(d=6):
    return Series.variable(0, 1, d)


def test_construction_rejects_vanishing_denominator():
    with pytest.raises(DivisionUncertifiable):
        FracSeries(Series.one(1, 4), Series.zero(1, 4))


def test_equality_by_cross_multiplication():
    x = x_var()
    one = Series.one(1, 6)
    a = FracSeries(one - x * x, one - x)   # (1-x^2)/(1-x)
    b = FracSeries.from_series(one + x)    # 1+x
    assert a == b
    c = FracSeries(one + x, one - x)
    d = FracSeries(one - x * x, (one - x) * (one - x))
    assert c == d
    assert c != b


def test_exact_products_do_not_vanish_by_truncation():
    # operands sit at degree 3 but their exact product is lifted to 6,
    # so it is visibly nonzero instead of truncating away
    x3 = Series.polynomial(1, 3, {(3,): 1})
    u = FracSeries.from_series(x3) * FracSeries.from_series(x3)
    assert u.num.poly_degree == 6
    assert u != FracSeries.zero(1, 3)
    assert u == FracSeries(x3, Series.one(1, 3)) * x3


def test_field_identities():
    x = x_var()
    a = FracSeries(Series.one(1, 6), Series.one(1, 6) - x)
    assert a - 1 == FracSeries(x, Series.one(1, 6) - x)
    assert a * a.reciprocal() == FracSeries.from_series(Series.one(1, 6))
    assert (a / a) == 1
    zero = a - a
    assert zero.is_zero


def test_matches_series_inverse():
    x = x_var(8)
    frac = FracSeries(Series.one(1, 8), Series.one(1, 8) - x)
    inv = invert_unit(Series.one(1, 8) - x)
    assert frac == FracSeries.from_series(inv)


def test_seeded_field_axioms():
    rng = random.Random(31)

    def rand_frac():
        def poly():
            terms = {
                (k,): qr(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
                for k in range(5)
                if rng.random() < 0.5
            }
            return Series.polynomial(1, 8, terms)

        num = poly()
        den = poly()
        den = den - Series.constant(den.constant_term, 1, 8) + 1  # force a unit
        return FracSeries(num, den)

    for _ in range(8):
        a, b, c = rand_frac(), rand_frac(), rand_frac()
        assert (a + b) * c == a * c + b * c
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a - a == FracSeries.zero(1, 8)


def test_valuation():
    x = x_var()
    f = FracSeries(x * x, x + x * x)
    assert f.valuation == 1
    assert FracSeries.from_series(Series.zero(1, 4)).valuation == math.inf


def test_certified_degree_bookkeeping():
    one = Series.one(1, 6)
    x = x_var(6)
    exact = FracSeries(one + x, one - x)
    assert exact.cert == math.inf

    fuzzy_den = Series(1, 6, {(1,): 1, (2,): 1}, exact=False)
    f = FracSeries(one, fuzzy_den)
    # den tail of order >6 acts through den^2 whose order is 2
    assert f.cert == 4
    g = f.reciprocal()
    assert g.cert == 4 - 2 * f.valuation
    assert (f + exact).cert == 4
    assert (f * exact).cert == 4  # min(4 + 0, inf + val(f))

    with pytest.raises(DivisionUncertifiable):
        FracSeries.zero(1, 6).reciprocal()


def test_mul_cert_uses_valuations():
    one = Series.one(1, 8)
    x = x_var(8)
    a = FracSeries(x, Series(1, 8, {(0,): 1, (1,): 1}, exact=False))
    b = FracSeries(one, one - x)
    # exact numerator, unit denominator known through degree 8, numerator order 1
    assert a.cert == 9 and a.valuation == 1
    assert (a * b).cert == 9   # min(9 + 0, inf + 1)
    assert (a * a).cert == 10  # both branches give 9 + 1


def test_series_operators_defer_to_fracseries():
    one, x = Series.one(1, 6), x_var()
    f = FracSeries(one + x, one - x * x)
    s = one + 2 * x
    fs = FracSeries.from_series(s)
    for got, want in [(s * f, fs * f), (s + f, fs + f), (s - f, fs - f)]:
        assert isinstance(got, FracSeries)
        assert (got.num, got.den, got.cert) == (want.num, want.den, want.cert)
    for op in (lambda: s * "x", lambda: s + "x", lambda: s - "x", lambda: "x" - s):
        with pytest.raises(TypeError):
            op()


def ref_series_mul(a, b):
    """Series product with every factor through the general kernel."""
    d = min(a.degree, b.degree)
    if (a.is_zero and a.exact) or (b.is_zero and b.exact):
        return Series.zero(a.arity, d)
    out = series._product(a._num, b._num, d, a.arity) if a._num and b._num else {}
    exact = a.exact and b.exact and a.poly_degree + b.poly_degree <= d
    return Series._reduced(a.arity, d, out, a._den * b._den, exact)


def ref_times(a, b):
    if a.exact and b.exact:
        t = a.poly_degree + b.poly_degree
        return ref_series_mul(a.lift(t), b.lift(t))
    return ref_series_mul(a, b)


def ref_add(x, y):
    num = _plus(ref_times(x.num, y.den), ref_times(y.num, x.den))
    return FracSeries(num, ref_times(x.den, y.den), min(x.cert, y.cert))


def ref_sub(x, y):
    return ref_add(x, FracSeries(-y.num, y.den, y.cert))


def ref_mul(x, y):
    cert = min(x.cert + min(y.valuation, math.inf), y.cert + min(x.valuation, math.inf))
    return FracSeries(ref_times(x.num, y.num), ref_times(x.den, y.den), cert)


def ref_div(x, y):
    return ref_mul(x, y.reciprocal())


def ref_eq(x, y):
    return _series_eq(ref_times(x.num, y.den), ref_times(y.num, x.den))


def outcome(op, x, y):
    """The result of op(x, y), or the type of the library error it raises."""
    try:
        return op(x, y)
    except CrtransError as exc:
        return type(exc)


def assert_same(got, want):
    if isinstance(want, (type, bool)):
        assert got is want
        return
    for s, r in ((got.num, want.num), (got.den, want.den)):
        assert (s.degree, s.exact, dict(s.terms)) == (r.degree, r.exact, dict(r.terms))
    assert got.cert == want.cert


if given is not None:
    COEFFS = st.builds(lambda a, b: qr(Fraction(a, b)), st.integers(-6, 6), st.integers(1, 4))

    @st.composite
    def frac(draw, arity):
        """Numerators: exact or inexact zeros and polynomials. Denominators:
        the exact one, exact polynomials and truncated series."""
        def poly(degree, exact, min_size):
            indices = st.sampled_from(list(mi.iter_up_to(arity, degree)))
            terms = draw(st.dictionaries(indices, COEFFS.filter(bool), min_size=min_size, max_size=4))
            return Series(arity, degree, terms, exact)

        num = poly(draw(st.integers(0, 5)), draw(st.booleans()), 0)
        if draw(st.booleans()):
            num = Series.zero(arity, num.degree, num.exact)
        den_kind = draw(st.sampled_from(("one", "polynomial", "truncated")))
        den_degree = draw(st.integers(0, 5))
        if den_kind == "one":
            den = Series.one(arity, den_degree)
        else:
            den = poly(den_degree, den_kind == "polynomial", 1)
        return FracSeries(num, den)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_arithmetic_matches_reference(data):
        arity = data.draw(st.integers(1, 2))
        x, y = data.draw(frac(arity)), data.draw(frac(arity))
        for op, ref in [
            (lambda a, b: a + b, ref_add),
            (lambda a, b: a - b, ref_sub),
            (lambda a, b: a * b, ref_mul),
            (lambda a, b: a / b, ref_div),
            (lambda a, b: a == b, ref_eq),
        ]:
            for a, b in ((x, y), (y, x)):
                assert_same(outcome(op, a, b), outcome(ref, a, b))
