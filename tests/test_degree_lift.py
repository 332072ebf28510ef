"""Degree lifting of the series kernels: a claim made at truncation degree d
must survive recomputing at d + LIFT, with no oracle needed.

Each input is one formal series given at two truncation degrees: the same
drawn terms (total degree up to d + LIFT) and `exact` flag, at d and at
d + LIFT, so the copy at d loses the terms above d and with them its `exact`
flag. `Series` `*` and `+`, `compose`, `solve_implicit` and `exp_series` run
on both copies. The result at d must equal the result at d + LIFT truncated
to d, and a result at d that claims `exact` must have exactly the terms of
the result at d + LIFT. Derandomized; needs the optional `hypothesis` package
(the `test` extra), and the module is skipped without it.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from crtrans.multiindex import unit  # noqa: E402
from crtrans.scalar import qr  # noqa: E402
from crtrans.series import Series, exp_series  # noqa: E402
from crtrans.substitution import compose, solve_implicit  # noqa: E402

LIFT = 4
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

COEFFICIENTS = st.builds(
    lambda re, im, den: qr(Fraction(re, den), Fraction(im, den)),
    st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3),
)
ARITIES = st.integers(1, 3)
DEGREES = st.integers(1, 4)


@st.composite
def lifted(draw, arity, d, drop=()):
    """One series at degrees d and d + LIFT, without the terms at the indices `drop`."""
    top = d + LIFT
    index = st.tuples(*[st.integers(0, top)] * arity).filter(lambda idx: sum(idx) <= top)
    terms = draw(st.dictionaries(index, COEFFICIENTS, max_size=5))
    for idx in drop:
        terms.pop(idx, None)
    exact = draw(st.booleans())
    return Series(arity, d, terms, exact), Series(arity, top, terms, exact)


@st.composite
def lifted_component(draw, arity, d):
    """A pointed series at both degrees, or a variable, which `compose` shifts by."""
    if draw(st.booleans()):
        var = draw(st.integers(0, arity - 1))
        return Series.variable(var, arity, d), Series.variable(var, arity, d + LIFT)
    return draw(lifted(arity, d, drop=[(0,) * arity]))


def assert_lifts(low: Series, high: Series) -> None:
    assert high.degree == low.degree + LIFT
    assert high.truncate(low.degree) == low  # certified through the lower degree
    if low.exact:
        assert high == low.lift(high.degree)  # exact claims the whole series


@PROPERTY
@given(st.data(), ARITIES, DEGREES)
def test_a_product_lifts(data, arity, d):
    (a, a_high), (b, b_high) = data.draw(lifted(arity, d)), data.draw(lifted(arity, d))
    assert_lifts(a * b, a_high * b_high)


@PROPERTY
@given(st.data(), ARITIES, DEGREES)
def test_a_sum_lifts(data, arity, d):
    (a, a_high), (b, b_high) = data.draw(lifted(arity, d)), data.draw(lifted(arity, d))
    assert_lifts(a + b, a_high + b_high)


@PROPERTY
@given(st.data(), ARITIES, ARITIES, DEGREES)
def test_a_composition_lifts(data, arity, inner, d):
    f, f_high = data.draw(lifted(arity, d))
    comps = [data.draw(lifted_component(inner, d)) for _ in range(arity)]
    assert_lifts(compose(f, [c for c, _ in comps]), compose(f_high, [c for _, c in comps]))


@PROPERTY
@given(st.data(), ARITIES, DEGREES)
def test_an_implicit_solution_lifts(data, known, d):
    # u = rhs(x, u) in `known` variables x and the unknown u: rhs vanishes at
    # the origin, and so does its derivative in u
    arity = known + 1
    rhs, rhs_high = data.draw(lifted(arity, d, drop=[(0,) * arity, unit(arity, known)]))
    assert_lifts(solve_implicit(rhs), solve_implicit(rhs_high))


@PROPERTY
@given(st.data(), ARITIES, DEGREES)
def test_an_exponential_lifts(data, arity, d):
    f, f_high = data.draw(lifted(arity, d, drop=[(0,) * arity]))
    assert_lifts(exp_series(f), exp_series(f_high))
