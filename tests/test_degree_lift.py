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

The prolongation layer is checked against an oracle instead: the jets of b
read off b itself, realized ORACLE_LIFT degrees higher than the data, over
DRAWS draws, each from its own seeded `random.Random`.
"""

import math
import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from crtrans import multiindex as mi  # noqa: E402
from crtrans import prolongation  # noqa: E402
from crtrans.errors import CrtransError  # noqa: E402
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


# ---------------- prolongation against an independent oracle ----------------

ORACLE_LIFT = 12
DRAWS = 600


def coefficient(rng: random.Random):
    return qr(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-3, 3))


def chi_factor(rng: random.Random, n: int) -> tuple:
    """A factor in the chi variables: 1, a polynomial 1 + c chi_j^k, exp of a
    linear form, or a linear form, which vanishes at 0."""
    kind = rng.choice(["one", "polynomial", "exp", "vanishing"])
    form = {j: coefficient(rng) for j in rng.sample(range(n), rng.randint(1, n))}
    return kind, form, rng.randint(1, 3)


def products(rng: random.Random, n: int, z_top: int, most: int) -> list:
    """Terms (c, e, factor): c z^e * factor(chi) with |e| <= z_top, for `realize`."""
    terms = []
    for _ in range(rng.randint(1, most)):
        z_exp = [0] * n
        for _ in range(rng.randint(0, z_top)):
            z_exp[rng.randrange(n)] += 1
        terms.append((coefficient(rng), tuple(z_exp), chi_factor(rng, n)))
    return terms


def realize(n: int, terms: list, degree: int) -> Series:
    """The sum of the terms over (z_1..z_n, chi_1..chi_n) at truncation `degree`."""
    arity = 2 * n
    out = Series.zero(arity, degree)
    for c, z_exp, (kind, form, k) in terms:
        chi = {unit(arity, n + j): a for j, a in form.items()}
        if kind == "one":
            factor = Series.one(arity, degree)
        elif kind == "polynomial":
            j = min(form)
            power = (0,) * n + tuple(k if i == j else 0 for i in range(n))
            factor = Series.polynomial(arity, degree, {(0,) * arity: 1, power: form[j]})
        elif kind == "exp":
            factor = exp_series(Series.polynomial(arity, degree, chi))
        else:
            factor = Series.polynomial(arity, degree, chi)
        out = out + Series.polynomial(arity, degree, {z_exp + (0,) * n: c}) * factor
    return out


def product_through(x: Series, y: Series, t: int):
    """x * y through degree t, or None when that is not known: the unknown tail
    of an inexact factor enters the product only past its degree plus the
    other factor's order."""
    reach = min(math.inf if x.exact else x.degree + y.order(),
                math.inf if y.exact else y.degree + x.order())
    if t > reach:
        return None
    return Series(x.arity, t, x.terms) * Series(y.arity, t, y.terms)


def test_prolongation_values_match_the_jets_of_b():
    """Each value N/D certified through k has N - D * oracle vanishing through
    k + ord(D), the oracle being alpha! [z^alpha] b realized ORACLE_LIFT
    degrees higher; an exact quotient equals the oracle entirely. The draws
    mix polynomial, exp and vanishing factors, so exact and inexact operands
    meet in every order inside the solve."""
    compared = 0
    for i in range(DRAWS):
        rng = random.Random(f"prolong-lift:{i}")
        n = rng.randint(1, 2)
        a_terms = products(rng, n, 2, 3)
        b_terms = [products(rng, n, 3, 3) for _ in range(rng.randint(1, 2))]
        alpha = tuple(rng.randint(0, 2) for _ in range(n))
        d = rng.randint(2, 6)
        z_block = tuple(range(n))
        try:  # as the prolong command solves
            a = realize(n, a_terms, d)
            comps = [realize(n, terms, d) for terms in b_terms]
            pivot = prolongation.minimal_ordered_nonzero(a, n)
            jets = prolongation.forward_expand(a, n, comps, sum(alpha) + sum(pivot))
            solution = prolongation.prolongation_solve(
                prolongation.ProlongationInstance(a, n, jets), alpha)
        except CrtransError:
            continue
        fact = mi.factorial(alpha)
        for value, terms in zip(solution.values, b_terms):
            oracle = realize(n, terms, d + ORACLE_LIFT).coefficient_series(z_block, alpha)
            oracle = oracle.scale(fact)
            num, den = value.num, value.den
            if value.cert == math.inf:  # an exact quotient: N = D * oracle entirely
                assert num.exact and oracle.exact, i
                if num.is_zero:  # 0 / D is exact whatever D's tail
                    assert oracle.is_zero, i
                else:
                    top = num.poly_degree + den.poly_degree + oracle.poly_degree
                    assert den.exact and num.lift(top) == den.lift(top) * oracle.lift(top), i
                compared += 1
                continue
            t = value.cert + den.order()
            if t < 0:  # nothing certified
                continue
            assert num.exact or num.degree >= t, i  # a claim past what N knows
            product = product_through(den, oracle, t)
            if product is None:
                continue
            assert (Series(num.arity, t, num.terms) - product).is_zero, i
            compared += 1
    assert compared >= 300
