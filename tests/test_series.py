"""Truncated series ring: arithmetic, substitution, implicit solving.

Reference values here are either computed by an independent brute-force
path inside this file or are classical sequences checked by hand.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from crtrans import series as series_module
from crtrans.errors import (
    ArityMismatch,
    NormalizationRequired,
    NotAUnit,
    NotPointed,
    StructureError,
    TruncationMismatch,
)
from crtrans.linalg import evaluate_row
from crtrans.scalar import GaussianRational, I, qr
from crtrans.series import Series, exp_series, invert_unit
from crtrans.substitution import compose, identity_components, solve_implicit

from test_multiindex import iter_up_to


def rand_poly(rng, arity, degree, density=0.4, complex_coeffs=True):
    terms = {}
    for alpha in iter_up_to(arity, degree):
        if rng.random() < density:
            re = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            im = Fraction(rng.randint(-2, 2)) if complex_coeffs else 0
            terms[alpha] = qr(re, im)
    return Series.polynomial(arity, degree, terms)


def brute_mul_terms(f, g):
    """Reference Cauchy product, no sorting tricks."""
    d = min(f.degree, g.degree)
    out = {}
    for ka, va in f.terms.items():
        for kb, vb in g.terms.items():
            kk = tuple(a + b for a, b in zip(ka, kb))
            if sum(kk) <= d:
                out[kk] = out.get(kk, qr(0)) + va * vb
    return {k: v for k, v in out.items() if v}


# ---------------- constructors and queries ----------------


def test_constructor_drops_zero_and_overdegree_terms():
    s = Series(2, 3, {(1, 0): 1, (0, 1): 0, (2, 2): 5})
    assert s.terms == {(1, 0): qr(1)}
    assert not s.exact  # a degree-4 term was discarded

    p = Series.polynomial(2, 3, {(1, 0): 1, (1, 1): Fraction(1, 2)})
    assert p.exact and p.poly_degree == 2


def test_basic_queries():
    z = Series.variable(0, 3, 5)
    assert z.is_pointed and not z.is_zero
    assert z.coefficient((1, 0, 0)) == 1
    assert z.order() == 1
    one = Series.one(2, 4)
    assert one.constant_term == 1 and not one.is_pointed
    assert Series.zero(2, 4).order() == math.inf


def test_order_is_total_degree():
    # ord of a sum is the minimal total degree of a visible term
    s = Series.polynomial(3, 6, {(2, 1, 0): 1, (0, 0, 3): 1})
    assert s.order() == 3
    t = Series.polynomial(3, 6, {(2, 0, 0): 1, (0, 0, 3): 1})
    assert t.order() == 2


def test_leading_index_is_grlex_minimal():
    s = Series.polynomial(2, 5, {(3, 0): 1, (1, 1): 2, (0, 2): 3})
    assert s.leading_index() == (0, 2)
    assert Series.zero(2, 5).leading_index() is None


def test_coefficient_beyond_truncation():
    inexact = Series(2, 2, {(1, 0): 1}, exact=False)
    with pytest.raises(TruncationMismatch):
        inexact.coefficient((3, 0))
    exact = Series.polynomial(2, 2, {(1, 0): 1})
    assert exact.coefficient((3, 0)) == 0


# ---------------- ring operations ----------------


def test_multiplication_against_brute_force():
    rng = random.Random(7)
    for _ in range(25):
        f = rand_poly(rng, 2, rng.randint(0, 6))
        g = rand_poly(rng, 2, rng.randint(0, 6))
        assert (f * g).terms == brute_mul_terms(f, g)


def test_ring_axioms_seeded():
    rng = random.Random(11)
    for _ in range(10):
        a = rand_poly(rng, 3, 5)
        b = rand_poly(rng, 3, 5)
        c = rand_poly(rng, 3, 5)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == Series.zero(3, 5)
        assert a * Series.one(3, 5) == a


def test_binary_ops_truncate_at_min_degree():
    f = Series.polynomial(1, 8, {(5,): 1})
    g = Series.polynomial(1, 3, {(1,): 1})
    assert (f + g).degree == 3
    assert (f + g).terms == {(1,): qr(1)}  # the x^5 term is beyond reach
    assert not (f + g).exact
    assert (f * g).degree == 3 and (f * g).is_zero


def test_scalar_mixing():
    f = Series.polynomial(2, 4, {(1, 0): 1})
    assert (f + 1).constant_term == 1
    assert (2 - f).coefficient((1, 0)) == -1
    assert (f * Fraction(1, 2)).coefficient((1, 0)) == Fraction(1, 2)
    assert (f / 2).coefficient((1, 0)) == Fraction(1, 2)
    assert (f * I).coefficient((1, 0)) == I


def test_pow():
    x = Series.variable(0, 1, 6)
    s = (1 + x) ** 3  # scalar + series promotes
    assert [s.coefficient((k,)) for k in range(4)] == [1, 3, 3, 1]
    with pytest.raises(StructureError):
        x ** -1


@pytest.mark.parametrize(
    "base",
    [
        Series.polynomial(2, 6, {(1, 0): qr(1, 2), (0, 1): Fraction(1, 3), (0, 0): 2}),
        Series.polynomial(2, 6, {(1, 1): I, (2, 0): 1}),
        Series(2, 6, {(1, 0): 1, (0, 0): qr(0, 1)}, exact=False),
        Series.zero(2, 6),
        Series.zero(2, 6, exact=False),
        Series.constant(qr(2, -1), 2, 6),
    ],
)
def test_pow_matches_repeated_multiplication(base):
    slow = Series.one(2, 6)
    for k in range(9):
        fast = base**k
        assert fast == slow and fast.exact == slow.exact
        slow = slow * base


def test_huge_power_returns_at_once():
    start = time.perf_counter()
    p = Series.variable(0, 1, 10) ** 10**9
    assert time.perf_counter() - start < 1.0
    assert p.is_zero and not p.exact and p.degree == 10


def test_arity_mismatch_raises():
    with pytest.raises(ArityMismatch):
        Series.variable(0, 1, 3) + Series.variable(0, 2, 3)


# ---------------- exactness flag ----------------


def test_exactness_propagation():
    x = Series.variable(0, 1, 4)
    assert (x * x).exact  # degree 2 fits under 4
    big = Series.polynomial(1, 4, {(3,): 1})
    assert not (big * big).exact  # true product has degree 6
    assert (big * big).is_zero

    inexact = Series(1, 4, {(1,): 1}, exact=False)
    assert not (x * inexact).exact
    assert (inexact * Series.zero(1, 4)).is_zero
    assert (inexact * Series.zero(1, 4)).exact  # exact zero absorbs


def test_truncate_and_lift():
    x = Series.variable(0, 1, 5)
    p = (1 + x) ** 2
    t = p.truncate(1)
    assert not t.exact and t.terms == {(0,): qr(1), (1,): qr(2)}
    assert p.truncate(3).exact
    lifted = p.lift(9)
    assert lifted.degree == 9 and lifted.terms == p.terms
    with pytest.raises(TruncationMismatch):
        t.lift(9)
    with pytest.raises(TruncationMismatch):
        t.truncate(4)


# ---------------- reshaping ----------------


def test_conjugate():
    f = Series.polynomial(2, 4, {(1, 0): I, (0, 2): qr(1, 1)})
    g = f.conjugate()
    assert g.coefficient((1, 0)) == -I
    assert g.conjugate() == f
    rng = random.Random(3)
    a, b = rand_poly(rng, 2, 4), rand_poly(rng, 2, 4)
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_derivative():
    f = Series.polynomial(2, 5, {(3, 1): 2, (0, 2): 1})
    fx = f.derivative(0)
    assert fx.degree == 4
    assert fx.terms == {(2, 1): qr(6)}
    # partials commute
    assert f.derivative(0).derivative(1) == f.derivative(1).derivative(0)
    rng = random.Random(5)
    a, b = rand_poly(rng, 2, 6), rand_poly(rng, 2, 6)
    lhs = (a * b).derivative(0)
    rhs = a.derivative(0) * b.truncate(5) + a.truncate(5) * b.derivative(0)
    assert lhs == rhs


def test_set_zero_and_coefficient_series():
    f = Series.polynomial(3, 5, {(2, 1, 0): 1, (0, 1, 1): 3, (0, 0, 2): 7})
    assert f.set_zero([0]).terms == {(0, 1, 1): qr(3), (0, 0, 2): qr(7)}
    c = f.coefficient_series([0], (2,))
    assert c.arity == 2 and c.degree == 3
    assert c.terms == {(1, 0): qr(1)}
    # reassembly over the first variable
    g = Series.zero(3, 5)
    x = Series.variable(0, 3, 5)
    for e in range(6):
        part = f.coefficient_series([0], (e,)).lift(5).embed(3, [1, 2])
        g = g + part * x ** e
    assert g == f


def test_shift_down():
    f = Series.polynomial(2, 5, {(2, 1): 4, (3, 0): 1})
    s = f.shift_down(0, 2)
    assert s.degree == 3 and s.terms == {(0, 1): qr(4), (1, 0): qr(1)}
    with pytest.raises(StructureError):
        Series.polynomial(2, 5, {(1, 1): 1}).shift_down(0, 2)


def test_permute_and_embed():
    f = Series.polynomial(2, 4, {(2, 1): 5})
    swapped = f.permute([1, 0])
    assert swapped.terms == {(1, 2): qr(5)}
    emb = f.embed(4, [3, 1])
    assert emb.terms == {(0, 1, 0, 2): qr(5)}
    with pytest.raises(StructureError):
        f.permute([0, 0])


def test_evaluate():
    f = Series.polynomial(2, 4, {(1, 0): 1, (1, 1): 2, (0, 0): 3})
    # f(1/2, i) = 7/2 + i, as (re, im) over one denominator
    assert evaluate_row((f,), [Fraction(1, 2), qr(0, 1)]) == ([(7, 2)], 2)


# ---------------- composition ----------------


def test_compose_identity_law():
    rng = random.Random(13)
    f = rand_poly(rng, 3, 6)
    assert compose(f, identity_components(3, 6)) == f


def test_compose_geometric():
    # 1/(1-x) with x -> x + x^2 equals 1/(1 - x - x^2)
    d = 8
    inv = invert_unit(1 - Series.variable(0, 1, d))
    g = Series.polynomial(1, d, {(1,): 1, (2,): 1})
    lhs = compose(inv, [g])
    rhs = invert_unit(1 - g)
    assert lhs == rhs
    # Fibonacci numbers appear
    assert [rhs.coefficient((k,)) for k in range(7)] == [1, 1, 2, 3, 5, 8, 13]


def test_compose_associativity_seeded():
    rng = random.Random(17)
    for _ in range(6):
        f = rand_poly(rng, 2, 5)
        g = [rand_poly(rng, 2, 5) for _ in range(2)]
        g = [s - Series.constant(s.constant_term, 2, 5) for s in g]  # pointed
        h = [rand_poly(rng, 1, 5) for _ in range(2)]
        h = [s - Series.constant(s.constant_term, 1, 5) for s in h]
        left = compose(compose(f, g), h)
        right = compose(f, [compose(gi, h) for gi in g])
        assert left == right


def test_compose_chain_rule():
    rng = random.Random(19)
    f = rand_poly(rng, 2, 6)
    g = [rand_poly(rng, 1, 6) for _ in range(2)]
    g = [s - Series.constant(s.constant_term, 1, 6) for s in g]
    lhs = compose(f, g).derivative(0)
    rhs = Series.zero(1, 5)
    for i in range(2):
        rhs = rhs + compose(f.derivative(i), [s.truncate(5) for s in g]) * g[i].derivative(0)
    assert lhs == rhs


def test_compose_validation():
    f = Series.variable(0, 2, 4)
    with pytest.raises(ArityMismatch):
        compose(f, [Series.variable(0, 1, 4)])
    not_pointed = Series.one(1, 4)
    with pytest.raises(NotPointed):
        compose(f, [not_pointed, Series.variable(0, 1, 4)])


def test_compose_degree_is_minimum():
    f = Series.polynomial(1, 9, {(2,): 1})
    g = Series.polynomial(1, 4, {(1,): 1, (2,): 1})
    out = compose(f, [g])
    assert out.degree == 4
    assert out.terms == {(2,): qr(1), (3,): qr(2), (4,): qr(1)}


def test_compose_makes_one_product_per_exponent_of_the_unknown(monkeypatch):
    """Plain-variable components only shift exponents.

    So compose(rhs, ids + [u]) multiplies once per distinct exponent of u in
    rhs, and once per power of u beyond the first.
    """
    rng = random.Random(29)
    rhs = rand_poly(rng, 3, 8, density=0.6)
    u = rand_poly(rng, 2, 8, density=0.6)
    u = u - Series.constant(u.constant_term, 2, 8)
    exponents = {k[2] for k in rhs.terms}
    products = []
    kernel = series_module._product

    def counted(*args):
        products.append(args)
        return kernel(*args)

    monkeypatch.setattr(series_module, "_product", counted)
    compose(rhs, list(identity_components(2, 8)) + [u])
    assert len(products) <= len(exponents) + max(exponents) - 1


# ---------------- inversion, implicit solving, exp ----------------


def test_invert_unit_geometric():
    x = Series.variable(0, 1, 7)
    inv = invert_unit(1 - x)
    assert all(inv.coefficient((k,)) == 1 for k in range(8))
    assert inv * (1 - x) == Series.one(1, 7)
    assert not inv.exact


def test_invert_unit_general():
    rng = random.Random(23)
    for _ in range(8):
        f = rand_poly(rng, 2, 5) + 1  # force a unit in most draws
        if not f.constant_term:
            continue
        assert invert_unit(f) * f == Series.one(2, 5)
    with pytest.raises(NotAUnit):
        invert_unit(Series.variable(0, 1, 3))


def test_invert_constant_is_exact():
    c = invert_unit(Series.constant(qr(0, 2), 1, 5))
    assert c.exact and c.constant_term == qr(0, Fraction(-1, 2))


def test_solve_implicit_catalan():
    # u = x (1 + u)^2 generates the Catalan numbers
    rhs = Series.polynomial(2, 8, {(1, 0): 1, (1, 1): 2, (1, 2): 1})
    u = solve_implicit(rhs)
    assert u.arity == 1
    got = [u.coefficient((k,)) for k in range(1, 7)]
    assert got == [1, 2, 5, 14, 42, 132]
    # the fixed-point equation holds on the nose
    ids = identity_components(1, 8)
    assert compose(rhs, list(ids) + [u]) == u


def test_solve_implicit_two_parameters():
    # u = x y + y u^2, a two-variable Catalan variant
    rhs = Series.polynomial(3, 7, {(1, 1, 0): 1, (0, 1, 2): 1})
    u = solve_implicit(rhs)
    ids = identity_components(2, 7)
    assert compose(rhs, list(ids) + [u]) == u
    assert u.coefficient((1, 1)) == 1
    assert u.coefficient((2, 3)) == 1  # y (xy)^2 contribution


def test_solve_implicit_flags_a_polynomial_fixed_point_exact():
    # u = x + u^2 - x^2 is solved by u = x exactly; the solve composes rhs with
    # its last iterate once at full degree, and that image, flagged inexact by
    # the composition, is tested as the polynomial it is
    terms = {(1, 0): 1, (0, 2): 1, (2, 0): -1}
    u = solve_implicit(Series.polynomial(2, 6, terms))
    assert u.terms == {(1,): 1} and u.exact
    assert not solve_implicit(Series(2, 6, terms, exact=False)).exact


def test_solve_implicit_preconditions():
    with pytest.raises(NormalizationRequired):
        solve_implicit(Series.polynomial(2, 4, {(0, 0): 1}))
    with pytest.raises(NormalizationRequired):
        solve_implicit(Series.polynomial(2, 4, {(0, 1): Fraction(1, 2)}))


def test_exp_series_single_variable():
    x = Series.variable(0, 1, 6)
    e = exp_series(x)
    for k in range(7):
        assert e.coefficient((k,)) == Fraction(1, math.factorial(k))
    gauss = exp_series(Series.polynomial(1, 4, {(2,): Fraction(-1, 2)}))
    assert gauss.coefficient((2,)) == Fraction(-1, 2)
    assert gauss.coefficient((4,)) == Fraction(1, 8)


def test_exp_series_is_homomorphism():
    x = Series.variable(0, 2, 6)
    y = Series.variable(1, 2, 6)
    assert exp_series(x + y) == exp_series(x) * exp_series(y)
    with pytest.raises(NotPointed):
        exp_series(Series.one(1, 4))


def test_exp_series_is_exact_only_for_an_exact_zero():
    assert exp_series(Series.zero(1, 4)).exact
    # x^6 truncated at degree 4 reads zero, but its exp is 1 + x^6 + ..., no polynomial
    hidden = Series(1, 4, {(6,): 1})
    assert hidden.is_zero and not hidden.exact
    assert exp_series(hidden) == Series.one(1, 4)
    assert not exp_series(hidden).exact


# ---------------- display ----------------


def test_to_str():
    f = Series.polynomial(3, 5, {(0, 0, 0): 1, (1, 1, 0): -2, (0, 0, 3): Fraction(1, 2)})
    assert f.to_str(["z", "chi", "tau"]) == "1 - 2*z*chi + 1/2*tau^3"
    g = Series.polynomial(1, 3, {(1,): qr(1, 1)})
    assert g.to_str(["w"]) == "(1+i)*w"
    assert Series.zero(2, 3).to_str() == "0"
