"""Integer series kernels against a schoolbook GaussianRational reference.

`Ref` keeps a series as a dict of GaussianRational terms, and the `ref_*`
functions below are the dict-of-GaussianRational kernels the integer-backed
Series replaced. A property test checks values, `exact` flags, canonical form
and equality against them, another every coefficient block of a random
variable block, and another products with a one-term factor. Fixed cases
cover the packed keys at their edges: arity 0, the largest degree a key field
holds and the refusal past it, and the tuple boundary of `terms`,
`sorted_terms`, `order`, `poly_degree` and `leading_index`. `compose` is
also checked against the plain sum of products of component powers, and
`solve_implicit` against the full-degree Picard loop it replaced
(`ref_solve_implicit`). Needs the optional `hypothesis` package (the `test`
extra); the module is skipped without it.
"""

import itertools
import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from crtrans import multiindex as mi, series  # noqa: E402
from crtrans.errors import CrtransError, TruncationMismatch  # noqa: E402
from crtrans.scalar import ONE, ZERO, GaussianRational, qr  # noqa: E402
from crtrans.series import Series, exp_series  # noqa: E402
from crtrans.substitution import compose, solve_implicit  # noqa: E402

from test_multiindex import iter_up_to  # noqa: E402


class Ref:
    """A series as a dict of GaussianRational terms, with the schoolbook kernels below."""

    def __init__(self, arity, degree, terms, exact):
        self.arity, self.degree, self.terms, self.exact = arity, degree, terms, exact


def ref_build(arity, degree, raw, exact):
    """What Series(arity, degree, raw, exact) must hold."""
    terms, dropped = {}, False
    for k, v in raw.items():
        c = GaussianRational.coerce(v)
        if not c:
            continue
        if sum(k) > degree:
            dropped = True
            continue
        terms[k] = c
    return Ref(arity, degree, terms, exact and not dropped)


def ref_poly_degree(f):
    return max((sum(k) for k in f.terms), default=0)


def ref_truncate(f, d):
    kept = {k: v for k, v in f.terms.items() if sum(k) <= d}
    return Ref(f.arity, d, kept, f.exact and len(kept) == len(f.terms))


def ref_add(f, g, sign=1):
    d = min(f.degree, g.degree)
    f, g = ref_truncate(f, d), ref_truncate(g, d)
    out = dict(f.terms)
    for k, v in g.terms.items():
        v = out.get(k, ZERO) + (v if sign > 0 else -v)
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return Ref(f.arity, d, out, f.exact and g.exact)


def ref_mul(f, g):
    d = min(f.degree, g.degree)
    if (not f.terms and f.exact) or (not g.terms and g.exact):
        return Ref(f.arity, d, {}, True)
    out = {}
    for ka, va in f.terms.items():
        for kb, vb in g.terms.items():
            kk = tuple(a + b for a, b in zip(ka, kb))
            if sum(kk) <= d:
                out[kk] = out.get(kk, ZERO) + va * vb
    exact = f.exact and g.exact and ref_poly_degree(f) + ref_poly_degree(g) <= d
    return Ref(f.arity, d, {k: v for k, v in out.items() if v}, exact)


def ref_scale(f, c):
    if not c:
        return Ref(f.arity, f.degree, {}, True)
    return Ref(f.arity, f.degree, {k: v * c for k, v in f.terms.items()}, f.exact)


def ref_derivative(f, var):
    """None where the derivative must raise: at degree 0 a truncated series
    leaves the derivative's constant term, its own degree-1 coefficient, unknown."""
    if f.degree < 1 and not f.exact:
        return None
    out = {}
    for k, v in f.terms.items():
        if k[var]:
            out[k[:var] + (k[var] - 1,) + k[var + 1 :]] = v * k[var]
    return Ref(f.arity, max(f.degree - 1, 0), out, f.exact)


def ref_set_zero(f, vs):
    out = {k: v for k, v in f.terms.items() if all(k[i] == 0 for i in vs)}
    return Ref(f.arity, f.degree, out, f.exact)


def ref_coefficient_series(f, vs, alpha):
    keep = [i for i in range(f.arity) if i not in vs]
    out = {
        tuple(k[i] for i in keep): v
        for k, v in f.terms.items()
        if all(k[i] == e for i, e in zip(vs, alpha))
    }
    return Ref(len(keep), f.degree - sum(alpha), out, f.exact)


def ref_compose(f, comps):
    arity = comps[0].arity
    d = min([f.degree] + [c.degree for c in comps])
    acc = Ref(arity, d, {}, True)
    tail_unknown = not f.exact
    for alpha, c in sorted(f.terms.items(), key=lambda kv: mi.grlex_key(kv[0])):
        if sum(alpha) > d:
            tail_unknown = True
            continue
        zero = next((i for i, e in enumerate(alpha) if e and not comps[i].terms), None)
        if zero is not None:
            tail_unknown |= not comps[zero].exact
            continue
        prod = Ref(arity, d, {(0,) * arity: ONE}, True)
        for i, e in enumerate(alpha):
            for _ in range(e):
                prod = ref_mul(prod, comps[i])
        acc = ref_add(acc, ref_scale(prod, c))
    return Ref(arity, d, acc.terms, acc.exact and not tail_unknown)



def ref_solve_implicit(rhs):
    """The full-degree Picard loop: from u = 0, every step composes rhs with
    the last iterate through rhs's whole truncation degree, until nu == u."""
    m, d = rhs.arity - 1, rhs.degree
    ids = [Series.variable(i, m, d) for i in range(m)]
    u = Series.zero(m, d)
    for _ in range(d + 2):
        nu = compose(rhs, ids + [u])
        if nu == u:
            return nu
        u = nu
    raise AssertionError("the Picard iteration did not stabilize")

def fields(key, arity):
    """The arity + 1 fields of a packed key, the degree field first."""
    out = []
    for _ in range(arity + 1):
        out.append(key & series._MASK)
        key >>= series._W
    assert key == 0, "bits above the degree field"
    return out[::-1]


def assert_canonical(s):
    """Nonzero Gaussian-integer numerators over a positive denominator, in lowest
    terms, under packed keys whose exponent fields sum to the degree field."""
    parts = [x for c in s._num.values() for x in c]
    assert s._den > 0
    assert math.gcd(s._den, *parts) == 1
    assert all(c != (0, 0) for c in s._num.values())
    for k in s._num:
        degree, *exponents = fields(k, s.arity)
        assert sum(exponents) == degree <= s.degree
    assert s._num or s._den == 1


COEFFS = st.builds(
    lambda a, b, c, d: qr(Fraction(a, b), Fraction(c, d)),
    st.integers(-12, 12),
    st.integers(1, 12),
    st.integers(-12, 12),
    st.integers(1, 12),
)


@st.composite
def raw_series(draw, arity, degree, pointed=False):
    """Constructor arguments; some terms lie one degree past the truncation."""
    indices = list(iter_up_to(arity, degree + 1))[1 if pointed else 0 :]
    keys = draw(st.lists(st.sampled_from(indices), max_size=8, unique=True))
    return arity, degree, {k: draw(COEFFS) for k in keys}, draw(st.booleans())


@st.composite
def component(draw, inner):
    """A substitution component and its reference.

    Besides general pointed series: plain variables x_j, which `compose` takes
    as shifts; scaled variables such as 2*x_j and inexact variables, which are
    not shifts; and zeros. The last two come exact or not.
    """
    degree = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(("series", "variable", "scaled", "zero")))
    if kind == "series" or degree == 0:
        raw = draw(raw_series(inner, degree, pointed=True))
        return Series(*raw), ref_build(*raw)
    j = draw(st.integers(0, inner - 1))
    x = mi.unit(inner, j)
    if kind == "variable":
        return Series.variable(j, inner, degree), Ref(inner, degree, {x: ONE}, True)
    exact = draw(st.booleans())
    if kind == "scaled":
        c = draw(st.sampled_from((ONE, qr(2), qr(-1), qr(0, 1))))
        return Series(inner, degree, {x: c}, exact), Ref(inner, degree, {x: c}, exact)
    return Series.zero(inner, degree, exact), Ref(inner, degree, {}, exact)


@st.composite
def one_term(draw, arity):
    """Constructor arguments of a one-term series: the one, another constant or
    a monomial, often of its full truncation degree, so that a product with a
    series of lower degree truncates it away."""
    degree = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(("one", "constant", "monomial")))
    idx = (0,) * arity
    if kind == "monomial" and degree:
        top = list(mi.iter_degree(arity, degree))
        idx = draw(st.sampled_from(top) | st.sampled_from(list(iter_up_to(arity, degree))[1:]))
    c = ONE if kind == "one" else draw(COEFFS.filter(bool))
    return arity, degree, {idx: c}, draw(st.booleans())


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_one_term_factors_match_reference(data):
    arity = data.draw(st.integers(1, 3))
    rt = data.draw(one_term(arity))
    rg = data.draw(st.one_of(raw_series(arity, data.draw(st.integers(0, 6))), one_term(arity)))
    t, g, T, G = Series(*rt), Series(*rg), ref_build(*rt), ref_build(*rg)
    assert len(t.terms) == 1
    for got, want in [(t * g, ref_mul(T, G)), (g * t, ref_mul(G, T))]:
        assert (got.arity, got.degree, got.exact) == (want.arity, want.degree, want.exact)
        assert dict(got.terms) == want.terms
        assert_canonical(got)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_integer_kernels_match_reference(data):
    arity = data.draw(st.integers(1, 3))
    ra = data.draw(raw_series(arity, data.draw(st.integers(0, 6))))
    rb = data.draw(raw_series(arity, data.draw(st.integers(0, 6))))
    a, b, A, B = Series(*ra), Series(*rb), ref_build(*ra), ref_build(*rb)
    c = data.draw(COEFFS)
    var = data.draw(st.integers(0, arity - 1))
    cut = data.draw(st.integers(0, a.degree))
    inner = data.draw(st.integers(1, 3))
    comps, ref_comps = zip(*(data.draw(component(inner)) for _ in range(arity)))
    cases = [
        (a, A),
        (b, B),
        (a * b, ref_mul(A, B)),
        (a + b, ref_add(A, B)),
        (a - b, ref_add(A, B, -1)),
        (a.scale(c), ref_scale(A, c)),
        (compose(a, comps), ref_compose(A, ref_comps)),
        (a.truncate(cut), ref_truncate(A, cut)),
        (a.set_zero([var]), ref_set_zero(A, [var])),
        (a.coefficient_series([var], (cut,)), ref_coefficient_series(A, [var], (cut,))),
    ]
    want = ref_derivative(A, var)
    if want is None:
        with pytest.raises(TruncationMismatch):
            a.derivative(var)
    else:
        cases.append((a.derivative(var), want))
    for got, want in cases:
        assert (got.arity, got.degree, got.exact) == (want.arity, want.degree, want.exact)
        assert dict(got.terms) == want.terms
        assert_canonical(got)

    results = [got for got, _ in cases]
    results += [b + a, b * a, a / 2, Series(*ra[:2], dict(a.terms))]
    for x, y in itertools.combinations(results, 2):
        same = dict(x.terms) == dict(y.terms)
        assert (x.terms == y.terms) == same
        if (x.arity, x.degree) == (y.arity, y.degree):
            assert (x == y) == same


@st.composite
def non_shift(draw, inner, degree):
    """A component `compose` does not take as a shift: a pointed series, a
    scaled variable, an inexact variable or a zero, each exact or not."""
    kind = draw(st.sampled_from(("series", "variable", "zero")))
    exact = draw(st.booleans())
    if kind == "series":
        return Series(*draw(raw_series(inner, degree, pointed=True)))
    if kind == "zero":
        return Series.zero(inner, degree, exact)
    c = draw(st.sampled_from((ONE, qr(2), qr(-1), qr(0, 1))))
    x = mi.unit(inner, draw(st.integers(0, inner - 1)))
    return Series(inner, degree, {x: c}, exact and c != ONE)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_compose_matches_the_sum_of_component_power_products(data):
    """compose(f, comps) against sum_alpha c_alpha * prod_i comps[i]^alpha_i,
    built from Series `*` and `+`. One to three components are not shifts, so
    the truncated Horner scheme nests, skips gaps in the exponents and meets
    zero and inexact components."""
    arity = data.draw(st.integers(1, 4))
    inner = data.draw(st.integers(1, 3))
    degree = data.draw(st.integers(0, 8))
    indices = list(iter_up_to(arity, degree + 1))
    keys = data.draw(st.lists(st.sampled_from(indices), max_size=16, unique=True))
    f = Series(arity, degree, {k: data.draw(COEFFS) for k in keys}, data.draw(st.booleans()))
    others = data.draw(st.permutations(range(arity)))[: data.draw(st.integers(1, min(3, arity)))]
    comps = [
        data.draw(non_shift(inner, data.draw(st.integers(1, 8)))) if i in others
        else Series.variable(data.draw(st.integers(0, inner - 1)), inner, data.draw(st.integers(1, 8)))
        for i in range(arity)
    ]
    d = min([f.degree] + [c.degree for c in comps])
    want = Series.zero(inner, d)
    for alpha, c in f.terms.items():
        p = Series.one(inner, d)
        for comp, e in zip(comps, alpha):
            for _ in range(e):
                p = p * comp
        want = want + p.scale(c)
    got = compose(f, comps)
    assert got == want
    assert_canonical(got)


@pytest.mark.parametrize(
    "f, comps",
    [
        # y0*y1^2 - y0*y1*y2 under (x1^2, x0, x0) is zero, but each term's image
        # has degree 4, beyond the truncation degree 3: the zero is not exact
        (
            Series(3, 3, {(1, 2, 0): 1, (1, 1, 1): -1}),
            [Series(2, 3, {(0, 2): 1}), Series.variable(0, 2, 3), Series.variable(0, 2, 3)],
        ),
        # x0 known only through degree 3 is not a plain variable
        (Series(1, 3, {(1,): 1}), [Series(2, 3, {(1, 0): 1}, exact=False)]),
    ],
    ids=["cancellation", "inexact_variable"],
)
def test_compose_exact_flag_on_fixed_cases(f, comps):
    refs = [ref_build(c.arity, c.degree, dict(c.terms), c.exact) for c in comps]
    want = ref_compose(ref_build(f.arity, f.degree, dict(f.terms), f.exact), refs)
    got = compose(f, comps)
    assert not got.exact
    assert (dict(got.terms), got.degree, got.exact) == (want.terms, want.degree, want.exact)


def test_arity_zero():
    c = Series(0, 3, {(): qr(2, 1)})
    assert list(c.terms) == [()] and c.terms[()] == qr(2, 1)
    assert (c * c).terms == {(): qr(3, 4)}
    assert (c.order(), c.poly_degree, c.leading_index()) == (0, 0, ())
    assert c.sorted_terms() == [((), qr(2, 1))]
    assert Series.zero(0, 3).order() == math.inf
    for s in (c, c * c, c - c, compose(c, [])):
        assert_canonical(s)


def test_degree_at_the_field_limit():
    top = series.MAX_DEGREE
    x = Series(2, top, {(top, 0): 1, (0, top): 2, (1, top - 1): 3})
    assert dict(x.terms) == {(top, 0): ONE, (0, top): qr(2), (1, top - 1): qr(3)}
    assert x.order() == x.poly_degree == top and x.leading_index() == (0, top)
    y = Series.variable(1, 2, top)
    p = Series(2, top, {(top - 1, 0): 1}) * y
    assert p.terms == {(top - 1, 1): ONE} and p.exact
    # every product has degree top + 1, and x1 * x1^top carries out of its field
    q = x * y
    assert q.is_zero and not q.exact
    assert x.derivative(1).terms == {(0, top - 1): qr(2 * top), (1, top - 2): qr(3 * (top - 1))}
    for s in (x, p, q, x.derivative(0), x.truncate(top - 1), x.coefficient_series([0], (1,))):
        assert_canonical(s)
    # one past the limit is refused, whichever way the degree is reached
    for make in (
        lambda: Series(2, top + 1, {(1, 0): 1}),
        lambda: Series.zero(2, top + 1),
        lambda: Series.one(2, top + 1),
        lambda: Series.polynomial(2, 3, {(1, 0): 1}).lift(top + 1),
    ):
        with pytest.raises(CrtransError, match="exceeds the maximum"):
            make()


def test_terms_view_iterates_and_finds_exponent_tuples():
    s = Series(3, 4, {(1, 0, 2): 5, (0, 0, 0): 1, (0, 2, 0): qr(0, 1)})
    assert list(s.terms) == [(1, 0, 2), (0, 0, 0), (0, 2, 0)]
    assert list(s.terms.items())[0] == ((1, 0, 2), qr(5))
    assert (0, 2, 0) in s.terms and s.terms[(0, 2, 0)] == qr(0, 1)
    # another length, a negative or an oversized exponent names no term
    for idx in [(0, 0), (0, 0, 0, 0), (-1, 0, 1), (0, 0, series.MAX_DEGREE + 1), (0, 0, 4)]:
        assert idx not in s.terms and s.terms.get(idx) is None
        with pytest.raises(KeyError):
            s.terms[idx]
    assert s.coefficient((0, 0, 4)) == ZERO and s.coefficient((-1, 0, 1)) == ZERO
    assert Series(2, 0, {}).terms == Series(1, 0, {}).terms
    assert Series.one(2, 0).terms != Series.one(1, 0).terms


@pytest.mark.parametrize(
    "terms",
    [
        {(3, 0): 1, (1, 1): 2, (0, 2): 3},
        {(0, 0, 3): 1, (0, 1, 2): 1, (2, 0, 1): qr(0, 1), (1, 2, 0): -1, (0, 3, 0): 2},
        {(2, 2, 0, 1): 1, (0, 0, 5, 0): 4, (1, 1, 1, 1): 7, (4, 0, 0, 0): 3},
        {(0, 0): 2, (0, 6): 1},
    ],
)
def test_orders_match_tuple_references(terms):
    s = Series(len(next(iter(terms))), 6, terms)
    keys = list(s.terms)
    assert s.sorted_terms() == sorted(s.terms.items(), key=lambda kv: mi.grlex_key(kv[0]))
    assert s.order() == min(map(sum, keys))
    assert s.poly_degree == max(map(sum, keys))
    assert s.leading_index() == min(keys, key=mi.grlex_key)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_coefficient_blocks_match_reference(data):
    arity = data.draw(st.integers(1, 4))
    raw = data.draw(raw_series(arity, data.draw(st.integers(0, 5))))
    a, A = Series(*raw), ref_build(*raw)
    vs = data.draw(st.permutations(range(arity)))[: data.draw(st.integers(0, arity))]
    blocks = a.coefficient_blocks(vs)
    nonzero = {tuple(k[i] for i in vs) for k in A.terms}
    assert set(blocks) == nonzero
    for alpha in sorted(nonzero) + list(iter_up_to(len(vs), a.degree)):
        got, want = blocks[alpha], ref_coefficient_series(A, vs, alpha)
        assert (got.arity, got.degree, got.exact) == (want.arity, want.degree, want.exact)
        assert dict(got.terms) == want.terms
        assert_canonical(got)
        assert got == a.coefficient_series(vs, alpha)


@st.composite
def exact_pointed(draw, arity, degree, without=()):
    """An exact pointed series of truncation degree `degree` >= 1, with no term
    at the indices `without`."""
    indices = [k for k in list(iter_up_to(arity, degree))[1:] if k not in without]
    keys = draw(st.lists(st.sampled_from(indices), max_size=6, unique=True))
    return Series(arity, degree, {k: draw(COEFFS) for k in keys}, True)


def exact_component(arity, degree):
    """An exact pointed series or a plain variable, which `compose` takes as a shift."""
    variable = st.builds(Series.variable, st.integers(0, arity - 1), st.just(arity), st.just(degree))
    return st.one_of(variable, exact_pointed(arity, degree))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_lifted_exact_inputs_give_the_same_compose_implicit_solution_and_exp(data):
    """Degree lifting: exact inputs lifted from degree d to d + k give results
    of `compose`, `solve_implicit` and `exp_series` that truncate back to the
    degree-d results, and a degree-d result flagged exact is the lifted
    result, exact, too."""
    d = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(1, 4))
    inner = data.draw(st.integers(1, 2))
    f = data.draw(exact_pointed(2, d))
    comps = [data.draw(exact_component(inner, d)) for _ in range(2)]
    arity = data.draw(st.integers(2, 3))
    # solve_implicit needs rhs free of the unknown's linear term
    rhs = data.draw(exact_pointed(arity, d, without=[mi.unit(arity, arity - 1)]))
    cases = [
        (compose(f, comps), compose(f.lift(d + k), [c.lift(d + k) for c in comps])),
        (solve_implicit(rhs), solve_implicit(rhs.lift(d + k))),
        (exp_series(f), exp_series(f.lift(d + k))),
    ]
    for low, high in cases:
        assert high.degree == d + k
        assert high.truncate(d) == low
        if low.exact:
            assert high.exact
            assert high == low.lift(d + k)


@st.composite
def implicit_rhs(draw):
    """A valid `solve_implicit` rhs whose d(rhs)/du has order o in 1, 2 or 3,
    or contains no u at all; exact or not. Half the time some drawn terms lie
    up to three degrees past the truncation degree (dropped, so rhs is
    inexact); otherwise all lie within it."""
    arity = draw(st.integers(1, 3))
    d = draw(st.integers(1, 8))
    o = draw(st.sampled_from([1, 2, 3, None]))
    u = arity - 1
    # a term x^a u^b with b >= 1 adds a term of order |a| + b - 1 to d(rhs)/du
    pool = [k for k in iter_up_to(arity, d + 3)
            if sum(k) and (k[u] == 0 or o is not None and sum(k) > o)]
    keys = draw(st.lists(st.sampled_from(pool), max_size=7, unique=True)) if pool else []
    if o is not None:
        keys.append(draw(st.sampled_from([k for k in pool if k[u] and sum(k) == o + 1])))
    if draw(st.booleans()):
        keys = [k for k in keys if sum(k) <= d]
    return Series(arity, d, {k: draw(COEFFS) for k in keys}, draw(st.booleans()))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(implicit_rhs())
def test_graded_solve_implicit_matches_the_full_degree_picard_loop(rhs):
    """Composing only through the degree each step certifies gives the terms,
    denominator, truncation degree and `exact` flag of the loop that composes
    at full degree from the start; and an exact answer is a polynomial fixed
    point: rhs(x, u) equals u as polynomials, exactly."""
    got, want = solve_implicit(rhs), ref_solve_implicit(rhs)
    assert (got._num, got._den, got.degree, got.exact) == (
        want._num, want._den, want.degree, want.exact)
    assert_canonical(got)
    if got.exact:
        m = rhs.arity - 1
        top = max(rhs.degree, rhs.poly_degree * max(got.poly_degree, 1))
        ids = [Series.variable(i, m, top) for i in range(m)]
        image = compose(rhs.lift(top), ids + [got.lift(top)])
        assert image == got.lift(top) and image.exact
