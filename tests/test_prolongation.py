"""Jet prolongation: pivot choice, triangular solve, consistency checks.

`ref_prolongation_solve` keeps the earlier solver, which carried every jet as
a `FracSeries` and summed each consistency equation as a running fraction. A
property test holds `prolongation_solve` to it: every solved jet is the same
fraction, and `degree_used` is the certified degree of the reported values.
A second property solves the same A and b at truncation degrees D and D + k:
the two values agree through the `degree_used` of the first. Both need the
optional `hypothesis` package (the `test` extra) and are left out without it.
"""

import hashlib
import json
import math
import random
from fractions import Fraction
from itertools import product

import pytest

from crtrans import grammar, multiindex as mi, series
from crtrans.document import _run_prolong
from crtrans.errors import (
    CrtransError,
    DivisionUncertifiable,
    InconsistentData,
    NoWitness,
    StructureError,
    TruncationMismatch,
)
from crtrans.fracseries import FracSeries
from crtrans.prolongation import (
    ProlongationInstance,
    ProlongationSolution,
    forward_expand,
    minimal_ordered_nonzero,
    prolongation_solve,
)
from crtrans.scalar import qr
from crtrans.series import Series

from test_multiindex import iter_up_to

try:
    from hypothesis import example, given, settings, strategies as st
except ImportError:  # the property test below needs the `test` extra
    given = None


def expand_instance(a, n, b, max_order):
    return ProlongationInstance(a, n, forward_expand(a, n, b, max_order))


def jets_of(b, gamma):
    scale = 1
    for e in gamma:
        scale *= math.factorial(e)
    zeros = [0] * len(gamma)
    return b.coefficient_series(list(range(len(gamma))), gamma).scale(scale)


def test_pivot_is_ordered_minimum():
    a = Series.polynomial(2, 8, {(1, 1): 1, (2, 0): 1})
    assert minimal_ordered_nonzero(a, 1) == (1,)
    # degree wins before position
    a2 = Series.polynomial(4, 8, {(0, 1, 1, 0): 1, (2, 0, 0, 0): 1})
    assert minimal_ordered_nonzero(a2, 2) == (0, 1)


def test_pivot_needs_nonzero():
    with pytest.raises(NoWitness):
        minimal_ordered_nonzero(Series.zero(2, 8), 1)


def test_roundtrip_recovers_jets():
    a = Series.polynomial(2, 8, {(1, 1): 1, (2, 0): 1})
    b1 = Series.polynomial(2, 8, {(0, 0): 2, (1, 0): 1, (0, 1): 3, (1, 1): Fraction(1, 2)})
    b2 = Series.polynomial(2, 8, {(0, 1): 1, (2, 0): 1})
    inst = expand_instance(a, 1, [b1, b2], 4)
    sol = prolongation_solve(inst, (3,))
    assert sol.pivot == (1,)
    assert sol.max_jet_order_used == 4
    for gamma in [(0,), (1,), (2,), (3,)]:
        for i, b in enumerate([b1, b2]):
            assert sol.jets[gamma][i] == FracSeries.from_series(jets_of(b, gamma))


def test_roundtrip_two_block_variables():
    rng = random.Random(7)
    a = Series.polynomial(4, 8, {(0, 1, 1, 0): 1, (1, 1, 0, 1): 2})
    b = Series.polynomial(
        4, 8, {(0, 0, 0, 0): 1, (1, 0, 0, 1): rng.randint(1, 5), (0, 1, 1, 0): rng.randint(1, 5)}
    )
    inst = expand_instance(a, 2, [b], 3)
    sol = prolongation_solve(inst, (1, 1))
    assert sol.pivot == (0, 1)
    assert sol.max_jet_order_used == 3
    got = sol.jets[(1, 1)][0]
    assert got == FracSeries.from_series(jets_of(b, (1, 1)))


def test_solution_is_linear_in_data():
    a = Series.polynomial(2, 8, {(1, 0): 1, (1, 1): 1})
    b1 = Series.polynomial(2, 8, {(0, 1): 2})
    b2 = Series.polynomial(2, 8, {(1, 0): 1, (0, 2): 1})
    s1 = prolongation_solve(expand_instance(a, 1, [b1], 3), (2,))
    s2 = prolongation_solve(expand_instance(a, 1, [b2], 3), (2,))
    s12 = prolongation_solve(expand_instance(a, 1, [b1 + b2], 3), (2,))
    for gamma in [(0,), (1,), (2,)]:
        assert s12.jets[gamma][0] == s1.jets[gamma][0] + s2.jets[gamma][0]


def test_division_by_pivot_series():
    # pivot coefficient chi + chi^2 forces genuine denominators
    a = Series.polynomial(2, 8, {(1, 1): 1, (1, 2): 1})
    b = Series.polynomial(2, 8, {(0, 0): 1})
    sol = prolongation_solve(expand_instance(a, 1, [b], 2), (1,))
    one = FracSeries.from_series(Series.one(1, 8))
    assert sol.jets[(0,)][0] == one
    assert sol.jets[(1,)][0].is_zero


def test_inconsistent_jet_below_pivot_order():
    a = Series.polynomial(2, 8, {(1, 1): 1, (2, 0): 1})
    b = Series.polynomial(2, 8, {(0, 0): 2, (0, 1): 3})
    jets = forward_expand(a, 1, [b], 4)
    v = jets[(0,)]
    jets[(0,)] = (v[0] + Series.one(1, v[0].degree),)
    with pytest.raises(InconsistentData):
        prolongation_solve(ProlongationInstance(a, 1, jets), (1,))


def test_inconsistent_jet_off_the_pivot_ladder():
    a = Series.polynomial(4, 8, {(0, 1, 1, 0): 1})
    b = Series.polynomial(4, 8, {(0, 0, 0, 0): 1, (1, 0, 0, 1): 2})
    jets = forward_expand(a, 2, [b], 3)
    v = jets[(2, 0)]
    jets[(2, 0)] = (v[0] + Series.one(2, v[0].degree),)
    with pytest.raises(InconsistentData):
        prolongation_solve(ProlongationInstance(a, 2, jets), (1, 1))


def test_missing_jets_detected():
    a = Series.polynomial(2, 8, {(1, 1): 1})
    b = Series.polynomial(2, 8, {(0, 1): 1})
    inst = expand_instance(a, 1, [b], 2)
    # alpha = (2,) needs jets through order 3
    with pytest.raises(StructureError):
        prolongation_solve(inst, (2,))


def test_jet_order_instrumentation_bound():
    a = Series.polynomial(2, 8, {(2, 1): 1})  # pivot order k = 2
    b = Series.polynomial(2, 8, {(0, 1): 1, (1, 0): 4})
    sol = prolongation_solve(expand_instance(a, 1, [b], 5), (3,))
    assert sol.pivot == (2,)
    assert sol.max_jet_order_used == 3 + 2
    assert sol.jets[(3,)][0] == FracSeries.from_series(jets_of(b, (3,)))


def test_instance_validation():
    a = Series.polynomial(2, 8, {(1, 1): 1})
    jets = forward_expand(a, 1, [Series.polynomial(2, 8, {(0, 1): 1})], 2)
    with pytest.raises(StructureError):
        ProlongationInstance(a, 3, jets)
    bad = dict(jets)
    bad[(1,)] = ()
    with pytest.raises(StructureError):
        ProlongationInstance(a, 1, bad)


def test_forward_expand_groups_each_product_once(grouping_passes):
    a = Series.polynomial(4, 8, {(0, 1, 1, 0): 1, (1, 1, 0, 1): 2})
    b = [Series.polynomial(4, 8, {(0, 0, 0, 0): 1, (1, 0, 0, 1): 2}),
         Series.polynomial(4, 8, {(0, 1, 1, 0): 3, (2, 0, 0, 1): 1})]
    jets = forward_expand(a, 2, b, 4)
    assert len(jets) == 15
    assert len(grouping_passes) == len(b)
    assert all(p.arity == 4 for p in grouping_passes)


# The prolong_text shape of perfbench/workloads.py, drawn from Random(0) and
# Random(1): a non-constant pivot exp(linear chi form), so the solved jets
# below are nonzero fractions whose denominators are not constants
PROLONG_DATA = [
    "A = (3+0*i)*z2*exp((3+0*i)*chi1 + (-3-1*i)*chi2)"
    " + (1+0*i)*z1*(1 + (0+3*i)*chi1 + (3-1*i)*chi2)"
    " + (0-1*i)*z1*z2*exp((1-2*i)*chi1 + (1-2*i)*chi2)\n"
    "b1 = (-1-2*i)*z1*z2*chi1 + (3-3*i)*z2^2*exp((1+3*i)*chi1 + (-1+1*i)*chi2)"
    " + (2+3*i)*z1^2*chi2\n",
    "A = (-2+1*i)*z2*exp((3+3*i)*chi1 + (3-3*i)*chi2)"
    " + (-1-3*i)*z1*(1 + (0+3*i)*chi1 + (1+0*i)*chi2)"
    " + (2+0*i)*z1*z2*exp((3-2*i)*chi1 + (-3+0*i)*chi2)\n"
    "b1 = (-3+3*i)*z1*z2*chi1 + (1+0*i)*z2^2*exp((1+3*i)*chi1 + (3-3*i)*chi2)"
    " + (2+0*i)*z1^2*chi2\n",
    # polynomial (exact) data, so FracSeries lifts its exact products: the
    # README example; the non-constant pivot chi1 + chi1^2; two components
    "A = z2*chi1 + z1^2\nb1 = z1^2*z2\n",
    "A = z1*(chi1 + chi1^2) + z2^2*chi2 + z1*z2\n"
    "b1 = z1*z2 + chi1*z2^2 + 2*z1^2*chi2 + 3*chi2\n",
    "A = z2*(chi1 + chi1^2) + (1+2*i)*z1^2*chi2\n"
    "b1 = z1^2*z2 + chi2*z1 - 1/2*chi1\nb2 = i*z2^2*chi1 + z1*z2*chi2^2 + 1\n",
    # the prolong_text shape with three components, drawn from Random(1)
    "A = (-2+1*i)*z2*exp((3+3*i)*chi1 + (3-3*i)*chi2)"
    " + (-1-3*i)*z1*(1 + (0+3*i)*chi1 + (1+0*i)*chi2)"
    " + (2+0*i)*z1*z2*exp((3-2*i)*chi1 + (-3+0*i)*chi2)\n"
    "b1 = (-3+3*i)*z1*z2*chi1 + (1+0*i)*z2^2*exp((1+3*i)*chi1 + (3-3*i)*chi2)"
    " + (2+0*i)*z1^2*chi2\n"
    "b2 = (-1+2*i)*z1*z2*chi1 + (3-2*i)*z2^2*exp((1-3*i)*chi1 + (-1-3*i)*chi2)"
    " + (-3-3*i)*z1^2*chi2\n"
    "b3 = (2+1*i)*z1*z2*chi1 + (-3+0*i)*z2^2*exp((2-2*i)*chi1 + (0+2*i)*chi2)"
    " + (-3+1*i)*z1^2*chi2\n",
]

# (data, alpha, degree) -> SHA-256 of the document._run_prolong body, recorded
# before Series keys were packed into ints (the exp data) and before one-term
# factors left the general product (the polynomial data). The five polynomial
# pins of data 2-4 were re-recorded when `degree_used` became the certified
# degree: their quotients are exact, and each body is the earlier one with
# `degree_used` null instead of the chain's numerator degree (2, 0, 4, 3, 0
# in the order below)
PROLONG = {
    (0, (1, 1), 6): "62042697afefdc91e438a6db8167cf82c50b322beaa355bfb51c4d584d347d99",
    (1, (1, 1), 6): "361bbbbc799816e14a849df1fc7172e11c7cacbc4ac70fc7d1861d62de89a25b",
    (0, (2, 0), 6): "e6d766009f53fa13830c873e99396bfc7f4f98f98ce07d6f1eaaaaab535296cf",
    (1, (2, 0), 6): "1c3796d04fbfa892f1cf63d63bea82367125ec92bbca5f10bb1d5e7037b41c14",
    (0, (0, 2), 9): "144385391f644beb80dced72d4a1cebd879d8ba24a2b5f0fdcfabf7aaec0899b",
    (1, (0, 2), 9): "470da16a2e267089fdd18887bac8e83f1ed229f136d945b2ace10ace9315f7dd",
    (2, (2, 1), 6): "2ff4b57738a4565c3b87e937ba8ff4bae11ca7fe278a432426045ff17d75727d",
    (2, (1, 2), 9): "84ebfb732a8ee6f165691fca5289bfe565e4475566c67590fff65e51d8ca72ef",
    (3, (1, 1), 8): "1fdcd5ee119f16543b4fec8b4ee339fdd011c7cdfd8e49515a5132dff5735aa8",
    (3, (2, 0), 6): "9c30139566f90f58faefafb0ea2ae1b677fe41ec3e2551c058b512998a7b09b6",
    (4, (2, 1), 9): "a31d59d4b8b4954bee2ec843feb94646a99c5039450eeddaa69a4715813b27ca",
}

# the same for documents deep enough that alpha's denominators are P^511 and
# P^63, recorded before the solve went fraction-free; b's jets vanish at those
# orders, so the reports print the values "0" with degree_used 0
DEEP_PROLONG = {
    (0, (8, 8), 17): "6b794c28be5170ebae9ded7702490501b29bb7d1666cb97e3e45d993c6b56677",
    (5, (5, 5), 11): "fd60e69ee404c4a91c59aed7d9e4fef01f97b0387f9012c2a44e01a7a967b1f4",
}

# (general products, all series products) each deep report makes: p^E is
# built by squaring, where one product at a time would take E - 1 of them,
# one-term products where the degree the numerator knows cuts p to a constant
DEEP_PRODUCTS = {(0, (8, 8), 17): (90, 600), (5, (5, 5), 11): (106, 743)}


@pytest.mark.parametrize("case", list(PROLONG), ids=lambda c: f"data{c[0]}-{c[1][0]}{c[1][1]}-D{c[2]}")
def test_prolong_report_is_byte_stable(case):
    data, alpha, degree = case
    body, digest = prolong_report(data, alpha, degree)
    assert body["matches_direct_expansion"]
    assert body["max_jet_order_used"] == sum(alpha) + sum(body["pivot"])
    if data < 2:  # exp data: every value has a non-constant denominator
        assert all(v.startswith("(") and ") / (" in v for v in body["values"])
    else:  # polynomial data: the quotient is exact
        assert body["degree_used"] is None
    assert digest == PROLONG[case]


@pytest.mark.parametrize("case", list(DEEP_PROLONG), ids=lambda c: f"data{c[0]}-{c[1][0]}{c[1][1]}-D{c[2]}")
def test_deep_prolong_report_is_byte_stable(case, monkeypatch):
    general, products = [], []
    product, mul = series._product, Series.__mul__
    monkeypatch.setattr(series, "_product", lambda *args: general.append(1) or product(*args))
    monkeypatch.setattr(Series, "__mul__", lambda *args: products.append(1) or mul(*args))
    body, digest = prolong_report(*case)
    assert body["matches_direct_expansion"]
    assert digest == DEEP_PROLONG[case]
    assert 0 < len(general) <= DEEP_PRODUCTS[case][0]
    assert len(products) <= DEEP_PRODUCTS[case][1]


def prolong_report(data, alpha, degree):
    """The document._run_prolong body for PROLONG_DATA[data] and its SHA-256."""
    names = ", ".join(line.split(" =")[0] for line in PROLONG_DATA[data].splitlines())
    text = f"degree {degree}\n{PROLONG_DATA[data]}prolong {names} at {alpha}\n"
    doc = grammar.parse(text)
    body = _run_prolong(doc.tasks[0], {d.name: d for d in doc.declarations}, degree)[0]
    return body, hashlib.sha256(json.dumps(body, sort_keys=True).encode("utf-8")).hexdigest()


def test_solve_makes_few_products(monkeypatch):
    """Jets are numerators over one power of the pivot, so a subtraction
    multiplies by a cached power and never by another jet's denominator: one
    solve of the benchmark's shape at (2, 2) makes at most 23 general products,
    where cross-multiplied fractions made 82."""
    doc = grammar.parse(f"degree 9\n{PROLONG_DATA[0]}prolong A, b1 at (2, 2)\n")
    env = {d.name: d for d in doc.declarations}
    _, (a, b) = grammar.realize("pair", [env[name].value for name in ("A", "b1")], 9)
    inst = expand_instance(a, 2, [b], 4 + mi.degree(minimal_ordered_nonzero(a, 2)))
    calls = []
    general = series._product
    monkeypatch.setattr(series, "_product", lambda *args: calls.append(1) or general(*args))
    prolongation_solve(inst, (2, 2))
    assert 0 < len(calls) <= 23


def test_solve_computes_each_difference_once(monkeypatch):
    """Each (beta, gamma') difference is taken once: each equation is built
    once, as the rows the solve uses and the rows it checks are disjoint."""
    calls = []
    subtract = mi.subtract

    def counting(a, b):
        calls.append((a, b))
        return subtract(a, b)

    monkeypatch.setattr(mi, "subtract", counting)
    a = Series.polynomial(4, 8, {(0, 1, 1, 0): 1, (1, 1, 0, 1): 2, (2, 0, 0, 1): 1})
    b = Series.polynomial(4, 8, {(0, 0, 0, 0): 1, (1, 0, 0, 1): 2, (0, 1, 1, 0): 3})
    inst = expand_instance(a, 2, [b], 4)
    calls.clear()
    sol = prolongation_solve(inst, (1, 2))
    assert sol.jets[(1, 2)][0] == FracSeries.from_series(jets_of(b, (1, 2)))
    assert calls and len(calls) == len(set(calls))


def ref_prolongation_solve(instance, alpha, check=True):
    """The earlier solver: every jet a FracSeries, every equation a running sum.

    `check=False` leaves out the consistency loop."""
    alpha = tuple(alpha)
    a, n, width = instance.a, instance.n, instance.width
    pivot = minimal_ordered_nonzero(a, n)
    k, level = mi.degree(pivot), mi.degree(alpha)
    a_blocks = a.coefficient_blocks(tuple(range(n)))
    pivot_coeff = FracSeries.from_series(a_blocks[pivot])
    used_orders = [0]
    targets = {}

    def normalized(beta):
        if beta not in targets:
            if beta not in instance.jets:
                raise StructureError(f"jet data for beta = {beta} is required but was not supplied")
            used_orders.append(mi.degree(beta))
            inv = Fraction(1, mi.factorial(beta))
            targets[beta] = tuple(FracSeries.from_series(s.scale(inv)) for s in instance.jets[beta])
        return targets[beta]

    def equation(beta):
        row = []
        for gp in product(*(range(e + 1) for e in beta)):
            delta = mi.subtract(beta, gp)
            if not a_blocks[delta].is_zero:
                row.append((gp, FracSeries.from_series(a_blocks[delta])))
        return row

    solved = {}
    for ell in range(level + 1):
        for gamma in sorted(mi.iter_degree(n, ell)):
            beta = mi.add(pivot, gamma)
            rhs = list(normalized(beta))
            for gp, coeff in equation(beta):
                if gp == gamma:
                    continue
                if gp not in solved:
                    raise StructureError(f"unknown {gp} is unsolved")
                c = solved[gp]
                rhs = [r - c[i] * coeff for i, r in enumerate(rhs)]
            solved[gamma] = tuple(r / pivot_coeff for r in rhs)

    reach = level + k
    for beta in sorted(instance.jets, key=mi.grlex_key):
        if mi.degree(beta) > reach or not check:
            continue
        target = normalized(beta)
        acc = [FracSeries.zero(a.arity - n, a.degree) for _ in range(width)]
        for gp, coeff in equation(beta):
            if gp not in solved:
                raise StructureError(f"equation at {beta} involves unsolved jet {gp}")
            acc = [acc[i] + solved[gp][i] * coeff for i in range(width)]
        for i in range(width):
            if acc[i] != target[i]:
                raise InconsistentData(f"supplied jet data at beta = {beta}, component {i}")

    jets = {g: tuple(c.scale(mi.factorial(g)) for c in vec) for g, vec in solved.items()}
    return ProlongationSolution(
        alpha=alpha, pivot=pivot, values=jets[alpha], jets=jets,
        max_jet_order_used=max(used_orders),
        degree_used=None,  # the tests below hold degree_used to its definition
    )


def test_jets_beyond_the_degree_of_a_are_refused():
    """An equation of order above A's truncation degree involves blocks of A
    that are not known."""
    a = Series(2, 2, {(1, 0): 1, (1, 1): 1}, exact=False)
    jets = {(j,): (Series(1, 3, {(0,): j + 1}),) for j in range(4)}
    inst = ProlongationInstance(a, 1, jets)
    for solve in (prolongation_solve, ref_prolongation_solve):
        with pytest.raises(TruncationMismatch, match="block of degree 3 beyond truncation 2"):
            solve(inst, (2,))


def test_zero_value_over_a_power_of_a_polynomial_pivot():
    """b = 1 has a zero jet at z^2, over P^4 for P = chi + chi^2: the exact
    zero, a quotient known completely, so `degree_used` is None."""
    a = Series.polynomial(2, 6, {(0, 1): 1, (0, 2): 1, (1, 0): 1, (2, 0): 1})
    inst = expand_instance(a, 1, [Series.one(2, 6)], 2)
    sol = prolongation_solve(inst, (2,))
    (got,), (want,) = sol.values, ref_prolongation_solve(inst, (2,)).values
    assert got == want and got.is_zero
    assert (got.num.exact, got.den, got.den.exact) == (True, want.den, True)
    assert (got.den.poly_degree, got.cert, sol.degree_used) == (8, math.inf, None)


def solve_document(text, degree):
    """The document._run_prolong body of a one-task prolong document at `degree`,
    and the solution behind it."""
    doc = grammar.parse(f"degree {degree}\n{text}")
    env = {d.name: d for d in doc.declarations}
    task = doc.tasks[0]
    n, (a, *b) = grammar.realize("pair", [env[name].value for name in (task.a, *task.components)],
                                 degree)
    order = mi.degree(task.alpha) + mi.degree(minimal_ordered_nonzero(a, n))
    return _run_prolong(task, env, degree)[0], prolongation_solve(expand_instance(a, n, b, order), task.alpha)


def agreement(v, w):
    """The degree through which the quotients v and w agree, infinite when they
    are equal, with each known numerator and denominator taken as an exact
    polynomial."""
    def lifted(f):
        return FracSeries(*(Series.polynomial(s.arity, s.degree, s.terms) for s in (f.num, f.den)))
    return (lifted(v) - lifted(w)).valuation - 1


# (document, degree, the degree its value is certified through): pivots that
# vanish at chi = 0 under truncated data, where `degree_used` was the smallest
# numerator degree of the fraction chain and claimed coefficients that the
# data do not fix: 2 for the first, 1 for the second, whose value was "0".
# The third has a unit pivot and an exact A; its value is certified through
# degree 3 only because the solve lifts the exact factors beside the
# truncated data to the data's degree: products and sums cut at each exact
# factor's own degree report "0" through degree 0
MISCERTIFIED = [
    ("A = z1*(chi1^2 + chi1^3)\nb = z1*exp(chi1)\nprolong A, b at (1)\n", 4, 0),
    ("A = z2*(chi1 + chi2) + z1^2\nb = z1^2*z2*exp(chi1) + z2^3*exp(chi2)\n"
     "prolong A, b at (2, 1)\n", 10, 4),
    ("A = (-3+1*i)*z1 + (-1-3*i)\nb = z1^2*chi1*exp(chi1+chi1)\nprolong A, b at (2)\n", 5, 3),
]


@pytest.mark.parametrize("text, degree, certified", MISCERTIFIED,
                         ids=["order-2-pivot", "two-chi-pivot", "unit-pivot-exact-a"])
def test_degree_used_is_the_degree_the_value_is_certified_through(text, degree, certified):
    """The value agrees with the degree-16 solve through `degree_used` and not
    one degree further."""
    body, sol = solve_document(text, degree)
    assert body["degree_used"] == sol.degree_used == certified
    _, deep = solve_document(text, 16)
    assert [agreement(v, w) for v, w in zip(sol.values, deep.values)] == [certified]


def test_a_value_certified_through_no_degree_matches_nothing():
    """The pivot chi1^3 leaves the degree-4 value certified through degree -1,
    and a quotient known through no degree compares equal to any other, so
    the report must not count it as matching the forward data (exp(chi1))."""
    body, sol = solve_document("A = z1*chi1^3\nb = z1*exp(chi1)\nprolong A, b at (1)\n", 4)
    assert (body["values"], body["degree_used"], sol.degree_used) == (["0"], -1, -1)
    assert body["matches_direct_expansion"] is False


def solve_or_error(solve, instance, alpha):
    try:
        return solve(instance, alpha), None
    except CrtransError as exc:
        return None, exc


if given is not None:
    COEFFS = st.builds(lambda a, b, c: qr(Fraction(a, c), Fraction(b, c)),
                       st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 2))

    @st.composite
    def chi_series(draw, p, degree, exact=None):
        """An exact or truncated series in p variables, zero half the time."""
        monomials = list(iter_up_to(p, 3))
        terms = draw(st.just({}) | st.dictionaries(st.sampled_from(monomials), COEFFS.filter(bool),
                                                   min_size=1, max_size=4))
        return Series(p, degree, terms, draw(st.booleans()) if exact is None else exact)

    @st.composite
    def prolong_case(draw):
        """A * b with n = 1 or 2 z variables and 1 or 2 components.

        A and each b component are exact polynomials or truncated series,
        independently. The pivot block P is a unit (P(0) != 0) or vanishes at
        the origin, and the other blocks of A sit at z-exponents above the
        pivot's. The jets are those of A * b, or, with the pivot at z^0 where
        every equation is one the solve uses, any series: exact or truncated,
        zero or not, of any degree.
        """
        n, p = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        degree = draw(st.integers(3, 7))
        free = draw(st.booleans())
        zs = sorted((z for z in iter_up_to(n, 2)), key=mi.grlex_key)
        pivot = zs[0] if free else draw(st.sampled_from(zs[:-1]))
        unit = draw(st.booleans())
        chis = list(iter_up_to(p, 2))[0 if unit else 1:]
        p_terms = draw(st.dictionaries(st.sampled_from(chis), COEFFS.filter(bool),
                                       min_size=1, max_size=3))
        if unit:
            p_terms[(0,) * p] = draw(COEFFS.filter(bool))
        terms = {pivot + c: v for c, v in p_terms.items()}
        above = [z for z in zs if mi.grlex_key(z) > mi.grlex_key(pivot)]
        for _ in range(draw(st.integers(0, 5))):
            z, c = draw(st.sampled_from(above)), draw(st.sampled_from(list(iter_up_to(p, 2))))
            terms[z + c] = draw(COEFFS.filter(bool))
        a = Series(n + p, degree, {e: v for e, v in terms.items() if sum(e) <= degree},
                   draw(st.booleans()))
        width = draw(st.integers(1, 2))
        top = min(3 if n == 1 else 2, degree - mi.degree(pivot))
        alpha = draw(st.sampled_from([g for g in iter_up_to(n, top)]))
        max_order = mi.degree(alpha) + mi.degree(pivot)
        if free:
            jets = {beta: tuple(draw(chi_series(p, draw(st.integers(0, degree))))
                                for _ in range(width))
                    for beta in iter_up_to(n, max_order)}
        else:
            b = [draw(chi_series(n + p, degree)) for _ in range(width)]
            jets = forward_expand(a, n, b, max_order)
        return ProlongationInstance(a, n, jets), alpha, unit

    def fixed_case(n, degree, a_terms, jets, alpha):
        """An instance with truncated A; jets maps beta to (terms, degree, exact) per component."""
        arity = len(next(iter(a_terms)))
        a = Series(arity, degree, a_terms, False)
        jets = {beta: tuple(Series(arity - n, d, t, x) for t, d, x in vec) for beta, vec in jets.items()}
        return ProlongationInstance(a, n, jets), alpha, False

    # cases the strategy rarely draws: the cert the fraction chain carried
    # through its last division (3) exceeds what the constructor's formula
    # certifies for the value it gives (0)
    SECOND_CERT = fixed_case(
        1, 5, {(0, 1, 0): qr(-2, -2), (0, 2, 0): qr(2, 3), (2, 1, 0): qr(0, 1)},
        {(0,): [({}, 5, False)], (1,): [({}, 1, True)],
         (2,): [({(3, 0): qr(1, -2), (0, 0): qr(-2, -3), (0, 3): qr(0, -1)}, 5, False)]},
        (2,))
    # and one the chain refused: with P(0) = 0, its denominator for the jet at
    # (2, 1) is P^6, which vanishes through the degree 5 of that jet's data
    VANISHED_NUM = fixed_case(
        2, 8, {(0, 0, 1): 2, (0, 0, 2): qr(2, -1), (1, 0, 0): qr(-2, 3), (1, 1, 1): qr(-2, 3),
               (1, 1, 0): -1, (1, 0, 1): qr(3, -1)},
        {(0, 0): [({}, 8, False)],
         (0, 1): [({(2,): qr(0, -4), (3,): qr(-4, -6), (4,): qr(-3, -1)}, 7, False)],
         (0, 2): [({}, 6, False)], (0, 3): [({}, 5, False)],
         (1, 0): [({(1,): qr(2, 6), (2,): qr(5, 5)}, 7, False)],
         (1, 1): [({(1,): qr(6, 4), (2,): qr(3, -7), (3,): qr(-4, -2)}, 6, False)],
         (1, 2): [({(1,): qr(-12, 12), (2,): qr(6, 24), (3,): qr(10, -2)}, 5, False)],
         (2, 0): [({(0,): qr(-22, -6), (1,): qr(12, 16)}, 6, False)],
         (2, 1): [({(0,): qr(-2, -6), (1,): qr(-22, -6)}, 5, False)],
         (3, 0): [({}, 5, False)]},
        (0, 3))

    def certified(values):
        """The smallest degree the `FracSeries` constructor certifies for the
        values, None when it is infinite."""
        cert = min(FracSeries(v.num, v.den).cert for v in values)
        return None if cert == math.inf else cert

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(prolong_case())
    @example(SECOND_CERT)
    @example(VANISHED_NUM)
    def test_solve_matches_the_fraction_chain(case):
        inst, alpha, unit = case
        got, got_err = solve_or_error(prolongation_solve, inst, alpha)
        want, want_err = solve_or_error(ref_prolongation_solve, inst, alpha)
        if isinstance(want_err, DivisionUncertifiable):
            # when P(0) = 0 the running sums of the earlier consistency loop
            # can vanish where no solved jet's denominator does
            unchecked, err = solve_or_error(
                lambda i, a: ref_prolongation_solve(i, a, check=False), inst, alpha)
            if err is None:
                want, want_err = unchecked, None
        # the chain refuses where the solve answers, as for VANISHED_NUM, when
        # P(0) = 0 and some solved jet's denominator, P to a power exponential
        # in the jet's order, vanishes through its truncation degree. The
        # solve divides that jet by a power linear in its order, and alpha's
        # values by their power of P at the degree their numerators know
        refused = got_err is None and isinstance(want_err, DivisionUncertifiable)
        # where both refuse, the degrees they name belong to different powers of P
        assert refused or type(got_err) is type(want_err)
        if got_err is not None:
            return
        assert got.degree_used == certified(got.values)
        if refused:
            return
        assert got.max_jet_order_used == want.max_jet_order_used
        assert got.jets.keys() == want.jets.keys()
        for gamma, vec in want.jets.items():
            assert list(got.jets[gamma]) == list(vec)
        if not unit:
            return
        # a jet off the pivot ladder, changed in its constant term, contradicts
        # the solved prolongation in both solvers
        pivot = got.pivot
        off = [beta for beta in inst.jets if mi.degree(beta) <= mi.degree(alpha) + mi.degree(pivot)
               and not all(x >= y for x, y in zip(beta, pivot))]
        if not off:
            return
        jets = dict(inst.jets)
        v = jets[off[0]]
        jets[off[0]] = (v[0] + Series.one(v[0].arity, v[0].degree),) + v[1:]
        bad = ProlongationInstance(inst.a, inst.n, jets)
        for solve in (prolongation_solve, ref_prolongation_solve):
            with pytest.raises(InconsistentData):
                solve(bad, alpha)

    @st.composite
    def lifted_case(draw):
        """A and the components of b through degree D + k, each an exact
        polynomial or a series known through D + k only, with terms up to that
        degree; and alpha, D.

        The pivot block P is a unit or vanishes at the origin, and has a term
        of total degree at most 3, so that A truncated at D keeps its pivot.
        """
        n, p = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        degree = draw(st.integers(3, 6))
        top = degree + draw(st.integers(1, 4))
        pivot = draw(st.sampled_from(list(iter_up_to(n, 1))))
        unit = draw(st.booleans())
        low = list(iter_up_to(p, 2))[0 if unit else 1:]
        p_terms = draw(st.dictionaries(st.sampled_from(low), COEFFS.filter(bool), min_size=1, max_size=2))
        if unit:
            p_terms[(0,) * p] = draw(COEFFS.filter(bool))
        p_terms.update(draw(st.dictionaries(st.sampled_from(list(iter_up_to(p, top - sum(pivot)))),
                                            COEFFS.filter(bool), max_size=2)))
        terms = {pivot + c: v for c, v in p_terms.items() if unit or any(c)}
        above = [z for z in iter_up_to(n, 2) if mi.grlex_key(z) > mi.grlex_key(pivot)]
        for _ in range(draw(st.integers(0, 4))):
            z = draw(st.sampled_from(above))
            terms[z + draw(st.sampled_from(list(iter_up_to(p, top - sum(z)))))] = draw(COEFFS.filter(bool))
        monomials = list(iter_up_to(n + p, top))
        b = [Series(n + p, top, draw(st.dictionaries(st.sampled_from(monomials), COEFFS.filter(bool),
                                                     max_size=5)), draw(st.booleans()))
             for _ in range(draw(st.integers(1, 2)))]
        a = Series(n + p, top, terms, draw(st.booleans()))
        alpha = draw(st.sampled_from(list(iter_up_to(n, min(3 if n == 1 else 2, degree - sum(pivot))))))
        return a, b, n, alpha, degree

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(lifted_case())
    def test_value_holds_through_degree_used_when_the_data_are_lifted(case):
        """The value from A and b truncated at D agrees through its
        `degree_used` with the value from the same A and b at D + k."""
        a, b, n, alpha, degree = case
        order = mi.degree(alpha) + mi.degree(minimal_ordered_nonzero(a, n))
        (low, low_err), (high, high_err) = (
            solve_or_error(prolongation_solve, expand_instance(a, n, b, order), alpha)
            for a, b in ((a.truncate(degree), [s.truncate(degree) for s in b]), (a, b)))
        # P^E vanishes through the degree its numerator knows, where P(0) = 0;
        # at D + k too, since a block of A known there can raise E
        if low_err or high_err:
            assert all(isinstance(e, (DivisionUncertifiable, type(None))) for e in (low_err, high_err))
            return
        cert = math.inf if low.degree_used is None else low.degree_used
        assert all(agreement(v, w) >= cert for v, w in zip(low.values, high.values))
