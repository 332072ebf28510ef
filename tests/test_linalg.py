"""Determinants, generic rank and span membership over series."""

import itertools
import random
from fractions import Fraction

import pytest

from crtrans.errors import NotSolvableAtTruncation, StructureError
from crtrans.fracseries import FracSeries
from crtrans.linalg import (
    determinant,
    rank_at_point,
    scalar_determinant,
    solve_triangular,
    span_membership,
)
from crtrans.rank import SeriesMatrix, generic_rank
from crtrans.scalar import qr
from crtrans.series import Series

from test_series import rand_poly


def leibniz_det(rows):
    """Reference determinant: permutation sum, independent of the library path."""
    n = len(rows)
    arity = rows[0][0].arity
    d = min(e.degree for r in rows for e in r)
    acc = Series.zero(arity, d)
    for perm in itertools.permutations(range(n)):
        inv = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        term = Series.one(arity, d)
        for i in range(n):
            term = term * rows[i][perm[i]]
        acc = acc + term if inv % 2 == 0 else acc - term
    return acc


def test_determinant_against_leibniz():
    rng = random.Random(41)
    for size in (1, 2, 3):
        for _ in range(6):
            rows = [[rand_poly(rng, 2, 4, density=0.5) for _ in range(size)]
                    for _ in range(size)]
            assert determinant(rows) == leibniz_det(rows)


def test_determinant_shape_checks():
    z = Series.variable(0, 1, 3)
    with pytest.raises(StructureError):
        determinant([[z, z]])
    with pytest.raises(StructureError):
        determinant([])


def test_determinant_multiplicative_on_scalars():
    rng = random.Random(43)
    for _ in range(10):
        a = [[qr(rng.randint(-3, 3), rng.randint(-2, 2)) for _ in range(3)]
             for _ in range(3)]
        b = [[qr(rng.randint(-3, 3), rng.randint(-2, 2)) for _ in range(3)]
             for _ in range(3)]
        ab = [[sum((a[i][k] * b[k][j] for k in range(3)), qr(0)) for j in range(3)]
              for i in range(3)]
        assert scalar_determinant(ab) == scalar_determinant(a) * scalar_determinant(b)


def test_determinant_exact_lifting():
    # entries of degree 1: the public determinant truncates back to degree 1,
    # while the internal path keeps the exact quadratic for rank certification
    z = Series.variable(0, 2, 1)
    w = Series.variable(1, 2, 1)
    det = determinant([[z, w], [w, z]])
    assert det.degree == 1 and det.is_zero and not det.exact

    from crtrans.rank import _det

    raw = _det([[z, w], [w, z]])
    assert raw.degree == 2 and raw.exact
    assert raw.terms == {(2, 0): qr(1), (0, 2): qr(-1)}



def test_exact_lifts_run_past_the_input_degree():
    # a minor and a fraction product of exact degree-200 data are lifted to
    # degree 400, above the degree of every input
    from crtrans.rank import _det

    x = Series.polynomial(2, 200, {(200, 0): 1, (0, 1): 1})
    y = Series.polynomial(2, 200, {(0, 200): 1})
    raw = _det([[x, y], [y, x]])
    assert raw.degree == 400 and raw.exact
    assert raw.terms == {(400, 0): qr(1), (200, 1): qr(2), (0, 2): qr(1), (0, 400): qr(-1)}
    q = FracSeries(x, y) * FracSeries(y, x)
    assert q.num.degree == 400 and q.num.exact and q.num.terms == q.den.terms
    # a lift beyond the key fields is refused cleanly
    big = Series.polynomial(1, 40000, {(40000,): 1})
    zero = Series.zero(1, 40000)
    with pytest.raises(StructureError, match="truncation degree 80000 exceeds the maximum 65535"):
        _det([[big, zero], [zero, big]])

def test_rank_at_point():
    z = Series.variable(0, 2, 3)
    w = Series.variable(1, 2, 3)
    m = [[z, w], [w, z]]
    assert rank_at_point(m, [1, 1]) == 1   # rows coincide there
    assert rank_at_point(m, [2, 1]) == 2
    assert rank_at_point([[Series.zero(2, 3)]], [1, 1]) == 0


def test_generic_rank_simple():
    z = Series.variable(0, 2, 4)
    w = Series.variable(1, 2, 4)
    one = Series.one(2, 4)

    g = generic_rank([[z, w], [w, z]])
    assert g.r == 2
    assert g.at_least.is_true and g.at_most.is_true

    # second row is z times the first: generic rank 1
    h = generic_rank([[one, w], [z, z * w]])
    assert h.r == 1
    assert h.at_least.is_true
    assert h.at_most.is_true  # the 2x2 determinant vanishes exactly

    zero = generic_rank([[Series.zero(2, 4)]])
    assert zero.r == 0


def test_generic_rank_bounds_point_ranks():
    rng = random.Random(47)
    for _ in range(6):
        rows = [[rand_poly(rng, 2, 3, density=0.5) for _ in range(3)]
                for _ in range(2)]
        g = generic_rank(rows)
        for _ in range(4):
            point = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2)]
            assert rank_at_point(rows, point) <= g.r


def test_generic_rank_monotone_under_row_append():
    rng = random.Random(53)
    rows = [[rand_poly(rng, 2, 3) for _ in range(3)] for _ in range(2)]
    extra = [rand_poly(rng, 2, 3) for _ in range(3)]
    assert generic_rank(rows + [extra]).r >= generic_rank(rows).r


def test_generic_rank_truncation_unknown():
    # an inexact zero 2x2 determinant cannot certify the upper bound
    z = Series(2, 3, {(1, 0): 1}, exact=False)
    w = Series(2, 3, {(0, 1): 1}, exact=False)
    g = generic_rank([[z, w], [z, w]])
    assert g.r == 1
    assert g.at_most.is_unknown


def test_solve_triangular_roundtrip():
    z = Series.variable(0, 2, 6)
    w = Series.variable(1, 2, 6)
    one = Series.one(2, 6)
    lower = [[one, Series.zero(2, 6)], [z, w]]
    rhs = [FracSeries.from_series(z + w), FracSeries.from_series(z * w)]
    xs = solve_triangular(lower, rhs)
    for i in range(2):
        acc = FracSeries.zero(2, 6)
        for j in range(2):
            acc = acc + xs[j] * lower[i][j]
        assert acc == rhs[i]


def test_solve_triangular_requires_shape():
    z = Series.variable(0, 2, 4)
    one = Series.one(2, 4)
    with pytest.raises(StructureError):
        solve_triangular([[one, z], [z, one]], [z, z])  # upper entry nonzero
    with pytest.raises(NotSolvableAtTruncation):
        solve_triangular([[Series.zero(2, 4), Series.zero(2, 4)],
                          [z, Series.zero(2, 4)]], [z, z])


def test_span_membership():
    z = Series.variable(0, 2, 5)
    w = Series.variable(1, 2, 5)

    v = [FracSeries.from_series(z), FracSeries.from_series(w)]
    assert span_membership(v, [v]).is_true

    # (z^2, zw) = z * (z, w)
    scaled = [FracSeries.from_series(z * z), FracSeries.from_series(z * w)]
    assert span_membership(scaled, [v]).is_true

    outside = [FracSeries.from_series(z), FracSeries.from_series(z)]
    verdict = span_membership(outside, [v])
    assert verdict.is_false
    assert "witness_minor" in verdict.witness

    zero_vec = [FracSeries.zero(2, 5), FracSeries.zero(2, 5)]
    assert span_membership(zero_vec, []).is_true
    assert span_membership(v, []).is_false


def test_series_matrix_validation():
    z = Series.variable(0, 2, 3)
    with pytest.raises(StructureError):
        SeriesMatrix(((z,), (z, z)))
