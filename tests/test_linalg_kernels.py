"""Integer rank kernels against the GaussianRational kernels they replaced.

The `ref_*` functions below are the earlier code kept as references: the
Laplace expansion of `_det` down to 1x1 minors, `Series.evaluate` term by
term in GaussianRational, Gauss elimination for the scalar rank, the
permutation expansion for the scalar determinant, the minor scan over every
row and column, and the generic rank whose scan started at
the largest rank found at seeded random sample points. Derandomized property
tests check the Bareiss kernel, the integer `evaluate`, the scan that skips
exact-zero rows and columns and the scan up from size 1 against them, and
against sympy over Q(i) when it is installed; and `_det` over constant
series, the analyses' scalar determinant, against the Bareiss one. They also
check that a generic rank kept up to date while rows are appended (one
`RankState` for the whole family) equals the rank computed from scratch on
every prefix, and how the rank behaves when exact rows are lifted to a higher
truncation degree or rows are truncated to a lower one.
Needs the optional `hypothesis` package (the `test` extra); the module is
skipped without it.
"""

import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from crtrans import hypersurface, rank  # noqa: E402
from crtrans.hypersurface import Convention  # noqa: E402
from crtrans.linalg import (  # noqa: E402
    _bareiss,
    _gaussian_integer_rows,
    evaluate_row,
    scalar_determinant,
)
from crtrans.rank import RankState, SeriesMatrix, _det, _scan_minors, generic_rank  # noqa: E402
from crtrans.scalar import ZERO, GaussianRational, qr  # noqa: E402
from crtrans.series import Series  # noqa: E402
from crtrans.verdict import certified_true, unknown  # noqa: E402

from test_classify import DEGENERATE, classify  # noqa: E402
from test_multiindex import iter_up_to  # noqa: E402


def scalar_rank(rows):
    """Rank of a scalar matrix through the integer rows and the Bareiss kernel."""
    return _bareiss(_gaussian_integer_rows(rows)[0])[0]


# ---------------- references ----------------


def ref_evaluate(s, point):
    pt = [GaussianRational.coerce(p) for p in point]
    total = ZERO
    for k, v in s.terms.items():
        term = v
        for i, e in enumerate(k):
            if e:
                term = term * (pt[i] ** e)
        total = total + term
    return total


def ref_scalar_rank(rows):
    mat = [[GaussianRational.coerce(x) for x in r] for r in rows]
    if not mat or not mat[0]:
        return 0
    nr, nc = len(mat), len(mat[0])
    rank = 0
    for col in range(nc):
        piv = next((r for r in range(rank, nr) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pv = mat[rank][col]
        for r in range(rank + 1, nr):
            if mat[r][col]:
                f = mat[r][col] / pv
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == nr:
            break
    return rank


def ref_scalar_determinant(rows):
    n = len(rows)
    acc = GaussianRational(0)
    for perm in itertools.permutations(range(n)):
        inv = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        term = GaussianRational(1) if inv % 2 == 0 else GaussianRational(-1)
        for i in range(n):
            term = term * rows[i][perm[i]]
        acc = acc + term
    return acc



def ref_det(entries):
    """Laplace expansion over every size, 1x1 included: entries lifted to the
    degree of the polynomial determinant when all are exact, else truncated
    to the lowest degree, and every leaf a product with `Series.one`."""
    n, arity = len(entries), entries[0][0].arity
    if all(e.exact for row in entries for e in row):
        work = sum(max(e.poly_degree for e in row) for row in entries)
        entries = [[e.lift(work) for e in row] for row in entries]
    else:
        work = min(e.degree for row in entries for e in row)
        entries = [[e.truncate(work) for e in row] for row in entries]

    def rec(i, cols):
        if i == n:
            return Series.one(arity, work)
        acc = Series.zero(arity, work)
        for sign, j in zip(itertools.cycle((1, -1)), cols):
            e = entries[i][j]
            if not (e.is_zero and e.exact):
                term = e * rec(i + 1, [c for c in cols if c != j])
                acc = acc + term if sign > 0 else acc - term
        return acc

    return rec(0, list(range(n)))

def ref_scan_minors(mat, size):
    all_exact = True
    for rows in itertools.combinations(range(mat.nrows), size):
        for cols in itertools.combinations(range(mat.ncols), size):
            det = _det([[mat.rows[i][j] for j in cols] for i in rows])
            if det.is_zero:
                all_exact = all_exact and det.exact
            else:
                lead = det.leading_index()
                return (
                    {
                        "rows": list(rows),
                        "cols": list(cols),
                        "minor_index": list(lead),
                        "minor_value": str(det.coefficient(lead)),
                    },
                    all_exact,
                )
    return None, all_exact


def ref_rank_at_point(m, point):
    mat = rank._as_matrix(m)
    return ref_scalar_rank([[ref_evaluate(e, point) for e in row] for row in mat.rows])


def ref_generic_rank(mat, seed):
    """(r, at_least, at_most) of the sample-guided scan: the largest rank at 4
    seeded random points proposes a size, the scan goes down from it to the
    first size with a nonzero minor, then up while the next size has one."""
    rng = random.Random(seed)
    points = [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(mat.arity))
              for _ in range(4)]
    maxs = min(mat.nrows, mat.ncols)
    degree_used = min((e.degree for row in mat.rows for e in row), default=0)
    r = max(ref_rank_at_point(mat, p) for p in points) if maxs else 0
    wit = None
    while r > 0:
        wit, _ = ref_scan_minors(mat, r)
        if wit is not None:
            break
        r -= 1
    above_exact = True
    while r < maxs:
        w2, all_exact = ref_scan_minors(mat, r + 1)
        if w2 is None:
            above_exact = all_exact
            break
        r, wit = r + 1, w2
    at_least = certified_true(wit or {"note": "zero is a trivial lower bound"}, degree_used)
    if r == maxs:
        at_most = certified_true({"note": "bounded by matrix size"}, degree_used)
    elif above_exact:
        at_most = certified_true(
            {"note": f"every minor of size {r + 1} vanishes identically"}, degree_used
        )
    else:
        at_most = unknown({"note": f"minors of size {r + 1} vanish up to truncation only"},
                          degree_used)
    return r, at_least, at_most


# ---------------- strategies ----------------


def gaussian(bound=6, den=6):
    return st.builds(
        lambda a, b, c, d: qr(Fraction(a, b), Fraction(c, d)),
        st.integers(-bound, bound),
        st.integers(1, den),
        st.integers(-bound, bound),
        st.integers(1, den),
    )


ENTRIES = st.one_of(st.just(ZERO), gaussian())


@st.composite
def scalar_matrix(draw, square=False, sizes=st.integers(0, 4)):
    """Rows of Gaussian rationals, with dependent rows drawn often."""
    nr = draw(sizes)
    nc = nr if square else draw(st.integers(0, 4))
    rows = []
    for _ in range(nr):
        if rows and draw(st.booleans()):
            coeffs = [draw(st.one_of(st.just(ZERO), gaussian(3, 3))) for _ in rows]
            rows.append([sum((c * r[j] for c, r in zip(coeffs, rows)), ZERO)
                         for j in range(nc)])
        else:
            rows.append([draw(ENTRIES) for _ in range(nc)])
    return rows


@st.composite
def series(draw, arity, degree, exact=None):
    indices = list(iter_up_to(arity, degree))
    keys = draw(st.lists(st.sampled_from(indices), max_size=5, unique=True))
    flag = draw(st.booleans()) if exact is None else exact
    return Series(arity, degree, {k: draw(gaussian()) for k in keys}, exact=flag)


@st.composite
def series_matrix(draw, degrees=st.integers(1, 3), exact=None):
    """A series matrix with exact-zero rows and columns and zero rows inserted,
    inexact ones among them unless every entry is to be `exact`."""
    arity = draw(st.integers(1, 2))
    degree = draw(degrees)
    nr, nc = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rows = [[draw(series(arity, degree, exact)) for _ in range(nc)] for _ in range(nr)]
    zero = Series.zero(arity, degree)
    for _ in range(draw(st.integers(0, 2))):
        j = draw(st.integers(0, len(rows[0])))
        rows = [r[:j] + [zero] + r[j:] for r in rows]
    for _ in range(draw(st.integers(0, 3))):
        flag = draw(st.booleans()) if exact is None else exact
        i = draw(st.integers(0, len(rows)))
        rows.insert(i, [Series.zero(arity, degree, exact=flag)] * len(rows[0]))
    return SeriesMatrix(tuple(tuple(r) for r in rows))


# ---------------- properties ----------------


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_evaluate_matches_reference(data):
    arity = data.draw(st.integers(1, 3))
    s = data.draw(series(arity, data.draw(st.integers(0, 6))))
    point = [data.draw(st.one_of(st.just(ZERO), gaussian(9, 9), st.integers(-3, 3)))
             for _ in range(arity)]
    # one series is a one-entry row: its value alone, in lowest terms
    [(re, im)], den = evaluate_row([s], point)
    assert qr(Fraction(re, den), Fraction(im, den)) == ref_evaluate(s, point)
    assert math.gcd(den, re, im) == 1


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_evaluate_row_matches_reference(data):
    arity = data.draw(st.integers(1, 3))
    degree = data.draw(st.integers(0, 6))
    row = data.draw(st.lists(series(arity, degree), min_size=1, max_size=4))
    point = [data.draw(st.one_of(st.just(ZERO), gaussian(9, 9), st.integers(-3, 3)))
             for _ in range(arity)]
    nums, den = evaluate_row(row, point)
    assert [qr(Fraction(re, den), Fraction(im, den)) for re, im in nums] == [
        ref_evaluate(s, point) for s in row
    ]
    assert math.gcd(den, *(x for pair in nums for x in pair)) == 1



@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_det_matches_the_laplace_expansion(data):
    """`_det` returns a 1x1 minor as its entry, lifted or truncated, and
    expands larger ones; both give the expansion's terms, denominator,
    truncation degree and `exact` flag, for exact, inexact and zero entries
    of mixed truncation degrees."""
    arity = data.draw(st.integers(1, 2))
    n = data.draw(st.sampled_from([1, 1, 2, 3]))
    entries = [[data.draw(st.one_of(
        series(arity, data.draw(st.integers(0, 4))),
        st.builds(Series.zero, st.just(arity), st.integers(0, 4), st.booleans()),
    )) for _ in range(n)] for _ in range(n)]
    got, want = _det(entries), ref_det(entries)
    assert (got._num, got._den, got.degree, got.exact) == (
        want._num, want._den, want.degree, want.exact)

@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(scalar_matrix(), scalar_matrix(square=True))
def test_rank_and_determinant_match_reference(rows, square):
    assert scalar_rank(rows) == ref_scalar_rank(rows)
    assert scalar_determinant(square) == ref_scalar_determinant(square)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(scalar_matrix(square=True, sizes=st.integers(1, 5)), st.booleans(),
       st.integers(0, 2), st.integers(0, 3))
def test_det_over_constant_series_is_the_bareiss_determinant(rows, zero, arity, degree):
    """The analyses' scalar determinant, the constant term of `_det` over
    constant series, is the Bareiss `scalar_determinant`, on zero and singular
    matrices too; over constant series of any arity and truncation degree
    `_det` is that exact constant."""
    if zero:
        rows = [[ZERO] * len(rows) for _ in rows]
    want = scalar_determinant(rows)
    assert rank.constant_determinant(rows) == want
    det = _det([[Series.constant(x, arity, degree) for x in row] for row in rows])
    assert det.exact and det.terms == ({(0,) * arity: want} if want else {})


def _sympy_matrix(sp, rows):
    def conv(c):
        c = GaussianRational.coerce(c)
        return sp.Rational(c.re.numerator, c.re.denominator) + sp.I * sp.Rational(
            c.im.numerator, c.im.denominator
        )

    return sp.Matrix([[conv(x) for x in r] for r in rows])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(scalar_matrix(), scalar_matrix(square=True))
def test_rank_and_determinant_match_sympy(rows, square):
    sp = pytest.importorskip("sympy")
    if rows and rows[0]:
        assert scalar_rank(rows) == _sympy_matrix(sp, rows).rank()
    if square:
        det = sp.expand(_sympy_matrix(sp, square).det())
        want = qr(Fraction(str(sp.re(det))), Fraction(str(sp.im(det))))
        assert scalar_determinant(square) == want


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(series_matrix())
def test_generic_rank_matches_reference_scan(mat):
    for size in range(1, min(mat.nrows, mat.ncols) + 1):
        assert _scan_minors(RankState().append(mat), size) == ref_scan_minors(mat, size)
    got = generic_rank(mat).to_json()
    # generic_rank hands its RankState to the scan; the reference reads its rows
    with mock.patch.object(rank, "_scan_minors",
                           lambda state, size: ref_scan_minors(SeriesMatrix(state.rows), size)):
        want = generic_rank(mat).to_json()
    assert got == want


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(series_matrix(), st.integers(0, 3))
def test_scan_from_size_one_matches_the_sample_guided_scan(mat, seed):
    # a nonzero (k+1)-minor forces a nonzero k-minor, so where the scan
    # starts cannot change the rank, its witness or the exactness above it
    g = generic_rank(mat)
    assert (g.r, g.at_least, g.at_most) == ref_generic_rank(mat, seed)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(series_matrix(exact=True), st.integers(1, 4))
def test_lifting_exact_rows_keeps_the_rank_and_its_certificates(mat, k):
    lifted = SeriesMatrix(tuple(tuple(e.lift(e.degree + k) for e in row) for row in mat.rows))
    g, h = generic_rank(mat), generic_rank(lifted)
    assert h.r == g.r
    assert h.at_least.witness == g.at_least.witness
    assert h.at_most.status is g.at_most.status


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(series_matrix(degrees=st.integers(2, 5)), st.integers(1, 4))
def test_truncating_rows_never_raises_the_rank(mat, k):
    low = max(mat.rows[0][0].degree - k, 0)
    cut = SeriesMatrix(tuple(tuple(e.truncate(low) for e in row) for row in mat.rows))
    assert generic_rank(cut).r <= generic_rank(mat).r


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(series_matrix())
def test_incremental_rank_matches_from_scratch_on_every_prefix(mat):
    state = RankState()
    for p in range(1, mat.nrows + 1):
        got = generic_rank(mat.rows[p - 1 : p], state=state).to_json()
        assert got == generic_rank(mat.rows[:p]).to_json()


@pytest.mark.parametrize("conv", list(Convention), ids=lambda c: c.value)
def test_incremental_rank_matches_from_scratch_on_a_degenerate_family(monkeypatch, conv):
    # every step of class C and holomorphic nondegeneracy runs to the cap k = 7
    calls, families = [], {}

    def recording(rows, state=None):
        family = families.setdefault(state, [])  # the key keeps each state alive
        family += rows
        g = rank.generic_rank(rows, state=state)
        calls.append((list(family), g.to_json()))
        return g

    monkeypatch.setattr(hypersurface, "generic_rank", recording)
    classify(DEGENERATE, 8, conv)
    assert len(calls) == 16
    for rows, got in calls:
        assert generic_rank(rows).to_json() == got
