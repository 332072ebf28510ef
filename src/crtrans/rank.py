"""Generic rank of series matrices, certified by the minor scan.

Series determinants use memoized Laplace expansion rather than fraction-free
elimination: elimination needs exact division by non-unit pivots, which
erodes the certified degree of a truncated operand at every step, while
cofactor expansion stays inside the ring. The minors are small (at most the
number of columns, n + 1 for the gradient families of a hypersurface in
C^{n+1}), but the matrices can be long: for a Levi-degenerate graph at
n = 2, degree 8 the gradient family is 36 x 3, and 30 of its rows are
exact-zero series. A minor with a row or column of exact zeros is itself an
exact zero, so the minor scan skips every such minor without changing its
witness or its exactness flag.

Generic rank is decided by the minor scan alone, up from size 1: the rank
is the largest size with a minor whose determinant is nonzero as a series
(the lower bound's witness, the first such minor in lexicographic order),
and the upper bound is certified by the exact vanishing of every minor one
size larger. The sizes with a nonzero minor are always 1..r, since a
nonzero (k+1)-minor expands along a row into k-minors of its own rows and
columns, and truncating those expansions commutes with truncating the
entries; so no starting size other than 1 could change the answer.

A gradient family grows one degree at a time and is asked for its rank after
each step, so `generic_rank` runs through a `RankState` that the caller may
keep between calls. It holds the rows and every minor expanded so far, keyed
by (row indices, column indices). Rows are only appended and keep their
Series objects, which `RankState.extend` checks by identity, so a key names
the same minor at every step, and the scan visits minors in the same order
and returns the same witness as one from scratch.

This is all the linear algebra any command runs. The analyses take their
scalar determinants (the differential of a map at 0, the linear part of an
intertwining map) as the constant term of `_det` over constant series, so one
determinant serves them all. The Bareiss kernel, rank at a point and the
fraction-field solves are library code, in `linalg`.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence, Union

from .errors import ArityMismatch, StructureError
from .record import Record
from .scalar import GaussianRational, ScalarLike
from .series import Series
from .verdict import Verdict, certified_true, unknown


class SeriesMatrix(Record):
    rows: tuple

    def __post_init__(self) -> None:
        rows = tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            raise StructureError("ragged matrix")
        arities = {e.arity for r in rows for e in r}
        if len(arities) > 1:
            raise ArityMismatch("matrix entries live in different rings")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def arity(self) -> int:
        for r in self.rows:
            for e in r:
                return e.arity
        raise StructureError("empty matrix has no arity")

    def entry(self, i: int, j: int) -> Series:
        return self.rows[i][j]


MatrixLike = Union[SeriesMatrix, Sequence[Sequence[Series]]]


def _as_matrix(m: MatrixLike) -> SeriesMatrix:
    if isinstance(m, SeriesMatrix):
        return m
    return SeriesMatrix(tuple(tuple(r) for r in m))


def _det(entries: Sequence[Sequence[Series]]) -> Series:
    """Laplace expansion, memoized on the free-column set.

    If every entry is exact the whole computation is lifted to a degree
    that holds the full polynomial determinant, so the result is exact.
    Exact-zero entries are skipped, so a minor with a row or column of exact
    zeros comes out as an exact zero whatever its other entries; the minor
    scan relies on this to skip such minors.
    """
    n = len(entries)
    if n == 0:
        raise StructureError("determinant of an empty matrix")
    arity = entries[0][0].arity
    if all(e.exact for row in entries for e in row):
        target = sum(max(e.poly_degree for e in row) for row in entries)
        entries = [[e.lift(target) for e in row] for row in entries]
        work = target
    else:
        work = min(e.degree for row in entries for e in row)
        entries = [[e.truncate(work) if e.degree > work else e for e in row]
                   for row in entries]
    if n == 1:  # the expansion would multiply the entry by Series.one: the same terms and flag
        return entries[0][0]

    memo: dict = {}

    def rec(i: int, colmask: int) -> Series:
        if i == n:
            return Series.one(arity, work)
        if colmask in memo:
            return memo[colmask]
        acc = Series.zero(arity, work)
        sign = 1
        for j in range(n):
            if not (colmask >> j) & 1:
                continue
            e = entries[i][j]
            # an inexact zero must still flow through the product so the
            # result does not claim exactness it cannot have
            if not (e.is_zero and e.exact):
                term = e * rec(i + 1, colmask & ~(1 << j))
                acc = acc + term if sign > 0 else acc - term
            sign = -sign
        memo[colmask] = acc
        return acc

    return rec(0, (1 << n) - 1)


def determinant(m: MatrixLike) -> Series:
    """Determinant truncated at the minimum degree among the entries."""
    mat = _as_matrix(m)
    if mat.nrows != mat.ncols:
        raise StructureError("determinant of a non-square matrix")
    if mat.nrows == 0:
        raise StructureError("determinant of an empty matrix")
    dmin = min(e.degree for row in mat.rows for e in row)
    return _det(mat.rows).lift(dmin)


def constant_determinant(rows: Sequence[Sequence[ScalarLike]]) -> GaussianRational:
    """Exact determinant of a nonempty square scalar matrix: the constant term
    of `_det` over its entries as constant series."""
    return _det([[Series.constant(x, 0, 0) for x in row] for row in rows]).constant_term


class RankState:
    """Rows and expanded minors of a growing row family.

    `extend` takes appended rows only, checked by identity, so the
    (row indices, column indices) key of `dets` names the same minor at every
    step (see the module docstring).
    """

    def __init__(self) -> None:
        self.mat = SeriesMatrix(())
        self.dets: dict = {}  # (rows, cols) -> determinant of that minor

    def extend(self, m: MatrixLike) -> "RankState":
        """Take `m`, whose leading rows must be the rows held so far."""
        mat = _as_matrix(m)
        old = self.mat.rows
        if len(mat.rows) < len(old) or any(
            a is not b for ra, rb in zip(old, mat.rows) for a, b in zip(ra, rb)
        ):
            raise StructureError("a rank state only takes appended rows")
        self.mat = mat
        return self


class GenericRank(Record):
    """Rank of a matrix over the fraction field of the series ring."""

    r: int
    at_least: Verdict
    at_most: Verdict


def _scan_minors(state: RankState, size: int):
    """First nonzero size-minor witness, plus whether all vanishing was exact.

    Minors are visited in lexicographic order of (rows, cols). A minor with a
    row or column made entirely of exact-zero series is an exact zero (see
    `_det`): it can neither be the witness nor clear the exactness flag, so
    it is skipped without being expanded. Rows of exact zeros are left out of
    the row combinations, and columns that are exact zeros on the chosen rows
    out of the column combinations. The witness keeps the original indices.
    A minor the state has expanded before is not expanded again.
    """
    mat, dets = state.mat, state.dets
    zero = [[e.is_zero and e.exact for e in row] for row in mat.rows]
    live_rows = [i for i, z in enumerate(zero) if not all(z)]
    all_exact = True
    for rows in itertools.combinations(live_rows, size):
        live_cols = [j for j in range(mat.ncols) if not all(zero[i][j] for i in rows)]
        for cols in itertools.combinations(live_cols, size):
            if any(all(zero[i][j] for j in cols) for i in rows):
                continue
            det = dets.get((rows, cols))
            if det is None:
                det = dets[rows, cols] = _det([[mat.entry(i, j) for j in cols] for i in rows])
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


def generic_rank(m: MatrixLike, state: Optional[RankState] = None) -> GenericRank:
    """Generic rank of `m`, with a certified lower and upper bound.

    Pass the same `state` while rows are appended to `m`, and no minor is
    expanded twice; without one, a fresh state is used.
    """
    state = (state or RankState()).extend(m)
    mat = state.mat
    maxs = min(mat.nrows, mat.ncols)
    degree_used = min((e.degree for row in mat.rows for e in row), default=0)

    r, wit, above_exact = 0, None, True
    while r < maxs:
        w2, all_exact = _scan_minors(state, r + 1)
        if w2 is None:
            above_exact = all_exact
            break
        r, wit = r + 1, w2

    if r == 0:
        at_least = certified_true({"note": "zero is a trivial lower bound"}, degree_used)
    else:
        at_least = certified_true(wit, degree_used)

    if r == maxs:
        at_most = certified_true({"note": "bounded by matrix size"}, degree_used)
    elif above_exact:
        at_most = certified_true(
            {"note": f"every minor of size {r + 1} vanishes identically"}, degree_used
        )
    else:
        at_most = unknown(
            {"note": f"minors of size {r + 1} vanish up to truncation only"},
            degree_used,
        )

    return GenericRank(r, at_least, at_most)
