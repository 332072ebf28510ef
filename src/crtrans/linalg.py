"""Exact linear algebra over truncated series and their fraction field.

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

Scalar rank and scalar determinant share one kernel: fraction-free Bareiss
elimination (Bareiss, Math. Comp. 22, 1968) over the Gaussian integers,
applied after each row is scaled by the common denominator of its entries.

Generic rank is decided symbolically: random rational evaluation points
only propose a candidate, and every reported bound is backed by a minor
whose determinant is nonzero as a series (lower bound) or by exhaustive
vanishing of the next minor size (upper bound).

A gradient family grows one degree at a time and is asked for its rank after
each step, so `generic_rank` runs through a `RankState` that the caller may
keep between calls. It holds the sample points, each point's rows evaluated
so far (a whole row at once, through `series.evaluate_row`) and every minor
expanded so far, keyed by (row indices, column indices). Rows are only
appended and keep their Series objects, which `RankState.extend` checks by
identity, so a key names the same minor at every step, and the scan visits
minors in the same order and returns the same witness as one from scratch.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from . import fracseries  # the lazy module: only the fraction-field solves load it
from .errors import ArityMismatch, NotSolvableAtTruncation, StructureError
from .record import Record
from .scalar import ZERO, GaussianRational
from .series import Series, _scalar, _split, evaluate_row
from .verdict import Verdict, certified_false, certified_true, unknown

MatrixLike = Union["SeriesMatrix", Sequence[Sequence[Series]]]


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


def _as_matrix(m: MatrixLike) -> SeriesMatrix:
    if isinstance(m, SeriesMatrix):
        return m
    return SeriesMatrix(tuple(tuple(r) for r in m))


# ---------------- determinants ----------------


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
    det = _det(mat.rows)
    if det.degree < dmin:
        return det.lift(dmin)
    return det.truncate(dmin)


def scalar_determinant(rows: Sequence[Sequence[GaussianRational]]) -> GaussianRational:
    """Exact determinant of a square scalar matrix (1 for the empty matrix)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise StructureError("determinant of a non-square matrix")
    mat, scale = _gaussian_integer_rows(rows)
    rank, sign, (re, im) = _bareiss(mat)
    if rank < n:
        return ZERO
    return _scalar(sign * re, sign * im, scale)


# ---------------- scalar kernel ----------------


def _gaussian_integer_rows(rows) -> Tuple[List[List[Tuple[int, int]]], int]:
    """Each row times the common denominator of its entries, as (re, im) ints.

    Also returns the product of those row scales, by which the determinant of
    the integer matrix exceeds that of the input.
    """
    out = []
    scale = 1
    for row in rows:
        parts = [_split(GaussianRational.coerce(x)) for x in row]
        den = math.lcm(*(d for _, _, d in parts))
        out.append([(re * (den // d), im * (den // d)) for re, im, d in parts])
        scale *= den
    return out, scale


def _bareiss(mat: List[List[Tuple[int, int]]]) -> Tuple[int, int, Tuple[int, int]]:
    """Fraction-free row echelon form of a Gaussian-integer matrix, in place.

    Returns (rank, sign, pivot): sign is -1 to the number of row swaps and
    pivot the last pivot found ((1, 0) if none). After k pivots every entry
    below them is a (k+1)-minor of the input and the last pivot is the
    leading k-minor, so each update (a * p - b * c) / prev divides exactly
    (Sylvester's identity) and nothing leaves the Gaussian integers. For a
    square matrix of full rank, sign * pivot is the determinant.
    """
    nr = len(mat)
    nc = len(mat[0]) if nr else 0
    rank, sign = 0, 1
    dr, di = 1, 0  # previous pivot, the exact divisor of the next step
    for col in range(nc):
        if rank == nr:
            break
        piv = next((r for r in range(rank, nr) if mat[r][col] != (0, 0)), None)
        if piv is None:
            continue
        if piv != rank:
            mat[rank], mat[piv] = mat[piv], mat[rank]
            sign = -sign
        top = mat[rank]
        pr, pi = top[col]
        norm = dr * dr + di * di
        for r in range(rank + 1, nr):
            row = mat[r]
            br, bi = row[col]
            for c in range(col + 1, nc):
                ar, ai = row[c]
                cr, ci = top[c]
                xr = ar * pr - ai * pi - br * cr + bi * ci
                xi = ar * pi + ai * pr - br * ci - bi * cr
                row[c] = ((xr * dr + xi * di) // norm, (xi * dr - xr * di) // norm)
            row[col] = (0, 0)
        dr, di = pr, pi
        rank += 1
    return rank, sign, (dr, di)


# ---------------- rank ----------------

_SAMPLES = 4  # random points that propose a candidate rank


class RankState:
    """Sample points, evaluated rows and expanded minors of a growing row family.

    The points are drawn from the seed once the family has a row and a
    column. `extend` takes appended rows only, checked by identity, so the
    (row indices, column indices) key of `dets` names the same minor at every
    step (see the module docstring).
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.mat = SeriesMatrix(())
        self.points: Optional[list] = None
        self.values: dict = {}  # point -> [Gaussian-integer row, None for a zero row]
        self.ranks: dict = {}  # point -> (live rows, rank) at its last elimination
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

    def sample_points(self) -> list:
        if self.points is None:
            rng = random.Random(self.seed)
            self.points = [
                tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                      for _ in range(self.mat.arity))
                for _ in range(_SAMPLES)
            ]
        return self.points


def rank_at_point(m: Union[MatrixLike, RankState], point: Sequence) -> int:
    """Rank of the matrix evaluated at an exact point.

    Rows of zero series contribute nothing to the rank and are not evaluated.
    Given a RankState, only the rows not yet evaluated at this point are, and
    the elimination runs again only when a live row was appended since the
    last one.
    """
    state = m if isinstance(m, RankState) else RankState().extend(m)
    key = tuple(point)
    vals = state.values.setdefault(key, [])
    for row in state.mat.rows[len(vals):]:
        vals.append(None if all(e.is_zero for e in row) else evaluate_row(row, point)[0])
    live = [v for v in vals if v is not None]
    last = state.ranks.get(key)
    if last is None or last[0] != len(live):
        last = state.ranks[key] = (len(live), _bareiss([list(v) for v in live])[0])
    return last[1]


class GenericRank(Record):
    """Rank of a matrix over the fraction field of the series ring."""

    r: int
    at_least: Verdict
    at_most: Verdict
    evaluations: tuple


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


def generic_rank(m: MatrixLike, seed: int = 0, state: Optional[RankState] = None) -> GenericRank:
    """Generic rank of `m`, with a certified lower and upper bound.

    Pass the same `state` (built with this seed) while rows are appended to
    `m`, and no row is evaluated at a sample point twice and no minor
    expanded twice; without one, a fresh state is used.
    """
    if state is None:
        state = RankState(seed)
    elif state.seed != seed:
        raise StructureError("rank state was built with another seed")
    mat = state.extend(m).mat
    maxs = min(mat.nrows, mat.ncols)
    degree_used = min((e.degree for row in mat.rows for e in row), default=0)

    evaluations = []
    candidate = 0
    if maxs > 0:
        for pt in state.sample_points():
            rk = rank_at_point(state, pt)
            evaluations.append((tuple(str(c) for c in pt), rk))
            candidate = max(candidate, rk)

    r = candidate
    wit = None
    while r > 0:
        wit, _ = _scan_minors(state, r)
        if wit is not None:
            break
        r -= 1

    above_exact = True
    while r < maxs:
        w2, all_exact = _scan_minors(state, r + 1)
        if w2 is not None:
            r += 1
            wit = w2
        else:
            above_exact = all_exact
            break

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

    return GenericRank(r, at_least, at_most, tuple(evaluations))


# ---------------- solving ----------------


def solve_triangular(lower: MatrixLike, rhs: Sequence) -> list:
    """Forward substitution; the system must be square and lower triangular."""
    mat = _as_matrix(lower)
    n = mat.nrows
    if mat.ncols != n:
        raise StructureError("triangular solve needs a square matrix")
    if len(rhs) != n:
        raise StructureError("right-hand side length does not match")
    for i in range(n):
        for j in range(i + 1, n):
            if not mat.entry(i, j).is_zero:
                raise StructureError(f"entry ({i},{j}) above the diagonal is nonzero")
    arity = mat.arity
    degree = min(e.degree for row in mat.rows for e in row)
    FracSeries = fracseries.FracSeries
    xs: list[FracSeries] = []
    for i in range(n):
        acc = FracSeries.coerce(rhs[i], arity, degree)
        for j in range(i):
            lij = mat.entry(i, j)
            if not lij.is_zero:
                acc = acc - xs[j] * lij
        diag = mat.entry(i, i)
        if diag.is_zero:
            raise NotSolvableAtTruncation(
                f"diagonal entry {i} vanishes up to truncation degree {diag.degree}"
            )
        xs.append(acc / FracSeries.from_series(diag))
    return xs


# ---------------- span membership ----------------


def _clear_denominators(row: Sequence[fracseries.FracSeries]) -> list[Series]:
    out = []
    for i, f in enumerate(row):
        s = f.num
        for j, g in enumerate(row):
            if j != i:
                s = fracseries._times(s, g.den)
        out.append(s)
    return out


def span_membership(vector: Sequence, generators: Sequence[Sequence], seed: int = 0) -> Verdict:
    """Is `vector` in the span of `generators` over the series fraction field?"""
    if not vector:
        raise StructureError("empty vector")
    FracSeries = fracseries.FracSeries
    width = len(vector)
    arity = None
    for entry in vector:
        if isinstance(entry, (FracSeries, Series)):
            arity = entry.arity
            break
    if arity is None:
        for row in generators:
            for entry in row:
                if isinstance(entry, (FracSeries, Series)):
                    arity = entry.arity
                    break
    if arity is None:
        raise StructureError("no series entry to infer the ring from")

    def as_frac_row(row):
        if len(row) != width:
            raise ArityMismatch("generator length does not match the vector")
        return [FracSeries.coerce(e, arity, 0) for e in row]

    vrow = _clear_denominators(as_frac_row(vector))
    grows = [_clear_denominators(as_frac_row(r)) for r in generators]

    degree_used = min(e.degree for e in vrow)
    if not grows:
        if all(e.is_zero for e in vrow):
            return certified_true({"note": "zero vector lies in the empty span"}, degree_used)
        idx, lead = next((i, e) for i, e in enumerate(vrow) if not e.is_zero)
        return certified_false(
            {"entry_index": idx, "minor_index": list(lead.leading_index())},
            degree_used,
        )

    base = generic_rank(SeriesMatrix(tuple(tuple(r) for r in grows)), seed=seed)
    extended = generic_rank(
        SeriesMatrix(tuple(tuple(r) for r in grows) + (tuple(vrow),)), seed=seed
    )

    if extended.r > base.r:
        return certified_false(
            {
                "note": "appending the vector raises the generic rank",
                "rank_generators": base.r,
                "rank_extended": extended.r,
                "witness_minor": extended.at_least.witness,
            },
            degree_used,
        )
    if extended.at_most.is_true:
        return certified_true(
            {
                "note": "appending the vector does not raise the generic rank",
                "rank": base.r,
            },
            degree_used,
        )
    return unknown(
        {"note": "rank comparison not certified at this truncation"}, degree_used
    )
