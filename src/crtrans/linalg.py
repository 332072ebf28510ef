"""Exact linear algebra over truncated series and their fraction field.

Library code: no command loads this module. The series determinants, the
analyses' scalar determinants and generic rank are in `rank`, all the linear
algebra `classify`, `check-map`, `verify` and `examples` run. This module
keeps the rest: the scalar determinant and rank of one Bareiss kernel, rank
at a point, triangular solves and span membership over the fraction field.
It gives `determinant`, `_det` and `generic_rank` from `rank` under their
names.

Scalar rank and scalar determinant share one kernel: fraction-free Bareiss
elimination (Bareiss, Math. Comp. 22, 1968) over the Gaussian integers,
applied after each row is scaled by the common denominator of its entries.
It is the reference the determinant of `rank` is tested against.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from . import fracseries  # the lazy module: only the fraction-field solves load it
from .errors import ArityMismatch, NotSolvableAtTruncation, StructureError
from .rank import MatrixLike, SeriesMatrix, _as_matrix, generic_rank
from .rank import _det, determinant  # given under their names; not called here
from .scalar import ZERO, GaussianRational, ScalarLike
from .series import Series, _index, _scalar, _split
from .verdict import Verdict, certified_false, certified_true, unknown


# ---------------- determinants ----------------


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


# ---------------- point rank ----------------


def evaluate_row(
    row: Sequence[Series], point: Sequence[ScalarLike]
) -> Tuple[List[Tuple[int, int]], int]:
    """Values of a row of series at one exact point, over one denominator.

    Returns (nums, den) in lowest terms with row[j](point) == (re + im*i) / den
    for nums[j] == (re, im). Computed on the integer form, with one power
    table per coordinate for the whole row. Write coordinate i as g_i / d_i
    with g_i a Gaussian integer, and let E_i be the highest power of variable
    i among the row's stored terms. Every term of entry j then lies over the
    one denominator den_j * prod d_i^E_i, with g_i^e * d_i^(E_i - e) in place
    of the e-th power of the coordinate, and the row is brought to the lcm of
    the den_j.
    """
    for s in row:
        if len(point) != s.arity:
            raise ArityMismatch("evaluation point has wrong length")
    n = len(point)
    keys = [_index(k, n) for s in row for k in s._num]
    top = [max(col) for col in zip(*keys)] if keys else [0] * n
    scale = 1
    powers = []  # powers[i][e] = g_i^e * d_i^(E_i - e) as (re, im)
    for p, t in zip(point, top):
        gr, gi, d = _split(GaussianRational.coerce(p))
        g = [(1, 0)]
        for _ in range(t):
            a, b = g[-1]
            g.append((a * gr - b * gi, a * gi + b * gr))
        powers.append([(a * d ** (t - e), b * d ** (t - e)) for e, (a, b) in enumerate(g)])
        scale *= d ** t
    common = math.lcm(*(s._den for s in row))
    nums = []
    for s in row:
        total_re = total_im = 0
        for k, (re, im) in s._num.items():
            for i, e in enumerate(_index(k, n)):
                a, b = powers[i][e]
                re, im = re * a - im * b, re * b + im * a
            total_re += re
            total_im += im
        m = common // s._den
        nums.append((total_re * m, total_im * m))
    den = common * scale
    g = math.gcd(den, *(x for pair in nums for x in pair))
    if g > 1:
        nums = [(re // g, im // g) for re, im in nums]
        den //= g
    return nums, den


def rank_at_point(m: MatrixLike, point: Sequence) -> int:
    """Rank of the matrix evaluated at an exact point, a lower bound of its
    generic rank. Rows of zero series add nothing and are not evaluated."""
    rows = _as_matrix(m).rows
    return _bareiss([evaluate_row(row, point)[0] for row in rows
                     if not all(e.is_zero for e in row)])[0]


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
            if not mat.rows[i][j].is_zero:
                raise StructureError(f"entry ({i},{j}) above the diagonal is nonzero")
    arity = mat.arity
    degree = min(e.degree for row in mat.rows for e in row)
    FracSeries = fracseries.FracSeries
    xs: list[FracSeries] = []
    for i in range(n):
        acc = FracSeries.coerce(rhs[i], arity, degree)
        for j in range(i):
            lij = mat.rows[i][j]
            if not lij.is_zero:
                acc = acc - xs[j] * lij
        diag = mat.rows[i][i]
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


def span_membership(vector: Sequence, generators: Sequence[Sequence]) -> Verdict:
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

    base = generic_rank(SeriesMatrix(tuple(tuple(r) for r in grows)))
    extended = generic_rank(SeriesMatrix(tuple(tuple(r) for r in grows) + (tuple(vrow),)))

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
