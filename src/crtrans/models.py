"""Built-in hypersurface and map families used by the verification harness.

Everything here is constructed at an explicit truncation degree from closed
formulas or implicit equations; nothing is approximated. Constructors are
cached where the arguments are hashable since the verification suites reuse
the same instances many times.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence, Tuple

from .crmap import CRMap
from .errors import ConstructionError, FieldRestriction, StructureError, TruncationMismatch
from .hypersurface import (
    Convention,
    NormalHypersurface,
    from_graph,
)
from .scalar import GaussianRational, RationalLike
from .series import Series, exp_series
from .substitution import compose, solve_implicit


def _check_degree(degree: int, needed: int, what: str) -> None:
    if degree < needed:
        raise TruncationMismatch(f"{what} needs truncation degree at least {needed}")


# ---------------- quadric and weighted models ----------------

# the largest n of a quadric model: its series have 2n + 1 variables, and an n
# past an index-sized int cannot even size their exponent tuples
MAX_N = 1000


def _quadric(n: int, degree: int, convention: Convention, coefficient) -> NormalHypersurface:
    """Im w = coefficient * |z|^2 (factor per convention)."""
    if n < 1:
        raise StructureError("n must be a positive integer")
    if n > MAX_N:
        raise StructureError(f"n = {n} exceeds the maximum {MAX_N}")
    terms = {}
    for i in range(n):
        idx = [0] * (2 * n + 1)
        idx[i] = 1
        idx[n + i] = 1
        terms[tuple(idx)] = coefficient
    return from_graph(Series.polynomial(2 * n + 1, degree, terms), convention)


@lru_cache(maxsize=None)
def heisenberg(
    n: int = 1, degree: int = 10, convention: Convention = Convention.TWO_I
) -> NormalHypersurface:
    """The quadric Im w = |z|^2 (factor per convention)."""
    _check_degree(degree, 2, "the quadric model")
    return _quadric(n, degree, convention, 1)


@lru_cache(maxsize=None)
def scaled_heisenberg(
    factor: RationalLike,
    n: int = 1,
    degree: int = 10,
    convention: Convention = Convention.TWO_I,
) -> NormalHypersurface:
    """Im w = factor * |z|^2 for a positive rational factor."""
    from fractions import Fraction  # no command builds this model

    factor = Fraction(factor)
    if factor <= 0:
        raise StructureError("the scaling factor must be a positive rational")
    _check_degree(degree, 2, "the scaled quadric model")
    return _quadric(n, degree, convention, factor)


def m_psi(
    psi: Sequence[Series], degree: int = 10, convention: Convention = Convention.TWO_I
) -> NormalHypersurface:
    """Im w = sum |psi_j(z)|^2 for pointed holomorphic psi_j."""
    psi = tuple(psi)
    if not psi:
        raise StructureError("need at least one component")
    n = psi[0].arity
    if any(p.arity != n for p in psi):
        raise StructureError("psi components must share one ring")
    if any(not p.is_pointed for p in psi):
        raise StructureError("normal coordinates need pointed psi components")
    arity = 2 * n + 1
    phi = Series.zero(arity, degree)
    for p in psi:
        lifted = p.lift(degree) if p.exact else p
        left = lifted.embed(arity, list(range(n)))
        right = lifted.conjugate().embed(arity, list(range(n, 2 * n)))
        phi = phi + left * right
    return from_graph(phi, convention)


def m_psi_map(psi: Sequence[Series], degree: int = 10) -> CRMap:
    """The map (psi(z), w) into the quadric with len(psi) tangential slots."""
    psi = tuple(psi)
    n = psi[0].arity
    f = tuple(
        (p.lift(degree) if p.exact else p).embed(n + 1, list(range(n))) for p in psi
    )
    return CRMap(f, Series.variable(n, n + 1, degree))


@lru_cache(maxsize=None)
def exp_model(
    k: int = 1, degree: int = 10, convention: Convention = Convention.TWO_I
) -> NormalHypersurface:
    """The 1-infinite type model Q = tau * exp(i z chi / k)."""
    if k < 1:
        raise StructureError("k must be a positive integer")
    _check_degree(degree, 3, "the exponential model")
    zchi = Series.polynomial(3, degree, {(1, 1, 0): GaussianRational(0, 1) / k})
    q = exp_series(zchi) * Series.variable(2, 3, degree)
    m = NormalHypersurface(1, q, convention)
    cls = m.classification
    if not (cls.is_infinite and cls.m == 1):
        raise ConstructionError("exponential model failed its type check")
    return m


# ---------------- power self-maps and the blowup family ----------------


def _monomial_map(root: int, b: int, c: int, degree: int, what: str) -> CRMap:
    """(z, w) -> (root z w^b, w^c); `what` names the map if degree is too low."""
    _check_degree(degree, max(b + 1, c), what)
    f = Series.polynomial(2, degree, {(1, b): root})
    g = Series.polynomial(2, degree, {(0, c): 1})
    return CRMap((f,), g)


@lru_cache(maxsize=None)
def tk_map(k: int, degree: int = 10) -> CRMap:
    """(z, w) -> (z, w^k)."""
    if k < 1:
        raise StructureError("k must be a positive integer")
    return _monomial_map(1, 0, k, degree, "the power map")


@lru_cache(maxsize=None)
def hk_map(k: int, degree: int = 10) -> CRMap:
    """(z, w) -> (sqrt(k) z, w^k); k must be a perfect square."""
    if k < 1:
        raise StructureError("k must be a positive integer")
    root = math.isqrt(k)
    if root * root != k:
        raise FieldRestriction(
            f"sqrt({k}) is not rational; this map leaves the Gaussian rationals"
        )
    return _monomial_map(root, 0, k, degree, "the power map")


@lru_cache(maxsize=None)
def blowup_map(b: int, c: int, degree: int = 10) -> CRMap:
    """(z, w) -> (sqrt(c) z w^b, w^c); c must be a perfect square."""
    if b < 1 or c < 1:
        raise StructureError("b and c must be positive integers")
    root = math.isqrt(c)
    if root * root != c:
        raise FieldRestriction(
            f"sqrt({c}) is not rational; use unscaled_blowup_map with a rescaled target"
        )
    return _monomial_map(root, b, c, degree, "the blowup map")


@lru_cache(maxsize=None)
def unscaled_blowup_map(b: int, c: int, degree: int = 10) -> CRMap:
    """(z, w) -> (z w^b, w^c), defined over the rationals for every b, c."""
    if b < 1 or c < 1:
        raise StructureError("b and c must be positive integers")
    return _monomial_map(1, b, c, degree, "the blowup map")


@lru_cache(maxsize=None)
def theta_profile(b: int, c: int, degree: int = 10) -> Series:
    """The profile Theta(x, s) of the blowup hypersurface graph.

    Theta solves
        u = x * sum_k C(b,k) s^(2k(d-1)) u^(2k)
            - (1/c) * sum_k C(c,2k+1) (-1)^k s^(2k(d-1)) u^(2k+1)
    with d = 2b - c + 1; the graph function is then s^d * Theta(z chi, s).
    """
    if b < 1 or c < 1:
        raise StructureError("b and c must be positive integers")
    d = 2 * b - c + 1
    if d < 2:
        raise StructureError("need 2b > c for an infinite type blowup model")
    terms = {}
    for k in range(b + 1):
        terms[(1, 2 * k * (d - 1), 2 * k)] = math.comb(b, k)
    for k in range(1, (c - 1) // 2 + 1):
        sign = -1 if k % 2 == 0 else 1
        terms[(0, 2 * k * (d - 1), 2 * k + 1)] = (
            GaussianRational(sign * math.comb(c, 2 * k + 1)) / c
        )
    rhs = Series(3, degree, terms)  # high powers may fall past the degree
    theta = solve_implicit(rhs)

    linear = theta.coefficient_series([1], (0,))
    if linear.terms != {(1,): GaussianRational(1)}:
        raise ConstructionError("profile does not reduce to x on the axis s = 0")
    return theta


@lru_cache(maxsize=None)
def blowup_hypersurface(
    b: int, c: int, degree: int = 10, convention: Convention = Convention.TWO_I
) -> NormalHypersurface:
    """The model with Im(w^c) = c |z|^2 |w|^(2b), of infinite type 2b - c + 1."""
    d = 2 * b - c + 1
    _check_degree(degree, d + 2, "the blowup hypersurface")
    theta = theta_profile(b, c, degree)
    zchi = Series.polynomial(3, degree, {(1, 1, 0): 1})
    s_var = Series.variable(2, 3, degree)
    phi = compose(theta, [zchi, s_var]) * Series.polynomial(3, degree, {(0, 0, d): 1})
    m = from_graph(phi, convention)
    cls = m.classification
    if not (cls.is_infinite and cls.m == d):
        raise ConstructionError(
            f"blowup model ({b}, {c}) classified as {cls.kind.value}, m = {cls.m}; "
            f"expected infinite type {d}"
        )
    return m


# ---------------- a rational infinite-type instance ----------------


@lru_cache(maxsize=None)
def remark_instance(
    degree: int = 10, convention: Convention = Convention.TWO_I
) -> Tuple[NormalHypersurface, NormalHypersurface, CRMap]:
    """The hypersurface Im w = |z w|^2 with the map (z, z w) toward the quadric."""
    _check_degree(degree, 4, "this instance")
    rhs = Series.polynomial(4, degree, {(1, 1, 2, 0): 1, (1, 1, 0, 2): 1})
    phi = solve_implicit(rhs)  # t = z chi (s^2 + t^2)
    m = from_graph(phi, convention)
    target = heisenberg(1, degree, convention)
    h = CRMap(
        (Series.variable(0, 2, degree),),
        Series.polynomial(2, degree, {(1, 1): 1}),
    )
    return m, target, h
