"""Substitution into truncated power series: composition and implicit solves.

The layer above the ring of `series.py`. `compose` substitutes pointed series
for the variables of a series, and `solve_implicit` solves u = rhs(x, u) for
the last variable, which is how a graph equation becomes its normal form. Both
evaluate the terms they substitute into by truncated Horner (`_horner`) over
the packed keys of `series.py`, and set the `exact` flag only when the
truncated data determines the whole result (`_fits`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .errors import ArityMismatch, NormalizationRequired, NotPointed
from .series import _W, NumMap, Series, _index

Groups = Dict[Tuple[int, ...], NumMap]  # exponents in the non-shift components -> polynomial


def identity_components(arity: int, degree: int) -> Tuple[Series, ...]:
    return tuple(Series.variable(i, arity, degree) for i in range(arity))


def _shift_key(c: Series) -> Optional[int]:
    """The key of x_j if c is exactly the variable x_j of `Series.variable`, else None."""
    if not c.exact or c._den != 1 or len(c._num) != 1:
        return None
    ((k, v),) = c._num.items()
    return k if v == (1, 0) and k >> (c.arity * _W) == 1 else None


def compose(f: Series, components: Sequence[Series]) -> Series:
    """Substitute pointed series for the variables of f.

    Result truncation degree is the minimum over f and all components; the
    coefficients up to that degree agree with the untruncated composition.

    A component that is exactly a variable x_j as `Series.variable` builds it
    (exact, one term of degree 1, coefficient 1) is a shift: it adds its
    exponent to x_j in the key of each term of f and makes no product. The
    terms of f are grouped by their exponents in the other components (see
    `_group`), and the groups are evaluated by truncated Horner in those
    components, one product a step (see `_horner`).

    The result is exact when f is, no term of f lies beyond the truncation
    degree or is lost to an inexact zero component, and every term's image
    is an exact polynomial within the truncation degree (see `_fits`).
    """
    comps = list(components)
    if len(comps) != f.arity:
        raise ArityMismatch(f"{f.arity} variables but {len(comps)} components")
    if f.arity == 0:
        return f
    arity = comps[0].arity
    for c in comps:
        if c.arity != arity:
            raise ArityMismatch("substitution components live in different rings")
        if not c.is_pointed:
            raise NotPointed("substitution requires components with zero constant term")
    d = min([f.degree] + [c.degree for c in comps])
    shifts = [_shift_key(c) for c in comps]
    others = [c for c, x in zip(comps, shifts) if x is None]
    groups, exact = _group(f, d, shifts)
    exact = exact and _fits(groups, others, arity, d)
    return _horner(groups, [[c.truncate(d)] for c in others], arity, d, f._den)._with_exact(exact)


def _group(f: Series, d: int, shifts: Sequence[Optional[int]]) -> Tuple[Groups, bool]:
    """f's terms through degree d as `_horner` groups, and whether none lies beyond d.

    shifts[i] is component i's key if it is a shift (see `_shift_key`), else
    None. A term joins the group of its non-shift exponents at the key its
    shifts give, summed with any term already there.
    """
    exact = f.exact
    groups: Groups = {}
    for k, (re, im) in f._num.items():
        if k >> (f.arity * _W) > d:
            exact = False  # contributes only beyond the truncation degree
            continue
        alpha = _index(k, f.arity)
        key = sum(e * x for e, x in zip(alpha, shifts) if x is not None)
        num = groups.setdefault(tuple(e for e, x in zip(alpha, shifts) if x is None), {})
        cur = num.get(key)
        num[key] = (re, im) if cur is None else (cur[0] + re, cur[1] + im)
    return groups, exact


def _fits(groups: Groups, comps: Sequence[Series], arity: int, d: int) -> bool:
    """Whether each group's image under the non-shift `comps` is exact within degree d.

    A group on a zero component has no image, exact when that zero is. Any
    other needs exact components and its largest key's degree plus exponent
    times component degree at most d; a cancelled sum stays as a zero entry.
    """
    for alpha, num in groups.items():
        used = [(e, c) for e, c in zip(alpha, comps) if e]
        zero = next((c for _, c in used if c.is_zero), None)
        if zero is not None:
            fits = zero.exact
        else:
            top = (max(num) >> (arity * _W)) + sum(e * c.poly_degree for e, c in used)
            fits = top <= d and all(c.exact for _, c in used)
        if not fits:
            return False
    return True


def _power(cache: List[Series], e: int) -> Series:
    """cache[0]^e, where cache[j] holds cache[0]^(j + 1) and grows on demand."""
    while len(cache) < e:
        cache.append(cache[-1] * cache[0])
    return cache[e - 1]


def _horner(groups: Groups, powers: List[List[Series]], arity: int, d: int, den: int) -> Series:
    """Sum of G_alpha * prod_i c_i^alpha_i through degree d, by truncated Horner.

    `groups` maps alpha to the numerators of G_alpha over `den`, and
    powers[i] is the power cache of c_i (see `_power`). The last component c,
    of order o, is the Horner variable. With G_e the sum of the groups whose
    last exponent is e, r <- r * c^(e' - e) + G_e runs down the exponents
    present, e' the one before e, and a final r <- r * c^e' brings it to 0;
    c^1 is c itself, so only a gap in the exponents reads a cached power.
    Step e is needed only through degree d - e*o, since c^e has order e*o.
    So r, known through d - e'*o, is re-declared at d - e*o: its unknown tail
    times c^(e' - e) lies beyond that degree. Each G_e is the same sum over
    the other components at that reduced degree.
    """
    if not powers:
        limit = (d + 1) << (arity * _W)
        num = {k: v for k, v in groups.get((), {}).items() if k < limit and (v[0] or v[1])}
        return Series._reduced(arity, d, num, den, True)
    cache, rest = powers[-1], powers[:-1]
    o = min(cache[0].order(), d + 1)  # a c that is zero through d contributes only at e = 0
    by_e: Dict[int, Groups] = {}
    for alpha, num in groups.items():
        if alpha[-1] * o <= d:
            by_e.setdefault(alpha[-1], {})[alpha[:-1]] = num
    r: Optional[Series] = None
    at = 0  # the exponent r stands at
    for e in sorted(by_e, reverse=True):
        g = _horner(by_e[e], rest, arity, d - e * o, den)
        if g.is_zero:
            continue
        if r is not None:
            g = Series._make(arity, g.degree, r._num, r._den, False) * _power(cache, at - e) + g
        r, at = g, e
    if r is None:
        return Series.zero(arity, d)
    if at:
        r = Series._make(arity, d, r._num, r._den, False) * _power(cache, at)
    return r


def solve_implicit(rhs: Series) -> Series:
    """Solve u = rhs(x, u) for the last variable by degree-graded Picard iteration.

    Preconditions: rhs(0, 0) = 0 and d(rhs)/du(0, 0) = 0. Under these the
    coefficients of the solution stabilize degree by degree and the returned
    series satisfies the equation exactly up to its truncation degree d.

    With o the order of d(rhs)/du: if u agrees with the solution u* through
    degree k, rhs(x, u) - rhs(x, u*) is (u - u*) times a series of order at
    least o, so rhs(x, u) agrees with u* through k + o. So from 0, step j
    composes only through p = j*o, for every p below d, with the last iterate
    re-declared at p, and one composition of that iterate through d gives u*
    through d. That result u is exact when rhs is and rhs(x, u) fits within
    d (`_fits`): rhs(x, u) then agrees with u* through d + o and has no term
    beyond d, so it is u itself and u solves u = rhs(x, u) as polynomials.
    rhs is grouped by its u-exponent once.
    """
    if rhs.arity < 1:
        raise ArityMismatch("rhs needs at least the unknown variable")
    if not rhs.is_pointed:
        raise NormalizationRequired("rhs(0, 0) must vanish")
    m, d = rhs.arity - 1, rhs.degree
    o = rhs.derivative(m).order()
    if o == 0:
        raise NormalizationRequired(
            "d(rhs)/du(0,0) is nonzero; divide the equation by (1 - that coefficient) first"
        )
    groups, exact = _group(rhs, d, [_shift_key(x) for x in identity_components(m, d)] + [None])
    u = Series.zero(m, d)
    for p in range(o, d, o) if o < d else ():
        u = _horner(groups, [[Series._make(m, p, u._num, u._den, True)]], m, p, rhs._den)
    u = _horner(groups, [[Series._make(m, d, u._num, u._den, True)]], m, d, rhs._den)
    # `_fits` reads u as the polynomial it is, not by the flag `_horner` gave it
    return u._with_exact(exact and _fits(groups, [u._with_exact(True)], m, d))
