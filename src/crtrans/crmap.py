"""Formal holomorphic maps between hypersurfaces in normal coordinates.

A map H = (F, G): C^{n+1} -> C^{n'+1} fixing 0 is stored through its
components in the source variables (z_1..z_n, w); G is the normal
component. All the analyzers return Verdicts whose claims are relative to
the degree actually used, which every verdict records.
"""

from __future__ import annotations

from functools import cached_property
from typing import Mapping, Optional, Sequence, Tuple

from .errors import ArityMismatch, StructureError, TruncationMismatch
from .hypersurface import (
    NormalHypersurface,
    infinite_unit_part,
    is_class_c,
    is_class_cm,
    is_holomorphically_nondegenerate,
)
from .multiindex import unit
from .rank import constant_determinant, determinant, generic_rank
from .record import Record
from .scalar import ZERO
from .series import Series
from .substitution import compose
from .verdict import (Verdict, certified_false, certified_true, coefficient_witness, lowest_power,
                      nonzero, unknown, vanishes)


class CRMap(Record):
    """(F, G) with F the tangential components and G the normal one."""

    f: Tuple[Series, ...]
    g: Series

    def __post_init__(self) -> None:
        object.__setattr__(self, "f", tuple(self.f))
        if not self.f:
            raise StructureError("a map needs at least one tangential component")
        a = self.g.arity
        if any(c.arity != a for c in self.f):
            raise ArityMismatch("map components live in different source rings")
        if any(not c.is_pointed for c in self.f) or not self.g.is_pointed:
            raise StructureError("maps are based at the origin; components must be pointed")

    @property
    def source_n(self) -> int:
        return self.g.arity - 1

    @property
    def target_n(self) -> int:
        return len(self.f)

    @property
    def w_index(self) -> int:
        return self.source_n

    @property
    def degree(self) -> int:
        return min([c.degree for c in self.f] + [self.g.degree])

    @property
    def components(self) -> Tuple[Series, ...]:
        return self.f + (self.g,)


def identity_map(n: int, degree: int) -> CRMap:
    comps = [Series.variable(i, n + 1, degree) for i in range(n + 1)]
    return CRMap(tuple(comps[:n]), comps[n])


def compose_maps(outer: CRMap, inner: CRMap) -> CRMap:
    if outer.source_n != inner.target_n:
        raise ArityMismatch(
            f"outer map expects {outer.source_n} tangential variables, "
            f"inner map provides {inner.target_n}"
        )
    comps = list(inner.components)
    new_f = tuple(compose(c, comps) for c in outer.f)
    new_g = compose(outer.g, comps)
    return CRMap(new_f, new_g)


def dh0(h: CRMap):
    """Differential at 0 as a scalar matrix, rows (F_1..F_n', G)."""
    rows = []
    for c in h.components:
        if c.degree < 1:
            raise TruncationMismatch("need degree >= 1 to read the differential")
        rows.append([c.terms.get(unit(c.arity, j), ZERO) for j in range(c.arity)])
    return rows


def is_automorphism(h: CRMap) -> Verdict:
    """Invertibility of the formal map; decided exactly from the linear part."""
    if h.target_n != h.source_n:
        return certified_false({"note": "map is not equidimensional"}, h.degree)
    return nonzero("determinant", constant_determinant(dh0(h)), h.degree)


# ---------------- pointwise analyzers ----------------


def is_cr_transversal(h: CRMap) -> Verdict:
    """Nonvanishing of dG/dw at 0; exact either way."""
    if h.g.degree < 1:
        raise TruncationMismatch("need degree >= 1 to read dG/dw at 0")
    return nonzero("coefficient", h.g.terms.get(unit(h.g.arity, h.w_index), ZERO), h.g.degree)


def is_transversally_flat(h: CRMap) -> Verdict:
    """Does the map send everything into the hypersurface w = 0?"""
    return vanishes(h.g, {"note": "normal component vanishes", "exact": h.g.exact})


def is_not_totally_degenerate(h: CRMap) -> Verdict:
    """Generic rank of dF/dz restricted to w = 0 equals the source dimension."""
    n = h.source_n
    rows = []
    for c in h.f:
        entries = [
            c.derivative(j).coefficient_series([h.w_index], (0,)) for j in range(n)
        ]
        rows.append(entries)
    g = generic_rank(rows)
    if g.r >= n:
        return certified_true(dict(g.at_least.witness or {}), h.degree)
    if g.at_most.is_true:
        return certified_false({"rank": g.r, **dict(g.at_most.witness or {})}, h.degree)
    return unknown({"rank_reached": g.r}, h.degree)


def jacobian(h: CRMap) -> Series:
    if h.target_n != h.source_n:
        raise StructureError("Jacobian determinant needs an equidimensional map")
    rows = [[c.derivative(j) for j in range(c.arity)] for c in h.components]
    return determinant(rows)


def is_jacobian_nonzero(h: CRMap) -> Verdict:
    det = jacobian(h)
    if not det.is_zero:
        return certified_true(coefficient_witness(det), det.degree)
    if det.exact:
        return certified_false({"note": "Jacobian vanishes identically"}, det.degree)
    return unknown({"note": "Jacobian vanishes up to truncation"}, det.degree)


class TransversalOrder(Record):
    """Order of vanishing of G along w; None when flat to truncation."""

    value: Optional[int]
    witness: Mapping
    degree_used: int
    exact: bool

    @property
    def is_flat(self) -> bool:
        return self.value is None


def transversal_order(h: CRMap) -> TransversalOrder:
    g = h.g
    if g.is_zero:
        return TransversalOrder(
            None,
            {"note": "normal component vanishes up to truncation"},
            g.degree,
            g.exact,
        )
    k, witness = lowest_power(g, h.w_index, g.terms)
    if k == 0:
        raise StructureError(
            "normal component has a monomial with no w factor; "
            "the map cannot send a normal-form source into a normal-form target"
        )
    return TransversalOrder(k, witness, g.degree, g.exact)


# ---------------- identities against hypersurfaces ----------------


def _check_dimensions(h: CRMap, m: NormalHypersurface, mp: NormalHypersurface) -> None:
    if m.n != h.source_n:
        raise ArityMismatch(f"source has n = {m.n} but the map uses {h.source_n}")
    if mp.n != h.target_n:
        raise ArityMismatch(f"target has n = {mp.n} but the map provides {h.target_n}")
    if m.convention is not mp.convention:
        raise StructureError("source and target use different graph conventions")


def sends_into(h: CRMap, m: NormalHypersurface, mp: NormalHypersurface) -> Verdict:
    """Check G(z, Q) = Q'(F(z, Q), conj F(chi, tau), conj G(chi, tau))."""
    _check_dimensions(h, m, mp)
    n = m.n
    arity = 2 * n + 1
    d = min(m.degree, mp.degree, h.degree)

    z_vars = [Series.variable(i, arity, d) for i in range(n)]
    chi_vars = [Series.variable(n + i, arity, d) for i in range(n)]
    tau_var = Series.variable(2 * n, arity, d)

    on_source = z_vars + [m.q]
    conj_args = chi_vars + [tau_var]

    lhs = compose(h.g, on_source)
    f_push = [compose(c, on_source) for c in h.f]
    f_conj = [compose(c.conjugate(), conj_args) for c in h.f]
    g_conj = compose(h.g.conjugate(), conj_args)

    rhs = compose(mp.q, f_push + f_conj + [g_conj])
    diff = lhs - rhs
    return vanishes(diff, {"exact": diff.exact})


# ---------------- one analysis per instance ----------------


class InstanceAnalysis(Record, eq=False):
    """Every verdict about one instance h: source -> target, each decided at
    most once. The gated conclusions read the cached hypotheses, so the suites
    and check-map never decide a hypothesis twice."""

    h: CRMap
    source: NormalHypersurface
    target: NormalHypersurface

    # the analyzers are looked up at call time, so wrapping a module function
    # (as perfbench/tracer.py does) also sees the calls made from here; a
    # surface shared by several instances is classified once, on the surface
    source_type = property(lambda self: self.source.classification)
    target_type = property(lambda self: self.target.classification)
    sends_into = cached_property(lambda self: sends_into(self.h, self.source, self.target))
    transversal_order = cached_property(lambda self: transversal_order(self.h))
    transversally_flat = cached_property(lambda self: is_transversally_flat(self.h))
    cr_transversal = cached_property(lambda self: is_cr_transversal(self.h))
    not_totally_degenerate = cached_property(lambda self: is_not_totally_degenerate(self.h))
    automorphism = cached_property(lambda self: is_automorphism(self.h))
    source_class_c = cached_property(lambda self: is_class_c(self.source))
    source_holomorphically_nondegenerate = cached_property(
        lambda self: is_holomorphically_nondegenerate(self.source)
    )

    @cached_property
    def source_class_cm(self) -> Verdict:
        if not self.source_type.is_infinite:
            return unknown({"note": "source type not certified infinite"})
        return is_class_cm(self.source)

    @cached_property
    def equidimensional(self) -> Verdict:
        h = self.h
        ok = h.source_n == h.target_n
        wit = {"source_n": h.source_n, "target_n": h.target_n}
        return certified_true(wit, h.degree) if ok else certified_false(wit, h.degree)

    @cached_property
    def self_map(self) -> Verdict:
        m, mp = self.source, self.target
        same = m.n == mp.n and m.convention is mp.convention and m.q == mp.q
        wit = {"note": "target coincides with source" if same else "target differs from source"}
        return certified_true(wit, m.degree) if same else certified_false(wit, m.degree)

    @cached_property
    def jacobian_nonzero(self) -> Verdict:
        if not self.equidimensional.is_true:
            return unknown({"note": "not equidimensional"})
        return is_jacobian_nonzero(self.h)

    # ---------------- gated conclusions ----------------

    def _gate(self, hypotheses: Sequence[Tuple[str, bool]]) -> Optional[Verdict]:
        """The unknown verdict naming the first hypothesis that fails, if any."""
        for name, holds in hypotheses:
            if not holds:
                return unknown({"failed_hypothesis": name}, self.h.degree)
        return None

    @cached_property
    def _nonflat_between_infinite_types(self) -> Optional[Verdict]:
        """Gate of the reality check and the order bound; the transversal
        order is read only once the first three hypotheses hold."""
        return self._gate(
            (
                ("source_infinite_type", self.source_type.is_infinite),
                ("target_infinite_type", self.target_type.is_infinite),
                ("sends_into", self.sends_into.is_true),
            )
        ) or self._gate((("not_transversally_flat", not self.transversal_order.is_flat),))

    @cached_property
    def normal_unit_reality(self) -> Verdict:
        """For maps between infinite-type models, the lowest w-coefficient of G
        must be a nonzero real constant: G = c w^k + higher order in w."""
        gated = self._nonflat_between_infinite_types
        if gated is not None:
            return gated
        h = self.h
        k = self.transversal_order.value
        coeff = h.g.coefficient_series([h.w_index], (k,))
        c0 = coeff.constant_term
        tail = coeff - Series.constant(c0, coeff.arity, coeff.degree)
        if not tail.is_zero:
            return certified_false(
                coefficient_witness(tail, note="w^k coefficient depends on z", order=k),
                coeff.degree,
            )
        if not c0:
            return certified_false({"note": "w^k coefficient vanishes at 0", "order": k},
                                   coeff.degree)
        if not c0.is_real:
            return certified_false(
                {"note": "w^k coefficient is not real", "order": k, "value": str(c0)},
                coeff.degree,
            )
        return certified_true({"order": k, "value": str(c0)}, coeff.degree)

    @cached_property
    def order_bound(self) -> Verdict:
        """Inequality (m' - 1) k <= m - 1 between infinite types and the order of G."""
        gated = self._nonflat_between_infinite_types
        if gated is not None:
            return gated
        m, mp = self.source_type.m, self.target_type.m
        k = self.transversal_order.value
        lhs = (mp - 1) * k
        rhs = m - 1
        witness = {
            "m_source": m,
            "m_target": mp,
            "transversal_order": k,
            "bound_lhs": lhs,
            "bound_rhs": rhs,
        }
        d = min(self.h.degree, self.source.degree, self.target.degree)
        if lhs <= rhs:
            return certified_true(witness, d)
        return certified_false(witness, d)

    @cached_property
    def unit_scale_law(self) -> Verdict:
        """Transformation law of the unit part under a CR-transversal self-map:
        Qt(z, chi, 0) = (dG/dw(0))^(m-1) * Qt(F(z,0), conj F(chi,0), 0)."""
        if not self.self_map.is_true:
            return unknown({"note": "not a self-map"})
        if not self.equidimensional.is_true:
            raise ArityMismatch("the transformation law concerns self-maps")
        # a self-map has Q' == Q in degree and terms, so sends_into(h, m, m)
        # certifies exactly when the cached sends_into(h, m, m') does
        infinite = self.source_type.is_infinite
        gated = self._gate(
            (
                ("infinite_type", infinite),
                ("sends_into", infinite and self.sends_into.is_true),
                ("cr_transversal", self.cr_transversal.is_true),
            )
        )
        if gated is not None:
            return gated

        h, m = self.h, self.source
        mm, qt = infinite_unit_part(m)
        n = m.n
        arity = 2 * n + 1
        lhs = qt.set_zero([m.tau_index])

        f0 = [c.set_zero([h.w_index]).embed(arity, list(range(n)) + [2 * n]) for c in h.f]
        f0_conj = [
            c.conjugate().set_zero([h.w_index]).embed(arity, list(range(n, 2 * n)) + [2 * n])
            for c in h.f
        ]
        zero_tau = Series.zero(arity, lhs.degree)
        gw0 = h.g.terms.get(unit(h.g.arity, h.w_index), ZERO)
        rhs = compose(lhs, f0 + f0_conj + [zero_tau]).scale(gw0 ** (mm - 1))

        diff = lhs - rhs
        if diff.is_zero:
            return certified_true(
                {"m": mm, "unit_scale": str(gw0 ** (mm - 1))}, diff.degree
            )
        return certified_false(coefficient_witness(diff, m=mm), diff.degree)

