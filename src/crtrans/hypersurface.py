"""Real hypersurfaces through 0 in normal coordinates.

A hypersurface in C^{n+1} is stored through the series Q in the defining
equation w = Q(z, chi, tau), where chi and tau are the formal conjugates of
z and w. Variable layout everywhere: (z_1..z_n, chi_1..chi_n, tau), so the
arity is 2n+1 and tau sits at index 2n.

Normality means Q(z, 0, tau) = Q(0, chi, tau) = tau; the reality condition
Q(z, chi, conj(Q)(chi, z, w)) = w makes the pair of equations describe one
real hypersurface. Graph form uses the real defining function phi with
Im w = phi(z, chi, Re w) (or 2 Im w = ..., see Convention).
"""

from __future__ import annotations

import enum
from functools import cached_property
from typing import Mapping, Optional, Tuple

from . import multiindex as mi
from .errors import ArityMismatch, ConstructionError, StructureError
from .rank import RankState, generic_rank
from .record import Record
from .scalar import GaussianRational
from .series import Series, compose, identity_components, solve_implicit
from .verdict import Status, Verdict, certified_false, certified_true, unknown, vanishes


class Convention(enum.Enum):
    """Which multiple of phi sits on the imaginary side of the graph equation.

    TWO_I: w = tau + 2i * phi(z, chi, (w + tau)/2)
    I:     w = tau + i * phi(z, chi, (w + tau)/2)
    """

    TWO_I = "2i"
    I = "i"

    @property
    def factor(self) -> GaussianRational:
        return GaussianRational(0, 2 if self is Convention.TWO_I else 1)


class TypeKind(str, enum.Enum):
    FINITE = "finite_type"
    INFINITE = "infinite_type"
    UNKNOWN = "unknown_at_truncation"


class TypeClassification(Record):
    kind: TypeKind
    m: Optional[int]
    witness: Mapping
    degree_used: int

    @property
    def is_infinite(self) -> bool:
        return self.kind is TypeKind.INFINITE


class NormalHypersurface(Record):
    """w = Q(z, chi, tau) with Q in normal form."""

    n: int
    q: Series
    convention: Convention = Convention.TWO_I

    def __post_init__(self) -> None:
        if self.n < 1:
            raise StructureError("need at least one tangential variable")
        if self.q.arity != 2 * self.n + 1:
            raise ArityMismatch(
                f"Q must have arity {2 * self.n + 1} for n = {self.n}, got {self.q.arity}"
            )
        if not self.q.is_pointed:
            raise StructureError("Q must vanish at the origin")

    @property
    def degree(self) -> int:
        return self.q.degree

    @property
    def z_block(self) -> Tuple[int, ...]:
        return tuple(range(self.n))

    @property
    def chi_block(self) -> Tuple[int, ...]:
        return tuple(range(self.n, 2 * self.n))

    @property
    def tau_index(self) -> int:
        return 2 * self.n

    def conjugate_swapped(self) -> Series:
        """conj(Q) read as a series of (chi, z, tau) in this ring's layout."""
        swap = list(range(self.n, 2 * self.n)) + list(range(self.n)) + [2 * self.n]
        return self.q.conjugate().permute(swap)

    @cached_property
    def validity(self) -> Verdict:
        """`validate(self)`, decided once per surface."""
        return validate(self)

    @cached_property
    def classification(self) -> TypeClassification:
        """`classify_type(self)`, decided once per surface."""
        return classify_type(self)


def validate(m: NormalHypersurface) -> Verdict:
    """Check normality and the reality condition up to the truncation degree."""
    q = m.q
    d = q.degree
    tau = Series.variable(m.tau_index, q.arity, d)

    checks = []
    for name, restricted in (
        ("normality_chi_zero", q.set_zero(m.chi_block)),
        ("normality_z_zero", q.set_zero(m.z_block)),
    ):
        residual = restricted - tau
        checks.append((name, residual))

    s = m.conjugate_swapped()
    ids = identity_components(q.arity, d)
    reality = compose(q, list(ids[: 2 * m.n]) + [s]) - tau
    checks.append(("reality", reality))

    exact = True
    for name, residual in checks:
        if not residual.is_zero:
            lead = residual.leading_index()
            return certified_false(
                {
                    "check": name,
                    "index": list(lead),
                    "value": str(residual.coefficient(lead)),
                },
                d,
            )
        exact = exact and residual.exact
    return certified_true({"checks": [n for n, _ in checks], "exact": exact}, d)


def from_graph(
    phi: Series, convention: Convention = Convention.TWO_I
) -> NormalHypersurface:
    """Build the normal-form Q from a real graph function phi(z, chi, s).

    phi must be pointed, vanish when either block of tangential variables is
    set to zero, and be fixed by conjugation composed with the z/chi swap.
    """
    if phi.arity < 3 or phi.arity % 2 == 0:
        raise ArityMismatch("phi needs arity 2n+1 with the real variable last")
    n = (phi.arity - 1) // 2
    d = phi.degree
    z_block = tuple(range(n))
    chi_block = tuple(range(n, 2 * n))

    if not phi.is_pointed:
        raise StructureError("phi must vanish at the origin")
    if not phi.set_zero(chi_block).is_zero:
        raise StructureError("phi(z, 0, s) must vanish for normal coordinates")
    if not phi.set_zero(z_block).is_zero:
        raise StructureError("phi(0, chi, s) must vanish for normal coordinates")
    swap = list(range(n, 2 * n)) + list(range(n)) + [2 * n]
    if not (phi.conjugate().permute(swap) - phi).is_zero:
        raise StructureError("phi is not a real function of (z, chi, s)")

    # unknowns: (z, chi, tau, u) with u standing for w
    wide = 2 * n + 2
    tau_var = Series.variable(2 * n, wide, d)
    u_var = Series.variable(2 * n + 1, wide, d)
    s_expr = (tau_var + u_var) / 2
    comps = [Series.variable(i, wide, d) for i in range(2 * n)] + [s_expr]
    rhs = tau_var + compose(phi, comps).scale(convention.factor)
    q = solve_implicit(rhs)

    m = NormalHypersurface(n, q, convention)
    verdict = m.validity
    if not verdict.is_true:
        raise ConstructionError(f"graph data produced an invalid normal form: {verdict.witness}")
    return m


def to_graph(m: NormalHypersurface) -> Series:
    """Recover the graph function phi(z, chi, s) from the normal form."""
    q = m.q
    n, d = m.n, q.degree
    r = q - Series.variable(m.tau_index, q.arity, d)

    # solve tau = s - R(z, chi, tau)/2 for tau; unknown goes last
    wide = 2 * n + 2
    s_var = Series.variable(2 * n, wide, d)
    r_wide = r.embed(wide, list(range(2 * n)) + [2 * n + 1])
    t = solve_implicit(s_var - r_wide / 2)

    ids = identity_components(q.arity, d)
    q_on_graph = compose(q, list(ids[: 2 * n]) + [t])
    return (q_on_graph - t) / m.convention.factor


# ---------------- type classification ----------------


def classify_type(m: NormalHypersurface) -> TypeClassification:
    q = m.q
    d = q.degree
    restricted = q.set_zero([m.tau_index])
    if not restricted.is_zero:
        lead = restricted.leading_index()
        return TypeClassification(
            TypeKind.FINITE,
            None,
            {"index": list(lead), "value": str(restricted.coefficient(lead))},
            d,
        )

    r = q - Series.variable(m.tau_index, q.arity, d)
    if r.is_zero:
        return TypeClassification(
            TypeKind.UNKNOWN,
            None,
            {"note": "Q - tau vanishes up to the truncation degree", "exact": r.exact},
            d,
        )

    tangential = [k for k in r.terms if any(k[i] for i in range(2 * m.n))]
    if not tangential:
        raise StructureError("Q has pure-tau terms beyond tau itself; not a normal form")
    mm = min(k[m.tau_index] for k in tangential)
    lead = min(
        (k for k in tangential if k[m.tau_index] == mm), key=mi.grlex_key
    )
    return TypeClassification(
        TypeKind.INFINITE,
        mm,
        {"index": list(lead), "value": str(r.terms[lead])},
        d,
    )


def infinite_unit_part(m: NormalHypersurface) -> Tuple[int, Series]:
    """For Q = tau + tau^mm * Qt with Qt(z, chi, 0) nonzero, return (mm, Qt)."""
    cls = m.classification
    if not cls.is_infinite:
        raise StructureError(f"hypersurface is not of infinite type: {cls.kind.value}")
    r = m.q - Series.variable(m.tau_index, m.q.arity, m.q.degree)
    return cls.m, r.shift_down(m.tau_index, cls.m)


# ---------------- nondegeneracy classes ----------------


def _gradient_family_rank(src: Series, n: int, grad_vars: Tuple[int, ...]) -> Verdict:
    """Generic rank of the grad_vars-gradients of the z-coefficient family of src.

    Rows are indexed by z-exponents alpha with |alpha| <= k; the k loop runs
    up to src.degree - 1, the highest degree whose coefficients still have a
    known gradient, and stops at the first certified rank >= target, the
    number of gradient variables. Step k only appends the rows of degree k,
    and earlier rows stay the same Series objects, so one RankState serves
    every step: each minor, named by its (row indices, column indices), is
    expanded once.
    """
    z_block = tuple(range(n))
    target = len(grad_vars)
    k_cap = src.degree - 1
    blocks = src.coefficient_blocks(z_block)
    rows = []
    state = RankState()
    last = None
    for k in range(k_cap + 1):
        for alpha in sorted(mi.iter_degree(n, k)):
            c = blocks[alpha]
            rows.append([c.derivative(j) for j in grad_vars])
        if not rows:
            continue
        g = generic_rank(rows, state=state)
        last = g
        if g.r >= target:
            wit = {"k": k}
            if g.at_least.witness:
                wit.update(g.at_least.witness)
            return certified_true(wit, src.degree)
    wit = {"k_max": k_cap, "target": target}
    if last is not None:
        wit["rank_reached"] = last.r
    # rows with |alpha| >= poly_degree have constant coefficient series and
    # zero gradients, so for an exact source the family is already complete
    exhausted = src.exact and k_cap >= src.poly_degree - 1
    if exhausted and last is None:
        return certified_false(wit, src.degree)
    if exhausted and last.at_most.status is Status.CERTIFIED_TRUE and last.r < target:
        return certified_false(wit, src.degree)
    return unknown(wit, src.degree)


def is_class_c(m: NormalHypersurface) -> Verdict:
    """Generic spanning of the chi-gradients of Q(., ., 0)'s z-coefficients."""
    return _gradient_family_rank(m.q.set_zero([m.tau_index]), m.n, tuple(range(m.n)))


def is_class_cm(m: NormalHypersurface) -> Verdict:
    """Class-C test applied to the unit part of an infinite-type normal form."""
    mm, qt = infinite_unit_part(m)
    return _gradient_family_rank(qt.set_zero([m.tau_index]), m.n, tuple(range(m.n)))


def is_holomorphically_nondegenerate(m: NormalHypersurface) -> Verdict:
    """Generic spanning of full (chi, tau)-gradients of Q's z-coefficients."""
    return _gradient_family_rank(m.q, m.n, tuple(range(m.n + 1)))


# ---------------- the exceptional hypersurface ----------------


class ExceptionalLocus(Record):
    """The complex hypersurface w = 0 inside an infinite-type model."""

    n: int

    @property
    def description(self) -> str:
        return "w = 0"

    def contains_image(self, normal_component: Series) -> Verdict:
        """Does a map with this normal component send everything into w = 0?"""
        g = normal_component
        return vanishes(g, {"note": "normal component vanishes", "exact": g.exact})


def exceptional_hypersurface(m: NormalHypersurface) -> ExceptionalLocus:
    cls = m.classification
    if not cls.is_infinite:
        raise StructureError("the exceptional hypersurface lives in infinite type models")
    return ExceptionalLocus(m.n)
