"""Constructive jet prolongation for identities A(z, chi) * b = given data.

Setting: an unknown vector b(z, chi) of formal series satisfies, coefficient
by coefficient in z, the system

    sum_{gamma <= beta} A_{beta-gamma}(chi) * b_gamma(chi) = P_beta(chi)

where X_delta denotes the z-coefficient [z^delta] X. The data supplied are
derivative-normalized jets v_beta = beta! * P_beta. With alpha0 the graded-lex
minimal z-exponent where A does not vanish, the equations indexed by
beta = alpha0 + gamma are lower triangular in the unknowns b_gamma when both
are walked in ascending order, so every jet of b up to a requested order
|alpha| is a fraction with powers of A_{alpha0} in the denominator.

The triangularity is not taken on faith: whenever a not-yet-solved unknown
would enter an equation, the solver asserts that its A-coefficient vanishes,
and after solving it re-checks every supplied equation of reachable order.
Both passes read one table per solve: for each beta, the (gamma', A_delta)
with delta = beta - gamma' and A_delta nonzero, the A-blocks and the pivot
wrapped as fractions once, and each normalized jet v_beta / beta!.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Dict, Mapping, Sequence, Tuple

from . import multiindex as mi
from .errors import InconsistentData, NoWitness, StructureError
from .fracseries import FracSeries
from .record import Record
from .series import Series


class ProlongationInstance(Record):
    """A(z, chi) together with jet data for the products A * b_i.

    a: series of arity n + p; the first n variables form the z block.
    jets: beta (length n) -> tuple of chi-series (arity p), derivative
    normalized: v_beta = d^beta_z (A b)|_{z=0}.
    """

    a: Series
    n: int
    jets: Mapping[Tuple[int, ...], Tuple[Series, ...]]

    def __post_init__(self) -> None:
        if not 0 < self.n <= self.a.arity:
            raise StructureError("z block size out of range")
        widths = {len(v) for v in self.jets.values()}
        if len(widths) > 1:
            raise StructureError("jet vectors have inconsistent lengths")
        p = self.a.arity - self.n
        for beta, vec in self.jets.items():
            if len(beta) != self.n:
                raise StructureError(f"jet index {beta} does not match the z block")
            for s in vec:
                if s.arity != p:
                    raise StructureError("jet entries must be series in chi only")

    @property
    def width(self) -> int:
        for v in self.jets.values():
            return len(v)
        return 0


class ProlongationSolution(Record):
    alpha: Tuple[int, ...]
    pivot: Tuple[int, ...]
    values: Tuple[FracSeries, ...]
    jets: Mapping[Tuple[int, ...], Tuple[FracSeries, ...]]
    max_jet_order_used: int
    degree_used: int


def minimal_ordered_nonzero(a: Series, n: int) -> Tuple[int, ...]:
    """Graded-lex minimal z-exponent alpha0 with A_{z^alpha0} not identically 0."""
    if a.is_zero:
        raise NoWitness("A vanishes up to its truncation degree")
    return min({k[:n] for k in a.terms}, key=mi.grlex_key)


def forward_expand(
    a: Series, n: int, b: Sequence[Series], max_order: int
) -> Dict[Tuple[int, ...], Tuple[Series, ...]]:
    """Jets v_beta = beta! [z^beta](A b) for every |beta| <= max_order."""
    if any(c.arity != a.arity for c in b):
        raise StructureError("b components must share A's ring")
    if not 0 < n <= a.arity:
        raise StructureError("z block size out of range")
    z_block = tuple(range(n))
    products = [a * c for c in b]
    if any(max_order > p.degree for p in products):
        raise StructureError("requested jet order exceeds the truncation degree")
    blocks = [p.coefficient_blocks(z_block) for p in products]
    out: Dict[Tuple[int, ...], Tuple[Series, ...]] = {}
    for order in range(max_order + 1):
        for beta in sorted(mi.iter_degree(n, order)):
            fact = mi.factorial(beta)
            out[beta] = tuple(block[beta].scale(fact) for block in blocks)
    return out


def prolongation_solve(
    instance: ProlongationInstance, alpha: Sequence[int]
) -> ProlongationSolution:
    """Solve for the alpha-jet of b, checking consistency of all reachable data."""
    alpha = tuple(alpha)
    a = instance.a
    n = instance.n
    if len(alpha) != n:
        raise StructureError(f"alpha must have length {n}")
    width = instance.width
    if width == 0:
        raise StructureError("no jet data supplied")
    z_block = tuple(range(n))

    pivot = minimal_ordered_nonzero(a, n)
    k = mi.degree(pivot)
    level = mi.degree(alpha)

    a_blocks = a.coefficient_blocks(z_block)
    pivot_coeff = FracSeries.from_series(a_blocks[pivot])

    used_orders = [0]
    targets: Dict[Tuple[int, ...], Tuple[FracSeries, ...]] = {}

    def normalized(beta: Tuple[int, ...]) -> Tuple[FracSeries, ...]:
        """The supplied jet at beta over beta!, built on first use."""
        if beta not in targets:
            if beta not in instance.jets:
                raise StructureError(
                    f"jet data for beta = {beta} is required but was not supplied"
                )
            used_orders.append(mi.degree(beta))
            inv = Fraction(1, mi.factorial(beta))
            targets[beta] = tuple(
                FracSeries.from_series(s.scale(inv)) for s in instance.jets[beta]
            )
        return targets[beta]

    coeffs: Dict[Tuple[int, ...], FracSeries] = {}
    equations: Dict[Tuple[int, ...], list] = {}

    def equation(beta: Tuple[int, ...]) -> list:
        """(gamma', delta, A_delta) for every gamma' <= beta with A_{beta - gamma'}
        nonzero, gamma' in lex order; built on first use."""
        if beta not in equations:
            row = []
            for gp in product(*(range(e + 1) for e in beta)):
                delta = mi.subtract(beta, gp)
                if not a_blocks[delta].is_zero:
                    if delta not in coeffs:
                        coeffs[delta] = FracSeries.from_series(a_blocks[delta])
                    row.append((gp, delta, coeffs[delta]))
            equations[beta] = row
        return equations[beta]

    solved: Dict[Tuple[int, ...], Tuple[FracSeries, ...]] = {}
    for ell in range(level + 1):
        for gamma in sorted(mi.iter_degree(n, ell)):
            beta = mi.add(pivot, gamma)
            rhs = list(normalized(beta))
            for gp, delta, coeff in equation(beta):
                if gp == gamma:
                    continue
                if gp not in solved:
                    # a not-yet-solved unknown with a surviving coefficient would
                    # break the triangular structure; minimality of alpha0 forbids it
                    raise StructureError(
                        f"coefficient A_{delta} is nonzero but unknown {gp} is unsolved"
                    )
                c = solved[gp]
                rhs = [r - c[i] * coeff for i, r in enumerate(rhs)]
            solved[gamma] = tuple(r / pivot_coeff for r in rhs)

    # consistency: every supplied equation of reachable order must hold
    reach = level + k
    for beta in sorted(instance.jets, key=mi.grlex_key):
        if mi.degree(beta) > reach:
            continue
        target = normalized(beta)
        acc = [FracSeries.zero(a.arity - n, a.degree) for _ in range(width)]
        for gp, _, coeff in equation(beta):
            if gp not in solved:
                raise StructureError(
                    f"equation at {beta} involves unsolved jet {gp} with nonzero coefficient"
                )
            c = solved[gp]
            acc = [acc[i] + c[i] * coeff for i in range(width)]
        for i in range(width):
            if acc[i] != target[i]:
                raise InconsistentData(
                    f"supplied jet data at beta = {beta}, component {i}, "
                    "contradicts the solved prolongation"
                )

    max_used = max(used_orders)
    if max_used > reach:
        raise StructureError(
            f"solver touched jets of order {max_used} beyond the bound {reach}"
        )  # pragma: no cover

    jets_out = {
        gamma: tuple(c.scale(mi.factorial(gamma)) for c in vec)
        for gamma, vec in solved.items()
    }
    return ProlongationSolution(
        alpha=alpha,
        pivot=pivot,
        values=jets_out[alpha],
        jets=jets_out,
        max_jet_order_used=max_used,
        degree_used=min(v.num.degree for v in jets_out[alpha]),
    )
