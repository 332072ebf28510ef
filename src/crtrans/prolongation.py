"""Constructive jet prolongation for identities A(z, chi) * b = given data.

Setting: an unknown vector b(z, chi) of formal series satisfies, coefficient
by coefficient in z, the system

    sum_{gamma <= beta} A_{beta-gamma}(chi) * b_gamma(chi) = P_beta(chi)

where X_delta denotes the z-coefficient [z^delta] X. The data supplied are
derivative-normalized jets v_beta = beta! * P_beta. With alpha0 the graded-lex
minimal z-exponent where A does not vanish, the equations indexed by
beta = alpha0 + gamma are lower triangular in the unknowns b_gamma when both
are walked in ascending order, so every jet of b up to a requested order
|alpha| is a fraction with powers of p = A_{alpha0} in the denominator.

The solve is fraction-free, Bareiss's idea ("Sylvester's identity and
multistep integer-preserving Gaussian elimination", Math. Comp. 22, 1968)
that `linalg._bareiss` applies to scalars. Each solved jet is numerators
N_gamma over one power p^e_gamma, where e_gamma = 1 + the largest e_j among
the jets its equation subtracts, so e grows linearly in |gamma|:

    N_gamma = t_beta p^m - sum_j N_j A_delta p^(m - e_j),    m = e_gamma - 1,

with t_beta = v_beta / beta! and delta = beta - j. No series fraction is
formed, and the powers of p are built once per (exponent, degree).

Alpha's values keep the denominator that cross-multiplied `FracSeries`
arithmetic gives them, p^E with E = 1 + the sum of the predecessors' E, so E
is exponential in |gamma| (31 at order (4, 4) of the benchmark's A, 511 at
(8, 0)): each is N_alpha p^(E - e_alpha) / p^E, with p^E through every degree
the numerator knows. N_alpha / p^e_alpha is the same fraction and shorter,
but it prints other value strings, among them the benchmark's smoke document,
whose report digest is recorded. When p(0) = 0, p^E can vanish through that
degree where p^e_alpha does not; the solve then refuses with
`DivisionUncertifiable`. Every other jet is N_gamma / p^e_gamma.

`degree_used` is the degree through which the values are certified: the
smallest `cert` the `FracSeries` constructor gives them, which accounts for
the vanishing order of p^E. It is None when every value is an exact quotient,
and negative when no coefficient is certified.

The triangularity is not taken on faith: whenever a not-yet-solved unknown
would enter an equation, the solver asserts that its A-coefficient vanishes.
Then each supplied equation of reachable order that the solve did not use
(those it used hold by construction of N_gamma) is checked once, on the
common power p^m of its terms: sum_j N_j A_delta p^(m - e_j) = t_beta p^m,
through every degree both sides know. When p(0) != 0 this is the equation of
the fractions; when p(0) = 0 it is at least as strict, and consistent data
still pass.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional, Sequence, Tuple

from . import multiindex as mi
from .errors import InconsistentData, NoWitness, StructureError, TruncationMismatch
from .fracseries import FracSeries, _plus, _series_eq, _times
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
    degree_used: Optional[int]


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


def _mul(a: Series, b: Series) -> Series:
    """a * b through every degree its inexact factors know.

    Two exact factors give the whole product, as in `FracSeries`; an exact
    factor next to an inexact one is lifted to that one's degree first, so
    its own truncation degree never cuts the product.
    """
    if a.exact and b.exact:
        return _times(a, b)
    if a.exact:
        a = a.lift(b.degree)
    elif b.exact:
        b = b.lift(a.degree)
    return a * b


def _add(a: Series, b: Series, sign: int = 1) -> Series:
    """a + sign * b, lifting an exact operand next to an inexact one as `_mul` does."""
    if a.exact and not b.exact:
        a = a.lift(b.degree)
    elif b.exact and not a.exact:
        b = b.lift(a.degree)
    return _plus(a, b, sign)


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
    p = a_blocks[pivot]

    used_orders = [0]
    targets: Dict[Tuple[int, ...], Tuple[Series, ...]] = {}

    def normalized(beta: Tuple[int, ...]) -> Tuple[Series, ...]:
        """The supplied jet at beta over beta!, built on first use."""
        if beta not in targets:
            if beta not in instance.jets:
                raise StructureError(
                    f"jet data for beta = {beta} is required but was not supplied"
                )
            used_orders.append(mi.degree(beta))
            fact = mi.factorial(beta)
            targets[beta] = tuple(s / fact if fact != 1 else s for s in instance.jets[beta])
        return targets[beta]

    blocks = [(delta, block) for delta, block in a_blocks.items() if not block.is_zero]
    equations: Dict[Tuple[int, ...], list] = {}

    def equation(beta: Tuple[int, ...]) -> list:
        """(gamma', A_{beta - gamma'}) for every gamma' <= beta with that block
        nonzero, gamma' in lex order; built on first use."""
        if beta not in equations:
            if mi.degree(beta) > a.degree:  # A_beta itself is not known
                raise TruncationMismatch(
                    f"coefficient block of degree {mi.degree(beta)} beyond truncation {a.degree}"
                )
            equations[beta] = sorted(
                ((mi.subtract(beta, delta), block)
                 for delta, block in blocks
                 if all(d <= b for d, b in zip(delta, beta))),
                key=lambda row: row[0],
            )
        return equations[beta]

    # p^j by (j, degree); the degree is None when p is exact, as its powers
    # are then whole polynomials
    powers: Dict[Tuple[int, Optional[int]], Series] = {(1, None if p.exact else p.degree): p}

    def cached(j: int, d: Optional[int]) -> Optional[Series]:
        """p^j through degree d if it is cached, or cut from a cached one of higher degree."""
        if (j, d) not in powers and d is not None:
            for (i, e), s in list(powers.items()):
                if i == j and e > d:
                    powers[j, d] = s.truncate(d)
                    break
        return powers.get((j, d))

    def power(j: int, d: int) -> Series:
        """p^j through degree d, or the whole polynomial when p is exact: built
        once, by one product from p^(j-1) when that is at hand, else by squaring."""
        e = None if p.exact else min(d, p.degree)
        s = cached(j, e)
        if s is None:
            prev = cached(j - 1, e)
            if prev is not None:
                s = _times(prev, cached(1, e))
            else:
                s = (p.lift(j * p.poly_degree) if p.exact else p.truncate(e)) ** j
            powers[j, e] = s
        return s

    def scaled(s: Series, j: int) -> Series:
        """s p^j through every degree s knows."""
        if not j:
            return s
        return _mul(s, power(j, p.degree if s.exact else s.degree))

    # gamma -> e_gamma, the numerators N_gamma, and E_gamma, the exponent of
    # the cross-multiplied chain's denominator: 1 + the sum over the predecessors
    exps: Dict[Tuple[int, ...], int] = {}
    nums: Dict[Tuple[int, ...], Tuple[Series, ...]] = {}
    chain: Dict[Tuple[int, ...], int] = {}
    for ell in range(level + 1):
        for gamma in sorted(mi.iter_degree(n, ell)):
            beta = mi.add(pivot, gamma)
            ts = normalized(beta)
            preds = []
            for gp, block in equation(beta):
                if gp == gamma:
                    continue
                if gp not in exps:
                    # a not-yet-solved unknown with a surviving coefficient would
                    # break the triangular structure; minimality of alpha0 forbids it
                    raise StructureError(
                        f"coefficient A_{mi.subtract(beta, gp)} is nonzero but unknown {gp} is unsolved"
                    )
                preds.append((gp, block))
            m = max((exps[gp] for gp, _ in preds), default=0)
            # N_gamma = t p^m - sum N_j A_delta p^(m - e_j)
            acc = [scaled(t, m) for t in ts]
            for gp, block in preds:
                for i in range(width):
                    acc[i] = _add(acc[i], scaled(_mul(nums[gp][i], block), m - exps[gp]), -1)
            exps[gamma] = m + 1
            nums[gamma] = tuple(acc)
            chain[gamma] = 1 + sum(chain[gp] for gp, _ in preds)

    # consistency: every supplied equation of reachable order must hold; the
    # ones the solve used hold by construction of N_gamma
    reach = level + k
    solved_rows = {mi.add(pivot, gamma) for gamma in exps}
    for beta in sorted(instance.jets, key=mi.grlex_key):
        if mi.degree(beta) > reach or beta in solved_rows:
            continue
        ts = normalized(beta)
        row = equation(beta)
        for gp, _ in row:
            if gp not in exps:
                raise StructureError(
                    f"equation at {beta} involves unsolved jet {gp} with nonzero coefficient"
                )
        m = max((exps[gp] for gp, _ in row), default=0)
        for i, t in enumerate(ts):
            lhs = Series.zero(t.arity, a.degree)
            for gp, block in row:
                lhs = _add(lhs, scaled(_mul(nums[gp][i], block), m - exps[gp]))
            if not _series_eq(lhs, scaled(t, m)):
                raise InconsistentData(
                    f"supplied jet data at beta = {beta}, component {i}, "
                    "contradicts the solved prolongation"
                )

    max_used = max(used_orders)
    if max_used > reach:
        raise StructureError(
            f"solver touched jets of order {max_used} beyond the bound {reach}"
        )  # pragma: no cover

    def over(s: Series, j: int) -> FracSeries:
        """s / p^j, with p^j through every degree s knows."""
        return FracSeries(s, power(j, p.degree if s.exact else s.degree))

    # alpha's values in the chain's form N p^(E - e) / p^E; the other jets as N / p^e
    jets_out = {
        gamma: tuple(
            (over(scaled(s, chain[gamma] - exps[gamma]), chain[gamma]) if gamma == alpha
             else over(s, exps[gamma])).scale(mi.factorial(gamma))
            for s in vec
        )
        for gamma, vec in nums.items()
    }
    cert = min(v.cert for v in jets_out[alpha])
    return ProlongationSolution(
        alpha=alpha,
        pivot=pivot,
        values=jets_out[alpha],
        jets=jets_out,
        max_jet_order_used=max_used,
        degree_used=None if cert == math.inf else cert,
    )
