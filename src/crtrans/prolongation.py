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

    N_gamma = t_beta p^m - S_beta,    S_beta = sum_j N_j A_delta p^(m - e_j),

with m = e_gamma - 1, t_beta = v_beta / beta! and delta = beta - j. No series
fraction is formed, and each power of p is built once per (exponent, degree).

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
Each equation is built once: the solve uses the rows beta = alpha0 + gamma,
which then hold by construction, and checks every other supplied row of order
at most |alpha| + |alpha0| as S_beta = t_beta p^m, through every degree both
sides know. When p(0) != 0 this is the equation of the fractions; when
p(0) = 0 it is at least as strict, and consistent data still pass. The solve
reads order |alpha| + |alpha0| at |gamma| = |alpha|: `max_jet_order_used`.
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


def _lifted(a: Series, b: Series) -> Tuple[Series, Series]:
    """a and b, an exact one next to an inexact one lifted to that one's degree,
    so its own truncation degree never cuts a product or sum; two exact
    operands stay as they are, for `_times` and `_plus` take them whole."""
    if a.exact and not b.exact:
        return a.lift(b.degree), b
    if b.exact and not a.exact:
        return a, b.lift(a.degree)
    return a, b


def _targets(instance: ProlongationInstance, beta: Tuple[int, ...]) -> Tuple[Series, ...]:
    """The supplied jet at beta over beta!."""
    if beta not in instance.jets:
        raise StructureError(f"jet data for beta = {beta} is required but was not supplied")
    fact = mi.factorial(beta)
    return tuple(s / fact if fact != 1 else s for s in instance.jets[beta])


def _equation(blocks: list, beta: Tuple[int, ...], degree: int) -> list:
    """(gamma', A_{beta - gamma'}) for every nonzero (delta, A_delta) of `blocks`
    with delta <= beta, gamma' in lex order; A is known through `degree`."""
    if mi.degree(beta) > degree:  # A_beta itself is not known
        raise TruncationMismatch(
            f"coefficient block of degree {mi.degree(beta)} beyond truncation {degree}"
        )
    row = [(mi.subtract(beta, delta), block)
           for delta, block in blocks if all(d <= b for d, b in zip(delta, beta))]
    return sorted(row, key=lambda term: term[0])


def prolongation_solve(
    instance: ProlongationInstance, alpha: Sequence[int]
) -> ProlongationSolution:
    """Solve for the alpha-jet of b, checking consistency of all reachable data."""
    alpha = tuple(alpha)
    a, n = instance.a, instance.n
    if len(alpha) != n:
        raise StructureError(f"alpha must have length {n}")
    if not instance.width:
        raise StructureError("no jet data supplied")

    pivot = minimal_ordered_nonzero(a, n)
    reach = mi.degree(alpha) + mi.degree(pivot)
    a_blocks = a.coefficient_blocks(tuple(range(n)))
    p = a_blocks[pivot]
    blocks = [(delta, block) for delta, block in a_blocks.items() if not block.is_zero]

    # p^j by (j, degree); the degree is None when p is exact, as its powers
    # are then whole polynomials
    powers: Dict[Tuple[int, Optional[int]], Series] = {(1, None if p.exact else p.degree): p}

    def power(j: int, d: int) -> Series:
        """p^j through degree d, or the whole polynomial when p is exact: built
        once, cut from a higher degree, else by one product with p^(j-1) when
        that is at hand, else by squaring."""
        e = None if p.exact else min(d, p.degree)
        if (j, e) not in powers:
            # exponent -> the first power cached through degree e or beyond
            # (every degree is None when p is exact)
            near = {i: s for (i, f), s in reversed(powers.items()) if f == e or f > e}
            if j in near:
                powers[j, e] = near[j].truncate(e)
            elif j - 1 in near:
                powers[j, e] = _times(power(j - 1, e), power(1, e))
            else:
                powers[j, e] = (p.lift(j * p.poly_degree) if p.exact else p.truncate(e)) ** j
        return powers[j, e]

    def scaled(s: Series, j: int) -> Series:
        """s p^j through every degree s knows."""
        return _times(*_lifted(s, power(j, p.degree if s.exact else s.degree))) if j else s

    # gamma -> e_gamma, the numerators N_gamma, and E_gamma, the exponent of
    # the cross-multiplied chain's denominator: 1 + the sum over the predecessors
    exps: Dict[Tuple[int, ...], int] = {}
    nums: Dict[Tuple[int, ...], Tuple[Series, ...]] = {}
    chain: Dict[Tuple[int, ...], int] = {}

    def summed(acc: Series, row: list, i: int, m: int, sign: int = 1) -> Series:
        """acc + sign * S, S = sum_j N_j A_delta p^(m - e_j) over the (j, A_delta)
        of row in component i, added to acc term by term."""
        for gp, block in row:
            acc = _plus(*_lifted(acc, scaled(_times(*_lifted(nums[gp][i], block)), m - exps[gp])), sign)
        return acc

    for ell in range(mi.degree(alpha) + 1):
        for gamma in sorted(mi.iter_degree(n, ell)):
            beta = mi.add(pivot, gamma)
            ts = _targets(instance, beta)
            preds = []
            for gp, block in _equation(blocks, beta, a.degree):
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
            nums[gamma] = tuple(summed(scaled(t, m), preds, i, m, -1) for i, t in enumerate(ts))
            exps[gamma] = m + 1
            chain[gamma] = 1 + sum(chain[gp] for gp, _ in preds)

    # consistency: every supplied equation of reachable order must hold; the
    # ones the solve used hold by construction of N_gamma
    solved_rows = {mi.add(pivot, gamma) for gamma in exps}
    for beta in sorted(instance.jets, key=mi.grlex_key):
        if mi.degree(beta) > reach or beta in solved_rows:
            continue
        ts = _targets(instance, beta)
        row = _equation(blocks, beta, a.degree)
        for gp, _ in row:
            if gp not in exps:
                raise StructureError(
                    f"equation at {beta} involves unsolved jet {gp} with nonzero coefficient"
                )
        m = max((exps[gp] for gp, _ in row), default=0)
        for i, t in enumerate(ts):
            lhs = summed(Series.zero(t.arity, a.degree), row, i, m)
            if not _series_eq(lhs, scaled(t, m)):
                raise InconsistentData(
                    f"supplied jet data at beta = {beta}, component {i}, "
                    "contradicts the solved prolongation"
                )

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
        max_jet_order_used=reach,
        degree_used=None if cert == math.inf else cert,
    )


def matches_direct_expansion(solution: ProlongationSolution, b: Sequence[Series]) -> bool:
    """Whether the solved values are the alpha-jets alpha! [z^alpha] b_i read
    off b itself. A value certified through no degree matches nothing, as it
    would compare equal to anything."""
    alpha = solution.alpha
    z_block = tuple(range(len(alpha)))
    fact = mi.factorial(alpha)
    return all(
        value.cert >= 0
        and value == FracSeries.from_series(comp.coefficient_series(z_block, alpha).scale(fact))
        for value, comp in zip(solution.values, b)
    )
