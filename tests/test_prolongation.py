"""Jet prolongation: pivot choice, triangular solve, consistency checks."""

import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from crtrans import grammar, multiindex as mi
from crtrans.cli import _run_prolong
from crtrans.errors import InconsistentData, NoWitness, StructureError
from crtrans.fracseries import FracSeries
from crtrans.prolongation import (
    ProlongationInstance,
    forward_expand,
    minimal_ordered_nonzero,
    prolongation_solve,
)
from crtrans.series import Series


def expand_instance(a, n, b, max_order):
    return ProlongationInstance(a, n, forward_expand(a, n, b, max_order))


def jets_of(b, gamma):
    scale = 1
    for e in gamma:
        scale *= math.factorial(e)
    zeros = [0] * len(gamma)
    return b.coefficient_series(list(range(len(gamma))), gamma).scale(scale)


def test_pivot_is_ordered_minimum():
    a = Series.polynomial(2, 8, {(1, 1): 1, (2, 0): 1})
    assert minimal_ordered_nonzero(a, 1) == (1,)
    # degree wins before position
    a2 = Series.polynomial(4, 8, {(0, 1, 1, 0): 1, (2, 0, 0, 0): 1})
    assert minimal_ordered_nonzero(a2, 2) == (0, 1)


def test_pivot_needs_nonzero():
    with pytest.raises(NoWitness):
        minimal_ordered_nonzero(Series.zero(2, 8), 1)


def test_roundtrip_recovers_jets():
    a = Series.polynomial(2, 8, {(1, 1): 1, (2, 0): 1})
    b1 = Series.polynomial(2, 8, {(0, 0): 2, (1, 0): 1, (0, 1): 3, (1, 1): Fraction(1, 2)})
    b2 = Series.polynomial(2, 8, {(0, 1): 1, (2, 0): 1})
    inst = expand_instance(a, 1, [b1, b2], 4)
    sol = prolongation_solve(inst, (3,))
    assert sol.pivot == (1,)
    assert sol.max_jet_order_used == 4
    for gamma in [(0,), (1,), (2,), (3,)]:
        for i, b in enumerate([b1, b2]):
            assert sol.jets[gamma][i] == FracSeries.from_series(jets_of(b, gamma))


def test_roundtrip_two_block_variables():
    rng = random.Random(7)
    a = Series.polynomial(4, 8, {(0, 1, 1, 0): 1, (1, 1, 0, 1): 2})
    b = Series.polynomial(
        4, 8, {(0, 0, 0, 0): 1, (1, 0, 0, 1): rng.randint(1, 5), (0, 1, 1, 0): rng.randint(1, 5)}
    )
    inst = expand_instance(a, 2, [b], 3)
    sol = prolongation_solve(inst, (1, 1))
    assert sol.pivot == (0, 1)
    assert sol.max_jet_order_used == 3
    got = sol.jets[(1, 1)][0]
    assert got == FracSeries.from_series(jets_of(b, (1, 1)))


def test_solution_is_linear_in_data():
    a = Series.polynomial(2, 8, {(1, 0): 1, (1, 1): 1})
    b1 = Series.polynomial(2, 8, {(0, 1): 2})
    b2 = Series.polynomial(2, 8, {(1, 0): 1, (0, 2): 1})
    s1 = prolongation_solve(expand_instance(a, 1, [b1], 3), (2,))
    s2 = prolongation_solve(expand_instance(a, 1, [b2], 3), (2,))
    s12 = prolongation_solve(expand_instance(a, 1, [b1 + b2], 3), (2,))
    for gamma in [(0,), (1,), (2,)]:
        assert s12.jets[gamma][0] == s1.jets[gamma][0] + s2.jets[gamma][0]


def test_division_by_pivot_series():
    # pivot coefficient chi + chi^2 forces genuine denominators
    a = Series.polynomial(2, 8, {(1, 1): 1, (1, 2): 1})
    b = Series.polynomial(2, 8, {(0, 0): 1})
    sol = prolongation_solve(expand_instance(a, 1, [b], 2), (1,))
    one = FracSeries.from_series(Series.one(1, 8))
    assert sol.jets[(0,)][0] == one
    assert sol.jets[(1,)][0].is_zero


def test_inconsistent_jet_below_pivot_order():
    a = Series.polynomial(2, 8, {(1, 1): 1, (2, 0): 1})
    b = Series.polynomial(2, 8, {(0, 0): 2, (0, 1): 3})
    jets = forward_expand(a, 1, [b], 4)
    v = jets[(0,)]
    jets[(0,)] = (v[0] + Series.one(1, v[0].degree),)
    with pytest.raises(InconsistentData):
        prolongation_solve(ProlongationInstance(a, 1, jets), (1,))


def test_inconsistent_jet_off_the_pivot_ladder():
    a = Series.polynomial(4, 8, {(0, 1, 1, 0): 1})
    b = Series.polynomial(4, 8, {(0, 0, 0, 0): 1, (1, 0, 0, 1): 2})
    jets = forward_expand(a, 2, [b], 3)
    v = jets[(2, 0)]
    jets[(2, 0)] = (v[0] + Series.one(2, v[0].degree),)
    with pytest.raises(InconsistentData):
        prolongation_solve(ProlongationInstance(a, 2, jets), (1, 1))


def test_missing_jets_detected():
    a = Series.polynomial(2, 8, {(1, 1): 1})
    b = Series.polynomial(2, 8, {(0, 1): 1})
    inst = expand_instance(a, 1, [b], 2)
    # alpha = (2,) needs jets through order 3
    with pytest.raises(StructureError):
        prolongation_solve(inst, (2,))


def test_jet_order_instrumentation_bound():
    a = Series.polynomial(2, 8, {(2, 1): 1})  # pivot order k = 2
    b = Series.polynomial(2, 8, {(0, 1): 1, (1, 0): 4})
    sol = prolongation_solve(expand_instance(a, 1, [b], 5), (3,))
    assert sol.pivot == (2,)
    assert sol.max_jet_order_used <= 3 + 2
    assert sol.jets[(3,)][0] == FracSeries.from_series(jets_of(b, (3,)))


def test_instance_validation():
    a = Series.polynomial(2, 8, {(1, 1): 1})
    jets = forward_expand(a, 1, [Series.polynomial(2, 8, {(0, 1): 1})], 2)
    with pytest.raises(StructureError):
        ProlongationInstance(a, 3, jets)
    bad = dict(jets)
    bad[(1,)] = ()
    with pytest.raises(StructureError):
        ProlongationInstance(a, 1, bad)


def test_forward_expand_groups_each_product_once(grouping_passes):
    a = Series.polynomial(4, 8, {(0, 1, 1, 0): 1, (1, 1, 0, 1): 2})
    b = [Series.polynomial(4, 8, {(0, 0, 0, 0): 1, (1, 0, 0, 1): 2}),
         Series.polynomial(4, 8, {(0, 1, 1, 0): 3, (2, 0, 0, 1): 1})]
    jets = forward_expand(a, 2, b, 4)
    assert len(jets) == 15
    assert len(grouping_passes) == len(b)
    assert all(p.arity == 4 for p in grouping_passes)


# The prolong_text shape of perfbench/workloads.py, drawn from Random(0) and
# Random(1): a non-constant pivot exp(linear chi form), so the solved jets
# below are nonzero fractions whose denominators are not constants
PROLONG_DATA = [
    "A = (3+0*i)*z2*exp((3+0*i)*chi1 + (-3-1*i)*chi2)"
    " + (1+0*i)*z1*(1 + (0+3*i)*chi1 + (3-1*i)*chi2)"
    " + (0-1*i)*z1*z2*exp((1-2*i)*chi1 + (1-2*i)*chi2)\n"
    "b1 = (-1-2*i)*z1*z2*chi1 + (3-3*i)*z2^2*exp((1+3*i)*chi1 + (-1+1*i)*chi2)"
    " + (2+3*i)*z1^2*chi2\n",
    "A = (-2+1*i)*z2*exp((3+3*i)*chi1 + (3-3*i)*chi2)"
    " + (-1-3*i)*z1*(1 + (0+3*i)*chi1 + (1+0*i)*chi2)"
    " + (2+0*i)*z1*z2*exp((3-2*i)*chi1 + (-3+0*i)*chi2)\n"
    "b1 = (-3+3*i)*z1*z2*chi1 + (1+0*i)*z2^2*exp((1+3*i)*chi1 + (3-3*i)*chi2)"
    " + (2+0*i)*z1^2*chi2\n",
    # polynomial (exact) data, so FracSeries lifts its exact products: the
    # README example; the non-constant pivot chi1 + chi1^2; two components
    "A = z2*chi1 + z1^2\nb1 = z1^2*z2\n",
    "A = z1*(chi1 + chi1^2) + z2^2*chi2 + z1*z2\n"
    "b1 = z1*z2 + chi1*z2^2 + 2*z1^2*chi2 + 3*chi2\n",
    "A = z2*(chi1 + chi1^2) + (1+2*i)*z1^2*chi2\n"
    "b1 = z1^2*z2 + chi2*z1 - 1/2*chi1\nb2 = i*z2^2*chi1 + z1*z2*chi2^2 + 1\n",
]

# (data, alpha, degree) -> SHA-256 of the cli._run_prolong body, recorded
# before Series keys were packed into ints (the exp data) and before one-term
# factors left the general product (the polynomial data)
PROLONG = {
    (0, (1, 1), 6): "62042697afefdc91e438a6db8167cf82c50b322beaa355bfb51c4d584d347d99",
    (1, (1, 1), 6): "361bbbbc799816e14a849df1fc7172e11c7cacbc4ac70fc7d1861d62de89a25b",
    (0, (2, 0), 6): "e6d766009f53fa13830c873e99396bfc7f4f98f98ce07d6f1eaaaaab535296cf",
    (1, (2, 0), 6): "1c3796d04fbfa892f1cf63d63bea82367125ec92bbca5f10bb1d5e7037b41c14",
    (0, (0, 2), 9): "144385391f644beb80dced72d4a1cebd879d8ba24a2b5f0fdcfabf7aaec0899b",
    (1, (0, 2), 9): "470da16a2e267089fdd18887bac8e83f1ed229f136d945b2ace10ace9315f7dd",
    (2, (2, 1), 6): "d690fe3115fd9ea2249afd492ee41cba816abd572d83c1d5f24c1c6f6fea565c",
    (2, (1, 2), 9): "6e474472358f91dab8e4ab81c0edb5c171cd5aea9557fa0743052fb3b7c9b6c4",
    (3, (1, 1), 8): "b82cb6dc694ef436f4c406926b3e8e06a425edc08e26bedf9682bb910d955c82",
    (3, (2, 0), 6): "5196d36bfaa04dd6fc311e3474c2897102adf1e9babd91825f29294d9f6c2a49",
    (4, (2, 1), 9): "aa8839a1b1d5b4f805da4b05521133b2b6a6f8507f8f835d1847b78bc1b939f1",
}


@pytest.mark.parametrize("case", list(PROLONG), ids=lambda c: f"data{c[0]}-{c[1][0]}{c[1][1]}-D{c[2]}")
def test_prolong_report_is_byte_stable(case):
    data, alpha, degree = case
    names = ", ".join(line.split(" =")[0] for line in PROLONG_DATA[data].splitlines())
    text = f"degree {degree}\n{PROLONG_DATA[data]}prolong {names} at {alpha}\n"
    doc = grammar.parse(text)
    body = _run_prolong(doc.tasks[0], {d.name: d for d in doc.declarations}, degree)
    assert body["matches_direct_expansion"]
    if data < 2:  # exp data: every value has a non-constant denominator
        assert all(v.startswith("(") and ") / (" in v for v in body["values"])
    digest = hashlib.sha256(json.dumps(body, sort_keys=True).encode("utf-8")).hexdigest()
    assert digest == PROLONG[case]


def test_solve_computes_each_difference_once(monkeypatch):
    """Each (beta, gamma') difference is taken once, shared by the solve loop
    and the consistency loop."""
    calls = []
    subtract = mi.subtract

    def counting(a, b):
        calls.append((a, b))
        return subtract(a, b)

    monkeypatch.setattr(mi, "subtract", counting)
    a = Series.polynomial(4, 8, {(0, 1, 1, 0): 1, (1, 1, 0, 1): 2, (2, 0, 0, 1): 1})
    b = Series.polynomial(4, 8, {(0, 0, 0, 0): 1, (1, 0, 0, 1): 2, (0, 1, 1, 0): 3})
    inst = expand_instance(a, 2, [b], 4)
    calls.clear()
    sol = prolongation_solve(inst, (1, 2))
    assert sol.jets[(1, 2)][0] == FracSeries.from_series(jets_of(b, (1, 2)))
    assert calls and len(calls) == len(set(calls))
