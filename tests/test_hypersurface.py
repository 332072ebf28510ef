"""Normal-form hypersurfaces: validation, graphs, type, nondegeneracy."""

import pytest

from crtrans import hypersurface, substitution
from crtrans.errors import ArityMismatch, StructureError
from crtrans.hypersurface import (
    Convention,
    NormalHypersurface,
    TypeKind,
    classify_type,
    exceptional_hypersurface,
    from_graph,
    infinite_unit_part,
    is_class_c,
    is_class_cm,
    is_holomorphically_nondegenerate,
    to_graph,
    validate,
)
from crtrans.models import blowup_hypersurface, exp_model, heisenberg
from crtrans.scalar import qr
from crtrans.series import Series, exp_series
from crtrans.verdict import Status

D = 8


def poly(arity, terms, degree=D):
    return Series.polynomial(arity, degree, terms)


def replace_q(m, q):
    return NormalHypersurface(m.n, q, m.convention)


def test_heisenberg_normal_form():
    m = heisenberg(1, D)
    assert m.q.terms == {(0, 0, 1): qr(1), (1, 1, 0): qr(0, 2)}
    mi = heisenberg(1, D, Convention.I)
    assert mi.q.terms == {(0, 0, 1): qr(1), (1, 1, 0): qr(0, 1)}


def test_layout_and_names():
    m = heisenberg(2, D)
    assert m.z_block == (0, 1)
    assert m.chi_block == (2, 3)
    assert m.tau_index == 4
    assert m.q.arity == 5


def test_arity_must_be_odd():
    with pytest.raises(ArityMismatch):
        NormalHypersurface(1, Series.zero(4, D), Convention.TWO_I)


def test_conjugate_swapped_swaps_blocks_and_conjugates():
    q = poly(3, {(0, 0, 1): 1, (2, 1, 0): qr(0, 2)})
    m = replace_q(heisenberg(1, D), q)
    assert m.conjugate_swapped().terms == {(0, 0, 1): qr(1), (1, 2, 0): qr(0, -2)}


def test_validate_accepts_models():
    for m in [heisenberg(1, D), heisenberg(2, D), blowup_hypersurface(2, 3, D), exp_model(2, D)]:
        v = validate(m)
        assert v.status is Status.CERTIFIED_TRUE
        assert v.witness["checks"] == ["normality_chi_zero", "normality_z_zero", "reality"]


def test_validate_rejects_normality_violation():
    m = replace_q(heisenberg(1, D), poly(3, {(0, 0, 1): 1, (2, 0, 0): 1}))
    v = validate(m)
    assert v.status is Status.CERTIFIED_FALSE
    assert v.witness["check"] == "normality_chi_zero"
    assert v.witness["index"] == [2, 0, 0]


def test_validate_rejects_nonreal_defining_series():
    # tau + z*chi composed with its own swap gives tau + 2 z*chi, not tau
    m = replace_q(heisenberg(1, D), poly(3, {(0, 0, 1): 1, (1, 1, 0): 1}))
    v = validate(m)
    assert v.status is Status.CERTIFIED_FALSE
    assert v.witness["check"] == "reality"
    assert v.witness["value"] == "2"


def test_from_graph_roundtrip():
    phi = poly(3, {(1, 1, 0): 1, (2, 2, 0): 1, (1, 1, 2): qr(1, 0) / 2})
    m = from_graph(phi, Convention.TWO_I)
    assert validate(m).status is Status.CERTIFIED_TRUE
    assert to_graph(m) == phi


def test_from_graph_of_a_dense_graph_makes_few_products(monkeypatch):
    """Every composition in from_graph substitutes plain variables for all but
    one variable, which compose evaluates by truncated Horner at one product
    a step, so a dense n = 1 graph at degree 10 takes 17 series products (26
    with a cache of full-degree powers, 849 with one product per term)."""
    terms = {
        (a, b, k): qr(a + b + k + 1, a - b)
        for a in range(1, 6)
        for b in range(1, 6)
        for k in range(3)
        if a + b + k <= 6
    }
    calls = []
    mul = Series.__mul__

    def counted(a, b):
        calls.append(b)
        return mul(a, b)

    monkeypatch.setattr(Series, "__mul__", counted)
    m = from_graph(poly(3, terms, 10), Convention.TWO_I)
    assert m.validity.status is Status.CERTIFIED_TRUE
    assert len(calls) <= 17



def test_solve_implicit_composes_each_step_only_through_the_degree_it_certifies(monkeypatch):
    """from_graph of the degree-40 exp graph z*chi*exp(z*chi + s^2) + z^2*chi^2
    solves for Q with d(rhs)/du of order o = 3, from its term z*chi*s^2 with
    s = (tau + u)/2: the graded steps compose at 3, 6, ..., 39, and exactly
    one composition runs at degree 40, the one that reaches it; none confirms
    the fixed point, which the order argument certifies."""
    d = 40
    z, chi, s = (Series.variable(i, 3, d) for i in range(3))
    phi = z * chi * exp_series(z * chi + s * s) + z**2 * chi**2
    orders, degrees, solving = [], [], []
    horner, solve = substitution._horner, hypersurface.solve_implicit

    def traced_horner(groups, powers, arity, degree, den):
        if solving and powers:  # one composition; its nested evaluations have no powers left
            degrees.append(degree)
        return horner(groups, powers, arity, degree, den)

    def traced_solve(rhs):
        orders.append(rhs.derivative(rhs.arity - 1).order())
        solving.append(rhs)
        try:
            return solve(rhs)
        finally:
            solving.pop()

    monkeypatch.setattr(substitution, "_horner", traced_horner)
    monkeypatch.setattr(hypersurface, "solve_implicit", traced_solve)
    m = from_graph(phi, Convention.TWO_I)
    assert m.validity.status is Status.CERTIFIED_TRUE
    (o,) = orders
    stages = list(range(o, d, o))
    assert o == 3 and degrees == stages + [d]

def test_to_graph_of_heisenberg():
    assert to_graph(heisenberg(1, D)) == poly(3, {(1, 1, 0): 1})


def test_graph_roundtrip_on_model():
    m = blowup_hypersurface(2, 3, D)
    again = from_graph(to_graph(m), m.convention)
    assert again.q == m.q


def test_from_graph_requires_pointed():
    with pytest.raises(StructureError):
        from_graph(poly(3, {(0, 0, 0): 1, (1, 1, 0): 1}), Convention.TWO_I)


def test_from_graph_requires_block_vanishing():
    # phi(z, 0, s) must vanish; a bare z term survives
    with pytest.raises(StructureError):
        from_graph(poly(3, {(1, 0, 0): 1}), Convention.TWO_I)


def test_from_graph_requires_real_phi():
    with pytest.raises(StructureError):
        from_graph(poly(3, {(1, 1, 0): qr(0, 1)}), Convention.TWO_I)


def test_classify_finite_type():
    cl = classify_type(heisenberg(1, D))
    assert cl.kind is TypeKind.FINITE
    assert not cl.is_infinite
    assert cl.m is None
    assert cl.witness == {"index": [1, 1, 0], "value": "2i"}


def test_classify_infinite_type():
    cl = classify_type(blowup_hypersurface(4, 4, D))
    assert cl.kind is TypeKind.INFINITE
    assert cl.m == 5
    assert cl.witness == {"index": [1, 1, 5], "value": "2i"}
    assert classify_type(exp_model(1, D)).m == 1
    assert classify_type(exp_model(3, D)).m == 1


def test_classify_mixed_orders_takes_minimum():
    q = poly(3, {(0, 0, 1): 1, (1, 1, 2): qr(0, 2), (2, 2, 1): 1})
    cl = classify_type(replace_q(heisenberg(1, D), q))
    assert cl.kind is TypeKind.INFINITE
    assert cl.m == 1


def test_classify_flat_is_unknown():
    cl = classify_type(replace_q(heisenberg(1, D), poly(3, {(0, 0, 1): 1})))
    assert cl.kind is TypeKind.UNKNOWN
    assert cl.m is None


def test_classify_rejects_pure_tau_terms():
    with pytest.raises(StructureError):
        classify_type(replace_q(heisenberg(1, D), poly(3, {(0, 0, 1): 1, (0, 0, 2): 1})))


def test_classification_to_json():
    j = classify_type(blowup_hypersurface(4, 4, D)).to_json()
    assert j["kind"] == "infinite_type"
    assert j["m"] == 5


def test_infinite_unit_part_blowup():
    m, unit = infinite_unit_part(blowup_hypersurface(4, 4, D))
    assert m == 5
    assert unit.coefficient((1, 1, 0)) == qr(0, 2)


def test_infinite_unit_part_exp_model():
    m, unit = infinite_unit_part(exp_model(1, D))
    assert m == 1
    assert unit.coefficient((0, 0, 0)) == 0
    assert unit.coefficient((1, 1, 0)) == qr(0, 1)
    assert unit.coefficient((2, 2, 0)) == qr(-1, 0) / 2


def test_unit_part_needs_infinite_type():
    with pytest.raises(StructureError):
        infinite_unit_part(heisenberg(1, D))


def test_class_c_heisenberg():
    v = is_class_c(heisenberg(1, D))
    assert v.status is Status.CERTIFIED_TRUE
    assert v.witness["minor_value"] == "2i"


def test_class_c_vanishes_on_infinite_models():
    # Q restricted to tau = 0 vanishes up to truncation, and the stored
    # series are inexact, so no certificate either way
    assert is_class_c(blowup_hypersurface(4, 4, D)).status is Status.UNKNOWN_AT_TRUNCATION
    assert is_class_c(exp_model(1, D)).status is Status.UNKNOWN_AT_TRUNCATION


def test_class_cm_on_infinite_models():
    assert is_class_cm(blowup_hypersurface(4, 4, D)).status is Status.CERTIFIED_TRUE
    assert is_class_cm(exp_model(1, D)).status is Status.CERTIFIED_TRUE
    assert is_class_cm(exp_model(3, D)).status is Status.CERTIFIED_TRUE


def test_class_cm_needs_infinite_type():
    with pytest.raises(StructureError):
        is_class_cm(heisenberg(1, D))


def test_hnd_positive():
    assert is_holomorphically_nondegenerate(heisenberg(1, D)).status is Status.CERTIFIED_TRUE
    assert is_holomorphically_nondegenerate(heisenberg(2, D)).status is Status.CERTIFIED_TRUE
    assert is_holomorphically_nondegenerate(blowup_hypersurface(4, 4, D)).status is Status.CERTIFIED_TRUE


def test_hnd_degenerate_direction_certified():
    # no dependence on z2 at all: rows are exhausted for an exact q,
    # so the failure is a certificate, not a truncation artifact
    q = poly(5, {(0, 0, 0, 0, 1): 1, (1, 0, 1, 0, 0): qr(0, 2)})
    v = is_holomorphically_nondegenerate(NormalHypersurface(2, q, Convention.TWO_I))
    assert v.status is Status.CERTIFIED_FALSE
    assert v.witness["rank_reached"] == 2
    assert v.witness["target"] == 3


def test_hnd_unknown_when_inexact():
    q = Series(3, 2, {(0, 0, 1): 1}, exact=False)
    v = is_holomorphically_nondegenerate(NormalHypersurface(1, q, Convention.TWO_I))
    assert v.status is Status.UNKNOWN_AT_TRUNCATION


def test_exceptional_locus():
    # whether a map lands in w = 0 is crmap.is_transversally_flat (tests/test_crmap.py)
    assert exceptional_hypersurface(blowup_hypersurface(4, 4, D)).n == 1


def test_exceptional_locus_needs_infinite_type():
    with pytest.raises(StructureError):
        exceptional_hypersurface(heisenberg(1, D))
