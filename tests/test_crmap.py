"""Formal map analyzers: transversality, degeneracy, normal-component checks."""

from fractions import Fraction

import pytest

from crtrans.crmap import (
    CRMap,
    InstanceAnalysis,
    compose_maps,
    identity_map,
    is_automorphism,
    is_cr_transversal,
    is_jacobian_nonzero,
    is_not_totally_degenerate,
    is_transversally_flat,
    jacobian,
    sends_into,
    transversal_order,
)
from crtrans.errors import ArityMismatch, StructureError
from crtrans.hypersurface import Convention
from crtrans.models import (
    blowup_hypersurface,
    blowup_map,
    exp_model,
    heisenberg,
    m_psi,
    m_psi_map,
    remark_instance,
    scaled_heisenberg,
    tk_map,
    unscaled_blowup_map,
)
from crtrans.scalar import qr
from crtrans.series import Series
from crtrans.verdict import Status

D = 10


def mono(terms, arity=2, degree=D):
    return Series.polynomial(arity, degree, terms)


def scaling_map(lam, mu, degree=D):
    return CRMap((mono({(1, 0): lam}, degree=degree),), mono({(0, 1): mu}, degree=degree))


# self-map of the b=2, c=1 blowup model: |lam|^2 * mu^3 = 1
M21_SELF = scaling_map(qr(Fraction(1, 4), Fraction(1, 4)), qr(2))
# rotation of the exponential model by a rational point on the circle
EXP_ROT = scaling_map(qr(Fraction(3, 5), Fraction(4, 5)), qr(2))


def test_identity_map():
    h = identity_map(1, D)
    heis = heisenberg(1, D)
    assert sends_into(h, heis, heis).status is Status.CERTIFIED_TRUE
    assert is_automorphism(h).status is Status.CERTIFIED_TRUE
    assert is_cr_transversal(h).status is Status.CERTIFIED_TRUE
    assert jacobian(h) == Series.one(2, D - 1)


def test_map_construction_gates():
    with pytest.raises(ArityMismatch):
        CRMap((mono({(1, 0, 0): 1}, arity=3),), mono({(0, 1): 1}))
    with pytest.raises(StructureError):
        CRMap((mono({(1, 0): 1}),), mono({(0, 0): 1, (0, 1): 1}))


def test_power_map_between_exponential_models():
    t3 = tk_map(3, D)
    assert sends_into(t3, exp_model(3, D), exp_model(1, D)).status is Status.CERTIFIED_TRUE
    assert sends_into(t3, exp_model(3, D), exp_model(3, D)).status is Status.CERTIFIED_FALSE


def test_stretch_map_preserves_exponential_model():
    from crtrans.models import hk_map

    k4 = hk_map(4, D)
    assert sends_into(k4, exp_model(4, D), exp_model(4, D)).status is Status.CERTIFIED_TRUE


def test_blowup_window_maps():
    h11 = blowup_map(1, 1, D)
    assert sends_into(h11, blowup_hypersurface(4, 4, D), blowup_hypersurface(3, 4, D)).status is Status.CERTIFIED_TRUE
    assert sends_into(h11, blowup_hypersurface(3, 1, D), blowup_hypersurface(2, 1, D)).status is Status.CERTIFIED_TRUE
    assert sends_into(h11, blowup_hypersurface(4, 4, D), blowup_hypersurface(4, 4, D)).status is Status.CERTIFIED_FALSE


def test_blowup_composition_law():
    assert compose_maps(blowup_map(3, 4, D), blowup_map(1, 1, D)) == blowup_map(4, 4, D)


def test_unscaled_blowup_lands_in_scaled_heisenberg():
    u = unscaled_blowup_map(2, 3, D)
    m = blowup_hypersurface(2, 3, D)
    assert sends_into(u, m, scaled_heisenberg(3, 1, D)).status is Status.CERTIFIED_TRUE
    assert sends_into(u, m, heisenberg(1, D)).status is Status.CERTIFIED_FALSE


def test_singular_instance_fails_both_conventions():
    for conv in (Convention.TWO_I, Convention.I):
        m, target, h = remark_instance(D, conv)
        v = sends_into(h, m, target)
        assert v.status is Status.CERTIFIED_FALSE
        assert v.witness == {"index": [0, 1, 1], "value": "-1"}


def test_scaling_self_maps_send_into():
    m21 = blowup_hypersurface(2, 1, D)
    assert sends_into(M21_SELF, m21, m21).status is Status.CERTIFIED_TRUE
    e1 = exp_model(1, D)
    assert sends_into(EXP_ROT, e1, e1).status is Status.CERTIFIED_TRUE
    assert sends_into(scaling_map(qr(1), qr(-1)), e1, e1).status is Status.CERTIFIED_TRUE
    assert sends_into(scaling_map(qr(1), qr(0, 1)), e1, e1).status is Status.CERTIFIED_FALSE


def test_convention_mismatch_rejected():
    h = identity_map(1, D)
    with pytest.raises(StructureError):
        sends_into(h, heisenberg(1, D), heisenberg(1, D, Convention.I))


def test_transversal_order_values():
    assert transversal_order(blowup_map(4, 4, D)).value == 4
    assert transversal_order(blowup_map(1, 1, D)).value == 1
    assert transversal_order(remark_instance(D)[2]).value == 1


def test_transversal_order_flat():
    flat = CRMap((mono({(1, 0): 1}),), Series.zero(2, D))
    t = transversal_order(flat)
    assert t.is_flat and t.value is None
    assert t.to_json()["value"] is None


def test_transversal_order_rejects_w_free_terms():
    with pytest.raises(StructureError):
        transversal_order(CRMap((mono({(1, 0): 1}),), mono({(1, 0): 1, (0, 1): 1})))


def test_cr_transversal():
    assert is_cr_transversal(blowup_map(1, 1, D)).status is Status.CERTIFIED_TRUE
    assert is_cr_transversal(blowup_map(4, 4, D)).status is Status.CERTIFIED_FALSE
    assert is_cr_transversal(M21_SELF).status is Status.CERTIFIED_TRUE


def test_transversally_flat():
    flat = CRMap((mono({(1, 0): 1}),), Series.zero(2, D))
    assert is_transversally_flat(flat).status is Status.CERTIFIED_TRUE
    assert is_transversally_flat(blowup_map(2, 1, D)).status is Status.CERTIFIED_FALSE


def test_automorphism():
    assert is_automorphism(EXP_ROT).status is Status.CERTIFIED_TRUE
    assert is_automorphism(tk_map(3, D)).status is Status.CERTIFIED_FALSE
    psi = (mono({(1, 0): 1}), mono({(1, 1): 1}))
    assert is_automorphism(m_psi_map(psi, D)).status is Status.CERTIFIED_FALSE


def test_not_totally_degenerate():
    psi = (mono({(1, 0): 1}), mono({(1, 1): 1}))
    assert is_not_totally_degenerate(m_psi_map(psi, D)).status is Status.CERTIFIED_TRUE
    assert is_not_totally_degenerate(identity_map(2, D)).status is Status.CERTIFIED_TRUE
    # every component of a blowup map vanishes at w = 0
    assert is_not_totally_degenerate(blowup_map(1, 1, D)).status is Status.CERTIFIED_FALSE


def test_jacobian_values():
    h11 = blowup_map(1, 1, D)
    assert jacobian(h11).terms == {(0, 1): qr(1)}
    assert is_jacobian_nonzero(h11).status is Status.CERTIFIED_TRUE
    flat = CRMap((mono({(1, 0): 1}),), Series.zero(2, D))
    assert is_jacobian_nonzero(flat).status is Status.CERTIFIED_FALSE


def test_jacobian_zero_without_certificate():
    h = CRMap((Series(2, 4, {(1, 0): 1}, exact=False),), Series(2, 4, {}, exact=False))
    assert is_jacobian_nonzero(h).status is Status.UNKNOWN_AT_TRUNCATION


def test_m_psi_map_lands_in_heisenberg():
    psi = (mono({(1, 0): 1}), mono({(1, 1): 1}))
    assert sends_into(m_psi_map(psi, D), m_psi(psi, D), heisenberg(2, D)).status is Status.CERTIFIED_TRUE


def test_reality_check_positive():
    h11 = blowup_map(1, 1, D)
    m44, m34 = blowup_hypersurface(4, 4, D), blowup_hypersurface(3, 4, D)
    v = InstanceAnalysis(h11, m44, m34).normal_unit_reality
    assert v.status is Status.CERTIFIED_TRUE
    e1 = exp_model(1, D)
    v2 = InstanceAnalysis(scaling_map(qr(1), qr(-1)), e1, e1).normal_unit_reality
    assert v2.status is Status.CERTIFIED_TRUE
    assert v2.witness == {"order": 1, "value": "-1"}


def test_reality_check_hypothesis_gates():
    heis = heisenberg(1, D)
    v = InstanceAnalysis(identity_map(1, D), heis, heis).normal_unit_reality
    assert v.status is Status.UNKNOWN_AT_TRUNCATION
    assert v.witness["failed_hypothesis"] == "source_infinite_type"
    e1 = exp_model(1, D)
    flat = CRMap((mono({(1, 0): 1}),), Series.zero(2, D))
    v2 = InstanceAnalysis(flat, e1, e1).normal_unit_reality
    assert v2.witness["failed_hypothesis"] == "not_transversally_flat"


def test_trord_bound_window():
    h11 = blowup_map(1, 1, D)
    m44, m34 = blowup_hypersurface(4, 4, D), blowup_hypersurface(3, 4, D)
    v = InstanceAnalysis(h11, m44, m34).order_bound
    assert v.status is Status.CERTIFIED_TRUE
    assert v.witness == {
        "m_source": 5,
        "m_target": 3,
        "transversal_order": 1,
        "bound_lhs": 2,
        "bound_rhs": 4,
    }
    m31, m21 = blowup_hypersurface(3, 1, D), blowup_hypersurface(2, 1, D)
    v2 = InstanceAnalysis(h11, m31, m21).order_bound
    assert v2.witness["bound_lhs"] == 3 and v2.witness["bound_rhs"] == 5


def test_trord_bound_tight_on_self_map():
    m21 = blowup_hypersurface(2, 1, D)
    v = InstanceAnalysis(M21_SELF, m21, m21).order_bound
    assert v.status is Status.CERTIFIED_TRUE
    assert v.witness["bound_lhs"] == v.witness["bound_rhs"] == 3


def test_basid_self_map():
    m21 = blowup_hypersurface(2, 1, D)
    v = InstanceAnalysis(M21_SELF, m21, m21).unit_scale_law
    assert v.status is Status.CERTIFIED_TRUE
    assert v.witness == {"m": 4, "unit_scale": "8"}
    e1 = exp_model(1, D)
    assert InstanceAnalysis(EXP_ROT, e1, e1).unit_scale_law.status is Status.CERTIFIED_TRUE


def test_basid_hypothesis_gate():
    from crtrans.models import hk_map

    # (2z, w^4) preserves the model but is not CR transversal
    e4 = exp_model(4, D)
    v = InstanceAnalysis(hk_map(4, D), e4, e4).unit_scale_law
    assert v.status is Status.UNKNOWN_AT_TRUNCATION


def test_basid_needs_equidimensional():
    h = CRMap((mono({(1, 0): 1}), mono({(1, 0): 1})), mono({(0, 1): 1}))
    heis = heisenberg(1, D)
    with pytest.raises(ArityMismatch):
        InstanceAnalysis(h, heis, heis).unit_scale_law


def test_compose_with_identity():
    h = blowup_map(2, 1, D)
    assert compose_maps(identity_map(1, D), h) == h
    assert compose_maps(h, identity_map(1, D)) == h
