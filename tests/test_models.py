"""Model families: frozen normal forms, invariants, and field restrictions."""

import hashlib
from fractions import Fraction

import pytest

from crtrans.errors import FieldRestriction, StructureError, TruncationMismatch
from crtrans.hypersurface import Convention, classify_type, validate
from crtrans.models import (
    blowup_hypersurface,
    blowup_map,
    exp_model,
    heisenberg,
    hk_map,
    m_psi,
    m_psi_map,
    remark_instance,
    scaled_heisenberg,
    theta_profile,
    tk_map,
    unscaled_blowup_map,
)
from crtrans.multiindex import grlex_key
from crtrans.scalar import qr
from crtrans.series import Series, invert_unit
from crtrans.verdict import Status

D = 10


def test_heisenberg_terms():
    assert heisenberg(1, D).q.terms == {(0, 0, 1): qr(1), (1, 1, 0): qr(0, 2)}
    assert heisenberg(2, 8).q.terms == {
        (0, 0, 0, 0, 1): qr(1),
        (1, 0, 1, 0, 0): qr(0, 2),
        (0, 1, 0, 1, 0): qr(0, 2),
    }


def test_scaled_heisenberg_terms():
    assert scaled_heisenberg(3, 1, D).q.terms == {(0, 0, 1): qr(1), (1, 1, 0): qr(0, 6)}


def test_blowup_model_orders():
    expected = {(1, 1): 2, (2, 3): 2, (3, 4): 3, (4, 4): 5, (2, 1): 4, (3, 1): 6}
    for (b, c), m in expected.items():
        cl = classify_type(blowup_hypersurface(b, c, D))
        assert cl.m == m, (b, c)
        # 2b - c + 1 throughout
        assert m == 2 * b - c + 1


def test_blowup_normal_forms_frozen():
    assert blowup_hypersurface(4, 4, D).q.terms == {(0, 0, 1): qr(1), (1, 1, 5): qr(0, 2)}
    assert blowup_hypersurface(3, 4, D).q.terms == {
        (0, 0, 1): qr(1),
        (1, 1, 3): qr(0, 2),
        (2, 2, 5): qr(-6),
    }
    assert blowup_hypersurface(2, 3, D).q.terms == {
        (0, 0, 1): qr(1),
        (1, 1, 2): qr(0, 2),
        (2, 2, 3): qr(-4),
        (3, 3, 4): qr(0, Fraction(-16, 3)),
    }


# SHA-256 of the grlex-sorted (index, coefficient) pairs of q and q.exact at
# degree 12. The models substitute a plain variable s in compose, so these pin
# its shift path on the model data.
MODEL_DIGESTS = {
    ("exp_model", (1,), "2i"):
        "157a7544ac8b9750133de1460e7b5ece99e64148641f7d642b8a3cd7ae1498dc",
    ("exp_model", (2,), "2i"):
        "0822217f38fbeb9b80a4e726403b0bc9756d83237c620bc667b3d1d24b00594c",
    ("exp_model", (3,), "2i"):
        "a2979e06776339ade77b2dcee66ddbc983e0d287f76dd119183bfc429b2e006f",
    ("blowup_hypersurface", (2, 1), "2i"):
        "2a8e78b0db003dfc4517da4a3b1bb76d4ad580786cbc40b041310b4ddf1696f7",
    ("blowup_hypersurface", (3, 4), "2i"):
        "28b15de7f3272fa34a2ee346e495e1c8c648a1a2dfc6ed082193dedf4df9807b",
    ("exp_model", (1,), "i"):
        "157a7544ac8b9750133de1460e7b5ece99e64148641f7d642b8a3cd7ae1498dc",
    ("exp_model", (2,), "i"):
        "0822217f38fbeb9b80a4e726403b0bc9756d83237c620bc667b3d1d24b00594c",
    ("exp_model", (3,), "i"):
        "a2979e06776339ade77b2dcee66ddbc983e0d287f76dd119183bfc429b2e006f",
    ("blowup_hypersurface", (2, 1), "i"):
        "a7f7f9c1f85d7cf29b9da9f4df614a6f607a94bf965525a7111e423aeef9b3f7",
    ("blowup_hypersurface", (3, 4), "i"):
        "999055247cd683e041a1b3b9f9204e55aa4414e4adb4d73d4795302d38a12fe7",
}


@pytest.mark.parametrize("family, args, conv", sorted(MODEL_DIGESTS))
def test_model_normal_form_digests(family, args, conv):
    model = {"exp_model": exp_model, "blowup_hypersurface": blowup_hypersurface}[family]
    q = model(*args, 12, Convention(conv)).q
    body = [(k, str(v)) for k, v in sorted(q.terms.items(), key=lambda kv: grlex_key(kv[0]))]
    text = repr((body, q.exact))
    assert hashlib.sha256(text.encode()).hexdigest() == MODEL_DIGESTS[family, args, conv]


def test_smallest_blowup_has_closed_form():
    q11 = blowup_hypersurface(1, 1, D).q
    geom = invert_unit(Series.one(3, D) - Series.polynomial(3, D, {(1, 1, 1): qr(0, 2)}))
    assert q11 == Series.variable(2, 3, D) * geom


def test_blowup_models_validate():
    for b, c in [(1, 1), (2, 3), (2, 1), (2, 2)]:
        assert validate(blowup_hypersurface(b, c, D)).status is Status.CERTIFIED_TRUE


def test_blowup_requires_2b_greater_than_c():
    with pytest.raises(StructureError):
        theta_profile(1, 2)
    with pytest.raises(StructureError):
        blowup_hypersurface(1, 2, D)


def test_theta_profile_diagonal_coefficients():
    # b = c = 1 gives the Catalan numbers along the diagonal
    th = theta_profile(1, 1, 14)
    assert th.terms == {(1, 0): qr(1), (3, 2): qr(1), (5, 4): qr(2), (7, 6): qr(5)}
    th23 = theta_profile(2, 3, 12)
    assert th23.terms == {
        (1, 0): qr(1),
        (3, 2): qr(Fraction(7, 3)),
        (5, 4): qr(Fraction(38, 3)),
    }


def test_theta_profile_linear_part_is_x():
    th = theta_profile(3, 1, 12)
    assert th.coefficient((1, 0)) == 1
    assert th.coefficient((0, 0)) == 0


def test_exp_model_coefficients():
    e3 = exp_model(3, D)
    assert e3.q.coefficient((0, 0, 1)) == 1
    assert e3.q.coefficient((1, 1, 1)) == qr(0, Fraction(1, 3))
    assert e3.q.coefficient((2, 2, 1)) == qr(Fraction(-1, 18))
    assert classify_type(e3).m == 1


def test_map_components_frozen():
    as_terms = lambda h: [dict(c.terms) for c in h.components]
    assert as_terms(blowup_map(4, 4, 8)) == [{(1, 4): qr(2)}, {(0, 4): qr(1)}]
    assert as_terms(blowup_map(1, 1, 8)) == [{(1, 1): qr(1)}, {(0, 1): qr(1)}]
    assert as_terms(tk_map(3, 8)) == [{(1, 0): qr(1)}, {(0, 3): qr(1)}]
    assert as_terms(hk_map(4, 8)) == [{(1, 0): qr(2)}, {(0, 4): qr(1)}]
    assert as_terms(unscaled_blowup_map(2, 3, 8)) == [{(1, 2): qr(1)}, {(0, 3): qr(1)}]


def test_square_root_field_restrictions():
    with pytest.raises(FieldRestriction):
        blowup_map(2, 2, D)
    with pytest.raises(FieldRestriction):
        hk_map(3, D)
    # the hypersurface itself never needs the root
    assert classify_type(blowup_hypersurface(2, 2, D)).m == 3


# Each constructor's own checks, in their order; the messages reach reports
# as task errors.
@pytest.mark.parametrize(
    "ctor, args, error, message",
    [
        (heisenberg, (1, 1), TruncationMismatch,
         "the quadric model needs truncation degree at least 2"),
        (scaled_heisenberg, (3, 1, 1), TruncationMismatch,
         "the scaled quadric model needs truncation degree at least 2"),
        (blowup_map, (1, 1, 1), TruncationMismatch,
         "the blowup map needs truncation degree at least 2"),
        (unscaled_blowup_map, (2, 3, 2), TruncationMismatch,
         "the blowup map needs truncation degree at least 3"),
        (scaled_heisenberg, (0,), StructureError,
         "the scaling factor must be a positive rational"),
        (scaled_heisenberg, (-1, 1, 1), StructureError,
         "the scaling factor must be a positive rational"),
        (blowup_map, (0, 1), StructureError, "b and c must be positive integers"),
        (blowup_map, (1, -4, 1), StructureError, "b and c must be positive integers"),
        (unscaled_blowup_map, (0, 2), StructureError, "b and c must be positive integers"),
        (unscaled_blowup_map, (2, 0, 1), StructureError, "b and c must be positive integers"),
        (blowup_map, (1, 2), FieldRestriction,
         "sqrt(2) is not rational; use unscaled_blowup_map with a rescaled target"),
        (blowup_map, (1, 3, 1), FieldRestriction,
         "sqrt(3) is not rational; use unscaled_blowup_map with a rescaled target"),
        (heisenberg, (0,), StructureError, "n must be a positive integer"),
        (scaled_heisenberg, (2, 0), StructureError, "n must be a positive integer"),
    ],
)
def test_model_refusals(ctor, args, error, message):
    with pytest.raises(error) as err:
        ctor(*args)
    assert type(err.value) is error
    assert str(err.value) == message


def test_singular_instance_matches_smallest_blowup():
    m, target, h = remark_instance(D)
    assert m.q == blowup_hypersurface(1, 1, D).q
    assert target.q == heisenberg(1, D).q
    assert [dict(c.terms) for c in h.components] == [{(1, 0): qr(1)}, {(1, 1): qr(1)}]


def test_m_psi_terms():
    psi = (
        Series.polynomial(2, D, {(1, 0): 1}),
        Series.polynomial(2, D, {(1, 1): 1}),
    )
    m = m_psi(psi, D)
    assert m.q.terms == {
        (0, 0, 0, 0, 1): qr(1),
        (1, 0, 1, 0, 0): qr(0, 2),
        (1, 1, 1, 1, 0): qr(0, 2),
    }
    assert validate(m).status is Status.CERTIFIED_TRUE
    h = m_psi_map(psi, D)
    assert h.source_n == 2 and h.target_n == 2


def test_m_psi_requires_pointed():
    with pytest.raises(StructureError):
        m_psi((Series.polynomial(2, D, {(0, 0): 1}),), D)


def test_models_respect_convention():
    assert heisenberg(1, D, Convention.I).q.terms == {(0, 0, 1): qr(1), (1, 1, 0): qr(0, 1)}
    m = blowup_hypersurface(4, 4, D, Convention.I)
    assert m.q.coefficient((1, 1, 5)) == qr(0, 1)
    assert classify_type(m).m == 5
