"""classify reports: byte-stable digests, one validity decision per surface
(by construction for a graph, with no composition after the solve), one type
decision per surface, rank scans that never expand a minor through an
exact-zero row or column, and rank families that expand each minor once over
all k and take every row from one grouping pass over their source.

The digests were recorded before the minor scan skipped exact-zero rows and
columns, before scalar rank and determinant moved to the Bareiss kernel and
before generic rank stopped sampling points to choose where its scan starts;
they pin every report byte of a Levi-degenerate graph (the shape of the
benchmark's degenerate_rank documents, n = 2 at degree 8) under both
conventions and of one dense n = 1 graph at degree 10.
"""

import hashlib
import json
import sys

import pytest

from crtrans import grammar, hypersurface, rank, substitution
from crtrans.document import _run_classify
from crtrans.hypersurface import Convention
from crtrans.verify import verify_report


def digest(body) -> str:
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode("utf-8")).hexdigest()


# c1 |l|^2 + c2 |l|^4 for a linear form l in two variables: class C and
# holomorphic nondegeneracy never certify, so every rank scan runs to its cap
DEGENERATE = (
    "1*((2+1*i)*z1 + (3-1*i)*z2)*((2-1*i)*chi1 + (3+1*i)*chi2)"
    " + -1*((2+1*i)*z1 + (3-1*i)*z2)^2*((2-1*i)*chi1 + (3+1*i)*chi2)^2"
)
DENSE = (
    "7*z*chi + -1*z*chi*s + (3+1*i)*z*chi^2 + (3-1*i)*z^2*chi + -1*z*chi*s^2"
    " + (-4+0*i)*z*chi^2*s + (-4+0*i)*z^2*chi*s + (-4-4*i)*z*chi^3 + (-4+4*i)*z^3*chi"
    " + -3*z^2*chi^2 + (0-4*i)*z*chi^2*s^2 + (0+4*i)*z^2*chi*s^2 + (4-3*i)*z*chi^3*s"
    " + (4+3*i)*z^3*chi*s + (1-2*i)*z*chi^4 + (1+2*i)*z^4*chi + 2*z^2*chi^2*s"
    " + (-3-2*i)*z^2*chi^3 + (-3+2*i)*z^3*chi^2 + (-3+2*i)*z*chi^3*s^2"
    " + (-3-2*i)*z^3*chi*s^2 + (-4-1*i)*z*chi^4*s + (-4+1*i)*z^4*chi*s"
    " + (-1+3*i)*z*chi^5 + (-1-3*i)*z^5*chi + -3*z^2*chi^2*s^2 + (3-4*i)*z^2*chi^3*s"
    " + (3+4*i)*z^3*chi^2*s + (-2+2*i)*z^2*chi^4 + (-2-2*i)*z^4*chi^2 + -3*z^3*chi^3"
)

# (graph, degree, convention) -> digest of the classify result
CLASSIFY = {
    (DEGENERATE, 8, Convention.TWO_I):
        "150206bc23d888c2e25cf426d75aa069a7a4c7fab718602afd9c20a525b2cecb",
    (DEGENERATE, 8, Convention.I):
        "3805cf68ec90c482d295b6fb052292145753da4e69653a6c2baad89cf2492ce4",
    (DENSE, 10, Convention.I):
        "d8c46432b63210213e4d1ce8ab9a6288de37e81fe314ce97944b90112d1d53de",
}


def classify(phi: str, degree: int, conv: Convention) -> dict:
    doc = grammar.parse(f"M = graph({phi})\nclassify M\n")
    env = {d.name: d for d in doc.declarations}
    return _run_classify(doc.tasks[0], env, degree, conv)[0]


@pytest.mark.parametrize(
    "case", list(CLASSIFY),
    ids=lambda c: f"{'degenerate' if c[0] == DEGENERATE else 'dense'}-{c[2].value}",
)
def test_classify_result_is_byte_stable(case):
    assert digest(classify(*case)) == CLASSIFY[case]


def replace_everywhere(monkeypatch, original, wrapper) -> None:
    """Replace a function in every crtrans module that holds it by name."""
    for name, mod in list(sys.modules.items()):
        if name == "crtrans" or name.startswith("crtrans."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, wrapper)


def test_classify_validates_a_graph_surface_once(monkeypatch):
    # a graph surface's validity is decided once, by its construction: no
    # `validate` call, and the one composition is phi's, before the solve
    events = []
    for original in (hypersurface.validate, hypersurface._valid_by_construction,
                     substitution.compose, substitution.solve_implicit):
        def recording(*args, _original=original):
            events.append(_original.__name__)
            return _original(*args)

        replace_everywhere(monkeypatch, original, recording)
    body = classify("z*chi + z^2*chi^2*s", 6, Convention.TWO_I)
    assert body["validate"] == {"status": "certified_true", "degree_used": 6, "witness": {
        "checks": ["normality_chi_zero", "normality_z_zero", "reality"], "exact": False}}
    assert events == ["compose", "solve_implicit", "_valid_by_construction"]


@pytest.fixture
def classify_type_calls(monkeypatch):
    """The surfaces classify_type is called on, in every crtrans module."""
    original = hypersurface.classify_type
    calls = []

    def counting(m):
        calls.append(m)
        return original(m)

    replace_everywhere(monkeypatch, original, counting)
    return calls


def test_classify_types_an_infinite_type_surface_once(classify_type_calls):
    # class_cm reads the type again through infinite_unit_part
    body = classify("z*chi*s + z^2*chi^2*s", 6, Convention.TWO_I)
    assert body["classification"]["kind"] == "infinite_type"
    assert body["class_cm"] is not None
    assert len(classify_type_calls) == 1


def test_run_all_types_each_surface_once(classify_type_calls):
    # the registry shares surfaces between instances
    verify_report(None, 9, Convention.TWO_I)
    assert classify_type_calls
    assert len({id(m) for m in classify_type_calls}) == len(classify_type_calls)


def test_rank_scans_skip_exact_zero_rows_and_columns(monkeypatch):
    original = rank._det
    minors = []

    def recording(entries):
        minors.append(entries)
        return original(entries)

    replace_everywhere(monkeypatch, original, recording)
    classify(DEGENERATE, 8, Convention.TWO_I)
    assert minors

    def exact_zero(e):
        return e.is_zero and e.exact

    for entries in minors:
        assert not any(all(map(exact_zero, row)) for row in entries)
        assert not any(all(map(exact_zero, col)) for col in zip(*entries))


def test_rank_family_expands_each_minor_once(monkeypatch):
    # each family keeps one RankState over k = 0..7; from scratch at every k
    # this classify makes 144 minor expansions of 23 distinct minors
    minors = []
    det = rank._det

    def recording_det(entries):
        minors.append(entries)  # keeps the entries alive, so ids stay unique
        return det(entries)

    replace_everywhere(monkeypatch, det, recording_det)
    classify(DEGENERATE, 8, Convention.TWO_I)
    minor_ids = [tuple(tuple(map(id, row)) for row in entries) for entries in minors]
    assert len(minor_ids) == len(set(minor_ids)) == 23


def test_rank_family_groups_its_source_once(monkeypatch, grouping_passes):
    # one pass over the source's terms gives every row of the family; one
    # coefficient_series scan per z-exponent made 36 per family here
    original = hypersurface._gradient_family_rank
    sources = []

    def recording(src, *args):
        sources.append(src)
        return original(src, *args)

    replace_everywhere(monkeypatch, original, recording)
    classify(DEGENERATE, 8, Convention.TWO_I)
    assert len(sources) == 2
    assert [id(s) for s in grouping_passes] == [id(s) for s in sources]
