import json

import pytest

from crtrans.hypersurface import Convention
from crtrans.verdict import certified_false, certified_true, unknown
from crtrans.verify import (
    SuiteStatus,
    _agree,
    _both,
    _either,
    _negate,
    _row,
    build_registry,
    run_all,
    suite_easystuff,
    suite_finite_type,
    suite_infinite_type,
)


@pytest.fixture(scope="module")
def report():
    return run_all(degree=10)


def rows_by_key(report):
    return {
        (r["theorem"], r["instance"]): r
        for suite in report["suites"].values()
        for r in suite
    }


# ---------------- combinators ----------------


def test_negate_swaps_certified_and_keeps_unknown():
    assert _negate(certified_true({"a": 1}, 5)).is_false
    assert _negate(certified_false(None, 5)).is_true
    assert _negate(unknown(None, 5)).is_unknown


def test_both_reports_the_failing_side():
    v = _both("left", certified_true({}, 9), "right", certified_false({"index": [1]}, 7))
    assert v.is_false
    assert v.witness["failed"] == "right"
    assert v.degree_used == 7
    assert _both("l", certified_true({}, 3), "r", unknown()).is_unknown


def test_either_picks_the_certified_branch():
    v = _either("a", certified_false({}, 8), "b", certified_true({"det": "1"}, 8))
    assert v.is_true and v.witness["branch"] == "b"
    assert _either("a", certified_false(), "b", certified_false()).is_false
    assert _either("a", certified_false(), "b", unknown()).is_unknown


def test_agree_requires_matching_certified_statuses():
    assert _agree("x", certified_true(), "y", certified_true()).is_true
    assert _agree("x", certified_false(), "y", certified_false()).is_true
    assert _agree("x", certified_true(), "y", certified_false()).is_false
    assert _agree("x", certified_true(), "y", unknown()).is_unknown


def test_row_status_rules():
    ok = certified_true({}, 4)
    gated = _row("t", "i", {"h1": unknown()}, ok)
    assert gated.status is SuiteStatus.HYPOTHESIS_NOT_CERTIFIED
    assert "h1" in gated.note
    confirmed = _row("t", "i", {"h1": ok}, ok)
    assert confirmed.status is SuiteStatus.CONFIRMED
    falsified = _row("t", "i", {"h1": ok}, certified_false({"index": [0]}, 4))
    assert falsified.status is SuiteStatus.FALSIFIED
    undecided = _row("t", "i", {"h1": ok}, unknown())
    assert undecided.status is SuiteStatus.HYPOTHESIS_NOT_CERTIFIED
    assert undecided.note == "conclusion unknown at this truncation"


def test_status_serialization_marks_falsified_loudly():
    assert SuiteStatus.FALSIFIED.value == "FALSIFIED"
    assert SuiteStatus.CONFIRMED.value == "confirmed"
    assert SuiteStatus.HYPOTHESIS_NOT_CERTIFIED.value == "hypothesis_not_certified"


# ---------------- whole-report properties ----------------


def test_nothing_is_falsified(report):
    assert report["falsified"] is False
    assert report["counts"]["falsified"] == 0
    for suite in report["suites"].values():
        for r in suite:
            assert r["status"] != "FALSIFIED"


def test_report_counts_and_sizes(report):
    assert len(report["suites"]["finite_type"]) == 20
    assert len(report["suites"]["infinite_type"]) == 77
    assert len(report["suites"]["easystuff"]) == 5
    assert report["counts"] == {
        "confirmed": 49,
        "hypothesis_not_certified": 53,
        "falsified": 0,
    }
    # the CLI's report envelope writes them, once
    assert not {"degree", "convention", "seed"} & set(report)


def test_report_is_deterministic_json(report):
    again = run_all(degree=10)
    assert json.dumps(again, sort_keys=True) == json.dumps(report, sort_keys=True)


def test_rows_are_sorted(report):
    for suite in report["suites"].values():
        keys = [(r["theorem"], r["instance"]) for r in suite]
        assert keys == sorted(keys)


# ---------------- finite-type suite ----------------


def test_finite_suite_confirms_the_regular_instances(report):
    rows = rows_by_key(report)
    theorems = [
        "nonflat_map_is_nondegenerate_and_transversal",
        "nonzero_jacobian_forces_transversality",
        "transversality_equals_nondegeneracy",
        "nonflat_map_has_nonzero_jacobian",
    ]
    for inst in ("identity_on_quadric", "dilation_on_quadric", "graph_push_to_quadric"):
        for th in theorems:
            assert rows[(th, inst)]["status"] == "confirmed", (th, inst)


def test_flat_map_is_gated_not_falsified(report):
    rows = rows_by_key(report)
    r = rows[("nonflat_map_is_nondegenerate_and_transversal", "flat_map_on_quadric")]
    assert r["status"] == "hypothesis_not_certified"
    assert "transversally_nonflat" in r["note"]


def test_singular_factor_map_separates_jacobian_from_transversality(report):
    # the interesting gap: nondegenerate source, nonzero jacobian, and still
    # not CR transversal; the containment hypothesis is what fails
    rows = rows_by_key(report)
    r = rows[("nonflat_map_has_nonzero_jacobian", "singular_factor_map")]
    assert r["status"] == "hypothesis_not_certified"
    hyp = r["hypotheses"]
    assert hyp["source_holomorphically_nondegenerate"]["status"] == "certified_true"
    assert hyp["sends_into"]["status"] == "certified_false"
    assert hyp["sends_into"]["witness"] == {"index": [0, 1, 1], "value": "-1"}
    assert "either graph convention" in report["instance_notes"]["singular_factor_map"]


# ---------------- infinite-type suite ----------------


REALITY_CONFIRMED = {
    "blowup_window_31_to_21",
    "blowup_window_44_to_34",
    "negation_self_map_exp_2",
    "power_map_exp_2",
    "power_map_exp_3",
    "quarter_turn_self_map_exp_2",
    "rotation_self_map_exp_1",
    "scaling_self_map_blowup_21",
    "stretch_self_map_exp_1",
}


def test_normal_unit_reality_holds_wherever_hypotheses_certify(report):
    rows = rows_by_key(report)
    got = {
        inst
        for (th, inst), r in rows.items()
        if th == "normal_unit_coefficient_is_real" and r["status"] == "confirmed"
    }
    assert got == REALITY_CONFIRMED


def test_order_bound_holds_on_the_same_instances(report):
    rows = rows_by_key(report)
    got = {
        inst
        for (th, inst), r in rows.items()
        if th == "transversal_order_bound" and r["status"] == "confirmed"
    }
    assert got == REALITY_CONFIRMED


def test_window_31_to_21_is_inhabited_and_confirmed(report):
    rows = rows_by_key(report)
    r = rows[("window_map_transversal_or_exceptional", "blowup_window_31_to_21")]
    assert r["status"] == "confirmed"
    assert r["hypotheses"]["order_window"]["witness"] == {"m": 6, "m_prime": 4}
    assert r["conclusion"]["witness"]["branch"] == "cr_transversal"


def test_window_44_to_34_falls_outside_the_window(report):
    rows = rows_by_key(report)
    r = rows[("window_map_transversal_or_exceptional", "blowup_window_44_to_34")]
    assert r["status"] == "hypothesis_not_certified"
    w = r["hypotheses"]["order_window"]
    assert w["status"] == "certified_false"
    assert w["witness"] == {"m": 5, "m_prime": 3}


def test_blowup_scaling_self_map_confirms_all_self_map_statements(report):
    rows = rows_by_key(report)
    inst = "scaling_self_map_blowup_21"
    r1 = rows[("self_map_transversal_or_exceptional", inst)]
    assert r1["status"] == "confirmed"
    assert r1["conclusion"]["witness"]["branch"] == "cr_transversal"
    r2 = rows[("self_map_flat_or_automorphism", inst)]
    assert r2["status"] == "confirmed"
    assert r2["conclusion"]["witness"]["branch"] == "automorphism"
    r3 = rows[("transversal_self_map_is_automorphism", inst)]
    assert r3["status"] == "confirmed"
    r4 = rows[("unit_scale_transformation_law", inst)]
    assert r4["status"] == "confirmed"
    assert r4["conclusion"]["witness"] == {"m": 4, "unit_scale": "8"}


def test_flat_self_map_lands_in_the_exceptional_branch(report):
    rows = rows_by_key(report)
    r = rows[("self_map_transversal_or_exceptional", "flat_self_map_blowup_21")]
    assert r["status"] == "confirmed"
    assert r["conclusion"]["witness"]["branch"] == "transversally_flat"


def test_exp_unit_rotations_are_automorphisms(report):
    rows = rows_by_key(report)
    for inst in (
        "rotation_self_map_exp_1",
        "negation_self_map_exp_2",
        "quarter_turn_self_map_exp_2",
    ):
        assert rows[("transversal_self_map_is_automorphism", inst)]["status"] == "confirmed"
        assert rows[("unit_scale_transformation_law", inst)]["status"] == "confirmed"
    neg = rows[("unit_scale_transformation_law", "negation_self_map_exp_2")]
    assert neg["conclusion"]["witness"] == {"m": 1, "unit_scale": "1"}
    qt = rows[("transversal_self_map_is_automorphism", "quarter_turn_self_map_exp_2")]
    assert qt["conclusion"]["witness"] == {"determinant": "i"}


def test_dilation_on_exp_model_is_excluded_with_an_exact_coefficient(report):
    rows = rows_by_key(report)
    inst = "dilation_excluded_exp_2"
    for (th, name), r in rows.items():
        if name == inst:
            assert r["status"] == "hypothesis_not_certified", th
    sends = rows[("transversal_order_bound", inst)]["hypotheses"]["sends_into"]
    assert sends["status"] == "certified_false"
    assert sends["witness"] == {"index": [1, 1, 1], "value": "-3/2i"}


def test_exp_self_map_statements_gate_on_type_at_least_two(report):
    # the exponential models are 1-infinite, so the statements that need
    # m >= 2 must not fire on them
    rows = rows_by_key(report)
    r = rows[("self_map_flat_or_automorphism", "negation_self_map_exp_2")]
    assert r["status"] == "hypothesis_not_certified"
    assert "type_at_least_2" in r["note"]


def test_stretch_self_map_gates_on_transversality(report):
    rows = rows_by_key(report)
    r = rows[("transversal_self_map_is_automorphism", "stretch_self_map_exp_1")]
    assert r["status"] == "hypothesis_not_certified"
    assert "cr_transversal" in r["note"]
    assert rows[("transversal_order_bound", "stretch_self_map_exp_1")]["status"] == "confirmed"


# ---------------- easystuff suite ----------------


def test_intertwining_determinants(report):
    rows = rows_by_key(report)
    expected = {
        "pairing_negated": "-1",
        "pairing_negated_two_vars": "1",
        "pairing_rescaled": "2",
        "exponential_negated": "-1",
    }
    for inst, det in expected.items():
        r = rows[("intertwining_map_is_invertible", inst)]
        assert r["status"] == "confirmed"
        assert r["conclusion"]["witness"] == {"det": det}


def test_quadratic_instance_fails_the_relation(report):
    rows = rows_by_key(report)
    r = rows[("intertwining_map_is_invertible", "quadratic_excluded")]
    assert r["status"] == "hypothesis_not_certified"
    rel = r["hypotheses"]["scaled_relation"]
    assert rel["status"] == "certified_false"
    assert rel["witness"] == {"index": [1, 1], "value": "1"}


# ---------------- registry and suite plumbing ----------------


def test_registry_realms_partition_the_instances():
    maps, easy = build_registry(degree=10)
    assert len(maps) == 16
    assert len(easy) == 5
    assert {m.realm for m in maps} == {"finite", "infinite"}
    assert len({m.id for m in maps}) == len(maps)


def test_suites_respect_realm_tags():
    maps, easy = build_registry(degree=10)
    fin = suite_finite_type(maps)
    inf = suite_infinite_type(maps)
    fin_ids = {m.id for m in maps if m.realm == "finite"}
    assert {r.instance for r in fin} == fin_ids
    assert {r.instance for r in inf} == {m.id for m in maps} - fin_ids
    assert {r.instance for r in suite_easystuff(easy)} == {e.id for e in easy}


def test_other_convention_also_runs_clean():
    rep = run_all(degree=8, convention=Convention.I)
    assert rep["falsified"] is False
    assert sum(rep["counts"].values()) == 102
