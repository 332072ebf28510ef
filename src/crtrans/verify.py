"""Property harness: hypothesis-gated conclusion checks on a fixed registry.

Each suite row pairs one statement id with one registry instance. Hypotheses
are certified first; only when every hypothesis is certified true does the
conclusion verdict decide between confirmed and falsified. A falsified row
carries the offending coefficient and is treated as a build-breaking event by
the command line front end. `verify_report` and `examples_report` build the
bodies of the `verify` and `examples` reports.
"""

from __future__ import annotations

import enum
from typing import List, Mapping, Optional, Sequence, Tuple

from .crmap import CRMap, InstanceAnalysis, identity_map, sends_into
from .hypersurface import Convention, NormalHypersurface, TypeKind, _gradient_family_rank
from .models import (
    blowup_hypersurface,
    blowup_map,
    exp_model,
    heisenberg,
    hk_map,
    m_psi,
    m_psi_map,
    remark_instance,
    tk_map,
)
from .rank import constant_determinant
from .record import Record
from .scalar import GaussianRational, qr
from .series import Series, exp_series
from .substitution import compose
from .verdict import Verdict, certified_false, certified_true, nonzero, unknown, vanishes

__all__ = [
    "SuiteStatus",
    "TheoremSuiteResult",
    "MapInstance",
    "IntertwinedInstance",
    "build_registry",
    "suite_finite_type",
    "suite_infinite_type",
    "suite_easystuff",
    "suite_report",
    "verify_report",
    "FAMILIES",
    "examples_report",
]


class SuiteStatus(str, enum.Enum):
    CONFIRMED = "confirmed"
    HYPOTHESIS_NOT_CERTIFIED = "hypothesis_not_certified"
    FALSIFIED = "FALSIFIED"


class TheoremSuiteResult(Record):
    theorem: str
    instance: str
    hypotheses: Mapping[str, Verdict]
    conclusion: Verdict
    status: SuiteStatus
    note: Optional[str] = None


class MapInstance(Record):
    """One map row of the registry: h sends (or fails to send) source into target."""

    id: str
    h: CRMap
    source: NormalHypersurface
    target: NormalHypersurface
    realm: str  # "finite" or "infinite"
    note: str = ""


class IntertwinedInstance(Record):
    """Data (A, B, r) for the scaled self-similarity A(z, chi) = r A(B(z), conj(B)(chi))."""

    id: str
    a: Series  # arity 2n, blocks (z, chi)
    b: Tuple[Series, ...]  # n components of arity n
    r: GaussianRational
    n: int
    note: str = ""


# ---------------- verdict combinators ----------------


def _negate(v: Verdict) -> Verdict:
    if v.is_true:
        return certified_false(v.witness, v.degree_used)
    if v.is_false:
        return certified_true(v.witness, v.degree_used)
    return v


def _degree(a: Verdict, b: Verdict) -> Optional[int]:
    """The lower degree two verdicts used, None when neither records one."""
    return min((d for d in (a.degree_used, b.degree_used) if d is not None), default=None)


def _both(a_name: str, a: Verdict, b_name: str, b: Verdict) -> Verdict:
    deg = _degree(a, b)
    if a.is_false:
        return certified_false({"failed": a_name, **(a.witness or {})}, deg)
    if b.is_false:
        return certified_false({"failed": b_name, **(b.witness or {})}, deg)
    if a.is_true and b.is_true:
        return certified_true({a_name: a.witness, b_name: b.witness}, deg)
    return unknown({a_name: a.status.value, b_name: b.status.value}, deg)


def _either(a_name: str, a: Verdict, b_name: str, b: Verdict) -> Verdict:
    deg = _degree(a, b)
    if a.is_true:
        return certified_true({"branch": a_name, **(a.witness or {})}, deg)
    if b.is_true:
        return certified_true({"branch": b_name, **(b.witness or {})}, deg)
    if a.is_false and b.is_false:
        return certified_false({a_name: a.witness, b_name: b.witness}, deg)
    return unknown({a_name: a.status.value, b_name: b.status.value}, deg)


def _agree(a_name: str, a: Verdict, b_name: str, b: Verdict) -> Verdict:
    deg = _degree(a, b)
    if a.is_unknown or b.is_unknown:
        return unknown({a_name: a.status.value, b_name: b.status.value}, deg)
    if a.status is b.status:
        return certified_true({a_name: a.status.value, b_name: b.status.value}, deg)
    return certified_false(
        {a_name: a.to_json(), b_name: b.to_json(), "note": "certified disagreement"}, deg
    )


def _row(
    theorem: str,
    instance: str,
    hypotheses: Mapping[str, Verdict],
    conclusion: Verdict,
) -> TheoremSuiteResult:
    failing = [name for name, v in hypotheses.items() if not v.is_true]
    status, note = SuiteStatus.HYPOTHESIS_NOT_CERTIFIED, None
    if failing:
        note = "uncertified: " + ", ".join(failing)
    elif conclusion.is_true:
        status = SuiteStatus.CONFIRMED
    elif conclusion.is_false:
        status = SuiteStatus.FALSIFIED
    else:
        note = "conclusion unknown at this truncation"
    return TheoremSuiteResult(theorem, instance, hypotheses, conclusion, status, note)


# ---------------- type hypothesis verdicts ----------------


def _infinite(cls) -> Verdict:
    if cls.kind is TypeKind.INFINITE:
        return certified_true({"m": cls.m, **(cls.witness or {})}, cls.degree_used)
    if cls.kind is TypeKind.FINITE:
        return certified_false(cls.witness, cls.degree_used)
    return unknown(cls.witness, cls.degree_used)


def _infinite_at_least(cls, bound: int) -> Verdict:
    base = _infinite(cls)
    if not base.is_true:
        return base
    if cls.m >= bound:
        return certified_true({"m": cls.m, "bound": bound}, cls.degree_used)
    return certified_false({"m": cls.m, "bound": bound}, cls.degree_used)


def _order_window(cls_src, cls_tgt) -> Verdict:
    src, tgt = _infinite(cls_src), _infinite(cls_tgt)
    if not src.is_true or not tgt.is_true:
        return unknown({"source": src.status.value, "target": tgt.status.value})
    m, mp = cls_src.m, cls_tgt.m
    wit = {"m": m, "m_prime": mp}
    if 1 < mp <= m < 2 * mp - 1:
        return certified_true(wit, min(cls_src.degree_used, cls_tgt.degree_used))
    return certified_false(wit, min(cls_src.degree_used, cls_tgt.degree_used))


# ---------------- registry ----------------


def _scaling(lam: GaussianRational, mu: GaussianRational, degree: int) -> CRMap:
    f = Series.polynomial(2, degree, {(1, 0): lam})
    g = Series.polynomial(2, degree, {(0, 1): mu})
    return CRMap((f,), g)


def _flat_map(degree: int) -> CRMap:
    return CRMap((Series.polynomial(2, degree, {(1, 0): 1}),), Series.zero(2, degree))


def build_registry(
    degree: int = 10, convention: Convention = Convention.TWO_I
) -> Tuple[List[MapInstance], List[IntertwinedInstance]]:
    heis1 = heisenberg(1, degree, convention)
    heis2 = heisenberg(2, degree, convention)
    psi = (
        Series.polynomial(2, degree, {(1, 0): 1}),
        Series.polynomial(2, degree, {(1, 1): 1}),
    )
    mpsi = m_psi(psi, degree, convention)
    m_sing, sing_target, h_sing = remark_instance(degree, convention)
    e1 = exp_model(1, degree, convention)
    e2 = exp_model(2, degree, convention)
    e3 = exp_model(3, degree, convention)
    m44 = blowup_hypersurface(4, 4, degree, convention)
    m34 = blowup_hypersurface(3, 4, degree, convention)
    m31 = blowup_hypersurface(3, 1, degree, convention)
    m21 = blowup_hypersurface(2, 1, degree, convention)

    maps = [
        MapInstance("identity_on_quadric", identity_map(1, degree), heis1, heis1, "finite"),
        MapInstance(
            "dilation_on_quadric", _scaling(qr(2), qr(4), degree), heis1, heis1, "finite"
        ),
        MapInstance(
            "flat_map_on_quadric",
            _flat_map(degree),
            heis1,
            heis1,
            "finite",
            note="gating control: transversally flat, so no finite-type conclusion applies",
        ),
        MapInstance("graph_push_to_quadric", m_psi_map(psi, degree), mpsi, heis2, "finite"),
        MapInstance(
            "singular_factor_map",
            h_sing,
            m_sing,
            sing_target,
            "finite",
            note="containment is not certified under either graph convention; "
            "kept for the nondegeneracy/jacobian separation",
        ),
        MapInstance("power_map_exp_2", tk_map(2, degree), e2, e1, "infinite"),
        MapInstance("power_map_exp_3", tk_map(3, degree), e3, e1, "infinite"),
        MapInstance(
            "stretch_self_map_exp_1",
            hk_map(4, degree),
            e1,
            e1,
            "infinite",
            note="transversal order 4 on a 1-infinite target: no order bound at m' = 1",
        ),
        MapInstance(
            "rotation_self_map_exp_1",
            _scaling(qr(3, 4) / 5, qr(2), degree),
            e1,
            e1,
            "infinite",
        ),
        MapInstance("negation_self_map_exp_2", _scaling(qr(-1), qr(1), degree), e2, e2, "infinite"),
        MapInstance(
            "quarter_turn_self_map_exp_2", _scaling(qr(0, 1), qr(1), degree), e2, e2, "infinite"
        ),
        MapInstance(
            "dilation_excluded_exp_2",
            _scaling(qr(2), qr(1), degree),
            e2,
            e2,
            "infinite",
            note="negative control: the dilation breaks containment with an exact witness",
        ),
        MapInstance("blowup_window_44_to_34", blowup_map(1, 1, degree), m44, m34, "infinite"),
        MapInstance("blowup_window_31_to_21", blowup_map(1, 1, degree), m31, m21, "infinite"),
        MapInstance(
            "scaling_self_map_blowup_21",
            _scaling(qr(1, 1) / 4, qr(2), degree),
            m21,
            m21,
            "infinite",
        ),
        MapInstance(
            "flat_self_map_blowup_21",
            _flat_map(degree),
            m21,
            m21,
            "infinite",
            note="image lies in the exceptional hypersurface",
        ),
    ]

    pair1 = Series.polynomial(2, degree, {(1, 1): 1})
    pair2 = Series.polynomial(4, degree, {(1, 0, 1, 0): 1, (0, 1, 0, 1): 1})
    iz_chi = Series.polynomial(2, degree, {(1, 1): qr(0, 1)})
    expo = exp_series(iz_chi) - Series.one(2, degree)
    neg1 = (Series.polynomial(1, degree, {(1,): -1}),)
    neg2 = (
        Series.polynomial(2, degree, {(1, 0): -1}),
        Series.polynomial(2, degree, {(0, 1): -1}),
    )
    easy = [
        IntertwinedInstance("pairing_negated", pair1, neg1, qr(1), 1),
        IntertwinedInstance("pairing_negated_two_vars", pair2, neg2, qr(1), 2),
        IntertwinedInstance(
            "pairing_rescaled",
            pair1,
            (Series.polynomial(1, degree, {(1,): 2}),),
            qr(1) / 4,
            1,
        ),
        IntertwinedInstance("exponential_negated", expo, neg1, qr(1), 1),
        IntertwinedInstance(
            "quadratic_excluded",
            pair1,
            (Series.polynomial(1, degree, {(2,): 1}),),
            qr(1),
            1,
            note="negative control: the relation fails at degree two",
        ),
    ]
    return maps, easy


# ---------------- statements ----------------

# Every map statement reads "hypotheses about one instance => conclusion".
# A hypothesis name is the InstanceAnalysis attribute of that name, unless
# it is derived here from the cached verdicts.
_DERIVED = {
    "transversally_nonflat": lambda a: _negate(a.transversally_flat),
    "source_infinite_type": lambda a: _infinite(a.source_type),
    "target_infinite_type": lambda a: _infinite(a.target_type),
    "type_at_least_2": lambda a: _infinite_at_least(a.source_type, 2),
    "order_window": lambda a: _order_window(a.source_type, a.target_type),
}


def _transversal_or_flat(a: InstanceAnalysis) -> Verdict:
    return _either("cr_transversal", a.cr_transversal, "transversally_flat", a.transversally_flat)


# (theorem id, hypothesis names in report order, conclusion)
_FINITE_TYPE = (
    ("nonflat_map_is_nondegenerate_and_transversal",
     ("source_class_c", "sends_into", "equidimensional", "transversally_nonflat"),
     lambda a: _both("not_totally_degenerate", a.not_totally_degenerate,
                     "cr_transversal", a.cr_transversal)),
    ("nonzero_jacobian_forces_transversality",
     ("source_class_c", "sends_into", "equidimensional", "jacobian_nonzero"),
     lambda a: a.cr_transversal),
    ("transversality_equals_nondegeneracy",
     ("source_class_c", "sends_into", "equidimensional"),
     lambda a: _agree("cr_transversal", a.cr_transversal,
                      "not_totally_degenerate", a.not_totally_degenerate)),
    ("nonflat_map_has_nonzero_jacobian",
     ("source_holomorphically_nondegenerate", "sends_into", "equidimensional",
      "transversally_nonflat"),
     lambda a: a.jacobian_nonzero),
)

_INFINITE_TYPE = (
    ("normal_unit_coefficient_is_real",
     ("source_infinite_type", "target_infinite_type", "sends_into", "transversally_nonflat"),
     lambda a: a.normal_unit_reality),
    ("transversal_order_bound",
     ("source_infinite_type", "target_infinite_type", "sends_into", "transversally_nonflat"),
     lambda a: a.order_bound),
    ("self_map_transversal_or_exceptional",
     ("self_map", "type_at_least_2", "sends_into"),
     _transversal_or_flat),
    ("window_map_transversal_or_exceptional",
     ("order_window", "sends_into", "equidimensional"),
     _transversal_or_flat),
    ("unit_scale_transformation_law",
     ("self_map", "source_infinite_type", "sends_into", "cr_transversal"),
     lambda a: a.unit_scale_law),
    ("transversal_self_map_is_automorphism",
     ("self_map", "source_class_cm", "sends_into", "cr_transversal"),
     lambda a: a.automorphism),
    ("self_map_flat_or_automorphism",
     ("self_map", "source_class_cm", "type_at_least_2", "sends_into"),
     lambda a: _either("transversally_flat", a.transversally_flat,
                       "automorphism", a.automorphism)),
)


# ---------------- suites ----------------


def _suite(
    instances: Sequence[MapInstance], realm: str, statements: Sequence[tuple]
) -> List[TheoremSuiteResult]:
    """One row per statement and instance of the realm, each instance analysed
    once; a row decides its hypotheses in order, then its conclusion."""
    out: List[TheoremSuiteResult] = []
    for inst in instances:
        if inst.realm != realm:
            continue
        a = InstanceAnalysis(inst.h, inst.source, inst.target)
        for theorem, names, conclusion in statements:
            hypotheses = {
                name: _DERIVED[name](a) if name in _DERIVED else getattr(a, name)
                for name in names
            }
            out.append(_row(theorem, inst.id, hypotheses, conclusion(a)))
    out.sort(key=lambda r: (r.theorem, r.instance))
    return out


def suite_finite_type(instances: Sequence[MapInstance]) -> List[TheoremSuiteResult]:
    return _suite(instances, "finite", _FINITE_TYPE)


def suite_infinite_type(instances: Sequence[MapInstance]) -> List[TheoremSuiteResult]:
    return _suite(instances, "infinite", _INFINITE_TYPE)


def _relation_holds(inst: IntertwinedInstance) -> Verdict:
    n = inst.n
    a, b = inst.a, inst.b
    args = [c.embed(2 * n, list(range(n))) for c in b]
    args += [c.conjugate().embed(2 * n, list(range(n, 2 * n))) for c in b]
    diff = a - compose(a, args).scale(inst.r)
    return vanishes(diff, {"exact": diff.exact})


def suite_easystuff(instances: Sequence[IntertwinedInstance]) -> List[TheoremSuiteResult]:
    out: List[TheoremSuiteResult] = []
    for inst in instances:
        n = inst.n
        rank = _gradient_family_rank(inst.a, n, tuple(range(n)))
        relation = _relation_holds(inst)
        db0 = [
            [c.coefficient(tuple(1 if k == j else 0 for k in range(n))) for j in range(n)]
            for c in inst.b
        ]
        conclusion = nonzero("det", constant_determinant(db0), inst.a.degree)
        out.append(
            _row(
                "intertwining_map_is_invertible",
                inst.id,
                {"coefficient_family_rank_full": rank, "scaled_relation": relation},
                conclusion,
            )
        )
    out.sort(key=lambda r: (r.theorem, r.instance))
    return out


# ---------------- entry point ----------------


def suite_report(suites: Mapping[str, Sequence[TheoremSuiteResult]]) -> dict:
    """The rows of the named suites with their status counts. The degree,
    convention they ran at and the seed are the report envelope's."""
    counts = {"confirmed": 0, "hypothesis_not_certified": 0, "falsified": 0}
    for rows in suites.values():
        for r in rows:
            if r.status is SuiteStatus.CONFIRMED:
                counts["confirmed"] += 1
            elif r.status is SuiteStatus.FALSIFIED:
                counts["falsified"] += 1
            else:
                counts["hypothesis_not_certified"] += 1
    return {
        "suites": {name: [r.to_json() for r in rows] for name, rows in suites.items()},
        "counts": counts,
        "falsified": counts["falsified"] > 0,
    }


def verify_report(suite: Optional[str], degree: int, convention: Convention) -> dict:
    """The body of a `verify` report: every suite with the registry's
    instance notes, or the one named."""
    maps, easy = build_registry(degree, convention)
    runs = {
        "finite_type": lambda: suite_finite_type(maps),
        "infinite_type": lambda: suite_infinite_type(maps),
        "easystuff": lambda: suite_easystuff(easy),
    }
    body = suite_report({name: runs[name]() for name in (runs if suite is None else [suite])})
    if suite is None:
        body["instance_notes"] = {inst.id: inst.note for inst in (*maps, *easy) if inst.note}
    return body


FAMILIES = [
    {"name": "heisenberg(n)", "kind": "finite type quadric", "m": None},
    {"name": "m_psi(psi_1, ..., psi_d)", "kind": "sum of squares over a holomorphic map", "m": None},
    {"name": "blowup(b, c)", "kind": "infinite type blowup model, needs 2b > c", "m": "2b - c + 1"},
    {"name": "exp_model(k)", "kind": "1-infinite exponential model", "m": 1},
]


def examples_report(degree: int, convention: Convention) -> dict:
    """The body of an `examples` report: the model families and the registry's instances."""
    maps, easy = build_registry(degree, convention)
    instances = []
    for inst in maps:
        instances.append(
            {
                "id": inst.id,
                "realm": inst.realm,
                "sends_into": sends_into(inst.h, inst.source, inst.target).to_json(),
                "note": inst.note or None,
            }
        )
    return {
        "families": FAMILIES,
        "map_instances": instances,
        "intertwined_instances": [
            {"id": e.id, "note": e.note or None} for e in easy
        ],
    }
