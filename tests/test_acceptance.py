"""Acceptance checks: ten end-to-end properties, one pass line each.

Every assertion is exact (rational arithmetic, zero tolerance).  Each
check prints a single [PASS] line on success; a failed assertion aborts
the test before the line is printed, so the pytest report carries the
fail marker.
"""

import itertools
import random
import time
from fractions import Fraction

from crtrans.crmap import (
    InstanceAnalysis,
    compose_maps,
    is_automorphism,
    is_cr_transversal,
    is_jacobian_nonzero,
    is_not_totally_degenerate,
    jacobian,
    sends_into,
    transversal_order,
)
from crtrans import multiindex as mi
from crtrans.fracseries import FracSeries
from crtrans.hypersurface import (
    Convention,
    TypeKind,
    classify_type,
    is_class_c,
    is_holomorphically_nondegenerate,
    validate,
)
from crtrans.models import (
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
from crtrans.prolongation import (
    ProlongationInstance,
    forward_expand,
    minimal_ordered_nonzero,
    prolongation_solve,
)
from crtrans.rank import generic_rank
from crtrans.scalar import GaussianRational
from crtrans.series import Series
from crtrans.verify import build_registry, suite_finite_type, verify_report


def _passed(num: int, name: str) -> None:
    print(f"[PASS] criterion {num:02d}: {name}")


def _factorial(k: int) -> int:
    out = 1
    for j in range(2, k + 1):
        out *= j
    return out


def test_criterion_01_blowup_type_law():
    for b, c in [(1, 1), (2, 3), (3, 4), (4, 4)]:
        m = blowup_hypersurface(b, c, degree=10)
        assert validate(m).is_true
        cls = classify_type(m)
        assert cls.kind is TypeKind.INFINITE
        assert cls.m == 2 * b - c + 1
    _passed(1, "blowup models validate and classify with m = 2b - c + 1")


def test_criterion_02_blowup_composition_law():
    lhs = compose_maps(blowup_map(3, 4), blowup_map(1, 1))
    rhs = blowup_map(4, 4)
    assert len(lhs.f) == len(rhs.f) == 1
    assert lhs.f[0].terms == rhs.f[0].terms
    assert lhs.g.terms == rhs.g.terms
    # pin the closed form: f = 2*z*w^4, g = w^4
    assert rhs.f[0].terms == {(1, 4): GaussianRational(2)}
    assert rhs.g.terms == {(0, 4): GaussianRational(1)}
    _passed(2, "composite of blowup maps lands on the expected blowup map")


def test_criterion_03_window_containment_and_order_bound():
    h = blowup_map(1, 1)
    m44 = blowup_hypersurface(4, 4, degree=10)
    m34 = blowup_hypersurface(3, 4, degree=10)
    assert sends_into(h, m44, m34).is_true
    t = transversal_order(h)
    assert not t.is_flat and t.value == 1
    bound = InstanceAnalysis(h, m44, m34).order_bound
    assert bound.is_true
    assert bound.witness == {
        "m_source": 5,
        "m_target": 3,
        "transversal_order": 1,
        "bound_lhs": 2,
        "bound_rhs": 4,
    }
    _passed(3, "blowup window map is contained with transversal order inside the bound")


def test_criterion_04_exponential_tower_orders():
    e1 = exp_model(1, degree=12)
    for k in (2, 3):
        hk = tk_map(k, degree=12)
        assert sends_into(hk, exp_model(k, degree=12), e1).is_true
        assert transversal_order(hk).value == k
    stretch = hk_map(4, degree=12)
    assert sends_into(stretch, e1, e1).is_true
    assert transversal_order(stretch).value == 4
    _passed(4, "power maps hit their transversal orders; order 4 occurs at m' = 1")


def test_criterion_05_normal_unit_is_real_on_registry():
    maps, _ = build_registry(degree=10)
    checked = 0
    for inst in maps:
        if not sends_into(inst.h, inst.source, inst.target).is_true:
            continue
        t = transversal_order(inst.h)
        if t.is_flat:
            continue
        k = t.value
        n = inst.h.source_n
        unit = inst.h.g.coefficient_series((n,), (k,))
        assert unit.poly_degree == 0, inst.id
        c = unit.constant_term
        assert bool(c) and c == c.conjugate(), inst.id
        checked += 1
    assert checked == 12
    _passed(5, "normal unit coefficient is a real nonzero constant on all contained maps")


def _random_poly(rng, arity, degree, n_terms, max_total, max_z=None, z_vars=0):
    terms = {}
    for _ in range(n_terms):
        while True:
            idx = tuple(rng.randint(0, max_total) for _ in range(arity))
            if sum(idx) > max_total:
                continue
            if max_z is not None and sum(idx[:z_vars]) > max_z:
                continue
            break
        re = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        im = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        terms[idx] = GaussianRational(re, im)
    return Series.polynomial(arity, degree, terms)


def test_criterion_06_prolongation_roundtrips():
    rng = random.Random(61)
    start = time.monotonic()
    trials = 0
    while trials < 50:
        n = rng.randint(1, 2)
        d = rng.randint(1, 2)
        a = _random_poly(rng, 2 * n, 6, rng.randint(2, 5), 6, max_z=3, z_vars=n)
        if a.is_zero:
            continue
        pivot = minimal_ordered_nonzero(a, n)
        if sum(pivot) > 3:
            continue
        comps = tuple(
            _random_poly(rng, 2 * n, 6, rng.randint(0, 4), 3) for _ in range(d)
        )
        z_block = tuple(range(n))
        for total in range(4):
            for alpha in mi.iter_degree(n, total):
                order = sum(alpha) + sum(pivot)
                jets = forward_expand(a, n, comps, max_order=order)
                sol = prolongation_solve(ProlongationInstance(a, n, jets), alpha)
                assert sol.pivot == pivot
                scale = GaussianRational(1)
                for aj in alpha:
                    scale = scale * GaussianRational(_factorial(aj))
                for j, comp in enumerate(comps):
                    direct = comp.coefficient_series(z_block, alpha).scale(scale)
                    assert sol.values[j] == FracSeries.from_series(direct)
        trials += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _passed(6, f"50 random prolongation instances round-trip exactly ({elapsed:.1f}s)")


def test_criterion_07_graph_model_finite_type_suite():
    deg = 10
    z1 = Series.polynomial(2, deg, {(1, 0): 1})
    z1z2 = Series.polynomial(2, deg, {(1, 1): 1})
    psi = (z1, z1z2)
    m = m_psi(psi, degree=deg)
    h = m_psi_map(psi, degree=deg)
    target = heisenberg(2, degree=deg)
    assert is_class_c(m).is_true
    assert sends_into(h, m, target).is_true
    assert is_cr_transversal(h).is_true
    assert is_not_totally_degenerate(h).is_true
    jac = jacobian(h)
    assert jac.terms == {(1, 0, 0): GaussianRational(1)}
    assert is_jacobian_nonzero(h).is_true

    maps, _ = build_registry(degree=deg)
    rows = suite_finite_type(maps)
    assert all(row.status.value != "FALSIFIED" for row in rows)
    mine = {
        row.theorem: row
        for row in rows
        if row.instance == "graph_push_to_quadric"
    }
    assert mine["nonflat_map_is_nondegenerate_and_transversal"].status.value == "confirmed"
    assert mine["nonzero_jacobian_forces_transversality"].status.value == "confirmed"
    _passed(7, "graph model: class C source, transversal push map, confirmed suite rows")


def test_criterion_08_singular_factor_separation():
    report = verify_report(None, 10, Convention.TWO_I)
    note = report["instance_notes"]["singular_factor_map"]
    assert "convention" in note

    for conv in (Convention.TWO_I, Convention.I):
        m, target, h = remark_instance(degree=10, convention=conv)
        assert is_holomorphically_nondegenerate(m).is_true
        jac = jacobian(h)
        assert jac.terms == {(1, 0): GaussianRational(1)}
        assert is_jacobian_nonzero(h).is_true
        assert is_cr_transversal(h).is_false
        s = sends_into(h, m, target)
        assert s.is_false
        assert s.witness["index"] == [0, 1, 1]
        assert s.witness["value"] == "-1"
    _passed(8, "singular factor map separates jacobian rank from CR transversality")


def test_criterion_09_unit_scale_law_and_automorphisms():
    report = verify_report(None, 10, Convention.TWO_I)
    rows = {
        (r["theorem"], r["instance"]): r
        for suite in report["suites"].values()
        for r in suite
    }
    for inst in ("negation_self_map_exp_2", "quarter_turn_self_map_exp_2"):
        law = rows[("unit_scale_transformation_law", inst)]
        aut = rows[("transversal_self_map_is_automorphism", inst)]
        assert law["status"] == "confirmed"
        assert aut["status"] == "confirmed"

    m2 = exp_model(2, degree=10)
    for lam in (GaussianRational(-1), GaussianRational(0, 1)):
        z = Series.polynomial(2, 10, {(1, 0): lam})
        w = Series.polynomial(2, 10, {(0, 1): 1})
        from crtrans.crmap import CRMap

        h = CRMap((z,), w)
        assert InstanceAnalysis(h, m2, m2).unit_scale_law.is_true
        assert is_automorphism(h).is_true

    z2 = Series.polynomial(2, 10, {(1, 0): 2})
    w = Series.polynomial(2, 10, {(0, 1): 1})
    from crtrans.crmap import CRMap

    dilation = CRMap((z2,), w)
    s = sends_into(dilation, m2, m2)
    assert s.is_false
    assert s.witness["index"] == [1, 1, 1]
    assert s.witness["value"] == "-3/2i"
    _passed(9, "unit scale law and automorphy confirmed; dilation excluded exactly")


def _scalar_rank(rows) -> int:
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(n_cols):
        pivot = None
        for r in range(row, n_rows):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = GaussianRational(1) / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(n_rows):
            if r != row and m[r][col]:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[row])]
        rank += 1
        row += 1
        if row == n_rows:
            break
    return rank


def _poly_det(entries):
    n = len(entries)
    arity = entries[0][0].arity
    deg = entries[0][0].degree
    acc = Series.polynomial(arity, deg, {})
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = Series.polynomial(arity, deg, {(0,) * arity: sign})
        for i in range(n):
            prod = prod * entries[i][perm[i]]
        acc = acc + prod
    return acc


def _minor_rank(rows) -> int:
    n_rows, n_cols = len(rows), len(rows[0])
    for r in range(min(n_rows, n_cols), 0, -1):
        for ri in itertools.combinations(range(n_rows), r):
            for ci in itertools.combinations(range(n_cols), r):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if not _poly_det(sub).is_zero:
                    return r
    return 0


def _eval_at(s: Series, point) -> GaussianRational:
    total = GaussianRational(0)
    for idx, c in s.terms.items():
        val = c
        for e, x in zip(idx, point):
            for _ in range(e):
                val = val * x
        total = total + val
    return total


def test_criterion_10_generic_rank_matches_minor_rank():
    rng = random.Random(101)
    for trial in range(100):
        n_rows = rng.randint(1, 4)
        n_cols = rng.randint(1, 4)
        rows = []
        for _ in range(n_rows):
            row = []
            for _ in range(n_cols):
                if rng.random() < 0.25:
                    row.append(Series.polynomial(2, 20, {}))
                else:
                    row.append(_random_poly(rng, 2, 20, rng.randint(1, 3), 4))
            rows.append(row)
        gr = generic_rank(rows)
        assert gr.at_least.is_true or gr.r == 0
        assert gr.r == _minor_rank(rows), f"trial {trial}"
        for _ in range(5):
            point = tuple(
                GaussianRational(
                    Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                    Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                )
                for _ in range(2)
            )
            scalar_rows = [[_eval_at(s, point) for s in row] for row in rows]
            assert gr.r >= _scalar_rank(scalar_rows)
    _passed(10, "generic rank agrees with maximal nonzero minors on 100 random matrices")
