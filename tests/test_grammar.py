import pytest

from crtrans.errors import GrammarError, StructureError
from crtrans.grammar import (
    BinOp,
    CheckMapTask,
    ClassifyTask,
    CtorRef,
    ExamplesTask,
    Exp,
    Imag,
    InputDocument,
    MapDecl,
    NameRef,
    Neg,
    Num,
    Pow,
    ProlongTask,
    SeriesDecl,
    SurfaceDecl,
    Var,
    VerifyTask,
    block_size,
    evaluate,
    free_variables,
    map_layout,
    parse,
    pair_layout,
    q_layout,
    render,
    render_expr,
)
from crtrans.scalar import qr
from crtrans.series import Series


def expr_of(text):
    doc = parse(f"tmp = {text}")
    return doc.declarations[0].expr


def eval_q(text, n=1, degree=8):
    layout, arity = q_layout(n)
    return evaluate(expr_of(text), layout, arity, degree)


# ---------------- tokenizing and expression structure ----------------


def test_heisenberg_defining_function_parses():
    doc = parse("Q = tau + 2*i*z*chi")
    (decl,) = doc.declarations
    assert isinstance(decl, SeriesDecl) and decl.name == "Q"
    q = eval_q("tau + 2*i*z*chi")
    assert dict(q.terms) == {(0, 0, 1): qr(1), (1, 1, 0): qr(0, 2)}
    assert q.exact


def test_bare_z_and_chi_mean_the_first_slot():
    assert expr_of("z*chi") == expr_of("z1*chi1")


def test_rational_literal_is_a_division():
    e = expr_of("3/4")
    assert e == BinOp("/", Num(3), Num(4))
    s = eval_q("3/4 + z")
    assert s.coefficient((0, 0, 0)) == qr(0) + 3 * qr(1) / 4
    assert s.coefficient((1, 0, 0)) == qr(1)


def test_precedence_and_unary_minus():
    # -z^2 is -(z^2); -z*chi is (-z)*chi; both differ from (-z)^2
    assert expr_of("-z^2") == Neg(Pow(Var("z1"), 2))
    assert expr_of("-z*chi") == BinOp("*", Neg(Var("z1")), Var("chi1"))
    assert expr_of("(-z)^2") == Pow(Neg(Var("z1")), 2)
    assert eval_q("(-z)^2") == eval_q("z^2")
    assert eval_q("-z^2") == -eval_q("z^2")


def test_subtraction_groups_left():
    e = expr_of("z - chi - tau")
    assert e == BinOp("-", BinOp("-", Var("z1"), Var("chi1")), Var("tau"))


def test_exp_atom():
    e = expr_of("exp(i*z*chi)")
    assert isinstance(e, Exp)
    s = eval_q("exp(i*z*chi)", degree=6)
    assert s.coefficient((1, 1, 0)) == qr(0, 1)
    assert s.coefficient((2, 2, 0)) == qr(-1, 0) / 2
    assert not s.exact


def test_power_of_power_needs_parens():
    with pytest.raises(GrammarError):
        parse("q = z^2^3")
    assert expr_of("(z^2)^3") == Pow(Pow(Var("z1"), 2), 3)


def test_comments_and_semicolons():
    doc = parse("# header\nM = heisenberg(1); classify M  # trailing\n\n")
    assert len(doc.declarations) == 1 and len(doc.tasks) == 1


def test_error_positions():
    with pytest.raises(GrammarError) as err:
        parse("M = heisenberg(1)\nQ = tau + $")
    assert err.value.line == 2
    assert err.value.column == 11


# ---------------- declarations ----------------


def test_map_declaration_matches_blowup_components():
    doc = parse("H = map(F = z*w, G = w)")
    (decl,) = doc.declarations
    assert isinstance(decl, MapDecl)
    assert decl.components == (BinOp("*", Var("z1"), Var("w")),)
    assert decl.normal == Var("w")


def test_map_declaration_with_two_components():
    doc = parse("H = map(F = z1, z1*z2, G = w)")
    (decl,) = doc.declarations
    assert len(decl.components) == 2


def test_surface_declaration_kinds():
    doc = parse(
        "A = heisenberg(2)\nB = blowup(2, 3)\nC = exp_model(4)\n"
        "D = m_psi(z1, z1*z2)\nE = hypersurface(tau + z*chi)\nF0 = graph(z*chi + s)"
    )
    kinds = [d.kind for d in doc.declarations]
    assert kinds == ["heisenberg", "blowup", "exp_model", "m_psi", "hypersurface", "graph"]


def test_duplicate_names_rejected():
    with pytest.raises(GrammarError) as err:
        parse("M = heisenberg(1)\nM = heisenberg(2)")
    assert "already declared" in err.value.message


def test_reserved_words_cannot_be_declared():
    for bad in ("z = 3", "tau = 1", "map = heisenberg(1)", "i = 2"):
        with pytest.raises(GrammarError):
            parse(bad)


def test_variable_policies_per_construct():
    with pytest.raises(GrammarError):
        parse("M = hypersurface(tau + s)")  # s lives in graphs only
    with pytest.raises(GrammarError):
        parse("M = graph(tau)")  # tau lives in defining functions only
    with pytest.raises(GrammarError):
        parse("H = map(F = chi, G = w)")  # maps are holomorphic in z, w
    with pytest.raises(GrammarError):
        parse("M = m_psi(z1 + w)")


def test_undeclared_and_wrong_kind_references():
    with pytest.raises(GrammarError) as err:
        parse("classify M")
    assert "undeclared" in err.value.message
    with pytest.raises(GrammarError):
        parse("M = heisenberg(1)\ncheckmap M : M -> M")  # M is not a map
    with pytest.raises(GrammarError):
        parse("H = map(F = z, G = w)\nclassify H")  # H is not a hypersurface
    with pytest.raises(GrammarError):
        parse("H = map(F = z, G = w)\nprolong H, H at (1)")  # not series data
    with pytest.raises(GrammarError):
        parse("checkmap heisenberg(1) : heisenberg(1) -> heisenberg(1)")


# ---------------- tasks and directives ----------------


def test_full_document_shape():
    doc = parse(
        "degree 12\nconvention i\n"
        "T = map(F = z, G = w^2)\nM2 = exp_model(2)\nM1 = exp_model(1)\n"
        "A = z2*chi1 + z1^2\nb = z1^2*z2\n"
        "checkmap T : M2 -> M1\nclassify M2\nprolong A, b at (2, 1)\n"
        "verify infinite_type\nexamples"
    )
    assert doc.degree == 12
    assert doc.convention == "i"
    assert [type(t) for t in doc.tasks] == [
        CheckMapTask,
        ClassifyTask,
        ProlongTask,
        VerifyTask,
        ExamplesTask,
    ]
    assert doc.tasks[2] == ProlongTask("A", ("b",), (2, 1))
    assert doc.tasks[3].suite == "infinite_type"


def test_inline_constructor_references():
    doc = parse("classify blowup(2, 1)\ncheckmap map(F = z, G = w) : exp_model(2) -> exp_model(2)")
    assert doc.tasks[0].target == CtorRef("blowup", (2, 1))
    assert isinstance(doc.tasks[1].map, CtorRef) and doc.tasks[1].map.kind == "map"


def test_convention_directive_forms():
    assert parse("convention 2i").convention == "2i"
    assert parse("convention i").convention == "i"
    with pytest.raises(GrammarError):
        parse("convention 3i")


def test_verify_suite_names_checked():
    assert parse("verify").tasks[0] == VerifyTask(None)
    with pytest.raises(GrammarError) as err:
        parse("verify smoke")
    assert "unknown suite" in err.value.message


# ---------------- canonical rendering ----------------


def test_render_expr_minimal_parens():
    cases = [
        ("z + chi*tau", "z1 + chi1*tau"),
        ("(z + chi)*tau", "(z1 + chi1)*tau"),
        ("z - (chi - tau)", "z1 - (chi1 - tau)"),
        ("-(z*chi)", "-(z1*chi1)"),
        ("-z*chi", "-z1*chi1"),
        ("2/3*z^2", "2/3*z1^2"),
        ("exp(-z)", "exp(-z1)"),
    ]
    for source, canonical in cases:
        assert render_expr(expr_of(source)) == canonical


def test_parse_render_identity():
    text = (
        "degree 12\nconvention 2i\n"
        "T = map(F = z1, z1*z2, G = w^2)\n"
        "M2 = exp_model(2)\n"
        "P = m_psi(z1, z1*z2)\n"
        "E = hypersurface(tau + 2*i*z*chi - 1/2*z^2*chi^2)\n"
        "A = z2*chi1 + z1^2\nb = z1^2*z2\n"
        "checkmap T : M2 -> exp_model(1)\n"
        "classify E\n"
        "prolong A, b at (2, 1)\n"
        "verify easystuff\nexamples"
    )
    doc = parse(text)
    out = render(doc)
    assert parse(out) == doc
    assert render(parse(out)) == out


def test_render_is_stable_on_its_own_output():
    doc = parse("Q = tau + -2*z*chi + (z + chi)^2")
    assert parse(render(doc)) == doc


# ---------------- evaluation ----------------


def test_evaluate_layout_mismatch_is_an_error():
    layout, arity = map_layout(1)
    with pytest.raises(StructureError):
        evaluate(expr_of("tau"), layout, arity, 6)



@pytest.mark.parametrize("node, value", [(Num(0), 0), (Num(7), 7), (Imag(), qr(0, 1))])
def test_constants_evaluate_to_the_canonical_constant_series(node, value):
    layout, arity = q_layout(1)
    got, want = evaluate(node, layout, arity, 6), Series.polynomial(arity, 6, {(0, 0, 0): value})
    assert (got._num, got._den, got.degree, got.exact) == (
        want._num, want._den, want.degree, want.exact)
    with pytest.raises(StructureError, match="non-negative"):
        evaluate(node, layout, arity, -1)

def test_division_by_series_rejected():
    with pytest.raises(StructureError):
        eval_q("z/chi")
    with pytest.raises(StructureError):
        eval_q("z/0")
    assert eval_q("z/2") == eval_q("1/2*z")


def test_huge_powers_truncate_quickly():
    s = eval_q("z^100000", degree=6)
    assert s.is_zero and not s.exact
    t = eval_q("(1 + z)^64", degree=3)
    from math import comb

    assert t.coefficient((2, 0, 0)) == qr(comb(64, 2))


def test_block_size_and_free_variables():
    e = expr_of("z3*chi1 + tau")
    assert free_variables(e) == {"z3", "chi1", "tau"}
    assert block_size([e]) == 3
    layout, arity = pair_layout(2)
    assert arity == 4 and layout == {"z1": 0, "z2": 1, "chi1": 2, "chi2": 3}


def test_imag_unit_squares_to_minus_one():
    s = eval_q("i*i + 1")
    assert s.is_zero
