"""The input language: tokens, expression structure, declarations, tasks,
canonical rendering and evaluation.

`reference_render` keeps an earlier `render_expr`, which walked left-deep
binary operator trees; a property test holds the renderer of flat operator
chains to it over a left-deep view of generated expressions. It needs the
optional `hypothesis` package (the `test` extra) and is left out without it.
"""

import pytest

from crtrans import GRAMMAR_TEXT
from crtrans.errors import CrtransError, GrammarError, StructureError
from crtrans.grammar import (
    Chain,
    CheckMapTask,
    ClassifyTask,
    CtorRef,
    Decl,
    Exp,
    Imag,
    InputDocument,
    Neg,
    Num,
    Pow,
    ProlongTask,
    Var,
    _render_ref,
    _render_task,
    parse,
    realize,
    render_expr,
)
from crtrans.record import Record
from crtrans.scalar import qr
from crtrans.series import Series

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the property test below needs the `test` extra
    given = None


def expr_of(text):
    doc = parse(f"tmp = {text}")
    return doc.declarations[0].value


def eval_q(text, degree=8):
    _, (q,) = realize("q", [expr_of(text)], degree)
    return q


def render(doc: InputDocument) -> str:
    """Canonical text of a document, the parser's oracle: parse(render(doc)) == doc."""
    lines = []
    if doc.degree is not None:
        lines.append(f"degree {doc.degree}")
    if doc.convention is not None:
        lines.append(f"convention {doc.convention}")
    for d in doc.declarations:
        value = _render_ref(d.value) if isinstance(d.value, CtorRef) else render_expr(d.value)
        lines.append(f"{d.name} = {value}")
    lines.extend(_render_task(t) for t in doc.tasks)
    return "\n".join(lines) + "\n"


# ---------------- tokenizing and expression structure ----------------


def test_heisenberg_defining_function_parses():
    doc = parse("Q = tau + 2*i*z*chi")
    (decl,) = doc.declarations
    assert decl == Decl("Q", expr_of("tau + 2*i*z*chi"))
    q = eval_q("tau + 2*i*z*chi")
    assert dict(q.terms) == {(0, 0, 1): qr(1), (1, 1, 0): qr(0, 2)}
    assert q.exact


def test_bare_z_and_chi_mean_the_first_slot():
    assert expr_of("z*chi") == expr_of("z1*chi1")


def test_rational_literal_is_a_division():
    e = expr_of("3/4")
    assert e == Chain(Num(3), (("/", Num(4)),))
    s = eval_q("3/4 + z")
    assert s.coefficient((0, 0, 0)) == qr(0) + 3 * qr(1) / 4
    assert s.coefficient((1, 0, 0)) == qr(1)


def test_precedence_and_unary_minus():
    # -z^2 is -(z^2); -z*chi is (-z)*chi; both differ from (-z)^2
    assert expr_of("-z^2") == Neg(Pow(Var("z1"), 2))
    assert expr_of("-z*chi") == Chain(Neg(Var("z1")), (("*", Var("chi1")),))
    assert expr_of("(-z)^2") == Pow(Neg(Var("z1")), 2)
    assert eval_q("(-z)^2") == eval_q("z^2")
    assert eval_q("-z^2") == -eval_q("z^2")


def test_subtraction_groups_left():
    e = expr_of("z - chi - tau")
    assert e == Chain(Var("z1"), (("-", Var("chi1")), ("-", Var("tau"))))
    # operators apply left to right, so parentheses on the left change nothing
    assert expr_of("(z - chi) - tau") == e
    assert expr_of("z - (chi - tau)") == Chain(
        Var("z1"), (("-", Chain(Var("chi1"), (("-", Var("tau")),))),))


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
    assert decl == Decl("H", CtorRef("map", ((Chain(Var("z1"), (("*", Var("w")),)),), Var("w"))))


def test_map_declaration_with_two_components():
    doc = parse("H = map(F = z1, z1*z2, G = w)")
    (decl,) = doc.declarations
    components, _ = decl.value.args
    assert len(components) == 2


def test_surface_declaration_kinds():
    doc = parse(
        "A = heisenberg(2)\nB = blowup(2, 3)\nC = exp_model(4)\n"
        "D = m_psi(z1, z1*z2)\nE = hypersurface(tau + z*chi)\nF0 = graph(z*chi + s)"
    )
    kinds = [d.value.kind for d in doc.declarations]
    assert kinds == ["heisenberg", "blowup", "exp_model", "m_psi", "hypersurface", "graph"]


@pytest.mark.parametrize("text, message, column", [
    ("M = heisenberg(1, 2)", "expected ')', found ','", 17),
    ("M = blowup(1)", "expected ',', found ')'", 13),
    ("M = m_psi()", "expected an expression, found ')'", 11),
    ("M = m_psi(z, )", "expected an expression, found ')'", 14),
    ("M = graph(z*chi, s)", "expected ')', found ','", 16),
    ("M = heisenberg(z)", "expected an integer, found 'z'", 16),
])
def test_constructor_argument_errors(text, message, column):
    with pytest.raises(GrammarError) as err:
        parse(text)
    assert (err.value.message, err.value.line, err.value.column) == (message, 1, column)


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
    )
    assert doc.degree == 12
    assert doc.convention == "i"
    assert [type(t) for t in doc.tasks] == [CheckMapTask, ClassifyTask, ProlongTask]
    assert doc.tasks[2] == ProlongTask("A", ("b",), (2, 1))


def test_inline_constructor_references():
    doc = parse("classify blowup(2, 1)\ncheckmap map(F = z, G = w) : exp_model(2) -> exp_model(2)")
    assert doc.tasks[0].target == CtorRef("blowup", (2, 1))
    assert isinstance(doc.tasks[1].map, CtorRef) and doc.tasks[1].map.kind == "map"


def test_convention_directive_forms():
    assert parse("convention 2i").convention == "2i"
    assert parse("convention i").convention == "i"
    with pytest.raises(GrammarError):
        parse("convention 3i")


@pytest.mark.parametrize("word", ["verify", "examples"])
def test_registry_commands_are_not_statements(word):
    """`verify` and `examples` run the built-in registry and read no document:
    as a statement each is refused at its word, with the command to run."""
    for text in (word, f"M = heisenberg(1)\n{word} finite_type", f"{word} = heisenberg(1)"):
        with pytest.raises(GrammarError) as err:
            parse(text)
        assert f"run crtrans {word}" in err.value.message
        assert (err.value.line, err.value.column) == (text.count("\n") + 1, 1)
    assert f'"{word}"' not in GRAMMAR_TEXT


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
    )
    doc = parse(text)
    out = render(doc)
    assert parse(out) == doc
    assert render(parse(out)) == out


def test_render_is_stable_on_its_own_output():
    doc = parse("Q = tau + -2*z*chi + (z + chi)^2")
    assert parse(render(doc)) == doc


class BinOp(Record):
    """One operator of a left-deep binary tree, as the parser once built them."""

    op: str
    left: object
    right: object


def left_deep(node):
    """The tree with each chain `a op b op c` as ((a op b) op c)."""
    if isinstance(node, Chain):
        out = left_deep(node.first)
        for op, operand in node.rest:
            out = BinOp(op, out, left_deep(operand))
        return out
    if isinstance(node, (Neg, Exp)):
        return type(node)(left_deep(node.arg))
    if isinstance(node, Pow):
        return Pow(left_deep(node.base), node.exponent)
    return node


_PREC = {"+": 10, "-": 10, "*": 20, "/": 20}


def reference_prec(node) -> int:
    if isinstance(node, BinOp):
        return _PREC[node.op]
    return {Neg: 25, Pow: 30}.get(type(node), 100)


def reference_render(node) -> str:
    """`render_expr` over left-deep binary trees, as it was before chains."""
    chain = []
    while isinstance(node, BinOp):
        chain.append(node)
        node = node.left
    chain.reverse()
    if isinstance(node, Num):
        text = str(node.value)
    elif isinstance(node, Imag):
        text = "i"
    elif isinstance(node, Var):
        text = node.name
    elif isinstance(node, Exp):
        text = f"exp({reference_render(node.arg)})"
    elif isinstance(node, Neg):
        inner = reference_render(node.arg)
        text = f"-({inner})" if reference_prec(node.arg) < 25 else f"-{inner}"
    else:
        base = reference_render(node.base)
        if reference_prec(node.base) < 100:
            base = f"({base})"
        text = f"{base}^{node.exponent}"
    # a parenthesised left operand is everything rendered so far
    parts, opened, prec = [text], 0, reference_prec(node)
    for link in chain:
        mine = _PREC[link.op]
        if prec < mine:
            opened += 1
            parts.append(")")
        right = reference_render(link.right)
        if reference_prec(link.right) <= mine:
            right = f"({right})"
        parts.append(f" {link.op} {right}" if link.op in ("+", "-") else f"{link.op}{right}")
        prec = mine
    return "(" * opened + "".join(parts)


def outcome(node):
    """What realizing `node` gives: its series, or the error it raises."""
    try:
        return realize("q", [node], 3)
    except CrtransError as exc:
        return type(exc), str(exc)


if given is not None:

    def join(op, left, right):
        """`left op right`, built as the parser builds it: a left operand that
        is a chain at the same level takes the new operand."""
        if isinstance(left, Chain) and (left.rest[0][0] in "+-") == (op in "+-"):
            return Chain(left.first, left.rest + ((op, right),))
        return Chain(left, ((op, right),))

    leaves = st.one_of(
        st.builds(Num, st.integers(0, 9)),
        st.just(Imag()),
        st.sampled_from(["z1", "z2", "chi1", "chi2", "tau"]).map(Var),
    )
    expressions = st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(join, st.sampled_from("+-*/"), inner, inner),
            st.builds(Neg, inner),
            st.builds(Exp, inner),
            st.builds(Pow, inner, st.integers(0, 3)),
        ),
        max_leaves=12,
    )

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(expressions)
    def test_render_matches_the_binary_tree_reference(e):
        text = render_expr(e)
        assert text == reference_render(left_deep(e))
        again = expr_of(text)
        assert again == e
        assert outcome(again) == outcome(e)


# ---------------- evaluation ----------------


def test_evaluate_layout_mismatch_is_an_error():
    with pytest.raises(StructureError):
        realize("map", [expr_of("tau")], 6)



@pytest.mark.parametrize("node, value", [(Num(0), 0), (Num(7), 7), (Imag(), qr(0, 1))])
def test_constants_evaluate_to_the_canonical_constant_series(node, value):
    _, (got,) = realize("q", [node], 6)
    want = Series.polynomial(3, 6, {(0, 0, 0): value})
    assert (got._num, got._den, got.degree, got.exact) == (
        want._num, want._den, want.degree, want.exact)
    with pytest.raises(StructureError, match="non-negative"):
        realize("q", [node], -1)

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


def test_realize_spans_the_whole_family():
    n, (q,) = realize("q", [expr_of("z3*chi1 + tau")], 4)
    assert (n, q.arity) == (3, 7)
    n, (a, b) = realize("pair", [expr_of("z1"), expr_of("chi2")], 4)
    assert (n, a, b) == (2, Series.variable(0, 4, 4), Series.variable(3, 4, 4))
    n, (psi,) = realize("psi", [Num(2)], 4)
    assert (n, psi.arity) == (1, 1)


# context -> its coordinates in layout order, for n = 2
LAYOUTS = {
    "q": ("z1", "z2", "chi1", "chi2", "tau"),
    "graph": ("z1", "z2", "chi1", "chi2", "s"),
    "map": ("z1", "z2", "w"),
    "psi": ("z1", "z2"),
    "pair": ("z1", "z2", "chi1", "chi2"),
}


@pytest.mark.parametrize("context", sorted(LAYOUTS))
def test_realize_lays_out_each_context(context):
    names = LAYOUTS[context]
    n, got = realize(context, [Var(name) for name in names], 3)
    assert n == 2
    assert got == tuple(Series.variable(slot, len(names), 3) for slot in range(len(names)))


# ---------------- long and deep expressions ----------------


def test_a_long_sum_is_walked_without_recursion():
    """A sum is one flat chain, however long: rendering and evaluating it loop
    over its operands, so its length is not bounded by the interpreter's stack."""
    terms = ["1/5000*z*chi"] * 4999 + ["(z + chi)*tau"]
    e = expr_of(" + ".join(terms))
    assert len(e.rest) == 4999
    assert render_expr(e) == " + ".join(["1/5000*z1*chi1"] * 4999 + ["(z1 + chi1)*tau"])
    assert eval_q(" - ".join(["z"] * 3001)) == eval_q("-2999*z")
    assert realize("q", [e], 4) == realize("q", [expr_of("4999/5000*z*chi + (z + chi)*tau")], 4)


@pytest.mark.parametrize("opening, closing", [("(", ")"), ("-(", ")"), ("exp(", ") - 1"), ("-", "")])
def test_nesting_is_bounded(opening, closing):
    """100 levels parse; the 101st level is refused at its token, as is a far deeper one."""
    levels = 100 if opening != "-(" else 50  # "-(" opens two levels
    parse(f"q = {opening * levels}z{closing * levels}")
    for depth in (levels + 1, 30 * levels):
        with pytest.raises(GrammarError) as err:
            parse(f"q = {opening * depth}z{closing * depth}")
        assert err.value.message == "expression nested deeper than 100 levels"
        assert err.value.column == 5 + len(opening) * levels
    assert "nest at most 100 deep" in GRAMMAR_TEXT


def test_imag_unit_squares_to_minus_one():
    s = eval_q("i*i + 1")
    assert s.is_zero
