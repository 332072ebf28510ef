"""Input language for the command line front end.

A document is a sequence of statements separated by newlines or semicolons:
declarations bind names to series expressions, hypersurfaces, or maps, and
tasks name the work to run. ``parse`` turns text into an ``InputDocument``
and ``render`` prints the canonical form; parse(render(doc)) == doc.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from . import scalar, series  # the lazy modules: only `evaluate` loads the series kernel
from .errors import GrammarError, StructureError
from .record import Record

__all__ = [
    "GRAMMAR_TEXT",
    "Num",
    "Imag",
    "Var",
    "Neg",
    "BinOp",
    "Pow",
    "Exp",
    "SeriesDecl",
    "SurfaceDecl",
    "MapDecl",
    "NameRef",
    "CtorRef",
    "ClassifyTask",
    "CheckMapTask",
    "ProlongTask",
    "VerifyTask",
    "ExamplesTask",
    "InputDocument",
    "parse",
    "render",
    "render_expr",
    "free_variables",
    "block_size",
    "evaluate",
    "q_layout",
    "graph_layout",
    "map_layout",
    "psi_layout",
    "pair_layout",
]

GRAMMAR_TEXT = """\
document    := { statement (";" | NEWLINE) }
statement   := directive | declaration | task

directive   := "degree" INT
             | "convention" ("2i" | "i")

declaration := NAME "=" rhs
rhs         := expr
             | "hypersurface" "(" expr ")"          defining function Q(z, chi, tau)
             | "graph" "(" expr ")"                 graph function phi(z, chi, s)
             | "heisenberg" "(" INT ")"
             | "blowup" "(" INT "," INT ")"
             | "exp_model" "(" INT ")"
             | "m_psi" "(" expr { "," expr } ")"    components in z variables
             | "map" "(" "F" "=" expr { "," expr } "," "G" "=" expr ")"

task        := "classify" ref
             | "checkmap" ref ":" ref "->" ref
             | "prolong" NAME { "," NAME } "at" "(" INT { "," INT } ")"
             | "verify" [ "finite_type" | "infinite_type" | "easystuff" ]
             | "examples"
ref         := NAME | constructor                   constructors as in rhs

expr        := term { ("+" | "-") term }
term        := unary { ("*" | "/") unary }          "/" needs a constant divisor
unary       := "-" unary | power
power       := atom [ "^" INT ]
atom        := INT | "i" | NAME | "exp" "(" expr ")" | "(" expr ")"

Coordinates: z, z1, z2, ... and chi, chi1, ... (z and chi mean z1 and chi1),
tau in defining functions, s in graph functions, w in map components.
Rational coefficients are written p/q. "#" starts a comment to end of line.
"""

_KEYWORDS = {
    "map",
    "hypersurface",
    "graph",
    "heisenberg",
    "blowup",
    "exp_model",
    "m_psi",
    "exp",
    "i",
    "classify",
    "checkmap",
    "prolong",
    "verify",
    "examples",
    "at",
    "degree",
    "convention",
}

_SUITES = ("finite_type", "infinite_type", "easystuff")

_CTOR_KEYWORDS = ("hypersurface", "graph", "heisenberg", "blowup", "exp_model", "m_psi", "map")


# ---------------- expression AST ----------------


class Num(Record):
    value: int


class Imag(Record):
    pass


class Var(Record):
    name: str


class Neg(Record):
    arg: "ExprNode"


class BinOp(Record):
    op: str  # one of + - * /
    left: "ExprNode"
    right: "ExprNode"


class Pow(Record):
    base: "ExprNode"
    exponent: int


class Exp(Record):
    arg: "ExprNode"


ExprNode = Union[Num, Imag, Var, Neg, BinOp, Pow, Exp]


# ---------------- declarations, references, tasks ----------------


class SeriesDecl(Record):
    name: str
    expr: ExprNode


class SurfaceDecl(Record):
    name: str
    kind: str  # hypersurface | graph | heisenberg | blowup | exp_model | m_psi
    args: Tuple


class MapDecl(Record):
    name: str
    components: Tuple[ExprNode, ...]
    normal: ExprNode


Declaration = Union[SeriesDecl, SurfaceDecl, MapDecl]


class NameRef(Record):
    name: str


class CtorRef(Record):
    kind: str
    args: Tuple


Ref = Union[NameRef, CtorRef]


class ClassifyTask(Record):
    target: Ref


class CheckMapTask(Record):
    map: Ref
    source: Ref
    target: Ref


class ProlongTask(Record):
    a: str
    components: Tuple[str, ...]
    alpha: Tuple[int, ...]


class VerifyTask(Record):
    suite: Optional[str] = None


class ExamplesTask(Record):
    pass


Task = Union[ClassifyTask, CheckMapTask, ProlongTask, VerifyTask, ExamplesTask]


class InputDocument(Record):
    declarations: Tuple[Declaration, ...]
    tasks: Tuple[Task, ...]
    degree: Optional[int] = None
    convention: Optional[str] = None  # "2i" or "i"


# ---------------- tokenizer ----------------


class _Token:
    """Not a Record: the parser builds and reads several hundred tokens per
    document, and a slotted class with a plain `__init__` is cheaper there
    than the generic `Record.__init__`."""

    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind: str, text: str, line: int, column: int) -> None:
        self.kind = kind  # INT, NAME, SYM, NEWLINE, EOF
        self.text = text
        self.line = line
        self.column = column


_SYMBOLS = ("->", "+", "-", "*", "/", "^", "(", ")", "=", ",", ";", ":")


def _tokenize(text: str) -> List[_Token]:
    out: List[_Token] = []
    line, col = 1, 1
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch == "#":
            while pos < n and text[pos] != "\n":
                pos += 1
            continue
        if ch == "\n":
            out.append(_Token("NEWLINE", "\n", line, col))
            pos += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            pos += 1
            col += 1
            continue
        if ch.isdigit():
            start = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            out.append(_Token("INT", text[start:pos], line, col))
            col += pos - start
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            out.append(_Token("NAME", text[start:pos], line, col))
            col += pos - start
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, pos):
                out.append(_Token("SYM", sym, line, col))
                pos += len(sym)
                col += len(sym)
                break
        else:
            raise GrammarError(f"unexpected character {ch!r}", line, col)
    out.append(_Token("EOF", "", line, col))
    return out


# ---------------- coordinate names ----------------


def _coordinate_index(name: str) -> Optional[Tuple[str, int]]:
    """(block, subscript) for coordinate names, else None; z/chi mean index 1."""
    for block in ("chi", "z"):
        if name == block:
            return block, 1
        if name.startswith(block) and name[len(block) :].isdigit():
            sub = int(name[len(block) :])
            if sub >= 1:
                return block, sub
    if name in ("tau", "s", "w"):
        return name, 0
    return None


_POLICIES: Dict[str, Set[str]] = {
    "q": {"z", "chi", "tau"},
    "graph": {"z", "chi", "s"},
    "map": {"z", "w"},
    "psi": {"z"},
    "any": {"z", "chi", "tau", "s", "w"},
}


# ---------------- parser ----------------


class _Parser:
    def __init__(self, tokens: List[_Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def fail(self, message: str, tok: Optional[_Token] = None) -> GrammarError:
        tok = tok or self.peek()
        return GrammarError(message, tok.line, tok.column)

    def expect_sym(self, sym: str) -> _Token:
        tok = self.next()
        if tok.kind != "SYM" or tok.text != sym:
            raise self.fail(f"expected {sym!r}, found {tok.text!r}", tok)
        return tok

    def expect_name(self, word: Optional[str] = None) -> _Token:
        tok = self.next()
        if tok.kind != "NAME" or (word is not None and tok.text != word):
            want = word or "a name"
            raise self.fail(f"expected {want}, found {tok.text!r}", tok)
        return tok

    def expect_int(self) -> int:
        tok = self.next()
        if tok.kind != "INT":
            raise self.fail(f"expected an integer, found {tok.text!r}", tok)
        return int(tok.text)

    def at_sym(self, sym: str) -> bool:
        tok = self.peek()
        return tok.kind == "SYM" and tok.text == sym

    def skip_separators(self) -> None:
        while self.peek().kind == "NEWLINE" or self.at_sym(";"):
            self.next()

    # -------- expressions --------

    def parse_expr(self, policy: str) -> ExprNode:
        node = self.parse_term(policy)
        while self.peek().kind == "SYM" and self.peek().text in ("+", "-"):
            op = self.next().text
            node = BinOp(op, node, self.parse_term(policy))
        return node

    def parse_term(self, policy: str) -> ExprNode:
        node = self.parse_unary(policy)
        while self.peek().kind == "SYM" and self.peek().text in ("*", "/"):
            op = self.next().text
            node = BinOp(op, node, self.parse_unary(policy))
        return node

    def parse_unary(self, policy: str) -> ExprNode:
        if self.at_sym("-"):
            self.next()
            return Neg(self.parse_unary(policy))
        return self.parse_power(policy)

    def parse_power(self, policy: str) -> ExprNode:
        base = self.parse_atom(policy)
        if self.at_sym("^"):
            self.next()
            return Pow(base, self.expect_int())
        return base

    def parse_atom(self, policy: str) -> ExprNode:
        tok = self.next()
        if tok.kind == "INT":
            return Num(int(tok.text))
        if tok.kind == "SYM" and tok.text == "(":
            inner = self.parse_expr(policy)
            self.expect_sym(")")
            return inner
        if tok.kind == "NAME":
            if tok.text == "i":
                return Imag()
            if tok.text == "exp":
                self.expect_sym("(")
                inner = self.parse_expr(policy)
                self.expect_sym(")")
                return Exp(inner)
            coord = _coordinate_index(tok.text)
            if coord is None:
                raise self.fail(f"undeclared name {tok.text!r}", tok)
            block, sub = coord
            if block not in _POLICIES[policy]:
                raise self.fail(f"variable {tok.text!r} is not allowed here", tok)
            if block in ("z", "chi"):
                return Var(f"{block}{sub}")
            return Var(block)
        raise self.fail(f"expected an expression, found {tok.text!r}", tok)

    # -------- declarations and refs --------

    def parse_ctor(self, kind_tok: _Token) -> CtorRef:
        kind = kind_tok.text
        self.expect_sym("(")
        if kind in ("heisenberg", "exp_model"):
            args: Tuple = (self.expect_int(),)
        elif kind == "blowup":
            b = self.expect_int()
            self.expect_sym(",")
            args = (b, self.expect_int())
        elif kind in ("hypersurface", "graph"):
            args = (self.parse_expr("q" if kind == "hypersurface" else "graph"),)
        elif kind == "m_psi":
            comps = [self.parse_expr("psi")]
            while self.at_sym(","):
                self.next()
                comps.append(self.parse_expr("psi"))
            args = tuple(comps)
        elif kind == "map":
            self.expect_name("F")
            self.expect_sym("=")
            comps = [self.parse_expr("map")]
            while self.at_sym(","):
                self.next()
                if self.peek().kind == "NAME" and self.peek().text == "G":
                    break
                comps.append(self.parse_expr("map"))
            self.expect_name("G")
            self.expect_sym("=")
            normal = self.parse_expr("map")
            self.expect_sym(")")
            return CtorRef("map", (tuple(comps), normal))
        else:
            raise self.fail(f"unknown constructor {kind!r}", kind_tok)
        self.expect_sym(")")
        return CtorRef(kind, args)

    def parse_ref(self) -> Tuple[Ref, _Token]:
        tok = self.expect_name()
        if tok.text in _CTOR_KEYWORDS:
            return self.parse_ctor(tok), tok
        if tok.text in _KEYWORDS:
            raise self.fail(f"{tok.text!r} is a reserved word", tok)
        return NameRef(tok.text), tok

    def parse_declaration(self, name_tok: _Token) -> Declaration:
        name = name_tok.text
        if name in _KEYWORDS or _coordinate_index(name) is not None:
            raise self.fail(f"{name!r} is a reserved word", name_tok)
        self.expect_sym("=")
        tok = self.peek()
        if tok.kind == "NAME" and tok.text in _CTOR_KEYWORDS:
            self.next()
            ctor = self.parse_ctor(tok)
            if ctor.kind == "map":
                return MapDecl(name, ctor.args[0], ctor.args[1])
            return SurfaceDecl(name, ctor.kind, ctor.args)
        return SeriesDecl(name, self.parse_expr("any"))

    # -------- statements --------

    def parse_document(self) -> InputDocument:
        decls: List[Declaration] = []
        tasks: List[Task] = []
        degree: Optional[int] = None
        convention: Optional[str] = None
        names: Dict[str, Declaration] = {}
        refs_to_check: List[Tuple[Ref, _Token, str]] = []

        self.skip_separators()
        while self.peek().kind != "EOF":
            tok = self.next()
            if tok.kind != "NAME":
                raise self.fail(f"expected a statement, found {tok.text!r}", tok)
            word = tok.text
            if word == "degree":
                degree = self.expect_int()
                if degree < 1:
                    raise self.fail("degree must be at least 1", tok)
            elif word == "convention":
                nxt = self.next()
                if nxt.kind == "INT" and nxt.text == "2":
                    self.expect_name("i")
                    convention = "2i"
                elif nxt.kind == "NAME" and nxt.text == "i":
                    convention = "i"
                else:
                    raise self.fail("convention must be 2i or i", nxt)
            elif word == "classify":
                ref, rtok = self.parse_ref()
                refs_to_check.append((ref, rtok, "surface"))
                tasks.append(ClassifyTask(ref))
            elif word == "checkmap":
                href, htok = self.parse_ref()
                refs_to_check.append((href, htok, "map"))
                self.expect_sym(":")
                sref, stok = self.parse_ref()
                refs_to_check.append((sref, stok, "surface"))
                self.expect_sym("->")
                tref, ttok = self.parse_ref()
                refs_to_check.append((tref, ttok, "surface"))
                tasks.append(CheckMapTask(href, sref, tref))
            elif word == "prolong":
                atok = self.expect_name()
                refs_to_check.append((NameRef(atok.text), atok, "series"))
                comps: List[str] = []
                while self.at_sym(","):
                    self.next()
                    ctok = self.expect_name()
                    refs_to_check.append((NameRef(ctok.text), ctok, "series"))
                    comps.append(ctok.text)
                if not comps:
                    raise self.fail("prolong needs at least one component after the data series", atok)
                self.expect_name("at")
                self.expect_sym("(")
                alpha = [self.expect_int()]
                while self.at_sym(","):
                    self.next()
                    alpha.append(self.expect_int())
                self.expect_sym(")")
                tasks.append(ProlongTask(atok.text, tuple(comps), tuple(alpha)))
            elif word == "verify":
                nxt = self.peek()
                suite: Optional[str] = None
                if nxt.kind == "NAME":
                    if nxt.text not in _SUITES:
                        raise self.fail(
                            f"unknown suite {nxt.text!r}; one of {', '.join(_SUITES)}", nxt
                        )
                    suite = self.next().text
                tasks.append(VerifyTask(suite))
            elif word == "examples":
                tasks.append(ExamplesTask())
            else:
                decl = self.parse_declaration(tok)
                if decl.name in names:
                    raise self.fail(f"name {decl.name!r} is already declared", tok)
                names[decl.name] = decl
                decls.append(decl)
            end = self.peek()
            if end.kind not in ("NEWLINE", "EOF") and not self.at_sym(";"):
                raise self.fail(f"expected end of statement, found {end.text!r}", end)
            self.skip_separators()

        for ref, rtok, role in refs_to_check:
            if isinstance(ref, CtorRef):
                if role == "map" and ref.kind != "map":
                    raise self.fail(f"{ref.kind}(...) is not a map", rtok)
                if role == "surface" and ref.kind == "map":
                    raise self.fail("map(...) is not a hypersurface", rtok)
                continue
            decl = names.get(ref.name)
            if decl is None:
                raise self.fail(f"undeclared name {ref.name!r}", rtok)
            if role == "map" and not isinstance(decl, MapDecl):
                raise self.fail(f"{ref.name!r} is not a map", rtok)
            if role == "surface" and isinstance(decl, MapDecl):
                raise self.fail(f"{ref.name!r} is not a hypersurface", rtok)
            if role == "series" and not isinstance(decl, SeriesDecl):
                raise self.fail(f"{ref.name!r} is not a series declaration", rtok)
        return InputDocument(tuple(decls), tuple(tasks), degree, convention)


def parse(text: str) -> InputDocument:
    """Parse document text; raises GrammarError with line and column on bad input."""
    return _Parser(_tokenize(text)).parse_document()


# ---------------- canonical rendering ----------------

_PREC = {"+": 10, "-": 10, "*": 20, "/": 20}
_NEG_PREC = 25
_POW_PREC = 30
_ATOM_PREC = 100


def _prec(node: ExprNode) -> int:
    if isinstance(node, BinOp):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return _NEG_PREC
    if isinstance(node, Pow):
        return _POW_PREC
    return _ATOM_PREC


def render_expr(node: ExprNode) -> str:
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Imag):
        return "i"
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Exp):
        return f"exp({render_expr(node.arg)})"
    if isinstance(node, Neg):
        inner = render_expr(node.arg)
        if _prec(node.arg) < _NEG_PREC:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Pow):
        base = render_expr(node.base)
        if _prec(node.base) < _ATOM_PREC:
            base = f"({base})"
        return f"{base}^{node.exponent}"
    if isinstance(node, BinOp):
        mine = _PREC[node.op]
        left = render_expr(node.left)
        if _prec(node.left) < mine:
            left = f"({left})"
        right = render_expr(node.right)
        if _prec(node.right) <= mine:
            right = f"({right})"
        if node.op in ("+", "-"):
            return f"{left} {node.op} {right}"
        return f"{left}{node.op}{right}"
    raise StructureError(f"cannot render {node!r}")


def _render_ref(ref: Ref) -> str:
    if isinstance(ref, NameRef):
        return ref.name
    if ref.kind == "map":
        comps, normal = ref.args
        inner = ", ".join(render_expr(c) for c in comps)
        return f"map(F = {inner}, G = {render_expr(normal)})"
    if ref.kind in ("hypersurface", "graph"):
        return f"{ref.kind}({render_expr(ref.args[0])})"
    if ref.kind == "m_psi":
        return "m_psi(" + ", ".join(render_expr(c) for c in ref.args) + ")"
    return f"{ref.kind}(" + ", ".join(str(a) for a in ref.args) + ")"


def _render_decl(decl: Declaration) -> str:
    if isinstance(decl, SeriesDecl):
        return f"{decl.name} = {render_expr(decl.expr)}"
    if isinstance(decl, MapDecl):
        return f"{decl.name} = " + _render_ref(CtorRef("map", (decl.components, decl.normal)))
    return f"{decl.name} = " + _render_ref(CtorRef(decl.kind, decl.args))


def _render_task(task: Task) -> str:
    if isinstance(task, ClassifyTask):
        return f"classify {_render_ref(task.target)}"
    if isinstance(task, CheckMapTask):
        return (
            f"checkmap {_render_ref(task.map)} : "
            f"{_render_ref(task.source)} -> {_render_ref(task.target)}"
        )
    if isinstance(task, ProlongTask):
        comps = ", ".join(task.components)
        alpha = ", ".join(str(a) for a in task.alpha)
        return f"prolong {task.a}, {comps} at ({alpha})"
    if isinstance(task, VerifyTask):
        return "verify" if task.suite is None else f"verify {task.suite}"
    return "examples"


def render(doc: InputDocument) -> str:
    """Canonical text for a document; parse(render(doc)) == doc."""
    lines: List[str] = []
    if doc.degree is not None:
        lines.append(f"degree {doc.degree}")
    if doc.convention is not None:
        lines.append(f"convention {doc.convention}")
    lines.extend(_render_decl(d) for d in doc.declarations)
    lines.extend(_render_task(t) for t in doc.tasks)
    return "\n".join(lines) + "\n"


# ---------------- evaluation ----------------


def free_variables(node: ExprNode) -> Set[str]:
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Neg):
        return free_variables(node.arg)
    if isinstance(node, Exp):
        return free_variables(node.arg)
    if isinstance(node, Pow):
        return free_variables(node.base)
    if isinstance(node, BinOp):
        return free_variables(node.left) | free_variables(node.right)
    return set()


def block_size(nodes: Sequence[ExprNode]) -> int:
    """Number n of z (and chi) variables an expression family spans; at least 1."""
    n = 1
    for node in nodes:
        for name in free_variables(node):
            coord = _coordinate_index(name)
            if coord and coord[0] in ("z", "chi"):
                n = max(n, coord[1])
    return n


def q_layout(n: int) -> Tuple[Dict[str, int], int]:
    layout = {f"z{j + 1}": j for j in range(n)}
    layout.update({f"chi{j + 1}": n + j for j in range(n)})
    layout["tau"] = 2 * n
    return layout, 2 * n + 1


def graph_layout(n: int) -> Tuple[Dict[str, int], int]:
    layout, arity = q_layout(n)
    del layout["tau"]
    layout["s"] = 2 * n
    return layout, arity


def map_layout(n: int) -> Tuple[Dict[str, int], int]:
    layout = {f"z{j + 1}": j for j in range(n)}
    layout["w"] = n
    return layout, n + 1


def psi_layout(n: int) -> Tuple[Dict[str, int], int]:
    return {f"z{j + 1}": j for j in range(n)}, n


def pair_layout(n: int) -> Tuple[Dict[str, int], int]:
    layout, _ = q_layout(n)
    del layout["tau"]
    return layout, 2 * n


def evaluate(node: ExprNode, layout: Dict[str, int], arity: int, degree: int) -> series.Series:
    """Evaluate an expression to a truncated series over the given layout."""
    Series = series.Series
    if isinstance(node, (Num, Imag)):
        if degree < 0:  # refused as `Series` refuses it, since the trusted constructor does not
            raise StructureError("arity and truncation degree must be non-negative")
        # key 0 is the constant term, and a Gaussian integer over 1 is in lowest terms
        num = {0: (0, 1)} if isinstance(node, Imag) else {0: (node.value, 0)} if node.value else {}
        return Series._make(arity, degree, num, 1, True)
    if isinstance(node, Var):
        idx = layout.get(node.name)
        if idx is None:
            raise StructureError(f"variable {node.name} is not available in this context")
        return Series.variable(idx, arity, degree)
    if isinstance(node, Neg):
        return -evaluate(node.arg, layout, arity, degree)
    if isinstance(node, Exp):
        return series.exp_series(evaluate(node.arg, layout, arity, degree))
    if isinstance(node, Pow):
        return evaluate(node.base, layout, arity, degree) ** node.exponent
    if isinstance(node, BinOp):
        left = evaluate(node.left, layout, arity, degree)
        right = evaluate(node.right, layout, arity, degree)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if right.poly_degree > 0:
            raise StructureError("can only divide by a nonzero constant")
        c = right.constant_term
        if not c:
            raise StructureError("division by zero")
        return left.scale(scalar.qr(1) / c)
    raise StructureError(f"cannot evaluate {node!r}")
