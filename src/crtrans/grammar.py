"""Input language for the command line front end.

A document is a sequence of statements separated by newlines or semicolons:
declarations bind names to series expressions, hypersurfaces, or maps, and
tasks name the work to run. ``parse`` turns text into an ``InputDocument``,
and ``realize`` evaluates expressions in one of the coordinate contexts of
``_CONTEXTS``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import scalar, series  # the lazy modules: only `evaluate` loads the series kernel
from .errors import GrammarError, StructureError
from .record import Record

__all__ = [
    "Num",
    "Imag",
    "Var",
    "Neg",
    "BinOp",
    "Pow",
    "Exp",
    "Decl",
    "NameRef",
    "CtorRef",
    "ClassifyTask",
    "CheckMapTask",
    "ProlongTask",
    "InputDocument",
    "parse",
    "render_expr",
    "evaluate",
    "realize",
]

_MAX_NESTING = 100

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

_CTOR_KEYWORDS = ("hypersurface", "graph", "heisenberg", "blowup", "exp_model", "m_psi", "map")

# the context in which a constructor's expressions are parsed and realized
_CTOR_CONTEXTS = {"hypersurface": "q", "graph": "graph", "m_psi": "psi", "map": "map"}


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


class NameRef(Record):
    name: str


class CtorRef(Record):
    kind: str  # a constructor keyword; a map's args are (components, normal)
    args: Tuple


class Decl(Record):
    name: str
    value: Union[ExprNode, CtorRef]


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


Task = Union[ClassifyTask, CheckMapTask, ProlongTask]


class InputDocument(Record):
    declarations: Tuple[Decl, ...]
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


# context -> its coordinate blocks in layout order; z and chi take n slots each,
# the others one. "any" serves only to parse a bare expression.
_CONTEXTS: Dict[str, Tuple[str, ...]] = {
    "q": ("z", "chi", "tau"),  # defining functions
    "graph": ("z", "chi", "s"),
    "map": ("z", "w"),
    "psi": ("z",),
    "pair": ("z", "chi"),  # prolongation data
    "any": ("z", "chi", "tau", "s", "w"),
}


# ---------------- parser ----------------


class _Parser:
    def __init__(self, tokens: List[_Token]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # parentheses, exp( and unary minuses open at the current token

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

    def nest(self, tok: _Token) -> None:
        """Open one level at `tok`: the parser and the walkers of its trees
        recurse once per level, so the bound keeps them off the stack limit."""
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise self.fail(f"expression nested deeper than {_MAX_NESTING} levels", tok)

    def parse_expr(self, context: str) -> ExprNode:
        node = self.parse_term(context)
        while self.peek().kind == "SYM" and self.peek().text in ("+", "-"):
            op = self.next().text
            node = BinOp(op, node, self.parse_term(context))
        return node

    def parse_term(self, context: str) -> ExprNode:
        node = self.parse_unary(context)
        while self.peek().kind == "SYM" and self.peek().text in ("*", "/"):
            op = self.next().text
            node = BinOp(op, node, self.parse_unary(context))
        return node

    def parse_unary(self, context: str) -> ExprNode:
        if self.at_sym("-"):
            self.nest(self.next())
            node = Neg(self.parse_unary(context))
            self.depth -= 1
            return node
        return self.parse_power(context)

    def parse_power(self, context: str) -> ExprNode:
        base = self.parse_atom(context)
        if self.at_sym("^"):
            self.next()
            return Pow(base, self.expect_int())
        return base

    def parse_atom(self, context: str) -> ExprNode:
        tok = self.next()
        if tok.kind == "INT":
            return Num(int(tok.text))
        if tok.kind == "SYM" and tok.text == "(":
            self.nest(tok)
            inner = self.parse_expr(context)
            self.expect_sym(")")
            self.depth -= 1
            return inner
        if tok.kind == "NAME":
            if tok.text == "i":
                return Imag()
            if tok.text == "exp":
                self.nest(tok)
                self.expect_sym("(")
                inner = Exp(self.parse_expr(context))
                self.expect_sym(")")
                self.depth -= 1
                return inner
            coord = _coordinate_index(tok.text)
            if coord is None:
                raise self.fail(f"undeclared name {tok.text!r}", tok)
            block, sub = coord
            if block not in _CONTEXTS[context]:
                raise self.fail(f"variable {tok.text!r} is not allowed here", tok)
            if block in ("z", "chi"):
                return Var(f"{block}{sub}")
            return Var(block)
        raise self.fail(f"expected an expression, found {tok.text!r}", tok)

    # -------- declarations and refs --------

    def parse_ctor(self, kind_tok: _Token) -> CtorRef:
        kind = kind_tok.text
        context = _CTOR_CONTEXTS.get(kind)
        self.expect_sym("(")
        if kind in ("heisenberg", "exp_model"):
            args: Tuple = (self.expect_int(),)
        elif kind == "blowup":
            b = self.expect_int()
            self.expect_sym(",")
            args = (b, self.expect_int())
        elif kind in ("hypersurface", "graph"):
            args = (self.parse_expr(context),)
        elif kind == "m_psi":
            comps = [self.parse_expr(context)]
            while self.at_sym(","):
                self.next()
                comps.append(self.parse_expr(context))
            args = tuple(comps)
        elif kind == "map":
            self.expect_name("F")
            self.expect_sym("=")
            comps = [self.parse_expr(context)]
            while self.at_sym(","):
                self.next()
                if self.peek().kind == "NAME" and self.peek().text == "G":
                    break
                comps.append(self.parse_expr(context))
            self.expect_name("G")
            self.expect_sym("=")
            args = (tuple(comps), self.parse_expr(context))
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

    def parse_declaration(self, name_tok: _Token) -> Decl:
        name = name_tok.text
        if name in _KEYWORDS or _coordinate_index(name) is not None:
            raise self.fail(f"{name!r} is a reserved word", name_tok)
        self.expect_sym("=")
        tok = self.peek()
        if tok.kind == "NAME" and tok.text in _CTOR_KEYWORDS:
            self.next()
            return Decl(name, self.parse_ctor(tok))
        return Decl(name, self.parse_expr("any"))

    # -------- statements --------

    def parse_document(self) -> InputDocument:
        decls: List[Decl] = []
        tasks: List[Task] = []
        degree: Optional[int] = None
        convention: Optional[str] = None
        names: Dict[str, Decl] = {}
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
            elif word in ("verify", "examples"):
                raise self.fail(f"{word!r} is a command, not a statement: run crtrans {word}", tok)
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
                label, value = f"{ref.kind}(...)", ref
            elif ref.name in names:
                label, value = repr(ref.name), names[ref.name].value
            else:
                raise self.fail(f"undeclared name {ref.name!r}", rtok)
            kind = value.kind if isinstance(value, CtorRef) else None
            if role == "map" and kind != "map":
                raise self.fail(f"{label} is not a map", rtok)
            if role == "surface" and kind == "map":
                raise self.fail(f"{label} is not a hypersurface", rtok)
            if role == "series" and kind is not None:
                raise self.fail(f"{label} is not a series declaration", rtok)
        return InputDocument(tuple(decls), tuple(tasks), degree, convention)


def parse(text: str) -> InputDocument:
    """Parse document text; raises GrammarError with line and column on bad input."""
    return _Parser(_tokenize(text)).parse_document()


# ---------------- rendering for reports ----------------

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


def _spine(node: ExprNode) -> Tuple[ExprNode, List[BinOp]]:
    """The leftmost operand of a chain of binary operators, and the chain from
    the innermost operator out. The parser builds `a + b + ...` left-deep, so
    the walkers below loop along the chain and recurse only into its right
    operands, whose depth the nesting bound limits."""
    chain: List[BinOp] = []
    while isinstance(node, BinOp):
        chain.append(node)
        node = node.left
    chain.reverse()
    return node, chain


def render_expr(node: ExprNode) -> str:
    node, chain = _spine(node)
    if isinstance(node, Num):
        text = str(node.value)
    elif isinstance(node, Imag):
        text = "i"
    elif isinstance(node, Var):
        text = node.name
    elif isinstance(node, Exp):
        text = f"exp({render_expr(node.arg)})"
    elif isinstance(node, Neg):
        inner = render_expr(node.arg)
        text = f"-({inner})" if _prec(node.arg) < _NEG_PREC else f"-{inner}"
    elif isinstance(node, Pow):
        base = render_expr(node.base)
        if _prec(node.base) < _ATOM_PREC:
            base = f"({base})"
        text = f"{base}^{node.exponent}"
    else:
        raise StructureError(f"cannot render {node!r}")
    # a parenthesised left operand is everything rendered so far
    parts, opened, prec = [text], 0, _prec(node)
    for link in chain:
        mine = _PREC[link.op]
        if prec < mine:
            opened += 1
            parts.append(")")
        right = render_expr(link.right)
        if _prec(link.right) <= mine:
            right = f"({right})"
        parts.append(f" {link.op} {right}" if link.op in ("+", "-") else f"{link.op}{right}")
        prec = mine
    return "(" * opened + "".join(parts)


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


def _render_task(task: Task) -> str:
    if isinstance(task, ClassifyTask):
        return f"classify {_render_ref(task.target)}"
    if isinstance(task, CheckMapTask):
        return (
            f"checkmap {_render_ref(task.map)} : "
            f"{_render_ref(task.source)} -> {_render_ref(task.target)}"
        )
    comps = ", ".join(task.components)
    alpha = ", ".join(str(a) for a in task.alpha)
    return f"prolong {task.a}, {comps} at ({alpha})"


# ---------------- evaluation ----------------


def realize(
    context: str, exprs: Sequence[ExprNode], degree: int
) -> Tuple[int, Tuple[series.Series, ...]]:
    """Evaluate an expression family over the layout of `context`: (n, the
    series), where n, at least 1, is the number of z (and chi) variables the
    family spans."""
    n = 1
    stack = list(exprs)
    while stack:
        node = stack.pop()
        if isinstance(node, BinOp):
            stack += (node.left, node.right)
        elif isinstance(node, (Neg, Exp)):
            stack.append(node.arg)
        elif isinstance(node, Pow):
            stack.append(node.base)
        elif isinstance(node, Var):
            block, sub = _coordinate_index(node.name)
            if block in ("z", "chi"):
                n = max(n, sub)
    names: List[str] = []
    for block in _CONTEXTS[context]:
        names += [f"{block}{j + 1}" for j in range(n)] if block in ("z", "chi") else [block]
    layout = {name: slot for slot, name in enumerate(names)}
    return n, tuple(evaluate(e, layout, len(names), degree) for e in exprs)


def evaluate(node: ExprNode, layout: Dict[str, int], arity: int, degree: int) -> series.Series:
    """Evaluate an expression to a truncated series over the given layout."""
    Series = series.Series
    node, chain = _spine(node)
    if isinstance(node, (Num, Imag)):
        if degree < 0:  # refused as `Series` refuses it, since the trusted constructor does not
            raise StructureError("arity and truncation degree must be non-negative")
        # key 0 is the constant term, and a Gaussian integer over 1 is in lowest terms
        num = {0: (0, 1)} if isinstance(node, Imag) else {0: (node.value, 0)} if node.value else {}
        value = Series._make(arity, degree, num, 1, True)
    elif isinstance(node, Var):
        idx = layout.get(node.name)
        if idx is None:
            raise StructureError(f"variable {node.name} is not available in this context")
        value = Series.variable(idx, arity, degree)
    elif isinstance(node, Neg):
        value = -evaluate(node.arg, layout, arity, degree)
    elif isinstance(node, Exp):
        value = series.exp_series(evaluate(node.arg, layout, arity, degree))
    elif isinstance(node, Pow):
        value = evaluate(node.base, layout, arity, degree) ** node.exponent
    else:
        raise StructureError(f"cannot evaluate {node!r}")
    for link in chain:
        right = evaluate(link.right, layout, arity, degree)
        if link.op == "+":
            value = value + right
        elif link.op == "-":
            value = value - right
        elif link.op == "*":
            value = value * right
        elif right.poly_degree > 0:
            raise StructureError("can only divide by a nonzero constant")
        elif not right.constant_term:
            raise StructureError("division by zero")
        else:
            value = value.scale(scalar.qr(1) / right.constant_term)
    return value
