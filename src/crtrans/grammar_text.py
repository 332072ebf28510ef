"""The input grammar as `crtrans print-grammar` prints it.

Its own module, so that `print-grammar` compiles neither the parser nor
the records it builds; `grammar` does not import it.
"""

__all__ = ["GRAMMAR_TEXT"]

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
ref         := NAME | constructor                   constructors as in rhs

expr        := term { ("+" | "-") term }
term        := unary { ("*" | "/") unary }          "/" needs a constant divisor
unary       := "-" unary | power
power       := atom [ "^" INT ]
atom        := INT | "i" | NAME | "exp" "(" expr ")" | "(" expr ")"

Coordinates: z, z1, z2, ... and chi, chi1, ... (z and chi mean z1 and chi1),
tau in defining functions, s in graph functions, w in map components.
Rational coefficients are written p/q. "#" starts a comment to end of line.
Parentheses, exp(...) and unary minus nest at most 100 deep.
"""
