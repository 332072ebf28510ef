"""Seeded document generators for the crtrans benchmark.

A workload turns a seed into a fixed list of documents. The shape of every
document (command, number of variables, monomial support, truncation degree)
is the same for every seed. The seed draws only the coefficients, the graph
convention, the rank-certificate seed and the order of the list. So the inputs
differ from seed to seed while the cost of a document set barely moves, which
is what lets ten seeds agree within the benchmark's bounds.

Every document is a plain crtrans input; the CLI never sees the seed itself.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# The smoke documents and the recorded digests are pinned to this seed.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Doc:
    """One CLI invocation: `crtrans <argv> [document file]`."""

    name: str
    argv: Tuple[str, ...]
    text: Optional[str]  # None for `verify` and `examples`, which read no document
    check: str  # which seed-independent invariants gate.py applies
    expect: Dict[str, object] = field(default_factory=dict)


def _cx(re: int, im: int) -> str:
    return f"({re}{im:+d}*i)"


def _coeff(rng: random.Random, r: int = 4) -> Tuple[int, int]:
    re, im = rng.randint(-r, r), rng.randint(-r, r)
    return (re, im) if (re, im) != (0, 0) else (1, 0)


def _mono(names: Sequence[str], exps: Sequence[int]) -> str:
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e)


def _s_power(k: int) -> str:
    return "" if k == 0 else ("*s" if k == 1 else f"*s^{k}")


def _blocks(n: int) -> Tuple[List[str], List[str]]:
    if n == 1:
        return ["z"], ["chi"]
    return [f"z{j + 1}" for j in range(n)], [f"chi{j + 1}" for j in range(n)]


def _seed_flag(rng: random.Random) -> Tuple[str, ...]:
    """The seed of the CLI's randomized rank certificates."""
    return ("--seed", str(rng.randint(0, 999)))


def _conventions(rng: random.Random, count: int) -> List[str]:
    convs = ["2i", "i"] * ((count + 1) // 2)
    rng.shuffle(convs)
    return convs[:count]


# ---------------- registry ----------------

_VERIFY_COUNTS = {
    None: {"confirmed": 49, "hypothesis_not_certified": 53, "falsified": 0},
    "finite_type": {"confirmed": 12, "hypothesis_not_certified": 8, "falsified": 0},
    "infinite_type": {"confirmed": 33, "hypothesis_not_certified": 44, "falsified": 0},
    "easystuff": {"confirmed": 4, "hypothesis_not_certified": 1, "falsified": 0},
}

# (name, map, source, target, degree, convention or None for a seeded one).
# Every map sends its source into its target. The blowup models are the
# paper's under the 2i convention; under the i convention the containment of
# blowup(3, 1) in blowup(2, 1) is certified at degree 20 and refuted at 30.
_CHECKMAPS = [
    ("blowup_44_to_34", "map(F = z*w, G = w)", "blowup(4, 4)", "blowup(3, 4)", 40, "2i"),
    ("blowup_31_to_21", "map(F = z*w, G = w)", "blowup(3, 1)", "blowup(2, 1)", 30, "2i"),
    ("exp_power_2", "map(F = z, G = w^2)", "exp_model(2)", "exp_model(1)", 40, None),
    ("exp_power_3", "map(F = z, G = w^3)", "exp_model(3)", "exp_model(1)", 40, None),
    ("exp_stretch_4", "map(F = 2*z, G = w^4)", "exp_model(1)", "exp_model(1)", 40, None),
]


def registry(rng: random.Random) -> List[Doc]:
    """The built-in registry: suites, examples and family maps at high degree."""
    runs = [
        ("verify", 8, None), ("verify", 10, None), ("verify", 12, None),
        ("verify", 10, "finite_type"), ("verify", 12, "infinite_type"),
        ("verify", 10, "easystuff"), ("examples", 10, None), ("examples", 14, None),
    ]
    convs = _conventions(rng, len(runs) + len(_CHECKMAPS))
    docs = []
    for (cmd, degree, suite), conv in zip(runs, convs):
        argv = (cmd, "--degree", str(degree), "--complexify", conv) + _seed_flag(rng)
        name = f"{cmd}_{suite or 'all'}_d{degree}"
        if cmd == "examples":
            docs.append(Doc(name, argv, None, "examples"))
            continue
        if suite:
            argv += ("--suite", suite)
        docs.append(Doc(name, argv, None, "verify", {"counts": _VERIFY_COUNTS[suite]}))
    for (name, hmap, src, tgt, degree, fixed), conv in zip(_CHECKMAPS, convs[len(runs):]):
        conv = fixed or conv
        text = f"degree {degree}\nconvention {conv}\ncheckmap {hmap} : {src} -> {tgt}\n"
        docs.append(Doc(name, ("check-map",) + _seed_flag(rng), text, "checkmap"))
    rng.shuffle(docs)
    return docs


# ---------------- dense_graph ----------------


def _support(n: int, top: int, s_max: int):
    """Monomials z^a chi^b s^k with |a|, |b| >= 1, total degree <= top, k <= s_max."""
    for total in range(2, top + 1):
        for e in itertools.product(range(total + 1), repeat=2 * n + 1):
            a, b, k = e[:n], e[n:2 * n], e[2 * n]
            if sum(e) == total and sum(a) >= 1 and sum(b) >= 1 and k <= s_max:
                yield a, b, k


def dense_phi(rng: random.Random, n: int, top: int, s_max: int) -> str:
    """A real graph function with every monomial of the support present.

    The z-chi block is a diagonally dominant Hermitian matrix, so the Levi
    form is nondegenerate and class C certifies for every seed.
    """
    z, chi = _blocks(n)
    terms = []
    for a, b, k in _support(n, top, s_max):
        if a > b:
            continue  # emitted as the conjugate partner of (b, a)
        if sum(a) + sum(b) + k == 2:  # Levi form entry
            if a == b:
                re, im = rng.choice([-1, 1]) * rng.randint(5, 8), 0
            else:
                re, im = _coeff(rng, 2)
        elif a == b:
            re, im = rng.choice([-1, 1]) * rng.randint(1, 4), 0
        else:
            re, im = _coeff(rng)
        tail = _mono(z + chi, a + b) + _s_power(k)
        if a == b:
            terms.append(f"{re}*{tail}")
        else:
            mirror = _mono(z + chi, b + a) + _s_power(k)
            terms.append(f"{_cx(re, im)}*{tail} + {_cx(re, -im)}*{mirror}")
    return " + ".join(terms)


# (n, top degree of phi, highest power of s, truncation degree). Both shapes
# cost about 0.75 s a document on the baseline machine, of which about 0.19 s
# is interpreter start-up and import.
_DENSE_SHAPES = [(2, 3, 2, 10)] * 4 + [(1, 6, 2, 10)] * 8


def dense_graph(rng: random.Random) -> List[Doc]:
    """Dense random real graphs: from_graph -> solve_implicit -> compose dominates."""
    docs = []
    shapes = list(enumerate(_DENSE_SHAPES))
    convs = _conventions(rng, len(shapes))
    for (i, (n, top, s_max, degree)), conv in zip(shapes, convs):
        text = (
            f"degree {degree}\nconvention {conv}\n"
            f"M = graph({dense_phi(rng, n, top, s_max)})\nclassify M\n"
        )
        docs.append(Doc(f"dense_n{n}_d{degree}_{i}", ("classify",) + _seed_flag(rng),
                        text, "classify_dense"))
    rng.shuffle(docs)
    return docs


# ---------------- degenerate_rank ----------------


def degenerate_phi(rng: random.Random, n: int) -> str:
    """c1 * |l(z)|^2 + c2 * |l(z)|^4 for a random linear form l in n variables.

    A real function of one linear form: the Levi form has rank one and the
    graph is holomorphically degenerate, so for n >= 2 neither class C nor
    holomorphic nondegeneracy can certify, and every gradient-family rank is
    rescanned, minor by minor, up to its cap k_max = degree - 1.
    """
    z, chi = _blocks(n)
    form = [(rng.choice([-1, 1]) * rng.randint(1, 3), rng.randint(-3, 3)) for _ in range(n)]
    ell = " + ".join(f"{_cx(re, im)}*{v}" for (re, im), v in zip(form, z))
    ell_bar = " + ".join(f"{_cx(re, -im)}*{v}" for (re, im), v in zip(form, chi))
    c1, c2 = rng.choice([1, 2, 3]), rng.choice([-3, -2, -1, 1, 2, 3])
    return f"{c1}*({ell})*({ell_bar}) + {c2}*({ell})^2*({ell_bar})^2"


def degenerate_expect(n: int, degree: int) -> Dict[str, object]:
    """What gate.py requires of a degenerate graph's nondegeneracy verdicts.

    The scan must reach its cap, and the ranks it reaches are those of a
    function of one linear form: the Levi rank one for class C (target n) and
    two for holomorphic nondegeneracy (target n + 1), whatever the seed.
    """
    return {"k_max": degree - 1,
            "rank_reached": {"class_c": 1, "holomorphically_nondegenerate": 2},
            "target": {"class_c": n, "holomorphically_nondegenerate": n + 1}}


# (n, truncation degree): about 0.8 s a document on the baseline machine,
# most of it in generic_rank.
_DEGENERATE_SHAPE = (2, 8)


def degenerate_rank(rng: random.Random) -> List[Doc]:
    """Levi-degenerate graphs: generic_rank and _det dominate."""
    n, degree = _DEGENERATE_SHAPE
    docs = []
    convs = _conventions(rng, 12)
    for i, conv in enumerate(convs):
        text = (
            f"degree {degree}\nconvention {conv}\n"
            f"M = graph({degenerate_phi(rng, n)})\nclassify M\n"
        )
        docs.append(Doc(f"degenerate_n{n}_d{degree}_{i}", ("classify",) + _seed_flag(rng),
                        text, "classify_degenerate", degenerate_expect(n, degree)))
    rng.shuffle(docs)
    return docs


# ---------------- prolong_jets ----------------


def _linear(rng: random.Random, names: Sequence[str]) -> str:
    return " + ".join(f"{_cx(*_coeff(rng, 3))}*{v}" for v in names)


def prolong_text(rng: random.Random, alpha: Tuple[int, int], degree: int, width: int) -> str:
    """A product relation A * b with exp factors and a non-constant pivot.

    The pivot coefficient of A is exp(linear chi form), a unit that is not a
    constant, so every solved jet is a FracSeries with a growing denominator.
    """
    chi = ["chi1", "chi2"]
    lines = [
        f"degree {degree}",
        f"A = {_cx(*_coeff(rng, 3))}*z2*exp({_linear(rng, chi)})"
        f" + {_cx(*_coeff(rng, 3))}*z1*(1 + {_linear(rng, chi)})"
        f" + {_cx(*_coeff(rng, 3))}*z1*z2*exp({_linear(rng, chi)})",
    ]
    names = []
    for c in range(width):
        names.append(f"b{c + 1}")
        lines.append(
            f"b{c + 1} = {_cx(*_coeff(rng, 3))}*z1*z2*chi1"
            f" + {_cx(*_coeff(rng, 3))}*z2^2*exp({_linear(rng, chi)})"
            f" + {_cx(*_coeff(rng, 3))}*z1^2*chi2"
        )
    lines.append(f"prolong A, {', '.join(names)} at ({alpha[0]}, {alpha[1]})")
    return "\n".join(lines) + "\n"


# Jet orders at truncation degree 9 with one data series: each document costs
# about 0.7 s on the baseline machine, so the orders form one cost cluster.
_PROLONG_ORDERS = [(4, 4)] * 6 + [(4, 3), (3, 4)] * 3
_PROLONG_DEGREE = 9


def prolong_jets(rng: random.Random) -> List[Doc]:
    """Prolongation with non-polynomial data: FracSeries arithmetic dominates."""
    docs = []
    for i, alpha in enumerate(_PROLONG_ORDERS):
        text = prolong_text(rng, alpha, _PROLONG_DEGREE, 1)
        docs.append(Doc(f"prolong_{alpha[0]}{alpha[1]}_{i}", ("prolong",), text, "prolong"))
    rng.shuffle(docs)
    return docs


WORKLOADS: Dict[str, Callable[[random.Random], List[Doc]]] = {
    "registry": registry,
    "dense_graph": dense_graph,
    "degenerate_rank": degenerate_rank,
    "prolong_jets": prolong_jets,
}


def generate(workload: str, seed: int) -> List[Doc]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def smoke_doc(workload: str) -> Doc:
    """One tiny document per workload, for the benchmark's own tests."""
    rng = random.Random(f"smoke:{workload}:{DEFAULT_SEED}")
    if workload == "registry":
        return Doc("smoke_verify", ("verify", "--degree", "8", "--suite", "easystuff"),
                   None, "verify", {"counts": _VERIFY_COUNTS["easystuff"]})
    if workload == "dense_graph":
        text = f"degree 6\nM = graph({dense_phi(rng, 1, 3, 1)})\nclassify M\n"
        return Doc("smoke_dense", ("classify",), text, "classify_dense")
    if workload == "degenerate_rank":
        text = f"degree 3\nM = graph({degenerate_phi(rng, 2)})\nclassify M\n"
        return Doc("smoke_degenerate", ("classify",), text, "classify_degenerate",
                   degenerate_expect(2, 3))
    return Doc("smoke_prolong", ("prolong",), prolong_text(rng, (1, 1), 6, 1), "prolong")
