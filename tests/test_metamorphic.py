"""A change of normal coordinates leaves every classify verdict's status alone.

Finite type and its order, class C, class C_m and holomorphic nondegeneracy
are biholomorphic invariants, so a document re-expressed in other normal
coordinates must get the same statuses; no oracle is needed. A derandomized
property draws documents of the benchmark's dense_graph and degenerate_rank
shapes (the dense ones also times s^j, so that infinite type and class C_m
come up) and re-expresses each under

- z -> U z and chi -> conj(U) chi, for an invertible U over Q[i], and
- w -> r w for a nonzero rational r, which takes phi(z, chi, s) to
  r phi(z, chi, s / r).

Both keep phi real and vanishing when z = 0 or chi = 0, and both keep each
homogeneous degree, so the truncation degree reads the same data. Statuses
are compared, not witnesses, which name coordinates.

Needs the optional `hypothesis` package (the `test` extra).
"""

import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from crtrans import grammar  # noqa: E402
from crtrans.document import _run_classify  # noqa: E402

# the benchmark's document generators, imported with nothing left behind in
# perfbench/ and sys.path restored afterwards
_saved = list(sys.path), sys.dont_write_bytecode
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
sys.dont_write_bytecode = True
import workloads  # noqa: E402

sys.path[:], sys.dont_write_bytecode = _saved

COORDINATE = re.compile(r"\b(z|chi)(\d*)\b|\bs\b")


def gaussian(re_part: Fraction, im_part: Fraction) -> str:
    return f"({re_part} + ({im_part})*i)"


def transformed(phi: str, u, r: Fraction) -> str:
    """r * phi(U z, conj(U) chi, s / r), as document text."""

    def image(match) -> str:
        if match.group(1) is None:
            return f"(1/({r})*s)"
        block, row = match.group(1), int(match.group(2) or 1) - 1
        sign = 1 if block == "z" else -1  # chi takes the conjugate row
        return "(" + " + ".join(
            f"{gaussian(a, sign * b)}*{block}{j + 1}" for j, (a, b) in enumerate(u[row])
        ) + ")"

    return f"({r})*({COORDINATE.sub(image, phi)})"


def statuses(phi: str, degree: int, conv: str) -> dict:
    doc = grammar.parse(f"M = graph({phi})\nclassify M\n")
    env = {d.name: d for d in doc.declarations}
    result = _run_classify(doc.tasks[0], env, degree, conv)[0]
    cls = result["classification"]
    return {
        "kind": cls["kind"],
        "m": cls["m"],
        **{key: result[key] and result[key]["status"]
           for key in ("validate", "class_c", "class_cm", "holomorphically_nondegenerate")},
    }


def determinant(u):
    """Of a 1x1 or 2x2 matrix of (re, im) pairs, as an (re, im) pair."""
    def mul(x, y):
        return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    if len(u) == 1:
        return u[0][0]
    p, q = mul(u[0][0], u[1][1]), mul(u[0][1], u[1][0])
    return (p[0] - q[0], p[1] - q[1])


small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))


@st.composite
def documents(draw):
    """(phi text, n) of a dense_graph or degenerate_rank shape, from a drawn seed."""
    rng = random.Random(draw(st.integers(0, 2**16)))
    shape = rng.randrange(4)  # the seed, not a shrinking draw, spreads the shapes
    if shape == 3:
        return workloads.degenerate_phi(rng, 2), 2
    n = rng.randint(1, 2)
    phi = workloads.dense_phi(rng, n, 3, 2)
    # s^j phi is of infinite type m = j when j > 0
    return (f"({phi})*s^{shape}" if shape else phi), n


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(documents(), st.data(), st.sampled_from(["2i", "i"]), st.integers(4, 7))
def test_a_change_of_normal_coordinates_keeps_every_verdict_status(doc, data, conv, degree):
    phi, n = doc
    u = data.draw(st.lists(st.lists(st.tuples(small, small), min_size=n, max_size=n),
                           min_size=n, max_size=n), label="U")
    assume(determinant(u) != (0, 0))
    r = data.draw(small.filter(bool), label="r")
    assert statuses(transformed(phi, u, r), degree, conv) == statuses(phi, degree, conv)
