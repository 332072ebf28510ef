"""Exponent tuple helpers and the graded lexicographic order.

`iter_up_to` lists the exponents of a truncated series in order for the tests
and their property generators; no library code needs it.
"""

from typing import Iterator

from crtrans import multiindex as mi


def iter_up_to(arity: int, max_total: int) -> Iterator[mi.MultiIndex]:
    """All multi-indices with degree at most max_total, graded lex order."""
    for d in range(max_total + 1):
        yield from sorted(mi.iter_degree(arity, d))


def test_degree_and_unit():
    assert mi.degree((2, 0, 3)) == 5
    assert mi.unit(3, 1) == (0, 1, 0)


def test_add_subtract():
    assert mi.add((1, 2), (0, 3)) == (1, 5)
    assert mi.subtract((1, 5), (0, 3)) == (1, 2)
    assert mi.subtract((1, 0), (0, 1)) is None


def test_grlex_sequence():
    # degree first, then plain tuple comparison inside a degree slice
    got = list(iter_up_to(2, 2))
    assert got == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert got == sorted(got, key=mi.grlex_key)


def test_iter_degree_counts():
    # stars and bars: C(d + n - 1, n - 1)
    assert len(list(mi.iter_degree(3, 4))) == 15
    assert all(mi.degree(a) == 4 for a in mi.iter_degree(3, 4))


def test_grlex_translation_invariance():
    # the order must be compatible with addition for triangular solving
    pairs = [((0, 1), (1, 0)), ((1, 1), (2, 0)), ((0, 2), (1, 1))]
    shift = (2, 3)
    for a, b in pairs:
        assert mi.grlex_key(a) < mi.grlex_key(b)
        assert mi.grlex_key(mi.add(a, shift)) < mi.grlex_key(mi.add(b, shift))
