"""Exponent multi-indices for sparse terms.

A multi-index is a plain tuple of non-negative ints. Two total orders are
used: pure lexicographic (tuple comparison) and graded lexicographic
(total degree first, then lex). Keys below plug into sorted()/min().
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterator, Optional, Tuple

MultiIndex = Tuple[int, ...]


def degree(idx: MultiIndex) -> int:
    return sum(idx)


def grlex_key(idx: MultiIndex) -> Tuple[int, MultiIndex]:
    return (sum(idx), idx)


def unit(arity: int, var: int) -> MultiIndex:
    return tuple(1 if j == var else 0 for j in range(arity))


def factorial(idx: MultiIndex) -> int:
    """Product of the factorials of the entries."""
    out = 1
    for e in idx:
        out *= math.factorial(e)
    return out


def add(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(x + y for x, y in zip(a, b))


def subtract(a: MultiIndex, b: MultiIndex) -> Optional[MultiIndex]:
    """Componentwise a - b, or None if any entry would go negative."""
    out = []
    for x, y in zip(a, b):
        if x < y:
            return None
        out.append(x - y)
    return tuple(out)


def iter_degree(arity: int, total: int) -> Iterator[MultiIndex]:
    """All multi-indices of the given arity with exactly the given degree."""
    if arity == 0:
        if total == 0:
            yield ()
        return
    # stars and bars
    for bars in combinations(range(total + arity - 1), arity - 1):
        prev = -1
        idx = []
        for b in bars:
            idx.append(b - prev - 1)
            prev = b
        idx.append(total + arity - 2 - prev)
        yield tuple(idx)
