"""Equality and repr of nested records, without recursion.

`Record.__eq__` and `__repr__` give what a frozen dataclass gives, but walk
nested records and tuples with an explicit stack. A sum is one flat `Chain`,
however long, but the deepest expression the parser accepts, 100
parenthesised levels of `(z*chi + z*chi*X^2)`, nests some 300 records deep,
and a record compared or printed by plain recursion spends several
interpreter levels on each: `==` and `repr` then exceed the default
recursion limit on Python 3.10 to 3.12. Other values go to their own `==`
and `repr`. A record hashes as the tuple of its field values, which spends
about one interpreter level per record and stays under the limit at that
depth, so hashing needs no walk. `record` imports this module on the first
comparison or print: no command compares or prints a record, so no command
process compiles it.
"""

from __future__ import annotations

from typing import Any

from .record import Record


def _parts(value: Any, method: Any) -> Any:
    """The parts the walks step into: a tuple's items, or the field values of
    a record whose class keeps `method`; None for a leaf."""
    if value.__class__ is tuple:
        return value
    if isinstance(value, Record) and getattr(type(value), method.__name__) is method:
        return value._values()
    return None


class _Text(str):
    """Text `repr_of` emits as it is, among the values it renders."""


def equal(a: Record, b: Record) -> bool:
    """`a == b` for two records of one class."""
    pending = [(a, b)]
    while pending:
        x, y = pending.pop()
        if x is y:
            continue
        mine = _parts(x, Record.__eq__) if y.__class__ is x.__class__ else None
        if mine is None:
            if not x == y:
                return False
            continue
        theirs = _parts(y, Record.__eq__)
        if len(mine) != len(theirs):
            return False
        pending.extend(zip(reversed(mine), reversed(theirs)))
    return True


def repr_of(record: Record) -> str:
    """`repr(record)`, as `Point(x=1, y=0)`."""
    out, pending = [], [record]
    while pending:
        node = pending.pop()
        parts = _parts(node, Record.__repr__)
        if parts is None:
            out.append(node if node.__class__ is _Text else repr(node))
            continue
        if node.__class__ is tuple:
            labels = [""] * len(parts)
            head, tail = "(", ",)" if len(parts) == 1 else ")"
        else:
            labels = [f"{name}=" for name in node._fields]
            head, tail = f"{type(node).__qualname__}(", ")"
        pending.append(_Text(tail))
        for i in reversed(range(len(parts))):
            pending += [parts[i], _Text(", " * (i > 0) + labels[i])]
        pending.append(_Text(head))
    return "".join(out)
