"""Equality, hashing and repr of nested records, without recursion.

`Record.__eq__`, `__hash__` and `__repr__` give what a frozen dataclass
gives, but walk nested records and tuples with an explicit stack. A sum is
one flat `Chain`, however long, but the deepest expression the parser
accepts, 100 parenthesised levels of `(z*chi + z*chi*X^2)`, nests some 300
records deep, and a record compared or printed by plain recursion spends
several interpreter levels on each: `==` and `repr` then exceed the default
recursion limit. Other values go to their own `==`, `hash` and `repr`.
`record` imports this module on the first such call: no command compares,
hashes or prints a record, so no command process compiles it.
"""

from __future__ import annotations

from typing import Any, Dict

from .record import Record


def _parts(value: Any, method: Any) -> Any:
    """The parts the walks step into: a tuple's items, or the field values of
    a record whose class keeps `method`; None for a leaf."""
    if value.__class__ is tuple:
        return value
    if isinstance(value, Record) and getattr(type(value), method.__name__) is method:
        return value._values()
    return None


class _Hashed:
    """Stands for a value whose hash is known, inside the tuple of its parent."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def __hash__(self) -> int:
        return self.value


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


def hash_of(record: Record) -> int:
    """`hash(record)`: the hash of the tuple of its field values."""
    # post-order: a nested record or tuple is hashed once its parts are, and
    # stands in its parent's tuple by that hash
    hashes: Dict[int, _Hashed] = {}
    pending = [record]
    while pending:
        parts = _parts(pending[-1], Record.__hash__)
        todo = [p for p in parts
                if id(p) not in hashes and _parts(p, Record.__hash__) is not None]
        if todo:
            pending.extend(todo)
            continue
        node = pending.pop()
        hashes[id(node)] = _Hashed(hash(tuple([hashes.get(id(p), p) for p in parts])))
    return hashes[id(record)].value


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
