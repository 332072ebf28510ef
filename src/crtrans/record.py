"""Immutable value classes, without code generation at import time.

A subclass of `Record` lists its fields as class annotations, in order, and
gives a default as a plain class attribute:

    class Point(Record):
        x: int
        y: int = 0

Instances are built positionally or by keyword, run `__post_init__` when the
class defines one, refuse assignment and deletion, print as
`Point(x=1, y=0)`, compare by class and field values and hash as the tuple
of their field values, as a frozen dataclass does.
`class X(Record, eq=False)` keeps identity equality and hashing instead.
`functools.cached_property` works on records, as it writes the instance
`__dict__` directly; `__post_init__` normalises a field with
`object.__setattr__`.

`to_json()` is the report form of a record: its fields in order, each
rendered by `jsonable`. This is the one place that decides how a result
becomes report JSON.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from typing import Any, Dict

__all__ = ["Record", "jsonable"]

# stores a field the way a frozen dataclass does, in the instance's own value
# storage; filling `self.__dict__` instead would give every record a dict of
# its own, which doubles the objects a parse allocates
_setattr = object.__setattr__


class Record:
    __slots__ = ()

    # per subclass: field names in order, their defaults, and whether the
    # class defines __post_init__
    _fields = ()
    _defaults: Dict[str, Any] = {}
    _post_init = False

    def __init_subclass__(cls, eq: bool = True, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        own = tuple(name for name in cls.__annotations__ if name not in cls._fields)
        cls._fields = cls._fields + own
        cls._defaults = {f: getattr(cls, f) for f in cls._fields if hasattr(cls, f)}
        cls._post_init = hasattr(cls, "__post_init__")
        if not eq:
            cls.__eq__ = object.__eq__
            cls.__hash__ = object.__hash__

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        names = self._fields
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            _setattr(self, name, value)
        if self._post_init:
            self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: Dict[str, Any]) -> list:
        """Field values in order from positional, keyword and default values."""
        names = cls._fields
        if len(args) > len(names):
            raise TypeError(
                f"{cls.__name__}() takes {len(names)} arguments but {len(args)} were given"
            )
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
        for name in kwargs:
            if name in names:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
            raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
        return values

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    # Nested records are compared and printed without recursion (see
    # `_nested`). No command compares or prints a record, so no command
    # compiles the walks. The tuple hash needs no walk.

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        from ._nested import equal

        return equal(self, other)

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        from ._nested import repr_of

        return repr_of(self)

    def to_json(self) -> Dict[str, Any]:
        return {name: jsonable(getattr(self, name)) for name in self._fields}


# checked by exact type, which is cheaper than `isinstance` on the thousands
# of values a `verify` report renders, and leaves the str-subclass enums out
_PLAIN = frozenset((type(None), bool, int, float, str))


def jsonable(value: Any) -> Any:
    """Report JSON for a value: None, bools, ints, floats and strings as they
    are, enums by value, records, mappings and sequences recursively, anything
    else (an exact scalar, a series) as its string."""
    if type(value) in _PLAIN:
        return value
    # `str()` of a str-subclass enum gives the member's qualified name
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, Record):
        return value.to_json()
    if isinstance(value, Mapping):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return str(value)
