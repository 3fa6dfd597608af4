"""Building a frozen config dataclass from a JSON object.

The dataclass's annotations are the schema: a key must name a field, and its
value must have the field's JSON type. A `bool` is not a number, an integer
is a valid float, `X | None` also takes null, and `tuple[...]` takes a list of
exactly that many values, stored as a tuple.
"""

from __future__ import annotations

import types
import typing
from dataclasses import fields


def _fits(value, hint) -> bool:
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_fits(value, h) for h in typing.get_args(hint))
    if origin is tuple:
        args = typing.get_args(hint)
        return (isinstance(value, (list, tuple)) and len(value) == len(args)
                and all(_fits(v, h) for v, h in zip(value, args)))
    if hint is type(None):
        return value is None
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def from_json(cls, d: dict, error: type[Exception], what: str):
    """`cls(**d)` after checking every key and value of `d`; a failure
    raises `error`, naming the key and the value."""
    by_name = {f.name: f for f in fields(cls)}
    if unknown := sorted(set(d) - set(by_name)):
        raise error(f"unknown {what} key(s): {', '.join(unknown)}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in d.items():
        if not _fits(value, hints[key]):
            raise error(f"{what} key {key!r} needs {by_name[key].type}, got {value!r}")
        kwargs[key] = tuple(value) if isinstance(value, list) else value
    return cls(**kwargs)
