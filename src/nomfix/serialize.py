"""JSON encoding of protocol values and canonical emission.

Atoms are numbers, tuples are arrays, abstractions are objects with a
``binder``, quadruples are objects with a default atom ``a``; a distinct
tuple function flattens its quadruple and adds ``arity``.  Emission is
canonical (sorted keys, compact separators, trailing newline) so parsing an
emitted file and re-emitting reproduces it byte for byte.
"""

from __future__ import annotations

import json

from .abstraction import Abstraction
from .fsfunc import DistinctFsFun, FsFun

_QUADRUPLE = frozenset({"a", "d", "keys", "vals"})  # the keys every FsFun encoding has


def value_to_jsonable(value):
    if isinstance(value, bool):
        raise ValueError("booleans are not values")
    if isinstance(value, int):
        if value < 0:
            raise ValueError("atoms are nonnegative integers")
        return value
    if isinstance(value, tuple):
        return [value_to_jsonable(v) for v in value]
    if isinstance(value, Abstraction):
        return {"binder": value.binder, "body": value_to_jsonable(value.body)}
    if isinstance(value, DistinctFsFun):
        out = value_to_jsonable(value.inner)
        out["arity"] = value.arity
        return out
    if isinstance(value, FsFun):
        return {"a": value.default_atom,
                "d": value_to_jsonable(value.default_value),
                "keys": list(value.keys),
                "vals": [value_to_jsonable(v) for v in value.values]}
    raise ValueError(f"value {value!r} has no JSON form")


def value_from_jsonable(blob):
    if isinstance(blob, bool):
        raise ValueError("booleans are not values")
    if isinstance(blob, int):
        if blob < 0:
            raise ValueError("atoms are nonnegative integers")
        return blob
    if isinstance(blob, list):
        return tuple(value_from_jsonable(v) for v in blob)
    if isinstance(blob, dict):
        if "binder" in blob:
            if "body" in blob:
                return Abstraction(blob["binder"], value_from_jsonable(blob["body"]))
        elif _QUADRUPLE <= blob.keys():
            inner = FsFun(blob["a"], value_from_jsonable(blob["d"]),
                          blob["keys"], [value_from_jsonable(v) for v in blob["vals"]])
            return DistinctFsFun(blob["arity"], inner) if "arity" in blob else inner
    raise ValueError(f"unrecognized value encoding: {blob!r}")


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
