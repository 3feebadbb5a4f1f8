"""Shared value protocol for permutation actions and support.

A value is an atom (plain int), a tuple of values, or any object exposing
``apply_perm(perm)`` and ``support()``.  Orbit elements, abstractions, and
finitely supported functions all satisfy the protocol, so they nest freely.

Every value type stores a canonical form, so equality in the protocol is
plain ``==``: a tuple compares its items with ``==``, and the other types
compare their canonical fields.  The one exception is ``DistinctFsFun``,
whose ``==`` is the extensional test ``distinct_fs_eq``.
"""

from __future__ import annotations

from .perm import FinPerm


def act_value(f: FinPerm, value):
    """Apply a finite permutation to a value of any protocol type."""
    if isinstance(value, bool):
        raise TypeError("booleans are not values")
    if isinstance(value, int):
        if value < 0:
            raise ValueError("atoms are nonnegative integers")
        return f(value)
    if isinstance(value, tuple):
        return tuple(act_value(f, v) for v in value)
    return value.apply_perm(f)


def support_value(value) -> frozenset[int]:
    """Minimal supporting atom set of a value."""
    if isinstance(value, bool):
        raise TypeError("booleans are not values")
    if isinstance(value, int):
        if value < 0:
            raise ValueError("atoms are nonnegative integers")
        return frozenset((value,))
    if isinstance(value, tuple):
        out: frozenset[int] = frozenset()
        for v in value:
            out |= support_value(v)
        return out
    return value.support()


def value_eq(a, b) -> bool:
    """Equality in the protocol, which canonical forms make plain ``==``.

    ``DistinctFsFun`` is the one type whose ``==`` is extensional
    (``distinct_fs_eq``) rather than a comparison of stored fields.
    """
    return a == b
