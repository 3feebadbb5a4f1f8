"""Shared value protocol for permutation actions and support.

A value is an atom (plain int), a tuple of values, or any object exposing
``apply_perm(perm)`` and ``support()``.  Orbit elements, abstractions, and
finitely supported functions nest freely; they are ``Nominal``: each moves
by one private ``_moved(f)``, whether ``f`` applies a permutation or a swap.

Every value type stores a canonical form, so equality in the protocol is
plain ``==``: a tuple compares its items with ``==``, and the other types
compare their canonical fields.  The one exception is ``DistinctFsFun``,
whose ``==`` is the extensional test ``distinct_fs_eq``.
"""

from __future__ import annotations

from functools import partial

from .perm import FinPerm, make_perm


class Nominal:
    """Base of the nomfix value types; each defines ``_moved(f)``, its image
    under a function ``f`` that acts on values as one permutation does."""

    __slots__ = ()

    def apply_perm(self, pi: FinPerm):
        return self._moved(partial(act_value, pi))


def act_value(f: FinPerm, value):
    """Apply a finite permutation to a value of any protocol type."""
    if value.__class__ is int and value >= 0:
        return f(value)
    if isinstance(value, bool):
        raise TypeError("booleans are not values")
    if isinstance(value, int):
        if value < 0:
            raise ValueError("atoms are nonnegative integers")
        return f(value)
    if isinstance(value, tuple):
        return tuple(act_value(f, v) for v in value)
    return value.apply_perm(f)


def act_swap(x: int, y: int, value):
    """``act_value(make_perm([(x, y)]), value)`` for distinct atoms x, y, unchecked; atoms,
    tuples and ``Nominal`` values (through ``_moved``) swap without building it."""
    if value.__class__ is int and value >= 0:
        return y if value == x else x if value == y else value
    if value.__class__ is tuple:
        return tuple([act_swap(x, y, v) for v in value])
    if isinstance(value, Nominal):
        return value._moved(partial(act_swap, x, y))
    return act_value(make_perm([(x, y)]), value)


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
