"""Finitely supported functions from atoms to values.

A function f with finite support is stored as a quadruple: a default atom a
outside the support, the default value f(a), the support atoms as keys, and
their images as values.  Evaluation at b is the stored image when b is a
key, and otherwise the default value with a swapped to b; that swap is what
lets one sample point represent the whole cofinite part.

The constructor canonicalizes: keys become exactly the minimal support in
ascending order, the default atom the least atom outside it.  Structural
equality of canonical quadruples is extensional equality.

Functions of several distinct atoms (curried, uniformly nested quadruples)
support the gap-filling section construction: fill extends an arbitrary
tuple to a distinct one using spare atoms, giving every function on distinct
tuples a total extension that restricts back to it.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Sequence

from .nomset import is_strong, min_support
from .perm import FinPerm, fresh, is_atom, make_perm
from .values import act_value, support_value


def _raw_apply(a: int, d, keys: Sequence[int], vals: Sequence, b: int):
    for k, x in zip(keys, vals):
        if k == b:
            return x
    if a == b:
        return d
    return act_value(make_perm([(a, b)]), d)


class FsFun:
    """Canonical quadruple representation of one finitely supported function."""

    __slots__ = ("default_atom", "default_value", "keys", "values")

    def __init__(self, default_atom: int, default_value, keys: Sequence[int], values: Sequence):
        a = default_atom
        keys = tuple(keys)
        if not is_atom(a) or not all(map(is_atom, keys)):
            raise ValueError("atoms are nonnegative integers")
        values = tuple(values)
        if len(keys) != len(values):
            raise ValueError("keys and values must have equal length")

        def raw(b):
            return _raw_apply(a, default_value, keys, values, b)

        cands = frozenset({a}) | frozenset(keys) | support_value(default_value)
        for v in values:
            cands |= support_value(v)
        z1 = fresh(cands)
        z2 = fresh(cands | {z1})
        probes = sorted(cands) + [z1, z2]
        supp = []
        for u in sorted(cands):
            swap = make_perm([(u, z1)])
            if any(act_value(swap, raw(swap(b))) != raw(b) for b in probes):
                supp.append(u)
        self.keys = tuple(supp)
        self.values = tuple(raw(k) for k in supp)
        self.default_atom = fresh(supp)
        self.default_value = raw(self.default_atom)

    def apply_perm(self, f: FinPerm) -> "FsFun":
        return FsFun(f(self.default_atom),
                     act_value(f, self.default_value),
                     tuple(f(k) for k in self.keys),
                     tuple(act_value(f, v) for v in self.values))

    def support(self) -> frozenset[int]:
        return frozenset(self.keys)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FsFun):
            return NotImplemented
        return ((self.default_atom, self.keys, self.default_value, self.values)
                == (other.default_atom, other.keys, other.default_value, other.values))

    def __hash__(self) -> int:
        return hash((self.default_atom, self.keys))

    def __repr__(self) -> str:
        table = ", ".join(f"{k}->{v!r}" for k, v in zip(self.keys, self.values))
        return f"FsFun({{{table}}}, {self.default_atom}->{self.default_value!r})"


def fs_apply(f: FsFun, b: int):
    """Evaluate: table hit on a key, else the default with its atom swapped."""
    if not is_atom(b):
        raise ValueError("atoms are nonnegative integers")
    return _raw_apply(f.default_atom, f.default_value, f.keys, f.values, b)


def fs_from_table(entries: Mapping[int, object], fresh_pair: tuple[int, object]) -> FsFun:
    """Build from finitely many samples plus one fresh sample point.

    >>> f = fs_from_table({1: 2}, (7, 0))
    >>> fs_apply(f, 1), fs_apply(f, 7), fs_apply(f, 9)
    (2, 0, 0)
    """
    a, d = fresh_pair
    if a in entries:
        raise ValueError("default atom not fresh")
    keys = tuple(sorted(entries))
    return FsFun(a, d, keys, tuple(entries[k] for k in keys))


def fs_eq(f: FsFun, g: FsFun) -> bool:
    """Extensional equality, decided on the joint support plus one fresh atom."""
    s = f.support() | g.support()
    probes = sorted(s) + [fresh(s)]
    return all(fs_apply(f, b) == fs_apply(g, b) for b in probes)


def fs_support(f: FsFun) -> frozenset[int]:
    """Recompute the minimal support by the swap test over stored atoms."""
    cands = frozenset({f.default_atom}) | frozenset(f.keys) | support_value(f.default_value)
    for v in f.values:
        cands |= support_value(v)
    return min_support(f, cands)


def uniq(v: Sequence[int]) -> tuple[int, ...]:
    """First occurrences of the tuple entries, in order.

    >>> uniq((5, 2, 5, 2))
    (5, 2)
    """
    seen: list[int] = []
    for a in v:
        if a not in seen:
            seen.append(a)
    return tuple(seen)


def fill(v: Sequence[int], w: Sequence[int]) -> tuple[int, ...]:
    """Extend ``v`` to a distinct tuple of the same length using spares from ``w``.

    Keeps the first occurrences of ``v`` and pads with the entries of ``w``
    that avoid ``v``; the spare tuple must hold 2n distinct atoms for n >= 1,
    which guarantees enough padding.

    >>> fill((3, 3), (0, 1, 2, 4))
    (3, 0)
    """
    n = len(v)
    if n == 0:
        raise ValueError("fill needs at least one position")
    w = tuple(w)
    if len(w) != 2 * n or len(set(w)) != len(w):
        raise ValueError("fill requires 2n distinct atoms")
    spares = [b for b in w if b not in v]
    out = (uniq(v) + tuple(spares))[:n]
    assert len(set(out)) == n
    return out


def nesting_depth(value) -> int:
    """Depth of uniformly nested quadruples: 0 for any non-function value."""
    if not isinstance(value, FsFun):
        return 0
    depths = {nesting_depth(value.default_value)}
    depths.update(nesting_depth(v) for v in value.values)
    if len(depths) != 1:
        raise ValueError("values must nest uniformly")
    return 1 + depths.pop()


class DistinctFsFun:
    """A nested function read only at pairwise distinct argument tuples."""

    __slots__ = ("arity", "inner")

    def __init__(self, arity: int, inner: FsFun):
        if not isinstance(arity, int) or arity < 1:
            raise ValueError("arity must be at least 1")
        if nesting_depth(inner) != arity:
            raise ValueError("inner nesting depth must equal the arity")
        self.arity = arity
        self.inner = inner

    def apply_perm(self, f: FinPerm) -> "DistinctFsFun":
        return DistinctFsFun(self.arity, self.inner.apply_perm(f))

    def support(self) -> frozenset[int]:
        return min_support(self, self.inner.support())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DistinctFsFun):
            return NotImplemented
        return distinct_fs_eq(self, other)

    def __hash__(self) -> int:
        # extensional equality admits differing inner forms, so hash coarsely
        return hash(("DistinctFsFun", self.arity))

    def __repr__(self) -> str:
        return f"DistinctFsFun(arity={self.arity}, {self.inner!r})"


def restrict_distinct(g: FsFun) -> DistinctFsFun:
    """Forget the values of a nested function off the distinct tuples."""
    return DistinctFsFun(nesting_depth(g), g)


def distinct_apply(f: DistinctFsFun, atoms: Sequence[int]):
    v = tuple(atoms)
    if len(v) != f.arity:
        raise ValueError(f"expected {f.arity} atoms")
    if len(set(v)) != len(v):
        raise ValueError("arguments must be pairwise distinct")
    out = f.inner
    for a in v:
        out = fs_apply(out, a)
    return out


def distinct_fs_eq(f: DistinctFsFun, g: DistinctFsFun) -> bool:
    """Equality of restrictions: compare on joint-support tuples plus spares."""
    if f.arity != g.arity:
        return False
    probe = sorted(f.inner.support() | g.inner.support())
    for _ in range(f.arity):
        probe.append(fresh(probe))
    return all(distinct_apply(f, v) == distinct_apply(g, v)
               for v in itertools.permutations(probe, f.arity))


def section(f: DistinctFsFun, w: Sequence[int]) -> FsFun:
    """A total nested function restricting back to ``f``.

    Reads off distinct tuples are routed through ``fill`` with the spare
    tuple ``w``, so the result agrees with ``f`` wherever ``f`` is defined
    and extends it everywhere else.
    """
    n = f.arity
    w = tuple(w)
    if len(w) != 2 * n or len(set(w)) != len(w):
        raise ValueError("fill requires 2n distinct atoms")
    base = sorted(f.inner.support() | set(w))

    def build(prefix: tuple[int, ...]) -> object:
        if len(prefix) == n:
            return distinct_apply(f, fill(prefix, w))
        probe = sorted(set(base) | set(prefix))
        a = fresh(probe)
        table = {t: build(prefix + (t,)) for t in probe}
        return fs_from_table(table, (a, build(prefix + (a,))))

    return build(())


def strong_exponent_apply(components: Mapping[str, object], p) -> object:
    """Evaluate an exponent given by one component per orbit of a strong set.

    Degree-0 orbits carry plain values; positive degrees carry distinct-tuple
    functions whose arity matches the degree, applied to the registers.
    """
    family = p.family
    if not is_strong(family):
        raise ValueError("exponent requires a strong nominal set")
    if p.orbit not in components:
        raise ValueError(f"missing component for orbit {p.orbit!r}")
    component = components[p.orbit]
    degree = family.orbit(p.orbit).degree
    if degree == 0:
        return component
    if not isinstance(component, DistinctFsFun) or component.arity != degree:
        raise ValueError(f"component for orbit {p.orbit!r} must have arity {degree}")
    return distinct_apply(component, p.registers)
