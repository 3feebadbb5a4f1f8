"""Finitely supported functions from atoms to values.

A function f with finite support is stored as a quadruple: a default atom a
outside the support, the default value f(a), the support atoms as keys, and
their images as values.  Evaluation at b is the stored image when b is a
key, and otherwise the default value with a swapped to b; that swap is what
lets one sample point represent the whole cofinite part.

The constructor canonicalizes: keys become exactly the minimal support in
ascending order, the default atom the least atom outside it.  Structural
equality of canonical quadruples is extensional equality.  The constructor
is the only place that searches for a support, with at most one swap per
candidate atom: u is in the support when it is in the (minimal) support of
some image f(b) with b other than u, or, for a key u, when swapping u with a
fresh atom moves f(u).  The action ``_moved`` uses equivariance,
supp(pi.f) = pi.supp(f), to read the image's canonical form off the stored
one in a single walk, and ``fs_eq`` is ``==``.

Functions of several distinct atoms (curried, uniformly nested quadruples)
support the gap-filling section construction: fill extends an arbitrary
tuple to a distinct one using spare atoms, giving every function on distinct
tuples a total extension that restricts back to it.  As section(pi.f, pi.w) =
pi.section(f, w), one stored section, moved, gives the support, the hash and the
section at spares off the support.  As (pi.h)(b) = pi.(h(pi^-1 b)), a read at a
distinct tuple renames each atom through the swaps that earlier reads left
pending, and moves only the value it reaches, never a function on the way.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from itertools import permutations
from typing import Mapping, Sequence

from .nomset import is_strong, min_support
from .perm import check_atoms, fresh, perm_between
from .values import Nominal, act_swap, support_value


def _raw_apply(a: int, d, keys: tuple[int, ...], vals: tuple, b: int):
    if b in keys:
        return vals[keys.index(b)]
    if a == b:
        return d
    return act_swap(a, b, d)


class FsFun(Nominal):
    """Canonical quadruple representation of one finitely supported function."""

    __slots__ = ("default_atom", "default_value", "keys", "values")

    def __init__(self, default_atom: int, default_value, keys: Sequence[int], values: Sequence):
        a, *keys = check_atoms(default_atom, *keys)
        values = tuple(values)
        if len(keys) != len(values):
            raise ValueError("keys and values must have equal length")

        d = default_value
        sd = support_value(d)
        table = {}  # each key's image, at its first occurrence, and its support
        for k, v in zip(keys, values):
            if k not in table:
                table[k] = (v, support_value(v))
        cands = {a, *sd, *table}
        for _, s in table.values():
            cands |= s
        z1 = fresh(cands)
        z2 = fresh(cands | {z1})

        # u is in the support iff (u z1).f((u z1)(b)) != f(b) at some probe b
        # in cands | {z1, z2}.  For b outside {u, z1} the swap fixes b and z1
        # is fresh for f(b), whose support lies in cands | {z2}; as
        # support_value gives minimal supports, the test there holds iff u is
        # in supp(f(b)), which off the table is (a b).supp(d) by equivariance.
        # The probes u and z1 make one test, up to the swap.  Off the table it
        # compares f(u) = (a u).d with (u z1).f(z1) = (a u).(u z1).d, which
        # differ only when u is in supp(d) - {a}, hence in supp(f(z2)); so
        # only a key needs the swap applied.  count[u] is the number of probes
        # b other than z1 with u in supp(f(b)).
        def image_support(b):
            if b in table:
                return table[b][1]
            if a in sd or b in sd:
                return frozenset(b if x == a else a if x == b else x for x in sd)
            return sd

        images = {b: image_support(b) for b in cands | {z2}}
        count = Counter(x for s in images.values() for x in s)
        at_z1 = _raw_apply(a, d, keys, values, z1)

        def at(b):
            return at_z1 if b == z1 else _raw_apply(a, d, keys, values, b)

        supp = [u for u in sorted(cands)
                if count[u] > (u in images[u])
                or u in table and act_swap(u, z1, at_z1) != table[u][0]]
        self.keys = tuple(supp)
        self.values = tuple(map(at, supp))
        self.default_atom = fresh(supp)
        self.default_value = at(self.default_atom)

    def _moved(self, f) -> "FsFun":  # f acts on values
        # By equivariance the image is supported by f(keys) and maps f(k) to
        # f.v.  It maps f(a) to f.d, and the new default atom a' to
        # (f(a) a').f.d, since neither f(a) nor a' is in its support.
        table = dict(zip(map(f, self.keys), self.values))
        out = FsFun.__new__(FsFun)
        out.keys = keys = tuple(sorted(table))
        out.values = tuple([f(table[k]) for k in keys])
        out.default_atom = fresh(out.keys)
        d, moved, a = f(self.default_value), f(self.default_atom), out.default_atom
        out.default_value = d if moved == a else act_swap(moved, a, d)
        return out

    def support(self) -> frozenset[int]:
        return frozenset(self.keys)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FsFun):
            return NotImplemented
        return ((self.default_atom, self.keys, self.default_value, self.values)
                == (other.default_atom, other.keys, other.default_value, other.values))

    def __hash__(self) -> int:
        return hash((self.default_atom, self.keys, self.default_value, self.values))

    def __repr__(self) -> str:
        table = ", ".join(f"{k}->{v!r}" for k, v in zip(self.keys, self.values))
        return f"FsFun({{{table}}}, {self.default_atom}->{self.default_value!r})"


def fs_apply(f: FsFun, b: int):
    """Evaluate: table hit on a key, else the default with its atom swapped."""
    check_atoms(b)
    return _raw_apply(f.default_atom, f.default_value, f.keys, f.values, b)


def fs_from_table(entries: Mapping[int, object], fresh_pair: tuple[int, object]) -> FsFun:
    """Build from finitely many samples plus one fresh sample point.

    >>> f = fs_from_table({1: 2}, (7, 0))
    >>> fs_apply(f, 1), fs_apply(f, 7), fs_apply(f, 9)
    (2, 0, 0)
    """
    a, d = fresh_pair
    check_atoms(a, *entries)
    if a in entries:
        raise ValueError("default atom not fresh")
    return FsFun(a, d, entries, entries.values())


def fs_eq(f: FsFun, g: FsFun) -> bool:
    """Extensional equality, which canonical quadruples make ``==``."""
    return f == g


def fs_support(f: FsFun) -> frozenset[int]:
    """Recompute the minimal support by the swap test over stored atoms."""
    return min_support(f, support_value((f.default_atom, f.default_value, f.keys, f.values)))


def uniq(v: Sequence[int]) -> tuple[int, ...]:
    """First occurrences of the tuple entries, in order.

    >>> uniq((5, 2, 5, 2))
    (5, 2)
    """
    return tuple(dict.fromkeys(v))


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
    out = _fill(v, _spares(n, w, v))
    assert len(set(out)) == n
    return out


def _spares(n: int, w: Sequence[int], atoms: Sequence[int] = ()) -> tuple[int, ...]:
    w = tuple(w)
    check_atoms(*atoms, *w)
    if len(w) != 2 * n or len(set(w)) != len(w):
        raise ValueError("fill requires 2n distinct atoms")
    return w


def _fill(v: Sequence[int], w: tuple[int, ...]) -> tuple[int, ...]:  # w from _spares
    return (uniq(v) + tuple(b for b in w if b not in v))[:len(v)]


def nesting_depth(value) -> int:
    """Depth of uniformly nested quadruples: 0 for any non-function value."""
    if not isinstance(value, FsFun):
        return 0
    depths = {nesting_depth(v) for v in (value.default_value, *value.values)}
    if len(depths) != 1:
        raise ValueError("values must nest uniformly")
    return 1 + depths.pop()


class DistinctFsFun(Nominal):
    """A nested function read only at pairwise distinct argument tuples."""

    __slots__ = ("arity", "inner", "_slot")  # see _stored

    def __init__(self, arity: int, inner: FsFun):
        if isinstance(arity, bool) or not isinstance(arity, int) or arity < 1:
            raise ValueError("arity must be at least 1")
        if nesting_depth(inner) != arity:
            raise ValueError("inner nesting depth must equal the arity")
        self.arity, self.inner, self._slot = arity, inner, None

    def _moved(self, f) -> "DistinctFsFun":  # f keeps the nesting depth
        return _restriction(self.arity, self.inner._moved(f))

    def support(self) -> frozenset[int]:
        return _stored(self)[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DistinctFsFun):
            return NotImplemented
        return distinct_fs_eq(self, other)

    def __hash__(self) -> int:
        supp, w, g = _stored(self)  # at the least spares off supp(f), g depends on f alone
        if w != (w0 := _least_outside(supp, len(w))):
            self._slot = supp, w0, (g := g.apply_perm(perm_between(w, w0)))
        return hash((self.arity, g))

    def __repr__(self) -> str:
        return f"DistinctFsFun(arity={self.arity}, {self.inner!r})"


def restrict_distinct(g: FsFun) -> DistinctFsFun:
    """Forget the values of a nested function off the distinct tuples."""
    arity = nesting_depth(g)  # DistinctFsFun(arity, g) would walk g a second time
    if arity < 1:
        raise ValueError("arity must be at least 1")
    return _restriction(arity, g)


def _restriction(arity: int, inner: FsFun) -> DistinctFsFun:
    """``DistinctFsFun(arity, inner)`` for an ``inner`` known to nest ``arity`` deep."""
    out = DistinctFsFun.__new__(DistinctFsFun)
    out.arity, out.inner, out._slot = arity, inner, None
    return out


def distinct_apply(f: DistinctFsFun, atoms: Sequence[int]):
    v = check_atoms(*atoms)
    if len(v) != f.arity:
        raise ValueError(f"expected {f.arity} atoms")
    if len(set(v)) != len(v):
        raise ValueError("arguments must be pairwise distinct")
    return reduce(fs_apply, v, f.inner)


def _read(h: FsFun, v: Sequence[int]):
    """``h`` applied to the atoms of ``v`` in turn, building no moved function.

    By equivariance, (pi.h)(b) = pi.(h(pi^-1 b)): a read off the table of h
    is the default value d under a pending swap sigma = (a b), and a later
    read of sigma.d at b is sigma.(d(sigma^-1 b)).  So each atom is renamed
    through the pending swaps, earliest first, and only the last value
    reached gets them, latest first."""
    swaps = []
    for b in v:
        for x, y in swaps:
            b = y if b == x else x if b == y else b
        if b in h.keys:
            h = h.values[h.keys.index(b)]
        else:
            if b != h.default_atom:
                swaps.append((h.default_atom, b))
            h = h.default_value
    for x, y in reversed(swaps):
        h = act_swap(x, y, h)
    return h


def distinct_fs_eq(f: DistinctFsFun, g: DistinctFsFun) -> bool:
    """Equality of restrictions: compare on joint-support tuples plus spares."""
    if f.arity != g.arity:
        return False
    s = f.inner.support() | g.inner.support()
    probe = sorted(s) + list(_least_outside(s, f.arity))
    return all(_read(f.inner, v) == _read(g.inner, v) for v in permutations(probe, f.arity))


def section(f: DistinctFsFun, w: Sequence[int]) -> FsFun:
    """A total nested function restricting back to ``f``.

    Reads off distinct tuples are routed through ``fill`` with the spare
    tuple ``w``, so the result agrees with ``f`` wherever ``f`` is defined.
    As section(pi.f, pi.w) = pi.section(f, w), a ``w`` outside the support of
    ``f`` gets the stored section moved onto it, and the stored spares get it
    unmoved, since they move it by the identity:

    >>> f = restrict_distinct(fs_from_table({}, (0, fs_from_table({}, (1, 1)))))  # (a, b) -> b
    >>> g0 = section(f, range(4))
    >>> section(f, range(5, 9)) == g0.apply_perm(perm_between(range(4), range(5, 9)))
    True
    >>> section(f, range(4)) is section(f, range(4))
    True
    """
    w = _spares(f.arity, w)
    supp, ws, g = _stored(f, w)  # filled here too, so later spares off supp(f) reuse it
    if w == ws:
        return g
    return g.apply_perm(perm_between(ws, w)) if supp.isdisjoint(w) else _section(f, w)


def _stored(f: DistinctFsFun, w: tuple[int, ...] = ()):
    """Fill once ``(supp(f), w, section(f, w))``, at spares ``w`` that miss the inner support or
    else the least that do; by equivariance the section's support is supp(f) and some of ``w``."""
    if f._slot is None:
        s = f.inner.support()
        w = w if w and s.isdisjoint(w) else _least_outside(s, 2 * f.arity)
        g = _section(f, w)
        f._slot = frozenset(g.keys).difference(w), w, g
    return f._slot


def _least_outside(atoms, k: int) -> tuple[int, ...]:
    return tuple([a for a in range(len(atoms) + k) if a not in atoms][:k])


def _section(f: DistinctFsFun, w: tuple[int, ...]) -> FsFun:  # w from _spares
    base = sorted(f.inner.support() | set(w))

    def build(prefix: tuple[int, ...]) -> object:
        if len(prefix) == f.arity:
            return _read(f.inner, _fill(prefix, w))
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
