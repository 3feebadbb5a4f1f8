"""Finite permutations of an infinite supply of atoms.

Atoms are nonnegative integers.  A finite permutation is a bijection of the
atoms that moves only finitely many of them; it is stored as the mapping of
exactly those moved atoms.  Everything downstream (orbit-finite sets, name
abstraction, term graphs, automata) acts through these permutations, so
infinite-support bijections never arise here.

The one nonstandard operation is ``restrict``: cutting a permutation down to
a finite window ``w`` so that it still acts like ``f`` on ``w`` but moves no
atoms outside ``w`` and ``f[w]``.  Its companion ``factor`` splits ``f`` into
that window part and a remainder fixing ``w`` pointwise.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class FinPerm:
    """A finitely supported permutation of the atoms.

    >>> f = FinPerm({0: 1, 1: 0})
    >>> f(0), f(1), f(7)
    (1, 0, 7)
    """

    __slots__ = ("_map",)

    def __init__(self, mapping: dict[int, int]):
        cleaned = {a: b for a, b in mapping.items() if a != b}
        for a, b in cleaned.items():
            if a < 0 or b < 0:
                raise ValueError("atoms are nonnegative integers")
        if len(set(cleaned.values())) != len(cleaned):
            raise ValueError("permutation must be injective")
        if set(cleaned.values()) != set(cleaned.keys()):
            raise ValueError("moved atoms must map onto themselves")
        self._map = cleaned

    def __call__(self, atom: int) -> int:
        return self._map.get(atom, atom)

    def moved(self) -> frozenset[int]:
        """The atoms this permutation does not fix."""
        return frozenset(self._map)

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._map.items()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FinPerm):
            return NotImplemented
        return self._map == other._map

    def __hash__(self) -> int:
        return hash(frozenset(self._map.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{a}->{b}" for a, b in self.items())
        return f"FinPerm({{{inner}}})"


def is_atom(x) -> bool:
    """True for an atom: an ``int`` that is not a ``bool`` and is ``>= 0``."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def make_perm(transpositions: Iterable[tuple[int, int]]) -> FinPerm:
    """Compose a word of transpositions, rightmost applied first.

    >>> f = make_perm([(0, 1), (1, 2)])
    >>> [f(a) for a in (0, 1, 2)]
    [1, 2, 0]
    """
    m: dict[int, int] = {}
    for x, y in transpositions:
        if x == y:
            raise ValueError("transposition needs two distinct atoms")
        if x < 0 or y < 0:
            raise ValueError("atoms are nonnegative integers")
        # precompose with (x y): x now goes where y went, and y where x went
        m[x], m[y] = m.get(y, y), m.get(x, x)
    return FinPerm(m)


def apply(f: FinPerm, atom: int) -> int:
    """Image of one atom under ``f``."""
    if atom < 0:
        raise ValueError("atoms are nonnegative integers")
    return f(atom)


def apply_set(f: FinPerm, atoms: Iterable[int]) -> frozenset[int]:
    """Pointwise image of a finite atom set."""
    return frozenset(f(a) for a in atoms)


def compose(f: FinPerm, g: FinPerm) -> FinPerm:
    """The permutation acting as ``g`` first, then ``f``."""
    carrier = f.moved() | g.moved()
    return FinPerm({a: f(g(a)) for a in carrier})


def invert(f: FinPerm) -> FinPerm:
    return FinPerm({b: a for a, b in f._map.items()})


def fresh(atoms: Iterable[int]) -> int:
    """The least atom not in the given finite set.

    >>> fresh({0, 1, 3})
    2
    """
    taken = set(atoms)
    a = 0
    while a in taken:
        a += 1
    return a


def restrict(f: FinPerm, w: Iterable[int]) -> FinPerm:
    """Cut ``f`` down to the window ``w``.

    The result agrees with ``f`` on ``w``, maps ``f[w] \\ w`` back into
    ``w \\ f[w]`` by walking inverse images of ``f`` until the walk leaves
    ``f[w]``, and fixes every atom outside ``w`` and ``f[w]``.

    >>> f = make_perm([(0, 1), (1, 2)])   # the cycle 0 -> 1 -> 2 -> 0
    >>> restrict(f, {0}) == make_perm([(0, 1)])
    True
    """
    window = frozenset(w)
    image = apply_set(f, window)
    inverse = invert(f)
    moved = {v: f(v) for v in window}
    for v in image - window:
        u = v
        while u in image:
            u = inverse(u)
        moved[v] = u
    return FinPerm(moved)


def factor(f: FinPerm, w: Iterable[int]) -> tuple[FinPerm, FinPerm]:
    """Split ``f`` as ``compose(window_part, remainder)``.

    The window part is ``restrict(f, w)``; the remainder fixes ``w``
    pointwise, so the pair witnesses that ``f`` acts on ``w`` only through
    atoms near ``w``.
    """
    window_part = restrict(f, w)
    remainder = compose(invert(window_part), f)
    return window_part, remainder


def perm_to_pairs(f: FinPerm) -> list[list[int]]:
    """Serialize as a sorted list of ``[source, target]`` pairs."""
    return [[a, b] for a, b in f.items()]


def perm_from_pairs(pairs: Iterable[Iterable[int]]) -> FinPerm:
    mapping = {}
    for pair in pairs:
        a, b = pair
        if a in mapping:
            raise ValueError(f"duplicate source atom {a}")
        mapping[a] = b
    return FinPerm(mapping)
