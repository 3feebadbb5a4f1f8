"""Orbit-finite nominal sets in register representation.

A set is described by finitely many orbits.  An orbit of degree n holds the
elements reachable from one n-tuple of distinct atoms, quotiented by a
coordinate symmetry group: ordered pairs have trivial symmetry, unordered
pairs are quotiented by the swap, necklaces by cyclic shifts.  An element is
stored as its orbit name plus the lexicographically least register tuple in
its symmetry coset, so structural equality is semantic equality.  Orbit
descriptors and elements are immutable records.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Optional, Sequence

from .perm import FinPerm, check_atoms, fresh, is_atom, perm_between
from .record import Family, Record, fill
from .search import bfs, picker
from .values import Nominal, act_swap

MAX_DEGREE = 8


def _mulclose(degree: int, generators: Sequence[tuple[int, ...]]) -> frozenset[tuple[int, ...]]:
    def expand(p, seen, push):
        for q in (tuple(p[i] for i in g) for g in generators):
            if q not in seen:
                seen.add(q)
                push.append(q)
        return push

    identity = tuple(range(degree))
    return frozenset(bfs((identity, identity), expand)[1])


class CoordGroup:
    """A permutation group on register coordinates, closed eagerly."""

    __slots__ = ("degree", "generators", "closure", "order", "_pickers")

    def __init__(self, degree: int, generators: Iterable[Sequence[int]] = ()):
        if not is_atom(degree):
            raise ValueError("degree must be a nonnegative integer")
        if degree > MAX_DEGREE:
            raise ValueError(f"degree {degree} above supported bound {MAX_DEGREE}")
        gens = []
        for g in generators:
            g = tuple(g)
            if not all(map(is_atom, g)) or sorted(g) != list(range(degree)):
                raise ValueError(f"generator {g} is not a permutation of 0..{degree - 1}")
            gens.append(g)
        self.degree = degree
        self.generators = tuple(gens)
        self.closure = _mulclose(degree, gens)
        self.order = len(self.closure)
        # a picker per coset member, but none in the trivial groups of automata
        self._pickers = tuple(map(picker, self.closure)) if self.order > 1 else ()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoordGroup):
            return NotImplemented
        return self.degree == other.degree and self.closure == other.closure

    def __hash__(self) -> int:
        return hash((self.degree, self.closure))

    def __repr__(self) -> str:
        return f"CoordGroup({self.degree}, order={self.order})"


class OrbitDescriptor(Record):
    __slots__ = ("name", "degree", "symmetry")

    def __init__(self, name: str, degree: int, symmetry: CoordGroup):
        if symmetry.degree != degree:
            raise ValueError("symmetry degree must match orbit degree")
        fill(self, name, degree, symmetry)


class OrbitFiniteSet(Family):
    __slots__ = ()
    _repeated, _unknown = "duplicate orbit name {!r}", "unknown orbit {!r}"
    orbits, orbit = Family._members, Family._lookup


def _canonical_coset(symmetry: CoordGroup, registers: tuple[int, ...]) -> tuple[int, ...]:
    # a trivial group has no pickers: its one coset member is the tuple itself
    return min([p(registers) for p in symmetry._pickers]) if symmetry._pickers else registers


class Element(Record, Nominal):
    """One element: orbit name plus canonical distinct register tuple.  Its
    hash leaves out the family, which is slow to hash and rarely differs."""

    __slots__ = ("family", "orbit", "registers")

    def __init__(self, family: OrbitFiniteSet, orbit: str, registers: Sequence[int]):
        descriptor = family.orbit(orbit)
        regs = tuple(registers)
        if len(regs) != descriptor.degree:
            raise ValueError(f"orbit {orbit!r} needs {descriptor.degree} registers")
        if not all(map(is_atom, regs)):
            raise ValueError("registers are nonnegative integer atoms")
        if len(set(regs)) != len(regs):
            raise ValueError("registers must be pairwise distinct")
        fill(self, family, orbit, _canonical_coset(descriptor.symmetry, regs))

    def _moved(self, f) -> "Element":  # f keeps the registers distinct atoms
        symmetry = self.family.orbit(self.orbit).symmetry
        return fill(Element.__new__(Element), self.family, self.orbit,
                    _canonical_coset(symmetry, f(self.registers)))

    def support(self) -> frozenset[int]:
        return frozenset(self.registers)

    def __hash__(self) -> int:
        return hash((self.orbit, self.registers))

    def __repr__(self) -> str:
        return f"Element({self.orbit!r}, {self.registers})"


def act(f: FinPerm, e: Element) -> Element:
    """Apply a permutation to every register, then re-canonicalize."""
    return e.apply_perm(f)


def elem_eq(e1: Element, e2: Element) -> bool:
    if e1.family is not e2.family and e1.family != e2.family:
        raise ValueError("set mismatch")
    return e1.orbit == e2.orbit and e1.registers == e2.registers


def support(e: Element) -> frozenset[int]:
    """Register atoms; for this representation they are the minimal support."""
    return e.support()


def min_support(value, candidates: Iterable[int]) -> frozenset[int]:
    """Minimal support of a value via the single-swap test.

    Requires the candidates to contain the support.  An atom u belongs to
    the support exactly when swapping u with an atom z outside the
    candidates changes the value.
    """
    cands = frozenset(check_atoms(*candidates))
    z = fresh(cands)
    return frozenset(u for u in cands if act_swap(u, z, value) != value)


def same_orbit(e1: Element, e2: Element) -> Optional[FinPerm]:
    """A permutation witnessing that e2 lies in e1's orbit, or None."""
    if e1.family is not e2.family and e1.family != e2.family:
        raise ValueError("set mismatch")
    if e1.orbit != e2.orbit:
        return None
    return perm_between(e1.registers, e2.registers)


def is_strong(s: OrbitFiniteSet) -> bool:
    """True when every orbit has trivial coordinate symmetry."""
    return all(orbit.symmetry.order == 1 for orbit in s.orbits)


def enumerate_with_support(s: OrbitFiniteSet, atoms: Iterable[int]) -> list[Element]:
    """All elements whose support is exactly the given atom set.

    Each matching orbit of degree n = len(atoms) contributes n! register
    tuples falling into cosets of size |symmetry|, so exactly n!/|symmetry|
    elements.  Orbits of any other degree contribute nothing.
    """
    atom_list = sorted(set(atoms))
    out: list[Element] = []
    for orbit in s.orbits:
        if orbit.degree != len(atom_list):
            continue
        elems = {Element(s, orbit.name, p) for p in itertools.permutations(atom_list)}
        assert len(elems) == math.factorial(orbit.degree) // orbit.symmetry.order
        out.extend(sorted(elems, key=lambda e: e.registers))
    return out


def set_to_jsonable(s: OrbitFiniteSet) -> dict:
    return {"orbits": [{"name": o.name,
                        "degree": o.degree,
                        "generators": [list(g) for g in o.symmetry.generators]}
                       for o in s.orbits]}


def set_from_jsonable(blob: dict) -> OrbitFiniteSet:
    if not isinstance(blob, dict) or "orbits" not in blob:
        raise ValueError("expected an object with an 'orbits' list")
    orbits = []
    for entry in blob["orbits"]:
        name = entry["name"]
        if not isinstance(name, str):
            raise ValueError(f"orbit name {name!r} is not a string")
        degree = entry["degree"]
        generators = entry.get("generators", [])
        orbits.append(OrbitDescriptor(name, degree, CoordGroup(degree, generators)))
    return OrbitFiniteSet(orbits)


def element_to_jsonable(e: Element) -> dict:
    return {"orbit": e.orbit, "registers": list(e.registers)}


def element_from_jsonable(family: OrbitFiniteSet, blob: dict) -> Element:
    if not isinstance(blob, dict) or "orbit" not in blob or "registers" not in blob:
        raise ValueError("expected an object with 'orbit' and 'registers'")
    return Element(family, blob["orbit"], tuple(blob["registers"]))
