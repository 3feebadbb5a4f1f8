"""Deterministic automata whose alphabet is the infinite set of atoms.

States form an orbit-finite family with trivial symmetries: a concrete
state is an orbit name plus a tuple of distinct register atoms, carried as
an :class:`~nomfix.nomset.Element`.  Reading a letter takes the transition
selected by the letter's relation to the current registers — either it
equals register ``j`` (at most one ``j``, since registers are distinct) or
it is fresh — and the selected :class:`TargetExpr` says how to fill the
target orbit's registers from the old ones and the letter.

Because the only test a machine can perform is equality against stored
atoms, language equivalence is decidable: :func:`dfa_equiv` explores pairs
of concrete states but deduplicates them up to renaming, which leaves
finitely many equality patterns.  :func:`dfa_brute_equiv` is the naive
word-by-word comparison used to cross-check it.
"""

import itertools
from collections import deque
from dataclasses import dataclass

from .nomset import CoordGroup, Element, OrbitDescriptor, OrbitFiniteSet
from .perm import fresh, is_atom

__all__ = [
    "INPUT",
    "NomDFA",
    "OrbitRules",
    "TargetExpr",
    "dfa_accepts",
    "dfa_brute_equiv",
    "dfa_equiv",
    "dfa_from_jsonable",
    "dfa_initial",
    "dfa_step",
    "dfa_to_jsonable",
]

#: Source marker meaning "the letter just read".
INPUT = "input"


@dataclass(frozen=True)
class TargetExpr:
    """Target orbit plus one source per target register.

    A source is either a register index of the source orbit or
    :data:`INPUT`.
    """

    orbit: str
    sources: tuple

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple(self.sources))


@dataclass(frozen=True)
class OrbitRules:
    """The outgoing transitions of one orbit: an equal case per register
    and one fresh case."""

    equal_cases: tuple
    fresh_case: TargetExpr

    def __post_init__(self):
        object.__setattr__(self, "equal_cases", tuple(self.equal_cases))


class NomDFA:
    """A deterministic orbit-finite automaton.

    ``orbits`` is either a mapping of orbit names to register counts or an
    :class:`~nomfix.nomset.OrbitFiniteSet` whose symmetries must all be
    trivial.  The initial orbit must have no registers, so the automaton
    starts with nothing remembered.  Construction validates the whole
    transition table; the rules guarantee every reachable register tuple
    stays pairwise distinct.
    """

    def __init__(self, orbits, initial, accepting, delta):
        if isinstance(orbits, OrbitFiniteSet):
            family = orbits
        else:
            family = OrbitFiniteSet([
                OrbitDescriptor(name, degree, CoordGroup(degree))
                for name, degree in orbits.items()
            ])
        for descriptor in family.orbits:
            if len(descriptor.symmetry.closure) != 1:
                raise ValueError(
                    f"orbit {descriptor.name!r}: symmetry must be trivial"
                )
        if family.orbit(initial).degree != 0:
            raise ValueError("initial orbit must have degree 0")
        accepting = frozenset(accepting)
        for name in accepting:
            family.orbit(name)
        for name in delta:
            family.orbit(name)
        for descriptor in family.orbits:
            if descriptor.name not in delta:
                raise ValueError(
                    f"no transition rules for orbit {descriptor.name!r}"
                )
        for name, rules in delta.items():
            degree = family.orbit(name).degree
            if len(rules.equal_cases) != degree:
                raise ValueError(
                    f"orbit {name!r} needs {degree} equal cases,"
                    f" got {len(rules.equal_cases)}"
                )
            for j, expr in enumerate(rules.equal_cases):
                _check_expr(family, name, degree, expr, j)
            _check_expr(family, name, degree, rules.fresh_case, None)
        self.family = family
        self.initial = initial
        self.accepting = accepting
        self.delta = dict(delta)


def _check_expr(family, source, degree, expr, equal_index):
    target = family.orbit(expr.orbit)
    if len(expr.sources) != target.degree:
        raise ValueError(
            f"expected {target.degree} sources for orbit {expr.orbit!r},"
            f" got {len(expr.sources)}"
        )
    seen = set()
    for s in expr.sources:
        if s != INPUT and not (is_atom(s) and s < degree):
            raise ValueError(f"orbit {source!r}: register {s!r} out of range")
        if s in seen:
            raise ValueError(f"orbit {source!r}: source {s!r} used twice")
        seen.add(s)
    # in the equal case for register j the letter *is* register j, so using
    # both would write the same atom into two target registers
    if equal_index is not None and INPUT in seen and equal_index in seen:
        raise ValueError(
            f"orbit {source!r}: equal case {equal_index} cannot use both"
            f" the input and register {equal_index}"
        )


def dfa_initial(dfa):
    """The starting state, with empty registers."""
    return Element(dfa.family, dfa.initial, ())


def dfa_step(dfa, state, atom):
    """Read one letter from a concrete state."""
    if not is_atom(atom):
        raise ValueError("letters are nonnegative integer atoms")
    if state.family is not dfa.family and state.family != dfa.family:
        raise ValueError("state does not belong to this automaton")
    regs = state.registers
    rules = dfa.delta[state.orbit]
    if atom in regs:
        expr = rules.equal_cases[regs.index(atom)]
    else:
        expr = rules.fresh_case
    new_regs = tuple(atom if s == INPUT else regs[s] for s in expr.sources)
    return Element(dfa.family, expr.orbit, new_regs)


def dfa_accepts(dfa, word):
    """Run the automaton on a word of atoms."""
    state = dfa_initial(dfa)
    for atom in word:
        state = dfa_step(dfa, state, atom)
    return state.orbit in dfa.accepting


def _pair_pattern(e1, e2):
    """Joint equality pattern of two states, blind to concrete atom names.

    Atoms are replaced by their first-occurrence rank across both register
    tuples.  Pairs with equal patterns are related by a permutation, so
    they accept exactly the same words up to renaming — which for an
    equivalence check is all that matters.
    """
    rank = {}
    pattern = []
    for atom in e1.registers + e2.registers:
        if atom not in rank:
            rank[atom] = len(rank)
        pattern.append(rank[atom])
    return e1.orbit, e2.orbit, tuple(pattern)


def dfa_equiv(d1, d2):
    """Decide whether two automata accept the same language.

    Returns ``(True, None)`` or ``(False, word)`` with a shortest
    distinguishing word.  The search walks concrete state pairs
    breadth-first; from each pair it suffices to try each stored atom plus
    one atom fresh for both machines, because all other fresh letters lead
    to pairs with the same pattern.
    """
    e1, e2 = dfa_initial(d1), dfa_initial(d2)
    seen = {_pair_pattern(e1, e2)}
    queue = deque([(e1, e2, ())])
    while queue:
        e1, e2, word = queue.popleft()
        if (e1.orbit in d1.accepting) != (e2.orbit in d2.accepting):
            return False, word
        joint = set(e1.registers) | set(e2.registers)
        for atom in sorted(joint) + [fresh(joint)]:
            f1, f2 = dfa_step(d1, e1, atom), dfa_step(d2, e2, atom)
            pattern = _pair_pattern(f1, f2)
            if pattern not in seen:
                seen.add(pattern)
                queue.append((f1, f2, word + (atom,)))
    return True, None


def dfa_brute_equiv(d1, d2, max_len, pool):
    """Compare two automata on every word up to ``max_len`` over the atoms
    ``0 .. pool-1``, shortest and lexicographically smallest first.

    Registers only ever hold past letters, so whenever the languages
    differ within ``max_len`` letters they differ on a word over a pool of
    one more atom than the two machines can jointly store.
    """
    for length in range(max_len + 1):
        for word in itertools.product(range(pool), repeat=length):
            if dfa_accepts(d1, word) != dfa_accepts(d2, word):
                return False, word
    return True, None


def _expr_to_jsonable(expr):
    return {
        "orbit": expr.orbit,
        "sources": ["input" if s == INPUT else s for s in expr.sources],
    }


def _expr_from_jsonable(blob):
    sources = []
    for s in blob["sources"]:
        if s == "input":
            sources.append(INPUT)
        elif isinstance(s, int) and not isinstance(s, bool):
            sources.append(s)
        else:
            raise ValueError(f"bad source entry {s!r}")
    return TargetExpr(blob["orbit"], tuple(sources))


def dfa_to_jsonable(dfa):
    return {
        "orbits": [
            {"name": o.name, "degree": o.degree} for o in dfa.family.orbits
        ],
        "initial": dfa.initial,
        "accepting": sorted(dfa.accepting),
        "delta": {
            name: {
                "equal": {
                    str(j): _expr_to_jsonable(expr)
                    for j, expr in enumerate(rules.equal_cases)
                },
                "fresh": _expr_to_jsonable(rules.fresh_case),
            }
            for name, rules in dfa.delta.items()
        },
    }


def dfa_from_jsonable(blob):
    degrees = {}
    for entry in blob["orbits"]:
        name = entry["name"]
        if name in degrees:
            raise ValueError(f"duplicate orbit name {name!r}")
        degrees[name] = entry["degree"]
    if not isinstance(blob["accepting"], list):
        raise ValueError("'accepting' must be a list of orbit names")
    if not isinstance(blob["delta"], dict):
        raise ValueError("'delta' must be an object")
    delta = {}
    for name, rules in blob["delta"].items():
        if not isinstance(rules, dict):
            raise ValueError(f"rules for orbit {name!r} must be an object")
        equal = rules.get("equal", {})
        try:
            cases = tuple(
                _expr_from_jsonable(equal[str(j)]) for j in range(len(equal))
            )
        except KeyError as missing:
            raise ValueError(f"missing equal case {missing}") from None
        delta[name] = OrbitRules(cases, _expr_from_jsonable(rules["fresh"]))
    return NomDFA(degrees, blob["initial"], blob["accepting"], delta)
