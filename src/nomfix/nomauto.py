"""Deterministic automata whose alphabet is the infinite set of atoms.

States form an orbit-finite family with trivial symmetries: a concrete
state is an orbit name plus a tuple of distinct register atoms, carried as
an :class:`~nomfix.nomset.Element`.  Reading a letter takes the transition
selected by the letter's relation to the current registers — either it
equals register ``j`` (at most one ``j``, since registers are distinct) or
it is fresh — and the selected :class:`TargetExpr` says how to fill the
target orbit's registers from the old ones and the letter.

Because the only test a machine can perform is equality against stored atoms,
language equivalence is decidable: :func:`dfa_equiv` explores pairs of concrete
states but deduplicates them up to renaming, which leaves finitely many
equality patterns.  It steps plain ``(orbit, registers)`` tuples through rules
each machine compiles on its first comparison into the cached property
``_compiled`` (a machine is read-only once built), and keys a pair by where
each register of one machine sits among the other's, which fixes the pair up to
renaming because registers are pairwise distinct; :func:`nomfix.search.bfs`
runs the search.  It skips pairs of two orbits that accept nothing, which the
orbit graph shows, since every case of an orbit is enabled in each of its
states: both sides reject every word.  :func:`dfa_brute_equiv` is the naive
word-by-word comparison on ``Element`` states that checks it.
"""

import itertools
from functools import cached_property

from .nomset import CoordGroup, Element, OrbitDescriptor, OrbitFiniteSet
from .perm import fresh, is_atom
from .record import Record, fill
from .search import bfs, picker

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


class TargetExpr(Record):
    """Target orbit plus one source per target register.

    A source is either a register index of the source orbit or
    :data:`INPUT`.
    """

    __slots__ = ("orbit", "sources")

    def __init__(self, orbit, sources):
        fill(self, orbit, tuple(sources))


class OrbitRules(Record):
    """The outgoing transitions of one orbit: an equal case per register
    and one fresh case."""

    __slots__ = ("equal_cases", "fresh_case")

    def __init__(self, equal_cases, fresh_case):
        fill(self, tuple(equal_cases), fresh_case)


class NomDFA:
    """A deterministic orbit-finite automaton.

    ``orbits`` is either a mapping of orbit names to register counts or an
    :class:`~nomfix.nomset.OrbitFiniteSet` whose symmetries must all be
    trivial.  The initial orbit must have no registers, so the automaton
    starts with nothing remembered.  Construction validates the whole
    transition table; the rules guarantee every reachable register tuple
    stays pairwise distinct.  A machine is read-only after construction,
    so :func:`dfa_equiv` compiles it once, on first use, and keeps that.
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
        for name in (*accepting, *delta):
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

    # the rules table and the dead orbits, built by the first dfa_equiv and kept
    _compiled = cached_property(lambda self: (table := _compile(self), _dead(self, table)))


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


def _compile(dfa):
    """Each orbit's rules as a tuple of ``(target orbit, picker)`` entries,
    one per equal case and then the fresh case, so index ``-1`` is fresh.
    A picker maps ``registers + (letter,)`` to the target's registers."""
    table = {}
    for name, rules in dfa.delta.items():
        degree = dfa.family.orbit(name).degree
        entries = []
        for expr in rules.equal_cases + (rules.fresh_case,):
            idx = tuple([degree if s == INPUT else s for s in expr.sources])
            entries.append((expr.orbit, picker(idx)))
        table[name] = tuple(entries)
    return table


def _dead(dfa, table):
    """The orbits reaching no accepting orbit through ``table``: as every case
    of an orbit is enabled in each of its states, exactly those whose states
    all accept the empty language."""
    live, grown = set(), set(dfa.accepting)
    while grown:
        live |= grown
        grown = {o for o, rows in table.items() if o not in live and any(p in live for p, _ in rows)}
    return table.keys() - live


def dfa_equiv(d1, d2):
    """Decide whether two automata accept the same language.

    Returns ``(True, None)`` or ``(False, word)`` with a shortest
    distinguishing word.  The search walks concrete state pairs
    ``(orbit, registers)`` breadth-first through each machine's compiled
    rules; from each pair it suffices to try each stored atom plus one atom
    fresh for both machines, because all other fresh letters lead to pairs
    with the same pattern.  A pair is keyed by its two orbits and, for each
    register of the second machine, the position of the equal register of
    the first (or ``-1``).  Each machine's registers are pairwise distinct,
    so two pairs get the same key exactly when a permutation maps one onto
    the other, and then they accept the same words up to renaming.  A pair
    whose orbits both accept nothing (see :func:`_dead`) is not explored:
    it never disagrees and leads only to such pairs, so the order of every
    other pair, the verdict and the word are unchanged.  Machines are
    read-only, so each is compiled once, on first use, and kept on it.
    """
    (t1, dead1), (t2, dead2) = d1._compiled, d2._compiled

    # A child is built only for a new key: most letters repeat a key.
    def expand(config, seen, push):
        o1, r1, o2, r2, word = config
        if (o1 in d1.accepting) != (o2 in d2.accepting):
            return None
        rules1, rules2 = t1[o1], t2[o2]
        joint = set(r1).union(r2)
        for atom in sorted(joint) + [fresh(joint)]:
            p1, pick1 = rules1[r1.index(atom) if atom in r1 else -1]
            p2, pick2 = rules2[r2.index(atom) if atom in r2 else -1]
            if p1 in dead1 and p2 in dead2:
                continue
            q1, q2 = pick1(r1 + (atom,)), pick2(r2 + (atom,))
            key = (p1, p2, tuple([q1.index(a) if a in q1 else -1 for a in q2]))
            if key not in seen:
                seen.add(key)
                push.append((p1, q1, p2, q2, word + (atom,)))
        return push

    root = (d1.initial, (), d2.initial, (), ())
    bad = bfs(((d1.initial, d2.initial, ()), root), expand)[0]
    return (True, None) if bad is None else (False, bad[4])


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


def _expr_to_jsonable(expr):  # INPUT is its own JSON form
    return {"orbit": expr.orbit, "sources": list(expr.sources)}


def _expr_from_jsonable(blob):
    sources = blob["sources"]
    for s in sources:
        if s != INPUT and not (isinstance(s, int) and not isinstance(s, bool)):
            raise ValueError(f"bad source entry {s!r}")
    return TargetExpr(blob["orbit"], sources)


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
