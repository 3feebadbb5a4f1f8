"""Deterministic automata over the infinite atom alphabet.

The equivalence checker walks symbolic configuration pairs; the oracle it
is tested against simply runs both machines on every word over a small
atom pool, which is exhaustive for refutation because register contents
only ever come from past inputs.
"""

import collections
import copy
import json
import pickle
import random

import pytest

from nomfix import nomauto
from nomfix.nomset import CoordGroup, Element, OrbitDescriptor, OrbitFiniteSet
from nomfix.nomauto import (
    INPUT,
    NomDFA,
    OrbitRules,
    TargetExpr,
    dfa_accepts,
    dfa_brute_equiv,
    dfa_equiv,
    dfa_from_jsonable,
    dfa_initial,
    dfa_step,
    dfa_to_jsonable,
)
from nomfix.perm import apply, make_perm
from nomfix.search import bfs

from helpers import element_dfa_equiv, empty_orbits, random_dfa


def l1_dfa():
    """Accepts exactly the words of length >= 2 whose first two letters agree."""
    return NomDFA(
        {"q0": 0, "q1": 1, "acc": 0, "rej": 0},
        "q0",
        {"acc"},
        {
            "q0": OrbitRules((), TargetExpr("q1", (INPUT,))),
            "q1": OrbitRules((TargetExpr("acc", ()),), TargetExpr("rej", ())),
            "acc": OrbitRules((), TargetExpr("acc", ())),
            "rej": OrbitRules((), TargetExpr("rej", ())),
        },
    )


def reject_all_dfa():
    return NomDFA(
        {"r": 0},
        "r",
        frozenset(),
        {"r": OrbitRules((), TargetExpr("r", ()))},
    )


L1_BLOB = {
    "orbits": [
        {"name": "q0", "degree": 0},
        {"name": "q1", "degree": 1},
        {"name": "acc", "degree": 0},
        {"name": "rej", "degree": 0},
    ],
    "initial": "q0",
    "accepting": ["acc"],
    "delta": {
        "q0": {"equal": {}, "fresh": {"orbit": "q1", "sources": ["input"]}},
        "q1": {
            "equal": {"0": {"orbit": "acc", "sources": []}},
            "fresh": {"orbit": "rej", "sources": []},
        },
        "acc": {"equal": {}, "fresh": {"orbit": "acc", "sources": []}},
        "rej": {"equal": {}, "fresh": {"orbit": "rej", "sources": []}},
    },
}


def test_l1_acceptance_examples():
    dfa = l1_dfa()
    assert not dfa_accepts(dfa, ())
    assert not dfa_accepts(dfa, (0,))
    assert dfa_accepts(dfa, (0, 0))
    assert dfa_accepts(dfa, (7, 7))
    assert not dfa_accepts(dfa, (0, 1))
    assert dfa_accepts(dfa, (2, 2, 5, 9))
    assert not dfa_accepts(dfa, (2, 3, 5))
    assert not dfa_accepts(dfa, (2, 3, 3))


def test_step_tracks_registers():
    dfa = l1_dfa()
    state = dfa_initial(dfa)
    assert (state.orbit, state.registers) == ("q0", ())
    state = dfa_step(dfa, state, 4)
    assert (state.orbit, state.registers) == ("q1", (4,))
    taken = dfa_step(dfa, state, 4)
    assert taken.orbit == "acc"
    other = dfa_step(dfa, state, 5)
    assert other.orbit == "rej"


def test_step_rejects_bad_input_atoms():
    dfa = l1_dfa()
    state = dfa_initial(dfa)
    with pytest.raises(ValueError):
        dfa_step(dfa, state, -1)
    with pytest.raises(ValueError):
        dfa_step(dfa, state, True)


def test_step_rejects_a_state_of_another_automaton():
    dfa = l1_dfa()
    foreign = Element(OrbitFiniteSet([OrbitDescriptor("q0", 0, CoordGroup(0))]), "q0", ())
    with pytest.raises(ValueError, match="^state does not belong to this automaton$"):
        dfa_step(dfa, foreign, 0)
    # a state of an equal family built separately is the automaton's own
    assert dfa_step(dfa, dfa_initial(l1_dfa()), 4) == dfa_step(dfa, dfa_initial(dfa), 4)


def test_language_is_equivariant():
    rng = random.Random(31)
    for _ in range(100):
        dfa = random_dfa(rng)
        word = tuple(rng.randrange(5) for _ in range(rng.randrange(6)))
        pi = make_perm([tuple(rng.sample(range(6), 2)) for _ in range(3)])
        moved = tuple(apply(pi, a) for a in word)
        assert dfa_accepts(dfa, word) == dfa_accepts(dfa, moved)


def test_validation_rejects_bad_machines():
    rules0 = OrbitRules((), TargetExpr("q", ()))
    with pytest.raises(ValueError, match="degree 0"):
        NomDFA({"q": 1}, "q", set(), {"q": OrbitRules((TargetExpr("q", (0,)),),
                                                      TargetExpr("q", (0,)))})
    with pytest.raises(ValueError, match="unknown orbit"):
        NomDFA({"q": 0}, "zz", set(), {"q": rules0})
    with pytest.raises(ValueError, match="unknown orbit"):
        NomDFA({"q": 0}, "q", {"zz"}, {"q": rules0})
    with pytest.raises(ValueError, match="no transition rules"):
        NomDFA({"q": 0, "p": 1}, "q", set(), {"q": rules0})
    with pytest.raises(ValueError, match="unknown orbit"):
        NomDFA({"q": 0}, "q", set(), {"q": rules0, "p": rules0})
    with pytest.raises(ValueError, match="equal case"):
        NomDFA({"q": 0, "p": 1}, "q", set(), {
            "q": rules0,
            "p": OrbitRules((), TargetExpr("q", ())),
        })
    with pytest.raises(ValueError, match="sources"):
        NomDFA({"q": 0, "p": 1}, "q", set(), {
            "q": OrbitRules((), TargetExpr("p", ())),
            "p": OrbitRules((TargetExpr("q", ()),), TargetExpr("q", ())),
        })
    with pytest.raises(ValueError, match="register"):
        NomDFA({"q": 0, "p": 1}, "q", set(), {
            "q": OrbitRules((), TargetExpr("p", (0,))),
            "p": OrbitRules((TargetExpr("q", ()),), TargetExpr("q", ())),
        })
    with pytest.raises(ValueError, match="twice"):
        NomDFA({"q": 0, "p": 2}, "q", set(), {
            "q": rules0,
            "p": OrbitRules(
                (TargetExpr("q", ()), TargetExpr("q", ())),
                TargetExpr("p", (0, 0)),
            ),
        })
    with pytest.raises(ValueError, match="input and register 0"):
        NomDFA({"q": 0, "p": 2}, "q", set(), {
            "q": rules0,
            "p": OrbitRules(
                (TargetExpr("p", (INPUT, 0)), TargetExpr("q", ())),
                TargetExpr("q", ()),
            ),
        })


def test_validation_requires_trivial_symmetries():
    family = OrbitFiniteSet([
        OrbitDescriptor("q", 0, CoordGroup(0)),
        OrbitDescriptor("p", 2, CoordGroup(2, [(1, 0)])),
    ])
    with pytest.raises(ValueError, match="symmetry"):
        NomDFA(family, "q", set(), {
            "q": OrbitRules((), TargetExpr("q", ())),
            "p": OrbitRules(
                (TargetExpr("q", ()), TargetExpr("q", ())),
                TargetExpr("q", ()),
            ),
        })


def test_equal_case_may_reuse_the_matched_register():
    # storing register j itself in the equal case is fine: one value, one cell
    dfa = NomDFA({"q0": 0, "p": 1}, "q0", {"p"}, {
        "q0": OrbitRules((), TargetExpr("p", (INPUT,))),
        "p": OrbitRules((TargetExpr("p", (0,)),), TargetExpr("q0", ())),
    })
    assert dfa_accepts(dfa, (3, 3, 3))
    assert not dfa_accepts(dfa, (3, 3, 4))


def test_equiv_reflexive_and_rename_invariant():
    dfa = l1_dfa()
    assert dfa_equiv(dfa, dfa) == (True, None)
    renamed = NomDFA(
        {"a": 0, "b": 1, "yes": 0, "no": 0},
        "a",
        {"yes"},
        {
            "a": OrbitRules((), TargetExpr("b", (INPUT,))),
            "b": OrbitRules((TargetExpr("yes", ()),), TargetExpr("no", ())),
            "yes": OrbitRules((), TargetExpr("yes", ())),
            "no": OrbitRules((), TargetExpr("no", ())),
        },
    )
    assert dfa_equiv(dfa, renamed) == (True, None)


def test_shortest_counterexample_against_reject_all():
    equal, word = dfa_equiv(l1_dfa(), reject_all_dfa())
    assert not equal
    assert word == (0, 0)
    assert dfa_brute_equiv(l1_dfa(), reject_all_dfa(), 3, 2) == (False, (0, 0))


def test_counterexamples_are_genuine():
    rng = random.Random(37)
    found = 0
    for _ in range(200):
        d1, d2 = random_dfa(rng), random_dfa(rng)
        equal, word = dfa_equiv(d1, d2)
        if not equal:
            found += 1
            assert dfa_accepts(d1, word) != dfa_accepts(d2, word)
    assert found > 50


def test_equiv_agrees_with_word_enumeration():
    rng = random.Random(41)
    for _ in range(200):
        d1, d2 = random_dfa(rng), random_dfa(rng)
        equal, word = dfa_equiv(d1, d2)
        pool = (
            max(o.degree for o in d1.family.orbits)
            + max(o.degree for o in d2.family.orbits)
            + 1
        )
        max_len = 4 if equal else max(len(word), 4)
        brute_equal, brute_word = dfa_brute_equiv(d1, d2, max_len, pool)
        assert brute_equal == equal
        if not equal:
            # both methods return a shortest distinguishing word
            assert len(brute_word) == len(word)
            assert dfa_accepts(d1, brute_word) != dfa_accepts(d2, brute_word)


def test_json_roundtrip():
    dfa = l1_dfa()
    blob = dfa_to_jsonable(dfa)
    assert blob == L1_BLOB
    back = dfa_from_jsonable(blob)
    assert dfa_to_jsonable(back) == blob
    assert dfa_equiv(dfa, back) == (True, None)
    # register sources are integers in JSON
    rng = random.Random(61)
    sources = set()
    for _ in range(20):
        dfa = random_dfa(rng, 4, 3, chain=True)
        blob = json.loads(json.dumps(dfa_to_jsonable(dfa)))
        back = dfa_from_jsonable(blob)
        assert dfa_to_jsonable(back) == blob
        assert dfa_equiv(dfa, back) == (True, None)
        for rules in blob["delta"].values():
            for case in [*rules["equal"].values(), rules["fresh"]]:
                sources.update(case["sources"])
    assert {0, 1, "input"} <= sources


def test_json_rejects_bad_source_entries():
    import copy

    broken = copy.deepcopy(L1_BLOB)
    broken["delta"]["q0"]["fresh"]["sources"] = ["letter"]
    with pytest.raises(ValueError):
        dfa_from_jsonable(broken)
    # equal cases are keyed "0" .. "n-1"
    broken = copy.deepcopy(L1_BLOB)
    broken["delta"]["q1"]["equal"] = {"1": {"orbit": "acc", "sources": []}}
    with pytest.raises(ValueError, match="^missing equal case '0'$"):
        dfa_from_jsonable(broken)


def reachable_orbits(dfa):
    """Every orbit some word reaches: each rule can fire, since registers
    are distinct atoms that a letter can equal or avoid."""
    reach, stack = {dfa.initial}, [dfa.initial]
    while stack:
        rules = dfa.delta[stack.pop()]
        for expr in rules.equal_cases + (rules.fresh_case,):
            if expr.orbit not in reach:
                reach.add(expr.orbit)
                stack.append(expr.orbit)
    return sorted(reach)


def renamed_copy(dfa, rng):
    """The same language under new orbit names and permuted register slots:
    new register ``i`` of orbit ``o`` holds old register ``order[o][i]``."""
    degree = {o.name: o.degree for o in dfa.family.orbits}
    fresh_names = [f"r{i}" for i in range(len(degree))]
    name = dict(zip(degree, rng.sample(fresh_names, len(degree))))
    order = {o: rng.sample(range(k), k) for o, k in degree.items()}

    def moved(expr, source):
        # old source register s of the source orbit is new register order.index(s)
        new = [expr.sources[i] for i in order[expr.orbit]]
        new = [s if s == INPUT else order[source].index(s) for s in new]
        return TargetExpr(name[expr.orbit], tuple(new))

    delta = {
        name[o]: OrbitRules(
            tuple(moved(rules.equal_cases[i], o) for i in order[o]),
            moved(rules.fresh_case, o),
        )
        for o, rules in dfa.delta.items()
    }
    return NomDFA({name[o]: k for o, k in degree.items()}, name[dfa.initial],
                  {name[o] for o in dfa.accepting}, delta)


def flipped_copy(dfa, rng):
    """The machine with the acceptance of one reachable orbit flipped."""
    flip = rng.choice(reachable_orbits(dfa))
    degrees = {o.name: o.degree for o in dfa.family.orbits}
    return NomDFA(degrees, dfa.initial, dfa.accepting ^ {flip}, dfa.delta)


def thinned(dfa, rng, keep):
    """The machine keeping each accepting orbit with probability ``keep``,
    so that some orbits reach no accepting orbit."""
    degrees = {o.name: o.degree for o in dfa.family.orbits}
    accepting = {o for o in sorted(dfa.accepting) if rng.random() < keep}
    return NomDFA(degrees, dfa.initial, accepting, dfa.delta)


def rewired_copy(dfa, rng):
    """The machine with one rule of a reachable orbit redrawn at random,
    so the two differ only after some letter equals, or avoids, the
    registers in one particular way."""
    name = rng.choice(reachable_orbits(dfa))
    degree = dfa.family.orbit(name).degree
    case = rng.randrange(degree + 1)
    if case == degree:
        pool = [INPUT] + list(range(degree))
    else:
        pool = [INPUT] + [i for i in range(degree) if i != case]
    degrees = {o.name: o.degree for o in dfa.family.orbits}
    target = rng.choice([t for t in degrees if degrees[t] <= len(pool)])
    expr = TargetExpr(target, tuple(rng.sample(pool, degrees[target])))
    rules = dfa.delta[name]
    if case == degree:
        rules = OrbitRules(rules.equal_cases, expr)
    else:
        cases = list(rules.equal_cases)
        cases[case] = expr
        rules = OrbitRules(cases, rules.fresh_case)
    return NomDFA(degrees, dfa.initial, dfa.accepting, {**dfa.delta, name: rules})


def swapped_copy(dfa, rng):
    """The machine with two target registers of one reachable rule swapped,
    or ``None`` when no reachable rule fills two registers: the two then
    differ only in which register holds which atom."""
    rules_of = {name: dfa.delta[name] for name in reachable_orbits(dfa)}
    choices = [
        (name, i)
        for name, rules in rules_of.items()
        for i, expr in enumerate(rules.equal_cases + (rules.fresh_case,))
        if len(expr.sources) >= 2
    ]
    if not choices:
        return None
    name, i = rng.choice(choices)
    exprs = list(rules_of[name].equal_cases + (rules_of[name].fresh_case,))
    sources = list(exprs[i].sources)
    a, b = rng.sample(range(len(sources)), 2)
    sources[a], sources[b] = sources[b], sources[a]
    exprs[i] = TargetExpr(exprs[i].orbit, tuple(sources))
    degrees = {o.name: o.degree for o in dfa.family.orbits}
    return NomDFA(degrees, dfa.initial, dfa.accepting,
                  {**dfa.delta, name: OrbitRules(exprs[:-1], exprs[-1])})


def test_equiv_agrees_with_word_enumeration_on_register_machines():
    # Chained machines reach degree 2-3, and each is set against a renamed
    # copy of itself with two registers swapped in one rule, so the verdict
    # turns on where each atom sits.  Words of up to 4 letters over 4 atoms
    # cover every word of that length up to renaming.
    rng = random.Random(53)
    max_len = pool = 4
    verdicts = {True: 0, False: 0}
    top_degree = 0
    while sum(verdicts.values()) < 100:
        d1 = random_dfa(rng, 4, 3, chain=True)
        d2 = swapped_copy(d1, rng)
        if d2 is None:
            continue
        d2 = renamed_copy(d2, rng)
        top_degree = max(top_degree, *(d1.family.orbit(o).degree for o in reachable_orbits(d1)))
        for a, b in ((d1, d2), (d2, d1)):
            equal, word = dfa_equiv(a, b)
            brute_equal, brute_word = dfa_brute_equiv(a, b, max_len, pool)
            if not equal:
                assert dfa_accepts(a, word) != dfa_accepts(b, word)
            if brute_equal:
                assert equal or len(word) > max_len
            else:
                assert not equal and len(word) == len(brute_word)
            verdicts[brute_equal] += 1
    assert top_degree == 3
    assert min(verdicts.values()) > 30


def test_equiv_matches_element_search_exactly():
    rng = random.Random(43)
    verdicts = {True: 0, False: 0}
    for i in range(600):
        chain = i % 2 == 0
        sizes = (5, 4) if chain else (rng.randint(1, 5), rng.randint(0, 4))
        d1 = random_dfa(rng, *sizes, chain)
        if i % 3 == 0:
            d2 = random_dfa(rng, *sizes, chain)
        elif i % 3 == 1:
            d2 = renamed_copy(d1, rng)
        else:
            d2 = flipped_copy(d1, rng)
        d3 = renamed_copy(rewired_copy(d1, rng), rng)
        assert dfa_equiv(d1, d3) == element_dfa_equiv(d1, d3)
        answer = dfa_equiv(d1, d2)
        assert answer == element_dfa_equiv(d1, d2)
        assert dfa_equiv(d2, d1) == element_dfa_equiv(d2, d1)
        verdicts[answer[0]] += 1
        if i % 3 == 1:
            assert answer == (True, None)
        elif i % 3 == 2:
            assert not answer[0]
    assert min(verdicts.values()) > 200


def test_equiv_search_builds_no_elements():
    rng = random.Random(47)
    while True:
        d1 = random_dfa(rng, 5, 3, chain=True)
        reach = reachable_orbits(d1)
        if any(d1.family.orbit(o).degree == 3 for o in reach) and len(reach) >= 4:
            break
    d2 = renamed_copy(d1, rng)
    built = 0

    class CountingElement(Element):
        __slots__ = ()

        def __init__(self, *args):
            nonlocal built
            built += 1
            super().__init__(*args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(nomauto, "Element", CountingElement)
        assert dfa_equiv(d1, d2) == (True, None)
        assert built == 0
        # the wrapper does see the Element path
        assert element_dfa_equiv(d1, d2) == (True, None)
    assert built > 0


def test_dead_orbits_are_the_orbits_that_accept_nothing():
    rng = random.Random(59)
    counts = collections.Counter()
    for i in range(300):
        d = random_dfa(rng, 6, 3, chain=i % 2 == 0)
        d = thinned(d, rng, rng.random())
        dead = nomauto._dead(d, nomauto._compile(d))
        assert dead == empty_orbits(d)
        counts[min(len(dead), 1) + (dead == d.delta.keys())] += 1
    # machines with no orbit dead, some but not all, and every orbit
    assert len(counts) == 3 and min(counts.values()) > 25


def test_equiv_is_exact_when_orbits_accept_nothing():
    # thinned acceptance leaves dead orbits in one machine, both or neither;
    # pairs of two dead orbits are not explored, which must change no
    # verdict and no counterexample
    rng = random.Random(61)
    kinds = collections.Counter()
    verdicts = collections.Counter()
    for i in range(300):
        chain = i % 2 == 0
        sizes = (5, 4) if chain else (rng.randint(1, 5), rng.randint(0, 4))
        d1 = random_dfa(rng, *sizes, chain)
        d2 = random_dfa(rng, *sizes, chain) if i % 3 else renamed_copy(rewired_copy(d1, rng), rng)
        d1, d2 = thinned(d1, rng, rng.random()), thinned(d2, rng, rng.random())
        kinds[bool(empty_orbits(d1)), bool(empty_orbits(d2))] += 1
        answer = dfa_equiv(d1, d2)
        assert answer == element_dfa_equiv(d1, d2)
        assert dfa_equiv(d2, d1) == element_dfa_equiv(d2, d1)
        verdicts[answer[0]] += 1
    assert len(kinds) == 4 and min(kinds.values()) > 30
    assert min(verdicts.values()) > 50


def test_machines_accepting_nothing_expand_only_the_root(monkeypatch):
    expanded = []

    def counting_bfs(root, expand, depth=None):
        def counted(config, seen, push):
            expanded.append(config)
            return expand(config, seen, push)

        return bfs(root, counted, depth)

    monkeypatch.setattr(nomauto, "bfs", counting_bfs)
    rng = random.Random(67)
    for _ in range(50):
        d1 = thinned(random_dfa(rng, 5, 4, chain=True), rng, 0)
        d2 = thinned(random_dfa(rng, 5, 4, chain=True), rng, 0)
        expanded.clear()
        assert dfa_equiv(d1, d2) == (True, None)
        assert expanded == [(d1.initial, (), d2.initial, (), ())]
    # one live side is searched as before
    expanded.clear()
    assert dfa_equiv(reject_all_dfa(), l1_dfa()) == (False, (0, 0))
    assert len(expanded) > 1


def test_each_machine_compiles_once(monkeypatch):
    compiled, compile_rules = [], nomauto._compile

    def counting_compile(dfa):
        compiled.append(dfa)
        return compile_rules(dfa)

    monkeypatch.setattr(nomauto, "_compile", counting_compile)
    rng = random.Random(71)
    machines = []
    for i in range(50):
        d1 = random_dfa(rng, 5, 3, chain=i % 2 == 0)
        d2 = random_dfa(rng, 5, 3, chain=i % 2 == 0) if i % 2 else renamed_copy(d1, rng)
        machines += [d1, d2]
        for _ in range(3):
            assert dfa_equiv(d1, d2) == element_dfa_equiv(d1, d2)
            assert dfa_equiv(d2, d1) == element_dfa_equiv(d2, d1)
    assert len(compiled) == 100 and all(c is m for c, m in zip(compiled, machines))
    # a machine loaded from the same JSON is a new machine with its own table
    compiled.clear()
    back = dfa_from_jsonable(dfa_to_jsonable(machines[0]))
    assert dfa_equiv(back, machines[0]) == (True, None)
    assert dfa_equiv(machines[0], back) == (True, None)
    assert compiled == [back]


def test_warm_answers_equal_cold_answers():
    rng = random.Random(73)
    verdicts = collections.Counter()
    for i in range(120):
        chain = i % 2 == 0
        sizes = (5, 4) if chain else (rng.randint(1, 5), rng.randint(0, 4))
        d1 = random_dfa(rng, *sizes, chain)
        d2 = random_dfa(rng, *sizes, chain) if i % 3 else renamed_copy(rewired_copy(d1, rng), rng)
        d1, d2 = thinned(d1, rng, rng.random()), thinned(d2, rng, rng.random())
        want = element_dfa_equiv(d1, d2)
        assert dfa_equiv(d1, d2) == want  # cold
        assert dfa_equiv(d1, d2) == want  # warm
        assert dfa_equiv(d2, d1) == element_dfa_equiv(d2, d1)
        # copies carry the filled table along and answer alike
        c1, c2 = copy.deepcopy(d1), pickle.loads(pickle.dumps(d2))
        assert c1._compiled is not None and c2._compiled is not None
        assert dfa_equiv(c1, c2) == dfa_equiv(d1, c2) == dfa_equiv(c1, d2) == want
        verdicts[want[0]] += 1
    assert min(verdicts.values()) > 20
