"""Orbit-finite nominal set tests.

brute_min_support below is the oracle for minimal supports: it tries every
subset of the candidate atoms, certifying a subset as supporting when the
value is invariant under all transpositions of the remaining candidates and
two extra fresh atoms.  That family of transpositions generates every
permutation fixing the subset that matters for values supported inside the
candidates.
"""

import itertools
import math
import random

import pytest

from nomfix.nomset import (
    CoordGroup,
    Element,
    OrbitDescriptor,
    OrbitFiniteSet,
    _canonical_coset,
    act,
    elem_eq,
    element_from_jsonable,
    element_to_jsonable,
    enumerate_with_support,
    is_strong,
    min_support,
    same_orbit,
    set_from_jsonable,
    set_to_jsonable,
    support,
)
from nomfix.perm import FinPerm, apply, fresh, make_perm
from nomfix.values import act_swap, act_value, value_eq
from helpers import rebuild_apply_perm


def brute_min_support(value, candidates, eq=value_eq, action=act_value):
    cands = sorted(set(candidates))
    f1 = fresh(cands)
    f2 = fresh(set(cands) | {f1})

    def supports(subset):
        others = [c for c in cands if c not in subset] + [f1, f2]
        for u, v in itertools.combinations(others, 2):
            if not eq(action(make_perm([(u, v)]), value), value):
                return False
        return True

    best = None
    for size in range(len(cands) + 1):
        hits = [set(s) for s in itertools.combinations(cands, size) if supports(set(s))]
        if hits:
            best = hits
            break
    assert best is not None and len(best) == 1, "minimal support must be unique"
    return frozenset(best[0])


def pairs_set():
    return OrbitFiniteSet([OrbitDescriptor("pair", 2, CoordGroup(2))])


def upairs_set():
    return OrbitFiniteSet([OrbitDescriptor("upair", 2, CoordGroup(2, [(1, 0)]))])


def necklace_set():
    return OrbitFiniteSet([OrbitDescriptor("neck", 3, CoordGroup(3, [(1, 2, 0)]))])


def test_coordgroup_closures():
    assert CoordGroup(2).order == 1
    assert CoordGroup(2, [(1, 0)]).order == 2
    assert CoordGroup(3, [(1, 2, 0)]).order == 3
    assert CoordGroup(3, [(1, 0, 2), (1, 2, 0)]).order == 6
    assert CoordGroup(0).order == 1


def test_coordgroup_closure_satisfies_lagrange():
    rng = random.Random(3)
    for _ in range(50):
        degree = rng.randrange(1, 6)
        gens = [tuple(rng.sample(range(degree), degree)) for _ in range(rng.randrange(3))]
        group = CoordGroup(degree, gens)
        assert math.factorial(degree) % group.order == 0
        assert tuple(range(degree)) in group.closure


def test_coordgroup_rejects_bad_input():
    with pytest.raises(ValueError):
        CoordGroup(9)  # degree above the supported bound
    with pytest.raises(ValueError):
        CoordGroup(2, [(0, 0)])
    with pytest.raises(ValueError):
        CoordGroup(2, [(1, 2)])
    with pytest.raises(ValueError, match="symmetry degree must match orbit degree"):
        OrbitDescriptor("q", 3, CoordGroup(2))
    assert CoordGroup(2) != (2,)


def test_set_requires_unique_orbit_names():
    with pytest.raises(ValueError):
        OrbitFiniteSet([OrbitDescriptor("q", 1, CoordGroup(1)),
                        OrbitDescriptor("q", 2, CoordGroup(2))])


def test_element_canonicalization():
    up = upairs_set()
    assert Element(up, "upair", (1, 0)).registers == (0, 1)
    neck = necklace_set()
    assert Element(neck, "neck", (2, 0, 1)).registers == (0, 1, 2)
    assert Element(neck, "neck", (5, 1, 3)).registers == (1, 3, 5)


def test_element_validation():
    p = pairs_set()
    with pytest.raises(ValueError):
        Element(p, "pair", (1, 1))
    with pytest.raises(ValueError):
        Element(p, "pair", (1,))
    with pytest.raises(ValueError):
        Element(p, "nope", (0, 1))
    for registers in [(0, -1), (0, True), (0, 1.0), (0, "1")]:
        with pytest.raises(ValueError, match="registers are nonnegative integer atoms"):
            Element(p, "pair", registers)


def test_act_on_unordered_pair_fixes_it():
    # the swap of both atoms maps the unordered pair {0,1} to itself
    up = upairs_set()
    e = Element(up, "upair", (0, 1))
    assert act(make_perm([(0, 1)]), e) == e


def test_act_on_ordered_pair_moves_it():
    p = pairs_set()
    e = Element(p, "pair", (0, 1))
    swapped = act(make_perm([(0, 1)]), e)
    assert swapped.registers == (1, 0)
    assert swapped != e


def test_act_is_an_action():
    rng = random.Random(5)
    neck = necklace_set()
    for _ in range(100):
        e = Element(neck, "neck", tuple(rng.sample(range(8), 3)))
        f = make_perm([tuple(rng.sample(range(8), 2)) for _ in range(4)])
        g = make_perm([tuple(rng.sample(range(8), 2)) for _ in range(4)])
        from nomfix.perm import compose
        assert act(compose(f, g), e) == act(f, act(g, e))
        assert act(FinPerm({}), e) == e


def test_action_matches_the_validating_constructor():
    # apply_perm and act_swap share Element._moved, so each is checked
    # against an Element rebuilt through its constructor from moved registers
    family = OrbitFiniteSet([
        OrbitDescriptor("swap", 2, CoordGroup(2, [(1, 0)])),
        OrbitDescriptor("cycle", 4, CoordGroup(4, [(1, 2, 3, 0)])),
        OrbitDescriptor("s3", 3, CoordGroup(3, [(1, 0, 2), (1, 2, 0)])),
        OrbitDescriptor("plain", 3, CoordGroup(3)),
    ])
    rng = random.Random(79)
    for _ in range(5000):
        orbit = family.orbit(rng.choice(["swap", "cycle", "s3", "plain"]))
        e = Element(family, orbit.name, rng.sample(range(7), orbit.degree))
        x, y = rng.sample(range(8), 2)
        pi = make_perm([tuple(rng.sample(range(9), 2)) for _ in range(rng.randrange(1, 4))])
        assert act_swap(x, y, e) == rebuild_apply_perm(make_perm([(x, y)]), e)
        assert act_value(pi, e) == e.apply_perm(pi) == rebuild_apply_perm(pi, e)


def test_elem_eq_and_set_mismatch():
    up1, up2 = upairs_set(), upairs_set()
    assert elem_eq(Element(up1, "upair", (1, 0)), Element(up2, "upair", (0, 1)))
    with pytest.raises(ValueError, match="set mismatch"):
        elem_eq(Element(up1, "upair", (0, 1)), Element(pairs_set(), "pair", (0, 1)))


def test_support_is_register_set():
    neck = necklace_set()
    assert support(Element(neck, "neck", (4, 1, 2))) == frozenset({1, 2, 4})


def test_support_equivariance():
    rng = random.Random(9)
    p = pairs_set()
    for _ in range(100):
        e = Element(p, "pair", tuple(rng.sample(range(6), 2)))
        f = make_perm([tuple(rng.sample(range(6), 2)) for _ in range(3)])
        assert support(act(f, e)) == frozenset(apply(f, a) for a in support(e))


def test_min_support_examples():
    up = upairs_set()
    e = Element(up, "upair", (0, 1))
    assert min_support(e, {0, 1, 5}) == frozenset({0, 1})
    p = pairs_set()
    assert min_support(Element(p, "pair", (0, 1)), {0, 1, 2, 3}) == frozenset({0, 1})
    assert min_support((), {0, 1}) == frozenset()


def test_min_support_matches_brute_force():
    rng = random.Random(13)
    families = [pairs_set(), upairs_set(), necklace_set()]
    for _ in range(120):
        fam = rng.choice(families)
        orbit = fam.orbits[0]
        regs = tuple(rng.sample(range(5), orbit.degree))
        e = Element(fam, orbit.name, regs)
        extra = set(rng.sample(range(6), rng.randrange(3)))
        candidates = set(regs) | extra
        assert min_support(e, candidates) == brute_min_support(e, candidates)


def test_same_orbit_produces_witness():
    p = pairs_set()
    e1, e2 = Element(p, "pair", (0, 1)), Element(p, "pair", (4, 2))
    w = same_orbit(e1, e2)
    assert w is not None and act(w, e1) == e2
    up = upairs_set()
    w2 = same_orbit(Element(up, "upair", (1, 0)), Element(up, "upair", (0, 1)))
    assert w2 == FinPerm({})


def test_same_orbit_distinct_orbits():
    s = OrbitFiniteSet([OrbitDescriptor("a", 1, CoordGroup(1)),
                        OrbitDescriptor("b", 1, CoordGroup(1))])
    assert same_orbit(Element(s, "a", (0,)), Element(s, "b", (0,))) is None
    # an equal copy of the set is the same set; another set is not
    twin = OrbitFiniteSet(s.orbits)
    assert same_orbit(Element(s, "a", (0,)), Element(twin, "a", (3,))) == make_perm([(0, 3)])
    other = OrbitFiniteSet([OrbitDescriptor("a", 1, CoordGroup(1))])
    with pytest.raises(ValueError, match="set mismatch"):
        same_orbit(Element(s, "a", (0,)), Element(other, "a", (0,)))


def test_same_orbit_support_sizes_match():
    rng = random.Random(17)
    neck = necklace_set()
    for _ in range(50):
        e1 = Element(neck, "neck", tuple(rng.sample(range(9), 3)))
        e2 = Element(neck, "neck", tuple(rng.sample(range(9), 3)))
        w = same_orbit(e1, e2)
        assert w is not None
        assert len(support(e1)) == len(support(e2))


def test_is_strong():
    assert is_strong(pairs_set())
    assert not is_strong(upairs_set())
    assert not is_strong(necklace_set())
    mixed = OrbitFiniteSet([OrbitDescriptor("a", 0, CoordGroup(0)),
                            OrbitDescriptor("b", 2, CoordGroup(2))])
    assert is_strong(mixed)


def test_enumerate_with_support_counts():
    # degree-3 orbits: count is 3! divided by the symmetry order
    trivial = OrbitFiniteSet([OrbitDescriptor("t", 3, CoordGroup(3))])
    cyclic = necklace_set()
    full = OrbitFiniteSet([OrbitDescriptor("f", 3, CoordGroup(3, [(1, 0, 2), (1, 2, 0)]))])
    atoms = {2, 4, 7}
    assert len(enumerate_with_support(trivial, atoms)) == 6
    assert len(enumerate_with_support(cyclic, atoms)) == 2
    assert len(enumerate_with_support(full, atoms)) == 1
    assert enumerate_with_support(full, {1, 2}) == []


def test_enumerate_with_support_elements_are_supported():
    atoms = {1, 3, 5}
    for e in enumerate_with_support(necklace_set(), atoms):
        assert support(e) == frozenset(atoms)
        assert min_support(e, atoms) == frozenset(atoms)


def test_set_json_roundtrip():
    up = OrbitFiniteSet([OrbitDescriptor("q1", 2, CoordGroup(2, [(1, 0)])),
                         OrbitDescriptor("q0", 0, CoordGroup(0))])
    blob = set_to_jsonable(up)
    assert blob == {"orbits": [
        {"name": "q1", "degree": 2, "generators": [[1, 0]]},
        {"name": "q0", "degree": 0, "generators": []},
    ]}
    assert set_from_jsonable(blob) == up
    assert set_to_jsonable(set_from_jsonable(blob)) == blob
    assert hash(set_from_jsonable(blob)) == hash(up)
    assert repr(up) == "OrbitFiniteSet(['q1', 'q0'])"
    assert up != up.orbits
    assert "q0" in up and "q2" not in up and up.orbit("q0") is up.orbits[1]
    with pytest.raises(ValueError, match="^unknown orbit 'q2'$"):
        up.orbit("q2")
    with pytest.raises(ValueError, match="^duplicate orbit name 'q1'$"):
        set_from_jsonable({"orbits": blob["orbits"] + blob["orbits"][:1]})


def test_element_json_roundtrip():
    up = upairs_set()
    e = Element(up, "upair", (3, 0))
    blob = element_to_jsonable(e)
    assert blob == {"orbit": "upair", "registers": [0, 3]}
    assert element_from_jsonable(up, blob) == e
    for malformed in [[], {"orbit": "upair"}, {"registers": [0, 3]}, "upair"]:
        with pytest.raises(ValueError, match="expected an object with 'orbit' and 'registers'"):
            element_from_jsonable(up, malformed)


def symmetric_group(degree):
    return CoordGroup(degree, [(1, 0, *range(2, degree)), (*range(1, degree), 0)])


def cyclic_group(degree):
    return CoordGroup(degree, [(*range(1, degree), 0)])


@pytest.mark.parametrize("group", [symmetric_group(n) for n in (3, 4, 5)]
                         + [cyclic_group(n) for n in range(2, 9)]
                         + [CoordGroup(n) for n in (0, 1, 3)],
                         ids=lambda g: repr(g))
def test_canonical_coset_matches_the_generator_formula(group):
    rng = random.Random(41 + group.degree)
    assert group.order in (1, group.degree, math.factorial(group.degree))
    # only a nontrivial group gets pickers, so loading an automaton builds none
    assert len(group._pickers) == (group.order if group.order > 1 else 0)
    for _ in range(40):
        regs = tuple(rng.sample(range(12), group.degree))
        old = min(tuple(regs[p[i]] for i in range(group.degree)) for p in group.closure)
        assert _canonical_coset(group, regs) == old
