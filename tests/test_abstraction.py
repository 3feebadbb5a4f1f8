"""Name abstraction tests.

Alpha classes are compared two ways: through the public abstr_eq, which is
``==`` on the canonical structural form, and through the definition, the
private _eq_at hook (swap both binders to one fresh atom and compare
bodies).  The fresh-choice tests drive _eq_at with several different fresh
atoms to confirm the verdict never depends on the choice, and a seeded test
checks abstr_eq against _eq_at on nested bodies.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nomfix.abstraction import (
    Abstraction,
    _eq_at,
    abstr,
    abstr_eq,
    act_abstr,
    concretize,
)
from nomfix.nomset import CoordGroup, Element, OrbitDescriptor, OrbitFiniteSet, min_support
from nomfix.perm import fresh, make_perm
from nomfix.values import act_swap, act_value, support_value, value_eq
from test_fsfunc import ATOMS, SWAPS, VALUES, rand_image


def test_binder_canonicalization_examples():
    a = abstr(5, 5)
    assert (a.binder, a.body) == (0, 0)
    b = abstr(0, 1)
    assert (b.binder, b.body) == (0, 1)
    c = abstr(0, (0, 1))
    assert (c.binder, c.body) == (0, (0, 1))
    d = abstr(2, (2, 1))
    assert (d.binder, d.body) == (0, (0, 1))
    assert c == d
    for binder in (-1, True, 1.0, "0", (0,)):
        with pytest.raises(ValueError, match="binder must be a nonnegative integer atom"):
            Abstraction(binder, 0)


def test_vacuous_binder_is_forgotten():
    assert abstr(3, (1, 2)) == abstr(7, (1, 2))
    assert abstr(3, (1, 2)).binder == 0


def test_nested_abstraction_canonical_form():
    inner_then_outer = abstr(1, abstr(2, (1, 2)))
    assert inner_then_outer == abstr(3, abstr(4, (3, 4)))
    assert inner_then_outer.binder == 0
    assert inner_then_outer.body == Abstraction(1, (0, 1))


def test_abstr_eq_examples():
    assert abstr_eq(abstr(0, (0, 1)), abstr(2, (2, 1)))
    assert not abstr_eq(abstr(0, (0, 1)), abstr(0, (1, 0)))
    assert not abstr_eq(abstr(0, (0, 1)), abstr(1, (0, 1)))


def test_abstr_eq_matches_structural_equality():
    rng = random.Random(19)
    for _ in range(200):
        v = rng.randrange(4)
        body = tuple(rng.randrange(4) for _ in range(rng.randrange(1, 4)))
        w = rng.randrange(4)
        other = tuple(rng.randrange(4) for _ in range(rng.randrange(1, 4)))
        a1, a2 = abstr(v, body), abstr(w, other)
        assert abstr_eq(a1, a2) == (a1 == a2)


def test_abstr_eq_matches_the_swap_definition_on_nested_bodies():
    # bodies are FsFuns, elements with and without symmetry, abstractions and
    # restrictions; most second abstractions rename the first's binder to an
    # atom w fresh for it, through the action or through the constructor, and
    # some of the latter then swap two atoms of the body
    rng = random.Random(73)
    pairs, equal = 20000, 0
    for _ in range(pairs):
        a1 = Abstraction(rng.randrange(6), rand_image(rng))
        if rng.random() < 0.6:
            w = rng.choice([b for b in range(9) if b not in a1.support() | {a1.binder}])
            if rng.random() < 0.3:  # the swap fixes supp(a1), so it fixes a1
                a2 = act_swap(a1.binder, w, a1)
            else:
                body = act_swap(a1.binder, w, a1.body)
                if rng.random() < 0.4:
                    body = act_value(make_perm([tuple(rng.sample(range(7), 2))]), body)
                a2 = Abstraction(w, body)
        else:
            a2 = Abstraction(rng.randrange(6), rand_image(rng))
        taken = {a1.binder, a2.binder} | support_value(a1.body) | support_value(a2.body)
        verdict = abstr_eq(a1, a2)
        assert verdict == _eq_at(a1, a2, fresh(taken)) == abstr_eq(a2, a1)
        equal += verdict
    assert equal >= pairs // 3


def test_verdict_independent_of_fresh_choice():
    pairs = [
        (abstr(0, (0, 1)), abstr(2, (2, 1))),
        (abstr(0, (0, 1)), abstr(0, (1, 0))),
        (abstr(1, (1, 1)), abstr(3, (3, 3))),
        (abstr(4, (2,)), abstr(6, (2,))),
        (abstr(0, 0), abstr(0, 1)),
    ]
    for a1, a2 in pairs:
        taken = {a1.binder, a2.binder} | support_value(a1.body) | support_value(a2.body)
        base = fresh(taken)
        verdicts = {_eq_at(a1, a2, base + k) for k in range(5)}
        assert len(verdicts) == 1
        assert verdicts.pop() == abstr_eq(a1, a2)


def test_renaming_the_binder_preserves_the_class():
    rng = random.Random(23)
    for _ in range(200):
        v = rng.randrange(5)
        body = tuple(rng.randrange(5) for _ in range(3))
        w = rng.randrange(5, 10)  # not in the body support, not v
        renamed = act_value(make_perm([(v, w)]), body)
        assert abstr_eq(abstr(v, body), abstr(w, renamed))


def test_equivalence_relation_properties():
    rng = random.Random(29)
    classes = []
    for _ in range(60):
        v = rng.randrange(4)
        body = tuple(rng.randrange(4) for _ in range(2))
        classes.append(abstr(v, body))
    for a in classes:
        assert abstr_eq(a, a)
    for a in classes:
        for b in classes:
            assert abstr_eq(a, b) == abstr_eq(b, a)
    for a in classes:
        for b in classes:
            for c in classes:
                if abstr_eq(a, b) and abstr_eq(b, c):
                    assert abstr_eq(a, c)


def test_act_abstr_examples():
    a = abstr(0, (0, 1))
    moved = act_abstr(make_perm([(1, 2)]), a)
    assert moved == abstr(0, (0, 2))


def test_act_abstr_is_equivariant_on_classes():
    rng = random.Random(31)
    for _ in range(200):
        v = rng.randrange(5)
        body = tuple(rng.randrange(5) for _ in range(2))
        f = make_perm([tuple(rng.sample(range(6), 2)) for _ in range(3)])
        a = abstr(v, body)
        assert act_abstr(f, a) == abstr(act_value(f, v), act_value(f, body))


@settings(max_examples=200, deadline=None)
@given(ATOMS, VALUES, st.lists(SWAPS, max_size=3))
def test_action_on_abstractions_of_any_value_is_equivariant(v, body, swaps):
    f = make_perm(swaps)
    assert act_value(f, Abstraction(v, body)) == Abstraction(f(v), act_value(f, body))


def test_support_drops_the_binder():
    a = abstr(2, (2, 1, 4))
    assert a.support() == frozenset({1, 4})
    rng = random.Random(37)
    for _ in range(100):
        v = rng.randrange(5)
        body = tuple(rng.randrange(5) for _ in range(3))
        a = abstr(v, body)
        assert a.support() == support_value(body) - {v}
        candidates = a.support() | {7, 8}
        assert min_support(a, candidates) == a.support()


def test_concretize_roundtrip():
    a = abstr(0, (0, 1))
    assert concretize(a, 5) == (5, 1)
    assert concretize(a, 0) == (0, 1)
    assert abstr(5, concretize(a, 5)) == a


def test_concretize_rejects_supported_atom():
    a = abstr(0, (0, 1))
    with pytest.raises(ValueError, match="atom not fresh"):
        concretize(a, 1)


@pytest.mark.parametrize("w", [False, True, -1, 2.0])
def test_concretize_refuses_non_atoms_first(w):
    # False == 0 is the binder and True == 1 is in the support, yet both
    # are refused as non-atoms before either test
    a = abstr(0, (0, 1))
    with pytest.raises(ValueError, match="atoms are nonnegative integers"):
        concretize(a, w)


def test_abstraction_over_orbit_elements():
    fam = OrbitFiniteSet([OrbitDescriptor("pair", 2, CoordGroup(2))])
    e = Element(fam, "pair", (3, 1))
    a = abstr(3, e)
    assert a.support() == frozenset({1})
    assert abstr_eq(a, abstr(5, Element(fam, "pair", (5, 1))))
    assert not abstr_eq(a, abstr(5, Element(fam, "pair", (1, 5))))


def test_bodies_can_be_abstractions():
    outer = abstr(1, abstr(2, (1, 2)))
    same = abstr(2, abstr(1, (2, 1)))
    different = abstr(1, abstr(2, (2, 1)))
    assert abstr_eq(outer, same)
    assert not abstr_eq(outer, different)
    assert value_eq(outer, same)
