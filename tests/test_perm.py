"""Finite permutation tests.

The oracles here are deliberately naive: transposition words are evaluated
pointwise, and restriction is computed by literal minimal-n search over
explicit inverse iteration.  Expected values in the example tests were
computed with these oracles and frozen.
"""

import random

import pytest

from nomfix.perm import (
    FinPerm,
    apply,
    apply_set,
    check_atoms,
    compose,
    factor,
    fresh,
    invert,
    is_atom,
    make_perm,
    perm_between,
    perm_from_pairs,
    perm_to_pairs,
    restrict,
)
from nomfix.values import act_value, support_value


def word_apply(word, a):
    """Evaluate a transposition word at a single atom, rightmost first."""
    for x, y in reversed(word):
        if a == x:
            a = y
        elif a == y:
            a = x
    return a


def inverse_power(f, n, a):
    for _ in range(n):
        a = apply(invert(f), a)
    return a


def restrict_oracle(f, w, v):
    """Literal restriction: f(v) on w, else first inverse iterate outside f[w]."""
    if v in w:
        return apply(f, v)
    image = apply_set(f, w)
    for n in range(len(w) + 1):
        u = inverse_power(f, n, v)
        if u not in image:
            return u
    raise AssertionError("no admissible inverse power found")


def random_perm(rng, pool):
    word = [tuple(rng.sample(pool, 2)) for _ in range(rng.randrange(6))]
    return make_perm(word), word


POOL = list(range(8))


def test_make_perm_three_cycle():
    f = make_perm([(0, 1), (1, 2)])
    assert [apply(f, a) for a in (0, 1, 2, 3)] == [1, 2, 0, 3]


def test_make_perm_matches_word_oracle():
    rng = random.Random(7)
    for _ in range(300):
        f, word = random_perm(rng, POOL)
        for a in range(10):
            assert apply(f, a) == word_apply(word, a)


def test_identity_and_involution():
    assert make_perm([]) == FinPerm({})
    swap = make_perm([(3, 5)])
    assert compose(swap, swap) == FinPerm({})


def test_make_perm_checks_every_transposition():
    with pytest.raises(ValueError):
        make_perm([(-1, 2), (-1, 2)])  # rejected although the word cancels
    with pytest.raises(ValueError):
        make_perm([(3, 3)])


def test_is_atom():
    assert is_atom(0) and is_atom(12)
    assert not any(is_atom(x) for x in (-1, True, False, 1.0, "1", None))
    assert check_atoms(0, 12, 0) == (0, 12, 0)
    for x in (-1, True, 1.0, "1", None):
        with pytest.raises(ValueError, match="atoms are nonnegative integers"):
            check_atoms(0, x)


@pytest.mark.parametrize("build", [
    lambda: make_perm([(0.5, 1)]),
    lambda: make_perm([(True, 2)]),
    lambda: make_perm([(2, "3")]),
    lambda: FinPerm({0.5: 1, 1: 0.5}),
    lambda: FinPerm({True: 2, 2: True}),
    lambda: FinPerm({1: True}),  # equal to a self-map, but not an atom
    lambda: apply(make_perm([(0, 1)]), True),
    lambda: apply(FinPerm({}), 1.0),
    # the value protocol refuses negative atoms, nested ones too
    lambda: act_value(make_perm([(0, 1)]), -1),
    lambda: act_value(make_perm([(0, 1)]), (1, (-3,))),
    lambda: support_value(-1),
    lambda: support_value((0, -2)),
    # refused before anything compares them, so True never passes as atom 1
    lambda: make_perm([(1, True)]),
    lambda: perm_from_pairs([[1, 0], [True, 1]]),
    lambda: perm_between([1, True], [2, 3]),
])
def test_non_atoms_are_rejected(build):
    with pytest.raises(ValueError, match="atoms are nonnegative integers"):
        build()


def test_finperm_rejects_bad_maps():
    with pytest.raises(ValueError):
        FinPerm({0: 1})  # not closed: 1 has no image
    with pytest.raises(ValueError):
        FinPerm({0: 1, 2: 1, 1: 0})  # not injective
    with pytest.raises(ValueError):
        FinPerm({-1: 0, 0: -1})  # negative atoms
    assert FinPerm({4: 4}) == FinPerm({})  # self-maps are dropped
    assert hash(FinPerm({4: 4, 0: 1, 1: 0})) == hash(make_perm([(1, 0)]))
    assert repr(make_perm([(2, 0)])) == "FinPerm({0->2, 2->0})"
    assert FinPerm({}) != {}


def test_compose_applies_right_factor_first():
    f = make_perm([(0, 1)])
    g = make_perm([(1, 2)])
    assert apply(compose(f, g), 1) == 2
    assert apply(compose(g, f), 1) == 0


def test_compose_is_pointwise_and_stores_no_fixed_point():
    rng = random.Random(13)
    for _ in range(300):
        (f, _), (g, _) = random_perm(rng, POOL), random_perm(rng, POOL)
        h = compose(f, g)
        assert [h(a) for a in range(10)] == [f(g(a)) for a in range(10)]
        assert all(h(a) != a for a in h.moved())
        assert h.moved() == {a for a in f.moved() | g.moved() if f(g(a)) != a}
        identity = compose(f, invert(f))
        assert identity == FinPerm({}) and identity.moved() == frozenset()
        assert hash(identity) == hash(FinPerm({}))


def test_invert():
    rng = random.Random(11)
    for _ in range(100):
        f, _ = random_perm(rng, POOL)
        assert compose(f, invert(f)) == FinPerm({})
        assert compose(invert(f), f) == FinPerm({})


def test_fresh_is_least_absent():
    assert fresh(set()) == 0
    assert fresh({0, 1, 3}) == 2
    assert fresh({1, 2}) == 0
    assert fresh({0, 1, 2}) == 3


def test_restrict_three_cycle_examples():
    f = make_perm([(0, 1), (1, 2)])  # 0 -> 1 -> 2 -> 0
    assert restrict(f, {0}) == make_perm([(0, 1)])
    assert restrict(f, {0, 1}) == f
    assert restrict(f, set()) == FinPerm({})


def test_factor_three_cycle_example():
    f = make_perm([(0, 1), (1, 2)])
    left, right = factor(f, {0})
    assert left == make_perm([(0, 1)])
    assert right == make_perm([(1, 2)])


def random_atom_set(rng):
    size = rng.randrange(5)
    return set(rng.sample(range(10), size))


def test_restrict_matches_pointwise_oracle():
    rng = random.Random(23)
    for _ in range(500):
        f, _ = random_perm(rng, POOL)
        w = random_atom_set(rng)
        g = restrict(f, w)
        probes = w | apply_set(f, w) | {0, 9, 11}
        for v in probes:
            assert apply(g, v) == restrict_oracle(f, w, v)


def test_restrict_image_properties():
    rng = random.Random(29)
    for _ in range(500):
        f, _ = random_perm(rng, POOL)
        w = random_atom_set(rng)
        g = restrict(f, w)
        fw = apply_set(f, w)
        assert apply_set(g, w) == fw
        assert apply_set(g, fw - w) == w - fw
        moved_outside = {a for a in g.moved() if a not in w | fw}
        assert moved_outside == set()


def test_factor_properties():
    rng = random.Random(31)
    for _ in range(500):
        f, _ = random_perm(rng, POOL)
        w = random_atom_set(rng)
        left, right = factor(f, w)
        assert all(apply(right, v) == v for v in w)
        assert compose(left, right) == f


def test_restrict_composition_compatibility():
    rng = random.Random(37)
    for _ in range(500):
        f, _ = random_perm(rng, POOL)
        h, _ = random_perm(rng, POOL)
        w = random_atom_set(rng)
        lhs = restrict(compose(f, h), w)
        f_part = restrict(f, apply_set(h, w))
        h_part = restrict(h, w)
        for v in w:
            assert apply(lhs, v) == apply(f_part, apply(h_part, v))


def test_serialization_roundtrip_and_order():
    f = make_perm([(2, 0), (5, 7)])
    pairs = perm_to_pairs(f)
    assert pairs == sorted(pairs)
    assert perm_from_pairs(pairs) == f
    assert perm_to_pairs(perm_from_pairs(pairs)) == pairs
    with pytest.raises(ValueError):
        perm_from_pairs([[0, 1]])
    with pytest.raises(ValueError, match="duplicate source atom 0"):
        perm_from_pairs([[0, 1], [0, 2], [1, 0]])


def test_perm_between_maps_the_tuples_and_fixes_the_rest():
    rng = random.Random(99)
    for _ in range(200):
        k = rng.randrange(6)
        src, dst = rng.sample(range(10), k), rng.sample(range(10), k)
        pi = perm_between(src, dst)
        assert [pi(a) for a in src] == dst
        assert pi.moved() <= set(src) | set(dst)


def test_perm_between_refuses_repeats_and_unequal_lengths():
    # a repeated atom or a length mismatch once gave a wrong permutation silently:
    # ((1, 1), (2, 3)) sent 1 to 3, and ((1, 2, 5), (3, 4)) fixed 5
    for src, dst in [((1, 1), (2, 3)), ((2, 3), (1, 1)), ((1, 2, 5), (3, 4)),
                     ((3, 4), (1, 2, 5)), ((0, 1, 0), (0, 1, 0)), ((), (0,))]:
        with pytest.raises(ValueError, match="two equally long tuples of distinct atoms"):
            perm_between(src, dst)
    assert perm_between(range(3), (2, 0, 1)) == FinPerm({0: 2, 1: 0, 2: 1})
