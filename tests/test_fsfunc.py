"""Finitely supported function tests.

oracle_apply is the literal evaluation rule for a raw quadruple, written
against plain data so it cannot share a bug with the canonicalizing FsFun
class: table hit at the first matching key, otherwise swap the default atom
to the query point inside the default value.  All frozen expected values
below were computed with it.
"""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nomfix.fsfunc import (
    DistinctFsFun,
    FsFun,
    distinct_apply,
    distinct_fs_eq,
    fill,
    fs_apply,
    fs_eq,
    fs_from_table,
    fs_support,
    nesting_depth,
    restrict_distinct,
    section,
    strong_exponent_apply,
    uniq,
)
from nomfix.abstraction import Abstraction
from nomfix.nomset import CoordGroup, Element, OrbitDescriptor, OrbitFiniteSet, min_support
from nomfix.perm import FinPerm, apply_set, fresh, invert, make_perm
from nomfix.values import act_value, support_value, value_eq
from helpers import probe_distinct_fs_eq, probe_section, rebuild_apply_perm, swap_test_fsfun
from test_nomset import brute_min_support


def oracle_apply(a, d, keys, vals, b):
    for k, x in zip(keys, vals):
        if k == b:
            return x
    if a == b:
        return d
    return act_value(make_perm([(a, b)]), d)


def test_identity_function():
    f = FsFun(7, 7, (), ())
    assert (f.default_atom, f.default_value, f.keys, f.values) == (0, 0, (), ())
    for b in (0, 1, 7, 12):
        assert fs_apply(f, b) == b


def test_canonicalization_of_singleton_table():
    f = fs_from_table({1: 2}, (7, 0))
    # the raw quadruple (7, 0, (1,), (2,)) maps 0 to 7, so 7 stays relevant
    assert f.keys == (0, 1, 2, 7)
    assert f.values == (7, 2, 0, 0)
    assert (f.default_atom, f.default_value) == (3, 0)
    for b in (0, 1, 2, 3, 5, 7, 11):
        assert fs_apply(f, b) == oracle_apply(7, 0, (1,), (2,), b)
    assert fs_apply(f, 0) == 7
    assert fs_apply(f, 5) == 0


def test_canonicalization_is_idempotent():
    rng = random.Random(3)
    for _ in range(200):
        keys = tuple(rng.sample(range(5), rng.randrange(3)))
        vals = tuple(rng.randrange(5) for _ in keys)
        f = FsFun(rng.randrange(6), rng.randrange(6), keys, vals)
        again = FsFun(f.default_atom, f.default_value, f.keys, f.values)
        assert (again.default_atom, again.default_value, again.keys, again.values) == \
               (f.default_atom, f.default_value, f.keys, f.values)


def test_canonical_apply_matches_raw_oracle():
    rng = random.Random(5)
    for _ in range(500):
        keys = tuple(rng.sample(range(6), rng.randrange(4)))
        vals = tuple(rng.randrange(6) for _ in keys)
        a, d = rng.randrange(7), rng.randrange(7)
        f = FsFun(a, d, keys, vals)
        for b in list(range(8)) + [13]:
            assert fs_apply(f, b) == oracle_apply(a, d, keys, vals, b)


def test_from_table_reproduces_table_and_fresh_pattern():
    rng = random.Random(7)
    for _ in range(500):
        table = {k: rng.randrange(6) for k in rng.sample(range(6), rng.randrange(4))}
        a = fresh(table)
        d = rng.randrange(6)
        f = fs_from_table(table, (a, d))
        for k, v in table.items():
            assert fs_apply(f, k) == v
        assert fs_apply(f, a) == d


def test_from_table_rejects_clashing_default_atom():
    with pytest.raises(ValueError, match="default atom not fresh"):
        fs_from_table({1: 2}, (1, 0))
    # the constructor itself checks the atoms and the table's lengths
    for keys in [(0, -1), (True,), (0.0,), ("1",)]:
        with pytest.raises(ValueError, match="atoms are nonnegative integers"):
            FsFun(5, 0, keys, (0,) * len(keys))
    with pytest.raises(ValueError, match="atoms are nonnegative integers"):
        FsFun(-5, 0, (), ())
    with pytest.raises(ValueError, match="keys and values must have equal length"):
        FsFun(5, 0, (1, 2), (0,))
    for atom in (-1, True, 1.0, "1"):
        with pytest.raises(ValueError, match="atoms are nonnegative integers"):
            fs_apply(fs_from_table({1: 2}, (7, 0)), atom)


def test_fs_eq_examples():
    id7 = fs_from_table({}, (7, 7))
    id4 = fs_from_table({}, (4, 4))
    assert fs_eq(id7, id4)
    assert id7 == id4
    assert not fs_eq(id7, fs_from_table({}, (4, 5)))


def test_fs_eq_matches_extensional_comparison():
    rng = random.Random(11)
    for _ in range(300):
        def rand():
            keys = tuple(rng.sample(range(5), rng.randrange(3)))
            vals = tuple(rng.randrange(5) for _ in keys)
            return FsFun(rng.randrange(6), rng.randrange(6), keys, vals)
        f, g = rand(), rand()
        extensional = all(value_eq(fs_apply(f, b), fs_apply(g, b)) for b in range(20))
        assert fs_eq(f, g) == extensional
        assert (f == g) == extensional


def test_star_action_is_extensional_precomposition():
    rng = random.Random(13)
    for _ in range(200):
        keys = tuple(rng.sample(range(5), rng.randrange(3)))
        vals = tuple(rng.randrange(5) for _ in keys)
        f = FsFun(rng.randrange(6), rng.randrange(6), keys, vals)
        pi = make_perm([tuple(rng.sample(range(7), 2)) for _ in range(3)])
        moved = f.apply_perm(pi)
        for y in range(9):
            assert fs_apply(moved, y) == act_value(pi, fs_apply(f, invert(pi)(y)))


def test_support_examples():
    assert fs_support(fs_from_table({}, (7, 7))) == frozenset()
    assert fs_support(fs_from_table({}, (7, ()))) == frozenset()
    assert fs_support(fs_from_table({1: 2}, (7, 0))) == frozenset({0, 1, 2, 7})
    assert min_support(fs_from_table({}, (7, 7)), {7}) == frozenset()


def test_support_equals_canonical_keys():
    rng = random.Random(17)
    for _ in range(200):
        keys = tuple(rng.sample(range(5), rng.randrange(3)))
        vals = tuple(rng.randrange(5) for _ in keys)
        f = FsFun(rng.randrange(6), rng.randrange(6), keys, vals)
        assert fs_support(f) == frozenset(f.keys)
        assert f.support() == frozenset(f.keys)


def test_uniq_examples():
    assert uniq((0, 1, 2)) == (0, 1, 2)
    assert uniq((3, 3)) == (3,)
    assert uniq((5, 2, 5, 2)) == (5, 2)
    assert uniq(()) == ()


def test_uniq_fixes_distinct_tuples():
    rng = random.Random(19)
    for _ in range(500):
        n = rng.randrange(1, 5)
        v = tuple(rng.sample(range(9), n))
        assert uniq(v) == v


def test_fill_examples():
    assert fill((0, 1), (4, 5, 6, 7)) == (0, 1)
    assert fill((3, 3), (0, 1, 2, 4)) == (3, 0)
    assert fill((0, 0), (0, 1, 2, 3)) == (0, 1)


def test_fill_requires_2n_distinct_and_positive_arity():
    with pytest.raises(ValueError, match="fill requires 2n distinct atoms"):
        fill((0, 1), (4, 5, 6))
    with pytest.raises(ValueError, match="fill requires 2n distinct atoms"):
        fill((0, 1), (4, 4, 6, 7))
    with pytest.raises(ValueError):
        fill((), ())


def test_fill_output_is_distinct_and_extends_uniq():
    rng = random.Random(23)
    for _ in range(500):
        n = rng.randrange(1, 4)
        v = tuple(rng.choice(range(5)) for _ in range(n))
        w = tuple(rng.sample(range(12), 2 * n))
        out = fill(v, w)
        assert len(out) == n and len(set(out)) == n
        assert out[:len(uniq(v))] == uniq(v)
        assert set(out) <= set(uniq(v)) | set(w)


def test_fill_restricts_to_identity_on_distinct_tuples():
    rng = random.Random(29)
    for _ in range(500):
        n = rng.randrange(1, 4)
        v = tuple(rng.sample(range(6), n))
        w = tuple(rng.sample(range(6, 20), 2 * n))
        assert fill(v, w) == v


def rand_inner(rng, pool=4):
    table = {k: rng.randrange(pool) for k in rng.sample(range(pool), rng.randrange(3))}
    a = fresh(set(table) | {pool})
    return fs_from_table(table, (a, rng.randrange(pool)))


def rand_nested2(rng, pool=4):
    table = {k: rand_inner(rng, pool) for k in rng.sample(range(pool), rng.randrange(3))}
    a = fresh(set(table) | {pool + 1})
    return fs_from_table(table, (a, rand_inner(rng, pool)))


def test_nesting_depth():
    rng = random.Random(31)
    assert nesting_depth(5) == 0
    assert nesting_depth(rand_inner(rng)) == 1
    assert nesting_depth(rand_nested2(rng)) == 2
    mixed = FsFun(6, 3, (0,), (rand_inner(rng),))
    with pytest.raises(ValueError):
        nesting_depth(mixed)


def test_restrict_distinct_and_apply():
    rng = random.Random(37)
    g = rand_nested2(rng)
    f = restrict_distinct(g)
    assert f.arity == 2
    assert distinct_apply(f, (2, 5)) == fs_apply(fs_apply(g, 2), 5)
    with pytest.raises(ValueError):
        distinct_apply(f, (2, 2))
    with pytest.raises(ValueError):
        distinct_apply(f, (2,))


def test_distinct_fs_fun_rejects_bad_arity():
    inner = fs_from_table({1: 2}, (7, 0))
    for arity in (True, False, 0, 1.0):
        with pytest.raises(ValueError, match="arity must be at least 1"):
            DistinctFsFun(arity, inner)
    assert DistinctFsFun(1, inner).arity == 1
    for arity, inner in [(2, inner), (1, fs_from_table({1: inner}, (7, inner)))]:
        with pytest.raises(ValueError, match="inner nesting depth must equal the arity"):
            DistinctFsFun(arity, inner)


def test_section_roundtrip_arity_two():
    rng = random.Random(41)
    for _ in range(60):
        f = restrict_distinct(rand_nested2(rng))
        w = tuple(rng.sample(range(12), 4))
        g = section(f, w)
        assert nesting_depth(g) == 2
        back = restrict_distinct(g)
        for v in itertools.permutations(range(5), 2):
            assert value_eq(distinct_apply(back, v), distinct_apply(f, v))


def test_section_agrees_with_fill_composition():
    rng = random.Random(43)
    f = restrict_distinct(rand_nested2(rng))
    w = (6, 7, 8, 9)
    g = section(f, w)
    for v in [(0, 0), (1, 1), (3, 3), (0, 1)]:
        assert value_eq(fs_apply(fs_apply(g, v[0]), v[1]),
                        distinct_apply(f, fill(v, w)))


def test_section_validates_arguments():
    rng = random.Random(47)
    f = restrict_distinct(rand_nested2(rng))
    with pytest.raises(ValueError, match="fill requires 2n distinct atoms"):
        section(f, (1, 2, 3))


def test_distinct_fs_eq_ignores_behaviour_off_distinct_tuples():
    rng = random.Random(53)
    for _ in range(40):
        f = restrict_distinct(rand_nested2(rng))
        w1 = tuple(rng.sample(range(12), 4))
        w2 = tuple(rng.sample(range(12, 24), 4))
        # two different total extensions of the same restriction
        assert distinct_fs_eq(restrict_distinct(section(f, w1)),
                              restrict_distinct(section(f, w2)))
    # restrictions of different arities are never equal
    assert not distinct_fs_eq(f, restrict_distinct(fs_from_table({}, (7, 0))))


def test_distinct_support_matches_brute_force():
    rng = random.Random(59)
    cases = [restrict_distinct(rand_nested2(rng)) for _ in range(12)]
    # 5 and 9 occur only in the value at (5, 5), which is not a distinct pair
    cases.append(restrict_distinct(fs_from_table(
        {5: fs_from_table({5: (9,)}, (7, ()))}, (8, fs_from_table({}, (7, ()))))))
    assert cases[-1].support() == frozenset()
    assert cases[-1].inner.support() == frozenset({5, 9})
    for f in cases:
        cands = f.inner.support()
        assert f.support() == brute_min_support(f, cands, eq=distinct_fs_eq)


def strong_family():
    return OrbitFiniteSet([OrbitDescriptor("pt", 0, CoordGroup(0)),
                           OrbitDescriptor("pr", 2, CoordGroup(2))])


def test_strong_exponent_apply():
    rng = random.Random(59)
    fam = strong_family()
    pr_comp = restrict_distinct(rand_nested2(rng))
    components = {"pt": 9, "pr": pr_comp}
    assert strong_exponent_apply(components, Element(fam, "pt", ())) == 9
    e = Element(fam, "pr", (3, 1))
    assert value_eq(strong_exponent_apply(components, e),
                    distinct_apply(pr_comp, (3, 1)))


def test_strong_exponent_rejects_nonstrong_set():
    fam = OrbitFiniteSet([OrbitDescriptor("up", 2, CoordGroup(2, [(1, 0)]))])
    e = Element(fam, "up", (0, 1))
    with pytest.raises(ValueError, match="exponent requires a strong nominal set"):
        strong_exponent_apply({"up": None}, e)


def test_strong_exponent_validates_components():
    fam = strong_family()
    with pytest.raises(ValueError):
        strong_exponent_apply({"pt": 9}, Element(fam, "pr", (0, 1)))
    with pytest.raises(ValueError):
        strong_exponent_apply({"pt": 9, "pr": 4}, Element(fam, "pr", (0, 1)))


def test_fsfun_values_nest_in_abstractions():
    from nomfix.abstraction import abstr, abstr_eq
    f = fs_from_table({1: 2}, (7, 0))
    g = fs_from_table({3: 2}, (7, 0))
    # the swap (1 3) carries f to g except at the fresh-pattern collisions
    a1 = abstr(1, f)
    a2 = abstr(3, act_value(make_perm([(1, 3)]), f))
    assert abstr_eq(a1, a2)
    assert a1.support() == f.support() - {1}


def rand_value(rng, depth=2):
    """A random nested value: atoms, tuples, abstractions (vacuous binders
    included), FsFuns at depth 1-2 and over other values, and restrictions."""
    kind = rng.randrange(8 if depth > 1 else 5) if depth else 0
    if kind == 0:
        return rng.randrange(6)
    if kind == 1:
        return tuple(rand_value(rng, depth - 1) for _ in range(rng.randrange(4)))
    if kind in (2, 3):
        body = rand_value(rng, depth - 1)
        if kind == 3:  # vacuous binder
            return Abstraction(fresh(support_value(body)) + rng.randrange(3), body)
        return Abstraction(rng.randrange(6), body)
    if kind == 4:
        return rand_inner(rng, 5)
    if kind == 5:
        table = {k: rand_value(rng, depth - 1) for k in rng.sample(range(5), rng.randrange(3))}
        return fs_from_table(table, (fresh(set(table) | {5}), rand_value(rng, depth - 1)))
    if kind == 6:
        return rand_nested2(rng, 3)
    return restrict_distinct(rand_inner(rng) if rng.random() < 0.5 else rand_nested2(rng, 3))


def test_action_matches_constructor_rebuild():
    rng = random.Random(59)
    for _ in range(1000):
        value = rand_value(rng)
        support = support_value(value)
        for _ in range(2):
            pi = make_perm([tuple(rng.sample(range(9), 2)) for _ in range(rng.randrange(1, 5))])
            out = act_value(pi, value)
            # repr is structural, where DistinctFsFun's == is extensional
            assert repr(out) == repr(rebuild_apply_perm(pi, value))
            # the image is a fixed point of its constructor, hence canonical
            if isinstance(out, FsFun):
                assert repr(FsFun(out.default_atom, out.default_value, out.keys, out.values)) == repr(out)
            if isinstance(out, Abstraction):
                assert repr(Abstraction(out.binder, out.body)) == repr(out)
            assert support_value(out) == apply_set(pi, support)


ATOMS = st.integers(0, 4)
ORBITS = OrbitFiniteSet([OrbitDescriptor("pr", 2, CoordGroup(2)),
                         OrbitDescriptor("up", 2, CoordGroup(2, [(1, 0)]))])


def raw_quadruples(values):
    """Raw constructor arguments: any default atom, and keys that may repeat
    and may include it."""
    return st.tuples(ATOMS, values, st.lists(st.tuples(ATOMS, values), max_size=3)).map(
        lambda q: (q[0], q[1], tuple(k for k, _ in q[2]), tuple(v for _, v in q[2])))


def nested_functions(arity):
    leaves = ATOMS if arity == 1 else nested_functions(arity - 1)
    return raw_quadruples(leaves).map(lambda q: FsFun(*q))


def value_trees(leaves):
    return st.one_of(
        st.lists(leaves, max_size=3).map(tuple),
        st.builds(Abstraction, ATOMS, leaves),
        raw_quadruples(leaves).map(lambda q: FsFun(*q)),
    )


VALUES = st.recursive(st.one_of(
    ATOMS,
    st.builds(lambda orbit, regs: Element(ORBITS, orbit, regs),
              st.sampled_from(["pr", "up"]), st.lists(ATOMS, min_size=2, max_size=2, unique=True)),
    st.builds(DistinctFsFun, st.just(1), nested_functions(1)),
    st.builds(DistinctFsFun, st.just(2), nested_functions(2)),
), value_trees, max_leaves=6)


@settings(max_examples=200, deadline=None)
@given(raw_quadruples(st.one_of(ATOMS, VALUES)))
@example((0, 1, (0,), (0,)))  # only f(z2) = 1 has 1 in its support; f(1) = 0
def test_constructor_matches_swap_test_oracle(quadruple):
    f = FsFun(*quadruple)
    # repr is structural, where DistinctFsFun's == is extensional
    assert repr((f.keys, f.values, f.default_atom, f.default_value)) == \
        repr(swap_test_fsfun(*quadruple))


def rebuilt(value):
    """An equal value built from other constructor arguments: each
    DistinctFsFun from a section of itself, so from another inner function
    in general, and each Element over an equal copy of its family."""
    if isinstance(value, int):
        return value
    if isinstance(value, tuple):
        return tuple(map(rebuilt, value))
    if isinstance(value, Abstraction):
        return Abstraction(value.binder, rebuilt(value.body))
    if isinstance(value, FsFun):
        return FsFun(value.default_atom, rebuilt(value.default_value), value.keys,
                     tuple(map(rebuilt, value.values)))
    if isinstance(value, Element):
        return Element(OrbitFiniteSet(value.family.orbits), value.orbit, value.registers)
    return DistinctFsFun(value.arity, section(value, range(7, 7 + 2 * value.arity)))


@settings(max_examples=100, deadline=None)
@given(st.lists(VALUES, min_size=1, max_size=3),
       st.lists(st.tuples(ATOMS, ATOMS).filter(lambda t: t[0] != t[1]), max_size=3))
def test_equal_values_hash_equal(values, swaps):
    pi = make_perm(swaps)
    # rebuilt, then moved there and back through every apply_perm
    copies = [act_value(invert(pi), act_value(pi, rebuilt(v))) for v in values]
    assert copies == values
    for a in values + copies:
        for b in values + copies:
            assert a != b or hash(a) == hash(b)
    # containers keyed by values find each one under its equal copy
    assert set(copies) == set(values) and len(set(values + copies)) == len(set(values))
    index = {v: i for i, v in enumerate(values)}
    assert {c: index[c] for c in copies} == index
    wrapped = Abstraction(0, tuple(values)), FsFun(0, 0, (1,), (tuple(values),))
    assert {Abstraction(0, tuple(copies)), FsFun(0, 0, (1,), (tuple(copies),))} == set(wrapped)


def rand_nested(rng, depth, pool=3):
    if depth == 0:
        return rng.randrange(pool)
    table = {k: rand_nested(rng, depth - 1, pool) for k in rng.sample(range(pool), rng.randrange(3))}
    return fs_from_table(table, (fresh(set(table) | {pool}), rand_nested(rng, depth - 1, pool)))


def mutate_one_entry(rng, h, depth, pool=3):
    """``h`` with one stored image, at some nesting level, drawn afresh."""
    i = rng.randrange(len(h.keys) + 1)
    old = h.values[i] if i < len(h.keys) else h.default_value
    new = (mutate_one_entry(rng, old, depth - 1, pool) if depth > 1 and rng.random() < 0.5
           else rand_nested(rng, depth - 1, pool))
    if i == len(h.keys):
        return FsFun(h.default_atom, new, h.keys, h.values)
    return FsFun(h.default_atom, h.default_value, h.keys, h.values[:i] + (new,) + h.values[i + 1:])


@pytest.mark.parametrize("arity,draws", [(1, 150), (2, 60), (3, 8)])
def test_distinct_reads_match_probe_loop(arity, draws):
    rng = random.Random(61 + arity)
    verdicts = set()
    for _ in range(draws):
        f = restrict_distinct(rand_nested(rng, arity))
        w = tuple(rng.sample(range(2 * arity + 4), 2 * arity))
        g = section(f, w)
        assert g == probe_section(f, w)
        for other in (g, mutate_one_entry(rng, f.inner, arity)):
            h = restrict_distinct(other)
            verdict = distinct_fs_eq(f, h)
            assert verdict == probe_distinct_fs_eq(f, h) == distinct_fs_eq(h, f)
            verdicts.add(verdict)
    assert verdicts == {True, False}
