"""Sections served from the stored form of a distinct-tuple function.

Each ``DistinctFsFun`` keeps one section and its support.  A section at
spares outside the support is that stored section moved by a permutation,
and at the stored spares the stored section itself; any other spares
rebuild.  Sections and supports are checked against the probe loops of
``helpers``, which read the function through ``distinct_apply`` only and
share no code with the stored form.  The reads through pending swaps that
build sections and compare restrictions are checked against the
``fs_apply`` chain, and counted so that they build no function.
"""

import copy
import itertools
import pickle
import random
from collections import Counter

import pytest

from nomfix import fsfunc
from nomfix.abstraction import Abstraction
from nomfix.fsfunc import FsFun, distinct_fs_eq, fs_apply, fs_from_table, restrict_distinct, section
from nomfix.nomset import Element
from nomfix.perm import fresh, make_perm, perm_between
from nomfix.values import act_value
from helpers import probe_distinct_support, probe_section
from test_fsfunc import ORBITS, rand_nested


def spare_tuples(rng, f, count):
    """``count`` spare tuples for ``f`` in a shuffled order: half outside its
    support, one of those outside its inner function's support too, and the
    rest meeting its support where it has one."""
    n, supp = f.arity, probe_distinct_support(f)
    pool = range(2 * n + 6)
    outside = [a for a in pool if a not in f.inner.support()]
    disjoint = [a for a in pool if a not in supp]
    out = [tuple(rng.sample(outside, 2 * n))]
    out += [tuple(rng.sample(disjoint, 2 * n)) for _ in range(count // 2 - 1)]
    while len(out) < count:
        w = tuple(rng.sample(pool, 2 * n))
        if not supp or not supp.isdisjoint(w):
            out.append(w)
    rng.shuffle(out)
    return out


@pytest.mark.parametrize("arity,draws", [(1, 40), (2, 25), (3, 3)])
def test_support_matches_probe_oracle(arity, draws):
    rng = random.Random(71 + arity)
    strict = 0
    for _ in range(draws):
        f = restrict_distinct(rand_nested(rng, arity))
        # a section's inner function carries its spares in its support
        g = restrict_distinct(section(f, tuple(rng.sample(range(2 * arity + 4), 2 * arity))))
        for h in (f, g):
            assert h.support() == probe_distinct_support(h) <= h.inner.support()
            strict += h.support() < h.inner.support()
    # every tuple of one atom is distinct, so only a wider arity loses atoms
    assert bool(strict) == (arity > 1)


@pytest.mark.parametrize("arity,draws", [(1, 12), (2, 12), (3, 2)])
def test_warm_sections_match_probe_loop(arity, draws):
    rng = random.Random(81 + arity)
    kinds = set()
    for i in range(draws):
        f = restrict_distinct(rand_nested(rng, arity))
        tuples = spare_tuples(rng, f, 6 + arity)
        supp = probe_distinct_support(f)
        if supp:  # alternate which kind of spares the first call gets
            first = next(j for j, w in enumerate(tuples) if supp.isdisjoint(w) == (i % 2 == 0))
            tuples.insert(0, tuples.pop(first))
            kinds.add(supp.isdisjoint(tuples[0]))
        for w in tuples:
            assert section(f, w) == probe_section(f, w)
        assert f._slot is not None  # filled, so later calls outside supp(f) were served from it
        # a permuted copy starts with an empty slot, so it sections as itself
        pi = make_perm([tuple(rng.sample(range(2 * arity + 6), 2)) for _ in range(3)])
        moved = act_value(pi, f)
        for w in tuples[:3]:
            assert section(moved, w) == probe_section(moved, w)
    assert kinds == {True, False}


def test_filled_stored_form_survives_copy_and_pickle():
    rng = random.Random(91)
    for _ in range(10):
        f = restrict_distinct(rand_nested(rng, 2, pool=4))
        w = tuple(rng.sample(range(6, 12), 4))
        g = section(f, w)
        want = hash(f)
        for twin in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert twin == f and hash(twin) == want
            assert section(twin, w) == g and section(twin, (0, 1, 2, 3)) == section(f, (0, 1, 2, 3))


def test_distinct_restrictions_hash_apart():
    rng = random.Random(97)
    found = []
    while len(found) < 20:
        f = restrict_distinct(rand_nested(rng, 2, pool=4))
        if not any(distinct_fs_eq(f, g) for g in found):
            found.append(f)
    assert len({hash(f) for f in found}) > 1
    # a restriction hashes as its own section does, whichever spares built it
    for f in found:
        for w in ((6, 7, 8, 9), (9, 0, 1, 5)):
            assert hash(restrict_distinct(section(f, w))) == hash(f)


def test_spares_meeting_only_the_inner_support_rebuild_once(monkeypatch):
    # a section restricted back carries some of its spares in its inner
    # support but not in its restriction's, so spares holding one of those
    # and missing supp(f) are served from the slot that the first such call fills
    builds = []
    build = fsfunc._section
    monkeypatch.setattr(fsfunc, "_section", lambda f, w: builds.append(w) or build(f, w))
    rng = random.Random(103)
    done = 0
    while done < 20:
        f = restrict_distinct(section(restrict_distinct(rand_nested(rng, 2, pool=4)), (6, 7, 8, 9)))
        supp = probe_distinct_support(f)
        extra = sorted(f.inner.support() - supp)
        if not extra or not supp:
            continue
        done += 1
        w = (extra[0], 13, 14, 15)
        builds.clear()
        assert section(f, w) == section(f, w) == section(f, w) == probe_section(f, w)
        assert len(builds) == 1 and f.support() == supp
        # spares meeting supp(f) rebuild, once a call now that the slot is filled
        u = (min(supp), 16, 17, 18)
        builds.clear()
        assert section(f, u) == section(f, u) == probe_section(f, u)
        assert builds == [u, u]


def rand_leaf(rng, pool, kinds=4):
    """An int, a tuple, an ``Abstraction`` or an ``Element`` over ``range(pool)``;
    the first ``kinds`` of those only."""
    kind = rng.randrange(kinds)
    if kind == 0:
        return rng.randrange(pool)
    if kind == 1:
        return tuple(rng.randrange(pool) for _ in range(rng.randrange(4)))
    if kind == 2:
        return Abstraction(rng.randrange(pool), (rng.randrange(pool), rng.randrange(pool)))
    return Element(ORBITS, rng.choice(["pr", "up"]), rng.sample(range(pool), 2))


def rand_mixed(rng, depth, pool=4, kinds=4):
    """A nested function ``depth`` deep whose leaves are drawn by ``rand_leaf``."""
    if depth == 0:
        return rand_leaf(rng, pool, kinds)
    table = {k: rand_mixed(rng, depth - 1, pool, kinds)
             for k in rng.sample(range(pool), rng.randrange(3))}
    default = rand_mixed(rng, depth - 1, pool, kinds)
    return fs_from_table(table, (fresh(set(table) | {pool}), default))


@pytest.mark.parametrize("arity,draws", [(1, 60), (2, 30), (3, 6)])
def test_read_matches_the_fs_apply_chain(arity, draws):
    rng = random.Random(107 + arity)
    leaves, at_default, renamed = set(), 0, 0
    for _ in range(draws):
        h = rand_mixed(rng, arity)
        for v in itertools.permutations(range(arity + 6), arity):
            want = h
            for b in v:
                want = fs_apply(want, b)
            assert fsfunc._read(h, v) == want
            leaves.add(type(want))
            a = h.default_atom
            at_default += v[0] == a
            # a first read off the table leaves the swap (a v[0]) pending for the later atoms
            renamed += v[0] not in h.keys and v[0] != a and a in v[1:]
    assert leaves == {int, tuple, Abstraction, Element}
    assert at_default and bool(renamed) == (arity > 1)


def test_section_at_the_stored_spares_is_the_stored_section():
    rng = random.Random(109)
    for _ in range(20):
        f = restrict_distinct(rand_nested(rng, 2, pool=4))
        w = tuple(rng.sample(range(5, 12), 4))  # off the inner support, so stored as given
        g = section(f, w)
        assert f._slot[1:] == (w, g)
        assert section(f, w) is g and g == probe_section(f, w)
        supp = f.support()
        # the same spares in another order are other spares
        others = [w[::-1], w[1:] + w[:1]]
        others += [tuple(rng.sample([a for a in range(12) if a not in supp], 4)) for _ in range(4)]
        for u in others:
            if u != w:
                assert section(f, u) == g.apply_perm(perm_between(w, u)) == probe_section(f, u)
        hash(f)  # moves the stored section to the least spares off supp(f)
        _, w0, g0 = f._slot
        assert section(f, w0) is g0 and g0 == probe_section(f, w0)


def counting_fsfun_builds(monkeypatch):
    """Count ``FsFun`` constructions and ``FsFun._moved`` calls from now on."""
    counts = Counter()
    init, moved = FsFun.__init__, FsFun._moved

    def counting_init(self, *args):
        counts["__init__"] += 1
        init(self, *args)

    def counting_moved(self, f):
        counts["_moved"] += 1
        return moved(self, f)

    monkeypatch.setattr(FsFun, "__init__", counting_init)
    monkeypatch.setattr(FsFun, "_moved", counting_moved)
    return counts


def test_reads_of_int_and_tuple_leaves_build_no_function(monkeypatch):
    counts = counting_fsfun_builds(monkeypatch)
    rng = random.Random(113)
    verdicts = set()
    for _ in range(30):
        f = restrict_distinct(rand_mixed(rng, 2, kinds=2))
        for h in (f, restrict_distinct(rand_mixed(rng, 2, kinds=2)),
                  restrict_distinct(section(f, (6, 7, 8, 9)))):
            counts.clear()
            verdicts.add(distinct_fs_eq(f, h))
            assert not counts
    assert verdicts == {True, False}


def test_repeated_sections_at_the_stored_spares_move_nothing(monkeypatch):
    counts = counting_fsfun_builds(monkeypatch)
    rng = random.Random(127)
    for _ in range(10):
        f = restrict_distinct(rand_nested(rng, 2, pool=4))
        w = (9, 7, 5, 11)
        g = section(f, w)
        counts.clear()
        assert section(f, w) is section(f, list(w)) is g
        assert not counts
