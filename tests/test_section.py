"""Sections served from the stored form of a distinct-tuple function.

Each ``DistinctFsFun`` keeps one section and its support.  A section at
spares outside the support is that stored section moved by a permutation;
any other spares rebuild.  Sections and supports are checked against the
probe loops of ``helpers``, which read the function through
``distinct_apply`` only and share no code with the stored form.
"""

import copy
import pickle
import random

import pytest

from nomfix import fsfunc
from nomfix.fsfunc import distinct_fs_eq, restrict_distinct, section
from nomfix.perm import make_perm
from nomfix.values import act_value
from helpers import probe_distinct_support, probe_section
from test_fsfunc import rand_nested


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
