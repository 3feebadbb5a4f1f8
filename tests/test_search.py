"""The breadth-first search engine behind every equivalence check."""

import itertools
import random

from nomfix import nomauto
from nomfix.search import bfs, picker

from helpers import random_dfa


def _stepper(children):
    """An ``expand`` for :func:`bfs` built from ``children(config)``, which
    gives ``None`` or the ``(key, child)`` candidates, and the list of the
    configurations it expanded, in order."""
    calls = []

    def expand(config, seen, push):
        calls.append(config)
        candidates = children(config)
        if candidates is None:
            return None
        for key, child in candidates:
            if key not in seen:
                seen.add(key)
                push.append(child)
        return push

    return expand, calls


def test_expand_runs_once_per_key():
    # configurations are (n, path) and keyed by n alone: many paths reach
    # each n, and 0 -> 0 leads straight back to the root's key
    expand, calls = _stepper(
        lambda c: [((c[0] * k) % 10, ((c[0] * k) % 10, c[1] + (k,))) for k in (0, 1, 3)]
    )
    bad, seen = bfs((1, (1, ())), expand)
    assert bad is None
    assert seen == {0, 1, 3, 9, 7}
    assert sorted(n for n, _ in calls) == sorted(seen)
    # the first path to reach each key is the one expanded
    assert calls == [(1, ()), (0, (0,)), (3, (3,)), (9, (3, 3)), (7, (3, 3, 3))]


def test_child_with_the_root_key_is_not_requeued():
    expand, calls = _stepper(lambda c: [("root", "again"), ("leaf", "leaf")] if c == "start" else [])
    bad, seen = bfs(("root", "start"), expand)
    assert (bad, seen) == (None, {"root", "leaf"})
    assert calls == ["start", "leaf"]


def test_depth_expands_exactly_the_levels_above_it():
    # an infinite chain: configuration n sits at level n
    for depth in range(5):
        expand, calls = _stepper(lambda n: [(n + 1, n + 1)])
        bad, seen = bfs((0, 0), expand, depth)
        assert bad is None
        assert calls == list(range(depth))
        assert seen == set(range(depth + 1))


def test_a_disagreement_shows_only_at_a_depth_that_expands_it():
    def disagree_at_3(n):
        return None if n == 3 else [(n + 1, n + 1)]

    assert bfs((0, 0), _stepper(disagree_at_3)[0], 3)[0] is None
    assert bfs((0, 0), _stepper(disagree_at_3)[0], 4)[0] == 3
    assert bfs((0, 0), _stepper(disagree_at_3)[0])[0] == 3


def test_first_disagreement_in_fifo_order_is_returned():
    # a binary tree of words; "ba" and "ab" disagree, and so does "aab"
    bad_words = {"ab", "ba", "aab"}

    def children(word):
        if word in bad_words:
            return None
        return [(word + x, word + x) for x in "ab"]

    expand, calls = _stepper(children)
    bad, seen = bfs(("", ""), expand)
    assert bad == "ab"
    assert calls == ["", "a", "b", "aa", "ab"]
    assert seen == {"", "a", "b", "aa", "ab", "ba", "bb", "aaa", "aab"}


def test_dfa_equiv_builds_a_child_only_for_a_new_key(monkeypatch):
    # each expansion pushes one child per key it adds, and most candidate
    # letters repeat a key, so building a child per letter would be waste
    runs = []

    def counting_bfs(root, expand, depth=None):
        pushed = candidates = 0

        def counted(config, seen, push):
            nonlocal pushed, candidates
            r1, r2 = config[1], config[3]
            candidates += len(set(r1).union(r2)) + 1
            keys, children = len(seen), len(push)
            result = expand(config, seen, push)
            assert len(push) - children == len(seen) - keys
            pushed += len(push) - children
            return result

        bad, seen = bfs(root, counted, depth)
        runs.append((pushed, len(seen), candidates))
        return bad, seen

    monkeypatch.setattr(nomauto, "bfs", counting_bfs)
    rng = random.Random(17)
    for _ in range(200):
        d1 = random_dfa(rng, 5, 4, chain=True)
        d2 = random_dfa(rng, 5, 4, chain=True)
        nomauto.dfa_equiv(d1, d2)
        nomauto.dfa_equiv(d1, d1)
    assert len(runs) == 400
    assert all(pushed == keys - 1 for pushed, keys, _ in runs)
    assert sum(pushed for pushed, _, _ in runs) < sum(c for _, _, c in runs) // 2


def test_picker_always_returns_a_tuple():
    seq = ("a", "b", "c")
    assert picker([])(seq) == ()
    assert picker([2])(seq) == ("c",)
    assert picker((2, 0, 2))(seq) == ("c", "a", "c")


def test_picker_matches_indexing_on_every_short_index_tuple():
    seq = ("w", "x", "y", "z")
    for length in range(4):
        for idx in itertools.product(range(4), repeat=length):
            for given in (idx, list(idx)):
                got = picker(given)(seq)
                assert type(got) is tuple
                assert got == tuple(seq[i] for i in idx)
