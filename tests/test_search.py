"""The breadth-first search engine behind every equivalence check."""

from nomfix.search import bfs, picker


def _counting(expand):
    calls = []

    def wrapped(config):
        calls.append(config)
        return expand(config)

    return wrapped, calls


def test_expand_runs_once_per_key():
    # configurations are (n, path) and keyed by n alone: many paths reach
    # each n, and 0 -> 0 leads straight back to the root's key
    expand, calls = _counting(
        lambda c: [((c[0] * k) % 10, ((c[0] * k) % 10, c[1] + (k,))) for k in (0, 1, 3)]
    )
    bad, seen = bfs((1, (1, ())), expand)
    assert bad is None
    assert seen == {0, 1, 3, 9, 7}
    assert sorted(n for n, _ in calls) == sorted(seen)
    # the first path to reach each key is the one expanded
    assert calls == [(1, ()), (0, (0,)), (3, (3,)), (9, (3, 3)), (7, (3, 3, 3))]


def test_child_with_the_root_key_is_not_requeued():
    expand, calls = _counting(lambda c: [("root", "again"), ("leaf", "leaf")] if c == "start" else [])
    bad, seen = bfs(("root", "start"), expand)
    assert (bad, seen) == (None, {"root", "leaf"})
    assert calls == ["start", "leaf"]


def test_depth_expands_exactly_the_levels_above_it():
    # an infinite chain: configuration n sits at level n
    for depth in range(5):
        expand, calls = _counting(lambda n: [(n + 1, n + 1)])
        bad, seen = bfs((0, 0), expand, depth)
        assert bad is None
        assert calls == list(range(depth))
        assert seen == set(range(depth + 1))


def test_a_disagreement_shows_only_at_a_depth_that_expands_it():
    def disagree_at_3(n):
        return None if n == 3 else [(n + 1, n + 1)]

    assert bfs((0, 0), disagree_at_3, 3)[0] is None
    assert bfs((0, 0), disagree_at_3, 4)[0] == 3
    assert bfs((0, 0), disagree_at_3)[0] == 3


def test_first_disagreement_in_fifo_order_is_returned():
    # a binary tree of words; "ba" and "ab" disagree, and so does "aab"
    bad_words = {"ab", "ba", "aab"}

    def expand(word):
        if word in bad_words:
            return None
        return [(word + x, word + x) for x in "ab"]

    expand, calls = _counting(expand)
    bad, seen = bfs(("", ""), expand)
    assert bad == "ab"
    assert calls == ["", "a", "b", "aa", "ab"]
    assert seen == {"", "a", "b", "aa", "ab", "ba", "bb", "aaa", "aab"}


def test_picker_always_returns_a_tuple():
    seq = ("a", "b", "c")
    assert picker([])(seq) == ()
    assert picker([2])(seq) == ("c",)
    assert picker((2, 0, 2))(seq) == ("c", "a", "c")
