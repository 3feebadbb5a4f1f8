"""Binding term graph tests.

Two independent oracles from helpers drive the equivalence tests: raw_tree
compares unfoldings verbatim, and debruijn canonicalizes bound atoms to
binder coordinates so finite-tree alpha equality is plain structural
equality.  Production verdicts must agree with both at every tested depth.
"""

import copy
import gc
import json
import pickle
import random
import re
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nomfix import termgraph
from nomfix.perm import FinPerm, apply, make_perm
from nomfix.record import fill
from nomfix.search import bfs
from nomfix.termgraph import (
    CUT,
    LAMBDA_SIG,
    BindingSignature,
    Node,
    OpSpec,
    TermGraph,
    TreeNode,
    act_graph,
    act_tree,
    alpha_bisim,
    free_atoms,
    graph_from_jsonable,
    graph_to_jsonable,
    parse_tree,
    raw_bisim,
    render_tree,
    signature_from_jsonable,
    signature_to_jsonable,
    tree_alpha_eq,
    tree_free_atoms,
    truncation_eq,
    unfold,
    validate,
)

from helpers import (
    fv_oracle,
    lambda_graph_blob,
    match_alpha_search,
    mutate_one_rule,
    random_lambda_graph,
    raw_tree,
    rendered_nodes,
    tokenize_oracle,
    tree_alpha_oracle,
    unfold_oracle,
)


def lam_graph(binder=0):
    return TermGraph(LAMBDA_SIG, {
        "s": Node("lam", (), (((binder,), ("b",)),)),
        "b": Node("app", (), (((), ("u", "s")),)),
        "u": Node("var", (binder,), ()),
    })


def swapped_graph():
    return TermGraph(LAMBDA_SIG, {
        "s": Node("lam", (), (((0,), ("b",)),)),
        "b": Node("app", (), (((), ("s", "u")),)),
        "u": Node("var", (0,), ()),
    })


def test_validate_accepts_the_lambda_graph():
    assert validate(lam_graph()) == []


def test_validate_reports_violations_without_aborting():
    bad = TermGraph(LAMBDA_SIG, {
        "a": Node("lam", (), (((0, 0), ("a",)),)),
        "b": Node("app", (), (((), ("a", "missing")),)),
        "c": Node("var", (1, 2), ()),
        "d": Node("nope", (), ()),
        "e": Node("app", (), ()),
    })
    assert validate(bad) == [
        "state 'a': group 0 binds 2 atoms, expected 1",
        "state 'b': unknown child state 'missing'",
        "state 'c': expected 1 atoms, got 2",
        "state 'd': unknown operation 'nope'",
        "state 'e': expected 1 binder groups, got 0",
    ]
    # the constructor refuses what is not a graph at all
    for signature, states, message in [
        ("lambda", {}, "signature must be a BindingSignature"),
        (LAMBDA_SIG, {0: Node("var", (0,), ())}, "state names must be strings"),
        (LAMBDA_SIG, {"u": ("var", (0,), ())}, "states must map names to Node values"),
    ]:
        with pytest.raises(TypeError, match=message):
            TermGraph(signature, states)


def test_validate_reports_every_kind_of_problem_in_order():
    sig = BindingSignature([
        OpSpec("node", 1, ((2, 2), (0, 1)), ["x", "y"]),
        OpSpec("leaf", 0, ()),
    ])
    bad = TermGraph(sig, {
        "r": Node("node", (3,), (((0, 0), ("r", "z")), ((), ("z",))), "x"),
        "s": Node("node", (True, -1), (((0, "a"), ("r",)), ((), ("q", 5))), "w"),
        "t": Node("node", ([1],), (((1, 2), ("z", "z")),), None),
        "t2": Node("node", (0,), ((([2], 1), ("z", "z")), ((), ("z",))), "y"),
        "u": Node("leaf", (), (), "x"),
        "v": Node(7, (), ()),
        "w": Node("node", (0,), (((1, 2, 3), ("z", "z")), ((4,), ())), "y"),
        "z": Node("leaf", (), ()),
    })
    expected = [
        "state 'r': group 0 binds an atom twice",
        "state 's': expected 1 atoms, got 2",
        "state 's': atom True is not a nonnegative integer",
        "state 's': atom -1 is not a nonnegative integer",
        "state 's': label 'w' not allowed for 'node'",
        "state 's': bound atom 'a' is not a nonnegative integer",
        "state 's': group 0 has 1 children, expected 2",
        "state 's': group 1 has 2 children, expected 1",
        "state 's': unknown child state 'q'",
        "state 's': unknown child state '5'",
        "state 't': atom [1] is not a nonnegative integer",
        "state 't': label None not allowed for 'node'",
        "state 't': expected 2 binder groups, got 1",
        "state 't2': bound atom [2] is not a nonnegative integer",
        "state 'u': operation 'leaf' takes no label",
        "state 'v': unknown operation '7'",
        "state 'w': group 0 binds 3 atoms, expected 2",
        "state 'w': group 1 binds 1 atoms, expected 0",
        "state 'w': group 1 has 0 children, expected 1",
    ]
    assert validate(bad) == expected
    assert validate(bad) == expected  # the cached answer is a fresh list
    validate(bad).clear()
    assert validate(bad) == expected
    for run in (lambda: free_atoms(bad, "z"), lambda: unfold(bad, "z", 1),
                lambda: raw_bisim(bad, "z", bad, "z"), lambda: alpha_bisim(bad, "z", bad, "z")):
        with pytest.raises(ValueError, match="^state 'r': group 0 binds an atom twice$"):
            run()


def test_unfold_examples():
    g = lam_graph()
    assert unfold(g, "s", 0) is CUT
    t1 = unfold(g, "s", 1)
    assert t1 == TreeNode("lam", (), (((0,), (CUT,)),))
    t3 = unfold(g, "s", 3)
    assert render_tree(t3) == "(lam 0 (app (var 0) (lam 0 ⊥)))"
    assert render_tree(t3, ascii_cut=True) == "(lam 0 (app (var 0) (lam 0 _)))"


def test_unfold_rejects_unknown_state():
    with pytest.raises(ValueError):
        unfold(lam_graph(), "zz", 1)


def distinct_nodes(tree):
    """The number of distinct node objects in a tree."""
    seen, stack = set(), [tree]
    while stack:
        t = stack.pop()
        if t is not CUT and id(t) not in seen:
            seen.add(id(t))
            stack.extend(c for _, children in t.groups for c in children)
    return len(seen)


def unfold_counting_nodes(graph, state, depth):
    """The tree :func:`unfold` returns and the number of nodes it built."""
    built = 0

    class CountingNode(Node):
        def __init__(self, *args):
            nonlocal built
            built += 1
            super().__init__(*args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(termgraph, "Node", CountingNode)
        tree = unfold(graph, state, depth)
    return tree, built


def test_unfold_and_free_atoms_match_full_pass_oracles():
    rng = random.Random(31)
    for _ in range(300):
        g, _ = random_lambda_graph(rng, 6, 3)
        fv = fv_oracle(g)
        for s in g.states:
            assert free_atoms(g, s) == fv[s]
            for depth in range(8):
                t, expected = unfold(g, s, depth), unfold_oracle(g, s, depth)
                assert render_tree(t) == render_tree(expected)
                # one object per (state, remaining depth) on both sides
                assert distinct_nodes(t) == distinct_nodes(expected)


HOSTILE_ATOMS = (0, 3, 10**18, 10**18 + 1, 2**70, 2**70 + 5)


def hostile_graph(rng):
    """A random lambda graph whose atoms are drawn from :data:`HOSTILE_ATOMS`."""
    g, s = random_lambda_graph(rng, 6, len(HOSTILE_ATOMS))
    pi = dict(enumerate(HOSTILE_ATOMS))
    states = {name: Node(node.op, [pi[a] for a in node.atoms],
                         [([pi[b] for b in bound], kids) for bound, kids in node.groups])
              for name, node in g.states.items()}
    return TermGraph(LAMBDA_SIG, states), s


def test_atoms_past_the_machine_word_agree_with_the_oracles():
    # free atoms are bitsets by atom rank; an atom used as a bit position
    # would need 2^70 bits
    rng = random.Random(59)
    verdicts = set()
    for _ in range(200):
        g, s = hostile_graph(rng)
        h, t = hostile_graph(rng)
        fv = fv_oracle(g)
        assert {name: free_atoms(g, name) for name in g.states} == fv
        for args in ((g, s, h, t), (g, s, g, s), (h, t, g, s)):
            want = bfs(*match_alpha_search(*args))[0] is None
            assert alpha_bisim(*args) == want
            verdicts.add(want)
    assert verdicts == {True, False}
    big = TermGraph(LAMBDA_SIG, {
        "r": Node("app", (), (((), ("l", "v")),)),
        "l": Node("lam", (), (((2**70,), ("v",)),)),
        "v": Node("var", (2**70,), ()),
    })
    assert free_atoms(big, "r") == {2**70} and free_atoms(big, "l") == frozenset()


def test_unfold_builds_only_the_levels_the_root_reaches():
    var = TermGraph(LAMBDA_SIG, {"u": Node("var", (0,), ())})
    tree, built = unfold_counting_nodes(var, "u", 10**7)
    assert (render_tree(tree), built) == ("(var 0)", 1)

    loop = TermGraph(LAMBDA_SIG, {"s": Node("app", (), (((), ("s", "s")),))})
    t, built = unfold_counting_nodes(loop, "s", 200)
    assert built == 200
    for _ in range(200):
        left, right = t.groups[0][1]
        assert left is right
        t = left
    assert t is CUT

    # 2000 self-looping states the root cannot reach
    small = lam_graph()
    big = TermGraph(LAMBDA_SIG, {**small.states, **{
        f"x{i}": Node("app", (), (((), (f"x{i}", f"x{(i + 1) % 2000}")),))
        for i in range(2000)
    }})
    for depth in (0, 1, 5, 300):
        tree, built = unfold_counting_nodes(big, "s", depth)
        expected, expected_built = unfold_counting_nodes(small, "s", depth)
        assert render_tree(tree) == render_tree(expected)
        assert built == expected_built == distinct_nodes(tree)


def test_level_path_counts_sum_to_the_rendered_size():
    # the count nomfix unfold checks before it builds: a node for each path
    # to a level above the depth, a cut for each path to the level at it
    rng = random.Random(1501)
    doubling = TermGraph(LAMBDA_SIG, {"s": Node("app", (), (((), ("s", "s")),))})
    for g, s in [(doubling, "s")] + [random_lambda_graph(rng, 6, 3) for _ in range(150)]:
        for depth in range(9):
            paths = sum(sum(level.values()) for level in termgraph._levels(g, s, depth + 1))
            assert paths == rendered_nodes(unfold(g, s, depth))


def test_node_equality_and_hash_handle_deep_and_shared_trees():
    chain = TermGraph(LAMBDA_SIG, {"s": Node("lam", (), (((0,), ("s",)),))})
    a, b = unfold(chain, "s", 3000), unfold(chain, "s", 3000)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != unfold(chain, "s", 2999)

    def spine(leaf):  # 3000 binders over one leaf
        for _ in range(3000):
            leaf = Node("lam", (), (((0,), (leaf,)),))
        return leaf

    x, y = spine(Node("var", (0,), ())), spine(Node("var", (0,), ()))
    assert x == y and hash(x) == hash(y)
    assert x != spine(Node("var", (1,), ()))
    # a leaf that is not a Node against a node, on either side
    assert spine(CUT) != x and x != spine(CUT) and spine(CUT) == spine(CUT)
    assert Node("lam", (), (((0,), (CUT,)),)) != Node("lam", (), (((0,), (5,)),))

    # 2^40 paths, 40 node objects per tree
    loop = TermGraph(LAMBDA_SIG, {"s": Node("app", (), (((), ("s", "s")),))})
    start = time.perf_counter()
    x, y = unfold(loop, "s", 40), unfold(loop, "s", 40)
    assert x == y and hash(x) == hash(y)
    assert x != unfold(loop, "s", 39)
    assert time.perf_counter() - start < 1.0


def test_render_parse_roundtrip():
    rng = random.Random(3)
    for _ in range(100):
        g, s = random_lambda_graph(rng)
        t = unfold(g, s, rng.randrange(5))
        text = render_tree(t)
        assert parse_tree(LAMBDA_SIG, text) == t
        ascii_text = render_tree(t, ascii_cut=True)
        assert parse_tree(LAMBDA_SIG, ascii_text) == t
    assert repr(CUT) == "CUT"
    assert repr(unfold(lam_graph(), "s", 1)).endswith("(CUT,)),), label=None)")
    # CUT keeps its identity through copy and pickle, alone and inside a tree
    tree = unfold(lam_graph(), "s", 2)  # (lam 0 (app ⊥ ⊥))
    for clone in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        assert clone(CUT) is CUT
        cuts = clone(tree).groups[0][1][0].groups[0][1]
        assert len(cuts) == 2 and all(c is CUT for c in cuts)


def test_render_tree_rejects_non_string_operations_and_labels():
    for tree in (Node(5, (), ()), Node("lit", (), (), label=3),
                 Node("lam", (), (((0,), (Node(None, (0,), ()),)),))):
        with pytest.raises(ValueError, match="is not a string"):
            render_tree(tree)
    assert render_tree(Node("lit", (0,), (((1,), (CUT,)),), label="x")) == "(lit:x 0 1 ⊥)"


def test_render_tree_rejects_children_that_are_neither_trees_nor_cut():
    for tree in (Node("app", (), (((), ("x", "y")),)), Node("lam", (), (((0,), (7,)),)),
                 Node("lam", (), (((0,), (Node("app", (), (((), (CUT, None)),)),)),)),
                 "(var 0)", 5):
        with pytest.raises(ValueError, match="is neither a Node nor CUT"):
            render_tree(tree)


def test_free_atoms_examples():
    assert free_atoms(lam_graph(), "s") == frozenset()
    assert free_atoms(lam_graph(), "u") == frozenset({0})
    loop = TermGraph(LAMBDA_SIG, {
        "t": Node("app", (), (((), ("u", "t")),)),
        "u": Node("var", (5,), ()),
    })
    assert free_atoms(loop, "t") == frozenset({5})
    shadow = TermGraph(LAMBDA_SIG, {
        "s": Node("lam", (), (((0,), ("u",)),)),
        "u": Node("var", (0,), ()),
    })
    assert free_atoms(shadow, "s") == frozenset()
    assert free_atoms(shadow, "u") == frozenset({0})


def test_free_atoms_match_stabilized_tree_supports():
    rng = random.Random(7)

    def tfv(tree):
        if tree is CUT:
            return frozenset()
        out = set(tree.atoms)
        for bound, children in tree.groups:
            sub = set()
            for c in children:
                sub |= tfv(c)
            out |= sub - set(bound)
        return frozenset(out)

    for _ in range(100):
        g, s = random_lambda_graph(rng)
        k = len(g.states)
        stabilized = tfv(unfold(g, s, k))
        assert free_atoms(g, s) == stabilized
        assert tfv(unfold(g, s, k + 2)) == stabilized
        assert tree_free_atoms(unfold(g, s, k)) == stabilized


def test_raw_bisim_examples():
    g = lam_graph()
    assert raw_bisim(g, "s", g, "s")
    assert not raw_bisim(g, "s", lam_graph(binder=1), "s")
    loop = TermGraph(LAMBDA_SIG, {
        "t": Node("app", (), (((), ("u", "t")),)),
        "u": Node("var", (5,), ()),
    })
    unrolled = TermGraph(LAMBDA_SIG, {
        "t": Node("app", (), (((), ("u", "t2")),)),
        "t2": Node("app", (), (((), ("u", "t")),)),
        "u": Node("var", (5,), ()),
    })
    assert raw_bisim(loop, "t", unrolled, "t")


def test_raw_bisim_matches_truncated_tree_oracle():
    rng = random.Random(11)
    for _ in range(200):
        g1, s1 = random_lambda_graph(rng)
        g2, s2 = random_lambda_graph(rng)
        depth = len(g1.states) * len(g2.states) + 1
        oracle = raw_tree(unfold(g1, s1, depth)) == raw_tree(unfold(g2, s2, depth))
        assert raw_bisim(g1, s1, g2, s2) == oracle


def test_alpha_bisim_examples():
    g = lam_graph()
    assert alpha_bisim(g, "s", g, "s")
    assert alpha_bisim(g, "s", lam_graph(binder=1), "s")
    assert not alpha_bisim(g, "s", swapped_graph(), "s")


def test_alpha_bisim_distinguishes_free_atoms():
    one = TermGraph(LAMBDA_SIG, {"u": Node("var", (1,), ())})
    two = TermGraph(LAMBDA_SIG, {"u": Node("var", (2,), ())})
    assert not alpha_bisim(one, "u", two, "u")
    assert alpha_bisim(one, "u", one, "u")


def test_alpha_bisim_vacuous_binder_is_not_identified():
    # binding an unused name differs from binding the used one
    ident = TermGraph(LAMBDA_SIG, {
        "s": Node("lam", (), (((0,), ("u",)),)),
        "u": Node("var", (0,), ()),
    })
    konst = TermGraph(LAMBDA_SIG, {
        "s": Node("lam", (), (((1,), ("u",)),)),
        "u": Node("var", (0,), ()),
    })
    assert not alpha_bisim(ident, "s", konst, "s")
    assert alpha_bisim(konst, "s", konst, "s")


def test_alpha_bisim_handles_binder_shadowing():
    plain = TermGraph(LAMBDA_SIG, {
        "s": Node("lam", (), (((0,), ("b",)),)),
        "b": Node("app", (), (((), ("u0", "w")),)),
        "u0": Node("var", (0,), ()),
        "w": Node("var", (1,), ()),
    })
    shadowing = TermGraph(LAMBDA_SIG, {
        "s": Node("lam", (), (((1,), ("b",)),)),
        "b": Node("app", (), (((), ("u1", "w")),)),
        "u1": Node("var", (1,), ()),
        "w": Node("var", (1,), ()),
    })
    assert not alpha_bisim(plain, "s", shadowing, "s")


def test_alpha_bisim_requires_matching_signature():
    other = BindingSignature([OpSpec("var", 1, ())])
    g1 = lam_graph()
    g2 = TermGraph(other, {"u": Node("var", (0,), ())})
    with pytest.raises(ValueError, match="signature mismatch"):
        alpha_bisim(g1, "u", g2, "u")


def test_raw_implies_alpha():
    rng = random.Random(13)
    for _ in range(200):
        g1, s1 = random_lambda_graph(rng)
        g2, s2 = random_lambda_graph(rng)
        if raw_bisim(g1, s1, g2, s2):
            assert alpha_bisim(g1, s1, g2, s2)


def test_truncation_examples():
    g, h = lam_graph(), lam_graph(binder=1)
    assert truncation_eq(g, "s", swapped_graph(), "s", 0)
    assert truncation_eq(g, "s", h, "s", 2)
    assert truncation_eq(g, "s", swapped_graph(), "s", 2)
    assert not truncation_eq(g, "s", swapped_graph(), "s", 3)
    with pytest.raises(ValueError, match="^depth must be nonnegative$"):
        truncation_eq(g, "s", h, "s", -1)


def test_truncation_matches_finite_tree_comparison():
    rng = random.Random(17)
    for _ in range(150):
        g1, s1 = random_lambda_graph(rng)
        g2, s2 = random_lambda_graph(rng)
        for k in range(7):
            t1, t2 = unfold(g1, s1, k), unfold(g2, s2, k)
            expected = tree_alpha_oracle(t1, t2)
            assert truncation_eq(g1, s1, g2, s2, k) == expected
            assert tree_alpha_eq(t1, t2) == expected


def test_alpha_and_truncation_match_tree_oracle_at_six_states():
    # Half the pairs set a graph against a renamed copy, so about a third
    # of the verdicts are positive.  Depth 14 is an empirical bound at this
    # size: it separated every inequivalent pair in 3000 random draws.
    rng = random.Random(37)
    for _ in range(28):
        g1, s1 = random_lambda_graph(rng, 6, 3)
        g2, s2 = random_lambda_graph(rng, 6, 3)
        renamed = act_graph(make_perm([tuple(rng.sample(range(3), 2))]), g1)
        for h, t in ((g2, s2), (renamed, s1)):
            deep = tree_alpha_oracle(unfold(g1, s1, 14), unfold(h, t, 14))
            assert alpha_bisim(g1, s1, h, t) == deep
            for k in (1, 3, 6):
                expected = tree_alpha_oracle(unfold(g1, s1, k), unfold(h, t, k))
                assert truncation_eq(g1, s1, h, t, k) == expected


def rebinding_graph(rng, pool):
    """A random lambda graph ``s0`` under ``r = app(v, lam<a> app(v, s0))``
    with ``v = var a``: the binder rebinds ``a``, which is free above it,
    and the other free atoms of ``s0`` stay free below it."""
    g, s = random_lambda_graph(rng, 6, pool)
    a = rng.randrange(pool)
    return TermGraph(LAMBDA_SIG, dict(
        g.states,
        r=Node("app", (), (((), ("v", "l")),)),
        v=Node("var", (a,), ()),
        l=Node("lam", (), (((a,), ("m",)),)),
        m=Node("app", (), (((), ("v", s)),)),
    )), "r"


def test_compiled_alpha_search_matches_match_search():
    # Each graph against a copy renamed away from its free atoms and a
    # one-rule mutant, both ways round: every verdict of alpha_bisim and of
    # truncation_eq at depths 0-8 must be the reference search's.
    rng = random.Random(53)
    verdicts = set()
    for draw in range(300):
        pool = rng.choice((2, 3, 4))
        g, s = random_lambda_graph(rng, 6, pool) if draw % 3 == 0 else rebinding_graph(rng, pool)
        free = free_atoms(g, s)
        movable = [a for a in range(pool + 2) if a not in free]
        image = rng.sample(movable, len(movable))
        renamed = act_graph(FinPerm(dict(zip(movable, image))), g)
        assert alpha_bisim(g, s, renamed, s)
        for h in (renamed, mutate_one_rule(rng, g, pool)):
            for args in ((g, s, h, s), (h, s, g, s)):
                want = bfs(*match_alpha_search(*args))[0] is None
                assert alpha_bisim(*args) == want
                verdicts.add(want)
                for k in range(9):
                    want = bfs(*match_alpha_search(*args), k)[0] is None
                    assert truncation_eq(*args, k) == want
    assert verdicts == {True, False}


def test_tree_walks_handle_deep_trees():
    def chain(binder):  # s = lam<binder> s
        graph = TermGraph(LAMBDA_SIG, {"s": Node("lam", (), (((binder,), ("s",)),))})
        return unfold(graph, "s", 3000)

    assert tree_alpha_eq(chain(0), chain(1))
    loop0, loop1 = unfold(lam_graph(0), "s", 3000), unfold(lam_graph(1), "s", 3000)
    assert tree_alpha_eq(loop0, loop1)
    assert not tree_alpha_eq(chain(0), loop0)
    assert tree_free_atoms(chain(1)) == frozenset()
    assert render_tree(chain(1)) == "(lam 1 " * 3000 + "⊥" + ")" * 3000


def test_tree_alpha_oracle_handles_deep_and_doubling_trees():
    # the oracle walked path by path: s = lam<0> s recursed past Python's
    # limit at depth 900, and s = app(s, s) took seconds at depth 18
    chain = TermGraph(LAMBDA_SIG, {"s": Node("lam", (), (((0,), ("s",)),))})
    renamed = act_graph(make_perm([(0, 5)]), chain)
    assert tree_alpha_oracle(unfold(chain, "s", 900), unfold(renamed, "s", 900))
    assert not tree_alpha_oracle(unfold(chain, "s", 900), unfold(chain, "s", 899))
    free_var = TermGraph(LAMBDA_SIG, dict(lam_graph(0).states, u=Node("var", (1,), ())))
    deep = unfold(lam_graph(0), "s", 900)
    assert tree_alpha_oracle(deep, unfold(lam_graph(1), "s", 900))
    assert not tree_alpha_oracle(deep, unfold(free_var, "s", 900))
    doubling = TermGraph(LAMBDA_SIG, {"s": Node("app", (), (((), ("s", "s")),))})
    start = time.perf_counter()
    assert tree_alpha_oracle(unfold(doubling, "s", 18), unfold(doubling, "s", 18))
    assert not tree_alpha_oracle(unfold(doubling, "s", 18), unfold(doubling, "s", 17))
    assert time.perf_counter() - start < 1.0


def leftmost_leaf_replaced(tree, leaf):
    """``tree`` with the cut at the end of its leftmost path replaced by
    ``leaf``: the path is rebuilt, every other subtree is shared."""
    path = []
    while tree is not CUT:
        path.append(tree)
        tree = tree.groups[0][1][0]
    for node in reversed(path):
        (bound, kids), *rest = node.groups
        leaf = Node(node.op, node.atoms, ((bound, (leaf,) + kids[1:]), *rest), node.label)
    return leaf


def test_tree_alpha_eq_visits_shared_subtrees_once():
    # s = app(s, s) unfolds to 2^depth paths but one node per level
    graph = TermGraph(LAMBDA_SIG, {"s": Node("app", (), (((), ("s", "s")),))})
    for depth in (18, 30):
        tree = unfold(graph, "s", depth)
        mutant = leftmost_leaf_replaced(tree, Node("var", (1,), ()))
        start = time.perf_counter()
        assert tree_alpha_eq(tree, unfold(graph, "s", depth))
        assert tree_alpha_eq(act_tree(make_perm([(0, 1)]), tree), tree)
        assert not tree_alpha_eq(tree, mutant)
        assert not tree_alpha_eq(mutant, tree)
        assert tree_alpha_eq(mutant, leftmost_leaf_replaced(tree, Node("var", (1,), ())))
        assert not tree_alpha_eq(mutant, act_tree(make_perm([(1, 2)]), mutant))
        assert time.perf_counter() - start < 0.5


def test_tree_search_builds_no_node_per_subtree():
    # a tree is searched on its own nodes: only a leaf that is not a Node,
    # here CUT, gets a row built for it, once per tree
    graph = TermGraph(LAMBDA_SIG, {
        "s": Node("lam", (), (((0,), ("b",)),)),
        "b": Node("app", (), (((), ("s", "u")),)),
        "u": Node("var", (0,), ()),
    })
    tree = unfold(graph, "s", 3000)
    renamed = act_tree(make_perm([(0, 5)]), tree)
    built = 0

    def counting_fill(*args):
        nonlocal built
        built += 1
        return fill(*args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(termgraph, "fill", counting_fill)
        assert tree_alpha_eq(tree, renamed)
        assert built <= 2
        built = 0
        assert tree_free_atoms(tree) == frozenset()
        assert built <= 1
        # the counter does see the nodes that unfold builds
        unfold(graph, "s", 30)
    assert built > 30


def test_tree_free_atoms_visits_shared_subtrees_once():
    # s = app(s, b), b = app(s, u): the paths to depth 30 number in the
    # hundreds of thousands, the shared nodes only in the dozens
    graph = TermGraph(LAMBDA_SIG, {
        "s": Node("app", (), (((), ("s", "b")),)),
        "b": Node("app", (), (((), ("s", "u")),)),
        "u": Node("var", (4,), ()),
    })
    tree = unfold(graph, "s", 30)
    start = time.perf_counter()
    assert tree_free_atoms(tree) == frozenset({4})
    assert time.perf_counter() - start < 0.5


def test_act_and_parse_handle_deep_trees():
    graph = TermGraph(LAMBDA_SIG, {"s": Node("lam", (), (((0,), ("s",)),))})
    chain = unfold(graph, "s", 3000)
    text = "(lam 1 " * 3000 + "⊥" + ")" * 3000
    assert render_tree(act_tree(make_perm([(0, 1)]), chain)) == text
    assert render_tree(parse_tree(LAMBDA_SIG, text)) == text
    assert tree_alpha_eq(parse_tree(LAMBDA_SIG, text), chain)


def test_act_tree_maps_shared_subtrees_once():
    # s = lam<0> app(s, s): 2^1500 paths, but one node object per level
    graph = TermGraph(LAMBDA_SIG, {
        "s": Node("lam", (), (((0,), ("b",)),)),
        "b": Node("app", (), (((), ("s", "s")),)),
    })
    t = act_tree(make_perm([(0, 1)]), unfold(graph, "s", 3000))
    levels = 0
    while t is not CUT:
        ((bound, (app,)),) = t.groups
        assert (t.op, bound, app.op) == ("lam", (1,), "app")
        left, right = app.groups[0][1]
        assert left is right
        t, levels = left, levels + 2
    assert levels == 3000


def test_parse_tree_rejects_malformed_text():
    for text in ["", "(lam 0", "(lam 0 ⊥))", "(lam 0 ⊥) ⊥", "lam", ")",
                 "(lam x ⊥)", "(lam 0 3)", "(lam 0 ⊥ ⊥)", "(var)", "()",
                 "((var 0))", "(nope 0)", "(var -1)",
                 # an atom is a run of ASCII digits, as int() alone would not insist
                 "(var +3)", "(var \u0663)", "(var 1_0)", "(lam +0 ⊥)",
                 # render_tree never prints "op:" with an empty label
                 "(lam: 0 ⊥)", "(var: 0)"]:
        with pytest.raises(ValueError):
            parse_tree(LAMBDA_SIG, text)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this interpreter reads integers of any length")
def test_parse_tree_rejects_an_atom_past_the_int_digit_limit():
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(ValueError, match=f"^expected an atom, got '{digits}'$"):
        parse_tree(LAMBDA_SIG, f"(var {digits})")


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.text(max_size=30)
       | st.lists(st.sampled_from(["(", ")", " ", "\t\n", "\x1c", "\x85", "\u3000",
                                   "lam", "0", "\u0663", "⊥", "_", "a:b"]),
                  max_size=12).map("".join))
def test_parse_tree_tokens_match_a_character_scan(text):
    assert re.findall(termgraph._TOKEN, text) == tokenize_oracle(text)


def test_tree_alpha_eq_rejects_mismatched_arities():
    # hand-built trees are never validated against a signature
    def lam(body):
        return Node("lam", (), (((0,), (body,)),))

    def lit(label):
        return Node("lit", (), (), label)

    var0 = Node("var", (0,), ())
    for t1, t2, expected in [
        (Node("var", (1,), ()), Node("var", (1, 2), ()), False),
        (lam(CUT), Node("lam", (), (((0, 1), (CUT,)),)), False),
        (lam(CUT), Node("lam", (), (((0,), (CUT, CUT)),)), False),
        (lam(CUT), Node("lam", (), ()), False),
        # a node whose operation is a leaf does not match that leaf
        (CUT, Node(CUT, (), ()), False),
        (lam(Node(CUT, (), ())), lam(CUT), False),
        # below a matching root too, and at the leaves: CUT and labelled nodes
        (CUT, CUT, True),
        (CUT, var0, False),
        (var0, CUT, False),
        (lam(var0), lam(Node("var", (0, 0), ())), False),
        (lam(Node("lam", (), ())), lam(lam(CUT)), False),
        (lam(Node("app", (), (((), (CUT,)),))), lam(Node("app", (), (((), (CUT, CUT)),))),
         False),
        (lam(lam(CUT)), lam(Node("lam", (), (((0, 1), (CUT,)),))), False),
        (lit("x"), lit("y"), False),
        (lit("x"), lit("x"), True),
        (lam(lit("x")), lam(lit("y")), False),
        (lam(var0), lam(Node("var", (1,), ())), False),
        # a group that binds an atom twice: the last binder wins
        (Node("lam", (), (((0, 0), (var0,)),)), Node("lam", (), (((1, 0), (var0,)),)), True),
        (Node("lam", (), (((0, 0), (var0,)),)), Node("lam", (), (((0, 1), (var0,)),)), False),
    ]:
        assert tree_alpha_eq(t1, t2) == expected, (t1, t2)
        assert tree_alpha_oracle(t1, t2) == expected, (t1, t2)
    assert tree_free_atoms(Node("lam", (), (((0, 0), (var0,)),))) == frozenset()
    # a label that no head can be hashed with, which the oracle cannot take
    assert tree_alpha_eq(lam(lit(["x"])), lam(lit(["x"])))
    assert not tree_alpha_eq(lam(lit(["x"])), lam(lit(["y"])))


def test_tree_alpha_eq_is_equivariant():
    # t and pi.t are alpha-equivalent exactly when pi fixes the free atoms of t
    rng = random.Random(5)
    verdicts = []
    for draw in range(300):
        pool = rng.choice((2, 3, 4))
        g, s = random_lambda_graph(rng, 6, pool) if draw % 2 else rebinding_graph(rng, pool)
        t = unfold(g, s, rng.randint(1, 7))
        a, b = rng.sample(range(pool + 1), 2)
        moved = act_tree(make_perm([(a, b)]), t)
        verdict = tree_alpha_eq(t, moved)
        assert verdict == (not {a, b} & tree_free_atoms(t)) == tree_alpha_oracle(t, moved)
        verdicts.append(verdict)
    assert set(verdicts) == {True, False}


def test_truncation_is_monotone_and_stabilizes_to_alpha_bisim():
    rng = random.Random(19)
    for _ in range(150):
        g1, s1 = random_lambda_graph(rng)
        g2, s2 = random_lambda_graph(rng)
        atoms = {a for g in (g1, g2) for n in g.states.values()
                 for a in n.atoms} | \
                {a for g in (g1, g2) for n in g.states.values()
                 for bound, _ in n.groups for a in bound}
        bound = len(g1.states) * len(g2.states) * (len(atoms) + 1) ** len(atoms)
        verdicts = [truncation_eq(g1, s1, g2, s2, k) for k in range(9)]
        for earlier, later in zip(verdicts, verdicts[1:]):
            assert earlier or not later  # false never flips back to true
        assert alpha_bisim(g1, s1, g2, s2) == truncation_eq(g1, s1, g2, s2, bound)


def test_act_graph_example():
    g = lam_graph()
    moved = act_graph(make_perm([(0, 3)]), g)
    assert moved.states["u"].atoms == (3,)
    assert moved.states["s"].groups[0][0] == (3,)
    assert alpha_bisim(g, "s", moved, "s")


def test_unfold_is_equivariant():
    rng = random.Random(23)
    for _ in range(150):
        g, s = random_lambda_graph(rng)
        pi = make_perm([tuple(rng.sample(range(6), 2)) for _ in range(3)])
        k = rng.randrange(5)
        assert unfold(act_graph(pi, g), s, k) == act_tree(pi, unfold(g, s, k))


def test_support_fixing_permutations_preserve_alpha_class():
    rng = random.Random(29)
    for _ in range(150):
        g, s = random_lambda_graph(rng)
        fv = free_atoms(g, s)
        word = []
        for _ in range(2):
            a, b = rng.sample([x for x in range(4, 10) if x not in fv], 2)
            word.append((a, b))
        pi = make_perm(word)
        assert all(apply(pi, a) == a for a in fv)
        assert alpha_bisim(g, s, act_graph(pi, g), s)


def test_labeled_ops_must_match():
    sig = BindingSignature([OpSpec("lit", 0, (), labels=frozenset({"x", "y"}))])
    gx = TermGraph(sig, {"s": Node("lit", (), (), label="x")})
    gy = TermGraph(sig, {"s": Node("lit", (), (), label="y")})
    assert validate(gx) == []
    assert not alpha_bisim(gx, "s", gy, "s")
    assert alpha_bisim(gx, "s", gx, "s")
    bad = TermGraph(sig, {"s": Node("lit", (), (), label="z")})
    assert validate(bad) != []
    assert parse_tree(sig, "(lit:x)") == gx.states["s"]
    with pytest.raises(ValueError, match="^operation 'lit' requires a label$"):
        parse_tree(sig, "(lit)")


def test_op_spec_accepts_exactly_what_renders_and_parses_back():
    def round_trips(name, label):  # on a spec built past the constructor's checks
        spec = fill(object.__new__(OpSpec), name, 0, ((0, 1),),
                    None if label is None else frozenset([label]))
        tree = Node(name, (), (((), (CUT,)),), label)
        try:
            return parse_tree(BindingSignature([spec]), render_tree(tree)) == tree
        except ValueError:
            return False

    cases = [(name, None) for name in (
        "a:b", "a b", "_", "⊥", 5, True, "", "a(", "x)", "a\tb",  # rejected
        "lam", "a-b", "x_y", "⊥x", "5", "é")]
    cases += [("k", label) for label in (
        "x y", "x)", "", "(", 5,  # rejected
        "x", "x:y", "_", "⊥", "7")]
    for name, label in cases:
        try:
            OpSpec(name, 0, ((0, 1),), None if label is None else [label])
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == round_trips(name, label), (name, label)
    assert sum(round_trips(*case) for case in cases) == 11


def test_signature_json_roundtrip():
    blob = signature_to_jsonable(LAMBDA_SIG)
    assert blob == {"ops": [
        {"name": "lam", "atoms": 0, "groups": [{"bound": 1, "children": 1}]},
        {"name": "app", "atoms": 0, "groups": [{"bound": 0, "children": 2}]},
        {"name": "var", "atoms": 1, "groups": []},
    ]}
    assert signature_from_jsonable(blob) == LAMBDA_SIG
    assert hash(signature_from_jsonable(blob)) == hash(LAMBDA_SIG)
    assert LAMBDA_SIG != blob
    assert "lam" in LAMBDA_SIG and "lit" not in LAMBDA_SIG
    assert repr(LAMBDA_SIG) == "BindingSignature(['lam', 'app', 'var'])"
    assert LAMBDA_SIG.op("var") is LAMBDA_SIG.ops[2]
    with pytest.raises(ValueError, match="^unknown operation 'lit'$"):
        LAMBDA_SIG.op("lit")
    with pytest.raises(ValueError, match="^duplicate operation 'var'$"):
        signature_from_jsonable({"ops": blob["ops"] + blob["ops"][2:]})


def test_graph_json_roundtrip():
    g = lam_graph()
    blob = graph_to_jsonable(g)
    back = graph_from_jsonable(blob)
    assert back.states == g.states
    assert graph_to_jsonable(back) == blob
    assert back == g and back != swapped_graph() and g != g.states
    assert repr(g) == "TermGraph(3 states)"
    # an inline signature, with labels, which print sorted
    sig = BindingSignature([OpSpec("lit", 0, (), ["y", "x"]), OpSpec("pair", 1, ((1, 2),))])
    g = TermGraph(sig, {"s": Node("pair", (3,), (((0,), ("x", "s")),)),
                        "x": Node("lit", (), (), "y")})
    blob = graph_to_jsonable(g)
    assert blob == {
        "sig": {"ops": [
            {"name": "lit", "atoms": 0, "groups": [], "labels": ["x", "y"]},
            {"name": "pair", "atoms": 1, "groups": [{"bound": 1, "children": 2}]},
        ]},
        "states": {
            "s": {"op": "pair", "atoms": [3], "groups": [{"bound_atoms": [0],
                                                           "children": ["x", "s"]}]},
            "x": {"op": "lit", "atoms": [], "groups": [], "label": "y"},
        },
    }
    back = graph_from_jsonable(json.loads(json.dumps(blob)))
    assert back == g and back.signature == sig and validate(back) == []
    assert graph_to_jsonable(back) == blob


def test_graph_json_named_signature():
    blob = {"sig": "lambda", "states": {
        "s": {"op": "lam", "atoms": [], "groups": [{"bound_atoms": [0], "children": ["b"]}]},
        "b": {"op": "app", "atoms": [], "groups": [{"bound_atoms": [], "children": ["u", "s"]}]},
        "u": {"op": "var", "atoms": [0], "groups": []},
    }}
    g = graph_from_jsonable(blob)
    assert g.signature == LAMBDA_SIG
    assert graph_to_jsonable(g)["sig"] == "lambda"
    assert g.states == lam_graph().states
    with pytest.raises(ValueError):
        graph_from_jsonable({"sig": "unknown-name", "states": {}})


def var_entry(atom, label=None):
    entry = {"op": "var", "atoms": [atom], "groups": []}
    return entry if label is None else dict(entry, label=label)


def lam_entry(bound):
    return {"op": "lam", "atoms": [], "groups": [{"bound_atoms": [bound], "children": ["u"]}]}


LIT_SIG = BindingSignature([OpSpec("lit", 0, (), ["x", "y"]), OpSpec("var", 1, ())])


def test_the_head_memo_lets_no_non_atom_through():
    # the compile pass checks each distinct head once and finds the others by
    # ==, under which True == 1 == 1.0; a later state whose atom is not an
    # atom must still be reported, exactly as a first one would be
    var, lam = (lambda a: Node("var", (a,), ())), (lambda b: Node("lam", (), (((b,), ("u",)),)))
    for graph, expected in [
        (TermGraph(LAMBDA_SIG, {"u": var(1), "v": var(True)}),
         ["state 'v': atom True is not a nonnegative integer"]),
        (graph_from_jsonable({"sig": "lambda", "states": {"u": var_entry(1), "v": var_entry(1.0)}}),
         ["state 'v': atom 1.0 is not a nonnegative integer"]),
        (TermGraph(LAMBDA_SIG, {"u": var(0), "l": lam(0), "m": lam(False)}),
         ["state 'm': bound atom False is not a nonnegative integer"]),
        (graph_from_jsonable({"sig": "lambda", "states": {
            "u": var_entry(0), "l": lam_entry(0), "m": lam_entry(False), "n": lam_entry(0.0)}}),
         ["state 'm': bound atom False is not a nonnegative integer",
          "state 'n': bound atom 0.0 is not a nonnegative integer"]),
        # unhashable atoms, labels and operations take the message pass and raise nothing
        (TermGraph(LAMBDA_SIG, {"u": var(1), "v": var([1])}),
         ["state 'v': atom [1] is not a nonnegative integer"]),
        (graph_from_jsonable({"sig": "lambda", "states": {
            "u": var_entry(1), "v": var_entry([1]), "w": var_entry(1, ["x"]),
            "z": {"op": ["var"], "atoms": [1], "groups": []}}}),
         ["state 'v': atom [1] is not a nonnegative integer",
          "state 'w': operation 'var' takes no label",
          "state 'z': unknown operation '['var']'"]),
        (TermGraph(LIT_SIG, {"a": Node("lit", (), (), "x"), "b": Node("lit", (), (), ["x"]),
                             "c": Node("lit", (), (), {"x": 1})}),
         ["state 'b': label ['x'] not allowed for 'lit'",
          "state 'c': label {'x': 1} not allowed for 'lit'"]),
    ]:
        assert validate(graph) == expected
        with pytest.raises(ValueError, match=f"^{re.escape(expected[0])}$"):
            free_atoms(graph, "u")
        # an invalid graph keeps its rows as given
        assert TermGraph(graph.signature, graph.states) == graph
        assert validate(TermGraph(graph.signature, graph.states)) == expected


def test_the_compact_form_round_trips():
    # a valid graph keeps a shared head and the children's numbers per state;
    # both constructors, and the rows rebuilt from that form, read alike
    rng = random.Random(3101)
    for _ in range(150):
        g, _ = random_lambda_graph(rng, 8, 4)
        for graph in (g, mutate_one_rule(rng, g)):
            built = TermGraph(graph.signature, graph.states)
            loaded = graph_from_jsonable(json.loads(json.dumps(graph_to_jsonable(graph))))
            assert built == graph and loaded == graph and loaded.states == graph.states
            assert graph_to_jsonable(loaded) == graph_to_jsonable(built) == graph_to_jsonable(graph)
            assert validate(loaded) == validate(built) == [] and repr(loaded) == repr(built)
            for made in (built, loaded):  # one object per distinct head
                assert len(set(map(id, made._heads))) == len(set(made._heads))
            names = list(graph.states)
            for s in names:
                assert free_atoms(loaded, s) == free_atoms(built, s)
                assert unfold(loaded, s, 5) == unfold(built, s, 5)
                t = rng.choice(names)
                for search in (raw_bisim, alpha_bisim):
                    verdict = search(graph, s, g, t)
                    assert search(loaded, s, g, t) == search(built, s, g, t) == verdict
                assert (truncation_eq(loaded, s, g, t, 3) == truncation_eq(built, s, g, t, 3)
                        == truncation_eq(graph, s, g, t, 3))


def test_a_tree_graph_shares_one_head_per_distinct_shape():
    tree = unfold(lam_graph(), "s", 600)
    graph = termgraph._tree_graph(tree)
    assert len(graph._heads) == distinct_nodes(tree) + 1  # and one CUT leaf
    assert len(set(map(id, graph._heads))) == 4  # lam, app, var and CUT


def test_a_loaded_graph_keeps_at_most_200_bytes_per_state():
    # traced bytes that loading, validating and free_atoms leave allocated: a
    # later change may lower this pin, never raise it
    blob = json.loads(json.dumps(lambda_graph_blob(random.Random(3131), 3000)))
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        graph = graph_from_jsonable(blob)
        assert validate(graph) == [] and free_atoms(graph, "s0") is not None
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert kept / 3000 <= 200, f"{kept / 3000:.1f} bytes per state"
