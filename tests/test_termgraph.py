"""Binding term graph tests.

Two independent oracles from helpers drive the equivalence tests: raw_tree
compares unfoldings verbatim, and debruijn canonicalizes bound atoms to
binder coordinates so finite-tree alpha equality is plain structural
equality.  Production verdicts must agree with both at every tested depth.
"""

import random

import pytest

from nomfix.perm import FinPerm, apply, make_perm
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

from helpers import random_lambda_graph, raw_tree, tree_alpha_oracle


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
    problems = validate(bad)
    assert len(problems) == 5
    assert any("missing" in p for p in problems)
    assert any("nope" in p for p in problems)


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


def test_render_parse_roundtrip():
    rng = random.Random(3)
    for _ in range(100):
        g, s = random_lambda_graph(rng)
        t = unfold(g, s, rng.randrange(5))
        text = render_tree(t)
        assert parse_tree(LAMBDA_SIG, text) == t
        ascii_text = render_tree(t, ascii_cut=True)
        assert parse_tree(LAMBDA_SIG, ascii_text) == t


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
                 "((var 0))", "(nope 0)", "(var -1)"]:
        with pytest.raises(ValueError):
            parse_tree(LAMBDA_SIG, text)


def test_tree_alpha_eq_rejects_mismatched_arities():
    # hand-built trees are never validated against a signature
    assert not tree_alpha_eq(Node("var", (1,), ()), Node("var", (1, 2), ()))
    assert not tree_alpha_eq(Node("lam", (), (((0,), (CUT,)),)),
                             Node("lam", (), (((0, 1), (CUT,)),)))
    assert not tree_alpha_eq(Node("lam", (), (((0,), (CUT,)),)),
                             Node("lam", (), (((0,), (CUT, CUT)),)))
    assert not tree_alpha_eq(Node("lam", (), (((0,), (CUT,)),)), Node("lam", (), ()))


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


def test_signature_json_roundtrip():
    blob = signature_to_jsonable(LAMBDA_SIG)
    assert blob == {"ops": [
        {"name": "lam", "atoms": 0, "groups": [{"bound": 1, "children": 1}]},
        {"name": "app", "atoms": 0, "groups": [{"bound": 0, "children": 2}]},
        {"name": "var", "atoms": 1, "groups": []},
    ]}
    assert signature_from_jsonable(blob) == LAMBDA_SIG


def test_graph_json_roundtrip():
    g = lam_graph()
    blob = graph_to_jsonable(g)
    back = graph_from_jsonable(blob)
    assert back.states == g.states
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
