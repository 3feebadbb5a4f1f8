"""Shared generators and independent oracles for graph and automaton tests."""

import itertools

from nomfix.abstraction import Abstraction
from nomfix.fsfunc import DistinctFsFun, FsFun, distinct_apply, fill, fs_apply, fs_from_table
from nomfix.nomset import Element
from nomfix.perm import fresh, make_perm
from nomfix.termgraph import CUT, LAMBDA_SIG, Node, TermGraph, _fold_tree
from nomfix.values import act_value, support_value


def random_lambda_graph(rng, max_states=4, atom_pool=4):
    n = rng.randrange(1, max_states + 1)
    names = [f"s{i}" for i in range(n)]
    states = {}
    for name in names:
        kind = rng.choice(("lam", "app", "var"))
        if kind == "var":
            states[name] = Node("var", (rng.randrange(atom_pool),), ())
        elif kind == "lam":
            states[name] = Node("lam", (), (((rng.randrange(atom_pool),),
                                             (rng.choice(names),)),))
        else:
            states[name] = Node("app", (), (((), (rng.choice(names),
                                                  rng.choice(names))),))
    return TermGraph(LAMBDA_SIG, states), "s0"


def mutate_one_rule(rng, graph, atom_pool=4):
    """A copy of a lambda graph with one state's rule replaced: mostly the
    same operation with another binder or variable atom (often one already
    free above it) or other children, else a random operation."""
    states = dict(graph.states)
    names = sorted(states)
    name = rng.choice(names)
    node = states[name]
    used = set(node.atoms).union(*(bound for bound, _ in node.groups))
    atom = rng.choice([a for a in range(atom_pool) if a not in used])
    kind = node.op if rng.random() < 0.6 else rng.choice(("lam", "app", "var"))
    if kind == "var":
        states[name] = Node("var", (atom,), ())
    elif kind == "lam":
        kids = node.groups[0][1] if node.op == "lam" else (rng.choice(names),)
        states[name] = Node("lam", (), (((atom,), kids),))
    else:
        states[name] = Node("app", (), (((), (rng.choice(names), rng.choice(names))),))
    return TermGraph(graph.signature, states)


def unfold_oracle(graph, state, depth):
    """Truncation at ``depth`` built for every state at every level, as
    ``depth`` full passes over the graph; the graph must be valid."""
    prev = {name: CUT for name in graph.states}
    for _ in range(depth):
        prev = {
            name: Node(node.op, node.atoms, tuple(
                (bound, tuple(prev[c] for c in children))
                for bound, children in node.groups
            ), node.label)
            for name, node in graph.states.items()
        }
    return prev[state]


def rendered_nodes(tree):
    """Node count of the rendering of ``tree``, each ``CUT`` counting one:
    one memoised pass over its shared subtrees, so it costs their number,
    not the rendering's size."""
    return _fold_tree(tree, lambda t, groups: 1 + sum(sum(kids) for _, kids in groups),
                      lambda leaf: 1)


def tokenize_oracle(text):
    """The tokens of the :func:`parse_tree` syntax, read one character at a
    time: each parenthesis, and each maximal run of other non-space text."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            tokens.append(ch)
            i += 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "()":
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens


def fv_oracle(graph):
    """Free atoms of every state, by full passes over the equations until
    none changes; the graph must be valid."""
    fv = {name: frozenset() for name in graph.states}
    changed = True
    while changed:
        changed = False
        for name, node in graph.states.items():
            acc = set(node.atoms)
            for bound, children in node.groups:
                for c in children:
                    acc |= fv[c] - set(bound)
            if acc != fv[name]:
                fv[name] = frozenset(acc)
                changed = True
    return fv


def rebuild_apply_perm(f, value):
    """The action that rebuilds every ``FsFun``, ``Abstraction`` and
    ``Element`` through its canonicalising (and, for an ``Element``,
    validating) constructor, recursively, so each image's support is searched
    for afresh instead of read off by equivariance, and each register coset
    is canonicalised from the moved registers."""
    if isinstance(value, tuple):
        return tuple(rebuild_apply_perm(f, v) for v in value)
    if isinstance(value, FsFun):
        return FsFun(f(value.default_atom),
                     rebuild_apply_perm(f, value.default_value),
                     tuple(map(f, value.keys)),
                     tuple(rebuild_apply_perm(f, v) for v in value.values))
    if isinstance(value, Abstraction):
        return Abstraction(f(value.binder), rebuild_apply_perm(f, value.body))
    if isinstance(value, DistinctFsFun):
        return DistinctFsFun(value.arity, rebuild_apply_perm(f, value.inner))
    if isinstance(value, Element):
        return Element(value.family, value.orbit, tuple(map(f, value.registers)))
    return act_value(f, value)


def swap_test_fsfun(default_atom, default_value, keys, values):
    """Reference for the ``FsFun`` constructor: the canonical
    ``(keys, values, default_atom, default_value)`` of a raw quadruple, found
    by one swap test per candidate and probe.  The candidates are the atoms
    of the quadruple; ``u`` is in the support when swapping it with the fresh
    ``z1`` changes the value at some probe, and the probes are the candidates
    plus ``z1`` and ``z2``."""
    a, d = default_atom, default_value
    keys, values = tuple(keys), tuple(values)

    def at(b):
        for k, x in zip(keys, values):
            if k == b:
                return x
        return d if a == b else act_value(make_perm([(a, b)]), d)

    cands = frozenset({a}) | frozenset(keys) | support_value(d)
    for v in values:
        cands |= support_value(v)
    z1 = fresh(cands)
    z2 = fresh(cands | {z1})
    raw = {b: at(b) for b in sorted(cands) + [z1, z2]}
    supp = []
    for u in sorted(cands):
        swap = make_perm([(u, z1)])
        if any(act_value(swap, raw[swap(b)]) != x for b, x in raw.items()):
            supp.append(u)
    atom = fresh(supp)
    return tuple(supp), tuple(raw[k] for k in supp), atom, at(atom)


def probe_fs_eq(f, g):
    """Reference for ``fs_eq``: extensional equality of two ``FsFun``s, read
    through ``fs_apply`` on the joint support plus one fresh atom."""
    s = f.support() | g.support()
    probes = sorted(s) + [fresh(s)]
    return all(fs_apply(f, b) == fs_apply(g, b) for b in probes)


def probe_distinct_fs_eq(f, g):
    """Reference for ``distinct_fs_eq``: every read of both functions on the
    distinct tuples of the joint support plus spares, each through
    ``distinct_apply`` from the outermost quadruple."""
    if f.arity != g.arity:
        return False
    probe = sorted(f.inner.support() | g.inner.support())
    for _ in range(f.arity):
        probe.append(fresh(probe))
    return all(distinct_apply(f, v) == distinct_apply(g, v)
               for v in itertools.permutations(probe, f.arity))


def probe_distinct_support(f):
    """Reference for ``DistinctFsFun.support``: the single-swap test of
    ``min_support`` over the inner function's support, each swap compared
    with ``probe_distinct_fs_eq``."""
    cands = f.inner.support()
    z = fresh(cands)
    return frozenset(u for u in cands
                     if not probe_distinct_fs_eq(act_value(make_perm([(u, z)]), f), f))


def probe_section(f, w):
    """Reference for ``section``: every leaf read through ``distinct_apply``
    at the ``fill`` of its prefix."""
    n = f.arity
    base = sorted(f.inner.support() | set(w))

    def build(prefix):
        if len(prefix) == n:
            return distinct_apply(f, fill(prefix, w))
        probe = sorted(set(base) | set(prefix))
        a = fresh(probe)
        table = {t: build(prefix + (t,)) for t in probe}
        return fs_from_table(table, (a, build(prefix + (a,))))

    return build(())


def debruijn(tree, table=None):
    """Locally nameless form: bound atoms become binder coordinates.

    Each node's form is its operation, label, atom slots and, per group, its
    bound count and the numbers of its children's forms; ``table`` numbers
    the forms, and the number of the root's form is returned.  Two finite
    trees are alpha-equal exactly when their forms, numbered in one table,
    get the same number, which makes this an oracle independent of the
    injection machinery.  The walk keeps an explicit stack and builds one
    form per subtree, binder depth and scope, so deep and shared unfoldings
    cost their size as a graph.
    """
    table = {} if table is None else table
    memo = {}  # (id(subtree), depth, scope) -> number of its form
    stack = [(tree, 0, frozenset())]  # a finished subtree is popped on its next visit
    while stack:
        t, depth, scope = stack[-1]
        key = (id(t), depth, scope)
        if key in memo:
            stack.pop()
            continue
        if t is CUT:
            memo[key] = table.setdefault("cut", len(table))
            continue
        env = dict(scope)
        groups = []
        for gi, (bound, children) in enumerate(t.groups):
            inner = dict(env)
            for bi, b in enumerate(bound):
                inner[b] = ("bound", depth, gi, bi)
            inner = frozenset(inner.items())
            groups.append([(c, depth + 1, inner) for c in children])
        todo = [(c, d, e) for kids in groups for c, d, e in kids if (id(c), d, e) not in memo]
        if todo:
            stack += todo
            continue
        slots = tuple(env.get(a, ("free", a)) for a in t.atoms)
        kids = tuple((len(bound), tuple(memo[id(c), d, e] for c, d, e in g))
                     for (bound, _), g in zip(t.groups, groups))
        memo[key] = table.setdefault((t.op, t.label, slots, kids), len(table))
    return memo[id(tree), 0, frozenset()]


def tree_alpha_oracle(t1, t2):
    table = {}
    return debruijn(t1, table) == debruijn(t2, table)


def raw_tree(tree):
    """Exact form, binders kept verbatim; oracle for raw bisimilarity."""
    if tree is CUT:
        return "cut"
    return (tree.op, tree.label, tree.atoms,
            tuple((bound, tuple(raw_tree(c) for c in children))
                  for bound, children in tree.groups))


def all_words(pool, max_len):
    for length in range(max_len + 1):
        yield from itertools.product(range(pool), repeat=length)


def random_dfa(rng, max_orbits=3, max_degree=2, chain=False):
    """A valid random deterministic nominal automaton.

    The initial orbit has degree 0, every orbit gets a full rule set, and
    source pools respect the collision rule for equal cases, so the result
    always passes construction-time validation.  With ``chain`` the fresh
    case of ``p{i}`` leads to ``p{i+1}``, whose degree is mostly one more,
    so every orbit is reachable and high degrees are actually used.
    """
    from nomfix.nomauto import INPUT, NomDFA, OrbitRules, TargetExpr

    count = rng.randrange(1, max_orbits + 1)
    names = [f"p{i}" for i in range(count)]
    degrees = {names[0]: 0}
    for prev, name in zip(names, names[1:]):
        if not chain:
            degrees[name] = rng.randrange(max_degree + 1)
        elif rng.random() < 0.75:
            degrees[name] = min(max_degree, degrees[prev] + 1)
        else:
            degrees[name] = rng.randrange(min(max_degree, degrees[prev] + 1) + 1)
    after = dict(zip(names, names[1:])) if chain else {}

    def expr(degree, equal_index, target=None):
        if equal_index is None:
            pool = [INPUT] + list(range(degree))
        elif rng.random() < 0.5:
            pool = [INPUT] + [i for i in range(degree) if i != equal_index]
        else:
            pool = list(range(degree))
        if target is None:
            target = rng.choice([t for t in names if degrees[t] <= len(pool)])
        return TargetExpr(target, tuple(rng.sample(pool, degrees[target])))

    delta = {}
    for name in names:
        degree = degrees[name]
        delta[name] = OrbitRules(
            tuple(expr(degree, j) for j in range(degree)),
            expr(degree, None, after.get(name)),
        )
    accepting = frozenset(n for n in names if rng.random() < 0.5)
    return NomDFA(degrees, names[0], accepting, delta)


def element_dfa_equiv(d1, d2):
    """Reference for :func:`nomfix.nomauto.dfa_equiv`: the same
    breadth-first search on :class:`~nomfix.nomset.Element` states through
    ``dfa_step``, deduplicated by each pair's first-occurrence rank pattern.
    """
    from collections import deque

    from nomfix.nomauto import dfa_initial, dfa_step

    def pattern(e1, e2):
        rank = {}
        pattern = []
        for atom in e1.registers + e2.registers:
            if atom not in rank:
                rank[atom] = len(rank)
            pattern.append(rank[atom])
        return e1.orbit, e2.orbit, tuple(pattern)

    e1, e2 = dfa_initial(d1), dfa_initial(d2)
    seen = {pattern(e1, e2)}
    queue = deque([(e1, e2, ())])
    while queue:
        e1, e2, word = queue.popleft()
        if (e1.orbit in d1.accepting) != (e2.orbit in d2.accepting):
            return False, word
        joint = set(e1.registers) | set(e2.registers)
        for atom in sorted(joint) + [fresh(joint)]:
            f1, f2 = dfa_step(d1, e1, atom), dfa_step(d2, e2, atom)
            key = pattern(f1, f2)
            if key not in seen:
                seen.add(key)
                queue.append((f1, f2, word + (atom,)))
    return True, None


def empty_orbits(dfa):
    """Reference for the dead orbits of :mod:`nomfix.nomauto`: the orbits
    whose state with registers ``0 .. k-1`` accepts no word.  Each search
    steps :class:`~nomfix.nomset.Element` states through ``dfa_step`` on
    every register and the least fresh atom, which reaches every orbit some
    word reaches; registers then stay below the largest degree plus one, so
    the concrete states are finitely many.
    """
    from nomfix.nomauto import dfa_step
    from nomfix.nomset import Element

    empty = set()
    for orbit in dfa.family.orbits:
        start = Element(dfa.family, orbit.name, tuple(range(orbit.degree)))
        seen, stack = {start}, [start]
        while stack:
            state = stack.pop()
            if state.orbit in dfa.accepting:
                break
            for atom in state.registers + (fresh(state.registers),):
                child = dfa_step(dfa, state, atom)
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        else:
            empty.add(orbit.name)
    return empty


def _match_nodes(na, nb, rho):
    """Match two nodes up to ``rho``, the renaming of the free atoms in scope:
    ``None`` if their operations, labels or atoms disagree, else one
    ``(inner, kids_a, kids_b)`` per group, ``inner`` being ``rho`` less the
    entries the group's binders capture plus the pairing of its binders."""
    if na.op != nb.op or na.label != nb.label:
        return None
    for aa, ab in zip(na.atoms, nb.atoms):
        if rho.get(aa) != ab:
            return None
    out = []
    for (bound_a, kids_a), (bound_b, kids_b) in zip(na.groups, nb.groups):
        hide_a, hide_b = set(bound_a), set(bound_b)
        inner = {x: y for x, y in rho.items() if x not in hide_a and y not in hide_b}
        inner.update(zip(bound_a, bound_b))
        out.append((inner, kids_a, kids_b))
    return out


def match_alpha_search(g1, s1, g2, s2):
    """Reference for the alpha search of :mod:`nomfix.termgraph`: the root
    and ``expand`` step for :func:`nomfix.search.bfs` over configurations
    ``(state1, state2, rho)``, ``rho`` as sorted ``(left atom, right atom)``
    pairs rebuilt into a dict and filtered by ``_match_nodes`` at every
    step; the graphs must be valid and share a signature.
    """
    states1, states2 = g1.states, g2.states
    fv1 = {name: tuple(sorted(atoms)) for name, atoms in fv_oracle(g1).items()}
    fv2 = fv_oracle(g2)
    rho = tuple((a, a) for a in sorted(set(fv1[s1]).union(fv2[s2])))

    def expand(config, seen, push):
        sa, sb, items = config
        groups = _match_nodes(states1[sa], states2[sb], dict(items))
        if groups is None:
            return None
        for inner, kids_a, kids_b in groups:
            for ca, cb in zip(kids_a, kids_b):
                child = (ca, cb, tuple((x, inner[x]) for x in fv1[ca] if x in inner))
                if child not in seen:
                    seen.add(child)
                    push.append(child)
        return push

    root = (s1, s2, rho)
    return (root, root), expand
