"""Finite systems of equations over binding operations and the infinite
trees they denote.

A :class:`TermGraph` is a finite set of named states, each labelled with an
operation from a :class:`BindingSignature`.  Operations carry free atom
slots and groups of children, and a group may bind atoms whose scope is
exactly the children of that group.  A state denotes the (generally
infinite) tree obtained by unfolding its equation forever; :func:`unfold`
produces the finite truncation at a given depth, with :data:`CUT` marking
the pruned subtrees.  Equations and tree nodes are both :class:`Node`.

A graph is compiled once, on first use, by one pass over its states that
validates and numbers them; their free atoms, the least supports of their
behaviours, are found on first need, and the operations read states by number.
Two notions of behavioural equivalence are provided: :func:`raw_bisim`
compares denoted trees literally, while :func:`alpha_bisim` compares them
up to renaming of bound atoms.  Both run :func:`nomfix.search.bfs` over a
finite set of state-pair configurations, so they terminate even though the
denoted trees are infinite; they differ only in the step that matches one
pair of nodes.  An alpha configuration carries the renaming as a tuple
aligned with the left state's free atoms, and the first alpha search
of a graph turns its states into pickers that carry that tuple to each
child by position.  :func:`truncation_eq` is the alpha-aware search cut off
at a depth, so it never materialises the truncations.  A finite tree is a
graph too, whose rows are its own nodes, one per shared subtree, so
:func:`tree_alpha_eq` is the alpha search on two such graphs, plus a check
that matched nodes have the same arities, and :func:`tree_free_atoms` reads
the free atoms of one.  Hashing and :func:`act_tree` are one bottom-up
fold, ``_fold_tree``, that visits each shared subtree once.
"""

import re
from types import MappingProxyType, SimpleNamespace

from .perm import apply, is_atom
from .record import Record, fill
from .search import bfs, picker

__all__ = [
    "CUT",
    "LAMBDA_SIG",
    "BindingSignature",
    "Node",
    "OpSpec",
    "TermGraph",
    "TreeNode",
    "act_graph",
    "act_tree",
    "alpha_bisim",
    "free_atoms",
    "graph_from_jsonable",
    "graph_to_jsonable",
    "parse_tree",
    "raw_bisim",
    "render_tree",
    "signature_from_jsonable",
    "signature_to_jsonable",
    "tree_alpha_eq",
    "tree_free_atoms",
    "truncation_eq",
    "unfold",
    "validate",
]


class _Cut:
    """Marker for a pruned subtree in a finite truncation."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "CUT"


CUT = _Cut()
_CUT_MARKS = ("⊥", "_")  # CUT as render_tree prints it, and its ASCII form
_SATURATED = 1 << 64  # _levels counts root paths up to here, far above any cap


class OpSpec(Record):
    """Shape of one operation: free atom slots plus binder groups.

    Each binder group is a pair ``(bound_count, child_count)``: the group
    binds ``bound_count`` atoms whose scope is its ``child_count`` children.
    Operations may optionally carry a label drawn from a fixed finite set.
    """

    __slots__ = ("name", "atom_arity", "binder_groups", "labels")

    def __init__(self, name, atom_arity, binder_groups, labels=None):
        # render_tree prints "(name" or "(name:label", which parse_tree must read back
        if not _is_token(name, "():") or name in _CUT_MARKS:
            raise ValueError(f"operation name {name!r} is not a nonempty string without"
                             f" whitespace, '(', ')' or ':', nor a cut marker")
        if not is_atom(atom_arity):
            raise ValueError(f"atom arity {atom_arity!r} is not a nonnegative integer")
        groups = tuple((b, c) for b, c in binder_groups)
        for bound, children in groups:
            if not is_atom(bound):
                raise ValueError(f"bound count {bound!r} is not a nonnegative integer")
            if not is_atom(children) or children < 1:
                raise ValueError(f"child count {children!r} is not a positive integer")
        labels = None if labels is None else frozenset(labels)
        for label in labels or ():
            if not _is_token(label, "()"):
                raise ValueError(f"label {label!r} of '{name}' is not a nonempty string"
                                 f" without whitespace, '(' or ')'")
        fill(self, name, atom_arity, groups, labels)


def _is_token(text, forbidden):
    """Whether ``text`` is a nonempty string with no whitespace and no
    character of ``forbidden``."""
    return (isinstance(text, str) and text != ""
            and not any(ch.isspace() or ch in forbidden for ch in text))


class BindingSignature:
    """A finite family of operations, looked up by name."""

    def __init__(self, ops):
        self.ops = tuple(ops)
        self._by_name = {}
        for spec in self.ops:
            if spec.name in self._by_name:
                raise ValueError(f"duplicate operation '{spec.name}'")
            self._by_name[spec.name] = spec

    def op(self, name):
        try:
            return self._by_name[name]
        except KeyError:
            raise ValueError(f"unknown operation '{name}'") from None

    def __contains__(self, name):
        return name in self._by_name

    def __eq__(self, other):
        if not isinstance(other, BindingSignature):
            return NotImplemented
        return self.ops == other.ops

    def __hash__(self):
        return hash(self.ops)

    def __repr__(self):
        return f"BindingSignature({list(self._by_name)})"


#: The untyped lambda calculus: ``lam`` binds one atom over one child,
#: ``app`` has two children and binds nothing, ``var`` mentions one atom.
LAMBDA_SIG = BindingSignature([
    OpSpec("lam", 0, ((1, 1),)),
    OpSpec("app", 0, ((0, 2),)),
    OpSpec("var", 1, ()),
])


class Node(Record):
    """An operation applied to atoms and groups of children, with each
    group's bound atoms in front.  In a :class:`TermGraph` the children are
    state names; in a finite tree they are trees or :data:`CUT`."""

    __slots__ = ("op", "atoms", "groups", "label")

    def __init__(self, op, atoms, groups, label=None):
        fill(self, op, tuple(atoms),
             tuple([(tuple(bound), tuple(children)) for bound, children in groups]), label)

    # Unfolded trees can be thousands of levels deep and share subtrees, so
    # equality and hashing walk an explicit stack and visit each shared
    # subtree, or pair of subtrees, once.

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        seen = {(id(self), id(other))}
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a.__class__ is not b.__class__:
                return False
            if (a.op, a.atoms, a.label, len(a.groups)) != (
                b.op, b.atoms, b.label, len(b.groups)
            ):
                return False
            for (bound_a, kids_a), (bound_b, kids_b) in zip(a.groups, b.groups):
                if bound_a != bound_b or len(kids_a) != len(kids_b):
                    return False
                for ca, cb in zip(kids_a, kids_b):
                    if not isinstance(ca, Node):
                        if ca != cb:
                            return False
                    elif ca is not cb and (id(ca), id(cb)) not in seen:
                        seen.add((id(ca), id(cb)))
                        stack.append((ca, cb))
        return True

    def __hash__(self):
        return _fold_tree(self, lambda t, groups: hash((t.op, t.atoms, groups, t.label)),
                          lambda leaf: leaf)


TreeNode = Node  # the former name of tree nodes


def _fold_tree(tree, node, leaf):
    """Fold a finite tree bottom up, ``leaf(t)`` at a non-:class:`Node`
    such as :data:`CUT` and ``node(t, groups)`` at a node, whose ``groups``
    have each child replaced by its fold.  A post-order walk on an explicit
    stack that folds each shared subtree once, so deep trees fold too."""
    done = {}  # subtree id -> its fold; the tree keeps the ids alive
    stack = [tree]
    while stack:
        t = stack[-1]
        if id(t) in done:
            stack.pop()
        elif not isinstance(t, Node):
            done[id(t)] = leaf(stack.pop())
        else:
            todo = [c for _, kids in t.groups for c in kids if id(c) not in done]
            if todo:
                stack += todo
                continue
            stack.pop()
            done[id(t)] = node(t, tuple(
                (bound, tuple([done[id(c)] for c in kids])) for bound, kids in t.groups
            ))
    return done[id(tree)]


class TermGraph:
    """A finite system of equations over a binding signature.

    ``states`` maps state names to :class:`Node` right-hand sides.  The
    mapping is exposed read-only because the graph is compiled once, on
    first use, and the result is cached on the instance.
    """

    def __init__(self, signature, states):
        if not isinstance(signature, BindingSignature):
            raise TypeError("signature must be a BindingSignature")
        store = {}
        for name, node in states.items():
            if not isinstance(name, str):
                raise TypeError("state names must be strings")
            if not isinstance(node, Node):
                raise TypeError("states must map names to Node values")
            store[name] = node
        self._states = store
        self.signature = signature
        self.states = MappingProxyType(store)
        self._problems = None  # _compile sets it after the rest of the compiled form
        self._fv = self._alpha = None  # built on first use

    def __eq__(self, other):
        if not isinstance(other, TermGraph):
            return NotImplemented
        return self.signature == other.signature and self._states == other._states

    def __repr__(self):
        return f"TermGraph({len(self._states)} states)"


def _compile(graph):
    """Validate ``graph`` and, if valid, compile it, in one pass once per graph;
    return the problems.  A valid graph numbers its states ``0 .. n-1``
    (``_index``) and keeps per number the node and its children's numbers."""
    if graph._problems is not None:
        return graph._problems
    states, ops = graph._states, graph.signature._by_name
    index = {name: i for i, name in enumerate(states)}
    problems, kids = [], []
    for name, node in states.items():
        op, label, groups = node.op, node.label, node.groups
        spec = ops.get(op) if isinstance(op, str) else None
        if spec is None:
            problems.append(f"state '{name}': unknown operation '{op}'")
            continue
        if len(node.atoms) != spec.atom_arity:
            problems.append(f"state '{name}': expected {spec.atom_arity} atoms,"
                            f" got {len(node.atoms)}")
        for a in node.atoms:
            if not is_atom(a):
                problems.append(f"state '{name}': atom {a!r} is not a nonnegative integer")
        if spec.labels is None:
            if label is not None:
                problems.append(f"state '{name}': operation '{op}' takes no label")
        elif not isinstance(label, str) or label not in spec.labels:
            problems.append(f"state '{name}': label {label!r} not allowed for '{op}'")
        shape = spec.binder_groups
        if len(groups) != len(shape):
            problems.append(f"state '{name}': expected {len(shape)} binder"
                            f" groups, got {len(groups)}")
            continue
        row = []
        for i, ((bound, children), (bcount, ccount)) in enumerate(zip(groups, shape)):
            if len(bound) != bcount:
                problems.append(f"state '{name}': group {i} binds {len(bound)} atoms,"
                                f" expected {bcount}")
            hashable = True  # only atoms are known to be hashable
            for b in bound:
                if not is_atom(b):
                    hashable = False
                    problems.append(f"state '{name}': bound atom {b!r} is not a"
                                    f" nonnegative integer")
            if hashable and len(bound) == bcount > 1 and len(set(bound)) != bcount:
                problems.append(f"state '{name}': group {i} binds an atom twice")
            if len(children) != ccount:
                problems.append(f"state '{name}': group {i} has {len(children)} children,"
                                f" expected {ccount}")
            for c in children:
                k = index.get(c) if isinstance(c, str) else None
                if k is None:
                    problems.append(f"state '{name}': unknown child state '{c}'")
                row.append(k)
        kids.append(tuple(row))
    if not problems:
        graph._index, graph._nodes, graph._kids = index, list(states.values()), kids
    graph._problems = tuple(problems)  # last: a set marker means a finished compile
    return graph._problems


def _fv_table(graph):
    """Each state's free atoms, by number, found once per valid graph:
    the least fixpoint of the equations, by a worklist over reverse edges that
    re-queues a state only when its set grows.  A set is an int bitset with
    one bit per distinct atom by first sight, never by value: atoms are
    unbounded; it is shown as a tuple in the same order of first sight."""
    if graph._fv is not None:
        return graph._fv
    bit, fv, parents, keeps = {}, [], [[] for _ in graph._kids], {}
    for p, (node, kids) in enumerate(zip(graph._nodes, graph._kids)):
        own = 0
        for a in node.atoms:
            own |= bit.setdefault(a, 1 << len(bit))
        fv.append(own)
        kid = iter(kids)
        for bound, children in node.groups:
            keep = keeps.get(bound)  # the bits past the binders, which a tree may repeat
            if keep is None:
                keep = keeps[bound] = ~sum({bit.setdefault(b, 1 << len(bit)) for b in bound})
            for _ in children:
                parents[next(kid)].append((p, keep))
    work = [s for s, own in enumerate(fv) if own]  # an empty set moves nothing
    while work:
        child = work.pop()
        below = fv[child]
        for p, keep in parents[child]:
            grown = fv[p] | (below & keep)
            if grown != fv[p]:
                fv[p] = grown
                work.append(p)
    shown = {m: tuple([a for a, b in bit.items() if m & b]) for m in set(fv)}
    graph._fv = [shown[m] for m in fv]
    return graph._fv


def validate(graph):
    """Return a list of human-readable problems, empty when well formed.

    Checks every state against the signature: known operation, atom and
    group arities, distinct bound atoms within a group, existing child
    states, and permitted labels.  Never raises, whatever the types of the
    node fields; the other operations on graphs refuse to run until this
    list is empty.
    """
    return list(_compile(graph))


def _number(graph, state):
    """The number of ``state`` in ``graph``, which must be valid."""
    problems = _compile(graph)
    if problems:
        raise ValueError(problems[0])
    try:
        return graph._index[state]
    except KeyError:
        raise ValueError(f"unknown state '{state}'") from None


def _levels(graph, state, depth):
    """The states ``state`` reaches in exactly ``k`` steps, one dict for each
    ``k < depth``, lazily, up to the first empty one: the states of the nodes
    at each level of the depth-``depth`` truncation, each mapped from its
    number to the number of root paths that reach it there, capped at ``_SATURATED``."""
    level = {_number(graph, state): 1}
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    kids = graph._kids
    for k in range(depth):
        if k:
            below = {}
            for s, paths in level.items():
                for c in kids[s]:
                    below[c] = below.get(c, 0) + paths
            if not below:
                return
            if max(below.values()) > _SATURATED:  # keep the sums small and cheap
                below = {s: min(paths, _SATURATED) for s, paths in below.items()}
            level = below
        yield level


def unfold(graph, state, depth):
    """Truncate the tree denoted by ``state`` at ``depth`` node levels.

    Depth 0 is :data:`CUT`; depth ``k`` shows ``k`` levels of nodes with
    every pruned subtree replaced by :data:`CUT`.  Nodes are built only for
    the states reached within ``depth``, one per state and level, so all
    paths reaching a state at one level share its object: trees are immutable.
    """
    below = {}  # state number -> its node one level down; empty below the last
    for level in reversed(list(_levels(graph, state, depth))):
        nodes, kids, made = graph._nodes, graph._kids, {}
        for s in level:
            node, kid = nodes[s], iter(kids[s])
            groups = tuple((bound, tuple([below.get(next(kid), CUT) for _ in children]))
                           for bound, children in node.groups)
            made[s] = Node(node.op, node.atoms, groups, node.label)
        below = made
    return below.get(graph._index[state], CUT)


def free_atoms(graph, state):
    """Atoms occurring free in the tree denoted by ``state``."""
    number = _number(graph, state)
    return frozenset(_fv_table(graph)[number])


def tree_free_atoms(tree):
    """Atoms occurring free in a finite tree; :data:`CUT` contributes none.

    An occurrence is free when no binder group above it binds the atom.
    """
    return frozenset(_fv_table(_tree_graph(tree))[0])


def _check_pair(g1, s1, g2, s2):
    problems = _compile(g1) or _compile(g2)
    if problems:
        raise ValueError(problems[0])
    if g1.signature != g2.signature:
        raise ValueError("signature mismatch")
    return _number(g1, s1), _number(g2, s2)


def raw_bisim(g1, s1, g2, s2):
    """Decide whether two states denote literally equal trees.

    Closes the set of reachable state pairs, demanding equal operations,
    labels, atoms and bound atoms at every pair.  The closure has at most
    ``|states1| * |states2|`` elements, so this terminates.
    """
    root = _check_pair(g1, s1, g2, s2)
    nodes1, nodes2, kids1, kids2 = g1._nodes, g2._nodes, g1._kids, g2._kids

    def expand(pair):
        a, b = pair
        na, nb = nodes1[a], nodes2[b]
        if na.op != nb.op or na.label != nb.label or na.atoms != nb.atoms:
            return None
        for (bound_a, _), (bound_b, _) in zip(na.groups, nb.groups):
            if bound_a != bound_b:
                return None
        return [(pair, pair) for pair in zip(kids1[a], kids2[b])]

    return bfs((root, root), expand)[0] is None


def _alpha_table(graph):
    """Each state's node compiled for the alpha search, once per graph.

    An entry is ``(op, label, atoms, picks)``: ``atoms`` picks the node's
    atoms out of a tuple aligned with the state's free atoms, and
    ``picks`` holds per group, for each child, a picker mapping that tuple
    plus one value per bound atom of the group onto the child's free atoms.
    Equal index tuples share one picker.
    """
    if graph._alpha is not None:
        return graph._alpha
    fv = _fv_table(graph)
    by_atoms = {}  # (source atoms, wanted atoms) -> picker
    by_index = {}  # index tuple -> picker

    def pick_from(src, want):
        key = (src, want)
        if key not in by_atoms:
            pos = {a: i for i, a in enumerate(src)}  # a bound atom's last position wins
            idx = tuple([pos[a] for a in want])
            by_atoms[key] = by_index.setdefault(idx, picker(idx))
        return by_atoms[key]

    table = []
    for here, node, kids in zip(fv, graph._nodes, graph._kids):
        kid = iter(kids)
        picks = tuple([tuple([pick_from(here + bound, fv[next(kid)]) for _ in children])
                       for bound, children in node.groups])
        table.append((node.op, node.label, pick_from(here, node.atoms), picks))
    graph._alpha = table
    return table


def _alpha_search(g1, g2, i1, i2):
    """Root configuration and ``expand`` step of the alpha-aware closure
    from states ``i1`` of ``g1`` and ``i2`` of ``g2``, by number.

    A configuration is ``(state1, state2, vals)``, with states by number,
    where ``vals`` holds, for each atom free on the left there, in the
    order of ``_fv_table``, the atom it must equal on the right, or ``None``
    once a right binder has captured that atom.  The root is the identity
    on the free atoms of the left state; each child's ``vals`` is picked
    from its parent's plus the right group's binders, through the left
    graph's compiled table, so the configurations are finitely many.
    """
    table, kids1, nodes2, kids2 = _alpha_table(g1), g1._kids, g2._nodes, g2._kids

    def expand(config):
        sa, sb, vals = config
        op, label, atoms, groups = table[sa]
        nb = nodes2[sb]
        if op != nb.op or label != nb.label or atoms(vals) != nb.atoms:
            return None
        out = []
        kids_a, kids_b = iter(kids1[sa]), iter(kids2[sb])  # zip draws on them while picks last
        for picks, (bound_b, _) in zip(groups, nb.groups):
            src = vals
            for b in bound_b:
                if b in vals:  # a right binder captures what a left atom stood for
                    src = tuple([None if v in bound_b else v for v in vals])
                    break
            src += bound_b
            for pick, ca, cb in zip(picks, kids_a, kids_b):
                child = (ca, cb, pick(src))
                out.append((child, child))
        return out

    root = (i1, i2, _fv_table(g1)[i1])
    return (root, root), expand


def alpha_bisim(g1, s1, g2, s2):
    """Decide whether two states denote alpha-equivalent trees.

    Works like :func:`raw_bisim` but carries a renaming of free atoms in
    each configuration, so bound atoms may differ as long as corresponding
    binders align.  Terminates because only finitely many renamings over
    the atoms of the two graphs can arise.
    """
    return bfs(*_alpha_search(g1, g2, *_check_pair(g1, s1, g2, s2)))[0] is None


def truncation_eq(g1, s1, g2, s2, depth):
    """Decide whether the depth-``depth`` truncations are alpha-equivalent.

    The closure of :func:`alpha_bisim` stopped at level ``depth``: equality
    holds iff no disagreement sits above it.  Large ``depth`` values cost
    nothing extra once the configuration set is exhausted.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    return bfs(*_alpha_search(g1, g2, *_check_pair(g1, s1, g2, s2)), depth)[0] is None


def _tree_graph(tree):
    """A finite tree as a compiled graph whose root is state 0.

    One breadth-first walk numbers each distinct subtree object, so shared
    subtrees cost their number, not their paths, and the tree's own nodes
    are the rows.  A leaf that is not a :class:`Node`, such as :data:`CUT`,
    gets one childless row whose operation is the leaf itself, so it matches
    only an equal leaf; ``_leaves`` holds the numbers of those rows.
    """
    number, nodes, kids, leaves = {id(tree): 0}, [tree], [], set()
    for s, t in enumerate(nodes):  # nodes grows as the walk meets new subtrees
        if not isinstance(t, Node):
            nodes[s] = t = Node(t, (), ())
            leaves.add(s)
        row = []
        for _, children in t.groups:
            for c in children:
                row.append(number.setdefault(id(c), len(nodes)))  # the tree keeps ids alive
                if row[-1] == len(nodes):
                    nodes.append(c)
        kids.append(tuple(row))
    return SimpleNamespace(_nodes=nodes, _kids=kids, _leaves=leaves, _fv=None, _alpha=None)


def tree_alpha_eq(t1, t2):
    """Alpha-equivalence of two finite trees: the search of
    :func:`alpha_bisim` on the two trees as graphs, so :data:`CUT` only
    matches :data:`CUT` and each pair of subtrees is searched once per
    renaming of the left one's free atoms.  Two nodes match only if they
    have as many groups, each binding as many atoms over as many children."""
    g1, g2 = _tree_graph(t1), _tree_graph(t2)
    nodes1, nodes2, leaves1, leaves2 = g1._nodes, g2._nodes, g1._leaves, g2._leaves
    root, expand = _alpha_search(g1, g2, 0, 0)

    def shaped(config):  # hand-built trees are never validated; expand checks atoms
        a, b = nodes1[config[0]].groups, nodes2[config[1]].groups
        if len(a) != len(b) or (config[0] in leaves1) != (config[1] in leaves2):
            return None
        for (bound_a, kids_a), (bound_b, kids_b) in zip(a, b):
            if len(bound_a) != len(bound_b) or len(kids_a) != len(kids_b):
                return None
        return expand(config)

    return bfs(root, shaped)[0] is None


def act_graph(perm, graph):
    """Apply a finite permutation to every atom of every state."""
    # an equation is a one-level tree whose leaves are state names
    states = {name: act_tree(perm, node) for name, node in graph.states.items()}
    return TermGraph(graph.signature, states)


def act_tree(perm, tree):
    """Apply a finite permutation to every atom of a finite tree.

    Maps each shared subtree once and does not recurse, so it handles the
    deep and the shared trees :func:`unfold` produces.
    """
    return _fold_tree(tree, lambda t, groups: Node(
        t.op,
        tuple(apply(perm, a) for a in t.atoms),
        tuple((tuple(apply(perm, b) for b in bound), kids) for bound, kids in groups),
        t.label,
    ), lambda leaf: leaf)


def render_tree(tree, ascii_cut=False):
    """Render a finite tree as an s-expression.

    Each node prints as ``(op atoms bound-atoms children ...)`` with the
    label, if any, fused onto the operation as ``op:label``.  Pruned
    subtrees print as ``⊥``, or ``_`` when ``ascii_cut`` is set.

    >>> t = Node("lam", (), (((0,), (CUT,)),))
    >>> render_tree(t)
    '(lam 0 ⊥)'
    """
    cut = "_" if ascii_cut else "⊥"
    out = []
    if tree is not CUT and not isinstance(tree, Node):
        raise ValueError(f"tree {tree!r} is neither a Node nor CUT")
    # subtrees still to render, each checked before it is pushed, and the
    # text to emit between them, so a str popped is always text
    stack = [tree]
    while stack:
        t = stack.pop()
        if isinstance(t, str):
            out.append(t)
        elif t is CUT:
            out.append(cut)
        else:
            op, label = t.op, t.label
            if not isinstance(op, str):
                raise ValueError(f"operation {op!r} is not a string")
            if label is None:
                head = op
            elif isinstance(label, str):
                head = f"{op}:{label}"
            else:
                raise ValueError(f"label {label!r} of '{op}' is not a string")
            items = ["(" + head, *(f" {a}" for a in t.atoms)]
            for bound, children in t.groups:
                items.extend(f" {b}" for b in bound)
                for c in children:
                    if c is not CUT and not isinstance(c, Node):
                        raise ValueError(f"child {c!r} of '{op}' is neither a Node nor CUT")
                    items += (" ", c)
            items.append(")")
            stack.extend(reversed(items))
    return "".join(out)


_TOKEN = r"[()]|[^\s()]+"  # a parenthesis, or a longest run of neither that nor space


def parse_tree(signature, text):
    """Parse the s-expression syntax of :func:`render_tree`.

    The signature supplies the arities, so the flat atom/bound/child
    spans inside each node can be split back apart.  A node is built when
    its ``)`` is read, from items whose subtrees are already built, so
    the parse keeps an explicit stack instead of recursing.
    """
    stack = [[]]  # the items of every open node; the bottom holds the result
    for pos, token in enumerate(re.findall(_TOKEN, text)):
        if len(stack) == 1 and stack[0]:
            raise ValueError(f"trailing input at token {pos}")
        if token == "(":
            stack.append([])
        elif token in _CUT_MARKS:
            stack[-1].append(CUT)
        elif len(stack) == 1:
            raise ValueError(f"expected '(' or cut marker, got {token!r}")
        elif token == ")":
            items = stack.pop()
            stack[-1].append(_build_node(signature, items))
        else:
            stack[-1].append(token)
    if len(stack) != 1 or not stack[0]:
        raise ValueError("unexpected end of input")
    return stack[0][0]


def _build_node(signature, items):
    """The node whose parenthesised span holds ``items``: its tokens, with
    each child already replaced by its tree or :data:`CUT`."""
    if not items or not isinstance(items[0], str):
        raise ValueError("expected an operation after '('")
    op_name, colon, label = items[0].partition(":")
    spec = signature.op(op_name)
    if colon:  # render_tree never prints an empty label
        if not label or spec.labels is None or label not in spec.labels:
            raise ValueError(f"label {label!r} not allowed for '{op_name}'")
    else:
        label = None
        if spec.labels is not None:
            raise ValueError(f"operation '{op_name}' requires a label")
    rest = iter(items[1:])

    def atom(what):
        item = next(rest, ")")
        try:
            # int() would also take signs, "_" and non-ASCII digits
            if item.isascii() and item.isdigit():
                return int(item)
        except (AttributeError, ValueError):  # a subtree, or past int()'s digit limit
            pass
        raise ValueError(f"expected {what}, got {item!r}")

    def child():
        item = next(rest, ")")
        if isinstance(item, str):
            raise ValueError(f"expected '(' or cut marker, got {item!r}")
        return item

    atoms = tuple(atom("an atom") for _ in range(spec.atom_arity))
    groups = tuple(
        (
            tuple(atom("a bound atom") for _ in range(bound_count)),
            tuple(child() for _ in range(child_count)),
        )
        for bound_count, child_count in spec.binder_groups
    )
    if next(rest, None) is not None:
        raise ValueError(f"expected ')' closing '{op_name}'")
    return Node(op_name, atoms, groups, label)


def signature_to_jsonable(signature):
    ops = []
    for spec in signature.ops:
        blob = {"name": spec.name, "atoms": spec.atom_arity,
                "groups": [{"bound": b, "children": c} for b, c in spec.binder_groups]}
        if spec.labels is not None:
            blob["labels"] = sorted(spec.labels)
        ops.append(blob)
    return {"ops": ops}


def signature_from_jsonable(blob):
    ops = []
    for entry in blob["ops"]:
        if not isinstance(entry, dict):
            raise ValueError("each signature operation must be an object")
        labels = entry.get("labels")
        if labels is not None and not (
            isinstance(labels, list) and all(isinstance(x, str) for x in labels)
        ):
            raise ValueError(f"labels {labels!r} are not a list of strings")
        ops.append(OpSpec(entry["name"], entry["atoms"],
                          tuple((g["bound"], g["children"]) for g in entry["groups"]), labels))
    return BindingSignature(ops)


def graph_to_jsonable(graph):
    sig = "lambda" if graph.signature == LAMBDA_SIG else signature_to_jsonable(graph.signature)
    states = {}
    for name, node in graph.states.items():
        entry = {"op": node.op, "atoms": list(node.atoms),
                 "groups": [{"bound_atoms": list(bound), "children": list(children)}
                            for bound, children in node.groups]}
        if node.label is not None:
            entry["label"] = node.label
        states[name] = entry
    return {"sig": sig, "states": states}


def graph_from_jsonable(blob):
    sig = blob["sig"]
    if isinstance(sig, str):
        if sig != "lambda":
            raise ValueError(f"unknown signature name '{sig}'")
        signature = LAMBDA_SIG
    else:
        signature = signature_from_jsonable(sig)
    if not isinstance(blob["states"], dict):
        raise ValueError("'states' must be an object")
    states = {}
    for name, entry in blob["states"].items():
        # the fields are built canonical here, so the nodes skip coercion
        states[name] = fill(
            object.__new__(Node), entry["op"], tuple(entry["atoms"]),
            tuple([(tuple(g["bound_atoms"]), tuple(g["children"])) for g in entry["groups"]]),
            entry.get("label"))
    return TermGraph(signature, states)
