"""Finite systems of equations over binding operations and the infinite
trees they denote.

A :class:`TermGraph` is a finite set of named states, each labelled with an
operation from a :class:`BindingSignature`.  Operations carry free atom
slots and groups of children, and a group may bind atoms whose scope is
exactly the children of that group.  A state denotes the (generally
infinite) tree obtained by unfolding its equation forever; :func:`unfold`
produces the finite truncation at a given depth, with :data:`CUT` marking
the pruned subtrees.  Equations and tree nodes are both :class:`Node`.

A graph is compiled when built, by one pass over its rows, the tuples of
its nodes' fields.  A valid graph numbers its states and keeps per number a
head, the row with each group's children replaced by their count, shared by
all states with an equal head and checked once, and its children's numbers;
an invalid one keeps its rows and problems.  The :class:`Node` mapping
``states`` is built when read, and free atoms, the least supports of
behaviours, on first need.  :func:`raw_bisim` compares denoted trees
literally and :func:`alpha_bisim` up to renaming of bound atoms: both run
:func:`nomfix.search.bfs` over finitely many configurations of two state
numbers, so they terminate though the trees are infinite, and differ only
in the step that matches a pair.  An alpha configuration carries the
renaming as a tuple aligned with the left state's free atoms, which the left
graph's pickers carry to each child.  :func:`truncation_eq` is the alpha search cut off at
a depth.  A finite tree is a graph too, with a head per distinct subtree
shape, so :func:`tree_alpha_eq` is the alpha search on two of them plus a
check of arities, and :func:`tree_free_atoms` reads the free atoms of one.
Hashing and :func:`act_tree` are one bottom-up fold, ``_fold_tree``, that
visits each shared subtree once.
"""

import re
from types import MappingProxyType

from .perm import apply, is_atom
from .record import Family, Record, fill, lazy
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

    def __repr__(self):
        return "CUT"

    def __reduce__(self):  # copy and pickle give back CUT itself
        return "CUT"


CUT = _Cut()
_CUT_MARKS = ("⊥", "_")  # CUT as render_tree prints it, and its ASCII form
_SATURATED = 1 << 64  # _levels counts root paths up to here, far above any cap
_LEAF = object()  # the label of a tree leaf's head


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


class BindingSignature(Family):
    """A finite family of operations, looked up by name."""

    __slots__ = ()
    _repeated, _unknown = "duplicate operation '{}'", "unknown operation '{}'"
    ops, op = Family._members, Family._lookup


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
    """A finite system of equations over a binding signature: ``states``
    maps state names to :class:`Node` right-hand sides, read-only."""

    def __init__(self, signature, states):
        if not isinstance(signature, BindingSignature):
            raise TypeError("signature must be a BindingSignature")
        for name, node in states.items():
            if not isinstance(name, str):
                raise TypeError("state names must be strings")
            if not isinstance(node, Node):
                raise TypeError("states must map names to Node values")
        _compile(self, signature, states, Node._fields)

    # built on first read and kept, as a graph is read-only
    states = lazy(lambda self: MappingProxyType(
        {name: fill(object.__new__(Node), *row) for name, row in _rows_of(self).items()}))
    _fv = lazy(lambda self: _fv_table(self))
    _alpha = lazy(lambda self: _alpha_table(self))

    def __eq__(self, other):
        if not isinstance(other, TermGraph):
            return NotImplemented
        return self.signature == other.signature and _rows_of(self) == _rows_of(other)

    def __repr__(self):
        return f"TermGraph({len(self._index)} states)"


def _compile(graph, signature, states, row_of):
    """Number the ``states`` (``_index``) and list the problems (``_problems``)
    of their rows, ``row_of(state)`` in ``Node._fields`` order, built one at a
    time.  A valid graph keeps per number its head ``(op, atoms, ((bound,
    count), ...), label)``, one object per equal head (``_heads``), and its
    children's numbers (``_kids``); an invalid one keeps ``_rows``.  Returns
    ``graph``."""
    ops, index = signature._by_name, {name: i for i, name in enumerate(states)}
    get, memo, heads, kids, problems = index.get, {}, [], [], []  # memo: the heads checked
    for name, state in states.items():
        op, atoms, groups, label = row = row_of(state)
        # the memo compares by ==, so only atoms (True == 1 == 1.0) and hashable fields reach it
        lookup = isinstance(op, str) and (label is None or isinstance(label, str))
        lookup, shape, kid = lookup and (not atoms or all(map(is_atom, atoms))), (), []
        for bound, children in groups:
            lookup = lookup and (not bound or all(map(is_atom, bound)))
            shape += (bound, len(children)),
            for c in children:
                kid.append(get(c) if isinstance(c, str) else None)
        key = (op, atoms, shape, label)
        head = memo.get(key) if lookup else None
        if head is None or None in kid:
            if found := [*_state_problems(name, row, index, ops)]:
                problems += found
                continue
            head = memo[key] = key
        heads.append(head)
        kids.append(tuple(kid))
    graph.signature, graph._index, graph._problems = signature, index, tuple(problems)
    if problems:
        graph._rows = {name: row_of(state) for name, state in states.items()}
    else:
        graph._heads, graph._kids = heads, kids
    return graph


def _state_problems(name, row, index, ops):
    """The problems of state ``name``, in the order that :func:`validate` lists."""
    op, atoms, groups, label = row
    spec, at = ops.get(op) if isinstance(op, str) else None, f"state '{name}':"
    if spec is None:
        yield f"{at} unknown operation '{op}'"
        return
    if len(atoms) != spec.atom_arity:
        yield f"{at} expected {spec.atom_arity} atoms, got {len(atoms)}"
    yield from (f"{at} atom {a!r} is not a nonnegative integer" for a in atoms if not is_atom(a))
    if spec.labels is None and label is not None:
        yield f"{at} operation '{op}' takes no label"
    elif spec.labels is not None and (not isinstance(label, str) or label not in spec.labels):
        yield f"{at} label {label!r} not allowed for '{op}'"
    shape = spec.binder_groups
    if len(groups) != len(shape):
        yield f"{at} expected {len(shape)} binder groups, got {len(groups)}"
        return
    for i, ((bound, children), (bcount, ccount)) in enumerate(zip(groups, shape)):
        if len(bound) != bcount:
            yield f"{at} group {i} binds {len(bound)} atoms, expected {bcount}"
        yield from (f"{at} bound atom {b!r} is not a nonnegative integer"
                    for b in bound if not is_atom(b))
        if len(bound) == bcount > 1 and all(map(is_atom, bound)) and len(set(bound)) != bcount:
            yield f"{at} group {i} binds an atom twice"
        if len(children) != ccount:
            yield f"{at} group {i} has {len(children)} children, expected {ccount}"
        yield from (f"{at} unknown child state '{c}'"
                    for c in children if not isinstance(c, str) or c not in index)


def _rows_of(graph):
    """The rows of ``graph`` by name: as kept if invalid, else rebuilt."""
    if graph._problems:
        return graph._rows
    names, rows = list(graph._index), {}
    for name, (op, atoms, shape, label), kids in zip(names, graph._heads, graph._kids):
        kid = iter(kids)
        rows[name] = (op, atoms, tuple([(bound, tuple([names[next(kid)] for _ in range(count)]))
                                        for bound, count in shape]), label)
    return rows


def _fv_table(graph):
    """Each state's free atoms, by number, for a valid graph, which
    ``graph._fv`` keeps: the least fixpoint of the equations, by a worklist
    over reverse edges that re-queues a state only when its set grows.  A set
    is an int bitset with one bit per distinct atom by first sight, never by
    value: atoms are unbounded; it is shown as a tuple in the same order of
    first sight."""
    bit, fv, parents, keeps = {}, [], [[] for _ in graph._kids], {}
    for p, ((_, atoms, shape, _), kids) in enumerate(zip(graph._heads, graph._kids)):
        own = 0
        for a in atoms:
            own |= bit.setdefault(a, 1 << len(bit))
        fv.append(own)
        kid = iter(kids)
        for bound, count in shape:
            keep = keeps.get(bound)  # the bits past the binders, which many heads may repeat
            if keep is None:
                keep = keeps[bound] = ~sum({bit.setdefault(b, 1 << len(bit)) for b in bound})
            for _ in range(count):
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
    return [shown[m] for m in fv]


def validate(graph):
    """Return a list of human-readable problems, empty when well formed.

    Checks every state against the signature: known operation, atom and
    group arities, distinct bound atoms within a group, existing child
    states, and permitted labels.  Never raises, whatever the types of the
    node fields; the other operations on graphs refuse to run until this
    list is empty.
    """
    return list(graph._problems)


def _number(graph, state):
    """The number of ``state`` in ``graph``, which must be valid."""
    problems = graph._problems
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
        heads, kids, made = graph._heads, graph._kids, {}
        for s in level:
            (op, atoms, shape, label), kid = heads[s], iter(kids[s])
            groups = tuple((bound, tuple([below.get(next(kid), CUT) for _ in range(count)]))
                           for bound, count in shape)
            made[s] = Node(op, atoms, groups, label)
        below = made
    return below.get(graph._index[state], CUT)


def free_atoms(graph, state):
    """Atoms occurring free in the tree denoted by ``state``."""
    number = _number(graph, state)
    return frozenset(graph._fv[number])


def tree_free_atoms(tree):
    """Atoms occurring free in a finite tree; :data:`CUT` contributes none.

    An occurrence is free when no binder group above it binds the atom.
    """
    return frozenset(_tree_graph(tree)._fv[0])


def _check_pair(g1, s1, g2, s2):
    problems = g1._problems or g2._problems
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
    heads1, heads2, kids1, kids2 = g1._heads, g2._heads, g1._kids, g2._kids

    def expand(pair, seen, push):
        a, b = pair
        if heads1[a] != heads2[b]:  # under one signature: operation, label, atoms and binders
            return None
        for child in zip(kids1[a], kids2[b]):
            if child not in seen:
                seen.add(child)
                push.append(child)
        return push

    return bfs((root, root), expand)[0] is None


def _alpha_table(graph):
    """Each state's node compiled for the alpha search, which ``graph._alpha`` keeps.

    An entry is ``(op, label, atoms, picks)``: ``atoms`` picks the node's
    atoms out of a tuple aligned with the state's free atoms, and
    ``picks`` holds per group, for each child, a picker mapping that tuple
    plus one value per bound atom of the group onto the child's free atoms.
    """
    fv = graph._fv
    by_atoms = {}  # (source atoms, wanted atoms) -> picker

    def pick_from(src, want):
        key = (src, want)
        if key not in by_atoms:
            pos = {a: i for i, a in enumerate(src)}  # a bound atom's last position wins
            by_atoms[key] = picker(tuple([pos[a] for a in want]))
        return by_atoms[key]

    table = []
    for here, (op, atoms, shape, label), kids in zip(fv, graph._heads, graph._kids):
        kid = iter(kids)
        picks = tuple([tuple([pick_from(here + bound, fv[next(kid)]) for _ in range(count)])
                       for bound, count in shape])
        table.append((op, label, pick_from(here, atoms), picks))
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
    table, kids1, heads2, kids2 = g1._alpha, g1._kids, g2._heads, g2._kids

    def expand(config, seen, push):
        sa, sb, vals = config
        op, label, atoms, groups = table[sa]
        op_b, atoms_b, shape_b, label_b = heads2[sb]
        if op != op_b or label != label_b or atoms(vals) != atoms_b:
            return None
        kids_a, kids_b = iter(kids1[sa]), iter(kids2[sb])  # zip draws on them while picks last
        for picks, (bound_b, _) in zip(groups, shape_b):
            src = vals
            for b in bound_b:
                if b in vals:  # a right binder captures what a left atom stood for
                    src = tuple([None if v in bound_b else v for v in vals])
                    break
            src += bound_b
            for pick, ca, cb in zip(picks, kids_a, kids_b):
                child = (ca, cb, pick(src))
                if child not in seen:
                    seen.add(child)
                    push.append(child)
        return push

    root = (i1, i2, g1._fv[i1])
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
    subtrees cost their number, not their paths, and reads its head off the
    node, one object per equal head.  A leaf that is not a :class:`Node`, such
    as :data:`CUT`, gets the head ``(leaf, (), (), _LEAF)``, which matches only
    an equal leaf's."""
    number, nodes, heads, kids, memo = {id(tree): 0}, [tree], [], [], {}  # memo: the heads
    for t in nodes:  # nodes grows as the walk meets new subtrees
        op, atoms, groups, label = Node._fields(t) if isinstance(t, Node) else (t, (), (), _LEAF)
        row, shape = [], ()
        for bound, children in groups:
            shape += (bound, len(children)),
            for c in children:
                row.append(k := number.setdefault(id(c), len(nodes)))  # the tree keeps ids alive
                if k == len(nodes):
                    nodes.append(c)
        head = (op, atoms, shape, label)
        try:
            head = memo.setdefault(head, head)
        except TypeError:  # a hand-built tree's unhashable field: this head stays unshared
            pass
        heads.append(head)
        kids.append(tuple(row))
    graph = TermGraph.__new__(TermGraph)  # no signature or index: only the tables
    graph._heads, graph._kids = heads, kids
    return graph


def tree_alpha_eq(t1, t2):
    """Alpha-equivalence of two finite trees: the search of
    :func:`alpha_bisim` on the two trees as graphs, so :data:`CUT` only
    matches :data:`CUT` and each pair of subtrees is searched once per
    renaming of the left one's free atoms.  Two nodes match only if their
    heads have as many groups, binding as many atoms over as many children."""
    g1, g2 = _tree_graph(t1), _tree_graph(t2)
    heads1, heads2 = g1._heads, g2._heads
    root, expand = _alpha_search(g1, g2, 0, 0)

    def shaped(config, seen, push):  # hand-built trees are never validated; expand checks atoms
        a, b = heads1[config[0]][2], heads2[config[1]][2]  # binders and child counts
        if len(a) != len(b):
            return None
        for (bound_a, count_a), (bound_b, count_b) in zip(a, b):
            if len(bound_a) != len(bound_b) or count_a != count_b:
                return None
        return expand(config, seen, push)

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
    for name, (op, atoms, groups, label) in _rows_of(graph).items():
        entry = {"op": op, "atoms": list(atoms),
                 "groups": [{"bound_atoms": list(bound), "children": list(children)}
                            for bound, children in groups]}
        if label is not None:
            entry["label"] = label
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
    states = blob["states"]
    if not isinstance(states, dict):
        raise ValueError("'states' must be an object")
    return _compile(TermGraph.__new__(TermGraph), signature, states, lambda entry: (
        entry["op"], tuple(entry["atoms"]),  # a Node's fields, with no Node built
        tuple([(tuple(g["bound_atoms"]), tuple(g["children"])) for g in entry["groups"]]),
        entry.get("label")))
