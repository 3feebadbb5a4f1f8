"""Finite systems of equations over binding operations and the infinite
trees they denote.

A :class:`TermGraph` is a finite set of named states, each labelled with an
operation from a :class:`BindingSignature`.  Operations carry free atom
slots and groups of children, and a group may bind atoms whose scope is
exactly the children of that group.  A state denotes the (generally
infinite) tree obtained by unfolding its equation forever; :func:`unfold`
produces the finite truncation at a given depth, with :data:`CUT` marking
the pruned subtrees.  Equations and tree nodes are both :class:`Node`.

Two notions of behavioural equivalence are provided: :func:`raw_bisim`
compares denoted trees literally, while :func:`alpha_bisim` compares them
up to renaming of bound atoms.  Both run one closure, ``_closure``, over a
finite set of state-pair configurations, so they terminate even though the
denoted trees are infinite; they differ only in the step that matches one
pair of nodes.  :func:`truncation_eq` is the alpha-aware closure cut off at
a depth, so it never materialises the truncations.
"""

from dataclasses import dataclass
from types import MappingProxyType

from .perm import apply, is_atom

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


@dataclass(frozen=True)
class OpSpec:
    """Shape of one operation: free atom slots plus binder groups.

    Each binder group is a pair ``(bound_count, child_count)``: the group
    binds ``bound_count`` atoms whose scope is its ``child_count`` children.
    Operations may optionally carry a label drawn from a fixed finite set.
    """

    name: str
    atom_arity: int
    binder_groups: tuple
    labels: frozenset | None = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("operation name must be nonempty")
        if self.atom_arity < 0:
            raise ValueError("atom arity must be nonnegative")
        groups = tuple((int(b), int(c)) for b, c in self.binder_groups)
        for bound, children in groups:
            if bound < 0:
                raise ValueError("bound count must be nonnegative")
            if children < 1:
                raise ValueError("each binder group needs at least one child")
        object.__setattr__(self, "binder_groups", groups)
        if self.labels is not None:
            object.__setattr__(self, "labels", frozenset(self.labels))


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


@dataclass(frozen=True)
class Node:
    """An operation applied to atoms and groups of children, with each
    group's bound atoms in front.  In a :class:`TermGraph` the children are
    state names; in a finite tree they are trees or :data:`CUT`."""

    op: str
    atoms: tuple
    groups: tuple
    label: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(
            self,
            "groups",
            tuple((tuple(bound), tuple(children)) for bound, children in self.groups),
        )


TreeNode = Node  # the former name of tree nodes


class TermGraph:
    """A finite system of equations over a binding signature.

    ``states`` maps state names to :class:`Node` right-hand sides.  The
    mapping is exposed read-only because validity and free-atom
    information are cached on the instance.
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
        self._problems = None
        self._fv = None

    def __eq__(self, other):
        if not isinstance(other, TermGraph):
            return NotImplemented
        return self.signature == other.signature and self._states == other._states

    def __repr__(self):
        return f"TermGraph({len(self._states)} states)"


def validate(graph):
    """Return a list of human-readable problems, empty when well formed.

    Checks every state against the signature: known operation, atom and
    group arities, distinct bound atoms within a group, existing child
    states, and permitted labels.  Never raises, whatever the types of the
    node fields; the other operations on graphs refuse to run until this
    list is empty.
    """
    if graph._problems is not None:
        return list(graph._problems)
    problems = []
    for name, node in graph.states.items():
        if not isinstance(node.op, str) or node.op not in graph.signature:
            problems.append(f"state '{name}': unknown operation '{node.op}'")
            continue
        spec = graph.signature.op(node.op)
        if len(node.atoms) != spec.atom_arity:
            problems.append(
                f"state '{name}': expected {spec.atom_arity} atoms,"
                f" got {len(node.atoms)}"
            )
        for a in node.atoms:
            if not is_atom(a):
                problems.append(
                    f"state '{name}': atom {a!r} is not a nonnegative integer"
                )
        if spec.labels is None:
            if node.label is not None:
                problems.append(
                    f"state '{name}': operation '{node.op}' takes no label"
                )
        elif not isinstance(node.label, str) or node.label not in spec.labels:
            problems.append(
                f"state '{name}': label {node.label!r} not allowed for"
                f" '{node.op}'"
            )
        if len(node.groups) != len(spec.binder_groups):
            problems.append(
                f"state '{name}': expected {len(spec.binder_groups)} binder"
                f" groups, got {len(node.groups)}"
            )
            continue
        for i, ((bound, children), (bcount, ccount)) in enumerate(
            zip(node.groups, spec.binder_groups)
        ):
            if len(bound) != bcount:
                problems.append(
                    f"state '{name}': group {i} binds {len(bound)} atoms,"
                    f" expected {bcount}"
                )
            atoms_ok = True
            for b in bound:
                if not is_atom(b):
                    atoms_ok = False
                    problems.append(
                        f"state '{name}': bound atom {b!r} is not a"
                        f" nonnegative integer"
                    )
            # only atoms are known to be hashable
            if atoms_ok and len(bound) == bcount and len(set(bound)) != len(bound):
                problems.append(f"state '{name}': group {i} binds an atom twice")
            if len(children) != ccount:
                problems.append(
                    f"state '{name}': group {i} has {len(children)} children,"
                    f" expected {ccount}"
                )
            for c in children:
                if not isinstance(c, str) or c not in graph.states:
                    problems.append(f"state '{name}': unknown child state '{c}'")
    graph._problems = tuple(problems)
    return problems


def _require_valid(graph):
    problems = validate(graph)
    if problems:
        raise ValueError(problems[0])


def _require_state(graph, state):
    if state not in graph.states:
        raise ValueError(f"unknown state '{state}'")


def unfold(graph, state, depth):
    """Truncate the tree denoted by ``state`` at ``depth`` node levels.

    Depth 0 is :data:`CUT`; depth ``k`` shows ``k`` levels of nodes with
    every pruned subtree replaced by :data:`CUT`.  Shared subtrees of the
    result may be the same object, which is safe because trees are
    immutable.
    """
    _require_valid(graph)
    _require_state(graph, state)
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    prev = {name: CUT for name in graph.states}
    for _ in range(depth):
        cur = {}
        for name, node in graph.states.items():
            groups = tuple(
                (bound, tuple(prev[c] for c in children))
                for bound, children in node.groups
            )
            cur[name] = Node(node.op, node.atoms, groups, node.label)
        prev = cur
    return prev[state]


def _fv_map(graph):
    """Free atoms of every state, sorted, as the least fixpoint of the equations."""
    if graph._fv is not None:
        return graph._fv
    fv = {name: frozenset() for name in graph.states}
    changed = True
    while changed:
        changed = False
        for name, node in graph.states.items():
            acc = set(node.atoms)
            for bound, children in node.groups:
                below = set()
                for c in children:
                    below |= fv[c]
                acc |= below - set(bound)
            acc = frozenset(acc)
            if acc != fv[name]:
                fv[name] = acc
                changed = True
    graph._fv = {name: tuple(sorted(atoms)) for name, atoms in fv.items()}
    return graph._fv


def free_atoms(graph, state):
    """Atoms occurring free in the tree denoted by ``state``."""
    _require_valid(graph)
    _require_state(graph, state)
    return frozenset(_fv_map(graph)[state])


def tree_free_atoms(tree):
    """Atoms occurring free in a finite tree; :data:`CUT` contributes none.

    An occurrence is free when no binder group above it binds the atom.
    """
    out = set()
    stack = [(tree, frozenset())]
    while stack:
        t, scope = stack.pop()
        if t is CUT:
            continue
        out.update(a for a in t.atoms if a not in scope)
        for bound, children in t.groups:
            inner = scope.union(bound)
            stack.extend((c, inner) for c in children)
    return frozenset(out)


def _check_pair(g1, s1, g2, s2):
    _require_valid(g1)
    _require_valid(g2)
    if g1.signature != g2.signature:
        raise ValueError("signature mismatch")
    _require_state(g1, s1)
    _require_state(g2, s2)


def _closure(root, expand, depth=None):
    """Close ``{root}`` under ``expand`` breadth first: ``False`` as soon as
    ``expand`` returns ``None`` for a configuration, else ``True``.

    With a ``depth``, only levels below it are expanded: a configuration
    at level ``L`` sits at tree depth ``L``, which a depth-``depth``
    truncation shows exactly when ``depth > L``.
    """
    seen = {root}
    frontier = [root]
    level = 0
    while frontier and (depth is None or level < depth):
        next_frontier = []
        for config in frontier:
            children = expand(config)
            if children is None:
                return False
            for child in children:
                if child not in seen:
                    seen.add(child)
                    next_frontier.append(child)
        frontier = next_frontier
        level += 1
    return True


def raw_bisim(g1, s1, g2, s2):
    """Decide whether two states denote literally equal trees.

    Closes the set of reachable state pairs, demanding equal operations,
    labels, atoms and bound atoms at every pair.  The closure has at most
    ``|states1| * |states2|`` elements, so this terminates.
    """
    _check_pair(g1, s1, g2, s2)
    states1, states2 = g1.states, g2.states

    def expand(pair):
        na, nb = states1[pair[0]], states2[pair[1]]
        if na.op != nb.op or na.label != nb.label or na.atoms != nb.atoms:
            return None
        out = []
        for (bound_a, kids_a), (bound_b, kids_b) in zip(na.groups, nb.groups):
            if bound_a != bound_b:
                return None
            out.extend(zip(kids_a, kids_b))
        return out

    return _closure((s1, s2), expand)


def _match(na, nb, rho):
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


def _alpha_search(g1, s1, g2, s2):
    """Root configuration and ``expand`` step of the alpha-aware closure.

    A configuration is ``(state1, state2, rho)``, where ``rho`` holds as
    sorted pairs, for each atom free on the left there, the atom it must
    equal on the right.  The root has the identity on the free atoms of
    both sides; each child keeps only the entries its own free atoms can
    consult, which keeps the configurations finitely many.
    """
    _check_pair(g1, s1, g2, s2)
    states1, states2 = g1.states, g2.states
    fv1 = _fv_map(g1)
    rho = tuple((a, a) for a in sorted(set(fv1[s1]).union(_fv_map(g2)[s2])))

    def expand(config):
        sa, sb, items = config
        groups = _match(states1[sa], states2[sb], dict(items))
        if groups is None:
            return None
        return [
            (ca, cb, tuple((x, inner[x]) for x in fv1[ca] if x in inner))
            for inner, kids_a, kids_b in groups
            for ca, cb in zip(kids_a, kids_b)
        ]

    return (s1, s2, rho), expand


def alpha_bisim(g1, s1, g2, s2):
    """Decide whether two states denote alpha-equivalent trees.

    Works like :func:`raw_bisim` but carries a renaming of free atoms in
    each configuration, so bound atoms may differ as long as corresponding
    binders align.  Terminates because only finitely many renamings over
    the atoms of the two graphs can arise.
    """
    return _closure(*_alpha_search(g1, s1, g2, s2))


def truncation_eq(g1, s1, g2, s2, depth):
    """Decide whether the depth-``depth`` truncations are alpha-equivalent.

    The closure of :func:`alpha_bisim` stopped at level ``depth``: equality
    holds iff no disagreement sits above it.  Large ``depth`` values cost
    nothing extra once the configuration set is exhausted.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    return _closure(*_alpha_search(g1, s1, g2, s2), depth)


def tree_alpha_eq(t1, t2):
    """Alpha-equivalence of two finite trees.

    The node-matching step of :func:`alpha_bisim`, applied over tree nodes
    instead of graph configurations; :data:`CUT` only matches
    :data:`CUT`.  Useful as an executable specification for the graph
    procedures on truncations.
    """
    rho = {a: a for a in tree_free_atoms(t1) | tree_free_atoms(t2)}
    stack = [(t1, t2, rho)]
    while stack:
        ta, tb, rho = stack.pop()
        if ta is CUT or tb is CUT:
            if ta is not tb:
                return False
            continue
        # hand-built trees are never validated, so arities may differ
        if len(ta.atoms) != len(tb.atoms) or len(ta.groups) != len(tb.groups):
            return False
        for (bound_a, kids_a), (bound_b, kids_b) in zip(ta.groups, tb.groups):
            if len(bound_a) != len(bound_b) or len(kids_a) != len(kids_b):
                return False
        groups = _match(ta, tb, rho)
        if groups is None:
            return False
        for inner, kids_a, kids_b in groups:
            stack.extend((ca, cb, inner) for ca, cb in zip(kids_a, kids_b))
    return True


def act_graph(perm, graph):
    """Apply a finite permutation to every atom of every state."""
    states = {
        name: Node(
            node.op,
            tuple(apply(perm, a) for a in node.atoms),
            tuple(
                (tuple(apply(perm, b) for b in bound), children)
                for bound, children in node.groups
            ),
            node.label,
        )
        for name, node in graph.states.items()
    }
    return TermGraph(graph.signature, states)


def act_tree(perm, tree):
    """Apply a finite permutation to every atom of a finite tree.

    An explicit-stack walk that maps each shared subtree once, so it
    handles the deep and the shared trees :func:`unfold` produces.
    """
    image = {id(CUT): CUT}  # subtree id -> its image; the tree keeps ids alive
    stack = [tree]
    while stack:
        t = stack.pop()
        if id(t) in image:
            continue
        todo = [c for _, children in t.groups for c in children if id(c) not in image]
        if todo:
            stack += [t, *todo]
            continue
        image[id(t)] = Node(
            t.op,
            tuple(apply(perm, a) for a in t.atoms),
            tuple(
                (tuple(apply(perm, b) for b in bound),
                 tuple(image[id(c)] for c in children))
                for bound, children in t.groups
            ),
            t.label,
        )
    return image[id(tree)]


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
    stack = [tree]  # subtrees still to render, and text to emit between them
    while stack:
        t = stack.pop()
        if isinstance(t, str):
            out.append(t)
        elif t is CUT:
            out.append(cut)
        else:
            head = t.op if t.label is None else f"{t.op}:{t.label}"
            items = ["(" + head, *(f" {a}" for a in t.atoms)]
            for bound, children in t.groups:
                items.extend(f" {b}" for b in bound)
                for c in children:
                    items += (" ", c)
            items.append(")")
            stack.extend(reversed(items))
    return "".join(out)


def _tokenize(text):
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


def parse_tree(signature, text):
    """Parse the s-expression syntax of :func:`render_tree`.

    The signature supplies the arities, so the flat atom/bound/child
    spans inside each node can be split back apart.  A node is built when
    its ``)`` is read, from items whose subtrees are already built, so
    the parse keeps an explicit stack instead of recursing.
    """
    stack = [[]]  # the items of every open node; the bottom holds the result
    for pos, token in enumerate(_tokenize(text)):
        if len(stack) == 1 and stack[0]:
            raise ValueError(f"trailing input at token {pos}")
        if token == "(":
            stack.append([])
        elif token in ("⊥", "_"):
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
    op_name, _, label = items[0].partition(":")
    spec = signature.op(op_name)
    if label:
        if spec.labels is None or label not in spec.labels:
            raise ValueError(f"label {label!r} not allowed for '{op_name}'")
    else:
        label = None
        if spec.labels is not None:
            raise ValueError(f"operation '{op_name}' requires a label")
    rest = iter(items[1:])

    def atom(what):
        item = next(rest, ")")
        try:
            value = int(item)
        except (TypeError, ValueError):
            value = -1
        if value < 0:
            raise ValueError(f"expected {what}, got {item!r}")
        return value

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
        blob = {
            "name": spec.name,
            "atoms": spec.atom_arity,
            "groups": [
                {"bound": b, "children": c} for b, c in spec.binder_groups
            ],
        }
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
        ops.append(
            OpSpec(
                entry["name"],
                entry["atoms"],
                tuple((g["bound"], g["children"]) for g in entry["groups"]),
                None if labels is None else frozenset(labels),
            )
        )
    return BindingSignature(ops)


def graph_to_jsonable(graph):
    if graph.signature == LAMBDA_SIG:
        sig = "lambda"
    else:
        sig = signature_to_jsonable(graph.signature)
    states = {}
    for name, node in graph.states.items():
        entry = {
            "op": node.op,
            "atoms": list(node.atoms),
            "groups": [
                {"bound_atoms": list(bound), "children": list(children)}
                for bound, children in node.groups
            ],
        }
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
        states[name] = Node(
            entry["op"],
            tuple(entry["atoms"]),
            tuple(
                (tuple(g["bound_atoms"]), tuple(g["children"]))
                for g in entry["groups"]
            ),
            entry.get("label"),
        )
    return TermGraph(signature, states)
