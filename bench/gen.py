"""Seeded input generators and the independent reference answers they imply.

Nothing here imports nomfix: every generator emits plain Python data
(nested tuples, dicts in the JSON file formats) whose expected answers follow
from how it was built, and the reference evaluators below recompute those
answers from the raw data without touching the library.
"""

from collections import deque
from typing import NamedTuple

# ---------------------------------------------------------------------------
# Values: finitely supported functions as raw quadruples.


class Fn(NamedTuple):
    """A raw, possibly non-canonical quadruple: f(b) = vals[i] when b is
    keys[i], d when b is a, and d with a swapped to b otherwise."""

    a: int
    d: object
    keys: tuple
    vals: tuple


class Abs(NamedTuple):
    """A raw abstraction: ``binder`` bound in ``body``."""

    binder: int
    body: object


def atoms_of(spec):
    """Every atom written anywhere in a raw value (a superset of its support)."""
    if isinstance(spec, int):
        return {spec}
    if isinstance(spec, Abs):
        return {spec.binder} | atoms_of(spec.body)
    if isinstance(spec, Fn):
        out = {spec.a, *spec.keys} | atoms_of(spec.d)
        for v in spec.vals:
            out |= atoms_of(v)
        return out
    out = set()
    for v in spec:
        out |= atoms_of(v)
    return out


def rename(spec, pi):
    """Apply the atom bijection ``pi`` (a dict, identity elsewhere) to every
    atom position; by equivariance this is the permutation action."""
    if isinstance(spec, int):
        return pi.get(spec, spec)
    if isinstance(spec, Abs):
        return Abs(pi.get(spec.binder, spec.binder), rename(spec.body, pi))
    if isinstance(spec, Fn):
        return Fn(pi.get(spec.a, spec.a), rename(spec.d, pi),
                  tuple(pi.get(k, k) for k in spec.keys),
                  tuple(rename(v, pi) for v in spec.vals))
    return tuple(rename(v, pi) for v in spec)


def evaluate(f, b):
    for k, v in zip(f.keys, f.vals):
        if k == b:
            return v
    if b == f.a:
        return f.d
    return rename(f.d, {f.a: b, b: f.a})


def sem_eq(x, y, probes):
    """Extensional equality of raw values, functions compared on ``probes``."""
    if isinstance(x, Fn) or isinstance(y, Fn):
        if not (isinstance(x, Fn) and isinstance(y, Fn)):
            return False
        return all(sem_eq(evaluate(x, b), evaluate(y, b), probes) for b in probes)
    if isinstance(x, int) or isinstance(y, int):
        return x == y
    return len(x) == len(y) and all(sem_eq(p, q, probes) for p, q in zip(x, y))


def support_of(spec):
    """Minimal support of a raw value by the single-swap test."""
    atoms = atoms_of(spec)
    z = least_outside(atoms)
    probes = range(max(atoms | {z}) + 4)
    return {u for u in atoms if not sem_eq(rename(spec, {u: z, z: u}), spec, probes)}


def least_outside(atoms):
    a = 0
    while a in atoms:
        a += 1
    return a


def gen_fn(rng, depth, pool, n_support=(1, 3), n_redundant=(0, 2)):
    """A raw depth-``depth`` function whose minimal support is known.

    Returns ``(spec, support)``.  The support ``S`` is drawn from ``pool``;
    the raw form adds redundant keys (stored values equal to what the
    cofinite rule gives anyway) and a default atom that is not the least
    fresh one, so the constructor has real canonicalisation work to do.
    Each support atom either is in the default value's support or has a
    stored value that differs from the cofinite rule, which is what puts it
    in the support.
    """
    pool = sorted(pool)
    support = sorted(rng.sample(pool, rng.randint(*n_support)))
    outside = [x for x in range(max(pool) + 3) if x not in support]
    a = rng.choice(outside[1:]) if len(outside) > 1 else outside[0]
    scope = support + [a]
    probes = range(max(scope) + 4)
    if depth == 1:
        kind = rng.randrange(3)
        c = rng.choice(support)
        d = (a, c) if kind == 0 else (c if kind == 1 else a)
    else:
        d, _ = gen_fn(rng, depth - 1, scope, (1, min(3, len(scope))), (0, 1))
    d_atoms = atoms_of(d)
    d_support = support_of(d)
    table = {}
    for s in support:
        cofinite = rename(d, {a: s, s: a})
        free = s in d_support - {a}
        if depth == 1:
            options = support + [(x, y) for x in support for y in support]
            table[s] = rng.choice([v for v in options if free or not sem_eq(v, cofinite, probes)])
            continue
        while True:
            v, _ = gen_fn(rng, depth - 1, support, (1, len(support)), (0, 1))
            if free or not sem_eq(v, cofinite, probes):
                break
        table[s] = v
    spare = [r for r in pool + [max(pool) + 1, max(pool) + 2]
             if r not in support and r != a and r not in d_atoms]
    for r in rng.sample(spare, min(len(spare), rng.randint(*n_redundant))):
        table[r] = rename(d, {a: r, r: a})
    keys = list(table)
    rng.shuffle(keys)
    return Fn(a, d, tuple(keys), tuple(table[k] for k in keys)), tuple(support)


# Orbit families for Element: (name, degree, generators, canonical form).
ORBITS = [
    ("pair", 2, [(1, 0)], "sorted"),
    ("tri", 3, [(1, 2, 0)], "cyclic"),
    ("set3", 3, [(1, 0, 2), (1, 2, 0)], "sorted"),
    ("quad", 4, [(1, 2, 3, 0)], "cyclic"),
    ("set4", 4, [(1, 0, 2, 3), (1, 2, 3, 0)], "sorted"),
    ("set5", 5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], "sorted"),
    ("tup4", 4, [], "plain"),
]


def canonical_registers(form, regs):
    if form == "sorted":
        return tuple(sorted(regs))
    if form == "cyclic":
        return min(regs[i:] + regs[:i] for i in range(len(regs)))
    return tuple(regs)


# ---------------------------------------------------------------------------
# Term graphs over the lambda signature, as JSON blobs.


def _lam(binder, child):
    return {"op": "lam", "atoms": [], "groups": [{"bound_atoms": [binder], "children": [child]}]}


def _app(left, right):
    return {"op": "app", "atoms": [], "groups": [{"bound_atoms": [], "children": [left, right]}]}


def _var(atom):
    return {"op": "var", "atoms": [atom], "groups": []}


FREE_ATOMS = (50, 51, 52)
BINDERS = 4


def lambda_graph(rng, n_states):
    """A closed-up-to-free-atoms lambda term graph of ``n_states`` states,
    all reachable.

    States are grown breadth-first from ``s0`` along a spanning tree of
    ``lam``/``app`` nodes.  Child slots not used for a new state become back
    edges to a random earlier state whose binders in scope are a subset of
    the current ones (``s0`` as a fallback), and ``var`` leaves mostly
    mention a binder in scope.  So only atoms of ``FREE_ATOMS`` are free at
    ``s0`` and every binder atom can be renamed.  Returns the blob and
    ``s0``.
    """
    states = {}
    scope = [frozenset()]
    queue = deque([(0, ())])
    while queue:
        i, env = queue.popleft()
        name = f"s{i}"
        must_grow = len(scope) < n_states and not queue
        roll = rng.random()
        if not must_grow and (roll < 0.1 or (len(scope) >= n_states and roll < 0.5)):
            if env and rng.random() < 0.85:
                states[name] = _var(rng.choice(env))
            else:
                states[name] = _var(rng.choice(FREE_ATOMS))
            continue
        is_lam = rng.random() < 0.45
        binder = rng.randrange(BINDERS)
        inner = env + (binder,) if is_lam else env
        kids = []
        for slot in range(1 if is_lam else 2):
            if len(scope) < n_states and (rng.random() < 0.9 or (must_grow and slot == 0)):
                kids.append(f"s{len(scope)}")
                queue.append((len(scope), inner))
                scope.append(frozenset(inner))
                continue
            target = 0
            for _ in range(4):
                j = rng.randrange(len(scope))
                if scope[j] <= set(inner):
                    target = j
                    break
            kids.append(f"s{target}")
        states[name] = _lam(binder, kids[0]) if is_lam else _app(*kids)
    ordered = {f"s{i}": states[f"s{i}"] for i in range(len(scope))}
    return {"sig": "lambda", "states": ordered}, "s0"


def children(entry):
    return [c for g in entry["groups"] for c in g["children"]]


def levels(blob, root):
    """Shortest number of edges from ``root`` to each reachable state."""
    dist = {root: 0}
    queue = deque([root])
    while queue:
        s = queue.popleft()
        for c in children(blob["states"][s]):
            if c not in dist:
                dist[c] = dist[s] + 1
                queue.append(c)
    return dist


def free_atoms(blob):
    """Free atoms of every state, as the least fixpoint of the equations."""
    states = blob["states"]
    fv = {name: frozenset() for name in states}
    changed = True
    while changed:
        changed = False
        for name, e in states.items():
            acc = set(e["atoms"])
            for g in e["groups"]:
                below = set()
                for c in g["children"]:
                    below |= fv[c]
                acc |= below - set(g["bound_atoms"])
            if acc != fv[name]:
                fv[name] = frozenset(acc)
                changed = True
    return fv


def rename_graph(blob, pi):
    out = {}
    for name, e in blob["states"].items():
        out[name] = {"op": e["op"], "atoms": [pi.get(a, a) for a in e["atoms"]],
                     "groups": [{"bound_atoms": [pi.get(b, b) for b in g["bound_atoms"]],
                                 "children": list(g["children"])} for g in e["groups"]]}
    return {"sig": blob["sig"], "states": out}


def bound_renaming(rng, blob, root):
    """A permutation swapping binder atoms outside fv(root) with unused atoms.

    It fixes the root's free atoms, so it maps the denoted tree to an
    alpha-equivalent one, and it moves at least one binder that occurs in
    the graph, so the literal trees differ.
    """
    fv = free_atoms(blob)[root]
    bound = sorted({b for e in blob["states"].values()
                    for g in e["groups"] for b in g["bound_atoms"]} - fv)
    if not bound:
        return None
    moved = rng.sample(bound, min(len(bound), 3))
    pi = {}
    for k, b in enumerate(moved):
        pi[b], pi[300 + k] = 300 + k, b
    return pi


def mutate_deep_var(rng, blob, root):
    """Change the atom of a deepest ``var`` state to one unused anywhere.

    Returns the mutated blob and the level of the changed state: truncations
    shallower than or equal to that level agree, deeper ones do not.
    """
    dist = levels(blob, root)
    vars_ = [s for s, e in blob["states"].items() if e["op"] == "var"]
    deepest = max(dist[s] for s in vars_)
    target = rng.choice(sorted(s for s in vars_ if dist[s] == deepest))
    states = dict(blob["states"])
    states[target] = _var(999)
    return {"sig": blob["sig"], "states": states}, deepest


def unroll_two_copies(blob, root):
    """Two copies of every state with every edge crossing between copies:
    the same infinite tree from ``root``, but a graph that is not isomorphic."""
    out = {}
    for copy in (0, 1):
        for name, e in blob["states"].items():
            out[f"{name}.{copy}"] = {
                "op": e["op"], "atoms": list(e["atoms"]),
                "groups": [{"bound_atoms": list(g["bound_atoms"]),
                            "children": [f"{c}.{1 - copy}" for c in g["children"]]}
                           for g in e["groups"]]}
    return {"sig": blob["sig"], "states": out}, f"{root}.0"


def render_unfolding(blob, root, depth):
    """The s-expression of the depth-``depth`` truncation, straight from the blob."""
    states = blob["states"]
    memo = {}

    def go(s, k):
        if k == 0:
            return "⊥"
        key = (s, k)
        if key not in memo:
            e = states[s]
            parts = [e["op"]] + [str(a) for a in e["atoms"]]
            for g in e["groups"]:
                parts.extend(str(b) for b in g["bound_atoms"])
                parts.extend(go(c, k - 1) for c in g["children"])
            memo[key] = "(" + " ".join(parts) + ")"
        return memo[key]

    return go(root, depth)


# ---------------------------------------------------------------------------
# Register-keeping nominal automata, as JSON blobs.


def register_automaton(rng, n_orbits, max_degree):
    """A deterministic nominal automaton that keeps most of its registers.

    Orbit ``q0`` has no registers and ``q1``, ``q2`` lead up to the
    register-heavy orbits of degree 3..``max_degree``.  A fresh letter is
    shifted in, dropping one register when the target has no room; an equal
    letter keeps the registers, mostly in order.  The fresh case of each
    orbit leads to the next orbit in the list (degrees never rise by more
    than one along it), so every orbit is reachable.  Acceptance is random.
    """
    names = ["q0", "q1", "q2"] + [f"r{i}" for i in range(n_orbits - 3)]
    degree = {"q0": 0, "q1": 1, "q2": 2}
    d = 3
    for name in names[3:]:
        degree[name] = d
        d = min(max_degree, d + rng.randrange(2))

    def target(limit, floor):
        fits = [n for n in names if floor <= degree[n] <= limit]
        return rng.choice(fits or [n for n in names if degree[n] <= limit])

    def keep(pool, n):
        if rng.random() < 0.7:
            start = rng.randrange(len(pool) - n + 1)
            return pool[start:start + n]
        return rng.sample(pool, n)

    delta = {}
    for name in names:
        n = degree[name]
        equal = {}
        for j in range(n):
            t = target(n, max(0, n - 1))
            equal[str(j)] = {"orbit": t, "sources": keep(list(range(n)), degree[t])}
        t = target(n + 1, n) if name in ("q0", "q1") else target(n + 1, max(0, n - 1))
        pool = list(range(n)) + ["input"]
        srcs = keep(pool, degree[t])
        if "input" not in srcs and degree[t] > 0 and rng.random() < 0.8:
            srcs[rng.randrange(len(srcs))] = "input"
        delta[name] = {"equal": equal, "fresh": {"orbit": t, "sources": srcs}}
    # a chain of fresh letters walks q0, q1, q2, r0, r1, ... so every orbit is reachable
    for src, dst in zip(names, names[1:]):
        n, m = degree[src], degree[dst]
        srcs = keep(list(range(n)), min(n, m - 1)) + ["input"]
        srcs += [j for j in range(n) if j not in srcs][:m - len(srcs)]
        delta[src]["fresh"] = {"orbit": dst, "sources": srcs}
    accepting = sorted(n for n in names if rng.random() < 0.4)
    orbits = [{"name": n, "degree": degree[n]} for n in names]
    return {"orbits": orbits, "initial": "q0", "accepting": accepting, "delta": delta}


def with_accepting(blob, accepting):
    return {**blob, "accepting": sorted(accepting)}


def renamed_automaton(rng, blob):
    """The same automaton with orbits renamed and listed in another order and
    every orbit's registers permuted; it accepts the same language."""
    degree = {o["name"]: o["degree"] for o in blob["orbits"]}
    perm = {n: rng.sample(range(d), d) for n, d in degree.items()}   # new i holds old perm[i]
    inv = {n: {old: new for new, old in enumerate(p)} for n, p in perm.items()}
    new = {n: f"x{k}" for k, n in enumerate(sorted(degree, key=lambda _: rng.random()))}
    new[blob["initial"]] = blob["initial"]

    def expr(src, e):
        t = e["orbit"]
        old = e["sources"]
        return {"orbit": new[t],
                "sources": [old[perm[t][i]] if old[perm[t][i]] == "input"
                            else inv[src][old[perm[t][i]]] for i in range(degree[t])]}

    delta = {}
    for src, rules in blob["delta"].items():
        delta[new[src]] = {
            "equal": {str(j): expr(src, rules["equal"][str(perm[src][j])])
                      for j in range(degree[src])},
            "fresh": expr(src, rules["fresh"]),
        }
    orbits = [{"name": new[o["name"]], "degree": o["degree"]} for o in blob["orbits"]]
    orbits = orbits[:1] + orbits[:0:-1]
    return {"orbits": orbits, "initial": blob["initial"],
            "accepting": sorted(new[n] for n in blob["accepting"]), "delta": delta}


def _step(blob, orbit, regs, atom):
    rules = blob["delta"][orbit]
    e = rules["equal"][str(regs.index(atom))] if atom in regs else rules["fresh"]
    return e["orbit"], tuple(atom if s == "input" else regs[s] for s in e["sources"])


def accepts(blob, word):
    orbit, regs = blob["initial"], ()
    for atom in word:
        orbit, regs = _step(blob, orbit, regs, atom)
    return orbit in blob["accepting"]


def product_search(b1, b2, cap):
    """Reference equivalence search over joint equality patterns.

    Returns ``(verdict, steps, word)``: ``steps`` counts the letters tried
    (each costs the library one ``dfa_step`` per machine), ``word`` is a
    shortest counterexample, and ``verdict`` is None once more than ``cap``
    steps would be needed.
    """
    def pattern(x, y):
        rank = {}
        for atom in x[1] + y[1]:
            rank.setdefault(atom, len(rank))
        return x[0], y[0], tuple(rank[a] for a in x[1] + y[1])

    acc1, acc2 = set(b1["accepting"]), set(b2["accepting"])
    start = ((b1["initial"], ()), (b2["initial"], ()), ())
    seen = {pattern(start[0], start[1])}
    queue = deque([start])
    steps = 0
    while queue:
        x, y, word = queue.popleft()
        if (x[0] in acc1) != (y[0] in acc2):
            return False, steps, word
        joint = set(x[1]) | set(y[1])
        for atom in sorted(joint) + [least_outside(joint)]:
            steps += 1
            if steps > cap:
                return None, steps, None
            nx, ny = _step(b1, *x, atom), _step(b2, *y, atom)
            p = pattern(nx, ny)
            if p not in seen:
                seen.add(p)
                queue.append((nx, ny, word + (atom,)))
    return True, steps, None


def reachable_orbits(blob):
    """A shortest word reaching each reachable orbit.

    Registers stay pairwise distinct, so from any state of an orbit every
    equal case and the fresh case can fire: reachability is per orbit.
    """
    found = {blob["initial"]: ()}
    queue = deque([((blob["initial"], ()), ())])
    while queue:
        (orbit, regs), word = queue.popleft()
        for atom in list(regs) + [least_outside(set(regs))]:
            nxt = _step(blob, orbit, regs, atom)
            if nxt[0] not in found:
                found[nxt[0]] = word + (atom,)
                queue.append((nxt, word + (atom,)))
    return found
