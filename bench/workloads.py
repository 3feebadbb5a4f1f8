"""The four workloads: inputs from a seed, set-up, and the frozen query list.

A workload object has

* ``why``: one sentence on what it exercises and why it was chosen;
* ``generate(rng)``: the inputs and their expected answers as plain data,
  without touching nomfix;
* ``setup(nf, data, workdir)``: build, validate and write every input with
  the library (``nf`` holds the freshly imported modules); this is what
  ``setup_s`` times;
* ``queries(nf, data, inputs, helpers)``: the frozen query list.  Each query's
  ``run`` looks library functions up through their module at call time, so
  the traced run sees the rebound names; its ``check`` compares the output
  with the answer known by construction and runs outside the timed interval.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from typing import Callable, NamedTuple

import gen
from gen import Abs, Fn


class Query(NamedTuple):
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def interleave(groups, weights):
    """Round-robin the per-kind lists by weight, so that any prefix of the
    result holds the kinds in close to the stated proportions."""
    out = []
    iters = {kind: iter(items) for kind, items in groups.items()}
    while True:
        for kind, weight in weights:
            for _ in range(weight):
                item = next(iters[kind], None)
                if item is None:
                    return out
                out.append(item)


# ---------------------------------------------------------------------------
# values


def to_program(nf, spec):
    if isinstance(spec, int):
        return spec
    if isinstance(spec, Fn):
        return nf.fsfunc.FsFun(spec.a, to_program(nf, spec.d), spec.keys,
                               [to_program(nf, v) for v in spec.vals])
    if isinstance(spec, Abs):
        return nf.abstraction.Abstraction(spec.binder, to_program(nf, spec.body))
    return tuple(to_program(nf, v) for v in spec)


def to_spec(value):
    """Read a library value's stored form back as raw data."""
    if isinstance(value, int):
        return value
    if isinstance(value, tuple):
        return tuple(to_spec(v) for v in value)
    kind = type(value).__name__
    if kind == "FsFun":
        return Fn(value.default_atom, to_spec(value.default_value), tuple(value.keys),
                  tuple(to_spec(v) for v in value.values))
    if kind == "Abstraction":
        return Abs(value.binder, to_spec(value.body))
    raise TypeError(f"unexpected value {value!r}")


def probes_for(*specs):
    atoms = set()
    for s in specs:
        atoms |= gen.atoms_of(s)
    return range(max(atoms) + 4)


def canonical_fn_matches(result, spec, support):
    """The result is canonical (keys = the known support, default atom the
    least outside it) and agrees with the raw input everywhere."""
    got = to_spec(result)
    return (isinstance(got, Fn) and got.keys == tuple(support)
            and got.a == gen.least_outside(set(support))
            and gen.sem_eq(got, spec, probes_for(got, spec)))


class Values:
    why = ("Canonicalising constructors and actions on nested values (FsFun depth 1-2, "
           "Abstraction, Element, arity-2 section, JSON decode): the perm/values/fsfunc "
           "hot path.")
    rounds = 32
    # per round, cheapest kinds first: the median falls among the abstraction
    # queries and the tail among the sections
    weights = [("element", 1), ("fsfun1", 1), ("abstr", 12), ("serialize", 2),
               ("fsfun2", 2), ("section", 6)]

    def generate(self, rng):
        need = {kind: self.rounds * w for kind, w in self.weights}
        data = {kind: [] for kind in need}
        for _ in range(need["element"]):
            name, degree, _, form = rng.choice(gen.ORBITS)
            regs = tuple(rng.sample(range(10), degree))
            extra = rng.sample([a for a in range(12) if a not in regs], 2)
            data["element"].append((name, regs, tuple(sorted(regs)) + tuple(extra),
                                    gen.canonical_registers(form, regs)))
        for depth in (1, 2):
            for _ in range(need[f"fsfun{depth}"]):
                pool = range(6) if depth == 1 else range(4)
                data[f"fsfun{depth}"].append(gen.gen_fn(rng, depth, pool))
        for i in range(need["abstr"]):
            # an FsFun body, or a tuple of an FsFun and two atoms; a third of
            # the pairs differ in one free atom, the rest only in the binder
            spec, support = gen.gen_fn(rng, 1, range(6))
            x = rng.randrange(6)
            c = rng.choice([a for a in range(6) if a != x])
            if i % 3 == 2:
                x = rng.choice(support)
                body, free = spec, set(support) - {x}
            else:
                body, free = (spec, x, c), (set(support) | {c}) - {x}
            y = gen.least_outside(gen.atoms_of(body))
            equal = i % 3 != 1
            other = body if equal else (spec, x, gen.least_outside(gen.atoms_of(body) | {y}))
            data["abstr"].append((x, body, y, gen.rename(other, {x: y, y: x}), equal,
                                  frozenset(free)))
        for _ in range(need["section"]):
            spec, _ = gen.gen_fn(rng, 2, range(4), n_support=(2, 2))
            data["section"].append((spec, tuple(rng.sample(range(4, 12), 4))))
        for i in range(need["serialize"]):
            f1, _ = gen.gen_fn(rng, 1, range(6))
            if i % 2:
                f2, _ = gen.gen_fn(rng, 2, range(4))
                spec = (f2, Abs(rng.choice(range(6)), f1))
            else:
                spec = Abs(rng.choice(range(6)), (f1, rng.choice(range(6))))
            data["serialize"].append(spec)
        return data

    def setup(self, nf, data, workdir):
        family = nf.nomset.set_from_jsonable({"orbits": [
            {"name": n, "degree": d, "generators": [list(g) for g in gens]}
            for n, d, gens, _ in gen.ORBITS]})
        bodies = [(to_program(nf, b1), to_program(nf, b2)) for _, b1, _, b2, _, _ in data["abstr"]]
        sections = [nf.fsfunc.restrict_distinct(to_program(nf, spec)) for spec, _ in data["section"]]
        values = [to_program(nf, spec) for spec in data["serialize"]]
        return family, bodies, sections, values

    def queries(self, nf, data, inputs, helpers):
        family, bodies, sections, values = inputs
        groups = {}

        def element(name, regs, cands):
            e = nf.nomset.Element(family, name, regs)
            return e.registers, nf.nomset.min_support(e, cands)

        groups["element"] = [
            Query("element", lambda n=n, r=r, c=c: element(n, r, c),
                  lambda out, r=r, canon=canon: out == (canon, frozenset(r)))
            for n, r, c, canon in data["element"]]
        for depth in (1, 2):
            kind = f"fsfun{depth}"
            groups[kind] = [
                Query(kind, lambda s=s: to_program(nf, s),
                      lambda out, s=s, sup=sup: canonical_fn_matches(out, s, sup))
                for s, sup in data[kind]]

        def abstr(x, b1, y, b2):
            a1 = nf.abstraction.Abstraction(x, b1)
            a2 = nf.abstraction.Abstraction(y, b2)
            return nf.abstraction.abstr_eq(a1, a2), a1 == a2, a1.support()

        groups["abstr"] = [
            Query("abstr", lambda x=x, y=y, b=b: abstr(x, b[0], y, b[1]),
                  lambda out, eq=eq, sup=sup: out == (eq, eq, sup))
            for (x, _, y, _, eq, sup), b in zip(data["abstr"], bodies)]

        def section(f, w):
            back = nf.fsfunc.restrict_distinct(nf.fsfunc.section(f, w))
            return back.inner, nf.fsfunc.distinct_fs_eq(back, f)

        def section_ok(out, spec):
            inner, verdict = out
            got = to_spec(inner)
            probes = probes_for(got, spec)
            return verdict is True and all(
                gen.sem_eq(gen.evaluate(gen.evaluate(got, u), v),
                           gen.evaluate(gen.evaluate(spec, u), v), probes)
                for u in probes for v in probes if u != v)

        groups["section"] = [
            Query("section", lambda f=f, w=w: section(f, w),
                  lambda out, s=s: section_ok(out, s))
            for (s, w), f in zip(data["section"], sections)]

        def round_trip(v):
            text = nf.serialize.canonical_dumps(nf.serialize.value_to_jsonable(v))
            return nf.serialize.value_from_jsonable(json.loads(text))

        groups["serialize"] = [
            Query("serialize", lambda v=v: round_trip(v),
                  lambda out, want=to_spec(v): to_spec(out) == want)
            for v in values]
        return interleave(groups, self.weights)


# ---------------------------------------------------------------------------
# graphs


def graph_bases(rng, sizes, depth):
    """One base graph per size, with its renamed, mutated and unrolled copies,
    the level of the mutation and the expected depth-``depth`` renderings."""
    bases = []
    for n in sizes:
        while True:
            blob, root = gen.lambda_graph(rng, n)
            pi = gen.bound_renaming(rng, blob, root)
            if pi is not None:
                break
        sigma = gen.rename_graph(blob, pi)
        mutant, level = gen.mutate_deep_var(rng, blob, root)
        unrolled, uroot = gen.unroll_two_copies(blob, root)
        bases.append({
            "root": root, "uroot": uroot, "level": level,
            "blobs": {"g": blob, "sigma": sigma, "mutant": mutant, "unrolled": unrolled},
            "render": gen.render_unfolding(blob, root, depth),
            "render_sigma": gen.render_unfolding(sigma, root, depth),
        })
    return bases


class Graphs:
    why = ("alpha_bisim, raw_bisim, truncation_eq and unfold+render_tree on reachable "
           "500-3000-state lambda graphs: the termgraph search, bypassing perm and fsfunc.")
    # three bases of the largest size, so that the tail sits inside a group of
    # like unfold queries rather than on the edge between two single queries
    sizes = (500, 1000, 2000, 3000, 3000, 3000)
    unfold_depth = 10

    def generate(self, rng):
        return graph_bases(rng, self.sizes, self.unfold_depth)

    def setup(self, nf, data, workdir):
        tg = nf.termgraph
        loaded = []
        for base in data:
            graphs = {}
            for key, blob in base["blobs"].items():
                g = tg.graph_from_jsonable(blob)
                problems = tg.validate(g)
                if problems:
                    raise ValueError(problems[0])
                # the free-atom table is cached per graph; fill it here, once per input
                tg.free_atoms(g, base["uroot"] if key == "unrolled" else base["root"])
                graphs[key] = g
            loaded.append(graphs)
        return loaded

    def queries(self, nf, data, inputs, helpers):
        tg = nf.termgraph
        d = self.unfold_depth
        kinds = {}
        for base, g in zip(data, inputs):
            r, ur, level = base["root"], base["uroot"], base["level"]

            def is_(want):
                return lambda out: out is want

            def unfold(graph, root):
                tree = tg.unfold(graph, root, d)
                return tree, tg.render_tree(tree)

            def unfold_sigma_ok(out, want=base["render_sigma"], g=g["g"], r=r, memo={}):
                # compare with the unfolding of g, itself checked by the "unfold" query
                tree, text = out
                if "ref" not in memo:
                    memo["ref"] = tg.unfold(g, r, d)
                ref = memo["ref"]
                return (text == want and helpers.tree_alpha_oracle(tree, ref)
                        and helpers.raw_tree(tree) != helpers.raw_tree(ref))

            rows = [
                ("alpha_sigma", lambda g=g, r=r: tg.alpha_bisim(g["g"], r, g["sigma"], r), is_(True)),
                ("raw_sigma", lambda g=g, r=r: tg.raw_bisim(g["g"], r, g["sigma"], r), is_(False)),
                ("alpha_mutant", lambda g=g, r=r: tg.alpha_bisim(g["g"], r, g["mutant"], r), is_(False)),
                ("trunc_below", lambda g=g, r=r, k=level: tg.truncation_eq(g["g"], r, g["mutant"], r, k),
                 is_(True)),
                ("trunc_above", lambda g=g, r=r, k=level + 1: tg.truncation_eq(g["g"], r, g["mutant"], r, k),
                 is_(False)),
                ("alpha_unrolled", lambda g=g, r=r, ur=ur: tg.alpha_bisim(g["g"], r, g["unrolled"], ur),
                 is_(True)),
                ("raw_unrolled", lambda g=g, r=r, ur=ur: tg.raw_bisim(g["g"], r, g["unrolled"], ur),
                 is_(True)),
                ("unfold", lambda g=g, r=r: unfold(g["g"], r),
                 lambda out, want=base["render"]: out[1] == want),
                ("unfold_sigma", lambda g=g, r=r: unfold(g["sigma"], r), unfold_sigma_ok),
            ]
            for kind, run, check in rows:
                kinds.setdefault(kind, []).append(Query(kind, run, check))
        return interleave(kinds, [(kind, 1) for kind in kinds])


# ---------------------------------------------------------------------------
# automata


def automaton_pairs(rng, need, steps):
    """``need[kind]`` automaton pairs of each kind, as JSON blobs with the
    expected verdict and shortest counterexample length:

    * ``product``: two machines with acceptance removed, so equal, whose
      product search tries between ``steps[0]`` and ``steps[1]`` letters;
    * ``cex_product``: a machine with acceptance removed against one
      accepting only its deepest orbit, so unequal;
    * ``renamed``: a machine against its renamed copy, so equal;
    * ``flip``: a machine against itself with its deepest orbit's acceptance
      flipped, so unequal.
    """
    pairs = {kind: [] for kind in need}
    lo, hi = steps

    def machine():
        return gen.register_automaton(rng, rng.randint(6, 10), rng.randint(3, 5))

    def deepest(blob):
        reach = gen.reachable_orbits(blob)
        return max(reach, key=lambda o: (len(reach[o]), o))

    while len(pairs["product"]) < need["product"] or len(pairs["cex_product"]) < need["cex_product"]:
        a0, b = gen.with_accepting(machine(), []), machine()
        if len(pairs["product"]) < need["product"]:
            b0 = gen.with_accepting(b, [])
            verdict, tried, _ = gen.product_search(a0, b0, hi)
            if verdict is True and tried >= lo:
                pairs["product"].append((a0, b0, True, None))
                continue
        if len(pairs["cex_product"]) < need["cex_product"]:
            b1 = gen.with_accepting(b, [deepest(b)])
            verdict, tried, word = gen.product_search(a0, b1, hi)
            if verdict is False and tried >= lo // 2:
                pairs["cex_product"].append((a0, b1, False, len(word)))
    for _ in range(need["renamed"]):
        a = machine()
        pairs["renamed"].append((a, gen.renamed_automaton(rng, a), True, None))
    for _ in range(need["flip"]):
        a = machine()
        flipped = gen.with_accepting(a, set(a["accepting"]) ^ {deepest(a)})
        _, _, shortest = gen.product_search(a, flipped, 10 ** 7)
        pairs["flip"].append((a, flipped, False, len(shortest)))
    return pairs


class Automata:
    why = ("dfa_equiv on register-heavy automata (6-10 orbits, degree 3-5): the only "
           "search over equality patterns, in nomauto and nomset.Element, with perm only "
           "for fresh.")
    rounds = 10
    # the median and the tail both fall among the full product searches
    weights = [("flip", 1), ("renamed", 1), ("cex_product", 1), ("product", 7)]
    # letters tried by a product search (two dfa_step calls each) for a pair
    # to be kept: this bounds the tail and keeps the mix alike across seeds
    steps = (3000, 8000)

    def generate(self, rng):
        return automaton_pairs(rng, {kind: self.rounds * w for kind, w in self.weights}, self.steps)

    def setup(self, nf, data, workdir):
        load = nf.nomauto.dfa_from_jsonable
        return {kind: [(load(b1), load(b2)) for b1, b2, _, _ in rows] for kind, rows in data.items()}

    def queries(self, nf, data, inputs, helpers):
        na = nf.nomauto

        def check(out, d1, d2, b1, b2, equal, length):
            verdict, word = out
            if verdict != equal:
                return False
            if equal:
                return word is None
            return (len(word) == length
                    and na.dfa_accepts(d1, word) != na.dfa_accepts(d2, word)
                    and gen.accepts(b1, word) != gen.accepts(b2, word))

        kinds = {}
        for kind, rows in data.items():
            kinds[kind] = [
                Query(kind, lambda d1=d1, d2=d2: na.dfa_equiv(d1, d2),
                      lambda out, d1=d1, d2=d2, b1=b1, b2=b2, eq=eq, n=n: check(out, d1, d2, b1, b2, eq, n))
                for (b1, b2, eq, n), (d1, d2) in zip(rows, inputs[kind])]
        return interleave(kinds, self.weights)


# ---------------------------------------------------------------------------
# cli


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Cli:
    why = ("python -m nomfix subprocesses one at a time on files written in set-up: the "
           "only workload paying process start, import, JSON load and validate per call.")
    # large enough that loading and searching, not only start-up, show; at
    # about 0.3 s a query a 20 s run collects 40-100 samples, so the tail is p75
    graph_sizes = (3000, 3000)
    unfold_depth = 10

    def generate(self, rng):
        bases = graph_bases(rng, self.graph_sizes, self.unfold_depth)
        pairs = automaton_pairs(rng, {"product": 1, "cex_product": 1, "renamed": 0, "flip": 0},
                                Automata.steps)
        runner = gen.register_automaton(rng, 8, 4)
        reach = gen.reachable_orbits(runner)
        words = sorted(reach.values(), key=len)[-2:]
        return {"bases": bases, "pairs": pairs, "runner": runner, "words": words}

    def setup(self, nf, data, workdir):
        tg, na, ns, ser = nf.termgraph, nf.nomauto, nf.nomset, nf.serialize
        files = {}

        def write(name, blob):
            path = os.path.join(workdir, name)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(ser.canonical_dumps(blob))
            files[name] = path

        for i, base in enumerate(data["bases"]):
            for key, blob in base["blobs"].items():
                problems = tg.validate(tg.graph_from_jsonable(blob))
                if problems:
                    raise ValueError(problems[0])
                write(f"g{i}-{key}.json", blob)
        for kind, rows in data["pairs"].items():
            for j, (b1, b2, _, _) in enumerate(rows):
                for side, blob in (("1", b1), ("2", b2)):
                    na.dfa_from_jsonable(blob)
                    write(f"{kind}{j}-{side}.json", blob)
        na.dfa_from_jsonable(data["runner"])
        write("runner.json", data["runner"])
        orbits = {"orbits": [{"name": n, "degree": d, "generators": [list(g) for g in gens]}
                             for n, d, gens, _ in gen.ORBITS]}
        ns.set_from_jsonable(orbits)
        write("orbits.json", orbits)
        return files

    def commands(self, data, files):
        """(kind, argv, expected exit code, stdout check) for every query."""
        rows = []
        for i, base in enumerate(data["bases"]):
            g = {k: files[f"g{i}-{k}.json"] for k in base["blobs"]}
            r, ur = base["root"], base["uroot"]
            fv = sorted(gen.free_atoms(base["blobs"]["g"])[r])
            rows += [
                ("alpha-eq", ["alpha-eq", g["g"], r, g["sigma"], r], 0, "alpha-equivalent\n"),
                ("alpha-eq", ["alpha-eq", g["g"], r, g["mutant"], r], 1, "not alpha-equivalent\n"),
                ("raw-eq", ["raw-eq", g["g"], r, g["sigma"], r], 1, "not raw-equivalent\n"),
                ("raw-eq", ["raw-eq", g["g"], r, g["unrolled"], ur], 0, "raw-equivalent\n"),
                ("alpha-eq", ["alpha-eq", g["g"], r, g["unrolled"], ur], 0, "alpha-equivalent\n"),
                ("unfold", ["unfold", g["unrolled"], ur, "--depth", str(self.unfold_depth)], 0,
                 base["render"] + "\n"),
                ("support", ["support", g["sigma"], r], 0, json.dumps(fv) + "\n"),
            ]
        for kind, pairs in data["pairs"].items():
            for j, (b1, b2, equal, length) in enumerate(pairs):
                argv = ["dfa-equiv", files[f"{kind}{j}-1.json"], files[f"{kind}{j}-2.json"]]
                if equal:
                    rows.append(("dfa-equiv", argv, 0, "equivalent\n"))
                    continue

                def cex_ok(out, b1=b1, b2=b2, length=length):
                    prefix = "counterexample: "
                    if not out.startswith(prefix) or not out.endswith("\n"):
                        return False
                    text = out[len(prefix):-1]
                    word = () if text == "(empty)" else tuple(int(a) for a in text.split(","))
                    return len(word) == length and gen.accepts(b1, word) != gen.accepts(b2, word)

                rows.append(("dfa-equiv", argv, 1, cex_ok))
        for word in data["words"]:
            ok = gen.accepts(data["runner"], word)
            rows.append(("dfa-run", ["dfa-run", files["runner.json"], ",".join(map(str, word))],
                         0 if ok else 1, "accept\n" if ok else "reject\n"))
        expected = []
        for n, d, _, form in gen.ORBITS:
            size = {"plain": 1, "cyclic": d, "sorted": math.factorial(d)}[form]
            expected.append(f"{n} degree={d} symmetry={size} strong={'yes' if size == 1 else 'no'}\n")
        rows.append(("orbits", ["orbits", files["orbits.json"]], 0, "".join(expected)))
        return rows

    def queries(self, nf, data, files, helpers):
        root = os.getcwd()
        env = child_env(root)
        out = []
        for kind, argv, code, want in self.commands(data, files):
            def run(argv=argv):
                proc = subprocess.run([sys.executable, "-m", "nomfix", *argv], env=env, cwd=root,
                                      stdin=subprocess.DEVNULL, capture_output=True,
                                      text=True, encoding="utf-8", timeout=60)
                return proc.returncode, proc.stdout

            out.append(Query(kind, run, lambda res, code=code, want=want: stdout_ok(res, code, want)))
        return out

    def in_process_queries(self, nf, data, files):
        """The same argv lists through ``cli.main`` in this process."""
        out = []
        for kind, argv, code, want in self.commands(data, files):
            def run(argv=argv):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    status = nf.cli.main(list(argv))
                return status, buf.getvalue()

            out.append(Query(kind, run, lambda res, code=code, want=want: stdout_ok(res, code, want)))
        return out


def stdout_ok(result, code, want):
    status, text = result
    if status != code:
        return False
    return want(text) if callable(want) else text == want


WORKLOADS = {"values": Values(), "graphs": Graphs(), "automata": Automata(), "cli": Cli()}
