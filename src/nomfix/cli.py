"""Command line front end.

Verdict-style commands follow the usual convention: exit status 0 for a
positive answer, 1 for a negative one, and 2 for unusable inputs (bad
arguments, unreadable files, malformed or invalid structures).
"""

import argparse
import gc
import json
import sys

# nomauto and nomset load in the handlers that use them: graph commands never pay for them
from .termgraph import (
    _fold_tree,
    _levels,
    alpha_bisim,
    free_atoms,
    graph_from_jsonable,
    raw_bisim,
    render_tree,
    unfold,
)


# Largest unfolding `unfold` prints, in nodes of the rendered tree (each
# ``⊥`` counts as one).  Shared subtrees print once per path, so a graph as
# small as ``s = app(s, s)`` doubles its rendering with every level.
MAX_UNFOLD_NODES = 10**6


class CliError(Exception):
    """Input problem reported on stderr; the process exits with status 2."""


def _reject_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle, parse_constant=_reject_constant)
    except OSError as e:
        raise CliError(f"{path}: {e.strerror}") from None
    except json.JSONDecodeError as e:
        raise CliError(f"{path}:{e.lineno}: {e.msg}") from None
    except ValueError as e:  # NaN or Infinity, or a file that is not UTF-8
        raise CliError(f"{path}: {e}") from None


def _load_as(path, reader, what):
    blob = _load_json(path)
    try:
        return reader(blob)
    except ValueError as e:
        raise CliError(f"{path}: {e}") from None
    except (KeyError, TypeError) as e:
        raise CliError(f"{path}: malformed {what} ({e!r})") from None


def _load_graph(path):
    return _load_as(path, graph_from_jsonable, "term graph")


def _load_dfa(path):
    from .nomauto import dfa_from_jsonable
    return _load_as(path, dfa_from_jsonable, "automaton")


def _load_set(path):
    from .nomset import set_from_jsonable
    return _load_as(path, set_from_jsonable, "orbit-finite set")


def _parse_word(text):
    if text == "":
        return ()
    word = []
    for part in text.split(","):
        # int() would also take signs, spaces, "_" and non-ASCII digits
        if not (part.isascii() and part.isdigit()):
            raise CliError(f"bad letter {part!r} in word")
        word.append(int(part))
    return tuple(word)


def _verdict(answer, yes, no):
    if answer:
        print(yes)
        return 0
    print(no)
    return 1


def _cmd_alpha_eq(args):
    g1, g2 = _load_graph(args.graph1), _load_graph(args.graph2)
    answer = alpha_bisim(g1, args.state1, g2, args.state2)
    return _verdict(answer, "alpha-equivalent", "not alpha-equivalent")


def _cmd_raw_eq(args):
    g1, g2 = _load_graph(args.graph1), _load_graph(args.graph2)
    answer = raw_bisim(g1, args.state1, g2, args.state2)
    return _verdict(answer, "raw-equivalent", "not raw-equivalent")


def _rendered_nodes(tree):
    """Node count of the rendering of ``tree``: one memoised pass over its
    shared subtrees, so it costs their number, not the rendering's size."""
    return _fold_tree(tree, lambda t, groups: 1 + sum(sum(kids) for _, kids in groups),
                      lambda leaf: 1)


def _cmd_unfold(args):
    graph = _load_graph(args.graph)
    # Refuse before building: the rendering has a node for each state of
    # each level, and a level as deep as the graph has states sits on a
    # cycle, so every level down to the depth is nonempty and the last has
    # a cut below it.
    built, cap = 0, MAX_UNFOLD_NODES
    for k, level in enumerate(_levels(graph, args.state, args.depth)):
        built += len(level)
        if built > cap or (k >= len(graph.states) and args.depth >= cap):
            raise CliError(f"unfolding has more than the {MAX_UNFOLD_NODES} nodes"
                           f" that unfold prints")
    tree = unfold(graph, args.state, args.depth)
    nodes = _rendered_nodes(tree)
    if nodes > MAX_UNFOLD_NODES:
        raise CliError(f"unfolding has {nodes} nodes, more than the "
                       f"{MAX_UNFOLD_NODES} that unfold prints")
    print(render_tree(tree, ascii_cut=args.ascii))
    return 0


def _cmd_support(args):
    graph = _load_graph(args.graph)
    print(json.dumps(sorted(free_atoms(graph, args.state))))
    return 0


def _cmd_orbits(args):
    family = _load_set(args.setfile)
    for orbit in family.orbits:
        strong = "yes" if orbit.symmetry.order == 1 else "no"
        print(
            f"{orbit.name} degree={orbit.degree}"
            f" symmetry={orbit.symmetry.order} strong={strong}"
        )
    return 0


def _cmd_dfa_run(args):
    from .nomauto import dfa_accepts
    dfa = _load_dfa(args.automaton)
    word = _parse_word(args.word)
    return _verdict(dfa_accepts(dfa, word), "accept", "reject")


def _cmd_dfa_equiv(args):
    from .nomauto import dfa_brute_equiv, dfa_equiv
    d1, d2 = _load_dfa(args.automaton1), _load_dfa(args.automaton2)
    if args.brute is None:
        equal, word = dfa_equiv(d1, d2)
    else:
        max_len, pool = args.brute
        if max_len < 0 or pool < 1:
            raise CliError("--brute needs MAXLEN >= 0 and POOL >= 1")
        equal, word = dfa_brute_equiv(d1, d2, max_len, pool)
    if equal:
        print("equivalent")
        return 0
    print(f"counterexample: {','.join(map(str, word)) if word else '(empty)'}")
    return 1


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="nomfix",
        description="Work with binding term graphs and automata over atoms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("alpha-eq",
                       help="compare two graph states up to bound renaming")
    p.add_argument("graph1")
    p.add_argument("state1")
    p.add_argument("graph2")
    p.add_argument("state2")
    p.set_defaults(handler=_cmd_alpha_eq)

    p = sub.add_parser("raw-eq", help="compare two graph states literally")
    p.add_argument("graph1")
    p.add_argument("state1")
    p.add_argument("graph2")
    p.add_argument("state2")
    p.set_defaults(handler=_cmd_raw_eq)

    p = sub.add_parser("unfold", help="print a depth-bounded unfolding")
    p.add_argument("graph")
    p.add_argument("state")
    p.add_argument("--depth", type=int, required=True,
                   help="number of node levels to show")
    p.add_argument("--ascii", action="store_true",
                   help="print pruned subtrees as _ instead of ⊥")
    p.set_defaults(handler=_cmd_unfold)

    p = sub.add_parser("support", help="print the free atoms of a state")
    p.add_argument("graph")
    p.add_argument("state")
    p.set_defaults(handler=_cmd_support)

    p = sub.add_parser("orbits", help="describe an orbit-finite set")
    p.add_argument("setfile")
    p.set_defaults(handler=_cmd_orbits)

    p = sub.add_parser("dfa-run", help="run an automaton on a word")
    p.add_argument("automaton")
    p.add_argument("word", help="comma-separated atoms, empty for the empty word")
    p.set_defaults(handler=_cmd_dfa_run)

    p = sub.add_parser("dfa-equiv", help="compare the languages of two automata")
    p.add_argument("automaton1")
    p.add_argument("automaton2")
    p.add_argument("--brute", nargs=2, type=int, metavar=("MAXLEN", "POOL"),
                   help="enumerate words instead of the symbolic search")
    p.set_defaults(handler=_cmd_dfa_equiv)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    # a command's inputs hold no reference cycles: the collector would only rescan them
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.handler(args)
    except (CliError, ValueError) as e:
        print(e, file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
