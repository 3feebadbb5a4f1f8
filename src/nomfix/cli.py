"""Command line front end.

Verdict-style commands follow the usual convention: exit status 0 for a
positive answer, 1 for a negative one, and 2 for unusable inputs (bad
arguments, unreadable files, malformed or invalid structures).

Each subcommand is declared once, in ``COMMANDS``, and the parser is built
from that table.  This module imports no other part of nomfix: each handler
imports the modules it runs, so a command never loads the code of another.
"""

import argparse
import gc
import json
import sys


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
    except RecursionError:
        raise CliError(f"{path}: nesting too deep") from None
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
    from .termgraph import graph_from_jsonable
    return _load_as(path, graph_from_jsonable, "term graph")


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


def _cmd_eq(args):
    from .termgraph import alpha_bisim, raw_bisim
    kind = args.command.removesuffix("-eq")
    bisim = alpha_bisim if kind == "alpha" else raw_bisim
    g1, g2 = _load_graph(args.graph1), _load_graph(args.graph2)
    answer = bisim(g1, args.state1, g2, args.state2)
    return _verdict(answer, f"{kind}-equivalent", f"not {kind}-equivalent")


def _cmd_unfold(args):
    from .termgraph import _SATURATED, _levels, render_tree, unfold
    graph, depth, cap = _load_graph(args.graph), args.depth, MAX_UNFOLD_NODES
    # Size the rendering before building it: a node for each root path to
    # each state of a level above the depth, and a cut for each path to a
    # state of the level at it; a saturated sum only bounds that from below.
    # A level as deep as the graph has states sits on a cycle, so every
    # level down to the depth is nonempty.
    states = nodes = 0
    for k, level in enumerate(_levels(graph, args.state, depth + 1)):
        nodes += sum(level.values())
        if k < depth:
            states += len(level)
        if states > cap or nodes >= _SATURATED or depth >= cap and len(graph._kids) <= k < depth:
            raise CliError(f"unfolding has more than the {cap} nodes that unfold prints")
    if nodes > cap:
        raise CliError(f"unfolding has {nodes} nodes, more than the {cap} that unfold prints")
    print(render_tree(unfold(graph, args.state, depth), ascii_cut=args.ascii))
    return 0


def _cmd_support(args):
    from .termgraph import free_atoms
    graph = _load_graph(args.graph)
    print(json.dumps(sorted(free_atoms(graph, args.state))))
    return 0


def _cmd_orbits(args):
    from .nomset import set_from_jsonable
    family = _load_as(args.setfile, set_from_jsonable, "orbit-finite set")
    for orbit in family.orbits:
        strong = "yes" if orbit.symmetry.order == 1 else "no"
        print(
            f"{orbit.name} degree={orbit.degree}"
            f" symmetry={orbit.symmetry.order} strong={strong}"
        )
    return 0


def _cmd_dfa_run(args):
    from .nomauto import dfa_accepts, dfa_from_jsonable
    dfa = _load_as(args.automaton, dfa_from_jsonable, "automaton")
    word = _parse_word(args.word)
    return _verdict(dfa_accepts(dfa, word), "accept", "reject")


def _cmd_dfa_equiv(args):
    from .nomauto import dfa_brute_equiv, dfa_equiv, dfa_from_jsonable
    d1, d2 = (_load_as(path, dfa_from_jsonable, "automaton")
              for path in (args.automaton1, args.automaton2))
    if args.brute is None:
        equal, word = dfa_equiv(d1, d2)
    else:
        max_len, pool = args.brute
        if max_len < 0 or pool < 1:
            raise CliError("--brute needs MAXLEN >= 0 and POOL >= 1")
        equal, word = dfa_brute_equiv(d1, d2, max_len, pool)
    return _verdict(equal, "equivalent",
                    f"counterexample: {','.join(map(str, word)) if word else '(empty)'}")


_TWO_STATES = ("graph1", "state1", "graph2", "state2")

#: Each subcommand: its help line, its handler, and its arguments in order,
#: each a positional name or a ``(flag or name, add_argument options)`` pair.
COMMANDS = {
    "alpha-eq": ("compare two graph states up to bound renaming", _cmd_eq, *_TWO_STATES),
    "raw-eq": ("compare two graph states literally", _cmd_eq, *_TWO_STATES),
    "unfold": ("print a depth-bounded unfolding", _cmd_unfold, "graph", "state",
               ("--depth", dict(type=int, required=True,
                                help="number of node levels to show")),
               ("--ascii", dict(action="store_true",
                                help="print pruned subtrees as _ instead of ⊥"))),
    "support": ("print the free atoms of a state", _cmd_support, "graph", "state"),
    "orbits": ("describe an orbit-finite set", _cmd_orbits, "setfile"),
    "dfa-run": ("run an automaton on a word", _cmd_dfa_run, "automaton",
                ("word", dict(help="comma-separated atoms, empty for the empty word"))),
    "dfa-equiv": ("compare the languages of two automata", _cmd_dfa_equiv,
                  "automaton1", "automaton2",
                  ("--brute", dict(nargs=2, type=int, metavar=("MAXLEN", "POOL"),
                                   help="enumerate words instead of the symbolic search"))),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="nomfix",
        description="Work with binding term graphs and automata over atoms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, handler, *arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for argument in arguments:
            flag, options = (argument, {}) if isinstance(argument, str) else argument
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler)
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
