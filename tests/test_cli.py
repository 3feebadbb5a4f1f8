"""End-to-end command line tests with frozen outputs and exit codes."""

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nomfix
from nomfix import termgraph
from nomfix.cli import main
from nomfix.serialize import canonical_dumps
from nomfix.termgraph import Node, graph_from_jsonable, graph_to_jsonable

LAM_BLOB = {
    "sig": "lambda",
    "states": {
        "s": {"op": "lam", "atoms": [],
              "groups": [{"bound_atoms": [0], "children": ["b"]}]},
        "b": {"op": "app", "atoms": [],
              "groups": [{"bound_atoms": [], "children": ["u", "s"]}]},
        "u": {"op": "var", "atoms": [0], "groups": []},
    },
}

RENAMED_BLOB = {
    "sig": "lambda",
    "states": {
        "s": {"op": "lam", "atoms": [],
              "groups": [{"bound_atoms": [2], "children": ["b"]}]},
        "b": {"op": "app", "atoms": [],
              "groups": [{"bound_atoms": [], "children": ["u", "s"]}]},
        "u": {"op": "var", "atoms": [2], "groups": []},
    },
}

SWAPPED_BLOB = {
    "sig": "lambda",
    "states": {
        "s": {"op": "lam", "atoms": [],
              "groups": [{"bound_atoms": [0], "children": ["b"]}]},
        "b": {"op": "app", "atoms": [],
              "groups": [{"bound_atoms": [], "children": ["s", "u"]}]},
        "u": {"op": "var", "atoms": [0], "groups": []},
    },
}

LOOP_BLOB = {
    "sig": "lambda",
    "states": {
        "t": {"op": "app", "atoms": [],
              "groups": [{"bound_atoms": [], "children": ["u", "t"]}]},
        "u": {"op": "var", "atoms": [5], "groups": []},
    },
}

SET_BLOB = {
    "orbits": [
        {"name": "pair", "degree": 2, "generators": [[1, 0]]},
        {"name": "solo", "degree": 1, "generators": []},
    ],
}

L1_BLOB = {
    "orbits": [
        {"name": "q0", "degree": 0},
        {"name": "q1", "degree": 1},
        {"name": "acc", "degree": 0},
        {"name": "rej", "degree": 0},
    ],
    "initial": "q0",
    "accepting": ["acc"],
    "delta": {
        "q0": {"equal": {}, "fresh": {"orbit": "q1", "sources": ["input"]}},
        "q1": {
            "equal": {"0": {"orbit": "acc", "sources": []}},
            "fresh": {"orbit": "rej", "sources": []},
        },
        "acc": {"equal": {}, "fresh": {"orbit": "acc", "sources": []}},
        "rej": {"equal": {}, "fresh": {"orbit": "rej", "sources": []}},
    },
}

L1_RENAMED_BLOB = {
    "orbits": [
        {"name": "a", "degree": 0},
        {"name": "b", "degree": 1},
        {"name": "yes", "degree": 0},
        {"name": "no", "degree": 0},
    ],
    "initial": "a",
    "accepting": ["yes"],
    "delta": {
        "a": {"equal": {}, "fresh": {"orbit": "b", "sources": ["input"]}},
        "b": {
            "equal": {"0": {"orbit": "yes", "sources": []}},
            "fresh": {"orbit": "no", "sources": []},
        },
        "yes": {"equal": {}, "fresh": {"orbit": "yes", "sources": []}},
        "no": {"equal": {}, "fresh": {"orbit": "no", "sources": []}},
    },
}

REJECT_ALL_BLOB = {
    "orbits": [{"name": "r", "degree": 0}],
    "initial": "r",
    "accepting": [],
    "delta": {"r": {"equal": {}, "fresh": {"orbit": "r", "sources": []}}},
}

ACCEPT_ALL_BLOB = {
    "orbits": [{"name": "r", "degree": 0}],
    "initial": "r",
    "accepting": ["r"],
    "delta": {"r": {"equal": {}, "fresh": {"orbit": "r", "sources": []}}},
}


@pytest.fixture
def files(tmp_path):
    def write(name, blob):
        path = tmp_path / name
        path.write_text(canonical_dumps(blob), encoding="utf-8")
        return str(path)

    return write


def test_alpha_eq_yes(files, capsys):
    g1, g2 = files("g1.json", LAM_BLOB), files("g2.json", RENAMED_BLOB)
    assert main(["alpha-eq", g1, "s", g2, "s"]) == 0
    assert capsys.readouterr().out == "alpha-equivalent\n"


def test_alpha_eq_no(files, capsys):
    g1, g2 = files("g1.json", LAM_BLOB), files("g2.json", SWAPPED_BLOB)
    assert main(["alpha-eq", g1, "s", g2, "s"]) == 1
    assert capsys.readouterr().out == "not alpha-equivalent\n"


def test_raw_eq(files, capsys):
    g1, g2 = files("g1.json", LAM_BLOB), files("g2.json", RENAMED_BLOB)
    assert main(["raw-eq", g1, "s", g1, "s"]) == 0
    assert capsys.readouterr().out == "raw-equivalent\n"
    assert main(["raw-eq", g1, "s", g2, "s"]) == 1
    assert capsys.readouterr().out == "not raw-equivalent\n"


def test_unfold_golden(files, capsys):
    g = files("g.json", LAM_BLOB)
    assert main(["unfold", g, "s", "--depth", "3"]) == 0
    assert capsys.readouterr().out == "(lam 0 (app (var 0) (lam 0 ⊥)))\n"
    assert main(["unfold", g, "s", "--depth", "3", "--ascii"]) == 0
    assert capsys.readouterr().out == "(lam 0 (app (var 0) (lam 0 _)))\n"
    assert main(["unfold", g, "s", "--depth", "0"]) == 0
    assert capsys.readouterr().out == "⊥\n"


def test_support_golden(files, capsys):
    g = files("g.json", LOOP_BLOB)
    assert main(["support", g, "t"]) == 0
    assert capsys.readouterr().out == "[5]\n"
    lam = files("lam.json", LAM_BLOB)
    assert main(["support", lam, "s"]) == 0
    assert capsys.readouterr().out == "[]\n"


def test_orbits_golden(files, capsys):
    setfile = files("set.json", SET_BLOB)
    assert main(["orbits", setfile]) == 0
    assert capsys.readouterr().out == (
        "pair degree=2 symmetry=2 strong=no\n"
        "solo degree=1 symmetry=1 strong=yes\n"
    )


def test_dfa_run(files, capsys):
    dfa = files("l1.json", L1_BLOB)
    assert main(["dfa-run", dfa, "3,3"]) == 0
    assert capsys.readouterr().out == "accept\n"
    assert main(["dfa-run", dfa, "3,4"]) == 1
    assert capsys.readouterr().out == "reject\n"
    assert main(["dfa-run", dfa, ""]) == 1
    assert capsys.readouterr().out == "reject\n"


def test_dfa_run_rejects_bad_word(files, capsys):
    dfa = files("l1.json", L1_BLOB)
    assert main(["dfa-run", dfa, "3,x"]) == 2
    assert "x" in capsys.readouterr().err


@pytest.mark.parametrize(
    "word", ["1_0,10", " 7,+7", "\u0663,3", "3, 3", "3,-3", "3,,3", "3,", "3.0"]
)
def test_dfa_run_takes_only_ascii_digits(files, capsys, word):
    dfa = files("l1.json", L1_BLOB)
    assert main(["dfa-run", dfa, word]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("bad letter ")


def test_dfa_run_letter_past_the_int_digit_limit_exits_2(files, capsys):
    dfa = files("l1.json", L1_BLOB)
    assert main(["dfa-run", dfa, "9" * 5000]) == 2
    assert capsys.readouterr().out == ""


def test_dfa_equiv_golden(files, capsys):
    l1 = files("l1.json", L1_BLOB)
    renamed = files("l1b.json", L1_RENAMED_BLOB)
    reject = files("rej.json", REJECT_ALL_BLOB)
    assert main(["dfa-equiv", l1, renamed]) == 0
    assert capsys.readouterr().out == "equivalent\n"
    assert main(["dfa-equiv", l1, reject]) == 1
    assert capsys.readouterr().out == "counterexample: 0,0\n"
    assert main(["dfa-equiv", l1, reject, "--brute", "3", "2"]) == 1
    assert capsys.readouterr().out == "counterexample: 0,0\n"


def test_dfa_equiv_empty_counterexample(files, capsys):
    accept = files("acc.json", ACCEPT_ALL_BLOB)
    reject = files("rej.json", REJECT_ALL_BLOB)
    assert main(["dfa-equiv", accept, reject]) == 1
    assert capsys.readouterr().out == "counterexample: (empty)\n"


def test_json_error_reporting(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("not json{", encoding="utf-8")
    assert main(["alpha-eq", str(path), "s", str(path), "s"]) == 2
    assert capsys.readouterr().err == f"{path}:1: Expecting value\n"


def test_missing_file_reports_path(tmp_path, capsys):
    path = str(tmp_path / "nope.json")
    assert main(["support", path, "s"]) == 2
    assert path in capsys.readouterr().err


def test_unknown_state_is_a_usage_error(files, capsys):
    g = files("g.json", LAM_BLOB)
    assert main(["support", g, "zz"]) == 2
    assert "zz" in capsys.readouterr().err


def test_invalid_graph_is_reported(files, capsys):
    bad = dict(LAM_BLOB, states=dict(LAM_BLOB["states"]))
    bad["states"]["u"] = {"op": "var", "atoms": [0, 1], "groups": []}
    g = files("bad.json", bad)
    assert main(["support", g, "s"]) == 2
    assert "expected 1 atoms" in capsys.readouterr().err


def test_invalid_graph_reports_its_first_problem_exactly(files, capsys):
    bad = _replaced(LAM_BLOB, ("states", "b", "groups", 0, "children"), ["u", "w"])
    bad = _replaced(bad, ("states", "u", "atoms"), [1.5])
    g = files("bad.json", bad)
    assert main(["support", g, "s"]) == 2
    assert capsys.readouterr() == ("", "state 'b': unknown child state 'w'\n")


def test_support_prints_atoms_past_the_machine_word(files, capsys):
    blob = {"sig": "lambda", "states": {
        "r": {"op": "app", "atoms": [],
              "groups": [{"bound_atoms": [], "children": ["l", "v"]}]},
        "l": {"op": "lam", "atoms": [],
              "groups": [{"bound_atoms": [2**70], "children": ["r"]}]},
        "v": {"op": "var", "atoms": [10**18], "groups": []},
        "w": {"op": "var", "atoms": [2**70], "groups": []},
        "x": {"op": "app", "atoms": [],
              "groups": [{"bound_atoms": [], "children": ["w", "r"]}]},
    }}
    g = files("big.json", blob)
    assert main(["support", g, "x"]) == 0
    assert capsys.readouterr().out == "[1000000000000000000, 1180591620717411303424]\n"
    assert main(["support", g, "l"]) == 0
    assert capsys.readouterr().out == "[1000000000000000000]\n"


def test_graph_commands_load_no_automaton_code(files):
    # a fresh interpreter per command, so that nothing imported by other tests
    # counts; the automaton and orbit commands load no graph code either
    g, dfa, family = (files("loop.json", LOOP_BLOB), files("l1.json", L1_BLOB),
                      files("set.json", SET_BLOB))
    code = ("import sys; from nomfix.cli import main; main(sys.argv[2:]); "
            "print([m for m in sys.argv[1].split(',') if m in sys.modules])")
    src = os.path.dirname(os.path.dirname(os.path.abspath(nomfix.__file__)))
    for argv, unused, out in [
        (["support", g, "t"], "dataclasses,nomfix.nomauto,nomfix.nomset", "[5]\n"),
        (["dfa-run", dfa, "3,3"], "dataclasses,nomfix.termgraph", "accept\n"),
        (["dfa-equiv", dfa, dfa], "dataclasses,nomfix.termgraph", "equivalent\n"),
        (["orbits", family], "dataclasses,nomfix.termgraph,nomfix.nomauto",
         "pair degree=2 symmetry=2 strong=no\nsolo degree=1 symmetry=1 strong=yes\n"),
    ]:
        proc = subprocess.run([sys.executable, "-S", "-c", code, unused, *argv],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out + "[]\n", "")


def test_main_leaves_the_cycle_collector_as_it_found_it(files, capsys):
    g = files("g.json", LAM_BLOB)
    assert gc.isenabled()
    assert main(["support", g, "s"]) == 0 and gc.isenabled()
    assert main(["support", g, "zz"]) == 2 and gc.isenabled()
    gc.disable()
    try:
        assert main(["support", g, "s"]) == 0 and not gc.isenabled()
    finally:
        gc.enable()
    capsys.readouterr()


def test_no_arguments_is_a_usage_error():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_reemission_is_byte_identical(files):
    g = files("g.json", LAM_BLOB)
    with open(g, encoding="utf-8") as handle:
        original = handle.read()
    import json

    graph = graph_from_jsonable(json.loads(original))
    assert canonical_dumps(graph_to_jsonable(graph)) == original


LABELLED_BLOB = {
    "sig": {"ops": [
        {"name": "node", "atoms": 1, "labels": ["x", "y"],
         "groups": [{"bound": 1, "children": 2}]},
        {"name": "leaf", "atoms": 0, "groups": []},
    ]},
    "states": {
        "r": {"op": "node", "label": "x", "atoms": [3],
              "groups": [{"bound_atoms": [0], "children": ["r", "z"]}]},
        "z": {"op": "leaf", "atoms": [], "groups": []},
    },
}


def _replaced(blob, path, value):
    """A deep copy of ``blob`` with the field at ``path`` set to ``value``."""
    if not path:
        return value
    copy = json.loads(json.dumps(blob))
    holder = copy
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    return copy


def _field_paths(blob, path=()):
    yield path
    if isinstance(blob, dict):
        for key, value in blob.items():
            yield from _field_paths(value, path + (key,))
    elif isinstance(blob, list):
        for i, value in enumerate(blob):
            yield from _field_paths(value, path + (i,))


@pytest.mark.parametrize("args, blob, message", [
    (["support", "G", "s"], dict(LAM_BLOB, states=[]), "'states' must be an object"),
    (["support", "G", "s"], _replaced(LAM_BLOB, ("states", "u", "op"), ["var"]),
     "unknown operation"),
    (["support", "G", "s"],
     _replaced(LAM_BLOB, ("states", "s", "groups", 0, "bound_atoms"), [[0]]),
     "bound atom [0] is not a nonnegative integer"),
    (["alpha-eq", "G", "s", "G", "s"],
     _replaced(LAM_BLOB, ("states", "b", "groups", 0, "children"), [["u"], "s"]),
     "unknown child state"),
    (["unfold", "G", "r", "--depth", "2"],
     _replaced(LABELLED_BLOB, ("states", "r", "label"), ["x"]), "not allowed"),
    (["support", "G", "r"], _replaced(LABELLED_BLOB, ("sig", "ops", 1), ["leaf"]),
     "must be an object"),
    # counts are ints that are not bools, labels a list of strings
    (["support", "G", "r"], _replaced(LABELLED_BLOB, ("sig", "ops", 0, "atoms"), True),
     "atom arity True is not a nonnegative integer"),
    (["unfold", "G", "r", "--depth", "2"],
     _replaced(LABELLED_BLOB, ("sig", "ops", 0, "atoms"), 1.0),
     "atom arity 1.0 is not a nonnegative integer"),
    (["support", "G", "r"],
     _replaced(LABELLED_BLOB, ("sig", "ops", 0, "groups", 0, "bound"), 1.5),
     "bound count 1.5 is not a nonnegative integer"),
    (["support", "G", "r"],
     _replaced(LABELLED_BLOB, ("sig", "ops", 0, "groups", 0, "bound"), True),
     "bound count True is not a nonnegative integer"),
    (["unfold", "G", "r", "--depth", "2"],
     _replaced(LABELLED_BLOB, ("sig", "ops", 0, "groups", 0, "children"), "2"),
     "child count '2' is not a positive integer"),
    (["support", "G", "r"],
     _replaced(LABELLED_BLOB, ("sig", "ops", 0, "groups", 0, "children"), 0),
     "child count 0 is not a positive integer"),
    (["support", "G", "r"], _replaced(LABELLED_BLOB, ("sig", "ops", 0, "labels"), "xy"),
     "labels 'xy' are not a list of strings"),
    (["unfold", "G", "r", "--depth", "2"],
     _replaced(LABELLED_BLOB, ("sig", "ops", 0, "labels"), ["x", 1]),
     "labels ['x', 1] are not a list of strings"),
    # render_tree prints names and labels that parse_tree must read back
    (["unfold", "G", "r", "--depth", "2"], _replaced(LABELLED_BLOB, ("sig", "ops", 1, "name"),
                                                     "a b"), "operation name 'a b' is not"),
])
def test_malformed_graph_exits_2(files, capsys, args, blob, message):
    g = files("bad.json", blob)
    assert main([g if arg == "G" else arg for arg in args]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert err.endswith("\n") and err.count("\n") == 1


@pytest.mark.parametrize("blob, message", [
    (dict(L1_BLOB, orbits=[{"name": "p", "degree": 0}, {"name": "p", "degree": 1}],
          initial="p"),
     "duplicate orbit name 'p'"),
    (dict(L1_BLOB, accepting="acc"), "'accepting' must be a list"),
    (dict(L1_BLOB, delta=[]), "'delta' must be an object"),
    (_replaced(L1_BLOB, ("delta", "q0"), []), "must be an object"),
    (_replaced(L1_BLOB, ("orbits", 0, "degree"), False),
     "degree must be a nonnegative integer"),
    (_replaced(L1_BLOB, ("orbits", 1, "degree"), True),
     "degree must be a nonnegative integer"),
])
def test_malformed_automaton_exits_2(files, capsys, blob, message):
    dfa = files("bad.json", blob)
    assert main(["dfa-run", dfa, "1,1"]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert err.endswith("\n") and err.count("\n") == 1


@pytest.mark.parametrize("blob, message", [
    ({"orbits": [{"name": "p", "degree": True}]},
     "degree must be a nonnegative integer"),
    (_replaced(SET_BLOB, ("orbits", 0, "generators"), [[True, False]]),
     "generator (True, False) is not a permutation of 0..1"),
    (_replaced(SET_BLOB, ("orbits", 1, "name"), None),
     "orbit name None is not a string"),
])
def test_malformed_set_exits_2(files, capsys, blob, message):
    setfile = files("bad.json", blob)
    assert main(["orbits", setfile]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert captured.err.endswith("\n") and captured.err.count("\n") == 1


def test_non_finite_json_number_exits_2(tmp_path, capsys):
    path = tmp_path / "inf.json"
    blob = _replaced(LABELLED_BLOB, ("sig", "ops", 0, "groups", 0, "bound"),
                     float("inf"))
    path.write_text(json.dumps(blob), encoding="utf-8")
    assert main(["support", str(path), "r"]) == 2
    assert capsys.readouterr().err == f"{path}: Infinity is not a JSON number\n"


def test_deep_unfold_is_printed(files, capsys):
    blob = {"sig": "lambda", "states": {
        "s": {"op": "lam", "atoms": [],
              "groups": [{"bound_atoms": [0], "children": ["s"]}]},
    }}
    g = files("deep.json", blob)
    assert main(["unfold", g, "s", "--depth", "3000"]) == 0
    assert capsys.readouterr().out == "(lam 0 " * 3000 + "⊥" + ")" * 3000 + "\n"


def test_exponential_unfold_exits_2(files, capsys):
    blob = {"sig": "lambda", "states": {
        "s": {"op": "app", "atoms": [],
              "groups": [{"bound_atoms": [], "children": ["s", "s"]}]},
    }}
    g = files("doubling.json", blob)
    start = time.perf_counter()
    assert main(["unfold", g, "s", "--depth", "20"]) == 2
    assert time.perf_counter() - start < 0.5
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "unfolding has 2097151 nodes, more than the 1000000 that unfold prints\n"
    # 2^18 - 1 app nodes and 2^18 cuts stay under the guard
    assert main(["unfold", g, "s", "--depth", "18"]) == 0
    assert capsys.readouterr().out.count("(app") == 2**18 - 1


def test_deep_unfold_of_a_loop_is_refused_before_it_is_built(files, capsys):
    # s = lam<0> s renders depth + 1 nodes; building them first took seconds
    # and gigabytes, and a deeper loop exhausted memory
    blob = {"sig": "lambda", "states": {
        "s": {"op": "lam", "atoms": [],
              "groups": [{"bound_atoms": [0], "children": ["s"]}]},
    }}
    g = files("loop.json", blob)
    start = time.perf_counter()
    assert main(["unfold", g, "s", "--depth", "10000000"]) == 2
    assert time.perf_counter() - start < 2.0
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "unfolding has more than the 1000000 nodes that unfold prints\n"


def test_refused_unfolds_build_no_node(files, capsys, monkeypatch):
    built = 0

    class CountingNode(Node):
        def __init__(self, *args):
            nonlocal built
            built += 1
            super().__init__(*args)

    monkeypatch.setattr(termgraph, "Node", CountingNode)
    doubling = files("doubling.json", {"sig": "lambda", "states": {
        "s": {"op": "app", "atoms": [], "groups": [{"bound_atoms": [], "children": ["s", "s"]}]},
    }})
    loop = files("loop.json", {"sig": "lambda", "states": {
        "s": {"op": "lam", "atoms": [], "groups": [{"bound_atoms": [0], "children": ["s"]}]},
    }})
    assert main(["unfold", doubling, "s", "--depth", "20"]) == 2
    assert main(["unfold", loop, "s", "--depth", "10000000"]) == 2
    assert capsys.readouterr().err == (
        "unfolding has 2097151 nodes, more than the 1000000 that unfold prints\n"
        "unfolding has more than the 1000000 nodes that unfold prints\n")
    assert built == 0
    # the loader bypasses the constructor, so an unfold that prints counts just its own nodes
    assert main(["unfold", doubling, "s", "--depth", "18"]) == 0 and built == 18
    capsys.readouterr()


def test_unfold_past_the_int_digit_limit_exits_2(files, capsys):
    # 2^15001 - 1 nodes has more digits than int() may print; path counts
    # saturate, so the guard needs no exact count
    g = files("doubling.json", {"sig": "lambda", "states": {
        "s": {"op": "app", "atoms": [], "groups": [{"bound_atoms": [], "children": ["s", "s"]}]},
    }})
    assert main(["unfold", g, "s", "--depth", "15000"]) == 2
    assert capsys.readouterr() == ("", "unfolding has more than the 1000000 nodes that unfold prints\n")
    # at depth 64 only the last, cut level's count saturates
    assert main(["unfold", g, "s", "--depth", "64"]) == 2
    assert capsys.readouterr() == ("", "unfolding has more than the 1000000 nodes that unfold prints\n")


def test_unfold_of_a_wide_ring_is_refused_quickly(files, capsys):
    # x_i = app(x_i, x_i+1): level k holds k + 1 states whose path counts are
    # binomial coefficients, which summed exactly took half a second here
    n = 2000
    g = files("ring.json", {"sig": "lambda", "states": {
        f"x{i}": {"op": "app", "atoms": [],
                  "groups": [{"bound_atoms": [], "children": [f"x{i}", f"x{(i + 1) % n}"]}]}
        for i in range(n)}})
    start = time.perf_counter()
    assert main(["unfold", g, "x0", "--depth", "1500"]) == 2
    assert time.perf_counter() - start < 0.25
    assert capsys.readouterr() == ("", "unfolding has more than the 1000000 nodes that unfold prints\n")


def test_negative_unfold_depth_exits_2(files, capsys):
    g = files("lam.json", LAM_BLOB)
    assert main(["unfold", g, "s", "--depth", "-2"]) == 2
    assert capsys.readouterr() == ("", "depth must be nonnegative\n")


def test_duplicate_operation_in_a_signature_exits_2(files, capsys):
    op = {"name": "v", "atoms": 1, "groups": []}
    g = files("dup.json", {"sig": {"ops": [op, dict(op, atoms=0)]},
                           "states": {"s": {"op": "v", "atoms": [0], "groups": []}}})
    assert main(["support", g, "s"]) == 2
    assert capsys.readouterr() == ("", f"{g}: duplicate operation 'v'\n")


@pytest.mark.parametrize("bounds", [["-1", "1"], ["0", "0"]])
def test_dfa_equiv_brute_bounds_exit_2(files, capsys, bounds):
    l1 = files("l1.json", L1_BLOB)
    assert main(["dfa-equiv", l1, l1, "--brute", *bounds]) == 2
    assert capsys.readouterr() == ("", "--brute needs MAXLEN >= 0 and POOL >= 1\n")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6,
)

GRAPH_FIXTURES = [(LAM_BLOB, "s"), (RENAMED_BLOB, "s"), (SWAPPED_BLOB, "s"),
                  (LOOP_BLOB, "t"), (LABELLED_BLOB, "r")]
DFA_FIXTURES = [L1_BLOB, L1_RENAMED_BLOB, REJECT_ALL_BLOB, ACCEPT_ALL_BLOB]


def _mutant_and_original(folder, blob, path, value):
    """Write ``blob`` with one field replaced, and ``blob`` itself."""
    bad, good = folder / "bad.json", folder / "good.json"
    bad.write_text(json.dumps(_replaced(blob, path, value)), encoding="utf-8")
    good.write_text(json.dumps(blob), encoding="utf-8")
    return str(bad), str(good)


def _run_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


FUZZ = settings(max_examples=100, derandomize=True, deadline=None, database=None)


@FUZZ
@given(data=st.data(), value=JSON_VALUES, depth=st.integers(0, 4))
def test_fuzzed_graph_keeps_exit_code_contract(tmp_path_factory, data, value, depth):
    blob, state = data.draw(st.sampled_from(GRAPH_FIXTURES))
    path = data.draw(st.sampled_from(list(_field_paths(blob))))
    bad, good = _mutant_and_original(tmp_path_factory.mktemp("fuzz"), blob, path, value)
    for argv in (["alpha-eq", bad, state, good, state],
                 ["raw-eq", good, state, bad, state],
                 ["unfold", bad, state, "--depth", str(depth)],
                 ["support", bad, state]):
        assert _run_quietly(argv) in (0, 1, 2)


@FUZZ
@given(data=st.data(), value=JSON_VALUES,
       word=st.lists(st.integers(0, 3), max_size=4))
def test_fuzzed_automaton_keeps_exit_code_contract(tmp_path_factory, data, value, word):
    blob = data.draw(st.sampled_from(DFA_FIXTURES))
    path = data.draw(st.sampled_from(list(_field_paths(blob))))
    bad, good = _mutant_and_original(tmp_path_factory.mktemp("fuzz"), blob, path, value)
    for argv in (["dfa-run", bad, ",".join(map(str, word))],
                 ["dfa-equiv", bad, good],
                 ["dfa-equiv", good, bad]):
        assert _run_quietly(argv) in (0, 1, 2)


@FUZZ
@given(data=st.data(), value=JSON_VALUES)
def test_fuzzed_set_keeps_exit_code_contract(tmp_path_factory, data, value):
    path = data.draw(st.sampled_from(list(_field_paths(SET_BLOB))))
    bad, _ = _mutant_and_original(tmp_path_factory.mktemp("fuzz"), SET_BLOB, path, value)
    # orbits has no negative answer: it prints (0) or rejects the file (2)
    assert _run_quietly(["orbits", bad]) in (0, 2)
