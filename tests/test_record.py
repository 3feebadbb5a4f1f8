"""The value contract of the immutable record classes: ``repr``, ``==`` and
``hash`` are those a frozen dataclass with the same fields would give, the
constructors coerce sequences to tuples as before, and the fields cannot
be assigned or deleted."""

import copy
import pickle

import pytest

from nomfix.nomauto import OrbitRules, TargetExpr
from nomfix.termgraph import Node, OpSpec

# (record, its dataclass repr, the same record built from other sequences,
# the field tuple a frozen dataclass hashes, a record that differs)
CASES = [
    (Node("var", (0,), ()), "Node(op='var', atoms=(0,), groups=(), label=None)",
     Node("var", [0], []), ("var", (0,), (), None), Node("var", (1,), ())),
    (Node("lam", (), (((0,), ("b",)),)),
     "Node(op='lam', atoms=(), groups=(((0,), ('b',)),), label=None)",
     Node("lam", [], [([0], ["b"])]), ("lam", (), (((0,), ("b",)),), None),
     Node("lam", (), (((1,), ("b",)),))),
    (Node("node", (3,), (((0,), ("r", "z")),), "x"),
     "Node(op='node', atoms=(3,), groups=(((0,), ('r', 'z')),), label='x')",
     Node("node", [3], [[(0,), ["r", "z"]]], label="x"),
     ("node", (3,), (((0,), ("r", "z")),), "x"), Node("node", (3,), (((0,), ("r", "z")),), "y")),
    (OpSpec("lam", 0, ((1, 1),)),
     "OpSpec(name='lam', atom_arity=0, binder_groups=((1, 1),), labels=None)",
     OpSpec("lam", 0, [[1, 1]]), ("lam", 0, ((1, 1),), None), OpSpec("lam", 0, ((1, 2),))),
    (OpSpec("node", 1, ((1, 2),), frozenset({"x"})),
     "OpSpec(name='node', atom_arity=1, binder_groups=((1, 2),), labels=frozenset({'x'}))",
     OpSpec("node", 1, [(1, 2)], ["x"]), ("node", 1, ((1, 2),), frozenset({"x"})),
     OpSpec("node", 1, ((1, 2),), ["x", "y"])),
    (TargetExpr("q1", ("input", 0)), "TargetExpr(orbit='q1', sources=('input', 0))",
     TargetExpr("q1", ["input", 0]), ("q1", ("input", 0)), TargetExpr("q1", (0, "input"))),
    (OrbitRules((TargetExpr("acc", ()),), TargetExpr("rej", ())),
     "OrbitRules(equal_cases=(TargetExpr(orbit='acc', sources=()),),"
     " fresh_case=TargetExpr(orbit='rej', sources=()))",
     OrbitRules([TargetExpr("acc", [])], TargetExpr("rej", [])),
     ((TargetExpr("acc", ()),), TargetExpr("rej", ())),
     OrbitRules((), TargetExpr("rej", ()))),
]


FIRST_FIELD = {Node: "op", OpSpec: "name", TargetExpr: "orbit", OrbitRules: "equal_cases"}


@pytest.mark.parametrize("record, text, rebuilt, fields, other", CASES)
def test_records_keep_the_frozen_dataclass_contract(record, text, rebuilt, fields, other):
    assert repr(record) == repr(rebuilt) == text
    assert record == rebuilt and hash(record) == hash(rebuilt) == hash(fields)
    assert record != other and not record == other
    # equal fields in a tuple are not a record, nor is a different class
    assert record != fields and record != object()
    name = FIRST_FIELD[type(record)]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(record, name, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) == fields[0]
    assert copy.copy(record) == copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record
