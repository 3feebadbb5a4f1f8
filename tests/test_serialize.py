import json

import pytest

from nomfix.abstraction import abstr
from nomfix.fsfunc import fs_from_table, restrict_distinct
from nomfix.serialize import canonical_dumps, value_from_jsonable, value_to_jsonable
from nomfix.perm import make_perm
from nomfix.values import act_value, support_value, value_eq


def roundtrip(value):
    blob = value_to_jsonable(value)
    text = canonical_dumps(blob)
    back = value_from_jsonable(json.loads(text))
    assert value_eq(back, value)
    assert canonical_dumps(value_to_jsonable(back)) == text
    return blob


def test_atom_and_tuple_roundtrip():
    assert roundtrip(7) == 7
    assert roundtrip((1, (2, 3))) == [1, [2, 3]]


def test_abstraction_roundtrip():
    blob = roundtrip(abstr(2, (2, 5)))
    assert blob == {"binder": 0, "body": [0, 5]}


def test_fsfun_roundtrip():
    f = fs_from_table({1: 2}, (7, 0))
    blob = roundtrip(f)
    assert blob == {"a": 3, "d": 0, "keys": [0, 1, 2, 7], "vals": [7, 2, 0, 0]}


def test_nested_fsfun_inside_abstraction_roundtrip():
    f = fs_from_table({1: fs_from_table({}, (4, 4))}, (6, fs_from_table({}, (4, 4))))
    roundtrip(abstr(1, f))


def test_distinct_fsfun_roundtrip():
    inner = fs_from_table({1: fs_from_table({}, (4, 4))}, (6, fs_from_table({}, (4, 4))))
    blob = roundtrip(restrict_distinct(inner))
    assert blob["arity"] == 2


def test_unknown_encoding_rejected():
    with pytest.raises(ValueError):
        value_from_jsonable({"mystery": 1})
    with pytest.raises(ValueError):
        value_to_jsonable({"not": "a value"})


@pytest.mark.parametrize("value", [True, False, (1, True), (0, (False,))])
def test_booleans_are_not_values(value):
    # bool is a subclass of int, so each layer checks for it before atoms
    with pytest.raises(TypeError, match="booleans are not values"):
        act_value(make_perm([(0, 1)]), value)
    with pytest.raises(TypeError, match="booleans are not values"):
        support_value(value)
    with pytest.raises(ValueError, match="booleans are not values"):
        value_to_jsonable(value)
    with pytest.raises(ValueError, match="booleans are not values"):
        value_from_jsonable(json.loads(json.dumps(value)))
