"""Static checks on the library source, read with the standard ``ast`` module."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "nomfix").glob("*.py"))


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns:
            yield node.returns


def unused_imports(source):
    """The names that the imports of ``source`` bind and nothing reads, in
    order; a name read only in an annotation, even a string one, is used."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import | ast.ImportFrom) and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.partition(".")[0], node.lineno)
    trees = [tree]
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                trees.append(ast.parse(node.value, mode="eval"))
    used = {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}
    return [name for name, _ in sorted(bound.items(), key=lambda item: item[1]) if name not in used]


def test_the_check_sees_reads_and_annotations():
    assert unused_imports("import os.path\nfrom typing import Iterable, Sequence as Seq\n") == \
        ["os", "Iterable", "Seq"]
    assert unused_imports("import os.path\nos.path.join\n") == []
    assert unused_imports("from typing import Iterable, Mapping\n"
                          "def f(x: Iterable) -> 'Mapping[int, int]': pass\n") == []
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def cached_property_uses(source):
    """The lines of ``source`` that import ``cached_property`` or read it as
    an attribute, as in ``functools.cached_property``."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            uses += [node.lineno for alias in node.names if alias.name == "cached_property"]
        elif isinstance(node, ast.Attribute) and node.attr == "cached_property":
            uses.append(node.lineno)
    return sorted(uses)


def test_the_cached_property_check_sees_imports_and_attributes():
    assert cached_property_uses("from functools import cached_property\nimport functools\n"
                                "x = functools.cached_property\n"
                                "from functools import partial as cached_property\n"
                                "from functools import cached_property as cp\n") == [1, 3, 5]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_uses_cached_property(path):
    # it stores through the instance __dict__, after which every attribute load
    # on the instance takes CPython's slow path; record.lazy stores by setattr
    assert cached_property_uses(path.read_text()) == []


def public_names(source):
    """The ``__all__`` of ``source``, and the names that its top level defines
    by ``def``, ``class`` or assignment and that do not start with ``_``;
    imports are not counted."""
    defined = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
            defined[node.name] = node
        elif isinstance(node, ast.Assign | ast.AnnAssign):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    defined[target.id] = node
    return (ast.literal_eval(defined["__all__"].value),
            {name for name in defined if not name.startswith("_")})


def test_the_public_name_check_sees_defs_classes_and_assignments():
    assert public_names("import os\nfrom re import sub\nA = 1\nB: int = 2\n_c = 3\n"
                        "__all__ = ['A', 'f']\ndef f(): x = 1\nclass K: y = 2\n"
                        "def _g(): pass\n") == (["A", "f"], {"A", "B", "f", "K"})


@pytest.mark.parametrize("name", ["termgraph.py", "nomauto.py"])
def test_all_lists_exactly_the_public_names(name):
    exported, defined = public_names((SOURCES[0].parent / name).read_text())
    assert len(set(exported)) == len(exported)
    assert set(exported) == defined


_REFUSAL = ast.dump(ast.parse('ValueError("atoms are nonnegative integers")', mode="eval").body)


def atom_refusals(source):
    """How many ``raise ValueError("atoms are nonnegative integers")``
    statements ``source`` holds, at any depth."""
    return sum(isinstance(node, ast.Raise) and node.exc is not None and ast.dump(node.exc) == _REFUSAL
               for node in ast.walk(ast.parse(source)))


def test_the_refusal_count_sees_only_that_raise():
    assert atom_refusals('raise ValueError("atoms are nonnegative integers")\n'
                         'def f(x):\n    if x:\n'
                         '        raise ValueError("atoms are nonnegative integers")\n'
                         '    raise ValueError("atoms are integers")\n'
                         'raise TypeError("atoms are nonnegative integers")\n'
                         'error = ValueError("atoms are nonnegative integers")\n') == 2


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_atoms_are_refused_in_perm_and_inline_only_where_measured(path):
    # perm.check_atoms is the one refusal; the int branches of the value
    # protocol and of the JSON codec keep theirs inline, as a call there
    # measured slower
    expected = {"perm.py": 1, "values.py": 2, "serialize.py": 2}.get(path.name, 0)
    assert atom_refusals(path.read_text()) == expected
