"""The package holds no code that only its own tests read.

Every public top-level function and class of ``src/instanton3`` must be
referenced from package code: from another module (an import, a name or an
attribute) or from another top-level statement of its own module.  The one
exemption is ``cubics.py``, the Sturm oracle that only the tests import (see
README "Layout"); its own references do not count either.  The check reads
the source with ``ast``; it imports the package only to find its directory.

Nor does the package hold an ``assert`` statement: ``python -O`` strips
them, so an invariant is enforced by a raise.

And records have one store: no class but ``errors.Record`` defines how
fields are set, read back, compared or guarded, so a hot record cannot
grow a second, hand-written copy of its field names.
"""

import ast
from pathlib import Path

import instanton3

TEST_ONLY_MODULES = {"cubics"}


def _referenced_names(nodes):
    """Every name, attribute and imported name used anywhere in ``nodes``."""
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif isinstance(sub, ast.alias):
                names.add(sub.name.rpartition(".")[2])
    return names


def unreferenced_definitions(package_dir: Path) -> list[str]:
    trees = {
        path.stem: ast.parse(path.read_text(), str(path))
        for path in sorted(package_dir.glob("*.py"))
        if path.stem not in TEST_ONLY_MODULES
    }
    orphans = []
    for module, tree in trees.items():
        elsewhere = _referenced_names(other for name, other in trees.items() if name != module)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            here = _referenced_names(stmt for stmt in tree.body if stmt is not node)
            if node.name not in elsewhere | here:
                orphans.append(f"{module}.{node.name}")
    return orphans


def test_every_public_definition_has_a_package_caller():
    assert unreferenced_definitions(Path(instanton3.__file__).parent) == []


def test_the_rule_sees_an_orphan(tmp_path):
    (tmp_path / "a.py").write_text("def used():\n    pass\n\n\ndef unused():\n    return used()\n\n\ndef _private():\n    pass\n")
    (tmp_path / "b.py").write_text("from .a import used\n\n\nclass Lone:\n    def unused(self):\n        pass\n")
    (tmp_path / "cubics.py").write_text("from .a import unused\n\n\ndef oracle():\n    pass\n")
    assert unreferenced_definitions(tmp_path) == ["a.unused", "b.Lone"]


def assert_statements(package_dir: Path) -> list[str]:
    """``module:line`` of every ``assert`` statement in the package."""
    return [
        f"{path.stem}:{node.lineno}"
        for path in sorted(package_dir.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]


def test_the_package_enforces_no_invariant_by_assert():
    package_dir = Path(instanton3.__file__).parent
    assert len(list(package_dir.glob("*.py"))) > 10  # an empty glob finds no assert either
    assert assert_statements(package_dir) == []


def test_the_assert_rule_sees_one(tmp_path):
    (tmp_path / "a.py").write_text("def f(x):\n    if x:\n        assert x > 0, 'positive'\n    return x\n")
    (tmp_path / "b.py").write_text("def g(x):\n    if not x:\n        raise ValueError('empty')\n")
    assert assert_statements(tmp_path) == ["a:3"]


#: What only errors.Record may define; a record may still define __hash__ (CohomTable does).
RECORD_STORE = {"_set", "_values", "__eq__", "__setattr__", "__delattr__"}


def second_stores(package_dir: Path) -> list[str]:
    """``module.Class.name`` of every method or class attribute in RECORD_STORE outside ``errors.Record``."""
    found = []
    for path in sorted(package_dir.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ClassDef) or (path.stem, node.name) == ("errors", "Record"):
                continue
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [stmt.name]
                else:
                    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                found += [f"{path.stem}.{node.name}.{name}" for name in names if name in RECORD_STORE]
    return found


def test_only_record_stores_compares_and_guards_fields():
    assert second_stores(Path(instanton3.__file__).parent) == []


def test_the_store_rule_sees_an_override(tmp_path):
    (tmp_path / "errors.py").write_text(
        "class Record:\n    def _set(self, *v):\n        pass\n\n    def __eq__(self, other):\n        return True\n"
    )
    (tmp_path / "a.py").write_text(
        "from .errors import Record\n\n\nclass Point(Record):\n    def __init__(self, x, y):\n        self._set(x, y)\n\n"
        "    def _set(self, x, y):\n        object.__setattr__(self, 'x', x)\n\n    def __hash__(self):\n        return 0\n"
    )
    (tmp_path / "b.py").write_text("class Pair:\n    __eq__ = tuple.__eq__\n    _values: object = None\n    label = 'pair'\n")
    assert second_stores(tmp_path) == ["a.Point._set", "b.Pair.__eq__", "b.Pair._values"]
