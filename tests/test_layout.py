"""The package holds no code that only its own tests read.

Every public top-level function and class of ``src/instanton3`` must be
referenced from package code: from another module (an import, a name or an
attribute) or from another top-level statement of its own module.  The one
exemption is ``cubics.py``, the Sturm oracle that only the tests import (see
README "Layout"); its own references do not count either.  The check reads
the source with ``ast``; it imports the package only to find its directory.
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
