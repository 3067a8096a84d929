"""A local stand-in for the lint job's unused-import rule (ruff F401).

CI lints with ruff, which may not be installed where the tests run.  This
scan finds the one defect a deletion most often leaves behind: a name a
module imports and never uses.  A name counts as used when the module reads
it anywhere, lists it in ``__all__``, or names it in a string annotation;
every import in an ``__init__.py`` counts as a re-export.  It is coarser
than ruff (one scope per module), so it can miss a defect, never invent one.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: What the CI lint step checks (``ruff check src tests benchmarks examples``).
LINTED = ("src", "tests", "benchmarks", "examples")


def _annotation_names(node: ast.AST) -> "set[str]":
    """Names read by an annotation, inside string annotations too."""
    names = set()
    for part in ast.walk(node):
        if isinstance(part, ast.Name):
            names.add(part.id)
        elif isinstance(part, ast.Constant) and isinstance(part.value, str):
            try:
                names |= _annotation_names(ast.parse(part.value, mode="eval"))
            except SyntaxError:
                pass  # a plain string, not an annotation
    return names


def unused_imports(source: str) -> "list[tuple[int, str]]":
    """``(line, name)`` of every import of ``source`` that nothing uses."""
    tree = ast.parse(source)
    imported: "dict[str, int]" = {}
    used: "set[str]" = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_every_import_is_used():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for top in LINTED
        for path in sorted((ROOT / top).rglob("*.py"))
        if path.name != "__init__.py"  # a package's imports are its re-exports
        for line, name in unused_imports(path.read_text())
    ]
    assert found == [], "imported but unused:\n" + "\n".join(found)


def test_the_scan_finds_what_it_should_and_nothing_else():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import json.decoder\n"
        "from typing import Mapping, Sequence\n"
        "from a import b as c, d, e, f\n"
        "__all__ = ['d']\n"
        "def g(x: 'Mapping[str, int]') -> list['e']:\n"
        "    import sys\n"
        "    return json.decoder\n"
    )
    assert unused_imports(source) == [(2, "os"), (2, "osp"), (4, "Sequence"), (5, "c"),
                                      (5, "f"), (8, "sys")]
