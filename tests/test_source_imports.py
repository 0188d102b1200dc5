"""No module of `src/tiltphase/` imports a name it never uses, and no
module-level private name of it goes unread.

An import left behind by a change (a `contextmanager` whose decorator went,
a typing name whose annotation went) costs import time and tells a reader
of a dependency that is not there. A line marked `# noqa: F401` is
excepted; only the one in `plant.py`, whose names the traced benchmark
wraps on that module, may carry the mark. A private name (`_x = ...`,
`def _f`, `class _C`) that no line of `src/` reads is a leftover of the
same kind: its callers went, and no caller outside the package may use it.
"""

import ast
from pathlib import Path

import pytest

import tiltphase

SRC = Path(tiltphase.__file__).parent
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str):
    """(line, name) of each name an import binds and no other line reads,
    outside lines marked `# noqa: F401`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            if "# noqa: F401" in lines[node.end_lineno - 1]:
                continue
            for alias in node.names:
                bound.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_only_plant_marks_an_import_unused():
    marked = [(p.name, text.count("# noqa: F401")) for p in MODULES
              for text in [p.read_text(encoding="utf-8")] if "# noqa: F401" in text]
    assert marked == [("plant.py", 1)]


@pytest.mark.parametrize("source, unused", [
    ("from contextlib import contextmanager, suppress\n@contextmanager\ndef f(): pass\n",
     [(1, "suppress")]),
    ("import os.path\nimport json as j\nos.sep\n", [(2, "j")]),
    ("from typing import List\nx: List[int] = []\n", []),
    ("def f():\n    import pickle\n", [(2, "pickle")]),
    ("from math import pi  # noqa: F401\n", []),
], ids=["decorator", "dotted_and_alias", "annotation", "local_import", "marked"])
def test_the_check_itself(source, unused):
    assert unused_imports(source) == unused


def private_definitions(tree: ast.Module):
    """(line, name) of each private name the module's top-level statements
    bind by assignment, `def` or `class`; dunder names are not private."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield node.lineno, name


def dead_private_names(sources: dict):
    """(module, line, name) of each private name of the modules (module name
    -> source) that is read neither in its own module, nor by a `from`
    import of it, nor as an attribute of anything."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    attributes, imported = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module:
                module = node.module.rsplit(".", 1)[-1]
                imported.update((module, alias.name) for alias in node.names)
    dead = []
    for module, tree in trees.items():
        local = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        dead += [(module, line, name) for line, name in private_definitions(tree)
                 if name not in local and name not in attributes
                 and (module, name) not in imported]
    return dead


def test_every_private_name_is_read():
    assert dead_private_names({p.stem: p.read_text(encoding="utf-8") for p in MODULES}) == []


@pytest.mark.parametrize("sources, dead", [
    ({"a": "_new_tuple = tuple.__new__\n"}, [("a", 1, "_new_tuple")]),
    ({"a": "def _f(): pass\nclass _C: pass\n_f()\n"}, [("a", 2, "_C")]),
    ({"a": "_A, _B = 1, 2\n_Z: int = 0\nx: int = _B\n"}, [("a", 1, "_A"), ("a", 2, "_Z")]),
    ({"a": "_x = 1\n", "b": "import a\na._x\n"}, []),
    ({"a": "_x = 1\n", "b": "from a import _x\n"}, []),
    ({"a": "_x = 1\n", "b": "_x = 2\n_x\n"}, [("a", 1, "_x")]),
    ({"a": "__all__ = []\ndef f():\n    _y = 1\n"}, []),
], ids=["assigned", "def_and_class", "tuple_and_annotated", "attribute", "from_import",
     "read_in_another_module", "not_private"])
def test_the_private_name_check_itself(sources, dead):
    assert dead_private_names(sources) == dead
