"""No module of `src/tiltphase/` imports a name it never uses.

An import left behind by a change (a `contextmanager` whose decorator went,
a typing name whose annotation went) costs import time and tells a reader
of a dependency that is not there. A line marked `# noqa: F401` is
excepted; only the one in `plant.py`, whose names the traced benchmark
wraps on that module, may carry the mark.
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
