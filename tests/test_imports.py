"""Import hygiene: every name a src module imports is used in that module.

A name counts as used when the module's code loads it; a mention in a
docstring or comment does not count. Two kinds of import are exempt:
names listed in the module's ``__all__``, and lines marked
``# noqa: F401 -- <reason>`` for a deliberate re-export.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "latentsum"
NOQA = re.compile(r"#\s*noqa:\s*F401\s+--\s*\S")


def _exported(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every imported name that ``source`` never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((alias.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exempt = _exported(tree)
    return [(line, name) for line, name in imported
            if name not in used and name not in exempt and not NOQA.search(lines[line - 1])]


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC)))
def test_src_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


class TestChecker:
    def test_flags_a_name_only_a_docstring_mentions(self):
        source = ('from .tensor import Parameter, add\n\n'
                  'def f(x):\n    """Binds a Parameter."""\n    return add(x, x)\n')
        assert unused_imports(source) == [(1, "Parameter")]

    def test_flags_modules_and_aliases(self):
        source = "import itertools\nimport numpy as np\nfrom a import b as c\n"
        assert unused_imports(source) == [(1, "itertools"), (2, "np"), (3, "c")]

    def test_attribute_use_counts(self):
        assert unused_imports("import os.path\nos.path.join('a')\n") == []

    def test_exempts_all_and_marked_reexports(self):
        source = ("from .tensor import (\n    add,\n"
                  "    backward,  # noqa: F401 -- re-exported for the tracer\n    mul,\n)\n"
                  "__all__ = ['add']\n")
        assert unused_imports(source) == [(4, "mul")]

    def test_noqa_needs_a_reason(self):
        assert unused_imports("import os  # noqa: F401\n") == [(1, "os")]

    def test_future_import_is_not_a_name(self):
        assert unused_imports("from __future__ import annotations\n") == []
