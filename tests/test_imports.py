"""No library module imports a name it never uses."""

import ast
import pathlib

import tempocut

SRC = pathlib.Path(tempocut.__file__).parent


def _unused_imports(source: str) -> list[str]:
    """The names source's imports bind that no expression of it reads
    (__future__ features aside)."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - read)


def test_unused_imports_are_found():
    assert _unused_imports("from __future__ import annotations\n"
                           "import math, os.path\nfrom json import dumps, "
                           "loads as read\nprint(math.pi, read)\n") == [
        "dumps", "os"]


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports only to export
    unused = {path.name: _unused_imports(path.read_text(encoding="utf-8"))
              for path in sorted(SRC.glob("*.py"))
              if path.name != "__init__.py"}
    assert len(unused) == 10
    assert {name: names for name, names in unused.items() if names} == {}
