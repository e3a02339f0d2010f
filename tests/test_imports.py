"""Every top-level import of a viforge module is used in that module,
exported through ``__all__``, or marked ``# noqa: F401`` (a name kept for
callers that patch or re-export it)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "viforge"


def _unused_imports(path):
    """(line, name) of every top-level import binding of ``path`` that is
    never read, exported or marked."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    bound, exported = [], set()
    for node in tree.body:
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            bound += [(node.lineno, alias.asname or alias.name.split(".")[0])
                      for alias in node.names if alias.name != "*"]
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__"
                                                  for t in node.targets):
            exported |= {elt.value for elt in node.value.elts}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in read | exported]


def test_every_top_level_import_is_used_or_marked():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) >= 15
    unused = {str(path.relative_to(SRC)): got for path in modules
              if (got := _unused_imports(path))}
    assert not unused, unused


def test_the_check_sees_an_unused_import(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import os\nfrom sys import argv, path as p  # noqa: F401\n"
                    "from json import (\n    dumps,\n    loads,\n)\n\nprint(loads)\n")
    assert _unused_imports(path) == [(1, "os"), (3, "dumps")]
