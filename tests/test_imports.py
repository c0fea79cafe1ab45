"""Every name a library module imports is used in that module."""

import ast
from pathlib import Path

import skewrs

# codes imports lclm_many only so that the benchmark's tracer can wrap it
# under that module's name
ALLOWED = {("codes", "lclm_many")}


def unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            # re-exported names count as used
            used.update(ast.literal_eval(node.value))
    return imported - used


def test_library_modules_use_every_name_they_import():
    found = {(path.stem, name) for path in Path(skewrs.__file__).parent.glob("*.py")
             for name in unused_imports(path)}
    assert sorted(found - ALLOWED) == []
