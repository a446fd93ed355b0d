"""The package's own source: every name a module imports is used in it, and
every private module-level name is read somewhere in the package.

No linter ships with the test dependencies, and private names are often
renamed or deleted; an import or a definition left behind would keep a stale
name alive.  ``__init__.py`` is left out of the import check, since it imports
names to re-export them.
"""

import ast
from pathlib import Path

import pytest

import condmetrics

PACKAGE = Path(condmetrics.__file__).resolve().parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of source that no other code reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    # an attribute chain such as np.linalg.eigh starts at the Name np
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_unused_imports_are_found():
    source = "import os.path\nimport numpy as np\nfrom .m import a, b as c\nx = np.pi + a\n"
    assert unused_imports(source) == ["c", "os"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def unread_private_names(sources: dict) -> list[str]:
    """``module:name`` for each private module-level def, class or assignment
    of sources that no code in any of them reads: by name, as an attribute or
    through an import."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            targets = ([node] if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                       else node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            names = [getattr(t, "name", getattr(t, "id", None)) for t in targets]
            defined += [f"{module}:{n}" for n in names
                        if n and n.startswith("_") and not n.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return [name for name in defined if name.split(":")[1] not in read]


def test_unread_private_names_are_found():
    sources = {"a.py": "_kept = 1\n_lost = 2\ndef _f():\n    return _kept\nclass _C:\n    pass\n",
               "b.py": "from .a import _f\nimport a\nx = a._C\n__all__ = []\n"}
    assert unread_private_names(sources) == ["a.py:_lost"]


def test_every_private_name_is_read():
    assert unread_private_names(SOURCES) == []
