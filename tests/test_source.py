"""The package's own source: every name a module imports is used in it.

No linter ships with the test dependencies, and private names are often
renamed or deleted; an import left behind would keep a stale name alive.
``__init__.py`` is left out, since it imports names to re-export them.
"""

import ast
from pathlib import Path

import pytest

import condmetrics

PACKAGE = Path(condmetrics.__file__).resolve().parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
