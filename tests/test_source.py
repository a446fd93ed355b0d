"""The package's own source: every name a module imports is used in it, and
every private module-level name is read somewhere in the package.  The README
keeps step with it: each public name it or ``__all__`` gives exists, its
quick start runs, and its lists of ``synth`` generators and their flags, and
of the flags ``metrics`` and ``sweep`` share, are the CLI's.  One call each to
``np.linalg.cholesky``, ``eigh`` and ``svd`` are the package's only matrix
decompositions: one rule factors every covariance, one kernel takes every
Fréchet distance.

No linter ships with the test dependencies, and private names are often
renamed or deleted; an import or a definition left behind would keep a stale
name alive.  ``__init__.py`` is left out of the import check, since it imports
names to re-export them.
"""

import argparse
import ast
import re
from pathlib import Path

import pytest

import condmetrics
from condmetrics.cli import make_parser

PACKAGE = Path(condmetrics.__file__).resolve().parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


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


# matrix decompositions of numpy.linalg and scipy.linalg, by function name
DECOMPOSITIONS = {"cholesky", "eig", "eigh", "eigvals", "eigvalsh", "hessenberg", "ldl", "lu",
                  "lu_factor", "polar", "qr", "qz", "schur", "sqrtm", "svd", "svdvals"}


def decomposition_calls(source: str) -> list[str]:
    """The callee, as written, of each call in source to a decomposition."""
    calls = [node.func for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)]
    return [ast.unparse(f) for f in calls
            if getattr(f, "attr", getattr(f, "id", None)) in DECOMPOSITIONS]


def test_decomposition_calls_are_found():
    source = ("from scipy.linalg import sqrtm\nimport numpy as np\n"
              "r = np.linalg.qr(a, mode='r')\nb = sqrtm(a)\nc = np.dot(a, a)\nqr = 1\n")
    assert decomposition_calls(source) == ["np.linalg.qr", "sqrtm"]


def test_one_call_site_per_decomposition():
    calls = [call for source in SOURCES.values() for call in decomposition_calls(source)]
    assert sorted(calls) == ["np.linalg.cholesky", "np.linalg.eigh", "np.linalg.svd"]


def test_every_documented_public_name_exists():
    documented = set(re.findall(r"\bcm\.(\w+)", README)) | set(condmetrics.__all__)
    assert sorted(name for name in documented if not hasattr(condmetrics, name)) == []


def test_readme_quick_start_runs():
    # exec compiles in memory, so the run writes no __pycache__
    section = README.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_readme_names_every_synth_generator_and_its_flags():
    # the generator list under the CLI usage and the per-generator flag list
    generators = _subcommands(_subcommands(make_parser())["synth"])
    listed = re.search(r"\(generators: (.*?)\)", README, re.S).group(1)
    assert re.findall(r"`([\w-]+)`", listed) == list(generators)
    section = README.split("Each `synth` generator is its own subcommand", 1)[1].split("\n\n")[0]
    bullets = dict(re.findall(r"^- `([\w-]+)`: (.*?)(?=^- |\Z)", section, re.M | re.S))
    assert list(bullets) == list(generators)
    common = {"--help", "--seed", "--out-dir"}
    for name, parser in generators.items():
        flags = {f for a in parser._actions for f in a.option_strings if f.startswith("--")}
        assert set(re.findall(r"--[a-z-]+", bullets[name])) == flags - common, name


def test_readme_lists_every_common_flag():
    # the "Common flags:" list is metrics' flags, each with its {choices}, and sweep has them all
    commands = _subcommands(make_parser())
    listed = re.search(r"Common flags:\s*`(.*?)`", README, re.S).group(1).split()
    flags, words = set(), []
    for action in commands["metrics"]._actions:
        if "--help" not in action.option_strings:
            flags.update(action.option_strings)
            words += action.option_strings
            words += ["{" + ",".join(action.choices) + "}"] if action.choices else []
    assert listed == words
    assert flags <= {f for a in commands["sweep"]._actions for f in a.option_strings}
