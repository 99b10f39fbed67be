"""No module imports a name it never uses, and no private helper is dead.

No linter ships with the project, so these are the lint rules the suite
keeps: every module-level import in src/georesnet/*.py, tests/*.py and
demos/*.py must be referenced somewhere in its own file, and every private
module-level function, class and constant of src/georesnet/*.py must be
read somewhere in the package.  The package's __init__ is left out of the
import rule, since its imports are re-exports.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "georesnet").glob("*.py"))
FILES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")])


def unused_imports(source):
    """Names bound by the module-level imports of source and never read in it."""
    tree = ast.parse(source)
    imported = [alias.asname or alias.name.split(".")[0]
                for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_finds_a_stray_import_and_nothing_else():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\n\nprint(np.pi, d.e)\n"
    assert unused_imports(source) == ["os", "c"]


@pytest.mark.parametrize("path", [p for p in FILES if p.name != "__init__.py"],
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources):
    """Module-level names with one leading underscore, defined in any of sources
    by def, class or assignment, that none of them reads as a name or attribute."""
    trees = [ast.parse(source) for source in sources]
    defined = []
    for node in (node for tree in trees for node in tree.body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    return [name for name in defined
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_unread_private_names_finds_dead_helpers_and_nothing_else():
    sources = ["_A = 1\n_B, _C = 2, 3\n__all__ = []\n\n\ndef _f():\n    return _A\n\n\n"
               "class _K:\n    pass\n\n\ndef _dead():\n    pass\n",
               "import m\nfrom m import _f\n\n_f()\nprint(m._K, m._C)\n"]
    assert unread_private_names(sources) == ["_B", "_dead"]


def test_every_private_module_level_name_is_read_in_the_package():
    assert unread_private_names([path.read_text() for path in PACKAGE]) == []
