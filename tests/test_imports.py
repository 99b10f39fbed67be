"""No module imports a name it never uses.

No linter ships with the project, so this is the one lint rule the suite
keeps: every module-level import in src/georesnet/*.py, tests/*.py and
demos/*.py must be referenced somewhere in its own file.  The package's
__init__ is left out, since its imports are re-exports.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src" / "georesnet").glob("*.py"), *(ROOT / "tests").glob("*.py"),
                *(ROOT / "demos").glob("*.py")])


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
