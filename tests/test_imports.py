"""No module imports a name it never uses, no private helper is dead, no
config class types its own fields, and no module but errors parses JSON.

No linter ships with the project, so these are the lint rules the suite
keeps: every module-level import in src/georesnet/*.py, tests/*.py and
demos/*.py must be referenced somewhere in its own file, and every private
module-level function, class and constant of src/georesnet/*.py must be
read somewhere in the package.  The package's __init__ is left out of the
import rule, since its imports are re-exports.  Every *Config and *Spec
dataclass of the package calls errors.check_fields in its __post_init__,
so its fields are typed by their annotations, by one rule.  Only errors
calls json.load or json.loads, so every input file is read through
errors.read_json_object, which names the file in every error.  The
geometric layer functions never ask which space they run on: one layer
serves S2 and SO(3), since network_forward hands them 3 x k columns.  Only
manifolds compares an array's shape past its first axis with a point shape,
in as_batch, so every entry point checks a batch of points by one rule.  Only
network.family compares a model name, so which model a config runs is decided
in one place, and a new model family is one branch there.
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


def referenced_name(node):
    """The name a decorator or call refers to: f, f(...), m.f and m.f(...) give f."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def config_dataclasses(source):
    """{name: whether its __post_init__ calls check_fields} for the dataclasses
    of source named *Config or *Spec."""
    return {node.name: any(isinstance(call, ast.Call) and referenced_name(call) == "check_fields"
                           for item in node.body if isinstance(item, ast.FunctionDef)
                           and item.name == "__post_init__" for call in ast.walk(item))
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef) and node.name.endswith(("Config", "Spec"))
            and any(referenced_name(d) == "dataclass" for d in node.decorator_list)}


def test_config_dataclasses_finds_hand_typed_configs_and_nothing_else():
    source = ("@dataclass(frozen=True)\nclass GoodConfig:\n    a: int\n\n"
              "    def __post_init__(self):\n        check_fields(self, 'good')\n\n\n"
              "@dataclasses.dataclass\nclass AlsoGoodSpec:\n    a: int\n\n"
              "    def __post_init__(self):\n        errors.check_fields(self, 'also')\n\n\n"
              "@dataclass\nclass HandTypedSpec:\n    a: int\n\n"
              "    def __post_init__(self):\n        self.a = int(self.a)\n\n\n"
              "@dataclass\nclass UncheckedConfig:\n    a: int\n\n    def check_fields(self):\n"
              "        pass\n\n\nclass PlainConfig:\n    pass\n\n\n"
              "@dataclass\nclass Metrics:\n    a: int\n")
    assert config_dataclasses(source) == {"GoodConfig": True, "AlsoGoodSpec": True,
                                          "HandTypedSpec": False, "UncheckedConfig": False}


def test_every_config_dataclass_types_its_fields_through_check_fields():
    found = {}
    for path in PACKAGE:
        found.update(config_dataclasses(path.read_text()))
    assert {"NetworkConfig", "TrainConfig", "SweepSpec"} <= set(found)
    assert [name for name, checked in found.items() if not checked] == []


def json_parses(source):
    """The calls of json.load and json.loads in source, as spelled there: through the
    module, an alias of it, or a name imported from it."""
    tree = ast.parse(source)
    imports = [(node.module if isinstance(node, ast.ImportFrom) else None, alias)
               for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
               for alias in node.names]
    modules = {alias.asname or alias.name for module, alias in imports
               if module is None and alias.name == "json"}
    names = {alias.asname or alias.name for module, alias in imports
             if module == "json" and alias.name in ("load", "loads")}
    return [ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)
            and (isinstance(node.func, ast.Name) and node.func.id in names
                 or isinstance(node.func, ast.Attribute) and node.func.attr in ("load", "loads")
                 and getattr(node.func.value, "id", None) in modules)]


def test_json_parses_finds_every_spelling_of_a_parse_and_nothing_else():
    source = ("import json\nimport json as j\nimport numpy as np\n"
              "from json import dumps, loads as parse\n\n"
              "json.load(fh)\nj.loads(text)\nparse(text)\n"
              "json.dumps(doc)\ndumps(doc)\nnp.load(path)\nloads(text)\n")
    assert json_parses(source) == ["json.load", "j.loads", "parse"]


def test_only_errors_parses_json():
    found = {path.name: json_parses(path.read_text()) for path in PACKAGE}
    assert found.pop("errors.py") == ["json.load"]
    assert {name: calls for name, calls in found.items() if calls} == {}


GEOMETRIC_LAYER = {"network.py": ["manifold_preactivation", "manifold_layer_forward"],
                   "grad.py": ["manifold_layer_vjp"]}


def space_reads(source, functions):
    """{function: what of the space it reads}, for the named module-level functions of
    source: each .space attribute and each SPHERE2 or SO3, bare or as an attribute."""
    spaces = ("SPHERE2", "SO3")
    return {node.name: [ast.unparse(ref) for ref in ast.walk(node)
                        if isinstance(ref, ast.Attribute) and ref.attr in ("space", *spaces)
                        or isinstance(ref, ast.Name) and ref.id in spaces]
            for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and node.name in functions}


def test_space_reads_finds_every_space_branch_and_nothing_else():
    source = ("def layer(x, cfg):\n    if cfg.space == manifolds.SPHERE2:\n        return x\n"
              "    return SO3, space, cfg.spaces\n\n\n"
              "def other(cfg):\n    return cfg.space\n\n\n"
              "def clean(x, cfg):\n    return x @ cfg.dt\n")
    assert space_reads(source, ["layer", "clean"]) == {
        "layer": ["cfg.space", "manifolds.SPHERE2", "SO3"], "clean": []}


def test_the_geometric_layer_functions_do_not_branch_on_the_space():
    for name, functions in GEOMETRIC_LAYER.items():
        source = (ROOT / "src" / "georesnet" / name).read_text()
        assert space_reads(source, functions) == {function: [] for function in functions}


def batch_shape_checks(source):
    """The comparisons in source, as spelled there, with an operand x.shape[1:]: the
    shape of a batch past its first axis."""
    return [ast.unparse(node) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Compare) and any(
                isinstance(side, ast.Subscript) and isinstance(side.value, ast.Attribute)
                and side.value.attr == "shape" and ast.unparse(side.slice) == "1:"
                for side in (node.left, *node.comparators))]


def test_batch_shape_checks_finds_every_batch_shape_comparison_and_nothing_else():
    source = ("if x.shape[1:] != shape:\n    pass\n"
              "ok = (3, 3) == np.asarray(y).shape[1:]\n"
              "y = x.reshape(len(x), math.prod(x.shape[1:]))\n"
              "no = x.shape[0] != 3 or x.shape != (3,) or x.shape[2:] == () or x.s[1:] == ()\n")
    assert batch_shape_checks(source) == ["x.shape[1:] != shape",
                                          "(3, 3) == np.asarray(y).shape[1:]"]


def test_only_manifolds_checks_the_shape_of_a_point_batch():
    found = {path.name: batch_shape_checks(path.read_text()) for path in PACKAGE}
    assert found.pop("manifolds.py") == ["points.shape[1:] != point_shape(kind)"]
    assert {name: checks for name, checks in found.items() if checks} == {}


def names_a_model(node):
    """Whether node is MANIFOLD or CLASSICAL, bare or as an attribute, the string
    "manifold" or "classical", or a tuple, list or set holding one of these."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(names_a_model(element) for element in node.elts)
    constants = ("MANIFOLD", "CLASSICAL")
    return (isinstance(node, ast.Name) and node.id in constants
            or isinstance(node, ast.Attribute) and node.attr in constants
            or isinstance(node, ast.Constant) and node.value in ("manifold", "classical"))


def model_comparisons(source):
    """[(top-level def or class, comparison)] for the comparisons in source, as spelled
    there, with an operand that names_a_model; the def is None at module level."""
    return [(getattr(top, "name", None), ast.unparse(node))
            for top in ast.parse(source).body for node in ast.walk(top)
            if isinstance(node, ast.Compare)
            and any(names_a_model(side) for side in (node.left, *node.comparators))]


def test_model_comparisons_finds_every_spelling_of_a_model_branch_and_nothing_else():
    source = ("def family(cfg):\n    if cfg.model == MANIFOLD:\n        return 1\n\n\n"
              "def save(cfg):\n    return network.CLASSICAL != cfg.model\n\n\n"
              "class Spec:\n    ok = 'classical' == m or m in (CLASSICAL, x)\n\n\n"
              "gate = model is not 'manifold'\n"
              "clean = cfg.model in MODELS or cfg.model == other or MANIFOLD\n"
              "also = {MANIFOLD: 1}[m] == 'manifolds' or m.kind == CLASSICAL_X\n")
    assert model_comparisons(source) == [
        ("family", "cfg.model == MANIFOLD"), ("save", "network.CLASSICAL != cfg.model"),
        ("Spec", "'classical' == m"), ("Spec", "m in (CLASSICAL, x)"),
        (None, "model is not 'manifold'")]


def test_only_network_family_compares_a_model_name():
    found = {path.name: model_comparisons(path.read_text()) for path in PACKAGE}
    assert {function for function, _ in found.pop("network.py")} == {"family"}
    assert {name: compares for name, compares in found.items() if compares} == {}
