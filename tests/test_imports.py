"""Every module-level import in the library is used or re-exported, every
module-level private definition is read somewhere in the library, every
public name is read outside the package's re-exports, no library module
imports a private name of ``propagation`` or ``layers``, and no library
check raises a bare ValueError."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC_DIR = ROOT / "src" / "nlcdet"
MODULES = sorted(p for p in SRC_DIR.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that no expression reads and ``__all__`` omits."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read | set(_exported(tree))]


def _exported(tree: ast.Module) -> list[str]:
    """The names a module lists in ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def test_checker_flags_an_unused_import():
    source = "import os\nimport sys\nfrom a import b as c\nsys.exit()\n"
    assert unused_imports(source) == ["os", "c"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def _private_definitions(tree: ast.Module) -> list[str]:
    """Module-level private functions, classes and assigned names (not dunders)."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names += [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each private definition that no module reads.

    A read is a loaded name, an attribute of that name, or a ``from``-import
    of it; the definition itself and assignments to it are not reads.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = _reads(trees.values())
    return [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in read
    ]


def _reads(trees) -> set[str]:
    """Loaded names, attribute names and ``from``-imported names of ``trees``."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return read


def test_checker_flags_an_unread_private_definition():
    a = (
        "import m\n_USED, _DEAD = 1, 2\n_PEER: int = 3\n__version__ = '1'\n"
        "def _helper(): return _USED\ndef _dead(): pass\nclass _Gone: pass\n"
        "def public(): return _helper()\n_dead = None\n"
    )
    b = "from a import _PEER\nprint(_PEER)\n"
    assert unread_private_names({"a": a, "b": b}) == ["a._DEAD", "a._dead", "a._Gone", "a._dead"]
    assert unread_private_names({"a": "_X = 1\n", "b": "import a\na._X\n"}) == []


def test_no_unread_private_definitions():
    sources = {p.stem: p.read_text() for p in SRC_DIR.glob("*.py")}
    assert unread_private_names(sources) == []


def unread_public_names(modules: dict[str, str], callers: list[str]) -> list[str]:
    """``module.name`` for each ``__all__`` name of ``modules`` that no source in
    ``callers`` reads, a read being as in :func:`unread_private_names`."""
    read = _reads(ast.parse(source) for source in callers)
    return [
        f"{module}.{name}"
        for module, source in modules.items()
        for name in _exported(ast.parse(source))
        if name not in read
    ]


def test_checker_flags_an_unread_public_name():
    a = "__all__ = ['used', 'dead', 'attr']\ndef used(): pass\ndef dead(): pass\nattr = 1\n"
    b = "from a import used\nimport a\na.attr\n"
    assert unread_public_names({"a": a}, [a, b]) == ["a.dead"]


def test_no_public_name_that_only_unit_tests_read():
    # __init__ is not a caller: its imports re-export some of the public
    # names, and a re-export is not a read
    modules = {p.stem: p.read_text() for p in MODULES}
    callers = [*modules.values(), (ROOT / "tests" / "test_acceptance.py").read_text()]
    for directory in ("demos", "perfbench"):
        callers += [p.read_text() for p in sorted((ROOT / directory).rglob("*.py"))]
    assert unread_public_names(modules, callers) == []


def private_imports(source: str, modules=("propagation", "layers")) -> list[str]:
    """``module.name`` for each underscore name that ``source`` imports from
    one of ``modules``, relatively or by package path."""
    return [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] in modules
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_checker_flags_a_private_import():
    source = (
        "from .propagation import ProjectionPlan, _grid\nfrom nlcdet.layers import _ones\n"
        "from .geometry import _pixel_cells\nfrom .layers import linear\n"
    )
    assert private_imports(source) == ["propagation._grid", "nlcdet.layers._ones"]


@pytest.mark.parametrize("path", sorted(SRC_DIR.glob("*.py")), ids=lambda p: p.name)
def test_no_private_import_from_propagation_or_layers(path):
    # pipeline and gradcheck read the layers and the plan by their public names
    assert private_imports(path.read_text()) == []


def bare_value_errors(source: str) -> list[int]:
    """Line numbers of ``raise ValueError`` and ``raise ValueError(...)``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                lines.append(node.lineno)
    return sorted(lines)


def test_checker_flags_a_bare_value_error():
    source = (
        "def f(x):\n    if x:\n        raise ValueError('x')\n    raise ValueError\n"
        "def g():\n    raise InvalidValue('y')\n"
        "try:\n    f(1)\nexcept ValueError:\n    raise\n"
    )
    assert bare_value_errors(source) == [3, 4]


@pytest.mark.parametrize("path", sorted(SRC_DIR.glob("*.py")), ids=lambda p: p.name)
def test_no_bare_value_error_raised(path):
    # a library rejection is an NlcdetError; InvalidValue is also a ValueError
    assert bare_value_errors(path.read_text()) == []
