"""The package's public surface is what the package reads.

Parses every module of beamstab with ast and checks that each public
module-level function and class is read somewhere in the package, exported
by __init__ or an entry point, that each private one is read inside the
package, that each module-level assigned name (dunders aside) is read
inside the package, and that each annotated class field and each public
method or property of a class is read.  A class whose methods call
dataclasses.fields(self) reads all its fields.  A
private module of another package, such as SciPy's compiled kernels, is
imported by _fem alone.  Every backticked module.name of a beamstab module
in the root README names an attribute the module has.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "beamstab"
README = PACKAGE.parents[1] / "README.md"

# the one module that may import a private module of another package
PRIVATE_IMPORTERS = {"_fem"}

# called from outside the package: the console script, the trace
# post-processing that acceptance criteria 2 and 4 run on a recorded trace,
# and the clamped nodes that criterion 7 removes from the all-node forms
ENTRY_POINTS = {"cli", "energy_balance_residuals", "lyapunov_decay_defects", "gamma0_nodes"}


def _trees():
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _reads(trees):
    """Every name the package loads, as a bare name, an attribute or an
    imported name."""
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def _definitions(trees, private=False):
    """(module, name) of the module-level functions and classes, public or
    private (a leading underscore)."""
    return [(module, node.name) for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") == private]


def _constants(trees):
    """(module, name) of every name a module-level assignment binds,
    dunders aside; a comprehension's variables in the assigned value are
    not bound at module level."""
    def targets(node):
        if isinstance(node, ast.Assign):
            return node.targets
        return [node.target] if isinstance(node, ast.AnnAssign) else []

    return [(module, name.id) for module, tree in trees.items() for node in tree.body
            for target in targets(node) for name in ast.walk(target)
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
            and not (name.id.startswith("__") and name.id.endswith("__"))]


def _private_imports(trees):
    """(module, dotted name) of every absolute import whose dotted name has
    a private component (a leading underscore, dunders aside)."""
    def private(dotted):
        return any(part.startswith("_") and not part.endswith("__")
                   for part in dotted.split("."))

    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [(module, name) for name in names if private(name)]
    return found


def _reads_own_fields(cls):
    """Whether a method of the class calls fields(self)."""
    return any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "fields" and len(node.args) == 1
               and isinstance(node.args[0], ast.Name) and node.args[0].id == "self"
               for node in ast.walk(cls))


def _annotated_fields(trees):
    """(module, class, field) of every annotated field of a class that does
    not read all its fields itself."""
    return [(module, cls.name, node.target.id) for module, tree in trees.items()
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and not _reads_own_fields(cls)
            for node in cls.body
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]


def _methods(trees):
    """(module, class, name) of every public method or property of a class,
    dunders aside, as they start with an underscore."""
    return [(module, cls.name, node.name) for module, tree in trees.items()
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")]


def _readme_references(text):
    """The backticked `module.name` spans of text whose module is one of
    the package's modules, in order of appearance."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    return [(module, name) for module, name in re.findall(r"`(\w+)\.(\w+)`", text)
            if module in modules]


def _stale_references(text):
    return [f"{module}.{name}" for module, name in _readme_references(text)
            if not hasattr(importlib.import_module(f"beamstab.{module}"), name)]


def test_readme_names_only_existing_attributes():
    text = README.read_text()
    assert ("harness", "RunConfig") in _readme_references(text)
    stale = _stale_references(text)
    assert not stale, f"README names what its module does not define: {stale}"


def test_the_readme_check_finds_a_stale_name():
    text = ("`_fem.trace_structure` and `geometry.Faces` are gone; `harness.RunConfig`, "
            "`_fem.side_rule`, `system.free` and `x.T` are not stale")
    assert _stale_references(text) == ["_fem.trace_structure", "geometry.Faces"]


def test_every_public_definition_is_read():
    trees = _trees()
    reads = _reads(trees) | ENTRY_POINTS
    unread = [f"{module}.{name}" for module, name in _definitions(trees)
              if name not in reads]
    assert not unread, f"public definitions nothing reads: {unread}"


def test_every_private_definition_is_read():
    # nothing outside the package may rely on a private helper, so one the
    # package does not read is left over
    trees = _trees()
    reads = _reads(trees)
    unread = [f"{module}.{name}" for module, name in _definitions(trees, private=True)
              if name not in reads]
    assert not unread, f"private definitions nothing reads: {unread}"


def test_every_module_constant_is_read():
    # a constant whose reader is gone, such as a removed loop's bound, is left over
    trees = _trees()
    reads = _reads(trees)
    unread = [f"{module}.{name}" for module, name in _constants(trees) if name not in reads]
    assert not unread, f"module-level names nothing reads: {unread}"


def test_every_annotated_field_is_read():
    trees = _trees()
    reads = _reads(trees)
    unread = [f"{module}.{cls}.{name}" for module, cls, name in _annotated_fields(trees)
              if name not in reads]
    assert not unread, f"class fields nothing reads: {unread}"


def test_every_public_method_is_read():
    # a method whose callers are gone, such as a removed load helper, is left over
    trees = _trees()
    reads = _reads(trees) | ENTRY_POINTS
    unread = [f"{module}.{cls}.{name}" for module, cls, name in _methods(trees)
              if name not in reads]
    assert not unread, f"public methods and properties nothing reads: {unread}"


def test_private_modules_of_other_packages_are_imported_by_fem_only():
    # SciPy's kernels check no sizes; _fem.csr_product is the checked way in
    imports = _private_imports(_trees())
    assert ("_fem", "scipy.sparse._sparsetools") in imports
    elsewhere = [f"{module}: {name}" for module, name in imports
                 if module not in PRIVATE_IMPORTERS]
    assert not elsewhere, f"private imports outside _fem: {elsewhere}"


@pytest.mark.parametrize("source, unread", [
    ("def used():\n    pass\n\ndef unused():\n    used()\n", ["m.unused"]),
    ("class A:\n    x: int\n    y: int\n\ndef f(a):\n    return a.x\n",
     ["m.A", "m.f", "m.A.y"]),
    ("class A:\n    y: int\n\n    def items(self):\n        return fields(self)\n\nA\n",
     ["m.A.items"]),
    ("def _used():\n    pass\n\nclass _Unused:\n    pass\n\ndef f():\n    _used()\n\nf()\n",
     ["m._Unused"]),
    ("from __future__ import annotations\nfrom . import _own\nimport numpy.linalg\n"
     "from scipy.sparse import _sparsetools\nimport scipy._lib._util as u\n"
     "from scipy.sparse._base import issparse\n\n_own, _sparsetools, u, issparse\n",
     ["m imports scipy.sparse._sparsetools", "m imports scipy._lib._util",
      "m imports scipy.sparse._base.issparse"]),
    ("__all__ = []\nLIMIT = 3\nUNUSED, (_SKIP, *REST) = 1, (2, 3)\nTYPED: int = 4\n"
     "KEYS = {k for k, _ in LIMIT}\n\ndef f():\n    return KEYS\n\nf()\n",
     ["m.UNUSED", "m._SKIP", "m.REST", "m.TYPED"]),
    ("class A:\n    def read(self):\n        pass\n\n    def unread(self):\n        pass\n\n"
     "    @property\n    def size(self):\n        pass\n\n    def __len__(self):\n        pass\n\n"
     "A().read()\n", ["m.A.unread", "m.A.size"]),
])
def test_the_checks_find_an_unread_name(source, unread):
    trees = {"m": ast.parse(source)}
    reads = _reads(trees)
    found = [f"m.{name}" for private in (False, True)
             for _, name in _definitions(trees, private) if name not in reads]
    found += [f"m.{cls}.{name}" for _, cls, name in _annotated_fields(trees)
              if name not in reads]
    found += [f"m.{cls}.{name}" for _, cls, name in _methods(trees) if name not in reads]
    found += [f"m.{name}" for _, name in _constants(trees) if name not in reads]
    found += [f"m imports {name}" for _, name in _private_imports(trees)]
    assert found == unread
