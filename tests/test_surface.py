"""The package's public surface is what the package reads.

Parses every module of beamstab with ast and checks that each public
module-level function and class is read somewhere in the package, exported
by __init__ or an entry point, that each private one is read inside the
package, and that each annotated class field is read.  A class whose
methods call dataclasses.fields(self) reads all its fields.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "beamstab"

# called from outside the package: the console script, and the trace
# post-processing that acceptance criteria 2 and 4 run on a recorded trace
ENTRY_POINTS = {"cli", "energy_balance_residuals", "lyapunov_decay_defects"}


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


def test_every_annotated_field_is_read():
    trees = _trees()
    reads = _reads(trees)
    unread = [f"{module}.{cls}.{name}" for module, cls, name in _annotated_fields(trees)
              if name not in reads]
    assert not unread, f"class fields nothing reads: {unread}"


@pytest.mark.parametrize("source, unread", [
    ("def used():\n    pass\n\ndef unused():\n    used()\n", ["m.unused"]),
    ("class A:\n    x: int\n    y: int\n\ndef f(a):\n    return a.x\n",
     ["m.A", "m.f", "m.A.y"]),
    ("class A:\n    y: int\n\n    def items(self):\n        return fields(self)\n\nA\n", []),
    ("def _used():\n    pass\n\nclass _Unused:\n    pass\n\ndef f():\n    _used()\n\nf()\n",
     ["m._Unused"]),
])
def test_the_checks_find_an_unread_name(source, unread):
    trees = {"m": ast.parse(source)}
    reads = _reads(trees)
    found = [f"m.{name}" for private in (False, True)
             for _, name in _definitions(trees, private) if name not in reads]
    found += [f"m.{cls}.{name}" for _, cls, name in _annotated_fields(trees)
              if name not in reads]
    assert found == unread
