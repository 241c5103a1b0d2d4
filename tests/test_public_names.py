"""No public helper in ``src/`` is called only by the tests. Every public
top-level function and class of a ``promptshap`` module that the package
does not export in ``promptshap.__all__`` must be read somewhere in
``src/``, ``scripts/`` or ``perfbench/`` outside its own definition: as a
name, as an attribute or in an import. The files are only read, with the
stdlib ``ast``."""

import ast
from pathlib import Path

import promptshap

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "promptshap"
READERS = (ROOT / "src", ROOT / "scripts", ROOT / "perfbench")


def public_definitions(tree: ast.Module):
    """The public top-level functions and classes of a module."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node


def reads(tree: ast.AST):
    """(name, line) of each name the tree reads, attributes and imported
    names included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def unread(modules: dict, readers: dict, exported) -> list:
    """``module:name`` of each public definition in ``modules`` (path to
    source) that is not in ``exported`` and that no file of ``readers``
    (path to source) reads outside the definition itself."""
    spans = {}   # name -> (path, first line, last line) of its definitions
    for path, source in modules.items():
        for node in public_definitions(ast.parse(source)):
            if node.name not in exported:
                spans.setdefault(node.name, []).append((path, node.lineno, node.end_lineno))
    used = set()
    for path, source in readers.items():
        for name, line in reads(ast.parse(source)):
            if name in spans and not any(path == own and first <= line <= last
                                         for own, first, last in spans[name]):
                used.add(name)
    return sorted(f"{path}:{name}" for name, where in spans.items() if name not in used
                  for path, _, _ in where)


def test_every_public_helper_is_used_outside_the_tests():
    def sources(paths):
        return {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8") for path in paths}

    modules = sources(sorted(PACKAGE.glob("*.py")))
    readers = sources(path for folder in READERS for path in sorted(folder.rglob("*.py")))
    assert modules and set(modules) <= set(readers)
    assert unread(modules, readers, set(promptshap.__all__)) == []


def test_the_check_sees_names_attributes_and_imports_but_not_a_definition_itself():
    module = '''
def exported(): pass
def called(): pass
def by_attribute(): pass
def imported(): pass
def recursive(): return recursive()
class Unused: pass
def _private(): pass
'''
    reader = '''
import mod
from mod import imported
called()
mod.by_attribute
'''
    assert unread({"mod": module}, {"mod": module, "reader": reader}, {"exported"}) == [
        "mod:Unused", "mod:recursive"]
