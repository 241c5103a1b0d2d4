"""No helper in ``src/`` is called only by the tests. Every top-level
function and class of a ``promptshap`` module, public or private, that the
package does not export in ``promptshap.__all__`` must be read somewhere in
``src/``, ``scripts/`` or ``perfbench/`` outside its own definition: as a
name, as an attribute or in an import. A private name counts only where it
can mean that definition: in its own module, as an attribute, or imported
from its module. The files are only read, with the stdlib ``ast``."""

import ast
from pathlib import Path

import promptshap

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "promptshap"
READERS = (ROOT / "src", ROOT / "scripts", ROOT / "perfbench")


def definitions(tree: ast.Module, private: bool):
    """The public top-level functions and classes of a module, or the private
    ones if ``private``; module hooks such as ``__getattr__`` are neither."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_") == private and not node.name.endswith("__")):
            yield node


def reads(tree: ast.AST):
    """(name, line, via) of each name the tree reads, attributes and imported
    names included: ``via`` is "." for an attribute, the last part of the
    module's name for an imported name, and None for a plain name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno, None
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno, "."
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno, (node.module or "").rpartition(".")[2]


def unread(modules: dict, readers: dict, exported, private: bool = False) -> list:
    """``module:name`` of each public definition in ``modules`` (path to
    source), or each private one if ``private``, that is not in ``exported``
    and that no file of ``readers`` (path to source) reads outside the
    definition itself. A private name read in another file counts only as an
    attribute or imported from its module."""
    spans = {}   # name -> (path, first line, last line) of its definitions
    for path, source in modules.items():
        for node in definitions(ast.parse(source), private):
            if node.name not in exported:
                spans.setdefault(node.name, []).append((path, node.lineno, node.end_lineno))
    used = set()
    for path, source in readers.items():
        for name, line, via in reads(ast.parse(source)):
            where = spans.get(name, [])
            if any(path == own and first <= line <= last for own, first, last in where):
                continue
            used.update((own, name) for own, _, _ in where
                        if not private or path == own or via in (".", Path(own).stem))
    return sorted(f"{path}:{name}" for name, where in spans.items()
                  for path, _, _ in where if (path, name) not in used)


def package_and_readers() -> tuple:
    """The sources of the package's modules and of every file that may read
    them, by path relative to the repository."""
    def sources(paths):
        return {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8") for path in paths}

    return (sources(sorted(PACKAGE.glob("*.py"))),
            sources(path for folder in READERS for path in sorted(folder.rglob("*.py"))))


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


def test_every_private_helper_is_used_outside_the_tests():
    modules, readers = package_and_readers()
    assert modules and set(modules) <= set(readers)
    assert unread(modules, readers, set(), private=True) == []


def test_a_private_name_counts_only_where_it_can_mean_its_definition():
    module = '''
def _called(): pass
def _by_attribute(): pass
def _imported(): pass
def _recursive(): return _recursive()
def _plain_elsewhere(): pass
def _imported_elsewhere(): pass
def __getattr__(name): pass
_called()
'''
    reader = '''
from pkg.mod import _imported
from pkg.other import _imported_elsewhere
mod._by_attribute
_plain_elsewhere()
'''
    assert unread({"pkg/mod.py": module}, {"pkg/mod.py": module, "reader": reader}, set(),
                  private=True) == [
        "pkg/mod.py:_imported_elsewhere", "pkg/mod.py:_plain_elsewhere", "pkg/mod.py:_recursive"]
