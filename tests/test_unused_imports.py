"""No module in ``src/`` imports a name it never uses. No linter is part of
the project, so this stdlib ``ast`` check stands in for that one rule: a name
an import binds counts as used where its scope reads it (attribute bases
included), lists it in a literal ``__all__`` or names it in a string
annotation. The scope of an import inside a function is that function's
body, nested functions included; of any other import, the whole module. The
files are only read."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def scoped_imports(node: ast.AST, scope: ast.AST):
    """(import, scope) of each import under ``node``: the innermost function
    that holds it, or ``scope``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child, scope
        inner = child if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        yield from scoped_imports(child, inner)


def imported_names(node: ast.AST):
    """The names one import binds."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            yield alias.asname or alias.name.partition(".")[0]
    elif node.module != "__future__":
        for alias in node.names:
            yield alias.asname or alias.name


def annotations(node: ast.AST):
    if isinstance(node, ast.arg):
        yield node.annotation
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        yield node.returns
    elif isinstance(node, ast.AnnAssign):
        yield node.annotation


def used_names(tree: ast.AST) -> set:
    """The names ``tree`` reads, exports in ``__all__`` or names in a string
    annotation."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if isinstance(node.value, (ast.List, ast.Tuple)) and any(
                    isinstance(target, ast.Name) and target.id == "__all__" for target in targets):
                names.update(ast.literal_eval(node.value))
        for annotation in annotations(node):
            for part in ast.walk(annotation) if annotation is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    names |= used_names(ast.parse(part.value, mode="eval"))
    return names


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = {}   # scope -> the names it reads
    unused = []
    for node, scope in scoped_imports(tree, tree):
        if scope not in used:
            used[scope] = used_names(scope)
        unused += [(node.lineno, name) for name in imported_names(node)
                   if name not in used[scope]]
    return unused


def test_no_module_imports_a_name_it_never_uses():
    files = sorted(SRC.rglob("*.py"))
    assert files
    unused = [f"{path.relative_to(SRC)}:{line}: {name}"
              for path in files
              for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert unused == []


def test_the_check_sees_reads_exports_and_string_annotations():
    source = '''
import os.path
import json as js
from typing import Optional, Sequence, Callable
from .sibling import exported, unused_one
__all__ = ["exported"]

def f(x: "Optional[int]") -> "Sequence":
    return os.path.join(js.dumps(x))
'''
    assert unused_imports(source) == [(4, "Callable"), (5, "unused_one")]


def test_an_import_in_a_function_counts_only_the_reads_of_that_function():
    source = '''
import json

def loads(text):
    from .sibling import elsewhere, parse
    return parse(text)

def dumps(doc):
    from .sibling import closed

    def inner():
        return closed(elsewhere(json))
    return inner
'''
    assert unused_imports(source) == [(5, "elsewhere")]
