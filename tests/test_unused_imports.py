"""No module in ``src/`` imports a name it never uses. No linter is part of
the project, so this stdlib ``ast`` check stands in for that one rule: a name
an import binds counts as used where the module reads it (attribute bases
included), lists it in ``__all__`` or names it in a string annotation. The
files are only read."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def imported_names(tree: ast.Module):
    """(name, line) of each name the module's imports bind."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


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
            if node.value is not None and any(
                    isinstance(target, ast.Name) and target.id == "__all__" for target in targets):
                names.update(ast.literal_eval(node.value))
        for annotation in annotations(node):
            for part in ast.walk(annotation) if annotation is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    names |= used_names(ast.parse(part.value, mode="eval"))
    return names


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = used_names(tree)
    return [(line, name) for name, line in imported_names(tree) if name not in used]


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
