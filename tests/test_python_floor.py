"""The package declares ``requires-python = ">=3.10"``: every Python file in
``src/``, ``tests/``, ``scripts/`` and ``perfbench/`` must parse with the 3.10
grammar. This checks syntax only (``ast.parse`` with ``feature_version``,
which is best effort), not the library APIs a file calls. The files are only
read."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_python_file_parses_as_python_3_10():
    tops = ("src", "tests", "scripts", "perfbench")
    files = sorted(p for top in tops for p in (ROOT / top).rglob("*.py"))
    assert files
    failures = []
    for path in files:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert failures == []
