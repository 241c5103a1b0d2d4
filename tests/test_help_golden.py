"""Golden bytes of the CLI's help and usage errors: stdout, stderr and exit
code of ``--help`` at the top, under each command and under each ``verify``
and ``cache`` subcommand, and of an unknown command, a missing command, a
missing or invalid option and an option before the command. The expected
bytes in ``help_golden.json`` were
generated at an 80-column width on the commit before the parser built only
the arguments of the command it runs."""

import json
from pathlib import Path

import pytest

from promptshap.cli import main

GOLDEN = json.loads((Path(__file__).parent / "help_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]) or "(none)")
def test_help_and_usage_errors_match_their_golden_bytes(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code = main(list(case["argv"]))
    out, err = capsys.readouterr()
    assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])


def test_the_golden_covers_every_command_and_subcommand():
    helped = {tuple(case["argv"][:-1]) for case in GOLDEN if case["argv"][-1:] == ["--help"]}
    assert helped == {(), ("value",), ("curve",), ("learn",), ("predict",), ("verify",),
                      ("simulate",), ("cache",), ("verify", "lemma1"), ("verify", "theorem1"),
                      ("verify", "beta-bounds"), ("cache", "inspect"), ("cache", "compact")}
