"""Smoke tests: each script in scripts/ runs with small arguments, exits 0 and
prints JSON; the theory report agrees with ``promptshap verify theorem1``; the
README's library example runs."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from promptshap.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run_python(*args):
    """stdout of a Python process run with ``src`` on its path; it must exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def run_script(name, *args):
    return json.loads(run_python(str(ROOT / "scripts" / name), *args))


def test_fewer_prompts_demo():
    report = run_script("fewer_prompts_demo.py", "--json")
    assert report["u_full"] == 0.0
    assert report["best_prefix"]["utility"] == 1.0
    assert report["best_prefix"]["k"] < len(report["shapley"])


def test_learnability_experiment():
    report = run_script("learnability_experiment.py", "--prompts", "40", "--json")
    assert report["prompts"] == 40
    assert {(r["field"], r["regressor"]) for r in report["results"]} == {
        (field, kind) for field in ("affine", "tanh") for kind in ("linear", "ridge", "gp")
    }


def test_theory_report_matches_verify_theorem1(capsys):
    flags = {"--n": "5", "--d": "3", "--trials": "3", "--seed": "7"}
    argv = [token for pair in flags.items() for token in pair]
    report = run_script("theory_report.py", "--n-max", "8", *argv)
    assert report["problems"] == []
    assert report["identity"]["cases"] == 28
    rows = report["lipschitz_bound"]
    assert [row["field"] for row in rows] == ["affine", "tanh"]
    for row in rows:
        assert main(["verify", "theorem1", *argv, "--field", row["field"]]) == 0
        assert json.loads(capsys.readouterr().out) == row


def test_readme_library_quick_tour_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick tour", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.S | re.M)
    assert len(blocks) == 1
    assert "BestPrefix(" in run_python("-c", blocks[0])
