"""Smoke tests: each script in scripts/ runs with small arguments, exits 0 and
prints JSON; the theory report agrees with ``promptshap verify theorem1``."""

import json
import os
import subprocess
import sys
from pathlib import Path

from promptshap.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


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
