"""Smoke tests: each script in scripts/ runs with small arguments, exits 0 and
prints JSON; the theory report agrees with ``promptshap verify theorem1``; the
benchmark pairs runner applies its claim rule; the README's library example
runs."""

import importlib.util
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


def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_smoke_run_writes_the_report(tmp_path):
    out = tmp_path / "BENCH.json"
    run_python(str(ROOT / "scripts" / "bench_pairs.py"), str(ROOT), str(ROOT), "--out", str(out),
               "--pairs", "2", "--seconds", "0.2", "--workload", "exact-vote", "--smoke",
               "--claim", "exact-vote:job_cal")
    report = json.loads(out.read_text())
    assert report["benchmark_identical"] is True
    assert report["claim"]["pairs"] == 2
    entry = report["workloads"]["exact-vote"]
    assert entry["seeds"] == [1, 2] and entry["first"] == ["parent", "change"]
    assert entry["correct"] and entry["failed"] == {"parent": 0, "change": 0}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(entry["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for metric in entry["metrics"].values():
        assert len(metric["parent_runs"]) == len(metric["change_runs"]) == 2
        assert len(metric["parent_quartiles"]) == len(metric["change_quartiles"]) == 2


def test_bench_pairs_claim_rule():
    module = bench_pairs()
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    # lower in 9 of 10 pairs by about 10%, far past the parent's spread
    change = [9.0, 9.1, 8.9, 9.2, 9.0, 10.5, 9.1, 8.8, 9.0, 9.1]
    compared = module.compare(parent, change, bound=0.25, better="lower")
    assert compared["change_wins"] == 9 and compared["status"] == "within bound"
    assert module.claim("w", "job_cal", compared, "lower")["met"] is True
    # lower in 8 of 10: not met, however large the gain
    change[4] = 10.5
    compared = module.compare(parent, change, bound=0.25, better="lower")
    assert compared["change_wins"] == 8
    assert module.claim("w", "job_cal", compared, "lower")["met"] is False
    # lower in every pair, but by less than the parent's interquartile range
    nudged = [p - 0.01 for p in parent]
    claimed = module.claim("w", "job_cal",
                           module.compare(parent, nudged, bound=0.25, better="lower"), "lower")
    assert claimed["change_wins"] == 10 and claimed["met"] is False
    # 30% worse is past a 25% bound; a wide parent spread leaves a small move unresolved
    assert module.compare(parent, [1.3 * p for p in parent], 0.25, "lower")["status"] == (
        "past bound")
    wide = [1.0, 2.0, 1.0, 2.0, 1.5, 1.5, 1.0, 2.0, 1.0, 2.0]
    assert module.compare(wide, wide[::-1], 0.25, "lower")["status"] == "unresolved"
    assert module.compare(wide, [0.9] * 10, 0.25, "lower")["status"] == "within bound"
