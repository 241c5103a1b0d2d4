"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at smoke size, each in its own process and in both modes,
and checks that the result line names every metric in BENCHMARK.json with its
unit and reports no failed operation. Then runs the two matrix workloads with
an oracle that is wrong on one coalition by 1/|V| and checks that their error
rate is above 0, and checks that the benchmark refuses to run from a directory
that holds only BENCHMARK.json and the benchmark's own files.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
TIMEOUT_S = 180


def _run(argv, cwd=ROOT):
    proc = subprocess.run([sys.executable, *map(str, argv)], cwd=cwd, capture_output=True,
                          text=True, timeout=TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def _result(argv):
    proc, lines = _run(argv)
    if proc.returncode != 0 or len(lines) < 2:
        raise AssertionError(f"{argv} exited {proc.returncode}: {proc.stderr[-2000:]}")
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        raise AssertionError(f"{argv}: result keys {sorted(result)}")
    return detail, result


def check_workloads(spec: dict, failures: list) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            argv = [BENCH_DIR / "run.py", "--workload", workload, "--seed", "3",
                    "--seconds", "1", "--trace", trace, "--smoke"]
            detail, result = _result(argv)
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != wanted:
                failures.append(f"{workload} trace={trace}: metrics {printed} != {wanted}")
            if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                failures.append(f"{workload} trace={trace}: a metric value is not a number")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{workload} trace={trace}: {detail['problems']}")
            print(f"ok   {workload} trace={trace}: {result['attempted']} jobs", flush=True)


def check_wrong_oracle(failures: list) -> None:
    for workload in ("exact-vote", "mc-cached"):
        argv = [Path(__file__), "--wrong-oracle", "--workload", workload, "--seed", "3",
                "--seconds", "1", "--trace", "0", "--smoke"]
        detail, result = _result(argv)
        if not detail["error_rate"] > 0 or not result["failed"] or result["correct"]:
            failures.append(f"{workload}: a wrong oracle went unnoticed")
        print(f"ok   {workload} wrong oracle: error_rate {detail['error_rate']:.3f}", flush=True)


def check_bare_directory(failures: list) -> None:
    """Without the program's sources the benchmark must fail and print no result."""
    bare = ROOT / ".perfbench-work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copyfile(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc, lines = _run([Path(BENCH_DIR.name) / "run.py", "--workload", "exact-vote",
                            "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    if proc.returncode == 0 or any(line.startswith("{") for line in lines):
        failures.append("the benchmark ran without the program's sources")
    print(f"ok   bare directory: exit {proc.returncode}", flush=True)


def wrong_oracle_child(argv) -> int:
    """Run the benchmark with ``matrix_utility`` off by 1/|V| on the full coalition."""
    import run   # pins BLAS threads before numpy loads

    sys.path.insert(0, str(run.SRC))
    import promptshap.cli  # noqa: F401  (load every module before patching)
    from promptshap import ensemble

    import tracing

    def make(original):
        def matrix_utility(matrix, validation, *args, **kwargs):
            oracle = original(matrix, validation, *args, **kwargs)
            full = (1 << len(matrix.prompt_ids)) - 1

            def wrong(coalition):
                bump = 1 / len(validation.instances) if coalition.mask == full else 0.0
                return oracle(coalition) + bump

            return wrong

        return matrix_utility

    tracing.Patcher().function(ensemble, "matrix_utility", make)
    return run.main(argv)


def main(argv) -> int:
    if argv[:1] == ["--wrong-oracle"]:
        return wrong_oracle_child(argv[1:])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures: list[str] = []
    check_workloads(spec, failures)
    check_wrong_oracle(failures)
    check_bare_directory(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
