"""Alternating-pairs comparison of two checkouts on the repository's benchmark.

    python scripts/bench_pairs.py PARENT CHANGE --out BENCH_N.json
        [--pairs 10] [--first-seed S] [--seconds T] [--workload W ...]
        [--claim WORKLOAD:METRIC] [--smoke]

PARENT and CHANGE are two checkouts, for example ``git archive`` copies of
the parent commit and of the change. Each side runs its own
``perfbench/run.py``, unchanged, one process per run with ``--trace 0``,
from its own directory. Pair i (0-based) uses seed ``first-seed + i`` and runs
every workload in turn; per workload both sides run one after the other, the
parent first in even pairs and the change first in odd ones.

Per workload and end-to-end metric the report holds each side's median,
quartiles (``statistics.quantiles(n=4)``) and raw runs, ``change_vs_parent``
(change median / parent median - 1), ``parent_spread`` (the parent's
interquartile range over its median), ``change_wins`` (pairs where the change
reads better; ties count for neither) and a status against the metric's
bound in BENCHMARK.json: "past bound" when the change's median is worse by
more than the bound, "unresolved" when the parent's own spread is wider than
the bound and not every change run reads better than every parent run, and
"within bound" otherwise. The claim rule: the change reads better in at least
nine tenths of the pairs, and the medians differ by more than the parent's
interquartile range. What the change is, and any notes on the runs, are
for the report's author to add.

``--smoke`` passes ``--smoke`` to the benchmark (small inputs), for a quick
check of the protocol; its numbers measure nothing.
"""

import argparse
import filecmp
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree: Path, workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    """The detail and result lines of one ``perfbench/run.py`` process in ``tree``."""
    argv = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if smoke:
        argv.append("--smoke")
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          timeout=4 * seconds + 300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    return {"detail": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def compare(parent_runs: list, change_runs: list, bound: float, better: str) -> dict:
    """One metric's two sides, from runs listed pair by pair."""
    sign = 1.0 if better == "lower" else -1.0
    parent_median = statistics.median(parent_runs)
    change_median = statistics.median(change_runs)
    p1, _, p3 = statistics.quantiles(parent_runs, n=4)
    c1, _, c3 = statistics.quantiles(change_runs, n=4)
    change_vs_parent = change_median / parent_median - 1.0
    parent_spread = (p3 - p1) / parent_median
    every_run_better = max(sign * c for c in change_runs) < min(sign * p for p in parent_runs)
    if sign * change_vs_parent > bound:
        status = "past bound"
    elif parent_spread > bound and not every_run_better:
        status = "unresolved"
    else:
        status = "within bound"
    return {
        "parent_median": parent_median,
        "change_median": change_median,
        "parent_quartiles": [p1, p3],
        "change_quartiles": [c1, c3],
        "change_vs_parent": change_vs_parent,
        "parent_spread": parent_spread,
        "bound": bound,
        "change_wins": sum(sign * (c - p) < 0 for p, c in zip(parent_runs, change_runs)),
        "status": status,
        "parent_runs": parent_runs,
        "change_runs": change_runs,
    }


def claim(workload: str, metric: str, compared: dict, better: str) -> dict:
    """The claim rule on one compared metric."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = len(compared["parent_runs"])
    p1, p3 = compared["parent_quartiles"]
    gain = sign * (compared["parent_median"] - compared["change_median"])
    return {
        "workload": workload,
        "metric": metric,
        "pairs": pairs,
        "parent_median": compared["parent_median"],
        "change_median": compared["change_median"],
        "ratio": compared["change_median"] / compared["parent_median"],
        "median_gain": gain,
        "parent_iqr": p3 - p1,
        "change_wins": compared["change_wins"],
        "met": 10 * compared["change_wins"] >= 9 * pairs and gain > p3 - p1,
    }


def same_benchmark(parent: Path, change: Path) -> bool:
    """Both trees hold byte-identical benchmark files."""
    if not filecmp.cmp(parent / "BENCHMARK.json", change / "BENCHMARK.json", shallow=False):
        return False
    names = sorted(p.name for p in (parent / "perfbench").glob("*.py"))
    if names != sorted(p.name for p in (change / "perfbench").glob("*.py")):
        return False
    _, mismatch, errors = filecmp.cmpfiles(parent / "perfbench", change / "perfbench", names,
                                           shallow=False)
    return not (mismatch or errors)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True, help="the report, e.g. BENCH_41.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="run length; BENCHMARK.json's run_seconds by default")
    parser.add_argument("--workload", action="append",
                        help="a workload to run (repeatable); every workload by default")
    parser.add_argument("--claim", help="WORKLOAD:METRIC to test under the claim rule")
    parser.add_argument("--smoke", action="store_true", help="small benchmark inputs")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    spec = json.loads((change / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    claimed = args.claim.split(":") if args.claim else None
    if claimed and (len(claimed) != 2 or claimed[0] not in workloads
                    or claimed[1] not in metrics):
        raise SystemExit(f"--claim {args.claim}: not a WORKLOAD:METRIC of this run")
    identical = same_benchmark(parent, change)
    if not identical:
        print("warning: the two trees' benchmark files differ", file=sys.stderr)
    seeds = [args.first_seed + i for i in range(args.pairs)]
    firsts = ["parent" if i % 2 == 0 else "change" for i in range(args.pairs)]
    trees = {"parent": parent, "change": change}
    runs = {w: {"parent": [], "change": []} for w in workloads}
    for seed, first in zip(seeds, firsts):
        order = (first, "change" if first == "parent" else "parent")
        for workload in workloads:
            for side in order:
                runs[workload][side].append(
                    run_once(trees[side], workload, seed, seconds, args.smoke))
                print(f"seed {seed} {workload} {side} done", file=sys.stderr, flush=True)

    report_workloads = {}
    for workload, sides in runs.items():
        results = {side: [run["result"] for run in sides[side]] for side in sides}
        report_workloads[workload] = {
            "pairs": args.pairs,
            "seeds": seeds,
            "first": firsts,
            "failed": {side: sum(r["failed"] for r in results[side]) for side in results},
            "attempted": {side: sum(r["attempted"] for r in results[side]) for side in results},
            "correct": all(r["correct"] for side in results for r in results[side]),
            "metrics": {
                name: compare([r["metrics"][name]["value"] for r in results["parent"]],
                              [r["metrics"][name]["value"] for r in results["change"]],
                              metric["bound"], metric["better"])
                for name, metric in metrics.items()
            },
        }
    env = runs[workloads[0]]["parent"][0]["detail"]["env"]
    report = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
                   f"--trace 0{' --smoke' if args.smoke else ''}",
        "hardware": {key: env[key] for key in ("cpu", "nproc", "python", "numpy")},
        "protocol": (
            f"{args.pairs} alternating pairs on seeds {seeds[0]}-{seeds[-1]}, the parent first "
            "in even-numbered pairs (0-based); each pair runs every workload in turn and, per "
            "workload, both sides one after the other, one process per run, each side from "
            "its own tree; quartiles are statistics.quantiles(n=4); parent_spread is "
            "(q3 - q1) / median of the parent's runs; change_wins counts pairs where the "
            "change reads better"),
        "benchmark_identical": identical,
        "claim": None,
        "workloads": report_workloads,
    }
    if claimed:
        workload, metric = claimed
        report["claim"] = claim(workload, metric,
                                report_workloads[workload]["metrics"][metric],
                                metrics[metric]["better"])
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({
        "claim": report["claim"],
        "status": {w: {name: m["status"] for name, m in entry["metrics"].items()}
                   for w, entry in report_workloads.items()},
    }, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
