"""Fewer prompts can beat the full set.

Builds a six-prompt fixture where three prompts always answer correctly and
three always answer incorrectly, so majority vote over the full set ties and
abstains on every instance (utility 0). Shapley values rank the correct
prompts first, and the rank-and-add curve finds a small prefix with perfect
accuracy.

Run:  python scripts/fewer_prompts_demo.py [--json]
"""

import argparse
import json

import numpy as np

from promptshap import (
    GameSpec,
    Mode,
    PredictionMatrix,
    Rule,
    ValidationSet,
    best_prefix,
    loo_values,
    matrix_utility,
    rank_add_curve,
    shapley_exact,
)
from promptshap.selection import curve_to_csv


def build_fixture():
    golds = (0, 1, 0, 1)
    instance_ids = tuple(f"q{i}" for i in range(len(golds)))
    validation = ValidationSet(instances=tuple(zip(instance_ids, golds)), num_labels=2)
    rows = [list(golds)] * 3 + [[1 - g for g in golds]] * 3
    matrix = PredictionMatrix(
        prompt_ids=("c0", "c1", "c2", "x0", "x1", "x2"),
        instance_ids=instance_ids,
        mode=Mode.HARD_LABEL,
        num_labels=2,
        hard=np.array(rows, dtype=np.int64),
    )
    return matrix, validation


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", action="store_true", help="emit a JSON report instead of text")
    args = parser.parse_args()

    matrix, validation = build_fixture()
    game = GameSpec(n=6, batch=matrix_utility(matrix, validation, Rule.VOTE).batch)
    ids = list(matrix.prompt_ids)

    shapley = shapley_exact(game)
    loo = loo_values(game)
    curve = rank_add_curve(shapley, ids, game.batch)
    best = best_prefix(curve)

    if args.json:
        print(json.dumps({
            "u_full": shapley.u_full,
            "shapley": dict(zip(ids, shapley.values)),
            "leave_one_out": dict(zip(ids, loo.values)),
            "curve": [
                {"k": p.k, "added": p.added_prompt_id, "utility": p.utility}
                for p in curve.points
            ],
            "best_prefix": {"k": best.k, "utility": best.utility,
                            "prompt_ids": list(best.prompt_ids)},
        }, indent=2))
        return 0

    print(f"full-set accuracy U(N) = {shapley.u_full}")
    print(f"empty-set accuracy U(0) = {shapley.u_empty}")
    print()
    print(f"{'prompt':<8}{'shapley':>10}{'loo':>10}")
    for i, pid in enumerate(ids):
        print(f"{pid:<8}{shapley.values[i]:>10.4f}{loo.values[i]:>10.4f}")
    print()
    print("rank-and-add curve:")
    print(curve_to_csv(curve), end="")
    print()
    print(f"best prefix: k = {best.k}, prompts = {', '.join(best.prompt_ids)}, "
          f"utility = {best.utility} (vs {shapley.u_full} for all six)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
