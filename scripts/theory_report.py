"""One-shot numerical verification report.

Runs every theory check and prints a single JSON document:

- the Shapley coefficient identity swept over n in [2, n_max] in exact
  rational arithmetic;
- the Lipschitz transfer bound for affine and tanh mean-field games over
  random embeddings;
- Beta interval bounds (exact vs normal vs Taylor polynomial) for a grid of
  shape parameters;
- the single-classifier perturbation simulator for small and large ensembles.

Run:  python scripts/theory_report.py [--n-max 64] [--trials 100] [--out FILE]
"""

import argparse
import json
import sys

from promptshap import BetaSpec, ensemble_perturbation, theorem1_experiment
from promptshap.theory import beta_bounds_report, lemma1_sweep, theorem1_game


def field_bound_report(kind: str, n: int, d: int, trials: int, seed: int) -> dict:
    report = theorem1_experiment(theorem1_game(n, d, seed, kind), trials=trials, seed=seed)
    report["field"] = kind
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-max", type=int, default=64, help="identity sweep upper bound")
    parser.add_argument("--n", type=int, default=6, help="players per Lipschitz game")
    parser.add_argument("--d", type=int, default=4, help="embedding dimension")
    parser.add_argument("--trials", type=int, default=100, help="resampled games per field")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    args = parser.parse_args()

    report = {
        "identity": lemma1_sweep(args.n_max),
        "lipschitz_bound": [
            field_bound_report(kind, args.n, args.d, args.trials, args.seed)
            for kind in ("affine", "tanh")
        ],
        "beta_bounds": [
            beta_bounds_report(BetaSpec(alpha, beta), eps)
            for alpha, beta, eps in [
                (1.0, 1.0, 0.1),
                (2.0, 2.0, 0.1),
                (50.0, 50.0, 0.01),
                (500.0, 500.0, 0.01),
            ]
        ],
        "perturbation": [
            ensemble_perturbation(BetaSpec(50.0, 50.0), n_classifiers=n, num_instances=10000,
                                  k=0, delta=0.5, seed=args.seed, trials=100)
            for n in (10, 100)
        ],
    }

    problems = []
    if not report["identity"]["equal"]:
        problems.append("coefficient identity failed")
    for row in report["lipschitz_bound"]:
        if row["violations"]:
            problems.append(f"{row['field']} field violated the transfer bound")
    for row in report["perturbation"]:
        if row["exceed_count"]:
            problems.append(f"N={row['n_classifiers']} flips exceeded the bound")
        if row["identity_max_abs_err"] > 1e-12:
            problems.append(f"N={row['n_classifiers']} mean-shift identity error too large")
    report["problems"] = problems

    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    if problems:
        print("verification problems: " + "; ".join(problems), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
