"""Acceptance gate: ten end-to-end criteria with stated tolerances and budgets.

Each test prints one [PASS]/[FAIL] line (bypassing capture) with its elapsed
time against the budget, then asserts. Everything runs offline; criterion 10
drives the CLI against the in-process stub server from conftest.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from promptshap.cli import main
from promptshap.coalition import Coalition
from promptshap.ensemble import Rule, matrix_utility
from promptshap.game import (
    GameSpec,
    shapley_exact,
    shapley_montecarlo,
)
from promptshap.learning import RegressorKind, RegressorSpec, holdout_eval
from promptshap.rng import SplitMix64, derive_seed
from promptshap.selection import best_prefix, rank_add_curve
from promptshap.theory import (
    BetaSpec,
    beta_bounds_report,
    ensemble_perturbation,
    lemma1_sweep,
    mean_field_shapley,
    theorem1_experiment,
    theorem1_game,
)

from conftest import (
    ReferenceSplitMix64,
    glove_utility,
    make_adversarial_fixture,
    random_table_game,
    shapley_permutation_rational,
    shapley_subset_rational,
    stub_manifest_rows,
    stub_question_rows,
    write_jsonl,
)


def finish(capsys, num, desc, problems, start, limit):
    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < limit
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {num}: {desc} ({elapsed:.2f}s, limit {limit:g}s)"
    with capsys.disabled():
        print(line)
    assert elapsed < limit, f"over budget: {elapsed:.2f}s >= {limit}s"
    assert not problems, "; ".join(problems[:10])


def test_acceptance_01_shapley_axioms(capsys):
    start = time.perf_counter()
    problems = []
    games_checked = 0
    for s in range(100):
        n = 2 + s % 9

        game = random_table_game(n, seed=1000 + s)
        result = shapley_exact(game)
        gap = abs(math.fsum(result.values) - (result.u_full - result.u_empty))
        if gap > 1e-9:
            problems.append(f"seed {s}: efficiency gap {gap:.3g}")
        games_checked += 1

        # null player: a copy of the game that ignores player 0
        def null_utility(c, _g=game, _n=n):
            return _g.utility(Coalition(c.mask & ~1, _n))

        null_game = GameSpec(n=n, utility=null_utility,
                             u_empty=game.utility(Coalition(0, n)))
        null_sv = shapley_exact(null_game).values[0]
        if abs(null_sv) > 1e-9:
            problems.append(f"seed {s}: null player got {null_sv:.3g}")
        games_checked += 1

        # symmetry: utility depends on players 0 and 1 only through their count
        base = random_table_game(n, seed=5000 + s)

        def sym_utility(c, _b=base, _n=n):
            others = c.mask >> 2
            pair = (c.mask & 3).bit_count()
            return _b.utility(Coalition(others, _n)) * (1.0 + 0.5 * pair)

        sym = shapley_exact(GameSpec(n=n, utility=sym_utility)).values
        if abs(sym[0] - sym[1]) > 1e-9:
            problems.append(f"seed {s}: symmetric players differ by {abs(sym[0]-sym[1]):.3g}")
        games_checked += 1

        # linearity: values of a1*u1 + a2*u2 are the same combination of values
        g1 = random_table_game(n, seed=7000 + s)
        g2 = random_table_game(n, seed=8000 + s)

        def combo_utility(c, _g1=g1, _g2=g2):
            return _g1.utility(c) + 2.0 * _g2.utility(c)

        combo = shapley_exact(GameSpec(n=n, utility=combo_utility,
                                       u_empty=combo_utility(Coalition(0, n)))).values
        v1 = shapley_exact(g1).values
        v2 = shapley_exact(g2).values
        lin_gap = max(abs(combo[i] - (v1[i] + 2.0 * v2[i])) for i in range(n))
        if lin_gap > 1e-9:
            problems.append(f"seed {s}: linearity gap {lin_gap:.3g}")
        games_checked += 3

    if games_checked < 100:
        problems.append(f"only {games_checked} games checked")
    finish(capsys, 1, "Shapley axioms on seeded games, n in [2, 10]", problems, start, 30.0)


def test_acceptance_02_rational_equivalence(capsys):
    start = time.perf_counter()
    problems = []
    for seed in range(25):
        n = 2 + seed % 5
        rng = ReferenceSplitMix64(4000 + seed)
        table = [Fraction(rng.randbelow(1000), 1000) for _ in range(1 << n)]

        def frac_utility(c, _t=table):
            return _t[c.mask]

        subset_form = shapley_subset_rational(n, frac_utility)
        permutation_form = shapley_permutation_rational(n, frac_utility)
        if subset_form != permutation_form:
            problems.append(f"seed {seed}: rational forms disagree")

        def float_utility(c, _t=table):
            return float(_t[c.mask])

        floats = shapley_exact(GameSpec(n=n, utility=float_utility,
                                        u_empty=float(table[0]))).values
        drift = max(abs(float(subset_form[i]) - floats[i]) for i in range(n))
        if drift > 1e-9:
            problems.append(f"seed {seed}: float drift {drift:.3g}")
    finish(capsys, 2, "exact rational arithmetic matches both Shapley forms, 25 games",
           problems, start, 60.0)


def test_acceptance_03_montecarlo_convergence(capsys):
    start = time.perf_counter()
    problems = []
    games = [GameSpec(n=3, utility=glove_utility)]
    games += [random_table_game(8, seed=2000 + g) for g in range(20)]
    total = 0
    within_tol = 0
    for g, game in enumerate(games):
        exact = shapley_exact(game).values
        mc = shapley_montecarlo(game, 50_000, seed=derive_seed(g, "acceptance:mc"))
        for i in range(game.n):
            deviation = abs(mc.values[i] - exact[i])
            total += 1
            if deviation <= 0.01:
                within_tol += 1
            se = mc.stderr[i]
            if not (deviation < 4.0 * se or (deviation == 0.0 and se == 0.0)):
                problems.append(
                    f"game {g} player {i}: deviation {deviation:.4g} >= 4*stderr {4*se:.4g}"
                )
    fraction = within_tol / total
    if fraction < 0.95:
        problems.append(f"only {fraction:.1%} of estimates within 0.01")
    finish(capsys, 3, "Monte Carlo at T=50000: 95% within 0.01, all under 4 stderr",
           problems, start, 120.0)


def test_acceptance_04_coefficient_identity(capsys):
    start = time.perf_counter()
    problems = []
    report = lemma1_sweep(64)
    if report["cases"] != 2016:
        problems.append(f"expected 2016 cases, saw {report['cases']}")
    if not report["equal"]:
        problems.append(f"{len(report['failures'])} failing cases")
    finish(capsys, 4, "coefficient identity, all (n, k) with n in [2, 64]",
           problems, start, 1.0)


def test_acceptance_05_value_difference_bound(capsys):
    start = time.perf_counter()
    problems = []
    n, d, trials, seed = 6, 4, 100, 0
    for field_kind in ("affine", "tanh"):
        game = theorem1_game(n, d, seed, field_kind)
        report = theorem1_experiment(game, trials=trials, seed=seed)
        if report["violations"] != 0:
            problems.append(f"{field_kind}: {report['violations']} violations")
        if report["pairs_checked"] != trials * n * (n - 1) // 2:
            problems.append(f"{field_kind}: only {report['pairs_checked']} pairs checked")
    finish(capsys, 5, "value-difference bound, affine and tanh fields, 100 seeds each",
           problems, start, 120.0)


def test_acceptance_06_beta_interval_bounds(capsys):
    start = time.perf_counter()
    problems = []
    exact_22 = beta_bounds_report(BetaSpec(2, 2), 0.1)["exact"]
    if abs(exact_22 - 0.2960) > 1e-6:
        problems.append(f"Be(2,2) exact {exact_22!r} != 0.2960")
    be50 = beta_bounds_report(BetaSpec(50, 50), 0.01)
    rel_50 = abs(be50["normal"] - be50["exact"]) / be50["exact"]
    if rel_50 >= 0.02:
        problems.append(f"Be(50,50) normal relative error {rel_50:.3%} >= 2%")
    be500 = beta_bounds_report(BetaSpec(500, 500), 0.01)
    rel_500 = abs(be500["normal"] - be500["exact"]) / be500["exact"]
    if rel_500 >= 0.005:
        problems.append(f"Be(500,500) normal relative error {rel_500:.3%} >= 0.5%")
    if not beta_bounds_report(BetaSpec(1, 1), 0.1)["poly_out_of_validity"]:
        problems.append("poly validity flag did not fire on Be(1,1)")
    finish(capsys, 6, "Beta interval mass: exact value, normal error, poly flag",
           problems, start, 5.0)


def test_acceptance_07_perturbation_identity_and_bound(capsys):
    start = time.perf_counter()
    problems = []
    for n_classifiers in (10, 100):
        report = ensemble_perturbation(
            BetaSpec(50, 50), n_classifiers=n_classifiers, num_instances=10_000,
            k=0, delta=0.5, seed=0, trials=100,
        )
        if report["identity_instances"] != 10_000:
            problems.append(f"N={n_classifiers}: identity ran on too few instances")
        if report["identity_max_abs_err"] > 1e-12:
            problems.append(
                f"N={n_classifiers}: identity error {report['identity_max_abs_err']:.3g}"
            )
        if report["exceed_count"] != 0:
            problems.append(
                f"N={n_classifiers}: flip bound exceeded in {report['exceed_count']} trials"
            )
    finish(capsys, 7, "mean-shift identity at machine precision, flip bound never exceeded",
           problems, start, 60.0)


def test_acceptance_08_adversarial_ranking(capsys):
    start = time.perf_counter()
    problems = []
    matrix, validation = make_adversarial_fixture()
    oracle = matrix_utility(matrix, validation, Rule.VOTE)
    game = GameSpec(n=6, utility=oracle)
    result = shapley_exact(game)
    if result.u_full != 0.0:
        problems.append(f"full-set utility {result.u_full} != 0.0")
    worst_correct = min(result.values[:3])
    best_adversarial = max(result.values[3:])
    if worst_correct <= best_adversarial:
        problems.append("correct prompts do not outrank adversarial ones")
    curve = rank_add_curve(result, list(matrix.prompt_ids), game.batch)
    best = best_prefix(curve)
    if best.utility != 1.0:
        problems.append(f"best prefix utility {best.utility} != 1.0")
    if best.k > 3:
        problems.append(f"best prefix k={best.k} > 3")
    finish(capsys, 8, "adversarial fixture: ranking and a perfect small prefix",
           problems, start, 5.0)


def test_acceptance_09_value_learnability(capsys):
    start = time.perf_counter()
    problems = []
    n, d = 200, 4
    emb_rng = SplitMix64(derive_seed(42, "learnability:embeddings"))
    E = np.array([[2.0 * emb_rng.uniform() - 1.0 for _ in range(d)] for _ in range(n)])
    field_rng = SplitMix64(derive_seed(42, "learnability:field"))
    w = np.array([2.0 * field_rng.uniform() - 1.0 for _ in range(d)])

    affine_values = mean_field_shapley(E @ w + 0.3)
    for kind in (RegressorKind.LINEAR, RegressorKind.RIDGE):
        report = holdout_eval(E, affine_values, RegressorSpec(kind=kind),
                              split_seed=7, fraction=0.2)
        if report["pearson"] < 0.95:
            problems.append(f"{kind.value} on affine values: r={report['pearson']:.4f} < 0.95")

    nonlinear_values = mean_field_shapley(np.tanh(E @ w + 0.1))
    report = holdout_eval(E, nonlinear_values,
                          RegressorSpec(kind=RegressorKind.GAUSSIAN_PROCESS),
                          split_seed=7, fraction=0.2)
    if report["pearson"] < 0.90:
        problems.append(f"gp on nonlinear values: r={report['pearson']:.4f} < 0.90")
    finish(capsys, 9, "values of 200-prompt games are learnable from embeddings",
           problems, start, 120.0)


def test_acceptance_10_end_to_end_reproducibility(stub, stub_api, tmp_path, capsys):
    start = time.perf_counter()
    problems = []
    manifest_path = tmp_path / "manifest.jsonl"
    write_jsonl(manifest_path, stub_manifest_rows())
    questions_path = tmp_path / "questions.jsonl"
    write_jsonl(questions_path, stub_question_rows())
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "schema_version": 1,
        "utility_mode": "live-augmentation",
        "paths": {
            "manifest": str(manifest_path),
            "questions": str(questions_path),
            "utility_cache": str(tmp_path / "utility.jsonl"),
            "response_cache": str(tmp_path / "responses.jsonl"),
        },
        "api": {
            "base_url": stub_api.base_url,
            "model": stub_api.model,
            "backoff_base": 0.01,
            "timeout": 10.0,
        },
    }))
    values_path = tmp_path / "values.json"
    out_dir = tmp_path / "curves"

    def run_pipeline():
        rc = main(["value", "--config", str(config_path),
                   "--method", "exact", "--out", str(values_path)])
        if rc != 0:
            problems.append(f"value command exited {rc}: {capsys.readouterr().err}")
        rc = main(["curve", "--config", str(config_path),
                   "--values", str(values_path), "--out-dir", str(out_dir)])
        captured = capsys.readouterr()
        if rc != 0:
            problems.append(f"curve command exited {rc}: {captured.err}")
        return {
            "values": values_path.read_bytes(),
            "curve_csv": (out_dir / "curve.csv").read_bytes(),
            "curve_json": (out_dir / "curve.json").read_bytes(),
            "stdout": captured.out,
        }

    first = run_pipeline()
    second = run_pipeline()
    for key in first:
        if first[key] != second[key]:
            problems.append(f"{key} changed between runs")

    values_doc = json.loads(first["values"])
    if abs(values_doc["u_full"] - 2 / 3) > 1e-12:
        problems.append(f"u_full {values_doc['u_full']} != 2/3")
    if abs(values_doc["u_empty"] - 1 / 3) > 1e-12:
        problems.append(f"u_empty {values_doc['u_empty']} != 1/3")
    summary = json.loads(first["stdout"])
    if summary["best_prefix"]["k"] != 2 or summary["best_prefix"]["utility"] != 1.0:
        problems.append(f"unexpected best prefix {summary['best_prefix']}")
    finish(capsys, 10, "stub-backed CLI pipeline is byte-identical across runs",
           problems, start, 60.0)
