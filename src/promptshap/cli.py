"""Command-line entry point.

Subcommands: value, curve, learn, predict, verify, simulate, cache. Every
failure writes one machine-readable JSON object to stderr and exits with a
code that identifies the failure class:

    0   success
    1   runtime failure (oracle, transport, verification, unexpected)
    2   usage error
    3   malformed configuration
    4   missing or rejected credential
"""

from __future__ import annotations

import argparse
import fcntl
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from .cache import ResponseCache, UtilityCache, cached_utility, compact_file, inspect_file
from .client import augmentation_utility, embed, load_manifest, load_questions
from .coalition import Coalition
from .config import RunConfig, UtilityMode, load_config
from .ensemble import load_matrix, load_validation, matrix_utility
from .errors import ConfigError, ConsistencyError, PromptShapError, ProtocolError
from .game import GameSpec, Method, loo_values, shapley_exact, shapley_montecarlo
from .jsonio import dumps, read_json
from .learning import (
    EmbeddingMatrix,
    RegressorKind,
    fit_regressor,
    holdout_eval,
    load_embeddings,
    load_model,
    predict_sv,
    save_model,
)
from .rng import derive_seed
from .selection import best_prefix, curve_to_csv, curve_to_json_dict, rank_add_curve
from .theory import (
    BetaSpec,
    beta_bounds_report,
    ensemble_perturbation,
    lemma1_sweep,
    theorem1_experiment,
    theorem1_game,
)

_EXIT_CODES_HELP = """\
exit codes:
  0  success
  1  runtime failure (oracle, transport, verification, unexpected)
  2  usage error
  3  malformed configuration
  4  missing or rejected credential (PROMPTSHAP_API_KEY)
"""

_METHOD_ALIASES = {
    "exact": Method.EXACT,
    "mc": Method.MONTE_CARLO,
    "montecarlo": Method.MONTE_CARLO,
    "loo": Method.LEAVE_ONE_OUT,
}


class _Parser(argparse.ArgumentParser):
    """argparse with machine-readable usage errors (exit code 2)."""

    def error(self, message):
        sys.stderr.write(
            dumps({"error": "UsageError", "message": message, "usage": self.format_usage().strip()})
        )
        raise SystemExit(2)


def _emit(doc: dict, out_path=None) -> None:
    text = dumps(doc)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _values_from_doc(doc: dict):
    """Parser for ``read_json`` over a values file: (doc, player ids, values)."""
    players = doc.get("players")
    if not isinstance(players, list) or not players:
        raise ValueError("missing non-empty 'players' list")
    u_full = doc.get("u_full")
    ids = [str(p["id"]) for p in players]
    values = [float(p["value"]) for p in players]
    numbers = values if u_full is None else values + [float(u_full)]
    if len(set(ids)) != len(ids):
        raise ValueError("player ids must be unique")
    # json.load parses NaN and Infinity; a NaN value would rank first and a
    # NaN u_full would pass the curve's full-set check
    if not all(math.isfinite(x) for x in numbers):
        raise ValueError("values and u_full must be finite numbers")
    return doc, ids, values


@contextmanager
def _own_caches(*paths):
    """Advisory exclusive locks so one process owns each cache file per run."""
    handles = []
    try:
        for path in paths:
            if path is None:
                continue
            fh = open(path + ".lock", "w")
            try:
                fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                fh.close()
                raise PromptShapError(
                    f"cache file {path} is in use by another process", path=path
                ) from None
            handles.append(fh)
        yield
    finally:
        for fh in handles:
            fcntl.flock(fh, fcntl.LOCK_UN)
            fh.close()


def _require_path(value, key: str) -> str:
    if value is None:
        raise ConfigError(f"this command needs paths.{key} in the config")
    return value


def _build_game(cfg: RunConfig):
    """Construct (GameSpec, prompt ids) for the configured utility mode."""
    if cfg.utility_mode is UtilityMode.LIVE_AUGMENTATION:
        manifest = load_manifest(_require_path(cfg.paths.manifest, "manifest"))
        questions = load_questions(_require_path(cfg.paths.questions, "questions"))
        if cfg.paths.response_cache:
            response_cache = ResponseCache.load(cfg.paths.response_cache)
        else:
            response_cache = ResponseCache()
        oracle = augmentation_utility(manifest, questions, cfg.task, response_cache, cfg.api)
        ids = list(manifest.ids)
    else:
        validation = load_validation(_require_path(cfg.paths.validation, "validation"))
        matrix = load_matrix(
            _require_path(cfg.paths.matrix, "matrix"), num_labels=validation.num_labels
        )
        oracle = matrix_utility(
            matrix, validation, cfg.utility_mode.rule, tie=cfg.tie_rule,
            u_empty=cfg.game.u_empty,
        )
        ids = list(matrix.prompt_ids)
    n = len(ids)
    if cfg.paths.utility_cache:
        oracle = cached_utility(UtilityCache.load(cfg.paths.utility_cache), oracle)
    if cfg.utility_mode is UtilityMode.LIVE_AUGMENTATION:
        # the augmentation oracle defines its own zero-shot U(empty)
        u_empty = oracle(Coalition.empty(n))
    else:
        u_empty = cfg.game.u_empty
    return GameSpec(n=n, utility=oracle, u_empty=u_empty), ids


def cmd_value(args) -> int:
    cfg = load_config(args.config)
    method = _METHOD_ALIASES[args.method] if args.method else cfg.game.method
    seed = args.seed if args.seed is not None else cfg.game.seed
    with _own_caches(cfg.paths.utility_cache, cfg.paths.response_cache):
        game, ids = _build_game(cfg)
        if method is Method.EXACT:
            result = shapley_exact(game, exact_cap=cfg.game.exact_cap)
        elif method is Method.MONTE_CARLO:
            result = shapley_montecarlo(
                game,
                cfg.game.permutations,
                truncation_tol=cfg.game.truncation_tol,
                seed=derive_seed(seed, "shapley:montecarlo"),
            )
        else:
            result = loo_values(game)
    _emit(result.to_json_dict(ids), args.out)
    return 0


def cmd_curve(args) -> int:
    cfg = load_config(args.config)
    values_doc, doc_ids, doc_values = read_json(args.values, _values_from_doc)
    with _own_caches(cfg.paths.utility_cache, cfg.paths.response_cache):
        game, ids = _build_game(cfg)
        if sorted(doc_ids) != sorted(ids):
            raise ConsistencyError(
                "player ids in the values file do not match the configured game",
                values_ids=sorted(doc_ids),
                game_ids=sorted(ids),
            )
        by_id = dict(zip(doc_ids, doc_values))
        curve = rank_add_curve([by_id[i] for i in ids], ids, game.utility)
    best = None
    if curve.error is None:
        last_utility = curve.points[-1].utility
        doc_u_full = values_doc.get("u_full")
        if doc_u_full is not None and abs(last_utility - float(doc_u_full)) > 1e-9:
            raise ConsistencyError(
                "final curve point does not equal the full-coalition utility "
                "recorded in the values file",
                curve_u_full=last_utility,
                values_u_full=doc_u_full,
            )
        best = best_prefix(curve)
    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "curve.csv")
    json_path = os.path.join(out_dir, "curve.json")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(curve_to_csv(curve))
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(dumps(curve_to_json_dict(curve, best)))
    if curve.error is not None:
        raise PromptShapError(
            f"utility oracle failed at k={curve.failed_k}; partial curve written",
            failed_k=curve.failed_k,
            oracle_error=curve.error,
            curve_csv=csv_path,
            curve_json=json_path,
        )
    _emit(
        {
            "best_prefix": {
                "k": best.k,
                "utility": best.utility,
                "prompt_ids": list(best.prompt_ids),
            },
            "curve_csv": csv_path,
            "curve_json": json_path,
            "u_full": curve.points[-1].utility,
        },
        args.out,
    )
    return 0


def cmd_learn(args) -> int:
    cfg = load_config(args.config)
    embeddings = load_embeddings(args.embeddings)
    _, ids, values = read_json(args.values, _values_from_doc)
    X = embeddings.select(ids)
    kind = RegressorKind(args.model) if args.model else cfg.regressor.kind
    spec = replace(cfg.regressor, kind=kind)
    y = np.asarray(values, dtype=np.float64)
    report = holdout_eval(
        X.vectors,
        y,
        spec,
        split_seed=derive_seed(cfg.game.seed, "learn:holdout"),
        fraction=args.fraction,
        ids=ids,
    )
    model = fit_regressor(X.vectors, y, spec)
    save_model(model, args.out)
    report["model_path"] = args.out
    _emit(report, None)
    return 0


def cmd_predict(args) -> int:
    cfg = load_config(args.config)
    model = load_model(args.model)
    manifest = load_manifest(args.manifest)
    if cfg.paths.embeddings is not None:
        X = load_embeddings(cfg.paths.embeddings).select(manifest.ids)
    else:  # EmbeddingMatrix rejects a non-finite vector from the endpoint
        X = EmbeddingMatrix(manifest.ids, embed(manifest.texts, cfg.api))
    vectors = X.vectors
    if cfg.api.embeddings_unit_norm:
        norms = np.linalg.norm(vectors, axis=1)
        if np.any(norms == 0):
            raise ProtocolError("cannot unit-normalize a zero embedding vector")
        vectors = vectors / norms[:, None]
    predictions = predict_sv(model, vectors)
    _emit(
        {
            "kind": model.kind.value,
            "predictions": [
                {"id": pid, "value": float(v)}
                for pid, v in zip(manifest.ids, predictions)
            ],
        },
        args.out,
    )
    return 0


def cmd_verify(args) -> int:
    if args.check == "lemma1":
        report = lemma1_sweep(args.n_max)
        _emit(report, None)
        if report["failures"]:
            raise PromptShapError(
                f"coefficient identity failed on {len(report['failures'])} cases"
            )
        return 0
    if args.check == "theorem1":
        game = theorem1_game(args.n, args.d, args.seed, args.field)
        report = theorem1_experiment(game, args.trials, args.seed)
        report["field"] = args.field
        _emit(report, None)
        if report["violations"]:
            raise PromptShapError(f"{report['violations']} Lipschitz bound violations")
        return 0
    report = beta_bounds_report(BetaSpec(args.alpha, args.beta), args.epsilon)
    _emit(report, None)
    return 0


def cmd_simulate(args) -> int:
    report = ensemble_perturbation(
        BetaSpec(args.alpha, args.beta),
        args.n_classifiers,
        args.instances,
        args.k,
        args.delta,
        args.seed,
        args.trials,
    )
    _emit(report, None)
    return 0


def cmd_cache(args) -> int:
    if args.op == "inspect":
        _emit(inspect_file(args.path), None)
    else:
        _emit(compact_file(args.path), None)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="promptshap",
        description="Shapley-value prompt valuation: exact, Monte Carlo, and "
        "leave-one-out attribution over prompt coalitions, rank-and-add "
        "selection curves, value regression, and theory checks.",
        epilog=_EXIT_CODES_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("value", help="compute Shapley / LOO values for the configured game")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--method", choices=sorted(_METHOD_ALIASES), default=None,
                   help="override the configured method")
    p.add_argument("--seed", type=int, default=None, help="override the configured seed")
    p.add_argument("--out", default=None, help="write the result JSON here instead of stdout")
    p.set_defaults(func=cmd_value)

    p = sub.add_parser("curve", help="rank-and-add utility curve plus best prefix")
    p.add_argument("--config", required=True)
    p.add_argument("--values", required=True, help="values JSON produced by the value command")
    p.add_argument("--out-dir", default=".", help="directory for curve.csv and curve.json")
    p.add_argument("--out", default=None, help="write the summary JSON here instead of stdout")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("learn", help="fit a value regressor and report holdout quality")
    p.add_argument("--config", required=True)
    p.add_argument("--embeddings", required=True, help="embeddings JSONL ({'id','vector'})")
    p.add_argument("--values", required=True, help="values JSON produced by the value command")
    p.add_argument("--model", choices=[k.value for k in RegressorKind], default=None,
                   help="override the configured regressor kind")
    p.add_argument("--fraction", type=float, default=0.2, help="holdout fraction")
    p.add_argument("--out", default="model.json", help="trained model path")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("predict", help="predict values for a new prompt manifest")
    p.add_argument("--config", required=True)
    p.add_argument("--model", required=True, help="trained model JSON")
    p.add_argument("--manifest", required=True, help="prompt manifest JSONL")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("verify", help="numerical checks of the theory layer")
    vsub = p.add_subparsers(dest="check", required=True, metavar="CHECK")
    v = vsub.add_parser("lemma1", help="coefficient identity sweep in exact rationals")
    v.add_argument("--n-max", type=int, default=64)
    v.set_defaults(func=cmd_verify)
    v = vsub.add_parser("theorem1", help="Shapley Lipschitz bound on mean-field games")
    v.add_argument("--n", type=int, default=6)
    v.add_argument("--d", type=int, default=4)
    v.add_argument("--trials", type=int, default=100)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--field", choices=["affine", "tanh"], default="affine")
    v.set_defaults(func=cmd_verify)
    v = vsub.add_parser("beta-bounds", help="exact vs normal vs polynomial interval mass")
    v.add_argument("--alpha", type=float, required=True)
    v.add_argument("--beta", type=float, required=True)
    v.add_argument("--epsilon", type=float, default=0.1)
    v.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="ensemble perturbation simulation")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--n-classifiers", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=10_000,
                   help="validation instances per trial")
    p.add_argument("--k", type=int, default=0, help="index of the perturbed classifier")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("cache", help="inspect or compact cache files")
    csub = p.add_subparsers(dest="op", required=True, metavar="OP")
    c = csub.add_parser("inspect", help="count lines, entries, duplicates")
    c.add_argument("path")
    c.set_defaults(func=cmd_cache)
    c = csub.add_parser("compact", help="rewrite keeping first-written entries")
    c.add_argument("path")
    c.set_defaults(func=cmd_cache)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already wrote help or a usage error
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except PromptShapError as exc:
        sys.stderr.write(dumps(exc.payload()))
        return exc.exit_code
    except Exception as exc:  # pragma: no cover - last-resort guard
        sys.stderr.write(dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
