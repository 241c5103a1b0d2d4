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
import os
import sys
from contextlib import ExitStack, contextmanager
from dataclasses import replace

import numpy as np

from .cache import ResponseCache, UtilityCache, cached_utility, compact_file, inspect_file
from .config import RegressorKind, RunConfig, UtilityMode, load_config
from .ensemble import load_matrix, load_validation, matrix_utility
from .errors import ConfigError, ConsistencyError, PromptShapError, ProtocolError
from .game import (GameSpec, Method, batch_of, finite_numbers, loo_values, shapley_exact,
                   shapley_montecarlo)
from .jsonio import dumps, read_json, write_json
from .rng import derive_seed

# client, learning, selection and theory are imported by the commands that
# use them, so a matrix command loads none of them (nor client's network stack)

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
    if out_path:
        write_json(out_path, doc)
    else:
        sys.stdout.write(dumps(doc))


def _values_from_doc(doc: dict):
    """Parser for ``read_json`` over a values file: (doc, player ids, values)."""
    players = doc.get("players")
    if not isinstance(players, list) or not players:
        raise ValueError("missing non-empty 'players' list")
    u_full = doc.get("u_full")
    ids = [str(p["id"]) for p in players]
    values = [p["value"] for p in players]
    numbers = values if u_full is None else values + [u_full]
    if len(set(ids)) != len(ids):
        raise ValueError("player ids must be unique")
    # json.load parses NaN and Infinity; a NaN value would rank first and a
    # NaN u_full would pass the curve's full-set check
    if not finite_numbers(numbers):
        raise ValueError("values and u_full must be finite numbers")
    return doc, ids, [float(x) for x in values]


@contextmanager
def _own_caches(*paths):
    """Advisory exclusive locks so one process owns each cache file per run."""
    handles = []
    try:
        for path in paths:
            if path is None:
                continue
            try:
                fh = open(path + ".lock", "w")
            except OSError as exc:
                raise ConsistencyError(
                    f"cannot create the lock file of cache {path}: {exc.strerror}", path=path
                ) from None
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


@contextmanager
def _open_game(cfg: RunConfig):
    """(GameSpec, prompt ids) for the configured utility mode, with the cache
    files locked for this process and their append handles closed on exit."""
    with _own_caches(cfg.paths.utility_cache, cfg.paths.response_cache), \
            ExitStack() as caches:
        if cfg.utility_mode is UtilityMode.LIVE_AUGMENTATION:
            from .client import augmentation_utility, load_manifest, load_questions

            manifest = load_manifest(_require_path(cfg.paths.manifest, "manifest"))
            questions = load_questions(_require_path(cfg.paths.questions, "questions"))
            if cfg.paths.response_cache:
                response_cache = caches.enter_context(
                    ResponseCache.load(cfg.paths.response_cache))
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
        batch = batch_of(oracle)
        if cfg.paths.utility_cache:
            utility_cache = caches.enter_context(UtilityCache.load(cfg.paths.utility_cache))
            batch = cached_utility(utility_cache, batch)
        if cfg.utility_mode is UtilityMode.LIVE_AUGMENTATION:
            # the augmentation oracle defines its own zero-shot U(empty)
            [u_empty] = batch([0], n)
        else:
            u_empty = cfg.game.u_empty
        yield GameSpec(n=n, batch=batch, u_empty=u_empty), ids


def cmd_value(args) -> int:
    cfg = load_config(args.config)
    method = _METHOD_ALIASES[args.method] if args.method else cfg.game.method
    seed = args.seed if args.seed is not None else cfg.game.seed
    with _open_game(cfg) as (game, ids):
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
    from .selection import best_prefix, curve_to_csv, curve_to_json_dict, rank_add_curve

    cfg = load_config(args.config)
    values_doc, doc_ids, doc_values = read_json(args.values, _values_from_doc)
    with _open_game(cfg) as (game, ids):
        if sorted(doc_ids) != sorted(ids):
            raise ConsistencyError(
                "player ids in the values file do not match the configured game",
                values_ids=sorted(doc_ids),
                game_ids=sorted(ids),
            )
        by_id = dict(zip(doc_ids, doc_values))
        curve = rank_add_curve([by_id[i] for i in ids], ids, game.batch)
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
    doc = curve_to_json_dict(curve, best)
    write_json(json_path, doc)
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
            "best_prefix": doc["best_prefix"],
            "curve_csv": csv_path,
            "curve_json": json_path,
            "u_full": curve.points[-1].utility,
        },
        args.out,
    )
    return 0


def _features(cfg: RunConfig, vectors: np.ndarray) -> np.ndarray:
    """What learn fits and predict applies: unit vectors under ``api.embeddings_unit_norm``."""
    if cfg.api.embeddings_unit_norm:
        norms = np.linalg.norm(vectors, axis=1)
        if np.any(norms == 0):
            raise ProtocolError("cannot unit-normalize a zero embedding vector")
        vectors = vectors / norms[:, None]
    return vectors


def cmd_learn(args) -> int:
    from .learning import fit_regressor, holdout_eval, load_embeddings, save_model

    cfg = load_config(args.config)
    embeddings = load_embeddings(args.embeddings)
    _, ids, values = read_json(args.values, _values_from_doc)
    X = _features(cfg, embeddings.select(ids).vectors)
    kind = RegressorKind(args.model) if args.model else cfg.regressor.kind
    spec = replace(cfg.regressor, kind=kind)
    y = np.asarray(values, dtype=np.float64)
    report = holdout_eval(
        X,
        y,
        spec,
        split_seed=derive_seed(cfg.game.seed, "learn:holdout"),
        fraction=args.fraction,
        ids=ids,
    )
    model = fit_regressor(X, y, spec)
    save_model(model, args.out)
    report["model_path"] = args.out
    _emit(report, None)
    return 0


def cmd_predict(args) -> int:
    from .client import embed, load_manifest
    from .learning import EmbeddingMatrix, load_embeddings, load_model, predict_sv

    cfg = load_config(args.config)
    model = load_model(args.model)
    manifest = load_manifest(args.manifest)
    if cfg.paths.embeddings is not None:
        X = load_embeddings(cfg.paths.embeddings).select(manifest.ids)
    else:  # EmbeddingMatrix rejects a non-finite vector from the endpoint
        X = EmbeddingMatrix(manifest.ids, embed(manifest.texts, cfg.api))
    predictions = predict_sv(model, _features(cfg, X.vectors))
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
    from .theory import (
        BetaSpec,
        beta_bounds_report,
        lemma1_sweep,
        theorem1_experiment,
        theorem1_game,
    )

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
    from .theory import BetaSpec, ensemble_perturbation

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
    info = inspect_file(args.path)  # an unreadable path fails before a lock file is made
    if args.op == "compact":
        # the lock keeps a running value or curve from appending to the replaced file
        with _own_caches(args.path):
            info = compact_file(args.path)
    _emit(info, None)
    return 0


def _value_arguments(p) -> None:
    p.set_defaults(func=cmd_value)
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--method", choices=sorted(_METHOD_ALIASES), default=None,
                   help="override the configured method")
    p.add_argument("--seed", type=int, default=None, help="override the configured seed")
    p.add_argument("--out", default=None, help="write the result JSON here instead of stdout")


def _curve_arguments(p) -> None:
    p.set_defaults(func=cmd_curve)
    p.add_argument("--config", required=True)
    p.add_argument("--values", required=True, help="values JSON produced by the value command")
    p.add_argument("--out-dir", default=".", help="directory for curve.csv and curve.json")
    p.add_argument("--out", default=None, help="write the summary JSON here instead of stdout")


def _learn_arguments(p) -> None:
    p.set_defaults(func=cmd_learn)
    p.add_argument("--config", required=True)
    p.add_argument("--embeddings", required=True, help="embeddings JSONL ({'id','vector'})")
    p.add_argument("--values", required=True, help="values JSON produced by the value command")
    p.add_argument("--model", choices=[k.value for k in RegressorKind], default=None,
                   help="override the configured regressor kind")
    p.add_argument("--fraction", type=float, default=0.2, help="holdout fraction")
    p.add_argument("--out", default="model.json", help="trained model path")


def _predict_arguments(p) -> None:
    p.set_defaults(func=cmd_predict)
    p.add_argument("--config", required=True)
    p.add_argument("--model", required=True, help="trained model JSON")
    p.add_argument("--manifest", required=True, help="prompt manifest JSONL")
    p.add_argument("--out", default=None)


def _verify_arguments(p) -> None:
    p.set_defaults(func=cmd_verify)
    checks = p.add_subparsers(dest="check", required=True, metavar="CHECK")
    v = checks.add_parser("lemma1", help="coefficient identity sweep in exact rationals")
    v.add_argument("--n-max", type=int, default=64)
    v = checks.add_parser("theorem1", help="Shapley Lipschitz bound on mean-field games")
    v.add_argument("--n", type=int, default=6)
    v.add_argument("--d", type=int, default=4)
    v.add_argument("--trials", type=int, default=100)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--field", choices=["affine", "tanh"], default="affine")
    v = checks.add_parser("beta-bounds", help="exact vs normal vs polynomial interval mass")
    v.add_argument("--alpha", type=float, required=True)
    v.add_argument("--beta", type=float, required=True)
    v.add_argument("--epsilon", type=float, default=0.1)


def _simulate_arguments(p) -> None:
    p.set_defaults(func=cmd_simulate)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--n-classifiers", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=10_000,
                   help="validation instances per trial")
    p.add_argument("--k", type=int, default=0, help="index of the perturbed classifier")


def _cache_arguments(p) -> None:
    p.set_defaults(func=cmd_cache)
    ops = p.add_subparsers(dest="op", required=True, metavar="OP")
    ops.add_parser("inspect", help="count lines, entries, duplicates").add_argument("path")
    ops.add_parser("compact", help="rewrite keeping first-written entries").add_argument("path")


# name: (help, the function that adds its arguments and the command it runs)
_COMMANDS = {
    "value": ("compute Shapley / LOO values for the configured game", _value_arguments),
    "curve": ("rank-and-add utility curve plus best prefix", _curve_arguments),
    "learn": ("fit a value regressor and report holdout quality", _learn_arguments),
    "predict": ("predict values for a new prompt manifest", _predict_arguments),
    "verify": ("numerical checks of the theory layer", _verify_arguments),
    "simulate": ("ensemble perturbation simulation", _simulate_arguments),
    "cache": ("inspect or compact cache files", _cache_arguments),
}


def build_parser(command=None) -> _Parser:
    """The parser of every command by name and help, with the arguments of
    ``command`` only: a process runs one command, and building every
    command's arguments cost several times building one's."""
    parser = _Parser(
        prog="promptshap",
        description="Shapley-value prompt valuation: exact, Monte Carlo, and "
        "leave-one-out attribution over prompt coalitions, rank-and-add "
        "selection curves, value regression, and theory checks.",
        epilog=_EXIT_CODES_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (help_text, add_arguments) in _COMMANDS.items():
        if name == command:
            add_arguments(sub.add_parser(name, help=help_text))
        else:   # listed in the help and the choices, never parsed
            sub.add_parser(name, help=help_text, add_help=False)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # the top-level parser takes no option with a value, so its first
    # argument that is not an option is the command argparse will run
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    parser = build_parser(command)
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
    except Exception as exc:  # last-resort guard
        sys.stderr.write(dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
