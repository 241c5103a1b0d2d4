import dataclasses
import json
import re
from enum import Enum

import pytest

from promptshap.config import (
    CONFIG_SCHEMA_VERSION,
    MAX_WAIT_S,
    ApiConfig,
    GameConfig,
    PathsConfig,
    RunConfig,
    Task,
    UtilityMode,
    load_config,
)
from promptshap.ensemble import Rule, TieRule
from promptshap.errors import ConfigError
from promptshap.game import Method
from promptshap.learning import RegressorKind


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_minimal_config_uses_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path, {"schema_version": 1}))
    assert cfg.task is Task.MULTIPLE_CHOICE
    assert cfg.utility_mode is UtilityMode.MATRIX_VOTE
    assert cfg.tie_rule is TieRule.ABSTAIN
    assert cfg.game.method is Method.EXACT
    assert cfg.game.permutations == 10_000
    assert cfg.regressor.kind is RegressorKind.RIDGE
    assert cfg.api.max_tokens == 256
    assert cfg.paths.manifest is None


def test_full_config_round_trip(tmp_path):
    matrix = tmp_path / "matrix.csv"
    matrix.write_text("prompt_id,q0\np0,1\n")
    validation = tmp_path / "validation.csv"
    validation.write_text("#num_labels=2\ninstance_id,gold_label\nq0,1\n")
    doc = {
        "schema_version": 1,
        "task": "numeric",
        "utility_mode": "matrix-average",
        "tie_rule": "lowest",
        "paths": {
            "matrix": str(matrix),
            "validation": str(validation),
            "utility_cache": str(tmp_path / "not-created-yet.jsonl"),
        },
        "game": {"method": "montecarlo", "permutations": 500, "seed": 7},
        "regressor": {"kind": "gp", "gp_noise_var": 0.01},
        "api": {"base_url": "http://localhost:9", "model": "m", "attempts": 2},
    }
    cfg = load_config(write_config(tmp_path, doc))
    assert cfg.task is Task.NUMERIC
    assert cfg.utility_mode is UtilityMode.MATRIX_AVERAGE
    assert cfg.tie_rule is TieRule.LOWEST
    assert cfg.game.method is Method.MONTE_CARLO
    assert cfg.game.permutations == 500
    assert cfg.regressor.kind is RegressorKind.GAUSSIAN_PROCESS
    assert cfg.regressor.gp_noise_var == 0.01
    assert cfg.api.attempts == 2

    # every field written back, defaults included, loads to the same config
    redumped = write_config(tmp_path, config_doc(cfg), name="round.json")
    assert load_config(redumped) == cfg


def config_doc(cfg: RunConfig) -> dict:
    """The config file that spells out every field of ``cfg``."""
    def plain(value):
        return value.value if isinstance(value, Enum) else value

    doc = {"schema_version": CONFIG_SCHEMA_VERSION}
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        doc[f.name] = ({g.name: plain(getattr(value, g.name)) for g in dataclasses.fields(value)}
                       if dataclasses.is_dataclass(value) else plain(value))
    return doc


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.json"))


def test_invalid_json_is_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(path))
    path.write_text('["a", "list"]')
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_schema_version_is_required_and_checked(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {}))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"schema_version": 2}))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"schema_version": "1"}))


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"schema_version": 1, "surprise": True}))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"schema_version": 1, "game": {"players": 4}}))


def test_api_key_cannot_live_in_config(tmp_path):
    # the credential comes from the environment only; any config spelling fails
    doc = {"schema_version": 1, "api": {"api_key": "sk-oops"}}
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, doc))
    assert not hasattr(ApiConfig(), "api_key")


def test_bad_enum_values_rejected(tmp_path):
    for doc in (
        {"schema_version": 1, "task": "trivia"},
        {"schema_version": 1, "utility_mode": "vote"},
        {"schema_version": 1, "tie_rule": "coin-flip"},
        {"schema_version": 1, "game": {"method": "approximate"}},
        {"schema_version": 1, "regressor": {"kind": "forest"}},
    ):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, doc))


def test_top_level_null_means_the_default(tmp_path):
    doc = {"schema_version": 1, "task": None, "utility_mode": None, "tie_rule": None}
    assert load_config(write_config(tmp_path, doc)) == RunConfig()


@pytest.mark.parametrize("key, value, message", [
    ("attempts", 0, "api.attempts must be at least 1, got 0"),
    ("attempts", -3, "api.attempts must be at least 1, got -3"),
    ("timeout", 0, "api.timeout must be a positive finite number, got 0"),
    ("timeout", -1, "api.timeout must be a positive finite number, got -1"),
    ("timeout", -0.5, "api.timeout must be a positive finite number, got -0.5"),
    ("timeout", float("nan"), "api.timeout must be a positive finite number, got nan"),
    ("timeout", float("inf"), "api.timeout must be a positive finite number, got inf"),
    ("timeout", 3600.5, "api.timeout must be at most 3600 seconds, got 3600.5"),
    ("timeout", 1e10, "api.timeout must be at most 3600 seconds, got 10000000000.0"),
    ("backoff_base", -0.001, "api.backoff_base must be a finite number >= 0, got -0.001"),
    ("backoff_base", float("nan"), "api.backoff_base must be a finite number >= 0, got nan"),
    ("backoff_base", float("inf"), "api.backoff_base must be a finite number >= 0, got inf"),
])
def test_api_settings_out_of_range_rejected(tmp_path, key, value, message):
    path = write_config(tmp_path, {"schema_version": 1, "api": {key: value}})
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value) == f"{path}: {message}"
    assert err.value.exit_code == 3


def test_smallest_api_settings_accepted(tmp_path):
    doc = {"schema_version": 1, "api": {"attempts": 1, "timeout": 0.001}}
    cfg = load_config(write_config(tmp_path, doc))
    assert (cfg.api.attempts, cfg.api.timeout) == (1, 0.001)


def test_extreme_accepted_api_settings(tmp_path):
    doc = {"schema_version": 1, "api": {"timeout": 3600, "backoff_base": 0}}
    cfg = load_config(write_config(tmp_path, doc))
    assert (cfg.api.timeout, cfg.api.backoff_base) == (MAX_WAIT_S, 0)
    doc["api"]["backoff_base"] = 1e300   # every wait is capped at MAX_WAIT_S instead
    assert load_config(write_config(tmp_path, doc)).api.backoff_base == 1e300


@pytest.mark.parametrize("section, value, message", [
    ("game", {"permutations": "many"}, "game.permutations must be int, got 'many'"),
    ("game", {"exact_cap": "20"}, "game.exact_cap must be int, got '20'"),
    ("game", {"permutations": True}, "game.permutations must be int, got True"),
    ("game", {"seed": 1.5}, "game.seed must be int"),
    ("game", {"truncation_tol": False}, "game.truncation_tol must be float"),
    ("game", {"method": None}, "game.method must be one of"),
    ("paths", {"matrix": ["a"]}, "paths.matrix must be str or null, got ['a']"),
    ("api", {"embeddings_unit_norm": 1}, "api.embeddings_unit_norm must be bool"),
    ("regressor", {"gp_length_scale": "wide"}, "regressor.gp_length_scale must be float or null"),
    ("game", {"method": "approximate"},
     "game.method must be one of ['exact', 'montecarlo', 'loo'], got 'approximate'"),
    ("task", "trivia", ": task must be one of ['multiple_choice', 'date', 'numeric'], got 'trivia'"),
])
def test_mistyped_values_rejected(tmp_path, section, value, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(write_config(tmp_path, {"schema_version": 1, section: value}))


def test_integers_pass_as_floats_unchanged(tmp_path):
    doc = {"schema_version": 1, "game": {"truncation_tol": 0, "u_empty": 1},
           "regressor": {"gp_length_scale": 2, "standardize": None}}
    cfg = load_config(write_config(tmp_path, doc))
    assert (cfg.game.truncation_tol, cfg.game.u_empty) == (0, 1)
    assert type(cfg.game.u_empty) is int
    assert cfg.regressor.gp_length_scale == 2


def test_section_must_be_object(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"schema_version": 1, "game": [1, 2]}))


def test_referenced_inputs_must_exist(tmp_path):
    doc = {"schema_version": 1, "paths": {"manifest": str(tmp_path / "nope.jsonl")}}
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, doc))


def test_cache_paths_may_not_exist_yet(tmp_path):
    doc = {
        "schema_version": 1,
        "paths": {
            "utility_cache": str(tmp_path / "u.jsonl"),
            "response_cache": str(tmp_path / "r.jsonl"),
        },
    }
    cfg = load_config(write_config(tmp_path, doc))
    assert cfg.paths.utility_cache.endswith("u.jsonl")


def test_utility_mode_rule_mapping():
    assert UtilityMode.MATRIX_VOTE.rule is Rule.VOTE
    assert UtilityMode.MATRIX_AVERAGE.rule is Rule.AVERAGE_ARGMAX
    assert UtilityMode.LIVE_AUGMENTATION.rule is Rule.AVERAGE_ARGMAX


def test_config_dataclasses_are_frozen():
    cfg = RunConfig()
    with pytest.raises(AttributeError):
        cfg.task = Task.DATE
    with pytest.raises(AttributeError):
        GameConfig().seed = 5
    with pytest.raises(AttributeError):
        PathsConfig().manifest = "x"
