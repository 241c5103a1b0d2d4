"""Run configuration: JSON files with a schema version, loaded into dataclasses.

The config carries everything a run needs except the API credential, which
comes exclusively from the PROMPTSHAP_API_KEY environment variable and is
never read from (or written to) config files. Input files referenced by the
config must exist at load time; cache paths are exempt because runs create
them on demand.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Optional

from .ensemble import Rule, TieRule
from .errors import ConfigError, ConsistencyError
from .game import Method
from .jsonio import read_json
from .learning import RegressorKind, RegressorSpec

CONFIG_SCHEMA_VERSION = 1


class Task(str, Enum):
    MULTIPLE_CHOICE = "multiple_choice"
    DATE = "date"
    NUMERIC = "numeric"


class UtilityMode(str, Enum):
    MATRIX_VOTE = "matrix-vote"
    MATRIX_AVERAGE = "matrix-average"
    LIVE_AUGMENTATION = "live-augmentation"

    @property
    def rule(self) -> Rule:
        return Rule.VOTE if self is UtilityMode.MATRIX_VOTE else Rule.AVERAGE_ARGMAX


@dataclass(frozen=True)
class ApiConfig:
    base_url: str = ""
    model: str = ""
    embeddings_model: str = ""
    temperature: float = 0.0
    max_tokens: int = 256
    attempts: int = 5
    backoff_base: float = 1.0
    timeout: float = 60.0
    embeddings_unit_norm: bool = False


@dataclass(frozen=True)
class GameConfig:
    method: Method = Method.EXACT
    permutations: int = 10_000
    truncation_tol: float = 0.0
    seed: int = 0
    exact_cap: int = 20
    u_empty: float = 0.0


@dataclass(frozen=True)
class PathsConfig:
    manifest: Optional[str] = None
    matrix: Optional[str] = None
    validation: Optional[str] = None
    questions: Optional[str] = None
    embeddings: Optional[str] = None
    utility_cache: Optional[str] = None
    response_cache: Optional[str] = None


@dataclass(frozen=True)
class RunConfig:
    task: Task = Task.MULTIPLE_CHOICE
    utility_mode: UtilityMode = UtilityMode.MATRIX_VOTE
    tie_rule: TieRule = TieRule.ABSTAIN
    paths: PathsConfig = field(default_factory=PathsConfig)
    game: GameConfig = field(default_factory=GameConfig)
    regressor: RegressorSpec = field(default_factory=RegressorSpec)
    api: ApiConfig = field(default_factory=ApiConfig)

    def to_json_dict(self) -> dict:
        def plain(value):
            if isinstance(value, Enum):
                return value.value
            return value

        return {
            "schema_version": CONFIG_SCHEMA_VERSION,
            "task": self.task.value,
            "utility_mode": self.utility_mode.value,
            "tie_rule": self.tie_rule.value,
            "paths": {f.name: getattr(self.paths, f.name) for f in fields(self.paths)},
            "game": {f.name: plain(getattr(self.game, f.name)) for f in fields(self.game)},
            "regressor": {
                f.name: plain(getattr(self.regressor, f.name)) for f in fields(self.regressor)
            },
            "api": {f.name: getattr(self.api, f.name) for f in fields(self.api)},
        }


def _section(doc: dict, name: str, cls, enum_fields: dict, path: str):
    raw = doc.pop(name, {})
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: section {name!r} must be an object")
    known = {f.name for f in fields(cls)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"{path}: unknown keys in {name!r}: {sorted(unknown)}")
    parsed = {}
    for key, value in raw.items():
        if key in enum_fields and value is not None:
            try:
                value = enum_fields[key](value)
            except ValueError:
                allowed = [e.value for e in enum_fields[key]]
                raise ConfigError(
                    f"{path}: {name}.{key} must be one of {allowed}, got {value!r}"
                ) from None
        parsed[key] = value
    try:
        return cls(**parsed)
    except TypeError as exc:
        raise ConfigError(f"{path}: bad {name!r} section: {exc}") from None


def load_config(path: str) -> RunConfig:
    try:
        doc = read_json(path, dict)
    except ConsistencyError as exc:
        raise ConfigError(str(exc)) from None
    version = doc.pop("schema_version", None)
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(
            f"{path}: schema_version must be {CONFIG_SCHEMA_VERSION}, got {version!r}"
        )

    def top_enum(key: str, enum_cls, default):
        value = doc.pop(key, None)
        if value is None:
            return default
        try:
            return enum_cls(value)
        except ValueError:
            allowed = [e.value for e in enum_cls]
            raise ConfigError(f"{path}: {key} must be one of {allowed}, got {value!r}") from None

    task = top_enum("task", Task, Task.MULTIPLE_CHOICE)
    utility_mode = top_enum("utility_mode", UtilityMode, UtilityMode.MATRIX_VOTE)
    tie_rule = top_enum("tie_rule", TieRule, TieRule.ABSTAIN)
    paths = _section(doc, "paths", PathsConfig, {}, path)
    game = _section(doc, "game", GameConfig, {"method": Method}, path)
    regressor = _section(doc, "regressor", RegressorSpec, {"kind": RegressorKind}, path)
    api = _section(doc, "api", ApiConfig, {}, path)
    if doc:
        raise ConfigError(f"{path}: unknown top-level keys: {sorted(doc)}")

    # input files must exist up front; cache files are created by the run
    input_fields = ("manifest", "matrix", "validation", "questions", "embeddings")
    missing = [
        f"{name}={getattr(paths, name)}"
        for name in input_fields
        if getattr(paths, name) is not None and not os.path.exists(getattr(paths, name))
    ]
    if missing:
        raise ConfigError(f"{path}: referenced input files do not exist: {missing}")
    return RunConfig(
        task=task,
        utility_mode=utility_mode,
        tie_rule=tie_rule,
        paths=paths,
        game=game,
        regressor=regressor,
        api=api,
    )
