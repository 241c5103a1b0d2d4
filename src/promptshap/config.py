"""Run configuration: JSON files with a schema version, loaded into dataclasses.

The config carries everything a run needs except the API credential, which
comes exclusively from the PROMPTSHAP_API_KEY environment variable and is
never read from (or written to) config files. Input files referenced by the
config must exist at load time; cache paths are exempt because runs create
them on demand.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Optional, Union, get_args, get_origin, get_type_hints

from .ensemble import Rule, TieRule
from .errors import ConfigError, ConsistencyError, PreconditionError
from .game import DEFAULT_EXACT_CAP, Method
from .jsonio import read_json

CONFIG_SCHEMA_VERSION = 1

# the longest a request may wait for its reply (api.timeout) and the longest
# wait before a retry, in seconds; socket timeouts and time.sleep overflow
# near 1e10 s
MAX_WAIT_S = 3600.0


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


class RegressorKind(str, Enum):
    LINEAR = "linear"
    RIDGE = "ridge"
    GAUSSIAN_PROCESS = "gp"


@dataclass(frozen=True)
class RegressorSpec:
    kind: RegressorKind = RegressorKind.RIDGE
    ridge_lambda: float = 1.0
    standardize: Optional[bool] = None   # None = on for ridge and GP (linear never scales)
    gp_length_scale: Optional[float] = None   # None = median pairwise distance
    gp_signal_var: Optional[float] = None     # None = var(y)
    gp_noise_var: float = 1e-4
    gp_jitter: float = 1e-10

    def __post_init__(self):
        # a kind given by its value ("linear") becomes the member the fit dispatches on
        try:
            object.__setattr__(self, "kind", RegressorKind(self.kind))
        except ValueError:
            allowed = [kind.value for kind in RegressorKind]
            raise PreconditionError(
                f"regressor kind must be one of {allowed}, got {self.kind!r}") from None


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
    exact_cap: int = DEFAULT_EXACT_CAP
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


def _section(doc: dict, name: str, cls):
    """The dataclass ``cls`` from section ``name``, each value checked against
    its field's type; enum fields are given by their string value."""
    raw = doc.pop(name, {})
    if not isinstance(raw, dict):
        raise ConfigError(f"section {name!r} must be an object")
    known = {f.name for f in fields(cls)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown keys in {name!r}: {sorted(unknown)}")
    hints = _field_types(cls)
    parsed = {}
    for key, value in raw.items():
        hint = hints[key]
        if isinstance(hint, type) and issubclass(hint, Enum):
            value = _enum(hint, value, f"{name}.{key}")
        elif not _has_type(value, hint):
            raise ConfigError(f"{name}.{key} must be {_type_name(hint)}, got {value!r}")
        parsed[key] = value
    return cls(**parsed)


def _enum(enum_cls, value, where: str):
    """The member of ``enum_cls`` whose value is ``value``, for the key named by ``where``."""
    try:
        return enum_cls(value)
    except ValueError:
        allowed = [e.value for e in enum_cls]
        raise ConfigError(f"{where} must be one of {allowed}, got {value!r}") from None


@functools.cache
def _field_types(cls) -> dict:
    # resolving the string annotations costs about 0.2 ms per class
    return get_type_hints(cls)


def _has_type(value, hint) -> bool:
    """``value`` fits a field annotated ``hint``: a plain class or an Optional
    of one. A JSON integer is a valid float, and a bool is never a number."""
    if get_origin(hint) is Union:
        return any(_has_type(value, arm) for arm in get_args(hint))
    if hint is float:
        hint = (int, float)
    return isinstance(value, hint) and (hint is bool or not isinstance(value, bool))


def _type_name(hint) -> str:
    if get_origin(hint) is Union:
        return " or ".join(_type_name(arm) for arm in get_args(hint))
    return "null" if hint is type(None) else hint.__name__


def load_config(path: str) -> RunConfig:
    """The config in ``path``; every fault is a ``ConfigError`` naming the file."""
    try:
        return read_json(path, _config_from_doc)
    except ConsistencyError as exc:   # the file itself: unreadable, not JSON
        raise ConfigError(str(exc)) from None


def _config_from_doc(doc: dict) -> RunConfig:
    version = doc.pop("schema_version", None)
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {CONFIG_SCHEMA_VERSION}, got {version!r}")

    top = {}
    for key, enum_cls in (("task", Task), ("utility_mode", UtilityMode), ("tie_rule", TieRule)):
        value = doc.pop(key, None)
        if value is not None:  # a null keeps the default
            top[key] = _enum(enum_cls, value, key)
    paths = _section(doc, "paths", PathsConfig)
    game = _section(doc, "game", GameConfig)
    regressor = _section(doc, "regressor", RegressorSpec)
    api = _section(doc, "api", ApiConfig)
    if doc:
        raise ConfigError(f"unknown top-level keys: {sorted(doc)}")
    # each would fail every request only once the run had started
    if api.attempts < 1:
        raise ConfigError(f"api.attempts must be at least 1, got {api.attempts!r}")
    if not 0 < api.timeout < math.inf:
        raise ConfigError(f"api.timeout must be a positive finite number, got {api.timeout!r}")
    if api.timeout > MAX_WAIT_S:
        raise ConfigError(f"api.timeout must be at most {MAX_WAIT_S:g} seconds, "
                          f"got {api.timeout!r}")
    if not 0 <= api.backoff_base < math.inf:
        raise ConfigError(f"api.backoff_base must be a finite number >= 0, "
                          f"got {api.backoff_base!r}")

    # input files must exist up front; cache files are created by the run
    input_fields = ("manifest", "matrix", "validation", "questions", "embeddings")
    missing = [
        f"{name}={getattr(paths, name)}"
        for name in input_fields
        if getattr(paths, name) is not None and not os.path.exists(getattr(paths, name))
    ]
    if missing:
        raise ConfigError(f"referenced input files do not exist: {missing}")
    return RunConfig(**top, paths=paths, game=game, regressor=regressor, api=api)
