"""A ``value`` run killed in the middle resumes to the same bytes.

``promptshap value --method exact`` runs in a child process with its caches
on disk and gets ``SIGKILL`` at seeded times spread over the run time of a
fresh child. After each kill three things hold, wherever the kill landed:
each cache file loads, warning at most about its torn last line; every entry
it holds is the in-process oracle's value for its key; and ``value`` resumed
on those caches prints the bytes of the fresh run. No check depends on the
point the kill reached, so the test cannot flake on timing.

``SIGKILL`` ends the process but leaves the page cache intact, so this
covers a process crash, not a power loss: only ``persist`` calls ``fsync``.
"""

import json
import os
import random
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from promptshap.cache import ResponseCache, UtilityCache
from promptshap.cli import _open_game, main
from promptshap.coalition import hex_keys
from promptshap.config import load_config
from promptshap.ensemble import Mode, PredictionMatrix, ValidationSet

from conftest import (
    stub_manifest_rows,
    stub_question_rows,
    write_jsonl,
    write_matrix,
    write_validation,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")
KILLS = 5


def write_config(path: Path, doc: dict) -> str:
    path.write_text(json.dumps({"schema_version": 1, **doc}))
    return str(path)


def value_argv(config: str) -> list:
    return ["value", "--config", config, "--method", "exact"]


def start_value(folder: Path, config: str) -> subprocess.Popen:
    """A child running ``value`` on ``config``, returned once it has locked
    the utility cache in ``folder``: its interpreter start-up is over and
    the game is about to be built."""
    proc = subprocess.Popen([sys.executable, "-m", "promptshap.cli", *value_argv(config)],
                            env={**os.environ, "PYTHONPATH": SRC},
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    while not (folder / "utility.jsonl.lock").exists() and proc.poll() is None:
        time.sleep(0.001)
    return proc


def reference_oracle(config: str) -> dict:
    """Every coalition's utility by hex key, from the game built in this process."""
    with _open_game(load_config(config)) as (game, _):
        masks = range(1 << game.n)
        return dict(zip(hex_keys(masks, game.n), game.batch(masks, game.n)))


def loaded_entries(kind, path: Path) -> dict:
    """The entries of the cache file at ``path``, checking that loading it
    warns about nothing but a torn last line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        entries = kind.load(str(path)).entries
    body = path.read_bytes() if path.exists() else b""
    last = body.count(b"\n") + 1
    torn = f"{path}:{last}: skipping malformed cache line"
    allowed = [[]] if body.endswith(b"\n") or not body else [[], [torn]]
    assert [str(w.message) for w in caught] in allowed
    return entries


def kill_and_resume(tmp_path, capsys, caches: dict, config_of, seed: int) -> None:
    """Kill ``KILLS`` children of ``value`` on ``config_of(folder)``, each
    in a fresh folder and at a seeded time within the span from its lock to
    its exit that a fresh child took, and check each folder's caches against ``caches``
    (file name to (cache class, the entries a whole run leaves)) and its
    resumed run against a fresh one."""
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    with start_value(fresh, config_of(fresh)) as proc:
        start = time.monotonic()
        out, err = proc.communicate(timeout=60)
        run_s = time.monotonic() - start
    assert proc.returncode == 0, err
    expected = out.decode("utf-8")
    rng = random.Random(seed)
    for k in range(KILLS):
        folder = tmp_path / f"killed{k}"
        folder.mkdir()
        config = config_of(folder)
        with start_value(folder, config) as proc:
            time.sleep((k + rng.random()) / KILLS * run_s)
            proc.kill()
            proc.communicate()
        for name, (kind, whole) in caches.items():
            entries = loaded_entries(kind, folder / name)
            assert entries.items() <= whole.items()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # the torn line, checked above
            assert main(value_argv(config)) == 0
            assert capsys.readouterr().out == expected
            for name, (kind, whole) in caches.items():
                assert kind.load(str(folder / name)).entries == whole


def test_a_killed_matrix_vote_run_resumes_to_the_same_bytes(tmp_path, capsys):
    rng = np.random.default_rng(5)
    n, instances, labels = 13, 200, 4
    golds = rng.integers(0, labels, instances)
    right = rng.random((n, instances)) < np.linspace(0.3, 0.8, n)[:, None]
    hard = np.where(right, golds, rng.integers(0, labels, (n, instances)))
    instance_ids = tuple(f"q{i}" for i in range(instances))
    write_matrix(PredictionMatrix(prompt_ids=tuple(f"p{i}" for i in range(n)),
                                  instance_ids=instance_ids, mode=Mode.HARD_LABEL,
                                  num_labels=labels, hard=hard),
                 tmp_path / "matrix.csv")
    write_validation(ValidationSet(instances=tuple(zip(instance_ids, golds.tolist())),
                                   num_labels=labels),
                     tmp_path / "validation.csv")

    def config_of(folder: Path, utility_cache: bool = True) -> str:
        paths = {"matrix": str(tmp_path / "matrix.csv"),
                 "validation": str(tmp_path / "validation.csv")}
        if utility_cache:
            paths["utility_cache"] = str(folder / "utility.jsonl")
        return write_config(folder / "config.json",
                            {"utility_mode": "matrix-vote", "paths": paths})

    utilities = reference_oracle(config_of(tmp_path, utility_cache=False))
    kill_and_resume(tmp_path, capsys, {"utility.jsonl": (UtilityCache, utilities)},
                    config_of, seed=11)


def test_a_killed_live_run_resumes_to_the_same_bytes(stub, stub_api, tmp_path, capsys):
    write_jsonl(tmp_path / "manifest.jsonl", stub_manifest_rows())
    write_jsonl(tmp_path / "questions.jsonl", stub_question_rows())

    def config_of(folder: Path, utility_cache: bool = True) -> str:
        paths = {"manifest": str(tmp_path / "manifest.jsonl"),
                 "questions": str(tmp_path / "questions.jsonl"),
                 "response_cache": str(folder / "responses.jsonl")}
        if utility_cache:
            paths["utility_cache"] = str(folder / "utility.jsonl")
        return write_config(folder / "config.json", {
            "utility_mode": "live-augmentation", "paths": paths,
            "api": {"base_url": stub_api.base_url, "model": stub_api.model,
                    "backoff_base": 0.01, "timeout": 10.0}})

    # the in-process game asks the stub every request once, into its own
    # response cache
    utilities = reference_oracle(config_of(tmp_path, utility_cache=False))
    responses = ResponseCache.load(str(tmp_path / "responses.jsonl")).entries
    assert len(responses) == stub.state.chat_requests
    kill_and_resume(tmp_path, capsys, {"utility.jsonl": (UtilityCache, utilities),
                                       "responses.jsonl": (ResponseCache, responses)},
                    config_of, seed=12)
