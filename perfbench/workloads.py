"""The four workloads: their seeded inputs, the CLI commands they run, and the
checks each command's output must pass.

Every workload has a primary job (``value``, or ``learn``) and a follow-up job
that consumes its output (``curve``, or ``predict``). Each job runs in a fresh
directory with fresh cache files; the follow-up gets copies of the caches the
primary wrote.
"""

from __future__ import annotations

import json
import math
import random
import shutil
from pathlib import Path

import inputs

# the stub refuses every FAIL_EVERY-th chat request once with HTTP 500
FAIL_EVERY = 64
CHECKED_COALITIONS = 64


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_config(path: Path, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"schema_version": 1, **doc}, fh, sort_keys=True, indent=2)
    return str(path)


def _close(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol


def cache_entries(path, key_field: str, value_field: str) -> dict:
    """Entries of a JSONL cache file; lines of any other shape are skipped."""
    entries: dict = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        return entries
    with fh:
        for line in fh:
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(row, dict) and key_field in row and value_field in row:
                entries.setdefault(row[key_field], row[value_field])
    return entries


def mask_of_hex(key: str) -> int:
    return int.from_bytes(bytes.fromhex(key), "little")


class Valuation:
    """``value`` then ``curve`` on one game; subclasses define the game."""

    primary, followup = "value", "curve"
    cache_files: tuple[str, ...] = ()

    def __init__(self, seed: int, sizes: dict):
        self.seed = seed
        self.sizes = sizes

    # --- what the subclasses define
    n: int
    prompt_ids: list[str]

    def game_config(self, job_dir: Path) -> dict:
        raise NotImplementedError

    def reference(self, mask: int) -> float:
        raise NotImplementedError

    def check_values_extra(self, doc: dict, job_dir: Path) -> list[str]:
        return []

    # --- jobs
    def primary_argv(self, job_dir: Path) -> list[str]:
        config = _write_config(job_dir / "config.json", self.game_config(job_dir))
        return ["value", "--config", config, "--out", str(job_dir / "values.json")]

    def followup_argv(self, job_dir: Path, primary_dir: Path) -> list[str]:
        for name in self.cache_files:
            if (primary_dir / name).exists():
                shutil.copyfile(primary_dir / name, job_dir / name)
        config = _write_config(job_dir / "config.json", self.game_config(job_dir))
        return ["curve", "--config", config, "--values", str(primary_dir / "values.json"),
                "--out-dir", str(job_dir / "curve"), "--out", str(job_dir / "summary.json")]

    def primary_output(self, job_dir: Path) -> bytes:
        return (job_dir / "values.json").read_bytes()

    def followup_output(self, job_dir: Path) -> bytes:
        return (job_dir / "curve" / "curve.json").read_bytes() + \
            (job_dir / "curve" / "curve.csv").read_bytes()

    def check_primary(self, job_dir: Path, stdout: str) -> list[str]:
        doc = _read_json(job_dir / "values.json")
        values = [p["value"] for p in doc["players"]]
        problems = []
        if [p["id"] for p in doc["players"]] != self.prompt_ids:
            problems.append("player ids differ from the input prompts")
        gap = abs(math.fsum(values) - (doc["u_full"] - doc["u_empty"]))
        if gap > 1e-9:
            problems.append(f"efficiency: sum of values misses u_full - u_empty by {gap:.3g}")
        full = (1 << self.n) - 1
        if not _close(doc["u_full"], self.reference(full)):
            problems.append(f"u_full {doc['u_full']} != reference {self.reference(full)}")
        if not _close(doc["u_empty"], self.reference(0)):
            problems.append(f"u_empty {doc['u_empty']} != reference {self.reference(0)}")
        return problems + self.check_values_extra(doc, job_dir)

    def check_followup(self, job_dir: Path, primary_dir: Path) -> list[str]:
        curve = _read_json(job_dir / "curve" / "curve.json")
        u_full = _read_json(primary_dir / "values.json")["u_full"]
        problems = []
        index = {pid: i for i, pid in enumerate(self.prompt_ids)}
        mask = 0
        for point in curve["points"]:
            mask |= 1 << index[point["added_prompt_id"]]
            expected = self.reference(mask)
            if point["utility"] is None or not _close(point["utility"], expected):
                problems.append(f"curve k={point['k']}: {point['utility']} != reference {expected}")
        if len(curve["points"]) != self.n or curve["points"][-1]["utility"] != u_full:
            problems.append("the curve's last point is not u_full")
        return problems


class MatrixValuation(Valuation):
    """Exact (``exact-vote``) or Monte Carlo (``mc-cached``) values of an offline
    prediction-matrix game, through a utility cache that starts empty."""

    cache_files = ("utilities.jsonl",)

    def __init__(self, name: str, seed: int, sizes: dict, work: Path):
        super().__init__(seed, sizes)
        self.monte_carlo = name == "mc-cached"
        self.data = inputs.matrix_inputs(seed, sizes, probabilistic=self.monte_carlo)
        self.matrix, self.validation = work / "matrix.csv", work / "validation.csv"
        inputs.write_matrix_files(self.data, self.matrix, self.validation)
        self.n = sizes["prompts"]
        self.prompt_ids = self.data["prompt_ids"]
        self._reference: dict[int, float] = {}

    def game_config(self, job_dir: Path) -> dict:
        game = {"method": "exact", "seed": self.seed}
        if self.monte_carlo:
            game = {"method": "montecarlo", "seed": self.seed, "truncation_tol": 0.0,
                    "permutations": self.sizes["permutations"]}
        return {
            "utility_mode": "matrix-average" if self.monte_carlo else "matrix-vote",
            "tie_rule": "abstain",
            "paths": {"matrix": str(self.matrix), "validation": str(self.validation),
                      "utility_cache": str(job_dir / "utilities.jsonl")},
            "game": game,
        }

    def reference(self, mask: int) -> float:
        if mask not in self._reference:
            self._reference[mask] = inputs.reference_matrix_utility(self.data, mask)
        return self._reference[mask]

    def check_values_extra(self, doc: dict, job_dir: Path) -> list[str]:
        """Recompute a seeded sample of the cached utilities, the full coalition
        always among them."""
        entries = {mask_of_hex(k): u for k, u in
                   cache_entries(job_dir / "utilities.jsonl", "coalition", "u").items()}
        full = (1 << self.n) - 1
        if full not in entries:
            return ["the utility cache holds no full-coalition entry"]
        others = sorted(m for m in entries if m != full)
        sample = random.Random(self.seed).sample(others, min(CHECKED_COALITIONS - 1, len(others)))
        return [
            f"cached utility of coalition {mask:#x} is {entries[mask]}, "
            f"reference {self.reference(mask)}"
            for mask in [full, *sample] if not _close(entries[mask], self.reference(mask))
        ]


class LiveValuation(Valuation):
    """Exact values of the live augmentation game against the stub endpoint,
    through a response cache that starts empty."""

    cache_files = ("responses.jsonl",)

    def __init__(self, seed: int, sizes: dict, work: Path, base_url: str):
        super().__init__(seed, sizes)
        self.base_url = base_url
        self.data = inputs.live_inputs(seed, sizes)
        self.manifest, self.questions = work / "manifest.jsonl", work / "questions.jsonl"
        inputs.write_jsonl(self.manifest, self.data["manifest"])
        inputs.write_jsonl(self.questions, self.data["questions"])
        self.n = len(self.data["manifest"])
        self.prompt_ids = [row["id"] for row in self.data["manifest"]]
        self.values = inputs.reference_shapley(self.n, self.reference)

    def game_config(self, job_dir: Path) -> dict:
        return {
            "task": "multiple_choice",
            "utility_mode": "live-augmentation",
            "paths": {"manifest": str(self.manifest), "questions": str(self.questions),
                      "response_cache": str(job_dir / "responses.jsonl")},
            "game": {"method": "exact", "seed": self.seed},
            "api": {"base_url": self.base_url, "model": "stub-chat",
                    "backoff_base": 0.001, "timeout": 30.0},
        }

    def reference(self, mask: int) -> float:
        return inputs.reference_live_utility(self.data, mask)

    def check_values_extra(self, doc: dict, job_dir: Path) -> list[str]:
        return [
            f"value of {p['id']} is {p['value']}, closed form {expected}"
            for p, expected in zip(doc["players"], self.values)
            if not _close(p["value"], expected, 1e-9)
        ]

    def expected_requests(self, job: str) -> int:
        """Chat requests a job sends, injected-failure retries included."""
        questions = len(self.data["questions"])
        distinct = {"setup": questions, "value": questions << self.n, "curve": 0}[job]
        return inputs.expected_chat_requests(distinct, FAIL_EVERY)


class LearnGP:
    """``learn --model gp`` on embeddings with a learnable value field, then
    ``predict`` for new prompts from a precomputed embeddings file."""

    primary, followup = "learn", "predict"

    def __init__(self, seed: int, sizes: dict, work: Path):
        self.n = sizes["prompts"]
        self.data = inputs.learn_inputs(seed, sizes)
        self.paths = {
            "embeddings": work / "embeddings.jsonl",
            "new_embeddings": work / "new_embeddings.jsonl",
            "new_manifest": work / "new_manifest.jsonl",
            "values": work / "values.json",
        }
        inputs.write_learn_files(self.data, self.paths)
        self.config = _write_config(work / "config.json", {
            "regressor": {"kind": "gp"},
            "paths": {"embeddings": str(self.paths["new_embeddings"])},
            "game": {"seed": seed},
        })

    def primary_argv(self, job_dir: Path) -> list[str]:
        return ["learn", "--config", self.config, "--embeddings", str(self.paths["embeddings"]),
                "--values", str(self.paths["values"]), "--model", "gp", "--fraction", "0.2",
                "--out", str(job_dir / "model.json")]

    def followup_argv(self, job_dir: Path, primary_dir: Path) -> list[str]:
        return ["predict", "--config", self.config, "--model", str(primary_dir / "model.json"),
                "--manifest", str(self.paths["new_manifest"]),
                "--out", str(job_dir / "predictions.json")]

    def primary_output(self, job_dir: Path) -> bytes:
        return (job_dir / "model.json").read_bytes()

    def followup_output(self, job_dir: Path) -> bytes:
        return (job_dir / "predictions.json").read_bytes()

    def check_primary(self, job_dir: Path, stdout: str) -> list[str]:
        report = json.loads(stdout)
        if not report["pearson"] >= inputs.PEARSON_FLOOR:
            return [f"holdout pearson {report['pearson']} below {inputs.PEARSON_FLOOR}"]
        return []

    def check_followup(self, job_dir: Path, primary_dir: Path) -> list[str]:
        doc = _read_json(job_dir / "predictions.json")
        n = self.n
        ids = [p["id"] for p in doc["predictions"]]
        if ids != self.data["ids"][n:]:
            return ["predicted ids differ from the new manifest"]
        predicted = [p["value"] for p in doc["predictions"]]
        if not all(math.isfinite(v) for v in predicted):
            return ["non-finite prediction"]
        r = inputs.pearson(predicted, self.data["values"][n:])
        if not r >= inputs.PEARSON_FLOOR:
            return [f"new-prompt pearson {r} below {inputs.PEARSON_FLOOR}"]
        return []
