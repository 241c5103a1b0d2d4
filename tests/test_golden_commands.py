"""Golden bytes of the CLI commands off the valuation engines: sha256 digests
of what ``learn`` (linear, ridge and GP), ``predict``, ``verify``,
``simulate`` and ``cache`` print, and of the files they write, on small
seeded inputs. ``tests/test_golden.py`` pins ``value`` and ``curve``.

The digests were generated on the commit before the Monte Carlo engine's
truncated scans moved onto the key counts of full scans, and before
``LipschitzGame.game`` became a batch oracle; neither change moves a byte.
Each command runs in its test's own directory with relative paths, so no
output names a machine-specific path."""

import hashlib
import json

import pytest

from promptshap.cli import main
from promptshap.rng import SplitMix64

from conftest import write_jsonl

GOLDEN = {
    # what learn and then predict print; regenerated when the hold-out split's
    # shuffle came from random keys, which moved the held-out rows
    "learn-linear": "e0a0501794c6767cc36ae5abcba231d0f42d7a326f1d5ef2236fdaa53b41cd41",
    "learn-ridge": "40916ce0148b831eb470fd1f86f96664391715e6e5495714c045caaffe23b48a",
    "learn-gp": "1a50bbd7ebbe85603c2624810021cb691e4d737ff30a4b57fb69c2e0c8017c84",
    # the model file learn writes, at model schema 2
    "model-linear": "d17d589331581de4a5be80360e48405c7d1c95caf379cb57368a90690524226b",
    "model-ridge": "0d7e91bed53d74d3ed75e6d195f762f5e7d879bcf386ac16be854f83629771ad",
    "model-gp": "b6310bc422756e5effa17e7d2bbabd51d1fbda7612406f7ada8beb9cad09febd",
    "verify-lemma1": "2a962dcdc3f979d0b3d3126c04fa36ea6b83aa92fa8ac93ba5d6eba26c1482e9",
    "verify-theorem1-affine": "426f602ae9f4fcb0e3693de89d1893fa639ca391eec6da20846848a705110ce8",
    "verify-theorem1-tanh": "b4bbfe375bcfb606ca06e5afb7341a8d95deea96e241839db44a819b306abdf0",
    "verify-beta-bounds": "787325b66f367770045da99140ea13126f072839b173e29949d720313a264b5a",
    "simulate": "cbce49624847db08012d55d50d9449dba875a322cb8563dc7b1e66aed7a265e2",
    "cache-inspect": "7274843f85ce92fb3cf23a5fdd2db1150302361cd6ab132b02fb95dda088f20a",
    "cache-compact": "590b628b85b41c98b70619f0b3363decddbdcaccb6f02238466f5fa3895c9790",
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(capsys, argv) -> bytes:
    assert main(argv) == 0, capsys.readouterr().err
    return capsys.readouterr().out.encode()


def learn_inputs():
    """Eight prompts with seeded 3-d embeddings and values a noisy linear
    function of them; a manifest asks for five of them in another order."""
    rng = SplitMix64(21)
    ids = [f"p{i}" for i in range(8)]
    vectors = [[rng.uniform() * 2 - 1 for _ in range(3)] for _ in ids]
    values = [0.3 * a - 0.2 * b + 0.1 * c + 0.05 * rng.uniform() for a, b, c in vectors]
    write_jsonl("embeddings.jsonl", [{"id": i, "vector": v} for i, v in zip(ids, vectors)])
    with open("values.json", "w") as fh:
        json.dump({"players": [{"id": i, "value": v} for i, v in zip(ids, values)]}, fh)
    write_jsonl("manifest.jsonl", [{"id": i, "text": f"prompt {i}"}
                                   for i in ("p6", "p1", "p4", "p0", "p3")])
    with open("config.json", "w") as fh:
        json.dump({"schema_version": 1, "game": {"seed": 5},
                   "paths": {"embeddings": "embeddings.jsonl"}}, fh)


@pytest.mark.parametrize("kind", ["linear", "ridge", "gp"])
def test_learn_and_predict_match_their_golden_digests(kind, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    learn_inputs()
    learned = run(capsys, ["learn", "--config", "config.json", "--embeddings",
                           "embeddings.jsonl", "--values", "values.json", "--model", kind,
                           "--fraction", "0.25", "--out", "model.json"])
    predicted = run(capsys, ["predict", "--config", "config.json", "--model", "model.json",
                             "--manifest", "manifest.jsonl"])
    with open("model.json", "rb") as fh:
        model = fh.read()
    assert digest(learned + predicted) == GOLDEN[f"learn-{kind}"]
    assert digest(model) == GOLDEN[f"model-{kind}"]


@pytest.mark.parametrize("name, argv", [
    ("verify-lemma1", ["verify", "lemma1", "--n-max", "12"]),
    ("verify-theorem1-affine", ["verify", "theorem1", "--n", "5", "--d", "3",
                                "--trials", "4", "--seed", "3"]),
    ("verify-theorem1-tanh", ["verify", "theorem1", "--n", "4", "--d", "2",
                              "--trials", "3", "--seed", "9", "--field", "tanh"]),
    ("verify-beta-bounds", ["verify", "beta-bounds", "--alpha", "3", "--beta", "5",
                            "--epsilon", "0.05"]),
    ("simulate", ["simulate", "--alpha", "20", "--beta", "30", "--n-classifiers", "7",
                  "--delta", "0.4", "--trials", "3", "--instances", "300", "--seed", "4",
                  "--k", "2"]),
])
def test_report_commands_match_their_golden_digests(name, argv, capsys):
    assert digest(run(capsys, argv)) == GOLDEN[name]


def test_cache_commands_match_their_golden_digests(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = [{"coalition": "05", "u": 0.5}, {"coalition": "03", "u": 0.25},
             {"coalition": "05", "u": 0.875}, {"coalition": "1f", "u": 1.0},
             {"coalition": "03", "u": 0.0}]
    with open("utility.jsonl", "w") as fh:
        fh.writelines(json.dumps(line) + "\n" for line in lines)
        fh.write("not json\n")
    inspected = run(capsys, ["cache", "inspect", "utility.jsonl"])
    assert digest(inspected) == GOLDEN["cache-inspect"]
    with open("utility.jsonl", "w") as fh:
        fh.writelines(json.dumps(line) + "\n" for line in lines)
    compacted = run(capsys, ["cache", "compact", "utility.jsonl"])
    with open("utility.jsonl", "rb") as fh:
        assert digest(compacted + fh.read()) == GOLDEN["cache-compact"]
