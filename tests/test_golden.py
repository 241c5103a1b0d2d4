"""Golden bytes of the CLI: sha256 digests of what ``value`` prints, of the
``curve.csv`` and ``curve.json`` that ``curve`` writes and of the cache files
both leave behind, for a plurality-vote matrix, a probability-average matrix
and the stub-backed live game. Any change to an engine, an oracle, the cache
or the writers that moves a byte of these outputs fails here.

Each game runs one pipeline against one fresh utility cache: ``value`` by
leave-one-out, by Monte Carlo with a fixed seed (without and with
truncation), then exactly, and ``curve`` over the exact values."""

import hashlib
import json

import numpy as np
import pytest

from promptshap.cli import main
from promptshap.ensemble import Mode, PredictionMatrix, ValidationSet
from promptshap.rng import SplitMix64

from conftest import (
    make_adversarial_fixture,
    stub_manifest_rows,
    stub_question_rows,
    write_jsonl,
    write_matrix,
    write_validation,
)

# generated on the commit before the oracle-protocol refactor, and unchanged by it
GOLDEN = {
    "matrix-vote": {
        "value-loo": "7c8fb6babef84ff621ae183a78b23f151621e5b8a5e7f469ed53b868ac4414df",
        "value-mc": "410669c5bb4c48f92290dd1817e8b89f4822579ef77a236ed3cafa0c3f9dcad2",
        "value-mc-truncated": "31d5a948161fd3250c529f92ddd6d586d9863778e9b5adb6df185e8722bd5ccd",
        "value-exact": "91b9b25c860373b934aae9816aeb9bea6732f3106cdb5a63601d2a7baa18bc10",
        "curve.csv": "69f33b4908022a2bd500353e70ff96837380520f2702d7b951e186199af9f118",
        "curve.json": "eeba9441632044b657122ada2fbb7cfe23fa3521db567c13684fc0b0469ea31c",
        "utility.jsonl": "b4488b2c98a2d235448e1ae0a759fc75b34b2c8b6180fcaf20c6774394d5f811",
    },
    "matrix-average": {
        "value-loo": "aa0133d8b12996576db186b8d1049d060474e1e36d7192aae3b76ce7fed876e2",
        "value-mc": "90fb7b21592e3b18032f1d4b3c9a3090659c6f95dfcec95942cfcf674187ebeb",
        "value-mc-truncated": "6e4dda019a2e833dfb6a41c5e65f429ef546418ce9cad914a0cb56b131c99298",
        "value-exact": "3bacd62b976ef75b8e4d6265c58533475e4e198c5f59c8dab9362fec5ea7a84d",
        "curve.csv": "46dc795f74ba7bc5172ab65cd4545f0b3bb64b96d7c518a85c128c7e49b51916",
        "curve.json": "2d54a89befdc95df25b75399395b98f2c4a7df6cfa7c03c318e1700378627439",
        "utility.jsonl": "1c12cf28683df338470639c895d143f700209aef3e2033ce19680ab656c89b00",
    },
    "live-stub": {
        "value-loo": "2182cf7e00bcea311237a8439541a6a921de0461f801d5816375b48f8e3e78c8",
        "value-mc": "17d96f83e2c05a44fe80fbacc28ec56abe73e39a7a9eeb118aede68df2b43e82",
        "value-mc-truncated": "556f98a993ff861ec5ea20f93f9111f7b3ae661625aab22a85fc765095e927be",
        "value-exact": "7e1c63dfe2825998cf636c2d24ffc497836ffefb368f52ddcb1418dcadc65783",
        "curve.csv": "a26a370e188a6d112f23cf0acedaea84d0ef2e94982e19d09bfb1604f396c0ca",
        "curve.json": "e06204a730523601bdc6eb886aa0a809c12e46ef314aa873c0a29535625524a2",
        "utility.jsonl": "820bd5e03fc9da348a3fe4a8e1274697c2ee60cc82a174ced83812d41040b49f",
        "responses.jsonl": "129ddbfe0fe1f67d3fc5c0f269fc835f753eab46d0b086d17f0bbaf58bbecc40",
    },
}


def average_fixture():
    """Five prompts over seven instances and three labels, with seeded
    probability rows of small integer weights, so some coalitions tie on their
    argmax."""
    rng = SplitMix64(11)
    golds = tuple(rng.next_u64() % 3 for _ in range(7))
    instance_ids = tuple(f"q{i}" for i in range(len(golds)))
    weights = np.array([[[rng.next_u64() % 4 + 1.0 for _ in range(3)] for _ in golds]
                        for _ in range(5)])
    matrix = PredictionMatrix(
        prompt_ids=("a0", "a1", "a2", "a3", "a4"),
        instance_ids=instance_ids,
        mode=Mode.PROBABILISTIC,
        num_labels=3,
        prob=weights / weights.sum(axis=2, keepdims=True),
    )
    return matrix, ValidationSet(instances=tuple(zip(instance_ids, golds)), num_labels=3)


def matrix_setup(tmp_path, mode, fixture):
    matrix, validation = fixture()
    write_matrix(matrix, tmp_path / "matrix.csv")
    write_validation(validation, tmp_path / "validation.csv")
    return {"utility_mode": mode,
            "paths": {"matrix": str(tmp_path / "matrix.csv"),
                      "validation": str(tmp_path / "validation.csv")}}


def stub_setup(tmp_path, stub_api):
    write_jsonl(tmp_path / "manifest.jsonl", stub_manifest_rows())
    write_jsonl(tmp_path / "questions.jsonl", stub_question_rows())
    return {"utility_mode": "live-augmentation",
            "paths": {"manifest": str(tmp_path / "manifest.jsonl"),
                      "questions": str(tmp_path / "questions.jsonl"),
                      "response_cache": str(tmp_path / "responses.jsonl")},
            "api": {"base_url": stub_api.base_url, "model": stub_api.model,
                    "backoff_base": 0.01, "timeout": 10.0}}


def pipeline(tmp_path, capsys, doc) -> dict:
    """The digest of each output of one pipeline over the game ``doc`` names."""
    doc["paths"]["utility_cache"] = str(tmp_path / "utility.jsonl")
    configs = {}
    for name, tol in (("plain", 0.0), ("truncated", 0.1)):
        configs[name] = tmp_path / f"{name}.json"
        configs[name].write_text(json.dumps({
            "schema_version": 1, **doc, "game": {"permutations": 300, "truncation_tol": tol}}))
    outputs = {}
    for name, argv in (("loo", ["--method", "loo"]),
                       ("mc", ["--method", "mc", "--seed", "7"]),
                       ("mc-truncated", ["--method", "mc", "--seed", "7"]),
                       ("exact", ["--method", "exact"])):
        config = configs["truncated" if name == "mc-truncated" else "plain"]
        assert main(["value", "--config", str(config), *argv]) == 0
        outputs[f"value-{name}"] = capsys.readouterr().out.encode()
    (tmp_path / "values.json").write_bytes(outputs["value-exact"])
    assert main(["curve", "--config", str(configs["plain"]), "--values",
                 str(tmp_path / "values.json"), "--out-dir", str(tmp_path / "curve")]) == 0
    capsys.readouterr()
    for name in ("curve.csv", "curve.json"):
        outputs[name] = (tmp_path / "curve" / name).read_bytes()
    for name in ("utility.jsonl", "responses.jsonl"):
        if (tmp_path / name).exists():
            outputs[name] = (tmp_path / name).read_bytes()
    return {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}


@pytest.mark.parametrize("game", ["matrix-vote", "matrix-average", "live-stub"])
def test_cli_outputs_match_their_golden_digests(game, tmp_path, capsys, request):
    if game == "matrix-vote":
        doc = matrix_setup(tmp_path, game, make_adversarial_fixture)
    elif game == "matrix-average":
        doc = matrix_setup(tmp_path, game, average_fixture)
    else:
        doc = stub_setup(tmp_path, request.getfixturevalue("stub_api"))
    assert pipeline(tmp_path, capsys, doc) == GOLDEN[game]
