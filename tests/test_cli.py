import dataclasses
import gc
import json
import math
import socket
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from promptshap import cli, client, selection, theory
from promptshap.cache import UtilityCache
from promptshap.cli import _own_caches, _values_from_doc, main
from promptshap.client import load_manifest, load_questions
from promptshap.ensemble import load_matrix, load_validation
from promptshap.errors import ConsistencyError, UtilityOracleError
from promptshap.jsonio import read_json
from promptshap.learning import EmbeddingMatrix, load_embeddings, load_model, predict_sv

from conftest import (
    make_adversarial_fixture,
    save_embeddings,
    stub_manifest_rows,
    stub_question_rows,
    utility_of,
    write_jsonl,
    write_matrix,
    write_validation,
)


def write_config(tmp_path, doc, name="config.json"):
    doc = {"schema_version": 1, **doc}
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def matrix_config(tmp_path):
    matrix, validation = make_adversarial_fixture()
    write_matrix(matrix, tmp_path / "matrix.csv")
    write_validation(validation, tmp_path / "validation.csv")
    return write_config(tmp_path, {
        "utility_mode": "matrix-vote",
        "paths": {
            "matrix": str(tmp_path / "matrix.csv"),
            "validation": str(tmp_path / "validation.csv"),
            "utility_cache": str(tmp_path / "utility.jsonl"),
        },
        "game": {"permutations": 200},
    })


def run_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# value


def test_value_exact(matrix_config, capsys):
    code, out, err = run_json(capsys, ["value", "--config", matrix_config])
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["method"] == "exact"
    assert doc["n"] == 6
    assert doc["u_full"] == 0.0
    assert doc["u_empty"] == 0.0
    assert [p["id"] for p in doc["players"]] == ["c0", "c1", "c2", "x0", "x1", "x2"]
    values = [p["value"] for p in doc["players"]]
    assert abs(math.fsum(values)) < 1e-9   # efficiency: sums to U(N) - U(empty)
    assert all(v > 0 for v in values[:3]) and all(v < 0 for v in values[3:])


def test_value_writes_out_file(matrix_config, tmp_path, capsys):
    out_path = tmp_path / "values.json"
    code, out, _ = run_json(
        capsys, ["value", "--config", matrix_config, "--out", str(out_path)]
    )
    assert code == 0
    assert out == ""
    doc = json.loads(out_path.read_text())
    assert doc["method"] == "exact"


def test_value_loo_method(matrix_config, capsys):
    code, out, _ = run_json(capsys, ["value", "--config", matrix_config, "--method", "loo"])
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "loo"
    values = [p["value"] for p in doc["players"]]
    assert values[:3] == [0.0, 0.0, 0.0]
    assert values[3:] == [-1.0, -1.0, -1.0]


def test_value_mc_depends_on_seed_only(matrix_config, capsys):
    code, out1, _ = run_json(
        capsys, ["value", "--config", matrix_config, "--method", "mc", "--seed", "1"]
    )
    assert code == 0
    _, out1_again, _ = run_json(
        capsys, ["value", "--config", matrix_config, "--method", "mc", "--seed", "1"]
    )
    _, out2, _ = run_json(
        capsys, ["value", "--config", matrix_config, "--method", "mc", "--seed", "2"]
    )
    assert out1 == out1_again   # byte-identical reruns
    assert out1 != out2
    doc = json.loads(out1)
    assert doc["method"] == "montecarlo"
    assert doc["samples"] == 200
    assert all(p["stderr"] > 0 for p in doc["players"])


def test_value_reruns_are_byte_identical(matrix_config, capsys):
    _, out1, _ = run_json(capsys, ["value", "--config", matrix_config])
    _, out2, _ = run_json(capsys, ["value", "--config", matrix_config])
    assert out1 == out2


# ---------------------------------------------------------------------------
# curve


def test_curve_command(matrix_config, tmp_path, capsys):
    values_path = tmp_path / "values.json"
    assert main(["value", "--config", matrix_config, "--out", str(values_path)]) == 0
    capsys.readouterr()

    out_dir = tmp_path / "curves"
    code, out, _ = run_json(capsys, [
        "curve", "--config", matrix_config,
        "--values", str(values_path), "--out-dir", str(out_dir),
    ])
    assert code == 0
    summary = json.loads(out)
    assert summary["best_prefix"] == {"k": 1, "utility": 1.0, "prompt_ids": ["c0"]}
    assert summary["u_full"] == 0.0

    csv_text = (out_dir / "curve.csv").read_text()
    assert csv_text.splitlines()[0] == "k,added_prompt_id,utility"
    assert len(csv_text.splitlines()) == 7
    curve_doc = json.loads((out_dir / "curve.json").read_text())
    assert [p["utility"] for p in curve_doc["points"]] == [1.0, 1.0, 1.0, 1.0, 1.0, 0.0]

    # a second run reproduces every byte, warm cache included
    code, out2, _ = run_json(capsys, [
        "curve", "--config", matrix_config,
        "--values", str(values_path), "--out-dir", str(out_dir),
    ])
    assert code == 0
    assert out2 == out
    assert (out_dir / "curve.csv").read_text() == csv_text


def test_curve_rejects_mismatched_ids(matrix_config, tmp_path, capsys):
    values_path = tmp_path / "values.json"
    values_path.write_text(json.dumps({
        "players": [{"id": f"wrong{i}", "value": 0.1} for i in range(6)]
    }))
    code, _, err = run_json(capsys, [
        "curve", "--config", matrix_config,
        "--values", str(values_path), "--out-dir", str(tmp_path / "c"),
    ])
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "ConsistencyError"


def test_curve_rejects_inconsistent_u_full(matrix_config, tmp_path, capsys):
    values_path = tmp_path / "values.json"
    ids = ["c0", "c1", "c2", "x0", "x1", "x2"]
    values_path.write_text(json.dumps({
        "u_full": 0.75,   # the real full-set utility is 0.0
        "players": [{"id": pid, "value": 0.1} for pid in ids],
    }))
    code, _, err = run_json(capsys, [
        "curve", "--config", matrix_config,
        "--values", str(values_path), "--out-dir", str(tmp_path / "c"),
    ])
    assert code == 1
    assert json.loads(err)["error"] == "ConsistencyError"


# ---------------------------------------------------------------------------
# learn / predict


@pytest.fixture
def learn_inputs(tmp_path):
    ids = ["c0", "c1", "c2", "x0", "x1", "x2"]
    vectors = np.array([
        [1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
        [-1.0, 0.0], [0.0, -1.0], [-1.0, -1.0],
    ])
    w, b = np.array([0.25, 0.15]), 0.05
    values = vectors @ w + b
    emb_path = tmp_path / "embeddings.jsonl"
    save_embeddings(EmbeddingMatrix(tuple(ids), vectors), emb_path)
    values_path = tmp_path / "values.json"
    values_path.write_text(json.dumps({
        "players": [{"id": pid, "value": float(v)} for pid, v in zip(ids, values)]
    }))
    manifest_path = tmp_path / "manifest.jsonl"
    write_jsonl(manifest_path, [{"id": pid, "text": f"prompt {pid}"} for pid in ids])
    config = write_config(tmp_path, {
        "paths": {"embeddings": str(emb_path)},
    })
    return {
        "config": config,
        "embeddings": str(emb_path),
        "values": str(values_path),
        "manifest": str(manifest_path),
        "true_values": values,
        "ids": ids,
    }


def test_learn_then_predict_round_trip(learn_inputs, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    code, out, _ = run_json(capsys, [
        "learn", "--config", learn_inputs["config"],
        "--embeddings", learn_inputs["embeddings"],
        "--values", learn_inputs["values"],
        "--model", "linear", "--fraction", "0.34",
        "--out", str(model_path),
    ])
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "linear"
    assert report["n_train"] == 4
    assert report["n_test"] == 2
    assert report["rmse"] < 1e-8
    assert report["model_path"] == str(model_path)
    assert model_path.exists()

    code, out, _ = run_json(capsys, [
        "predict", "--config", learn_inputs["config"],
        "--model", str(model_path),
        "--manifest", learn_inputs["manifest"],
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "linear"
    assert [p["id"] for p in doc["predictions"]] == learn_inputs["ids"]
    predicted = np.array([p["value"] for p in doc["predictions"]])
    assert np.allclose(predicted, learn_inputs["true_values"], atol=1e-6)


@pytest.mark.parametrize("kind", ["ridge", "gp"])
def test_learn_keeps_an_explicit_standardize_false(kind, learn_inputs, tmp_path, capsys):
    config = write_config(tmp_path, {"paths": {"embeddings": learn_inputs["embeddings"]},
                                     "regressor": {"standardize": False}}, name="raw.json")
    model_path = tmp_path / "model.json"
    code, _, _ = run_json(capsys, [
        "learn", "--config", config, "--embeddings", learn_inputs["embeddings"],
        "--values", learn_inputs["values"], "--model", kind, "--fraction", "0.34",
        "--out", str(model_path)])
    assert code == 0
    model = json.loads(model_path.read_text())
    assert model["metadata"]["standardize"] is False
    if kind == "gp":    # the embedding columns' standard deviations are not 1
        assert model["parameters"]["x_scale"] == [1.0, 1.0]


@pytest.mark.parametrize("command, field", [
    ("curve", "value"),
    ("curve", "u_full"),
    ("learn", "value"),
])
def test_non_finite_number_in_values_file_is_rejected(command, field, matrix_config,
                                                       learn_inputs, tmp_path, capsys):
    ids = ["c0", "c1", "c2", "x0", "x1", "x2"]
    doc = {"u_full": 0.0, "players": [{"id": pid, "value": 0.1} for pid in ids]}
    if field == "u_full":
        doc["u_full"] = float("nan")
    else:
        doc["players"][0]["value"] = float("nan")
    values_path = tmp_path / "nan_values.json"
    values_path.write_text(json.dumps(doc))   # json writes the bare token NaN
    if command == "curve":
        argv = ["curve", "--config", matrix_config, "--out-dir", str(tmp_path / "c")]
    else:
        argv = ["learn", "--config", learn_inputs["config"],
                "--embeddings", learn_inputs["embeddings"], "--out", str(tmp_path / "m.json")]
    code, out, err = run_json(capsys, argv + ["--values", str(values_path)])
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "ConsistencyError"
    assert "finite" in payload["message"]


@pytest.mark.parametrize("command", ["curve", "learn"])
@pytest.mark.parametrize("field, bad", [
    ("value", "0.1"),
    ("value", True),
    ("u_full", "0.0"),
    ("u_full", False),
])
def test_values_file_entries_must_be_json_numbers(command, field, bad, matrix_config,
                                                  learn_inputs, tmp_path, capsys):
    ids = ["c0", "c1", "c2", "x0", "x1", "x2"]
    doc = {"u_full": 0.0, "players": [{"id": pid, "value": 0.1} for pid in ids]}
    if field == "u_full":
        doc["u_full"] = bad
    else:
        doc["players"][2]["value"] = bad
    values_path = tmp_path / "typed_values.json"
    values_path.write_text(json.dumps(doc))
    if command == "curve":
        argv = ["curve", "--config", matrix_config, "--out-dir", str(tmp_path / "c")]
    else:
        argv = ["learn", "--config", learn_inputs["config"],
                "--embeddings", learn_inputs["embeddings"], "--out", str(tmp_path / "m.json")]
    code, out, err = run_json(capsys, argv + ["--values", str(values_path)])
    assert (code, out) == (1, "")
    payload = json.loads(err)
    assert payload["error"] == "ConsistencyError"
    assert payload["message"] == (
        f"{values_path}: values and u_full must be finite numbers")


# ---------------------------------------------------------------------------
# malformed input files

def _linear_model(parameters=None, kind="linear"):
    if parameters is None:
        parameters = {"weights": [0.5], "intercept": 0.0}
    return json.dumps({"schema_version": 1, "kind": kind, "d": 1, "parameters": parameters})


def load_values(path):
    return read_json(path, _values_from_doc)


def load_matrix2(path):   # a two-label matrix
    return load_matrix(path, num_labels=2)


# the line of a bad JSON Lines row written after a good row and a blank line
ROW = 3
DIRECTORY = "<directory>"
HUGE = "1" + "0" * 400   # a JSON integer too large for a float
GOOD_ROW = {load_manifest: '{"id": "p0", "text": "t"}',
            load_questions: '{"id": "q0", "question": "1+1?", "gold": "2"}',
            load_embeddings: '{"id": "e0", "vector": [0.5, 0.5]}'}


@pytest.mark.parametrize("load, line, content", [
    pytest.param(load_manifest, None, None, id="manifest-missing"),
    pytest.param(load_questions, None, None, id="questions-missing"),
    pytest.param(load_embeddings, None, None, id="embeddings-missing"),
    pytest.param(load_model, None, None, id="model-missing"),
    pytest.param(load_manifest, ROW, '["p", "text"]', id="manifest-row-not-object"),
    pytest.param(load_manifest, ROW, '{"text": "x"}', id="manifest-no-id"),
    pytest.param(load_manifest, ROW, '{"id": "p", "text"', id="manifest-not-json"),
    # "\udcff" is written as the lone byte 0xff
    pytest.param(load_manifest, ROW, '{"id": "p", "text": "\udcff"}', id="manifest-not-utf8"),
    pytest.param(load_questions, ROW, '{"id": "q", "question": "2+2?"}', id="questions-no-gold"),
    pytest.param(load_questions, ROW, '"q"', id="questions-row-not-object"),
    pytest.param(load_embeddings, ROW, '{"id": "e", "vector": [1.0, "x"]}',
                 id="embeddings-string"),
    pytest.param(load_embeddings, ROW, '{"id": "e", "vector": 3}', id="embeddings-not-array"),
    pytest.param(load_embeddings, ROW, '{"vector": [1.0, 2.0]}', id="embeddings-no-id"),
    pytest.param(load_model, None, "[]", id="model-not-object"),
    pytest.param(load_model, None, '{"schema_version": 1, "kind": "linear"', id="model-not-json"),
    pytest.param(load_model, None, '{"kind": "\udcff"}', id="model-not-utf8"),
    pytest.param(load_model, None, _linear_model([]), id="model-parameters-not-object"),
    pytest.param(load_model, None, _linear_model(kind="svm"), id="model-unknown-kind"),
    pytest.param(load_model, None, _linear_model({"weights": ["x"], "intercept": 0.0}),
                 id="model-string-weight"),
    pytest.param(load_model, None, _linear_model({"weights": [0.5], "intercept": None}),
                 id="model-null-intercept"),
    # the CSV inputs and every loader's whole-file step
    pytest.param(load_validation, None, None, id="validation-missing"),
    pytest.param(load_validation, None, DIRECTORY, id="validation-directory"),
    pytest.param(load_validation, None, "#num_labels=2\ninstance_id,gold_label\nq\udcff,0\n",
                 id="validation-not-utf8"),
    pytest.param(load_validation, None, "#num_labels=2\nid,label\nq0,0\n",
                 id="validation-bad-header"),
    pytest.param(load_matrix2, None, None, id="matrix-missing"),
    pytest.param(load_matrix2, None, DIRECTORY, id="matrix-directory"),
    pytest.param(load_matrix2, None, "prompt_id,q0\np\udcff,1\n", id="matrix-not-utf8"),
    pytest.param(load_matrix2, None, 'prompt_id,q0\np0,"[true, false]"\n', id="matrix-bool-cell"),
    pytest.param(load_matrix2, None, 'prompt_id,q0\np0,"[0.5, 0.5"\n', id="matrix-bad-cell"),
    pytest.param(load_matrix2, None, "prompt_id,q0\np0,one\n", id="matrix-hard-not-integer"),
    pytest.param(load_model, None, DIRECTORY, id="model-directory"),
    pytest.param(load_embeddings, None, DIRECTORY, id="embeddings-directory"),
    pytest.param(load_embeddings, None, f'{{"id": "e", "vector": [{HUGE}, 1.0]}}',
                 id="embeddings-huge-integer"),
    pytest.param(load_values, None, f'{{"players": [{{"id": "p", "value": {HUGE}}}]}}',
                 id="values-huge-integer"),
    pytest.param(load_values, None, '{"players": []}', id="values-no-players"),
    pytest.param(load_values, None, '{"players": [{"id": "p", "value": 0.5}, '
                                    '{"id": "p", "value": 0.25}]}', id="values-duplicate-ids"),
    pytest.param(load_model, None, _linear_model({"weights": [0.5], "intercept": int(HUGE)}),
                 id="model-huge-integer"),
    pytest.param(load_embeddings, None,
                 '{"id": "e", "vector": [1.0]}\n{"id": "e", "vector": [2.0]}',
                 id="embeddings-duplicate-ids"),
    pytest.param(load_embeddings, None, '{"id": "e", "vector": [NaN, 1.0]}',
                 id="embeddings-nan-entry"),
    pytest.param(load_manifest, None, '{"id": "p", "text": "a"}\n{"id": "p", "text": "b"}',
                 id="manifest-duplicate-ids"),
    pytest.param(load_manifest, None, '{"id": "p", "text": ""}', id="manifest-empty-text"),
])
def test_malformed_input_file_raises_consistency_error(load, line, content, tmp_path):
    """The fault names the file first, and the line of a bad JSON Lines row."""
    path = tmp_path / "input"
    if content == DIRECTORY:
        path.mkdir()
    elif content is not None:   # None: no file at all
        if line is not None:    # a bad row after a good one
            content = GOOD_ROW[load] + "\n\n" + content
        path.write_bytes((content + "\n").encode("utf-8", "surrogateescape"))
    where = str(path) if line is None else f"{path}:{line}"
    with pytest.raises(ConsistencyError) as info:
        load(str(path))
    assert str(info.value).startswith(f"{where}: ")


@pytest.mark.parametrize("command, flag, code, error", [
    pytest.param("predict", "--model", 1, "ConsistencyError", id="predict-model"),
    pytest.param("predict", "--manifest", 1, "ConsistencyError", id="predict-manifest"),
    pytest.param("learn", "--embeddings", 1, "ConsistencyError", id="learn-embeddings"),
    pytest.param("learn", "--values", 1, "ConsistencyError", id="learn-values"),
    pytest.param("value", "--config", 3, "ConfigError", id="value-config"),
])
def test_missing_input_file_is_reported(command, flag, code, error, learn_inputs,
                                        tmp_path, capsys):
    model_path = tmp_path / "model.json"
    config = learn_inputs["config"]
    assert main(["learn", "--config", config,
                 "--embeddings", learn_inputs["embeddings"], "--values", learn_inputs["values"],
                 "--model", "linear", "--fraction", "0.34", "--out", str(model_path)]) == 0
    capsys.readouterr()
    argv = {
        "predict": ["predict", "--config", config, "--model", str(model_path),
                    "--manifest", learn_inputs["manifest"]],
        "learn": ["learn", "--config", config, "--embeddings", learn_inputs["embeddings"],
                  "--values", learn_inputs["values"], "--out", str(tmp_path / "m.json")],
        "value": ["value", "--config", config],
    }[command]
    missing = str(tmp_path / "missing.json")
    argv[argv.index(flag) + 1] = missing
    got, out, err = run_json(capsys, argv)
    assert got == code
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == error
    assert missing in payload["message"]


def test_predict_reports_a_bad_manifest_row(learn_inputs, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    assert main(["learn", "--config", learn_inputs["config"],
                 "--embeddings", learn_inputs["embeddings"], "--values", learn_inputs["values"],
                 "--model", "linear", "--fraction", "0.34", "--out", str(model_path)]) == 0
    manifest = tmp_path / "bad_manifest.jsonl"
    manifest.write_text('{"text": "x"}\n')
    capsys.readouterr()
    code, out, err = run_json(capsys, [
        "predict", "--config", learn_inputs["config"],
        "--model", str(model_path), "--manifest", str(manifest),
    ])
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "ConsistencyError"
    assert f"{manifest}:1" in payload["message"]


def test_learn_and_predict_read_unit_norm_features_alike(learn_inputs, tmp_path, capsys):
    # the values are linear in the unit-length vectors, not in the raw ones
    raw = load_embeddings(learn_inputs["embeddings"]).vectors
    unit = raw / np.linalg.norm(raw, axis=1)[:, None]
    true_values = unit @ np.array([0.25, 0.15]) + 0.05
    values_path = tmp_path / "unit_values.json"
    values_path.write_text(json.dumps({"players": [
        {"id": pid, "value": float(v)} for pid, v in zip(learn_inputs["ids"], true_values)]}))
    config = write_config(tmp_path, {
        "paths": {"embeddings": learn_inputs["embeddings"]},
        "api": {"embeddings_unit_norm": True},
    }, name="unit.json")
    model_path = tmp_path / "model.json"
    code, out, _ = run_json(capsys, [
        "learn", "--config", config, "--embeddings", learn_inputs["embeddings"],
        "--values", str(values_path), "--model", "linear", "--fraction", "0.34",
        "--out", str(model_path),
    ])
    assert code == 0
    assert json.loads(out)["rmse"] < 1e-8
    code, out, _ = run_json(capsys, [
        "predict", "--config", config, "--model", str(model_path),
        "--manifest", learn_inputs["manifest"],
    ])
    assert code == 0
    predicted = np.array([p["value"] for p in json.loads(out)["predictions"]])
    assert np.array_equal(predicted, predict_sv(load_model(str(model_path)), unit))
    assert np.allclose(predicted, true_values, atol=1e-6)


def test_value_reports_a_directory_matrix(matrix_config, tmp_path, capsys):
    doc = json.loads(Path(matrix_config).read_text())
    directory = tmp_path / "matrix_dir"
    directory.mkdir()
    doc["paths"]["matrix"] = str(directory)
    config = write_config(tmp_path, doc, name="dir.json")
    code, out, err = run_json(capsys, ["value", "--config", config])
    assert (code, out) == (1, "")
    payload = json.loads(err)
    assert payload["error"] == "ConsistencyError"
    assert payload["message"].startswith(f"{directory}: ")


@pytest.mark.parametrize("empty", ["manifest", "questions"])
def test_value_reports_an_empty_live_input(empty, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("PROMPTSHAP_API_KEY", raising=False)   # reaching the API exits 4
    paths = {"manifest": tmp_path / "manifest.jsonl", "questions": tmp_path / "questions.jsonl"}
    write_jsonl(paths["manifest"], stub_manifest_rows())
    write_jsonl(paths["questions"], stub_question_rows())
    paths[empty].write_text("")
    config = write_config(tmp_path, {
        "utility_mode": "live-augmentation",
        "paths": {name: str(path) for name, path in paths.items()},
        "api": {"base_url": "http://127.0.0.1:9", "model": "m"},
    })
    code, out, err = run_json(capsys, ["value", "--config", config])
    assert (code, out) == (1, "")
    payload = json.loads(err)
    assert payload["error"] == "ConsistencyError"
    assert payload["message"].startswith(f"{paths[empty]}: ")


# ---------------------------------------------------------------------------
# verify / simulate / cache


def test_verify_lemma1(capsys):
    code, out, _ = run_json(capsys, ["verify", "lemma1", "--n-max", "12"])
    assert code == 0
    doc = json.loads(out)
    assert doc["cases"] == 66
    assert doc["equal"] is True


def test_verify_theorem1(capsys):
    code, out, _ = run_json(capsys, [
        "verify", "theorem1", "--n", "4", "--d", "3", "--trials", "3", "--seed", "1",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["violations"] == 0
    assert doc["field"] == "affine"
    assert doc["pairs_checked"] == 3 * 6


def test_verify_theorem1_tanh_field(capsys):
    code, out, _ = run_json(capsys, [
        "verify", "theorem1", "--n", "3", "--d", "2", "--trials", "2", "--field", "tanh",
    ])
    assert code == 0
    assert json.loads(out)["violations"] == 0


@pytest.mark.parametrize("check, patched, report, message", [
    (["lemma1", "--n-max", "4"], "lemma1_sweep",
     {"n_max": 4, "cases": 6, "equal": False,
      "failures": [{"n": 3, "k": 0, "lhs": "1", "rhs": "2"}]},
     "coefficient identity failed on 1 cases"),
    (["theorem1", "--n", "3", "--d", "2", "--trials", "1"], "theorem1_experiment",
     {"trials": 1, "violations": 2}, "2 Lipschitz bound violations"),
], ids=["lemma1", "theorem1"])
def test_verify_exits_1_on_a_failed_check(monkeypatch, capsys, check, patched, report, message):
    monkeypatch.setattr(theory, patched, lambda *args: dict(report))
    code, out, err = run_json(capsys, ["verify", *check])
    assert code == 1
    doc = json.loads(out)   # the report is still written, with the failures in it
    assert {key: doc[key] for key in report} == report
    payload = json.loads(err)
    assert payload["error"] == "PromptShapError"
    assert payload["message"] == message


def test_verify_theorem1_counts_every_pair_over_the_bound(monkeypatch, capsys):
    # values a million apart per player break the bound on every pair
    exact = theory.shapley_exact

    def spread(game):
        result = exact(game)
        return dataclasses.replace(result, values=tuple(1e6 * i for i in range(result.n)))

    monkeypatch.setattr(theory, "shapley_exact", spread)
    report = theory.theorem1_experiment(theory.theorem1_game(3, 2, seed=4), trials=2, seed=4)
    assert report["pairs_checked"] == 2 * 3
    assert report["violations"] == report["pairs_checked"]
    assert report["max_ratio"] > 1
    code, out, err = run_json(capsys, ["verify", "theorem1", "--n", "3", "--d", "2",
                                       "--trials", "2", "--seed", "4"])
    assert code == 1
    assert json.loads(out) == {**report, "field": "affine"}
    assert json.loads(err)["message"] == "6 Lipschitz bound violations"


def test_an_unexpected_exception_is_one_json_error_and_exit_1(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("not a PromptShapError")

    monkeypatch.setattr(cli, "cmd_cache", broken)
    code, out, err = run_json(capsys, ["cache", "inspect", "any.jsonl"])
    assert code == 1
    assert out == ""
    assert json.loads(err) == {"error": "RuntimeError", "message": "not a PromptShapError"}


def test_verify_beta_bounds(capsys):
    code, out, _ = run_json(capsys, [
        "verify", "beta-bounds", "--alpha", "2", "--beta", "2", "--epsilon", "0.1",
    ])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["exact"] - 0.296) < 1e-6
    assert doc["poly_out_of_validity"] is True


def test_simulate(capsys):
    code, out, _ = run_json(capsys, [
        "simulate", "--alpha", "50", "--beta", "50", "--n-classifiers", "10",
        "--delta", "0.5", "--trials", "3", "--instances", "500", "--seed", "0",
    ])
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["bound"] - 0.8018640596081467) < 1e-9
    assert doc["exceed_count"] == 0
    assert doc["identity_max_abs_err"] <= 1e-12


def run_cli(*argv):
    """The CLI in a fresh interpreter, which must end within 10 s."""
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-m", "promptshap.cli", *argv],
                          env={"PYTHONPATH": str(src)}, capture_output=True, text=True,
                          timeout=10)
    assert "NaN" not in done.stdout and "Infinity" not in done.stdout
    return done.returncode, done.stdout, done.stderr


def test_verify_beta_bounds_ends_on_a_large_shape():
    # the continued fraction once gave up after 300 iterations here, and the
    # quadrature fallback it handed the interval to never finished
    code, out, err = run_cli("verify", "beta-bounds", "--alpha", "1e6", "--beta", "1e6",
                             "--epsilon", "1e-7")
    assert code == 0, err
    doc = json.loads(out)
    assert all(math.isfinite(doc[key]) for key in ("exact", "quad", "normal", "poly"))
    assert abs(doc["exact"] - doc["normal"]) / doc["normal"] < 1e-5


def test_verify_beta_bounds_reports_a_quadrature_that_cannot_converge():
    code, out, err = run_cli("verify", "beta-bounds", "--alpha", "1e5", "--beta", "1e5",
                             "--epsilon", "0.1")
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "ConditioningError"


SIMULATE_ARGS = ["--n-classifiers", "7", "--delta", "0.3", "--trials", "2",
                 "--instances", "100"]


@pytest.mark.parametrize("command", [["verify", "beta-bounds"], ["simulate", *SIMULATE_ARGS]],
                         ids=["verify-beta-bounds", "simulate"])
@pytest.mark.parametrize("shape", ["1e300", "1e-300"])
def test_beta_commands_refuse_a_shape_without_a_finite_sigma(command, shape):
    # sigma was NaN at 1e300, with a NaN bound that nothing exceeded, and a
    # raw ZeroDivisionError at 1e-300
    code, out, err = run_cli(*command, "--alpha", shape, "--beta", shape)
    assert (code, out) == (1, "")
    payload = json.loads(err)
    assert payload["error"] == "PreconditionError"
    assert "sigma" in payload["message"]


def test_cache_inspect_and_compact(tmp_path, capsys):
    path = tmp_path / "u.jsonl"
    path.write_text(
        json.dumps({"coalition": "05", "u": 0.5}) + "\n"
        + json.dumps({"coalition": "05", "u": 0.9}) + "\n"
    )
    code, out, _ = run_json(capsys, ["cache", "inspect", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["entries"] == 1
    assert doc["duplicates"] == 1

    code, out, _ = run_json(capsys, ["cache", "compact", str(path)])
    assert code == 0
    assert len(path.read_text().splitlines()) == 1


def test_cache_compact_waits_for_no_lock(tmp_path, capsys):
    path = tmp_path / "u.jsonl"
    before = (json.dumps({"coalition": "05", "u": 0.5}) + "\n") * 2
    path.write_text(before)
    with _own_caches(str(path)):
        code, out, err = run_json(capsys, ["cache", "compact", str(path)])
    assert (code, out) == (1, "")
    payload = json.loads(err)
    assert payload["error"] == "PromptShapError"
    assert payload["message"] == f"cache file {path} is in use by another process"
    assert path.read_text() == before


@pytest.mark.parametrize("op", ["inspect", "compact"])
@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_cache_commands_report_an_unreadable_path(tmp_path, capsys, op, kind):
    path = tmp_path / "cache"
    if kind == "directory":
        path.mkdir()
    code, out, err = run_json(capsys, ["cache", op, str(path)])
    assert (code, out) == (1, "")
    payload = json.loads(err)
    assert payload["error"] == "ConsistencyError"
    assert str(path) in payload["message"]
    assert not (tmp_path / "cache.lock").exists()


def test_value_skips_an_undecodable_cache_line(matrix_config, tmp_path, capsys):
    assert main(["value", "--config", matrix_config]) == 0
    expected = capsys.readouterr().out
    cache_path = tmp_path / "utility.jsonl"
    cache_path.write_bytes(b"\xff\xfe\n" + cache_path.read_bytes())
    with pytest.warns(UserWarning, match="utility.jsonl:1: skipping malformed cache line"):
        code, out, err = run_json(capsys, ["value", "--config", matrix_config])
    assert (code, out, err) == (0, expected, "")


# ---------------------------------------------------------------------------
# exit codes and error reporting


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "UsageError"
    assert main(["value"]) == 2           # missing --config
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main(["value", "--config", "x", "--method", "banana"]) == 2
    capsys.readouterr()


def test_help_exits_0_and_documents_exit_codes(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "exit codes:" in out
    assert "PROMPTSHAP_API_KEY" in out


def test_missing_config_exits_3(tmp_path, capsys):
    code, _, err = run_json(capsys, ["value", "--config", str(tmp_path / "absent.json")])
    assert code == 3
    assert json.loads(err)["error"] == "ConfigError"


def test_config_without_required_paths_exits_3(tmp_path, capsys):
    config = write_config(tmp_path, {})   # matrix mode without matrix/validation paths
    code, _, err = run_json(capsys, ["value", "--config", config])
    assert code == 3
    assert json.loads(err)["error"] == "ConfigError"


def live_config_without_server(tmp_path) -> str:
    manifest_path = tmp_path / "manifest.jsonl"
    write_jsonl(manifest_path, stub_manifest_rows())
    questions_path = tmp_path / "questions.jsonl"
    write_jsonl(questions_path, stub_question_rows())
    return write_config(tmp_path, {
        "utility_mode": "live-augmentation",
        "paths": {
            "manifest": str(manifest_path),
            "questions": str(questions_path),
        },
        # port 9 is never contacted: the credential check runs first
        "api": {"base_url": "http://127.0.0.1:9", "model": "m"},
    })


def test_missing_credential_exits_4_without_network(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("PROMPTSHAP_API_KEY", raising=False)
    config = live_config_without_server(tmp_path)
    code, _, err = run_json(capsys, ["value", "--config", config])
    assert code == 4
    payload = json.loads(err)
    assert payload["error"] == "CredentialError"
    assert "PROMPTSHAP_API_KEY" in payload["message"]


@pytest.mark.parametrize("key", [
    "sk-secret\r\nX-Injected: 1",
    "sk-secret\n",
    "sk-secret\r",
    "sk-secret-\u043a\u043b\u044e\u0447",     # outside latin-1
], ids=["crlf", "lf", "cr", "non-latin-1"])
def test_a_credential_no_header_can_carry_exits_4_without_echoing_it(key, tmp_path, capsys,
                                                                    monkeypatch):
    # os.environ cannot hold NUL, so that case cannot reach the client from here
    monkeypatch.setenv("PROMPTSHAP_API_KEY", key)
    sent = []
    monkeypatch.setattr(client, "_send", lambda request, timeout: sent.append(request))
    config = live_config_without_server(tmp_path)
    code, out, err = run_json(capsys, ["value", "--config", config])
    assert code == 4
    payload = json.loads(err)
    assert payload["error"] == "CredentialError"
    assert payload["env_var"] == "PROMPTSHAP_API_KEY"
    assert "sk-secret" not in out + err
    assert sent == []


@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "utility-cache"])
def test_a_failed_zero_shot_request_reports_the_transport_error(cached, tmp_path, capsys,
                                                                 monkeypatch):
    # U(empty) of the live game is asked for before any engine runs, so its
    # failure is the transport error alone, with no coalition detail
    monkeypatch.setenv("PROMPTSHAP_API_KEY", "any-key")
    paths = {"manifest": tmp_path / "manifest.jsonl", "questions": tmp_path / "questions.jsonl"}
    write_jsonl(paths["manifest"], stub_manifest_rows())
    write_jsonl(paths["questions"], stub_question_rows())
    if cached:
        paths["utility_cache"] = tmp_path / "utility.jsonl"
    with socket.socket() as refusing:
        refusing.bind(("127.0.0.1", 0))     # bound, never listening: connections are refused
        host, port = refusing.getsockname()
        config = write_config(tmp_path, {
            "utility_mode": "live-augmentation",
            "paths": {name: str(path) for name, path in paths.items()},
            "api": {"base_url": f"http://{host}:{port}", "model": "m", "attempts": 1},
        })
        code, out, err = run_json(capsys, ["value", "--config", config])
    assert (code, out) == (1, "")
    payload = json.loads(err)
    assert sorted(payload) == ["error", "last_error", "last_status", "message"]
    assert payload["error"] == "TransportError"
    assert payload["message"] == "POST /v1/chat/completions failed after 1 attempts"
    assert payload["last_status"] is None
    if cached:
        assert len(UtilityCache.load(paths["utility_cache"])) == 0


@pytest.mark.parametrize("section, value", [
    pytest.param("game", {"permutations": "many"}, id="permutations-string"),
    pytest.param("game", {"exact_cap": "20"}, id="exact-cap-string"),
    pytest.param("game", {"permutations": True}, id="permutations-bool"),
    pytest.param("paths", {"matrix": ["a"]}, id="matrix-path-list"),
])
def test_mistyped_config_value_exits_3(section, value, tmp_path, capsys):
    config = write_config(tmp_path, {section: value})
    code, _, err = run_json(capsys, ["value", "--config", config, "--method", "mc"])
    assert code == 3
    payload = json.loads(err)
    assert payload["error"] == "ConfigError"
    assert f"{section}.{next(iter(value))} must be" in payload["message"]


def test_curve_writes_the_partial_curve_when_the_oracle_fails(stub, stub_api, tmp_path, capsys):
    paths = {"manifest": tmp_path / "manifest.jsonl", "questions": tmp_path / "questions.jsonl",
             "utility_cache": tmp_path / "utility.jsonl",
             "response_cache": tmp_path / "responses.jsonl"}
    write_jsonl(paths["manifest"], stub_manifest_rows())
    write_jsonl(paths["questions"], stub_question_rows())
    config = write_config(tmp_path, {
        "utility_mode": "live-augmentation",
        "paths": {name: str(path) for name, path in paths.items()},
        "api": {"base_url": stub_api.base_url, "model": stub_api.model,
                "backoff_base": 0.01, "timeout": 10.0},
    })
    values_path = tmp_path / "values.json"
    assert main(["value", "--config", config, "--method", "loo", "--out", str(values_path)]) == 0
    capsys.readouterr()
    # the caches hold the full set and the full set minus each prompt, not the top prompt alone
    stub.state.fail_next, stub.state.fail_status = 1, 400
    out_dir = tmp_path / "curve"
    code, out, err = run_json(capsys, ["curve", "--config", config, "--values", str(values_path),
                                       "--out-dir", str(out_dir)])
    assert (code, out) == (1, "")
    payload = json.loads(err)
    csv_path, json_path = str(out_dir / "curve.csv"), str(out_dir / "curve.json")
    assert payload["error"] == "PromptShapError"
    assert payload["message"] == "utility oracle failed at k=1; partial curve written"
    assert (payload["failed_k"], payload["curve_csv"], payload["curve_json"]) == \
        (1, csv_path, json_path)
    assert payload["oracle_error"] == "unexpected HTTP 400 from /v1/chat/completions"
    players = json.loads(values_path.read_text())["players"]
    top = min(players, key=lambda p: (-p["value"], p["id"]))["id"]
    assert Path(csv_path).read_text() == f"k,added_prompt_id,utility\n1,{top},\n"
    assert json.loads(Path(json_path).read_text()) == {
        "points": [{"k": 1, "added_prompt_id": top, "utility": None}],
        "error": payload["oracle_error"], "failed_k": 1}
    assert stub.state.fail_next == 0


@pytest.mark.parametrize("command", ["value", "curve"])
@pytest.mark.parametrize("fails", [False, True], ids=["success", "error"])
def test_commands_close_their_caches(command, fails, matrix_config, tmp_path, capsys,
                                     monkeypatch):
    values_path = tmp_path / "values.json"
    assert main(["value", "--config", matrix_config, "--out", str(values_path)]) == 0
    cache_path = tmp_path / "utility.jsonl"
    cache_path.unlink()
    if fails:   # the command stops after one evaluation has been appended
        def stop_after_one_call(batch, n):
            utility_of(batch, (1 << n) - 1, n)
            raise UtilityOracleError("stopped")
        monkeypatch.setattr(cli, "shapley_exact",
                            lambda game, **kwargs: stop_after_one_call(game.batch, game.n))
        monkeypatch.setattr(selection, "rank_add_curve",
                            lambda values, ids, batch: stop_after_one_call(batch, len(ids)))
    argv = {"value": ["value", "--config", matrix_config],
            "curve": ["curve", "--config", matrix_config, "--values", str(values_path),
                      "--out-dir", str(tmp_path / "curve")]}[command]
    leaks = []
    monkeypatch.setattr(sys, "unraisablehook", leaks.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        code, _, _ = run_json(capsys, argv)
        gc.collect()
    assert code == (1 if fails else 0)
    assert leaks == []
    expected = 1 if fails else {"value": 64, "curve": 6}[command]
    assert len(UtilityCache.load(cache_path)) == expected


def test_locked_cache_is_reported(matrix_config, tmp_path, capsys):
    cache_path = str(tmp_path / "utility.jsonl")
    with _own_caches(cache_path):
        code, _, err = run_json(capsys, ["value", "--config", matrix_config])
    assert code == 1
    assert "in use" in json.loads(err)["message"]


@pytest.mark.parametrize("command", ["value", "curve"])
def test_cache_in_a_missing_directory_is_reported(command, matrix_config, tmp_path, capsys):
    cache_path = tmp_path / "nodir" / "utility.jsonl"
    config = json.loads(Path(matrix_config).read_text())
    config["paths"]["utility_cache"] = str(cache_path)
    Path(matrix_config).write_text(json.dumps(config))
    values_path = tmp_path / "values.json"
    values_path.write_text(json.dumps({"players": [
        {"id": pid, "value": 0.1} for pid in ["c0", "c1", "c2", "x0", "x1", "x2"]]}))
    argv = {"value": ["value", "--config", matrix_config],
            "curve": ["curve", "--config", matrix_config, "--values", str(values_path),
                      "--out-dir", str(tmp_path / "c")]}[command]
    code, out, err = run_json(capsys, argv)
    assert (code, out) == (1, "")
    payload = json.loads(err)
    assert payload["error"] == "ConsistencyError"
    assert payload["path"] == str(cache_path)
    assert payload["message"] == (f"cannot create the lock file of cache {cache_path}: "
                                  "No such file or directory")


def test_a_failed_lock_releases_the_locks_before_it(tmp_path):
    first = str(tmp_path / "utility.jsonl")
    with pytest.raises(ConsistencyError, match="responses.jsonl"):
        with _own_caches(first, str(tmp_path / "nodir" / "responses.jsonl")):
            pass
    with _own_caches(first):   # would raise "in use" if the first lock were kept
        pass


def test_cli_import_loads_no_third_party_http_stack():
    src = Path(__file__).resolve().parents[1] / "src"
    # only modules the import adds count: site hooks may preload some at startup
    probe = ("import sys; before = set(sys.modules); import promptshap.cli; "
             "added = set(sys.modules) - before; "
             "print(sorted({'requests', 'urllib3', 'charset_normalizer', 'certifi'} & added))")
    out = subprocess.run([sys.executable, "-c", probe], env={"PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_a_matrix_value_loads_no_module_it_does_not_run(matrix_config, tmp_path):
    """``import promptshap``, ``import promptshap.cli`` and a matrix ``value``
    load neither the live client nor learning, theory or selection."""
    src = Path(__file__).resolve().parents[1] / "src"
    probe = f"""
import json, sys
before = set(sys.modules)
unused = {{"http.client", "ssl", "promptshap.client", "promptshap.learning",
          "promptshap.theory", "promptshap.selection"}}
steps = []
import promptshap
steps.append(sorted(unused & (set(sys.modules) - before)))
import promptshap.cli
steps.append(sorted(unused & (set(sys.modules) - before)))
code = promptshap.cli.main(["value", "--config", {matrix_config!r},
                            "--out", {str(tmp_path / "values.json")!r}])
steps.append(sorted(unused & (set(sys.modules) - before)))
print(json.dumps([code, steps]))
"""
    out = subprocess.run([sys.executable, "-c", probe], env={"PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True, timeout=60)
    assert json.loads(out.stdout) == [0, [[], [], []]]
    assert json.loads((tmp_path / "values.json").read_text())["players"]
