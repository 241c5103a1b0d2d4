import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from promptshap.cli import _own_caches, main
from promptshap.client import load_manifest, load_questions
from promptshap.ensemble import write_matrix, write_validation
from promptshap.errors import ConsistencyError
from promptshap.jsonio import write_jsonl
from promptshap.learning import EmbeddingMatrix, load_embeddings, load_model, save_embeddings

from conftest import make_adversarial_fixture, stub_manifest_rows, stub_question_rows


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


# ---------------------------------------------------------------------------
# malformed input files

def _linear_model(parameters=None, kind="linear"):
    if parameters is None:
        parameters = {"weights": [0.5], "intercept": 0.0}
    return json.dumps({"schema_version": 1, "kind": kind, "d": 1, "parameters": parameters})


@pytest.mark.parametrize("load, bad_line", [
    pytest.param(load_manifest, None, id="manifest-missing"),
    pytest.param(load_questions, None, id="questions-missing"),
    pytest.param(load_embeddings, None, id="embeddings-missing"),
    pytest.param(load_model, None, id="model-missing"),
    pytest.param(load_manifest, '["p", "text"]', id="manifest-row-not-object"),
    pytest.param(load_manifest, '{"text": "x"}', id="manifest-no-id"),
    pytest.param(load_manifest, '{"id": "p", "text"', id="manifest-not-json"),
    # "\udcff" is written as the lone byte 0xff
    pytest.param(load_manifest, '{"id": "p", "text": "\udcff"}', id="manifest-not-utf8"),
    pytest.param(load_questions, '{"id": "q", "question": "2+2?"}', id="questions-no-gold"),
    pytest.param(load_questions, '"q"', id="questions-row-not-object"),
    pytest.param(load_embeddings, '{"id": "e", "vector": [1.0, "x"]}', id="embeddings-string"),
    pytest.param(load_embeddings, '{"id": "e", "vector": 3}', id="embeddings-not-array"),
    pytest.param(load_embeddings, '{"vector": [1.0, 2.0]}', id="embeddings-no-id"),
    pytest.param(load_model, "[]", id="model-not-object"),
    pytest.param(load_model, '{"schema_version": 1, "kind": "linear"', id="model-not-json"),
    pytest.param(load_model, '{"kind": "\udcff"}', id="model-not-utf8"),
    pytest.param(load_model, _linear_model([]), id="model-parameters-not-object"),
    pytest.param(load_model, _linear_model(kind="svm"), id="model-unknown-kind"),
    pytest.param(load_model, _linear_model({"weights": ["x"], "intercept": 0.0}),
                 id="model-string-weight"),
    pytest.param(load_model, _linear_model({"weights": [0.5], "intercept": None}),
                 id="model-null-intercept"),
])
def test_malformed_input_file_raises_consistency_error(load, bad_line, tmp_path):
    path = tmp_path / "input"
    if bad_line is None:   # no file at all
        where = str(path)
    elif load is load_model:
        path.write_bytes(bad_line.encode("utf-8", "surrogateescape"))
        where = str(path)
    else:
        good = {load_manifest: '{"id": "p0", "text": "t"}',
                load_questions: '{"id": "q0", "question": "1+1?", "gold": "2"}',
                load_embeddings: '{"id": "e0", "vector": [0.5, 0.5]}'}[load]
        path.write_bytes((good + "\n\n" + bad_line + "\n").encode("utf-8", "surrogateescape"))
        where = f"{path}:3"
    with pytest.raises(ConsistencyError) as info:
        load(str(path))
    assert where in str(info.value)


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


def test_missing_credential_exits_4_without_network(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("PROMPTSHAP_API_KEY", raising=False)
    manifest_path = tmp_path / "manifest.jsonl"
    write_jsonl(manifest_path, stub_manifest_rows())
    questions_path = tmp_path / "questions.jsonl"
    write_jsonl(questions_path, stub_question_rows())
    config = write_config(tmp_path, {
        "utility_mode": "live-augmentation",
        "paths": {
            "manifest": str(manifest_path),
            "questions": str(questions_path),
        },
        # port 9 is never contacted: the credential check runs first
        "api": {"base_url": "http://127.0.0.1:9", "model": "m"},
    })
    code, _, err = run_json(capsys, ["value", "--config", config])
    assert code == 4
    payload = json.loads(err)
    assert payload["error"] == "CredentialError"
    assert "PROMPTSHAP_API_KEY" in payload["message"]


def test_locked_cache_is_reported(matrix_config, tmp_path, capsys):
    cache_path = str(tmp_path / "utility.jsonl")
    with _own_caches(cache_path):
        code, _, err = run_json(capsys, ["value", "--config", matrix_config])
    assert code == 1
    assert "in use" in json.loads(err)["message"]


def test_cli_import_loads_no_third_party_http_stack():
    src = Path(__file__).resolve().parents[1] / "src"
    # only modules the import adds count: site hooks may preload some at startup
    probe = ("import sys; before = set(sys.modules); import promptshap.cli; "
             "added = set(sys.modules) - before; "
             "print(sorted({'requests', 'urllib3', 'charset_normalizer', 'certifi'} & added))")
    out = subprocess.run([sys.executable, "-c", probe], env={"PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
