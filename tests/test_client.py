import contextlib
import dataclasses
import json
import socket
import threading

import numpy as np
import pytest

from promptshap import client
from promptshap.cache import ResponseCache
from promptshap.cli import main
from promptshap.client import (
    CompletionRequest,
    PromptEntry,
    PromptManifest,
    augmentation_utility,
    build_completion_request,
    complete,
    embed,
    extract_answer,
    load_manifest,
    load_questions,
    request_digest,
)
from promptshap.coalition import Coalition
from promptshap.config import ApiConfig, Task
from promptshap.errors import (
    ConsistencyError,
    CredentialError,
    PreconditionError,
    ProtocolError,
    TransportError,
)
from promptshap.jsonio import write_jsonl
from promptshap.learning import (
    EmbeddingMatrix,
    RegressorKind,
    TrainedRegressor,
    save_embeddings,
    save_model,
)

from conftest import stub_manifest_rows, stub_question_rows


@pytest.fixture
def manifest(tmp_path):
    path = tmp_path / "manifest.jsonl"
    write_jsonl(path, stub_manifest_rows())
    return load_manifest(str(path))


@pytest.fixture
def questions(tmp_path):
    path = tmp_path / "questions.jsonl"
    write_jsonl(path, stub_question_rows())
    return load_questions(str(path))


# ---------------------------------------------------------------------------
# manifest and question files


def test_manifest_loading(manifest):
    assert manifest.n == 5
    assert manifest.ids == ("h0", "h1", "h2", "m0", "m1")
    assert all(t for t in manifest.texts)


def test_manifest_validation():
    with pytest.raises(ConsistencyError):
        PromptManifest(prompts=(PromptEntry("a", "x"), PromptEntry("a", "y")))
    with pytest.raises(ConsistencyError):
        PromptManifest(prompts=(PromptEntry("a", ""),))


def test_manifest_rationale_key_is_ignored(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text(json.dumps({"id": "a", "text": "hello", "rationale": True}) + "\n")
    assert load_manifest(str(path)).prompts == (PromptEntry("a", "hello"),)


def test_questions_loading(questions):
    assert len(questions) == 6
    assert questions[0].gold == "A"
    assert "[k=0]" in questions[0].question


def test_questions_require_unique_ids(tmp_path):
    path = tmp_path / "q.jsonl"
    rows = [{"id": "v0", "question": "a", "gold": "A"}] * 2
    write_jsonl(path, rows)
    with pytest.raises(ConsistencyError):
        load_questions(str(path))


# ---------------------------------------------------------------------------
# request construction


def test_exemplars_follow_manifest_order(manifest):
    api = ApiConfig(model="m")
    req = build_completion_request(
        manifest, Coalition.from_indices([2, 0], 5), "Q?", api
    )
    assert req.exemplars == (manifest.texts[0], manifest.texts[2])
    assert req.model == "m"
    assert req.question == "Q?"


def test_empty_coalition_has_no_exemplars(manifest):
    req = build_completion_request(manifest, Coalition.empty(5), "Q?", ApiConfig())
    assert req.exemplars == ()


def test_coalition_size_checked_against_manifest(manifest):
    with pytest.raises(ConsistencyError):
        build_completion_request(manifest, Coalition.empty(4), "Q?", ApiConfig())


def test_request_digest_keys_on_payload_fields(manifest):
    api = ApiConfig(model="m")
    req1 = build_completion_request(manifest, Coalition.from_indices([0], 5), "Q?", api)
    req2 = build_completion_request(manifest, Coalition.from_indices([0], 5), "Q?", api)
    assert request_digest(req1) == request_digest(req2)
    assert len(request_digest(req1)) == 64
    other_question = build_completion_request(
        manifest, Coalition.from_indices([0], 5), "different?", api
    )
    other_coalition = build_completion_request(
        manifest, Coalition.from_indices([1], 5), "Q?", api
    )
    assert request_digest(other_question) != request_digest(req1)
    assert request_digest(other_coalition) != request_digest(req1)


# ---------------------------------------------------------------------------
# answer extraction


def test_extract_multiple_choice():
    assert extract_answer("I ruled out B early. The answer is (C).", Task.MULTIPLE_CHOICE) == "C"
    assert extract_answer("the final answer is c", Task.MULTIPLE_CHOICE) == "C"
    assert extract_answer("1 + 1 = 2", Task.MULTIPLE_CHOICE) is None


def test_extract_date_takes_the_last_match():
    text = "so 05/01/2021. Therefore the date is 05/02/2021"
    assert extract_answer(text, Task.DATE) == "05/02/2021"
    assert extract_answer("no dates here", Task.DATE) is None


def test_extract_numeric_strips_thousands_separators():
    assert extract_answer("costs 1,200 dollars", Task.NUMERIC) == "1200"
    assert extract_answer("roughly -3.5 degrees", Task.NUMERIC) == "-3.5"
    assert extract_answer("first 2 then 10", Task.NUMERIC) == "10"
    assert extract_answer("nothing numeric", Task.NUMERIC) is None


def test_extract_numeric_is_idempotent():
    first = extract_answer("total 12,345,678 units", Task.NUMERIC)
    assert first == "12345678"
    assert extract_answer(first, Task.NUMERIC) == first


# ---------------------------------------------------------------------------
# completions over the stub server


def test_identical_requests_hit_the_network_once(stub, stub_api, manifest):
    cache = ResponseCache()
    req = build_completion_request(
        manifest, Coalition.from_indices([0, 1], 5), "Question [k=0] pick [gold=A]", stub_api
    )
    first = complete(req, cache, stub_api)
    second = complete(req, cache, stub_api)
    assert first == second == "The answer is (A)."
    assert stub.state.chat_requests == 1


def test_retries_recover_from_transient_failures(stub, stub_api, manifest):
    stub.state.fail_next = 2
    req = build_completion_request(
        manifest, Coalition.empty(5), "Question [k=0] pick [gold=B]", stub_api
    )
    text = complete(req, ResponseCache(), stub_api)
    assert text == "The answer is (B)."
    assert stub.state.chat_requests == 3


def test_exhausted_retries_raise_transport_error(stub, stub_api, manifest):
    stub.state.fail_next = 99
    api = dataclasses.replace(stub_api, attempts=3)
    req = build_completion_request(manifest, Coalition.empty(5), "Q [gold=A]", api)
    with pytest.raises(TransportError) as info:
        complete(req, ResponseCache(), api)
    assert stub.state.chat_requests == 3
    assert info.value.payload()["last_status"] == 500


@pytest.mark.parametrize("status, retry_after, slept", [
    (429, "7", 7.0),                                  # Retry-After beats the backoff
    (429, "0", 0.01),                                 # backoff beats Retry-After
    (429, "Wed, 21 Oct 2015 07:28:00 GMT", 0.01),     # not a number of seconds
    (500, "7", 0.01),                                 # honoured on 429 only
])
def test_retry_waits_for_retry_after_on_429(stub, stub_api, manifest, monkeypatch,
                                            status, retry_after, slept):
    sleeps = []
    monkeypatch.setattr(client.time, "sleep", sleeps.append)
    stub.state.fail_next = 1
    stub.state.fail_status = status
    stub.state.retry_after = retry_after
    req = build_completion_request(manifest, Coalition.empty(5), "Q [gold=A]", stub_api)
    assert complete(req, ResponseCache(), stub_api) == "The answer is (A)."
    assert stub.state.chat_requests == 2
    assert sleeps == [slept]


@contextlib.contextmanager
def raw_server(reply):
    """A TCP endpoint that reads each request, then sends ``reply`` and closes.

    ``reply=None`` keeps every connection open without answering. Yields the
    base URL and the list of accepted connections.
    """
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    accepted = []
    stop = threading.Event()

    def serve():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except OSError:
                continue
            accepted.append(conn)
            if reply is not None:
                conn.recv(65536)
                conn.sendall(reply)
                conn.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}", accepted
    finally:
        stop.set()
        thread.join(timeout=5)
        assert not thread.is_alive()
        listener.close()
        for conn in accepted:
            conn.close()


@pytest.mark.parametrize("reply", [
    b"",
    b"NOT-HTTP\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{",
    None,
], ids=["closed", "garbage", "truncated", "silent"])
def test_broken_transport_is_retried_then_raises_transport_error(manifest, monkeypatch,
                                                                 reply):
    monkeypatch.setenv("PROMPTSHAP_API_KEY", "k")
    with raw_server(reply) as (url, accepted):
        api = ApiConfig(base_url=url, model="m", attempts=3, backoff_base=0.0, timeout=0.2)
        req = build_completion_request(manifest, Coalition.empty(5), "Q", api)
        with pytest.raises(TransportError) as info:
            complete(req, ResponseCache(), api)
        assert len(accepted) == 3
    assert info.value.payload()["last_status"] is None
    assert info.value.payload()["last_error"]


def test_non_json_200_raises_protocol_error(manifest, monkeypatch):
    monkeypatch.setenv("PROMPTSHAP_API_KEY", "k")
    reply = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello"
    with raw_server(reply) as (url, accepted):
        api = ApiConfig(base_url=url, model="m", backoff_base=0.0)
        req = build_completion_request(manifest, Coalition.empty(5), "Q", api)
        with pytest.raises(ProtocolError):
            complete(req, ResponseCache(), api)
        assert len(accepted) == 1


def test_rejected_credential_is_not_retried(stub, stub_api, manifest, monkeypatch):
    monkeypatch.setenv("PROMPTSHAP_API_KEY", "wrong-key")
    req = build_completion_request(manifest, Coalition.empty(5), "Q", stub_api)
    with pytest.raises(CredentialError):
        complete(req, ResponseCache(), stub_api)


def test_missing_credential_fails_before_any_network(stub, stub_api, manifest, monkeypatch):
    monkeypatch.delenv("PROMPTSHAP_API_KEY", raising=False)
    req = build_completion_request(manifest, Coalition.empty(5), "Q", stub_api)
    with pytest.raises(CredentialError):
        complete(req, ResponseCache(), stub_api)
    assert stub.state.chat_requests == 0


def test_malformed_body_raises_protocol_error(stub, stub_api, manifest):
    stub.state.malformed_chat = True
    req = build_completion_request(manifest, Coalition.empty(5), "Q", stub_api)
    with pytest.raises(ProtocolError):
        complete(req, ResponseCache(), stub_api)


def test_unconfigured_base_url_is_a_precondition(stub, manifest):
    req = CompletionRequest(question="Q", model="m")
    with pytest.raises(PreconditionError):
        complete(req, ResponseCache(), ApiConfig())


def test_cache_hit_needs_no_credential(stub, stub_api, manifest, monkeypatch):
    cache = ResponseCache()
    req = build_completion_request(manifest, Coalition.empty(5), "Q [gold=A]", stub_api)
    cache.put(request_digest(req), "The answer is (A).")
    monkeypatch.delenv("PROMPTSHAP_API_KEY", raising=False)
    assert complete(req, cache, stub_api) == "The answer is (A)."
    assert stub.state.chat_requests == 0


# ---------------------------------------------------------------------------
# augmentation utility


def test_augmentation_utility_frozen_values(stub, stub_api, manifest, questions):
    oracle = augmentation_utility(
        manifest, questions, Task.MULTIPLE_CHOICE, ResponseCache(), stub_api
    )
    assert oracle(Coalition.empty(5)) == pytest.approx(1 / 3)
    assert oracle(Coalition.full(5)) == pytest.approx(2 / 3)
    assert oracle(Coalition.from_indices([0, 1], 5)) == 1.0
    assert oracle(Coalition.from_indices([3], 5)) == 0.0


def test_augmentation_utility_reuses_the_cache(stub, stub_api, manifest, questions):
    oracle = augmentation_utility(
        manifest, questions, Task.MULTIPLE_CHOICE, ResponseCache(), stub_api
    )
    oracle(Coalition.full(5))
    after_first = stub.state.chat_requests
    assert after_first == len(questions)
    oracle(Coalition.full(5))
    assert stub.state.chat_requests == after_first


def test_augmentation_aborts_on_transport_failure(stub, stub_api, manifest, questions):
    api = dataclasses.replace(stub_api, attempts=1)
    oracle = augmentation_utility(manifest, questions, Task.MULTIPLE_CHOICE,
                                  ResponseCache(), api)
    stub.state.fail_next = 1
    with pytest.raises(TransportError):
        oracle(Coalition.full(5))


def test_augmentation_needs_questions(stub, stub_api, manifest):
    with pytest.raises(PreconditionError):
        augmentation_utility(manifest, [], Task.MULTIPLE_CHOICE, ResponseCache(), stub_api)


# ---------------------------------------------------------------------------
# embeddings


def test_embed_shape_and_determinism(stub, stub_api, manifest):
    v1 = embed(manifest.texts, stub_api)
    v2 = embed(manifest.texts, stub_api)
    assert v1.shape == (5, 8)
    assert np.array_equal(v1, v2)
    assert stub.state.embed_requests == 2


def test_duplicate_texts_share_one_row(stub, stub_api):
    vectors = embed(["same", "other", "same"], stub_api)
    assert np.array_equal(vectors[0], vectors[2])
    assert not np.array_equal(vectors[0], vectors[1])
    assert stub.state.embed_requests == 1


def test_dimension_mismatch_raises_protocol_error(stub, stub_api):
    stub.state.short_embedding_row = True
    with pytest.raises(ProtocolError):
        embed(["a", "b"], stub_api)


def test_embed_empty_input(stub, stub_api):
    assert embed([], stub_api).shape == (0, 0)
    assert stub.state.embed_requests == 0


def test_embed_retries_like_complete(stub, stub_api):
    stub.state.fail_next_embed = 2
    assert embed(["a", "b"], stub_api).shape == (2, 8)
    assert stub.state.embed_requests == 3
    stub.state.embed_requests = 0
    stub.state.fail_next_embed = 99
    api = dataclasses.replace(stub_api, attempts=3)
    with pytest.raises(TransportError) as info:
        embed(["a"], api)
    assert stub.state.embed_requests == 3
    assert info.value.payload()["last_status"] == 500


def test_embed_rejected_credential(stub, stub_api, monkeypatch):
    monkeypatch.setenv("PROMPTSHAP_API_KEY", "wrong-key")
    with pytest.raises(CredentialError):
        embed(["a"], stub_api)


def test_embed_keeps_manifest_order(stub, stub_api, manifest):
    vectors = embed(manifest.texts, stub_api)
    assert vectors.shape == (5, 8)
    for text, row in zip(manifest.texts, vectors):
        assert np.array_equal(embed([text], stub_api)[0], row)


# ---------------------------------------------------------------------------
# embeddings in `promptshap predict`


def run_predict(tmp_path, capsys, api, weights, paths=None):
    """``predict`` over the stub manifest with the linear model ``x @ weights``:
    the exit code and the stdout or stderr JSON."""
    manifest = tmp_path / "manifest.jsonl"
    write_jsonl(manifest, stub_manifest_rows())
    model = tmp_path / "model.json"
    save_model(TrainedRegressor(kind=RegressorKind.LINEAR, d=len(weights),
                                weights=np.array(weights), intercept=0.0), model)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"schema_version": 1, "paths": paths or {},
                                  "api": dataclasses.asdict(api)}))
    code = main(["predict", "--config", str(config), "--model", str(model),
                 "--manifest", str(manifest)])
    out, err = capsys.readouterr()
    return code, json.loads(out if code == 0 else err)


def test_file_passthrough_skips_the_network(stub, stub_api, tmp_path, capsys, monkeypatch):
    # rows out of manifest order, plus one the manifest does not name
    ids = ("m1", "x", "h0", "m0", "h2", "h1")
    emb = EmbeddingMatrix(ids, np.array([[float(i), 1.0] for i in range(len(ids))]))
    path = tmp_path / "emb.jsonl"
    save_embeddings(emb, path)
    monkeypatch.delenv("PROMPTSHAP_API_KEY", raising=False)   # no credential needed
    code, doc = run_predict(tmp_path, capsys, stub_api, [1.0, 0.0],
                            paths={"embeddings": str(path)})
    assert code == 0
    assert [(p["id"], p["value"]) for p in doc["predictions"]] == [
        ("h0", 2.0), ("h1", 5.0), ("h2", 4.0), ("m0", 3.0), ("m1", 0.0)]
    assert stub.state.embed_requests == 0


def test_zero_vector_cannot_be_unit_normalized(stub, stub_api, tmp_path, capsys):
    ids = ("h0", "h1", "h2", "m0", "m1")
    emb = EmbeddingMatrix(ids, np.array([[1.0, 0.0]] * 4 + [[0.0, 0.0]]))
    path = tmp_path / "emb.jsonl"
    save_embeddings(emb, path)
    api = dataclasses.replace(stub_api, embeddings_unit_norm=True)
    code, doc = run_predict(tmp_path, capsys, api, [1.0, 0.0], paths={"embeddings": str(path)})
    assert code == 1
    assert doc["error"] == "ProtocolError"


def test_unit_norm_vectors(stub, stub_api, manifest, tmp_path, capsys):
    raw = embed(manifest.texts, stub_api)
    unit = raw / np.linalg.norm(raw, axis=1)[:, None]
    api = dataclasses.replace(stub_api, embeddings_unit_norm=True)
    # weights = the first unit vector, so each prediction is a cosine similarity
    code, doc = run_predict(tmp_path, capsys, api, unit[0].tolist())
    assert code == 0
    predicted = np.array([p["value"] for p in doc["predictions"]])
    assert abs(predicted[0] - 1.0) < 1e-12
    assert np.allclose(predicted, unit @ unit[0], rtol=0, atol=1e-12)
