import base64
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import re
import shutil
import socket
import ssl
import subprocess
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from promptshap import cache as cache_module, client
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
from promptshap.config import MAX_WAIT_S, ApiConfig, Task
from promptshap.errors import (
    ConsistencyError,
    CredentialError,
    PreconditionError,
    ProtocolError,
    TransportError,
)
from promptshap.learning import (
    EmbeddingMatrix,
    RegressorKind,
    TrainedRegressor,
    save_model,
)

from conftest import save_embeddings, stub_manifest_rows, stub_question_rows, write_jsonl


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
        manifest, Coalition(0b101, 5), "Q?", api
    )
    assert req.exemplars == (manifest.texts[0], manifest.texts[2])
    assert req.model == "m"
    assert req.question == "Q?"


def test_empty_coalition_has_no_exemplars(manifest):
    req = build_completion_request(manifest, Coalition(0, 5), "Q?", ApiConfig())
    assert req.exemplars == ()


def test_coalition_size_checked_against_manifest(manifest):
    with pytest.raises(ConsistencyError):
        build_completion_request(manifest, Coalition(0, 4), "Q?", ApiConfig())


def test_request_digest_keys_on_payload_fields(manifest):
    api = ApiConfig(model="m")
    req1 = build_completion_request(manifest, Coalition(0b1, 5), "Q?", api)
    req2 = build_completion_request(manifest, Coalition(0b1, 5), "Q?", api)
    assert request_digest(req1) == request_digest(req2)
    assert len(request_digest(req1)) == 64
    other_question = build_completion_request(
        manifest, Coalition(0b1, 5), "different?", api
    )
    other_coalition = build_completion_request(
        manifest, Coalition(0b10, 5), "Q?", api
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
        manifest, Coalition(0b11, 5), "Question [k=0] pick [gold=A]", stub_api
    )
    first = complete(req, cache, stub_api)
    second = complete(req, cache, stub_api)
    assert first == second == "The answer is (A)."
    assert stub.state.chat_requests == 1


def test_retries_recover_from_transient_failures(stub, stub_api, manifest):
    stub.state.fail_next = 2
    req = build_completion_request(
        manifest, Coalition(0, 5), "Question [k=0] pick [gold=B]", stub_api
    )
    text = complete(req, ResponseCache(), stub_api)
    assert text == "The answer is (B)."
    assert stub.state.chat_requests == 3


def test_exhausted_retries_raise_transport_error(stub, stub_api, manifest):
    stub.state.fail_next = 99
    api = dataclasses.replace(stub_api, attempts=3)
    req = build_completion_request(manifest, Coalition(0, 5), "Q [gold=A]", api)
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
    req = build_completion_request(manifest, Coalition(0, 5), "Q [gold=A]", stub_api)
    assert complete(req, ResponseCache(), stub_api) == "The answer is (A)."
    assert stub.state.chat_requests == 2
    assert sleeps == [slept]


def read_request(conn) -> bytes:
    """One request's bytes: the head, then as many body bytes as it declares."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(65536)
        if not chunk:
            return data
        data += chunk
    length = re.search(rb"\r\ncontent-length: *(\d+)", data.partition(b"\r\n\r\n")[0], re.I)
    while length and len(data.partition(b"\r\n\r\n")[2]) < int(length.group(1)):
        chunk = conn.recv(65536)
        if not chunk:
            break
        data += chunk
    return data


@contextlib.contextmanager
def raw_server(reply, received=None, tls=None, tunnel=False, drip=None, hold=False):
    """A TCP endpoint that reads each request, then sends ``reply`` and closes.

    ``reply=None`` keeps every connection open without answering, ``hold``
    keeps it open after the reply, and ``drip`` sends the reply one byte
    every ``drip`` seconds. Each request's bytes are appended to the list
    ``received`` if one is given, and ``tls``, a server-side
    ``ssl.SSLContext``, serves TLS. With ``tunnel`` it first accepts a
    proxy's ``CONNECT``, as the proxy and the origin in one. Yields the base
    URL and the list of accepted connections.
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
            if reply is None:
                continue
            conn.settimeout(5)
            try:
                if tunnel:
                    received.append(read_request(conn))
                    conn.sendall(b"HTTP/1.1 200 Connection established\r\n\r\n")
                if tls is not None:
                    conn = tls.wrap_socket(conn, server_side=True)
                request = read_request(conn)
                if received is not None:
                    received.append(request)
                if drip is None:
                    conn.sendall(reply)
                else:
                    for i in range(len(reply)):
                        if stop.is_set():
                            break
                        conn.sendall(reply[i:i + 1])
                        time.sleep(drip)
            except OSError:   # a client that refused the certificate
                pass
            finally:
                if not hold:
                    conn.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    scheme = "http" if tls is None else "https"
    try:
        yield f"{scheme}://127.0.0.1:{listener.getsockname()[1]}", accepted
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
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n40\r\n{",
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n{}\r\n0\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}XX0\r\n\r\n",
    # a whole reply with a valid body once the 64 KiB head limit is lifted
    b"HTTP/1.1 200 OK\r\nX-Pad: " + b"a" * (1 << 18) + b"\r\nContent-Length: 2\r\n\r\n{}",
], ids=["closed", "garbage", "truncated", "silent", "truncated-chunked",
        "chunk-size-not-hex", "chunk-without-crlf", "head-too-long"])
def test_broken_transport_is_retried_then_raises_transport_error(manifest, monkeypatch,
                                                                 reply):
    monkeypatch.setenv("PROMPTSHAP_API_KEY", "k")
    with raw_server(reply) as (url, accepted):
        api = ApiConfig(base_url=url, model="m", attempts=3, backoff_base=0.0, timeout=0.2)
        req = build_completion_request(manifest, Coalition(0, 5), "Q", api)
        with pytest.raises(TransportError) as info:
            complete(req, ResponseCache(), api)
        assert len(accepted) == 3
    assert info.value.payload()["last_status"] is None
    assert info.value.payload()["last_error"]


def test_a_204_on_a_held_connection_is_a_protocol_error_at_once(manifest, monkeypatch):
    # a 204 has no body: reading one up to the close would wait out the timeout
    monkeypatch.setenv("PROMPTSHAP_API_KEY", "k")
    with raw_server(b"HTTP/1.1 204 No Content\r\n\r\n", hold=True) as (url, accepted):
        api = ApiConfig(base_url=url, model="m", attempts=3, backoff_base=0.0, timeout=5.0)
        req = build_completion_request(manifest, Coalition(0, 5), "Q", api)
        start = time.monotonic()
        with pytest.raises(ProtocolError, match="unexpected HTTP 204"):
            complete(req, ResponseCache(), api)
        assert time.monotonic() - start < 2.5
        assert len(accepted) == 1


@pytest.mark.parametrize("retry_after, backoff_base, slept", [
    ("1e300", 0.0, [MAX_WAIT_S, MAX_WAIT_S]),          # time.sleep(1e300) overflows
    ("1e10", 0.0, [MAX_WAIT_S, MAX_WAIT_S]),
    ("120", 0.0, [120.0, 120.0]),
    ("", 1e308, [MAX_WAIT_S, MAX_WAIT_S]),
])
def test_every_wait_is_capped(manifest, monkeypatch, retry_after, backoff_base, slept):
    monkeypatch.setenv("PROMPTSHAP_API_KEY", "k")
    sleeps = []
    monkeypatch.setattr(client.time, "sleep", sleeps.append)
    reply = (b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: " + retry_after.encode()
             + b"\r\nContent-Length: 4\r\n\r\nbusy")
    with raw_server(reply) as (url, accepted):
        api = ApiConfig(base_url=url, model="m", attempts=3, backoff_base=backoff_base,
                        timeout=5.0)
        req = build_completion_request(manifest, Coalition(0, 5), "Q", api)
        with pytest.raises(TransportError) as info:
            complete(req, ResponseCache(), api)
        assert len(accepted) == 3
    assert sleeps == slept
    assert info.value.payload()["last_status"] == 429


def test_backoff_past_a_thousand_attempts_is_capped(manifest, monkeypatch):
    # the backoff passes the cap at 2**12 s and reaches inf after 1024 doublings
    monkeypatch.setenv("PROMPTSHAP_API_KEY", "k")
    sleeps = []
    monkeypatch.setattr(client.time, "sleep", sleeps.append)

    def refused(request, timeout):
        raise ConnectionRefusedError("refused")

    monkeypatch.setattr(client, "_send", refused)
    api = ApiConfig(base_url="http://127.0.0.1:9", model="m", attempts=1100, backoff_base=1.0)
    req = build_completion_request(manifest, Coalition(0, 5), "Q", api)
    with pytest.raises(TransportError):
        complete(req, ResponseCache(), api)
    assert sleeps[:3] == [1.0, 2.0, 4.0]
    assert sleeps[12:] == [MAX_WAIT_S] * (1099 - 12)


def test_non_json_200_raises_protocol_error(manifest, monkeypatch):
    monkeypatch.setenv("PROMPTSHAP_API_KEY", "k")
    reply = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello"
    with raw_server(reply) as (url, accepted):
        api = ApiConfig(base_url=url, model="m", backoff_base=0.0)
        req = build_completion_request(manifest, Coalition(0, 5), "Q", api)
        with pytest.raises(ProtocolError):
            complete(req, ResponseCache(), api)
        assert len(accepted) == 1


CHAT_REPLY = b'{"choices": [{"message": {"role": "assistant", "content": "The answer is (A)."}}]}'


def with_length(head: bytes, body: bytes = CHAT_REPLY) -> bytes:
    return head + b"Content-Length: %d\r\n\r\n" % len(body) + body


def test_a_dripping_reply_times_out_within_api_timeout(manifest, monkeypatch):
    # the whole reply would take over 5 s, though each byte comes within 50 ms
    monkeypatch.setenv("PROMPTSHAP_API_KEY", "k")
    reply = with_length(b"HTTP/1.1 200 OK\r\n")
    with raw_server(reply, drip=0.05) as (url, accepted):
        api = ApiConfig(base_url=url, model="m", attempts=1, backoff_base=0.0, timeout=0.3)
        req = build_completion_request(manifest, Coalition(0, 5), "Q", api)
        start = time.monotonic()
        with pytest.raises(TransportError) as info:
            complete(req, ResponseCache(), api)
        elapsed = time.monotonic() - start
    assert len(reply) * 0.05 > 5
    assert elapsed < 0.3 + 0.25
    assert info.value.payload()["last_error"] == "timed out"


def test_a_spent_deadline_times_out_before_the_socket_waits():
    with socket.socket() as sock:
        sock.settimeout(5.0)
        with pytest.raises(TimeoutError, match="timed out"):
            client._until(sock, time.monotonic() - 1.0)
        assert sock.gettimeout() == 5.0


def test_a_request_is_one_well_formed_message(manifest, monkeypatch):
    monkeypatch.setenv("PROMPTSHAP_API_KEY", "k-123")
    received = []
    with raw_server(with_length(b"HTTP/1.1 200 OK\r\n"), received) as (url, accepted):
        api = ApiConfig(base_url=url + "/base/", model="m")
        req = build_completion_request(manifest, Coalition(0b1, 5), "Q", api)
        assert complete(req, ResponseCache(), api) == "The answer is (A)."
    [message] = received
    head, _, body = message.partition(b"\r\n\r\n")
    request_line, *fields = head.split(b"\r\n")
    assert request_line == b"POST /base/v1/chat/completions HTTP/1.1"
    headers = dict(field.split(b": ", 1) for field in fields)
    assert len(headers) == len(fields)
    assert headers[b"Host"] == url.removeprefix("http://").encode()
    assert headers[b"Content-Length"] == str(len(body)).encode()
    assert headers[b"Authorization"] == b"Bearer k-123"
    assert headers[b"Content-Type"] == b"application/json"
    assert headers[b"Accept-Encoding"] == b"identity"
    assert headers[b"Connection"] == b"close"
    assert json.loads(body)["messages"][0]["content"] == "\n\n".join([*req.exemplars, "Q"])


def chunked(body: bytes) -> bytes:
    """``body`` as two chunks, the first with an extension, then a trailer."""
    return (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"10;name=value\r\n" + body[:16] + b"\r\n"
            + b"%x\r\n" % (len(body) - 16) + body[16:] + b"\r\n"
            b"0\r\nX-Checksum: none\r\n\r\n")


@pytest.mark.parametrize("reply", [
    chunked(CHAT_REPLY),
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n" + CHAT_REPLY,
    b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 103 Early Hints\r\nLink: </x>\r\n\r\n"
    + with_length(b"HTTP/1.1 200 OK\r\n"),
    with_length(b"HTTP/1.1 200\r\n"),
    with_length(b"HTTP/1.0 200 OK\r\n"),
    b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\ncontent-length: 3\r\n\r\n%s"
    % (len(CHAT_REPLY), CHAT_REPLY),                                # the first wins
], ids=["chunked", "to-eof", "interim-1xx", "no-reason", "http-1.0", "repeated-field"])
def test_every_framing_of_a_reply_reads_the_same_body(manifest, monkeypatch, reply):
    monkeypatch.setenv("PROMPTSHAP_API_KEY", "k")
    with raw_server(reply) as (url, accepted):
        api = ApiConfig(base_url=url, model="m", attempts=1)
        req = build_completion_request(manifest, Coalition(0, 5), "Q", api)
        assert complete(req, ResponseCache(), api) == "The answer is (A)."
        assert len(accepted) == 1


def test_a_reply_read_to_eof_over_many_reads_keeps_every_byte(monkeypatch):
    # one byte per send, so the body after the head comes in many reads
    monkeypatch.setenv("PROMPTSHAP_API_KEY", "k")
    reply = b"HTTP/1.1 200 OK\r\n\r\n" + CHAT_REPLY
    with raw_server(reply, drip=0.001) as (url, accepted):
        api = ApiConfig(base_url=url, model="m", attempts=1)
        request = client._requests_to("/v1/chat/completions", api)(b"{}")
        status, headers, body = client._send(request, api.timeout)
    assert (status, headers, body) == (200, {}, CHAT_REPLY)


def test_a_lower_case_retry_after_is_honoured(manifest, monkeypatch):
    monkeypatch.setenv("PROMPTSHAP_API_KEY", "k")
    sleeps = []
    monkeypatch.setattr(client.time, "sleep", sleeps.append)
    reply = with_length(b"HTTP/1.1 429 Too Many Requests\r\nretry-after: 7\r\n", b"busy")
    with raw_server(reply) as (url, accepted):
        api = ApiConfig(base_url=url, model="m", attempts=2, backoff_base=0.0)
        req = build_completion_request(manifest, Coalition(0, 5), "Q", api)
        with pytest.raises(TransportError):
            complete(req, ResponseCache(), api)
    assert sleeps == [7.0]


@pytest.mark.parametrize("base_url", [
    "ftp://127.0.0.1/v1",
    "file:///tmp",
    "http://",
    "127.0.0.1:9",
    "http://user:pw@127.0.0.1:9",
    "http://127.0.0.1:99999",
    "http://127.0.0.1:9/a b",
    "http://127.0.0.1:9/?q=1",
    "http://" + "a" * 64 + ".example",
], ids=["ftp", "file", "no-host", "no-scheme", "userinfo", "bad-port", "space", "query",
        "long-label"])
def test_a_base_url_that_is_not_an_http_url_fails_before_any_attempt(manifest, monkeypatch,
                                                                    base_url):
    monkeypatch.setenv("PROMPTSHAP_API_KEY", "k")
    sent, sleeps = [], []
    monkeypatch.setattr(client, "_send", lambda request, timeout: sent.append(request))
    monkeypatch.setattr(client.time, "sleep", sleeps.append)
    api = ApiConfig(base_url=base_url, model="m")
    req = build_completion_request(manifest, Coalition(0, 5), "Q", api)
    with pytest.raises(PreconditionError, match="api.base_url"):
        complete(req, ResponseCache(), api)
    assert sent == [] and sleeps == []


@pytest.fixture
def proxy_env(monkeypatch):
    """No proxy setting from outside, and no endpoint remembered from before."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    monkeypatch.setenv("PROMPTSHAP_API_KEY", "k")
    client._endpoint.cache_clear()
    yield monkeypatch
    client._endpoint.cache_clear()


def test_a_proxy_that_names_no_host_fails_before_any_attempt(manifest, proxy_env):
    sent = []
    proxy_env.setattr(client, "_send", lambda request, timeout: sent.append(request))
    proxy_env.setenv("http_proxy", "http://:3128")
    api = ApiConfig(base_url="http://127.0.0.1:9", model="m")
    req = build_completion_request(manifest, Coalition(0, 5), "Q", api)
    with pytest.raises(PreconditionError, match=re.escape(
            "api.base_url 'http://127.0.0.1:9' is not usable: proxy 'http://:3128' names no host")):
        complete(req, ResponseCache(), api)
    assert sent == []


def test_http_goes_through_the_proxy_with_its_credentials(manifest, proxy_env):
    received = []
    with raw_server(with_length(b"HTTP/1.1 200 OK\r\n"), received) as (proxy, accepted):
        proxy_env.setenv("http_proxy", proxy.replace("http://", "http://us%40er:p%3Ass@"))
        api = ApiConfig(base_url="http://api.example:8080/base", model="m", attempts=1)
        req = build_completion_request(manifest, Coalition(0, 5), "Q", api)
        assert complete(req, ResponseCache(), api) == "The answer is (A)."
    [message] = received
    assert message.startswith(b"POST http://api.example:8080/base/v1/chat/completions HTTP/1.1\r\n")
    assert b"\r\nHost: api.example:8080\r\n" in message
    assert (b"\r\nProxy-Authorization: Basic " + base64.b64encode(b"us@er:p:ss") + b"\r\n"
            in message)


def test_no_proxy_bypasses_the_proxy(manifest, proxy_env):
    with raw_server(b"") as (proxy, proxied), \
            raw_server(with_length(b"HTTP/1.1 200 OK\r\n")) as (url, direct):
        proxy_env.setenv("http_proxy", proxy)
        proxy_env.setenv("no_proxy", "localhost,127.0.0.1")
        api = ApiConfig(base_url=url, model="m", attempts=1)
        req = build_completion_request(manifest, Coalition(0, 5), "Q", api)
        assert complete(req, ResponseCache(), api) == "The answer is (A)."
        assert (len(proxied), len(direct)) == (0, 1)


def test_https_tunnels_through_the_proxy_and_a_refused_tunnel_is_retried(manifest, proxy_env):
    received = []
    reply = with_length(b"HTTP/1.1 407 Proxy Authentication Required\r\n", b"who?")
    with raw_server(reply, received) as (proxy, accepted):
        proxy_env.setenv("https_proxy", proxy.replace("http://", "http://u:p@"))
        api = ApiConfig(base_url="https://api.example", model="m", attempts=2,
                        backoff_base=0.0)
        req = build_completion_request(manifest, Coalition(0, 5), "Q", api)
        with pytest.raises(TransportError, match="2 attempts") as info:
            complete(req, ResponseCache(), api)
        assert len(accepted) == 2
    assert "407" in info.value.payload()["last_error"]
    head = received[0].split(b"\r\n")
    assert head[0] == b"CONNECT api.example:443 HTTP/1.1"
    assert b"Proxy-Authorization: Basic " + base64.b64encode(b"u:p") in head


def test_an_http_base_url_without_a_port_uses_port_80(proxy_env):
    api = ApiConfig(base_url="http://host/v1", model="m")
    assert client._requests_to("/chat", api)(b"{}").address == ("host", 80)


def test_a_proxy_setting_without_a_scheme_is_used(manifest, proxy_env):
    received = []
    with raw_server(with_length(b"HTTP/1.1 200 OK\r\n"), received) as (proxy, accepted):
        proxy_env.setenv("http_proxy", proxy.removeprefix("http://"))
        api = ApiConfig(base_url="http://api.example/base", model="m", attempts=1)
        req = build_completion_request(manifest, Coalition(0, 5), "Q", api)
        assert complete(req, ResponseCache(), api) == "The answer is (A)."
    [message] = received
    assert message.startswith(b"POST http://api.example/base/v1/chat/completions HTTP/1.1\r\n")


def test_a_proxy_user_without_a_password_sends_no_proxy_credentials(proxy_env):
    proxy_env.setenv("http_proxy", "http://user@127.0.0.1:3128")
    api = ApiConfig(base_url="http://api.example", model="m")
    request = client._requests_to("/chat", api)(b"{}")
    assert request.address == ("127.0.0.1", 3128)
    assert b"Proxy-Authorization" not in request.message


def test_a_tunnel_to_an_ipv6_host_brackets_it(proxy_env):
    proxy_env.setenv("https_proxy", "http://u:p@127.0.0.1:3128")
    api = ApiConfig(base_url="https://[::1]:8443", model="m")
    request = client._requests_to("/chat", api)(b"{}")
    assert request.tunnel.startswith(b"CONNECT [::1]:8443 HTTP/1.1\r\nHost: [::1]:8443\r\n")
    assert b"Proxy-Authorization" not in request.message
    assert request.tls_host == "::1"


@pytest.fixture(scope="module")
def self_signed(tmp_path_factory):
    """(certificate, key) PEM paths of a throwaway certificate for 127.0.0.1."""
    folder = tmp_path_factory.mktemp("tls")
    cert, key = folder / "cert.pem", folder / "key.pem"
    if shutil.which("openssl"):
        subprocess.run(["openssl", "req", "-x509", "-newkey", "ec", "-pkeyopt",
                        "ec_paramgen_curve:prime256v1", "-nodes", "-days", "1",
                        "-subj", "/CN=127.0.0.1", "-addext", "subjectAltName=IP:127.0.0.1",
                        "-keyout", str(key), "-out", str(cert)],
                       check=True, capture_output=True, timeout=60)
        return cert, key
    x509 = pytest.importorskip("cryptography.x509", reason="needs openssl or cryptography")
    import datetime
    import ipaddress

    from cryptography.hazmat.primitives import hashes, serialization
    from cryptography.hazmat.primitives.asymmetric import ec

    private = ec.generate_private_key(ec.SECP256R1())
    name = x509.Name([x509.NameAttribute(x509.oid.NameOID.COMMON_NAME, "127.0.0.1")])
    now = datetime.datetime.now(datetime.timezone.utc)
    certificate = (
        x509.CertificateBuilder().subject_name(name).issuer_name(name)
        .public_key(private.public_key()).serial_number(x509.random_serial_number())
        .not_valid_before(now - datetime.timedelta(minutes=5))
        .not_valid_after(now + datetime.timedelta(days=1))
        .add_extension(x509.SubjectAlternativeName(
            [x509.IPAddress(ipaddress.ip_address("127.0.0.1"))]), critical=False)
        .sign(private, hashes.SHA256()))
    cert.write_bytes(certificate.public_bytes(serialization.Encoding.PEM))
    key.write_bytes(private.private_bytes(serialization.Encoding.PEM,
                                          serialization.PrivateFormat.PKCS8,
                                          serialization.NoEncryption()))
    return cert, key


@pytest.mark.parametrize("trusted", [False, True], ids=["untrusted", "trusted"])
def test_https_verifies_the_server_certificate(manifest, proxy_env, self_signed, trusted):
    cert, key = self_signed
    server = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    server.load_cert_chain(cert, key)
    if trusted:
        context = client._tls_context.__wrapped__()
        context.load_verify_locations(cert)
        proxy_env.setattr(client, "_tls_context", lambda: context)
    with raw_server(with_length(b"HTTP/1.1 200 OK\r\n"), tls=server) as (url, accepted):
        api = ApiConfig(base_url=url, model="m", attempts=2, backoff_base=0.0)
        req = build_completion_request(manifest, Coalition(0, 5), "Q", api)
        if trusted:
            assert complete(req, ResponseCache(), api) == "The answer is (A)."
        else:
            with pytest.raises(TransportError) as info:
                complete(req, ResponseCache(), api)
            assert "CERTIFICATE_VERIFY_FAILED" in info.value.payload()["last_error"]
        assert len(accepted) == 1 if trusted else 2


def test_https_through_a_proxy_tunnel_reaches_the_origin(manifest, proxy_env, self_signed):
    cert, key = self_signed
    server = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    server.load_cert_chain(cert, key)
    context = client._tls_context.__wrapped__()
    context.load_verify_locations(cert)
    proxy_env.setattr(client, "_tls_context", lambda: context)
    received = []
    reply = with_length(b"HTTP/1.1 200 OK\r\n")
    with raw_server(reply, received, tls=server, tunnel=True) as (url, accepted):
        proxy_env.setenv("https_proxy", url.replace("https://", "http://"))
        # the certificate names 127.0.0.1, so the origin is the proxy's own address
        api = ApiConfig(base_url=url + "/base", model="m", attempts=1)
        req = build_completion_request(manifest, Coalition(0, 5), "Q", api)
        assert complete(req, ResponseCache(), api) == "The answer is (A)."
    connect, message = received
    authority = url.removeprefix("https://").encode()
    assert connect.startswith(b"CONNECT " + authority + b" HTTP/1.1\r\n")
    assert message.startswith(b"POST /base/v1/chat/completions HTTP/1.1\r\n")


def test_rejected_credential_is_not_retried(stub, stub_api, manifest, monkeypatch):
    monkeypatch.setenv("PROMPTSHAP_API_KEY", "wrong-key")
    req = build_completion_request(manifest, Coalition(0, 5), "Q", stub_api)
    with pytest.raises(CredentialError):
        complete(req, ResponseCache(), stub_api)


def test_missing_credential_fails_before_any_network(stub, stub_api, manifest, monkeypatch):
    monkeypatch.delenv("PROMPTSHAP_API_KEY", raising=False)
    req = build_completion_request(manifest, Coalition(0, 5), "Q", stub_api)
    with pytest.raises(CredentialError):
        complete(req, ResponseCache(), stub_api)
    assert stub.state.chat_requests == 0


def test_malformed_body_raises_protocol_error(stub, stub_api, manifest):
    stub.state.malformed_chat = True
    req = build_completion_request(manifest, Coalition(0, 5), "Q", stub_api)
    with pytest.raises(ProtocolError):
        complete(req, ResponseCache(), stub_api)


@pytest.mark.parametrize("content", [5, None, ["(A)"]], ids=repr)
def test_chat_content_that_is_not_a_string_raises_protocol_error(manifest, monkeypatch, content):
    monkeypatch.setenv("PROMPTSHAP_API_KEY", "k")
    reply = json.dumps({"choices": [{"message": {"role": "assistant", "content": content}}]})
    monkeypatch.setattr(client, "_send", lambda request, timeout: (200, {}, reply.encode()))
    api = ApiConfig(base_url="http://127.0.0.1:9", model="m")
    req = build_completion_request(manifest, Coalition(0, 5), "Q", api)
    with pytest.raises(ProtocolError, match="chat completion content is not a string"):
        complete(req, ResponseCache(), api)


def test_unconfigured_base_url_is_a_precondition(stub, manifest):
    req = CompletionRequest(question="Q", model="m")
    with pytest.raises(PreconditionError):
        complete(req, ResponseCache(), ApiConfig())


def test_cache_hit_needs_no_credential(stub, stub_api, manifest, monkeypatch):
    cache = ResponseCache()
    req = build_completion_request(manifest, Coalition(0, 5), "Q [gold=A]", stub_api)
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
    assert oracle(Coalition(0, 5)) == pytest.approx(1 / 3)
    assert oracle(Coalition(0b11111, 5)) == pytest.approx(2 / 3)
    assert oracle(Coalition(0b11, 5)) == 1.0
    assert oracle(Coalition(0b1000, 5)) == 0.0


def test_augmentation_utility_reuses_the_cache(stub, stub_api, manifest, questions):
    oracle = augmentation_utility(
        manifest, questions, Task.MULTIPLE_CHOICE, ResponseCache(), stub_api
    )
    oracle(Coalition(0b11111, 5))
    after_first = stub.state.chat_requests
    assert after_first == len(questions)
    oracle(Coalition(0b11111, 5))
    assert stub.state.chat_requests == after_first


def test_augmentation_aborts_on_transport_failure(stub, stub_api, manifest, questions):
    api = dataclasses.replace(stub_api, attempts=1)
    oracle = augmentation_utility(manifest, questions, Task.MULTIPLE_CHOICE,
                                  ResponseCache(), api)
    stub.state.fail_next = 1
    with pytest.raises(TransportError):
        oracle(Coalition(0b11111, 5))


def test_augmentation_needs_questions(stub, stub_api, manifest):
    with pytest.raises(PreconditionError):
        augmentation_utility(manifest, [], Task.MULTIPLE_CHOICE, ResponseCache(), stub_api)


def recorded_sends(monkeypatch, fail_after=None):
    """The chat bodies ``_send`` is given, in order; with ``fail_after``,
    every send after that many fails as a refused connection."""
    bodies = []
    send = client._send

    def recording(request, timeout):
        if fail_after is not None and len(bodies) >= fail_after:
            raise ConnectionRefusedError("refused")
        bodies.append(json.loads(request.message.partition(b"\r\n\r\n")[2]))
        return send(request, timeout)

    monkeypatch.setattr(client, "_send", recording)
    return bodies


def expected_contents(manifest, questions, masks):
    """The chat content of every (mask, question) request, in batch order."""
    return ["\n\n".join([*(manifest.texts[i] for i in Coalition(mask, manifest.n).indices()),
                          q.question])
            for mask in masks for q in questions]


def test_a_batch_sends_each_uncached_request_once_in_mask_then_question_order(
        stub, stub_api, manifest, questions, monkeypatch):
    bodies = recorded_sends(monkeypatch)
    oracle = augmentation_utility(manifest, questions, Task.MULTIPLE_CHOICE,
                                  ResponseCache(), stub_api)
    assert oracle(Coalition(0b11, 5)) == 1.0
    del bodies[:]
    masks = [0b11111, 0, 0b11, 0b1000]
    assert list(oracle.batch(masks, 5)) == pytest.approx([2 / 3, 1 / 3, 1.0, 0.0])
    assert stub.state.chat_requests == len(questions) * 4      # 0b11 was cached
    uncached = [0b11111, 0, 0b1000]
    assert [body["messages"][0]["content"] for body in bodies] == \
        expected_contents(manifest, questions, uncached)
    del bodies[:]
    assert list(oracle.batch(masks, 5)) == pytest.approx([2 / 3, 1 / 3, 1.0, 0.0])
    assert bodies == []


def test_a_batch_of_hits_needs_no_credential_and_no_base_url(stub, stub_api, manifest,
                                                             questions, monkeypatch):
    cache = ResponseCache()
    masks = [0b11111, 0, 0b11]
    first = list(augmentation_utility(manifest, questions, Task.MULTIPLE_CHOICE, cache,
                                      stub_api).batch(masks, 5))
    sent = stub.state.chat_requests
    monkeypatch.delenv("PROMPTSHAP_API_KEY")
    offline = ApiConfig(model=stub_api.model)
    oracle = augmentation_utility(manifest, questions, Task.MULTIPLE_CHOICE, cache, offline)
    assert list(oracle.batch(masks, 5)) == first
    assert stub.state.chat_requests == sent
    with pytest.raises(CredentialError):    # a miss reads the credential
        list(oracle.batch([0b100], 5))


def test_a_transport_error_mid_batch_keeps_every_response_received_before_it(
        stub, stub_api, manifest, questions, monkeypatch, tmp_path):
    monkeypatch.setattr(cache_module, "FLUSH_S", 3600.0)    # only the failure stores
    bodies = recorded_sends(monkeypatch, fail_after=8)
    api = dataclasses.replace(stub_api, attempts=1)
    path = str(tmp_path / "responses.jsonl")
    with ResponseCache.load(path) as cache:
        oracle = augmentation_utility(manifest, questions, Task.MULTIPLE_CHOICE, cache, api)
        utilities = oracle.batch([0, 0b11, 0b11111], 5)
        assert next(utilities) == pytest.approx(1 / 3)
        with pytest.raises(TransportError):
            next(utilities)
        assert len(cache) == 8
        kept = dict(cache.entries)
        assert ResponseCache.load(path).entries == kept      # on disk before the close
    assert len(bodies) == 8
    assert ResponseCache.load(path).entries == kept
    requests = [build_completion_request(manifest, Coalition(mask, 5), q.question, api)
                for mask in (0, 0b11) for q in questions][:8]
    assert list(kept) == [request_digest(req) for req in requests]


def test_a_batch_over_the_wrong_player_count_fails_before_any_request(stub, stub_api,
                                                                      manifest, questions):
    oracle = augmentation_utility(manifest, questions, Task.MULTIPLE_CHOICE,
                                  ResponseCache(), stub_api)
    with pytest.raises(ConsistencyError, match="coalition is over 6 players but the "
                                               "manifest has 5"):
        list(oracle.batch([0, 1], 6))
    assert stub.state.chat_requests == 0


def test_a_non_finite_temperature_fails_only_when_a_request_goes_out(stub, stub_api, manifest,
                                                                    questions):
    api = dataclasses.replace(stub_api, temperature=math.nan)
    cache = ResponseCache()
    for q in questions:      # the digest payload spells the temperature NaN
        cache.put(request_digest(build_completion_request(manifest, Coalition(0, 5),
                                                          q.question, api)), "(A)")
    oracle = augmentation_utility(manifest, questions, Task.MULTIPLE_CHOICE, cache, api)
    assert list(oracle.batch([0], 5)) == pytest.approx([2 / 6])    # golds A, B, C, D, A, B
    with pytest.raises(ValueError) as dumped:
        json.dumps({"temperature": math.nan}, allow_nan=False)
    with pytest.raises(PreconditionError) as info:
        list(oracle.batch([0, 0b1], 5))
    assert str(info.value) == f"cannot build the request to /v1/chat/completions: {dumped.value}"
    req = build_completion_request(manifest, Coalition(0b1, 5), questions[0].question, api)
    with pytest.raises(PreconditionError) as single:
        complete(req, cache, api)
    assert str(single.value) == str(info.value)
    assert stub.state.chat_requests == 0


# Texts that exercise every branch of JSON string escaping: quotes,
# backslashes, newlines, tabs and other controls, non-ASCII, non-BMP and a
# lone surrogate.
json_text = st.text(st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é",
                                     "\u2028", "\U0001f600", "\ud800", "a", " "])
                    | st.characters(), max_size=12)


@given(texts=st.lists(json_text.filter(bool), min_size=1, max_size=5),
       question=json_text, model=json_text,
       temperature=st.integers(-5, 5) | st.floats(allow_nan=False, allow_infinity=False),
       max_tokens=st.integers(0, 10**6), data=st.data())
@settings(max_examples=200, deadline=None)
def test_the_chat_format_spells_each_request_as_json_dumps(texts, question, model, temperature,
                                                          max_tokens, data):
    n = len(texts)
    mask = data.draw(st.sampled_from([0, (1 << n) - 1]) | st.integers(0, (1 << n) - 1))
    indices = Coalition(mask, n).indices()
    exemplars = [texts[i] for i in indices]
    fmt = client._ChatFormat(texts, ["unused", question], model, temperature, max_tokens)
    payload = json.dumps({"exemplars": exemplars, "max_tokens": max_tokens, "model": model,
                          "question": question, "temperature": temperature},
                         sort_keys=True, separators=(",", ":"))
    assert fmt.payload(fmt.digest_head(indices), 1) == payload.encode()
    body = {"model": model,
            "messages": [{"role": "user", "content": "\n\n".join([*exemplars, question])}],
            "temperature": temperature, "max_tokens": max_tokens}
    assert fmt.body(indices, 1) == json.dumps(body, allow_nan=False).encode()
    req = CompletionRequest(question=question, model=model, exemplars=tuple(exemplars),
                            temperature=temperature, max_tokens=max_tokens)
    assert request_digest(req) == hashlib.sha256(payload.encode()).hexdigest()


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


@pytest.mark.parametrize("indices, bad", [
    ([-1, 0], "-1"),    # fills both rows if -1 wraps onto the last one
    ([0, 2], "2"),
    ([0.9, 1], "0.9"),  # fills both rows if 0.9 is truncated to 0
    (["0", "1"], "'0'"),
])
def test_embed_rejects_a_reply_index_that_names_no_input(indices, bad, monkeypatch):
    monkeypatch.setenv("PROMPTSHAP_API_KEY", "k")
    reply = json.dumps({"data": [{"index": i, "embedding": [1.0, 0.0]} for i in indices]})
    monkeypatch.setattr(client, "_send", lambda request, timeout: (200, {}, reply.encode()))
    api = ApiConfig(base_url="http://127.0.0.1:9", model="m")
    with pytest.raises(ProtocolError, match=f"index {bad} is not an integer in 0..1"):
        embed(["a", "b"], api)


@pytest.mark.parametrize("row", [
    [0.5, True],        # a bool is not a number
    ["0.5", 1.0],       # nor is a numeric string
    "123",              # a string is not an array of its digits
    {"0": 0.5, "1": 1.0},
    [[0.5], [1.0]],
    None,
    [math.nan, 1.0],    # json writes NaN and Infinity, and json.loads reads them
    [math.inf, 1.0],
], ids=["bool", "string", "string-of-digits", "dict", "nested-list", "null", "nan", "infinity"])
def test_embed_refuses_a_row_that_is_not_an_array_of_numbers(row, monkeypatch):
    monkeypatch.setenv("PROMPTSHAP_API_KEY", "k")
    reply = json.dumps({"data": [{"index": 0, "embedding": [0.5, 1.0]},
                                 {"index": 1, "embedding": row}]})
    monkeypatch.setattr(client, "_send", lambda request, timeout: (200, {}, reply.encode()))
    api = ApiConfig(base_url="http://127.0.0.1:9", model="m")
    with pytest.raises(ProtocolError, match="the embedding of row 1 is not an array of numbers"):
        embed(["a", "b"], api)


def test_embed_refuses_a_reply_without_every_row(monkeypatch):
    monkeypatch.setenv("PROMPTSHAP_API_KEY", "k")
    reply = json.dumps({"data": [{"index": 1, "embedding": [1.0, 0.0]}]})
    monkeypatch.setattr(client, "_send", lambda request, timeout: (200, {}, reply.encode()))
    api = ApiConfig(base_url="http://127.0.0.1:9", model="m")
    with pytest.raises(ProtocolError, match="embeddings response is missing rows"):
        embed(["a", "b"], api)


def test_a_non_finite_number_in_the_embeddings_body_fails_before_any_request(stub, stub_api):
    api = dataclasses.replace(stub_api, embeddings_model=math.nan)
    with pytest.raises(PreconditionError, match="cannot build the request to /v1/embeddings"):
        embed(["a"], api)
    assert stub.state.embed_requests == 0


def test_embed_refuses_an_integer_too_large_for_a_float(monkeypatch):
    monkeypatch.setenv("PROMPTSHAP_API_KEY", "k")
    reply = json.dumps({"data": [{"index": 0, "embedding": [1, 10**400]}]})
    monkeypatch.setattr(client, "_send", lambda request, timeout: (200, {}, reply.encode()))
    api = ApiConfig(base_url="http://127.0.0.1:9", model="m")
    with pytest.raises(ProtocolError, match="malformed embeddings body"):
        embed(["a"], api)


def test_predict_refuses_an_embeddings_reply_nested_past_the_decoder(tmp_path, capsys,
                                                                     monkeypatch):
    monkeypatch.setenv("PROMPTSHAP_API_KEY", "k")
    reply = b'{"data": ' + b"[" * 5000 + b"]" * 5000 + b"}"
    monkeypatch.setattr(client, "_send", lambda request, timeout: (200, {}, reply))
    api = ApiConfig(base_url="http://127.0.0.1:9", model="m")
    with pytest.raises(ProtocolError, match="/v1/embeddings replied with a non-JSON body"):
        embed(["a"], api)
    code, doc = run_predict(tmp_path, capsys, api, [1.0])
    assert code == 1
    assert doc["error"] == "ProtocolError"
    assert doc["message"].startswith("/v1/embeddings replied with a non-JSON body: ")


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
