"""HTTP client for live coalition utilities and prompt embeddings.

Talks to an OpenAI-compatible endpoint (``POST /v1/chat/completions`` and
``POST /v1/embeddings``). The credential is read from the environment
variable ``PROMPTSHAP_API_KEY`` only, never from configuration files, and
its absence, or a CR, LF, NUL or non-latin-1 character in it, is reported
before any network traffic.

Coalitions are sets, but few-shot order changes model output, so exemplars
are always serialized in ascending manifest-index order. That makes the
utility a well-defined set function and lets the response cache key on a
digest of the exact payload fields.

``augmentation_utility`` returns a ``game.Oracle`` whose mask-level batch,
behind ``game.checked_batch`` (the batch contract: its player count and
masks, checked before any request), asks, for each mask in order, each
question in file order. Its cost model:
each prompt text and question is JSON-escaped once per factory call; each
request is then one join of ready strings for its digest payload (the
``sort_keys`` compact JSON of its fields) and one ``sha256``, plus, on a
cache miss, one join for its wire body and one for its HTTP head. Both
strings are byte-identical to what ``json.dumps`` writes (``_ChatFormat``),
and ``request_digest`` and ``complete`` go through the same helper. A batch's
digests go through the response cache's memo path (``cache.memoized``), which
POSTs each miss in order, reading the credential and endpoint at the first, so
hits need neither and a failure keeps every response received before it.

Both endpoints go through one POST path, ``_post``: ``_post_json`` builds
its body with ``json.dumps``, and the chat requests pass in ready bytes. It
sends the body with the bearer credential and classifies the reply: 401/403
raise ``CredentialError`` at once; 429, 500, 502, 503, 504 and transport failures
(refused or dropped connections, timeouts) are retried up to
``api.attempts`` times, waiting ``backoff_base * 2**k`` seconds before retry
k+1, or longer when a 429 carries a numeric ``Retry-After``; any other
status raises ``ProtocolError``; running out of attempts raises
``TransportError`` with the last status and error. Every wait is capped at
``config.MAX_WAIT_S`` (an hour): a longer backoff or ``Retry-After`` waits
that long and then retries.

Each attempt is one exchange in ``_send``: open a socket (TLS for https),
write the whole request at once with ``Connection: close``, and read one
reply (interim 1xx replies skipped; the body chunked, ``Content-Length``
bytes, or up to EOF). ``api.timeout`` bounds the whole attempt, not each
socket operation, so a reply that trickles in times out like a silent one.
A broken reply raises ``OSError`` or an ``http.client`` exception, so it is
retried like a dropped connection. A
``base_url`` that is not an ``http`` or ``https`` URL with a host, and no
userinfo, query or fragment, is a ``PreconditionError`` before the first
attempt. The endpoint of each ``base_url`` is worked out once per process,
with the proxy and ``no_proxy`` settings the environment holds at that time;
an https request goes through its proxy by ``CONNECT``.

``embed`` only talks HTTP; precomputed embedding files are read with
``learning.load_embeddings``. It refuses a reply row that is not an array of
finite JSON numbers (a bool, a numeric string, NaN or Infinity is not one,
nor an int past the float range): the rule of ``game.finite_numbers``.
"""

from __future__ import annotations

import base64
import contextlib
import functools
import hashlib
import http.client
import json
import math
import os
import re
import socket
import ssl
import time
import urllib.parse
import urllib.request
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .cache import ResponseCache, memoized
from .coalition import Coalition, indices
from .config import MAX_WAIT_S, ApiConfig, Task
from .errors import (
    ConsistencyError,
    CredentialError,
    PreconditionError,
    ProtocolError,
    TransportError,
)
from .game import Oracle, checked_batch, finite_numbers
from .jsonio import FAULTS, read_jsonl, reading

API_KEY_ENV = "PROMPTSHAP_API_KEY"

_RETRYABLE_STATUS = frozenset({429, 500, 502, 503, 504})


@dataclass(frozen=True)
class PromptEntry:
    prompt_id: str
    text: str


@dataclass(frozen=True)
class PromptManifest:
    prompts: tuple[PromptEntry, ...]

    def __post_init__(self):
        ids = [p.prompt_id for p in self.prompts]
        if len(set(ids)) != len(ids):
            raise ConsistencyError("manifest prompt ids must be unique")
        for p in self.prompts:
            if not p.text:
                raise ConsistencyError(f"manifest prompt {p.prompt_id!r} has empty text")

    @property
    def n(self) -> int:
        return len(self.prompts)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(p.prompt_id for p in self.prompts)

    @property
    def texts(self) -> tuple[str, ...]:
        return tuple(p.text for p in self.prompts)


def load_manifest(path: str) -> PromptManifest:
    entries = read_jsonl(path, lambda row: PromptEntry(
        prompt_id=str(row["id"]), text=str(row["text"])
    ))
    with reading(path):
        if not entries:
            raise ValueError("manifest has no prompt rows")
        return PromptManifest(prompts=tuple(entries))


@dataclass(frozen=True)
class Question:
    question_id: str
    question: str
    gold: str


def load_questions(path: str) -> tuple[Question, ...]:
    out = tuple(read_jsonl(path, lambda r: Question(
        question_id=str(r["id"]), question=str(r["question"]), gold=str(r["gold"])
    )))
    with reading(path):
        if not out:
            raise ValueError("question set has no rows")
        if len({q.question_id for q in out}) != len(out):
            raise ValueError("question ids must be unique")
    return out


@dataclass(frozen=True)
class CompletionRequest:
    question: str
    model: str
    exemplars: tuple[str, ...] = ()
    temperature: float = 0.0
    max_tokens: int = 256


def build_completion_request(manifest: PromptManifest, coalition: Coalition,
                             question: str, api: ApiConfig) -> CompletionRequest:
    if coalition.n != manifest.n:
        raise ConsistencyError(
            f"coalition is over {coalition.n} players but the manifest has {manifest.n}")
    # ascending manifest index: the canonical exemplar order
    exemplars = tuple(manifest.prompts[i].text for i in coalition.indices())
    return CompletionRequest(
        question=question,
        model=api.model,
        exemplars=exemplars,
        temperature=api.temperature,
        max_tokens=api.max_tokens,
    )


_CHAT = "/v1/chat/completions"
# the C string escaper behind json.dumps (ensure_ascii): a quoted ASCII string
_quote = json.encoder.encode_basestring_ascii
_compact = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))


class _ChatFormat:
    """The two spellings of the chat requests over fixed exemplar texts and
    questions, each built by joining JSON text escaped once per text here.

    The digest payload of exemplars ``indices`` and question ``q`` is
    ``json.dumps({"exemplars": ..., "max_tokens": ..., "model": ...,
    "question": ..., "temperature": ...}, sort_keys=True, separators=(",",
    ":"))``; its wire body is ``json.dumps({"model": ..., "messages":
    [{"role": "user", "content": <exemplars and question joined by blank
    lines>}], "temperature": ..., "max_tokens": ...}, allow_nan=False)``.
    Escaping is per character, so the escape of a join is the join of the
    escapes. The constant fields go through ``json.dumps`` itself; the
    body's are encoded at the first body, so a non-finite temperature fails
    only when a request has to go out.
    """

    __slots__ = ("_quoted", "_content", "_digest_ends", "_questions", "_fields", "_body")

    def __init__(self, texts: Sequence[str], questions: Sequence[str],
                 model, temperature, max_tokens):
        self._quoted = [_quote(t) for t in texts]
        # each text's escape inside the content string, with the blank line after it
        self._content = [quoted[1:-1] + r"\n\n" for quoted in self._quoted]
        self._questions = [_quote(q) for q in questions]
        middle = f'],"max_tokens":{_compact(max_tokens)},"model":{_compact(model)},"question":'
        end = f',"temperature":{_compact(temperature)}}}'
        self._digest_ends = [middle + q + end for q in self._questions]
        self._fields = (model, temperature, max_tokens)
        self._body = None           # (head, end per question), built at the first body

    @property
    def questions(self) -> int:
        return len(self._questions)

    def digest_head(self, indices: Sequence[int]) -> str:
        """The digest payload of exemplars ``indices`` up to its question."""
        quoted = self._quoted
        return '{"exemplars":[' + ",".join([quoted[i] for i in indices])

    def payload(self, head: str, q: int) -> bytes:
        """The digest payload of ``head``'s exemplars and question ``q``."""
        return (head + self._digest_ends[q]).encode()

    def body(self, indices: Sequence[int], q: int) -> bytes:
        """The wire body of exemplars ``indices`` and question ``q``; a
        ``PreconditionError`` if a constant field is not JSON (a non-finite
        temperature)."""
        if self._body is None:
            model, temperature, max_tokens = self._fields
            try:
                head = f'{{"model": {json.dumps(model, allow_nan=False)}, ' \
                       '"messages": [{"role": "user", "content": "'
                end = (f'"}}], "temperature": {json.dumps(temperature, allow_nan=False)}, '
                       f'"max_tokens": {json.dumps(max_tokens, allow_nan=False)}}}')
            except ValueError as exc:
                raise PreconditionError(f"cannot build the request to {_CHAT}: {exc}") from exc
            self._body = head, [q[1:-1] + end for q in self._questions]
        head, ends = self._body
        content = self._content
        return (head + "".join([content[i] for i in indices]) + ends[q]).encode()


def _format_of(req: CompletionRequest) -> _ChatFormat:
    return _ChatFormat(req.exemplars, [req.question], req.model, req.temperature,
                       req.max_tokens)


def request_digest(req: CompletionRequest) -> str:
    fmt = _format_of(req)
    return hashlib.sha256(fmt.payload(fmt.digest_head(range(len(req.exemplars))), 0)).hexdigest()


_HEADER_UNSAFE = re.compile(r"[\r\n\0]|[^\x00-\xff]")


def _get_api_key() -> str:
    key = os.environ.get(API_KEY_ENV, "")
    if not key:
        raise CredentialError(
            f"set the {API_KEY_ENV} environment variable to use the live API",
            env_var=API_KEY_ENV,
        )
    # the key goes into a header line, so it must not end that line or
    # leave latin-1; the message never repeats the key
    if _HEADER_UNSAFE.search(key):
        raise CredentialError(
            f"{API_KEY_ENV} holds a character an HTTP header cannot carry "
            "(CR, LF, NUL or one outside latin-1)",
            env_var=API_KEY_ENV,
        )
    return key


_USER_AGENT = f"Python-urllib/{urllib.request.__version__}"
_URL_FORBIDDEN = re.compile(r"[^\x21-\x7e]")    # controls, space, DEL and non-ASCII


@dataclass(frozen=True)
class _Endpoint:
    """Where the POSTs for one ``base_url`` go, worked out once."""
    tls: bool
    host: str
    port: int
    host_header: str                # the base URL's host[:port], as written
    prefix: str                     # the base URL's path, without a trailing slash
    proxy: Optional[tuple[str, int]]
    proxy_auth: Optional[str]       # a Proxy-Authorization value


@dataclass(frozen=True)
class _Request:
    """One POST, ready to send again on every retry."""
    address: tuple[str, int]        # the socket's peer: the origin or its proxy
    tls_host: Optional[str]         # the name TLS verifies, for https
    tunnel: Optional[bytes]         # a CONNECT sent first, through an https proxy
    message: bytes


def _split_proxy(proxy: str) -> tuple[tuple[str, int], Optional[str]]:
    """A proxy setting as urllib reads it: [scheme://][user:password@]host[:port]."""
    parts = urllib.parse.urlsplit(proxy if "//" in proxy else "//" + proxy)
    if not parts.hostname:
        raise ValueError(f"proxy {proxy!r} names no host")
    parts.hostname.encode("idna")
    auth = None
    if parts.username and parts.password:
        user_pass = f"{urllib.parse.unquote(parts.username)}:{urllib.parse.unquote(parts.password)}"
        auth = "Basic " + base64.b64encode(user_pass.encode()).decode("ascii")
    return (parts.hostname, parts.port or 80), auth


@functools.cache
def _endpoint(base_url: str) -> _Endpoint:
    """The endpoint of ``base_url``, with the environment's proxy for its
    scheme unless ``no_proxy`` matches its host."""
    base = base_url.rstrip("/")
    try:
        if _URL_FORBIDDEN.search(base):
            raise ValueError("it holds a space, a control or a non-ASCII character")
        parts = urllib.parse.urlsplit(base)
        if parts.scheme not in ("http", "https"):
            raise ValueError("the scheme is not http or https")
        if not parts.hostname:
            raise ValueError("it names no host")
        if "@" in parts.netloc:
            raise ValueError("it holds userinfo")
        if parts.query or parts.fragment or base.endswith(("?", "#")):
            raise ValueError("it holds a query or fragment")
        parts.hostname.encode("idna")   # a label longer than 63 characters fails here
        tls = parts.scheme == "https"
        port = parts.port or (443 if tls else 80)
        proxy, proxy_auth = None, None
        setting = urllib.request.getproxies().get(parts.scheme)
        if setting and not urllib.request.proxy_bypass(parts.netloc):
            proxy, proxy_auth = _split_proxy(setting)
    except ValueError as exc:   # UnicodeError and a bad port are ValueErrors too
        raise PreconditionError(f"api.base_url {base_url!r} is not usable: {exc}") from exc
    return _Endpoint(tls, parts.hostname, port, parts.netloc, parts.path, proxy, proxy_auth)


def _requests_to(path: str, api: ApiConfig) -> Callable[[bytes], _Request]:
    """The POST of a body to ``api.base_url + path``, as a function of the
    body's bytes. The credential and the endpoint are read and checked here,
    before any network traffic, and the head around the body's length is
    built once."""
    key = _get_api_key()
    if not api.base_url:
        raise PreconditionError("api.base_url is not configured")
    endpoint = _endpoint(api.base_url)
    target = endpoint.prefix + path
    proxy_header = ""
    if endpoint.proxy_auth is not None:
        proxy_header = f"Proxy-Authorization: {endpoint.proxy_auth}\r\n"
    tunnel = None
    if endpoint.proxy is not None and endpoint.tls:
        host = f"[{endpoint.host}]" if ":" in endpoint.host else endpoint.host
        authority = f"{host}:{endpoint.port}"
        tunnel = (f"CONNECT {authority} HTTP/1.1\r\nHost: {authority}\r\n"
                  f"{proxy_header}\r\n").encode("latin-1")
        proxy_header = ""
    elif endpoint.proxy is not None:
        target = f"http://{endpoint.host_header}{target}"
    start = (f"POST {target} HTTP/1.1\r\n"
             f"Host: {endpoint.host_header}\r\n"
             "Content-Type: application/json\r\n"
             f"Authorization: Bearer {key}\r\n"
             "Content-Length: ").encode("latin-1")
    end = ("\r\nAccept-Encoding: identity\r\n"
           "Connection: close\r\n"
           f"User-Agent: {_USER_AGENT}\r\n"
           f"{proxy_header}\r\n").encode("latin-1")
    address = endpoint.proxy or (endpoint.host, endpoint.port)
    tls_host = endpoint.host if endpoint.tls else None

    def request(data: bytes) -> _Request:
        return _Request(address, tls_host, tunnel, b"%b%d%b%b" % (start, len(data), end, data))

    return request


@functools.cache
def _tls_context() -> ssl.SSLContext:
    context = ssl.create_default_context()
    context.set_alpn_protocols(["http/1.1"])
    return context


_RECV_SIZE = 65536
_MAX_HEAD = 65536       # bytes of status line and header fields in one reply


def _until(sock: socket.socket, deadline: float) -> socket.socket:
    """``sock`` with its timeout set to the time left before ``deadline``;
    ``TimeoutError`` once none is left."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("timed out")
    sock.settimeout(left)
    return sock


class _Reader:
    """The bytes of one reply, received into a buffer as they are needed."""

    __slots__ = ("_sock", "_deadline", "_buf")

    def __init__(self, sock: socket.socket, deadline: float):
        self._sock = sock
        self._deadline = deadline
        self._buf = bytearray()

    def _fill(self) -> bool:
        chunk = _until(self._sock, self._deadline).recv(_RECV_SIZE)
        self._buf += chunk
        return bool(chunk)

    def until(self, sep: bytes) -> Optional[bytes]:
        """The bytes before ``sep``, consumed with it; None if the peer closes first."""
        start = 0
        while (end := self._buf.find(sep, start)) < 0:
            if len(self._buf) > _MAX_HEAD:
                raise http.client.LineTooLong("reply head")
            start = max(0, len(self._buf) - len(sep) + 1)
            if not self._fill():
                return None
        out = bytes(self._buf[:end])
        del self._buf[:end + len(sep)]
        return out

    def exactly(self, n: int) -> bytes:
        while len(self._buf) < n:
            if not self._fill():
                raise http.client.IncompleteRead(bytes(self._buf), n - len(self._buf))
        out = bytes(self._buf[:n])
        del self._buf[:n]
        return out

    def rest(self) -> bytes:
        while self._fill():
            pass
        return bytes(self._buf)

    def head(self) -> tuple[int, dict]:
        """The status and header fields of the next reply (1xx replies skipped).

        Field names are lower-cased and the first of a repeated field wins.
        """
        while True:
            head = self.until(b"\r\n\r\n")
            if head is None:
                raise http.client.RemoteDisconnected("remote end closed the connection "
                                                     "before a whole reply head")
            lines = head.split(b"\r\n")
            parts = lines[0].split(None, 2)
            if (len(parts) < 2 or not parts[0].startswith(b"HTTP/")
                    or len(parts[1]) != 3 or not parts[1].isdigit()):
                raise http.client.BadStatusLine(lines[0].decode("latin-1"))
            status = int(parts[1])
            if not 100 <= status < 200:
                break
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            headers.setdefault(name.lower().decode("latin-1"), value.strip().decode("latin-1"))
        return status, headers

    def chunked(self) -> bytes:
        parts = []
        while True:
            line = self.until(b"\r\n")
            size = -1
            if line is not None:   # a hex size, then any chunk extensions
                with contextlib.suppress(ValueError):
                    size = int(line.split(b";", 1)[0], 16)
            if size < 0:
                raise http.client.IncompleteRead(b"".join(parts))
            if size == 0:
                break
            parts.append(self.exactly(size))
            if self.exactly(2) != b"\r\n":
                raise http.client.IncompleteRead(b"".join(parts))
        while self.until(b"\r\n"):   # the trailer fields, up to an empty line or EOF
            pass
        return b"".join(parts)

    def reply(self) -> tuple[int, dict, bytes]:
        """(status, headers, body) of the final reply."""
        status, headers = self.head()
        if status in (204, 304):
            return status, headers, b""
        if headers.get("transfer-encoding", "").lower() == "chunked":
            return status, headers, self.chunked()
        length = headers.get("content-length", "")
        if length.isascii() and length.isdigit():
            return status, headers, self.exactly(int(length))
        return status, headers, self.rest()


def _send(request: _Request, timeout: float) -> tuple[int, dict, bytes]:
    """One attempt: (status, headers, body), an HTTP error status returned, not raised.

    The whole attempt, from connecting to the last byte of the reply, ends
    within ``timeout`` seconds: each socket operation waits only for the
    time left, and none left is a ``TimeoutError``. Fails with ``OSError``
    or an ``http.client.HTTPException``; the socket is closed on every path.
    """
    deadline = time.monotonic() + timeout
    with socket.create_connection(request.address, timeout) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if request.tunnel is not None:
            _until(sock, deadline).sendall(request.tunnel)
            status, _ = _Reader(sock, deadline).head()
            if status != 200:
                raise OSError(f"proxy refused the tunnel: HTTP {status}")
        if request.tls_host is None:
            _until(sock, deadline).sendall(request.message)
            return _Reader(sock, deadline).reply()
        # the TLS socket takes over the descriptor; closing both is safe
        with _tls_context().wrap_socket(_until(sock, deadline),
                                        server_hostname=request.tls_host) as tls:
            _until(tls, deadline).sendall(request.message)
            return _Reader(tls, deadline).reply()


def _retry_after(headers) -> float:
    """Seconds a ``Retry-After`` header asks for; 0 unless it is a finite number."""
    try:
        seconds = float(headers.get("retry-after", ""))
    except ValueError:
        return 0.0
    return seconds if math.isfinite(seconds) else 0.0


def _post_json(path: str, body: dict, api: ApiConfig):
    """POST ``body`` to ``api.base_url + path`` with retries; the decoded 200 reply."""
    request = _requests_to(path, api)
    try:  # a non-finite number in the body
        data = json.dumps(body, allow_nan=False).encode("utf-8")
    except ValueError as exc:
        raise PreconditionError(f"cannot build the request to {path}: {exc}") from exc
    return _post(request(data), path, api)


def _post(request: _Request, path: str, api: ApiConfig):
    """Send ``request`` with retries; the decoded 200 reply."""
    last_status = None
    last_error = None
    wait = 0.0
    backoff = api.backoff_base   # doubled after every retry; a float saturates at inf
    for attempt in range(api.attempts):
        if attempt:
            time.sleep(min(max(backoff, wait), MAX_WAIT_S))
            backoff *= 2
        try:
            status, reply_headers, payload = _send(request, api.timeout)
        except (OSError, http.client.HTTPException) as exc:
            last_status, last_error, wait = None, str(exc), 0.0
            continue
        if status in (401, 403):
            raise CredentialError(
                f"endpoint rejected the credential (HTTP {status})", status=status
            )
        if status in _RETRYABLE_STATUS:
            last_status = status
            last_error = payload[:200].decode("utf-8", "replace")
            wait = _retry_after(reply_headers) if status == 429 else 0.0
            continue
        if status != 200:
            raise ProtocolError(f"unexpected HTTP {status} from {path}", status=status)
        try:
            return json.loads(payload)
        except FAULTS as exc:
            raise ProtocolError(f"{path} replied with a non-JSON body: {exc}") from exc
    raise TransportError(
        f"POST {path} failed after {api.attempts} attempts",
        last_status=last_status,
        last_error=last_error,
    )


def _replies(fmt: _ChatFormat, index_lists: Sequence[Sequence[int]],
             cache: ResponseCache, api: ApiConfig):
    """The reply text to each of ``fmt``'s questions for each exemplar index
    list, in that order, through the response cache's memo path: each miss is
    one POST, the first reading the credential and endpoint, so hits need neither."""
    questions = fmt.questions
    heads = [fmt.digest_head(indices) for indices in index_lists]
    digests = [hashlib.sha256(fmt.payload(head, q)).hexdigest()
               for head in heads for q in range(questions)]

    def post(at: list):
        request = _requests_to(_CHAT, api)
        for i in at:
            body = fmt.body(index_lists[i // questions], i % questions)
            doc = _post(request(body), _CHAT, api)
            try:
                text = doc["choices"][0]["message"]["content"]
            except (KeyError, IndexError, TypeError) as exc:
                raise ProtocolError(f"malformed chat completion body: {exc}") from exc
            if not isinstance(text, str):
                raise ProtocolError("chat completion content is not a string")
            yield text

    return memoized(cache, digests, post)


def complete(req: CompletionRequest, cache: ResponseCache, api: ApiConfig) -> str:
    [text] = _replies(_format_of(req), [range(len(req.exemplars))], cache, api)
    return text


_MC_PATTERN = re.compile(r"\b([A-Ea-e])\b")
_DATE_PATTERN = re.compile(r"\b(\d{2}/\d{2}/\d{4})\b")
_NUMERIC_PATTERN = re.compile(r"-?\d+(?:\.\d+)?")
_THOUSANDS = re.compile(r"(?<=\d),(?=\d)")


def extract_answer(text: str, task: Task) -> Optional[str]:
    """Pull the final answer out of free-form model text; None if unparseable."""
    if task is Task.MULTIPLE_CHOICE:
        matches = _MC_PATTERN.findall(text)
        return matches[-1].upper() if matches else None
    if task is Task.DATE:
        matches = _DATE_PATTERN.findall(text)
        return matches[-1] if matches else None
    matches = _NUMERIC_PATTERN.findall(_THOUSANDS.sub("", text))
    return matches[-1] if matches else None


def augmentation_utility(manifest: PromptManifest, questions: Sequence[Question],
                         task: Task, cache: ResponseCache, api: ApiConfig) -> Oracle:
    """Coalition -> mean answer accuracy over the question set, as an
    ``Oracle`` whose ``batch(masks, n)`` asks, for each mask in order, each
    question in file order.

    The empty coalition runs zero-shot, so this oracle defines its own U(empty).
    A transport error aborts the whole coalition evaluation; partial accuracies
    never escape, but the responses received before it stay in the cache.
    """
    if not questions:
        raise PreconditionError("augmentation utility needs at least one question")
    fmt = _ChatFormat(manifest.texts, [q.question for q in questions],
                      api.model, api.temperature, api.max_tokens)
    golds = [q.gold for q in questions]

    def scores(masks: Sequence[int]):
        texts = _replies(fmt, [indices(mask, manifest.n) for mask in masks], cache, api)
        # one tuple of texts per mask; the zip runs the memo path to its end
        for answers in zip(*[texts] * len(golds)):
            correct = sum(extract_answer(text, task) == gold
                          for text, gold in zip(answers, golds))
            yield correct / len(golds)

    return Oracle(checked_batch(manifest.n, f"the manifest has {manifest.n}", scores))


def embed(texts: Sequence[str], api: ApiConfig) -> np.ndarray:
    """One vector per input text, order preserved; each distinct text is
    embedded once over HTTP and duplicates share the result."""
    texts = list(texts)
    if not texts:
        return np.zeros((0, 0), dtype=np.float64)
    unique = list(dict.fromkeys(texts))
    doc = _post_json("/v1/embeddings", {"model": api.embeddings_model, "input": unique}, api)
    try:
        rows = [None] * len(unique)
        for item in doc["data"]:
            index = item["index"]
            if type(index) is not int or not 0 <= index < len(unique):
                raise ValueError(f"index {index!r} is not an integer in 0..{len(unique) - 1}")
            row = item["embedding"]
            if type(row) is not list or not finite_numbers(row):
                raise ValueError(f"the embedding of row {index} is not an array of numbers")
            rows[index] = row
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise ProtocolError(f"malformed embeddings body: {exc}") from exc
    if any(r is None for r in rows):
        raise ProtocolError("embeddings response is missing rows")
    dims = {len(r) for r in rows}
    if len(dims) != 1:
        raise ProtocolError(f"inconsistent embedding dimensions: {sorted(dims)}")
    vectors = np.array(rows, dtype=np.float64)
    position = {text: i for i, text in enumerate(unique)}
    return vectors[[position[t] for t in texts]]
